"""Plain-Python reference for the oracle's subset-DP table, cell by cell.

It fills ``D[mask][last][k]`` forward, pushing each reached cell to every
job not yet in its mask, with no band, no blocks and no numpy.  So it
shares no code or layout with :func:`calsched.oracle._subset_dp_table`,
which pulls one popcount layer at a time within its band.
"""

from __future__ import annotations


def subset_dp_cells(
    temps: list[int], colors: list[int], width: int, sentinel: int
) -> list[list[list[int]]]:
    """``D[mask][last][k]`` for ``k < width``: the least total change over
    orderings of the jobs in ``mask`` that end at ``last`` with exactly
    ``k`` color changes, or ``sentinel`` when there is no such ordering."""
    n = len(temps)
    table = [[[sentinel] * width for _ in range(n)] for _ in range(1 << n)]
    for job in range(n):
        table[1 << job][job][0] = 0
    # Adding a job makes a larger mask, so every mask is final when reached.
    for mask in range(1, 1 << n):
        for last in range(n):
            for k, value in enumerate(table[mask][last]):
                if value == sentinel:
                    continue
                for nxt in range(n):
                    changes = k + (colors[nxt] != colors[last])
                    if mask >> nxt & 1 or changes >= width:
                        continue
                    cell = table[mask | 1 << nxt][nxt]
                    cell[changes] = min(cell[changes], value + abs(temps[nxt] - temps[last]))
    return table
