"""Plain-Python reference for the oracle's subset-DP table, cell by cell.

It fills ``D[mask][last][k]`` forward, pushing each reached cell to every
job not yet in its mask, with no band, no blocks and no numpy.  So it
shares no code or layout with :func:`calsched.oracle._subset_dp_table`,
which pulls one subset size at a time into a popcount-ranked table.
:func:`dense_view` expands that table to the same dense layout.
"""

from __future__ import annotations

import numpy as np


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


def dense_view(table, cap: int, sentinel: int) -> np.ndarray:
    """The ranked table of :func:`calsched.oracle._subset_dp_table` as the
    dense ``D[mask, last, k]`` of shape ``(2^n, n, cap + 1)``: every cell
    the ranked table does not store holds ``sentinel``."""
    n = len(table.blocks) - 1
    dense = np.full((1 << n, n, cap + 1), sentinel, dtype=table.blocks[-1].dtype)
    for mask in range(1, 1 << n):
        block = table.at(mask)  # (k, position of last)
        jobs = [j for j in range(n) if mask >> j & 1]
        dense[mask, jobs, : len(block)] = block.T
    return dense
