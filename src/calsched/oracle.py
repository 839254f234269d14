"""Exhaustive exact solver for small instances (any number of colors).

A dynamic program over (consumed subset, last job, color changes used),
exact for the capped problem.  With three or more colors no polynomial
algorithm is known, so :func:`calsched.solver.shortest_schedule` and
:func:`calsched.solver.pareto_front` hand such instances to
:func:`shortest_schedule` and :func:`pareto_front` here.  Both answer in
the graph solver's shape, a :class:`~calsched.core.SolveResult` holding the
lexicographically first optimum.  :func:`brute_force_optimal` returns an
:class:`OracleResult` with every optimum up to a cap; on two colors it
certifies the graph solver.

The subset DP is ``D[mask, last, k]``: the least total change over
orderings of the jobs in ``mask`` that end at ``last`` with exactly ``k``
color changes.  Only cells with ``last`` in ``mask`` and
``k < popcount(mask)`` can be reached, and the table stores no others: it
is popcount-ranked, a :class:`RankedTable` of one numpy block per subset
size ``s``, of shape ``(min(s, cap + 1), s, C(n, s))``, indexed by ``k``,
the position of ``last`` among the set bits of ``mask`` and the colex rank
of ``mask`` among the masks of size ``s``.  At 16 jobs it takes 17 MiB in
``int32``, a quarter of the dense ``(cap + 1, 2^n, n)`` table.  The one
size bound is in bytes: a build whose table and index arrays would pass
``MAX_TABLE_BYTES`` (1 GiB) raises :class:`OracleSizeError` before it
allocates.  Over every change count that admits 20 jobs (487 MiB) and
refuses 21 (1,064 MiB); a smaller budget admits more.

Block ``s`` is filled from block ``s - 1`` in pull form: a target
``(mask, nxt)`` reads its one predecessor mask ``mask ^ (1 << nxt)`` at
every predecessor position; a last job of ``nxt``'s color keeps ``k``,
any other adds a change.  Two penalty-weight arrays carry the color test,
so no loop runs over color groups: the own-color weights hold the penalty
``sentinel - 1`` at cross-color pairs, the changed-color weights hold it
at same-color pairs, and each chain is one add and one minimum over the
predecessor positions.  No exact value reaches the penalty, so every
result at or above it is clamped back to the sentinel, and the add cannot
overflow (:func:`table_dtype`).  :func:`table_dtype` picks the table's
dtype and sentinel from the instance: ``int32`` with sentinel ``2**30``
when the job count times the temperature span stays below it, which holds
for every realistic input and halves the table, else ``int64`` with
``core.INF``, below which the magnitude bound of
:class:`~calsched.core.Instance` keeps every real sum exact.  Entries with
``k`` up to some cap do not depend on the table's width, so
:func:`pareto_front` builds one table at the merged maximum and answers
the trade-off table and every budget from it.  The color test compares
colors pairwise and never calls ``np.unique``: on numpy 2.4 its first call
imports ``numpy.ma``, 12-30 ms that every process running the oracle would
pay.

Optimal schedules are read back from the table in lexicographic order of
their job indices (the instance's merged job order), so a result truncated
at ``schedule_cap`` holds the first ``schedule_cap`` optima in that order,
whatever the table's width.  A :class:`~calsched.core.SolveResult` reads
only the first, so its search runs with ``schedule_cap=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import (
    INF,
    Instance,
    Schedule,
    SolveResult,
    color_changes,
    max_merged_color_changes,
    pareto_table,
)

DEFAULT_SCHEDULE_CAP = 64

# Each work array of a table build holds at most this many cells (128 KiB
# in int32, 256 KiB in int64); the table itself then dominates memory.
_CHUNK_CELLS = 1 << 15

# A subset-DP table build is refused when its table and index arrays would
# exceed this size (see the module notes).
MAX_TABLE_BYTES = 1 << 30


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


def table_dtype(n: int, span: int) -> tuple[type[np.signedinteger], int]:
    """The narrowest exact dtype of the subset-DP table over ``n`` jobs whose
    temperatures span ``span``, and its unreachable sentinel.

    Once ``n * span < 2**30``, an ordering of any subset costs at most
    ``(n - 1) * span``, below the penalty ``2**30 - 1`` of the build's
    weight arrays.  A pull adds a weight of at most the penalty to a cell
    of at most the sentinel ``2**30``, so no sum exceeds ``2**31 - 1`` and
    ``int32`` is exact.  In ``int64`` the instance's magnitude bound keeps
    every cost at most ``2**59``, and the sentinel ``core.INF = 2**61`` plus
    its penalty stays below ``2**63``.
    """
    if n * span < 1 << 30:
        return np.int32, 1 << 30
    return np.int64, INF


def table_bytes(n: int, cap: int, dtype: type[np.signedinteger]) -> int:
    """Bytes of the subset-DP table over ``n`` jobs and change counts up to
    ``cap``: per subset size ``s``, ``min(s, cap + 1)`` change counts of
    ``s`` last jobs in each of ``C(n, s)`` masks, in cells of ``dtype``."""
    cells = sum(min(s, cap + 1) * math.comb(n, s) * s for s in range(1, n + 1))
    return cells * np.dtype(dtype).itemsize


def _layer_sizes(n: int) -> tuple[list[int], int]:
    """``C(n, s)`` for every subset size ``s``, and the most ``(position,
    rank)`` cells of any size, ``max_s s * C(n, s)``."""
    counts = [math.comb(n, s) for s in range(n + 1)]
    return counts, max(s * c for s, c in enumerate(counts))


def build_bytes(n: int, cap: int, dtype: type[np.signedinteger]) -> int:
    """Bytes a table build over ``n`` jobs holds at once: the table (see
    :func:`table_bytes`) and its index arrays, all ``intp``: the ``rank``
    lookup of ``2**n`` cells, four per-layer arrays of ``max_s s * C(n, s)``
    cells, and the masks and ranks of the widest layer."""
    counts, widest = _layer_sizes(n)
    index_cells = (1 << n) + 4 * widest + 2 * max(counts)
    return table_bytes(n, cap, dtype) + index_cells * np.dtype(np.intp).itemsize


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum, all optimal schedules up to a cap, and the cap used."""

    optimal_total_change: int | None
    optimal_schedules: tuple[Schedule, ...]
    k_used: int
    truncated: bool = False

    @property
    def feasible(self) -> bool:
        return self.optimal_total_change is not None

    @property
    def mode(self) -> str:
        """The enumeration that produced the result; the subset DP is the
        only one."""
        return "subset_dp"


def _prepare(instance: Instance) -> tuple[list[int], list[int], list[str]]:
    """Each job's temperature, color and id.  A color is given as its rank
    among the instance's colors: labels are any nonnegative ints, and numpy
    would read labels past ``int64`` as floats, merging some."""
    jobs = instance.jobs
    temps = [job.temperature for job in jobs]
    rank = {color: i for i, color in enumerate(instance.colors)}
    colors = [rank[job.color] for job in jobs]
    ids = [job.id for job in jobs]
    return temps, colors, ids


class RankedTable(NamedTuple):
    """The subset-DP table, one block per subset size; see the module notes.

    ``blocks[s]`` has shape ``(min(s, cap + 1), s, C(n, s))`` and holds
    ``D[mask, last, k]`` at ``[k, position of last among the set bits of
    mask, rank[mask]]``, where ``rank`` is the colex rank of each mask among
    the masks of its size.
    """

    blocks: list[np.ndarray]
    rank: np.ndarray

    def at(self, mask: int) -> np.ndarray:
        """``D[mask, last, k]`` for every ``last`` in ``mask``, as a
        ``(k, position of last)`` array; positions ascend with the job."""
        return self.blocks[mask.bit_count()][:, :, self.rank[mask]]


def _subset_dp_table(
    temps: list[int], colors: list[int], cap: int
) -> tuple[RankedTable, int]:
    """The subset-DP table for change counts up to ``cap`` and the sentinel
    its unreachable cells hold; see the module notes.

    Block ``s`` is filled in chunks of its flat ``(position, rank)``
    targets.  A chunk gathers the predecessor block at its targets'
    predecessor ranks, every predecessor position at once, adds the
    own-color and the changed-color weights, and reduces each chain over
    the predecessor positions.  The work arrays are allocated once per
    build and hold at most ``_CHUNK_CELLS`` cells each.  A build whose
    table and index arrays (see :func:`build_bytes`) would take more than
    ``MAX_TABLE_BYTES`` is refused with :class:`OracleSizeError` before
    anything is allocated; this is the exhaustive solver's only size bound.
    """
    n = len(temps)
    dtype, sentinel = table_dtype(n, max(temps) - min(temps))
    # The rank lookup alone takes 2**n cells.  Past the limit the build is
    # refused before its bytes are summed over every subset size, and the
    # message gives a power of two: 2**n MiB overflows a float past about
    # 1,000 jobs.
    lookup = (1 << n) * np.dtype(np.intp).itemsize
    size = lookup if lookup > MAX_TABLE_BYTES else build_bytes(n, cap, dtype)
    if size > MAX_TABLE_BYTES:
        need = (
            f"at least 2^{lookup.bit_length() - 21} MiB for its rank lookup"
            if lookup > MAX_TABLE_BYTES
            else f"{size / 2**20:,.0f} MiB for its table and index arrays"
        )
        raise OracleSizeError(
            f"exhaustive search over {n} merged jobs with up to {cap} color "
            f"changes needs {need}, above the {MAX_TABLE_BYTES >> 20:,} MiB limit"
        )
    penalty = sentinel - 1
    t = np.array(temps, dtype=np.int64)
    same = np.array(colors)[:, None] == np.array(colors)[None, :]
    weights = np.abs(t[:, None] - t[None, :]).astype(dtype)
    # Flat over (nxt, last); the weights are symmetric.
    own_w = np.where(same, weights, penalty).ravel()
    changed_w = np.where(same, penalty, weights).ravel()

    # Per layer: the job at each (position, rank) of it and of the layer
    # below, that job's bit, each mask, and the rank of each target's
    # predecessor mask; rank[mask] is filled in layer by layer.  Every
    # index is in range, and np.take's mode="clip" writes straight into
    # out=, where the default mode would write through a temporary copy.
    counts, widest = _layer_sizes(n)
    jobs_below, jobs_at, bits, preds = (
        np.empty(widest, dtype=np.intp) for _ in range(4)
    )
    masks = np.empty(max(counts), dtype=np.intp)
    ranks = np.arange(max(counts))
    rank = np.zeros(1 << n, dtype=np.intp)
    rank[1 << ranks[:n]] = ranks[:n]
    gathered, summed, weight, shifted = (
        np.empty(_CHUNK_CELLS, dtype=dtype) for _ in range(4)
    )
    lasts, scaled = (np.empty(_CHUNK_CELLS, dtype=np.intp) for _ in range(2))
    high = np.empty(_CHUNK_CELLS, dtype=bool)

    blocks = [np.empty((0, 0, 1), dtype=dtype), np.zeros((1, 1, n), dtype=dtype)]
    jobs_below[:n] = np.arange(n)
    for s in range(2, n + 1):
        count = counts[s]
        read = min(s - 1, cap + 1)  # change counts a predecessor can hold
        write = min(s, cap + 1)
        prev = blocks[-1]
        below = jobs_below[: (s - 1) * counts[s - 1]].reshape(s - 1, -1)
        pos = jobs_at[: s * count].reshape(s, count)
        bit = bits[: s * count].reshape(s, count)
        pred = preds[: s * count].reshape(s, count)
        mask = masks[:count]
        # Colex order: the masks whose top job is j follow the order of
        # their other jobs, which are the first C(j, s - 1) masks below.
        for j in range(s - 1, n):
            lo, hi = math.comb(j, s), math.comb(j + 1, s)
            pos[:-1, lo:hi] = below[:, : hi - lo]
            pos[-1, lo:hi] = j
        np.left_shift(1, pos, out=bit)
        np.sum(bit, axis=0, out=mask)
        rank[mask] = ranks[:count]
        np.bitwise_xor(bit, mask, out=bit)
        np.take(rank, bit, out=pred, mode="clip")

        block = np.empty((write, s, count), dtype=dtype)
        cells = block.reshape(write, s * count)
        targets, nxt = pred.reshape(-1), pos.reshape(-1)
        step = _CHUNK_CELLS // (read * (s - 1))
        for a in range(0, s * count, step):
            m = min(step, s * count - a)
            at, cell = targets[a : a + m], cells[:, a : a + m]
            reach = gathered[: read * (s - 1) * m].reshape(read, s - 1, m)
            total = summed[: read * (s - 1) * m].reshape(read, s - 1, m)
            pair = lasts[: (s - 1) * m].reshape(s - 1, m)
            w = weight[: (s - 1) * m].reshape(s - 1, m)
            np.take(prev, at, axis=2, out=reach, mode="clip")
            np.take(below, at, axis=1, out=pair, mode="clip")
            np.add(pair, np.multiply(nxt[a : a + m], n, out=scaled[:m]), out=pair)
            # The own color keeps k, another color adds a change.
            np.take(own_w, pair, out=w, mode="clip")
            np.add(reach, w, out=total)
            np.minimum.reduce(total, axis=1, out=cell[:read])
            if write > 1:
                changed = shifted[: (write - 1) * m].reshape(write - 1, m)
                np.take(changed_w, pair, out=w, mode="clip")
                np.add(reach[: write - 1], w, out=total[: write - 1])
                np.minimum.reduce(total[: write - 1], axis=1, out=changed)
                np.minimum(cell[1:read], changed[: read - 1], out=cell[1:read])
                cell[read:] = changed[read - 1 :]
            over = high[: write * m].reshape(write, m)
            np.greater_equal(cell, penalty, out=over)
            np.copyto(cell, sentinel, where=over)
        blocks.append(block)
        jobs_below, jobs_at = jobs_at, jobs_below
    return RankedTable(blocks, rank), sentinel


def _optimal_orders(
    table: RankedTable,
    temps: list[int],
    colors: list[int],
    cap: int,
    best: int,
    schedule_cap: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """The lexicographically first ``schedule_cap`` job index orders of cost
    ``best`` within ``cap`` color changes, and whether more exist.

    A reversed order keeps its cost and its change count, so ``D[rest, j, k]``
    is also the least cost of the orders of ``rest`` that start at ``j``.  A
    depth-first search extends a prefix by each unplaced job in ascending
    index order, and enters a branch only when the least cost of its
    completions within the remaining budget equals the remaining value.  No
    branch dead-ends, and optima are met in lexicographic order, so the
    search stops at the first one past ``schedule_cap``.
    """
    n = len(temps)
    found: list[tuple[int, ...]] = []

    def extend(order: tuple[int, ...], rest: int, budget: int, value: int) -> bool:
        if not rest:
            found.append(order)
            return len(found) > schedule_cap
        # Positions among the set bits of rest ascend with the job index.
        jobs = [j for j in range(n) if rest >> j & 1]
        for nxt, row in zip(jobs, table.at(rest).T.tolist()):
            left, need = budget, value
            if order:
                left -= colors[nxt] != colors[order[-1]]
                need -= abs(temps[nxt] - temps[order[-1]])
            if left < 0 or min(row[: left + 1]) != need:
                continue
            if extend(order + (nxt,), rest ^ 1 << nxt, left, need):
                return True
        return False

    truncated = extend((), (1 << n) - 1, cap, best)
    return found[:schedule_cap], truncated


def _solve(
    instance: Instance,
    schedule_cap: int,
    built: tuple[RankedTable, int] | None,
    max_color_changes: int,
) -> OracleResult:
    """Optimum under a budget, read from the table and sentinel ``built``;
    the table is built here at the budget when ``built`` is ``None``."""
    cap = min(max_color_changes, max_merged_color_changes(instance))
    if cap < 0:
        return OracleResult(None, (), k_used=max_color_changes)
    temps, colors, ids = _prepare(instance)
    if built is None:
        built = _subset_dp_table(temps, colors, cap)
    table, sentinel = built
    best = int(table.at((1 << len(temps)) - 1)[: cap + 1].min())
    if best >= sentinel:
        return OracleResult(None, (), k_used=cap)
    orders, truncated = _optimal_orders(table, temps, colors, cap, best, schedule_cap)
    schedules = tuple(
        Schedule(instance=instance, order=tuple(ids[i] for i in order))
        for order in orders
    )
    return OracleResult(
        optimal_total_change=best,
        optimal_schedules=schedules,
        k_used=cap,
        truncated=truncated,
    )


def _first_optimum(
    instance: Instance, built: tuple[RankedTable, int] | None, max_color_changes: int
) -> SolveResult:
    """:func:`_solve`'s answer as a :class:`~calsched.core.SolveResult`:
    the lexicographically first optimal schedule, searched for alone."""
    outcome = _solve(instance, 1, built, max_color_changes)
    if not outcome.feasible:
        return SolveResult(None, None, None, False)
    schedule = outcome.optimal_schedules[0]
    return SolveResult(schedule, outcome.optimal_total_change, color_changes(schedule), True)


def brute_force_optimal(
    instance: Instance,
    max_color_changes: int,
    *,
    schedule_cap: int = DEFAULT_SCHEDULE_CAP,
) -> OracleResult:
    """Exact minimum total temperature change under a color-change cap.

    The optimal schedules are the lexicographically first ``schedule_cap``
    optimal orders of the instance's job indices, in that order;
    ``truncated`` says that more exist.  Raises :class:`OracleSizeError`
    when the table at the budget would exceed ``MAX_TABLE_BYTES``.
    """
    if schedule_cap < 1:
        raise ValueError(f"schedule_cap must be at least 1, got {schedule_cap}")
    return _solve(instance, schedule_cap, None, max_color_changes)


def shortest_schedule(instance: Instance, max_color_changes: int) -> SolveResult:
    """The first of ``brute_force_optimal(instance, max_color_changes)``'s
    optimal schedules, from a table built at the budget.

    Raises :class:`OracleSizeError` when that table would exceed
    ``MAX_TABLE_BYTES``, so a small budget admits more jobs.
    """
    return _first_optimum(instance, None, max_color_changes)


def pareto_front(
    instance: Instance,
) -> tuple[list[tuple[int, int | None]], Callable[[Iterable[int]], list[SolveResult]]]:
    """The :func:`enumerate_pareto` table and a batch solve for any budgets.

    Both read one subset-DP table built at the merged maximum.  The solve
    takes a sequence of budgets, infeasible ones included, and returns
    what :func:`shortest_schedule` returns for each.  Raises
    :class:`OracleSizeError` when the table would exceed
    ``MAX_TABLE_BYTES``, as it does from 21 jobs of three colors that can
    alternate throughout.
    """
    temps, colors, _ = _prepare(instance)
    built = _subset_dp_table(temps, colors, max_merged_color_changes(instance))
    table, sentinel = built
    exact = table.at((1 << len(temps)) - 1).min(axis=1).tolist()
    front = pareto_table(instance, [None if v >= sentinel else v for v in exact])

    def solve_many(budgets: Iterable[int]) -> list[SolveResult]:
        return [_first_optimum(instance, built, k) for k in budgets]

    return front, solve_many


def enumerate_pareto(instance: Instance) -> list[tuple[int, int | None]]:
    """Exact table of (cap, optimal total change) for every feasible cap.

    Entries run from 0 to the combinatorial maximum of the color-change
    count; caps no schedule satisfies are flagged with ``None``.
    """
    return pareto_front(instance)[0]
