"""Exhaustive reference solver for small instances (any number of colors).

A dynamic program over (consumed subset, last job, color changes used),
exact for the capped problem.  It certifies the polynomial graph solver and
explores instances with three or more colors, where no polynomial algorithm
is known.

The subset DP is one dense numpy table ``D[mask, last, k]``: the least
total change over orderings of the jobs in ``mask`` that end at ``last``
with exactly ``k`` color changes.  It is stored change-count-major, as
``(cap + 1, 2^n, n)``, and read through the transposed ``(mask, last, k)``
view.  It is filled one popcount layer at a time in pull form, and only in
its band: an ordering of ``size`` jobs has at most ``size - 1`` changes, so
layer ``size`` reads the leading contiguous rows ``k <= size - 2`` of its
predecessors and writes rows ``k <= size - 1``; every cell outside the band
keeps the sentinel.  Each cell ``(mask, nxt)`` reads its one predecessor
mask ``mask ^ (1 << nxt)``: the minimum over same-color last jobs keeps
``k``, the minimum over other-color last jobs is shifted by one change.
Cells of a layer whose next job shares a color are computed together, and
no two write the same cell.  Unreachable cells hold a sentinel, and no
cell exceeds it: the same-color minimum includes ``nxt`` itself, whose
predecessor cell ``(mask ^ (1 << nxt), nxt)`` is never reachable and is
0 away.  :func:`table_dtype` picks the table's dtype and sentinel from the
instance: ``int32`` with sentinel ``2**30`` when the job count times the
temperature span stays below it, which holds for every realistic input
and halves the table, else ``int64`` with ``core.INF``, below which the
magnitude bound of :class:`~calsched.core.Instance` keeps every real sum
exact.  Entries with ``k`` up to some cap do not depend on the table's
width, so :func:`pareto_front` builds one table at the merged maximum and
answers the trade-off table and every budget from it.  The color groups
come from ``sorted(set(colors))``, not ``np.unique``: on numpy 2.4 its
first call imports ``numpy.ma``, 12-30 ms that every process running the
oracle would pay.

Optimal schedules are read back from the table in lexicographic order of
their job indices (the instance's merged job order), so a result truncated
at ``schedule_cap`` holds the first ``schedule_cap`` optima in that order,
whatever the table's width.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import INF, Instance, Schedule, max_merged_color_changes, pareto_table

DEFAULT_MAX_JOBS = 16
DEFAULT_SCHEDULE_CAP = 64

# Masks per subset-DP step are capped so that no temporary holds more than
# about this many cells (2 MiB in int32, 4 MiB in int64); the table itself
# then dominates memory.
_BLOCK_CELLS = 1 << 19


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


def oracle_job_limit() -> int:
    """Size cap for exhaustive search (env ``CALSCHED_ORACLE_MAX_N``)."""
    raw = os.environ.get("CALSCHED_ORACLE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_JOBS
    try:
        return int(raw)
    except ValueError:
        raise OracleSizeError(
            f"CALSCHED_ORACLE_MAX_N must be an integer, got {raw!r}"
        ) from None


def table_dtype(n: int, span: int) -> tuple[type[np.signedinteger], int]:
    """The narrowest exact dtype of the subset-DP table over ``n`` jobs whose
    temperatures span ``span``, and its unreachable sentinel.

    Once ``n * span < 2**30``, an ordering of any subset costs at most
    ``(n - 1) * span``, below the sentinel ``2**30``; no cell exceeds the
    sentinel, and a pull adds one weight of at most ``span`` to a cell, so
    no value reaches ``2**31`` and ``int32`` is exact.
    """
    if n * span < 1 << 30:
        return np.int32, 1 << 30
    return np.int64, INF


def _check_size(instance: Instance) -> None:
    limit = oracle_job_limit()
    if len(instance.jobs) > limit:
        raise OracleSizeError(
            "exhaustive search, the only exact method known for three or "
            f"more colors, handles at most {limit} merged jobs "
            f"(got {len(instance.jobs)})"
        )


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
    jobs = instance.jobs
    temps = [job.temperature for job in jobs]
    colors = [job.color for job in jobs]
    ids = [job.id for job in jobs]
    return temps, colors, ids


def _pull(
    flat: np.ndarray, lasts: np.ndarray, base: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per target ``p`` and change count ``k``, the least
    ``flat[k, base[p] + lasts[i]] + weights[i, p]`` over ``i``: the best way
    to reach ``p`` from any of ``lasts``.  ``flat`` is the band of the
    k-major table, one contiguous row of ``mask * n + last`` per ``k``."""
    reach = np.take(flat, lasts[:, None] + base, axis=1)
    reach += weights
    return reach.min(axis=1)


def _subset_dp_table(
    temps: list[int], colors: list[int], cap: int
) -> tuple[np.ndarray, int]:
    """``D[mask, last, k]``, shape ``(2^n, n, cap + 1)``, and the sentinel its
    unreachable cells hold; see the module notes.

    The table is stored k-major, as ``(cap + 1, 2^n, n)``, and returned as
    the transposed view.  An ordering of ``size`` jobs has at most
    ``size - 1`` changes, so layer ``size`` reads only the leading
    contiguous band ``k <= size - 2`` of its predecessors and writes only
    ``k <= size - 1``; every other cell keeps the sentinel it was filled
    with.  The color groups avoid ``np.unique`` and its ``numpy.ma``
    import.
    """
    n = len(temps)
    dtype, sentinel = table_dtype(n, max(temps) - min(temps))
    t = np.array(temps, dtype=np.int64)
    weights = np.abs(t[:, None] - t[None, :]).astype(dtype)
    color = np.array(colors)
    jobs = np.arange(n)
    table = np.full((cap + 1, 1 << n, n), sentinel, dtype=dtype)
    table[0, 1 << jobs, jobs] = 0
    flat = table.reshape(cap + 1, -1)  # column mask * n + last
    masks = np.arange(1 << n)
    popcount = sum((masks >> j) & 1 for j in range(n))
    groups = [(jobs[color == c], jobs[color != c]) for c in sorted(set(colors))]
    for size in range(2, n + 1):
        read = min(size - 1, cap + 1)  # change counts a predecessor can hold
        write = min(size, cap + 1)
        band = flat[:read]
        layer = masks[popcount == size]
        step = max(1, _BLOCK_CELLS // (n * n * write))
        for start in range(0, len(layer), step):
            block = layer[start : start + step]
            for own, foreign in groups:
                # Every (mask, nxt) of this block with nxt of this color, and
                # the column offset of its one predecessor mask.
                at, pick = np.nonzero(block[:, None] >> own & 1)
                grown, nxt = block[at], own[pick]
                base = (grown ^ (1 << nxt)) * n
                # own holds nxt itself, whose predecessor cell is the
                # sentinel at weight 0, so no cell exceeds the sentinel
                cell = np.full((write, len(nxt)), sentinel, dtype=dtype)
                cell[:read] = _pull(band, own, base, weights[own][:, nxt])
                if foreign.size and write > 1:
                    shifted = _pull(band, foreign, base, weights[foreign][:, nxt])
                    np.minimum(cell[1:], shifted[: write - 1], out=cell[1:])
                flat[:write, grown * n + nxt] = cell
    return table.transpose(1, 2, 0), sentinel


def _optimal_orders(
    table: np.ndarray,
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
        row = table[rest].tolist()
        for nxt in range(n):
            if not rest >> nxt & 1:
                continue
            left, need = budget, value
            if order:
                left -= colors[nxt] != colors[order[-1]]
                need -= abs(temps[nxt] - temps[order[-1]])
            if left < 0 or min(row[nxt][: left + 1]) != need:
                continue
            if extend(order + (nxt,), rest ^ 1 << nxt, left, need):
                return True
        return False

    truncated = extend((), len(table) - 1, cap, best)
    return found[:schedule_cap], truncated


def _solve(
    instance: Instance,
    schedule_cap: int,
    built: tuple[np.ndarray, int] | None,
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
    best = int(table[-1, :, : cap + 1].min())
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


def brute_force_optimal(
    instance: Instance,
    max_color_changes: int,
    *,
    schedule_cap: int = DEFAULT_SCHEDULE_CAP,
) -> OracleResult:
    """Exact minimum total temperature change under a color-change cap.

    The optimal schedules are the lexicographically first ``schedule_cap``
    optimal orders of the instance's job indices, in that order;
    ``truncated`` says that more exist.  Refuses instances above
    :func:`oracle_job_limit`.
    """
    if schedule_cap < 1:
        raise ValueError(f"schedule_cap must be at least 1, got {schedule_cap}")
    _check_size(instance)
    return _solve(instance, schedule_cap, None, max_color_changes)


def pareto_front(
    instance: Instance,
) -> tuple[list[tuple[int, int | None]], Callable[[int], OracleResult]]:
    """The :func:`enumerate_pareto` table and a solve for any budget.

    Both read one subset-DP table built at the merged maximum; the solve
    returns what ``brute_force_optimal(instance, k)`` returns.
    """
    _check_size(instance)
    temps, colors, _ = _prepare(instance)
    built = _subset_dp_table(temps, colors, max_merged_color_changes(instance))
    table, sentinel = built
    exact = table[-1].min(axis=0).tolist()
    front = pareto_table(instance, [None if v >= sentinel else v for v in exact])
    return front, partial(_solve, instance, DEFAULT_SCHEDULE_CAP, built)


def enumerate_pareto(instance: Instance) -> list[tuple[int, int | None]]:
    """Exact table of (cap, optimal total change) for every feasible cap.

    Entries run from 0 to the combinatorial maximum of the color-change
    count; caps no schedule satisfies are flagged with ``None``.
    """
    return pareto_front(instance)[0]
