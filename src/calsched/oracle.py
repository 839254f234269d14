"""Exhaustive reference solver for small instances (any number of colors).

Two interchangeable modes: full permutation enumeration and a dynamic
program over (consumed subset, last job, color changes used).  Both are
exact for the capped problem and agree wherever both run; they exist to
certify the polynomial graph solver and to explore instances with three or
more colors, where no polynomial algorithm is known.

The subset DP is one dense numpy ``int64`` table ``D[mask, last, k]``: the
least total change over orderings of the jobs in ``mask`` that end at
``last`` with exactly ``k`` color changes.  It is filled one popcount layer
at a time in pull form.  Each cell ``(mask, nxt)`` reads its one
predecessor mask ``mask ^ (1 << nxt)``: the minimum over same-color last
jobs keeps ``k``, the minimum over other-color last jobs is shifted by one
change.  Cells of a layer whose next job shares a color are computed
together, and no two write the same cell.  Unreachable cells hold the
``INF`` sentinel, and every written cell is clamped at it; the magnitude
bound of :class:`~calsched.core.Instance` keeps every real sum exact below
it.  Entries with ``k`` up to some cap do not depend on the table's width,
so :func:`pareto_front` builds one table at the merged maximum and answers
the trade-off table and every budget from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from typing import Callable

import numpy as np

from .core import INF, Instance, Schedule, max_merged_color_changes, pareto_table

DEFAULT_MAX_JOBS = 16
PERMUTATION_MAX_JOBS = 10
DEFAULT_SCHEDULE_CAP = 64

# Masks per subset-DP step are capped so that no temporary holds more than
# about this many cells (4 MB); the table itself then dominates memory.
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
    mode: str
    truncated: bool = False

    @property
    def feasible(self) -> bool:
        return self.optimal_total_change is not None


def _prepare(instance: Instance) -> tuple[list[int], list[int], list[str]]:
    jobs = instance.jobs
    temps = [job.temperature for job in jobs]
    colors = [job.color for job in jobs]
    ids = [job.id for job in jobs]
    return temps, colors, ids


def _by_permutations(
    temps: list[int], colors: list[int], cap: int, schedule_cap: int
) -> tuple[int | None, list[tuple[int, ...]], bool]:
    n = len(temps)
    best = INF
    found: list[tuple[int, ...]] = []
    overflow = False
    for perm in permutations(range(n)):
        total = 0
        changes = 0
        prev = perm[0]
        ok = True
        for cur in perm[1:]:
            if colors[cur] != colors[prev]:
                changes += 1
                if changes > cap:
                    ok = False
                    break
            total += abs(temps[cur] - temps[prev])
            if total > best:
                ok = False
                break
            prev = cur
        if not ok:
            continue
        if total < best:
            best = total
            found = [perm]
            overflow = False
        elif total == best:
            if len(found) <= schedule_cap:
                found.append(perm)
            else:
                overflow = True
    if best == INF:
        return None, [], False
    found.sort()
    if len(found) > schedule_cap:
        overflow = True
        found = found[:schedule_cap]
    return best, found, overflow


def _pull(
    rows: np.ndarray, lasts: np.ndarray, base: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per target ``p``, the least ``rows[base[p] + lasts[i]] + weights[i, p]``
    over ``i``: the best way to reach ``p`` from any of ``lasts``."""
    reach = np.take(rows, lasts[:, None] + base, axis=0)
    reach += weights[:, :, None]
    return reach.min(axis=0)


def _subset_dp_table(temps: list[int], colors: list[int], cap: int) -> np.ndarray:
    """``D[mask, last, k]``, shape ``(2^n, n, cap + 1)``; see the module notes."""
    n = len(temps)
    t = np.array(temps, dtype=np.int64)
    weights = np.abs(t[:, None] - t[None, :])
    color = np.array(colors)
    jobs = np.arange(n)
    table = np.full((1 << n, n, cap + 1), INF, dtype=np.int64)
    table[1 << jobs, jobs, 0] = 0
    rows = table.reshape(-1, cap + 1)  # row mask * n + last
    masks = np.arange(1 << n)
    popcount = sum((masks >> j) & 1 for j in range(n))
    groups = [(jobs[color == c], jobs[color != c]) for c in np.unique(color)]
    step = max(1, _BLOCK_CELLS // (n * n * (cap + 1)))
    for size in range(2, n + 1):
        layer = masks[popcount == size]
        for start in range(0, len(layer), step):
            block = layer[start : start + step]
            for own, foreign in groups:
                # Every (mask, nxt) of this block with nxt of this color, and
                # the row offset of its one predecessor mask.
                at, pick = np.nonzero(block[:, None] >> own & 1)
                grown, nxt = block[at], own[pick]
                base = (grown ^ (1 << nxt)) * n
                # own holds nxt itself, whose predecessor cell is INF
                cell = _pull(rows, own, base, weights[own][:, nxt])
                if foreign.size and cap:
                    shifted = _pull(rows, foreign, base, weights[foreign][:, nxt])
                    np.minimum(cell[:, 1:], shifted[:, :-1], out=cell[:, 1:])
                table[grown, nxt] = np.minimum(cell, INF, out=cell)
    return table


def _collect_dp_schedules(
    table: np.ndarray,
    temps: list[int],
    colors: list[int],
    cap: int,
    best: int,
    schedule_cap: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """Enumerate every ordering realizing ``best`` within the change cap.

    Visits final jobs ascending, then change counts ascending, then
    predecessors ascending, so a truncated enumeration keeps the same
    schedules whatever the table's width.
    """
    n = len(temps)
    found: list[tuple[int, ...]] = []
    overflow = False

    def walk(mask: int, last: int, k: int, value: int, suffix: tuple[int, ...]) -> None:
        nonlocal overflow
        if overflow:
            return
        if mask == 1 << last:
            found.append((last,) + suffix)
            if len(found) > schedule_cap:
                overflow = True
            return
        rest = mask ^ (1 << last)
        row = table[rest].tolist()
        for prev in range(n):
            if not rest >> prev & 1:
                continue
            pk = k - (1 if colors[prev] != colors[last] else 0)
            if pk < 0:
                continue
            pv = value - abs(temps[prev] - temps[last])
            if pv < 0 or row[prev][pk] != pv:
                continue
            walk(rest, prev, pk, pv, (last,) + suffix)

    final = table[-1].tolist()
    for last in range(n):
        for k in range(cap + 1):
            if final[last][k] == best:
                walk(len(table) - 1, last, k, best, ())
    found.sort()
    if len(found) > schedule_cap:
        overflow = True
        found = found[:schedule_cap]
    return found, overflow


def _resolve_mode(instance: Instance, mode: str) -> str:
    n = len(instance.jobs)
    if mode == "auto":
        mode = "permutation" if n <= 7 else "subset_dp"
    if mode not in ("permutation", "subset_dp"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if mode == "permutation" and n > PERMUTATION_MAX_JOBS:
        raise OracleSizeError(
            f"permutation mode handles at most {PERMUTATION_MAX_JOBS} "
            f"merged jobs, got {n}"
        )
    _check_size(instance)
    return mode


def _solve(
    instance: Instance,
    mode: str,
    schedule_cap: int,
    table: np.ndarray | None,
    max_color_changes: int,
) -> OracleResult:
    """Optimum under a budget by ``mode``; ``subset_dp`` reads ``table``,
    built here at the budget when ``None``."""
    temps, colors, ids = _prepare(instance)
    cap = min(max_color_changes, max_merged_color_changes(instance))
    if cap < 0:
        return OracleResult(None, (), k_used=max_color_changes, mode=mode)
    best: int | None
    if mode == "permutation":
        best, orders, truncated = _by_permutations(temps, colors, cap, schedule_cap)
    else:
        if table is None:
            table = _subset_dp_table(temps, colors, cap)
        best = int(table[-1, :, : cap + 1].min())
        if best >= INF:
            best, orders, truncated = None, [], False
        else:
            orders, truncated = _collect_dp_schedules(
                table, temps, colors, cap, best, schedule_cap
            )
    if best is None:
        return OracleResult(None, (), k_used=cap, mode=mode)
    schedules = tuple(
        Schedule(instance=instance, order=tuple(ids[i] for i in order))
        for order in orders
    )
    return OracleResult(
        optimal_total_change=best,
        optimal_schedules=schedules,
        k_used=cap,
        mode=mode,
        truncated=truncated,
    )


def brute_force_optimal(
    instance: Instance,
    max_color_changes: int,
    mode: str = "auto",
    schedule_cap: int = DEFAULT_SCHEDULE_CAP,
) -> OracleResult:
    """Exact minimum total temperature change under a color-change cap.

    ``mode`` is one of ``auto``, ``permutation`` (merged job count <= 10)
    or ``subset_dp``; every mode refuses instances above
    :func:`oracle_job_limit`.
    """
    mode = _resolve_mode(instance, mode)
    return _solve(instance, mode, schedule_cap, None, max_color_changes)


def pareto_front(
    instance: Instance,
) -> tuple[list[tuple[int, int | None]], Callable[[int], OracleResult]]:
    """The :func:`enumerate_pareto` table and a solve for any budget.

    Both read one subset-DP table built at the merged maximum; the solve
    returns what ``brute_force_optimal(instance, k)`` returns.
    """
    mode = _resolve_mode(instance, "auto")
    temps, colors, _ = _prepare(instance)
    table = _subset_dp_table(temps, colors, max_merged_color_changes(instance))
    exact = table[-1].min(axis=0).tolist()
    front = pareto_table(instance, [None if v >= INF else v for v in exact])
    return front, partial(_solve, instance, mode, DEFAULT_SCHEDULE_CAP, table)


def enumerate_pareto(instance: Instance) -> list[tuple[int, int | None]]:
    """Exact table of (cap, optimal total change) for every feasible cap.

    Entries run from 0 to the combinatorial maximum of the color-change
    count; caps no schedule satisfies are flagged with ``None``.
    """
    return pareto_front(instance)[0]
