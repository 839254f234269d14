"""Exhaustive reference solver for small instances (any number of colors).

Two interchangeable modes: full permutation enumeration and a dynamic
program over (consumed-subset, last job, changes used).  Both are exact
for the capped problem and agree wherever both run; they exist to certify
the polynomial graph solver and to explore instances with three or more
colors, where no polynomial algorithm is known.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

from .core import Instance, Schedule, max_merged_color_changes, pareto_table

DEFAULT_MAX_JOBS = 16
PERMUTATION_MAX_JOBS = 10
DEFAULT_SCHEDULE_CAP = 64

_INF = float("inf")


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
    best: int | float = _INF
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
    if best == _INF:
        return None, [], False
    found.sort()
    if len(found) > schedule_cap:
        overflow = True
        found = found[:schedule_cap]
    return int(best), found, overflow


def _subset_dp_tables(
    temps: list[int], colors: list[int], cap: int
) -> list[list[list[float] | None] | None]:
    """d[mask][last][k] = min total change over orderings of ``mask`` that
    end at ``last`` with exactly ``k`` color changes (k <= cap)."""
    n = len(temps)
    width = cap + 1
    weights = [[abs(temps[i] - temps[j]) for j in range(n)] for i in range(n)]
    differs = [[colors[i] != colors[j] for j in range(n)] for i in range(n)]
    tables: list[list[list[float] | None] | None] = [None] * (1 << n)
    for i in range(n):
        row: list[list[float] | None] = [None] * n
        cell = [_INF] * width
        cell[0] = 0
        row[i] = cell
        tables[1 << i] = row
    for mask in range(1, 1 << n):
        row = tables[mask]
        if row is None:
            continue
        free = [j for j in range(n) if not mask >> j & 1]
        if not free:
            continue
        for last in range(n):
            cell = row[last]
            if cell is None:
                continue
            w_last = weights[last]
            d_last = differs[last]
            for nxt in free:
                new_mask = mask | (1 << nxt)
                new_row = tables[new_mask]
                if new_row is None:
                    new_row = [None] * n
                    tables[new_mask] = new_row
                target = new_row[nxt]
                if target is None:
                    target = [_INF] * width
                    new_row[nxt] = target
                w = w_last[nxt]
                if d_last[nxt]:
                    for k in range(width - 1):
                        v = cell[k]
                        if v + w < target[k + 1]:
                            target[k + 1] = v + w
                else:
                    for k in range(width):
                        v = cell[k]
                        if v + w < target[k]:
                            target[k] = v + w
    return tables


def _collect_dp_schedules(
    tables: list[list[list[float] | None] | None],
    temps: list[int],
    colors: list[int],
    cap: int,
    best: int,
    schedule_cap: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """Enumerate every ordering realizing ``best`` within the change cap."""
    n = len(temps)
    full = (1 << n) - 1
    found: list[tuple[int, ...]] = []
    overflow = False

    def walk(mask: int, last: int, k: int, value: float, suffix: tuple[int, ...]) -> None:
        nonlocal overflow
        if overflow:
            return
        if mask == 1 << last:
            found.append((last,) + suffix)
            if len(found) > schedule_cap:
                overflow = True
            return
        rest = mask ^ (1 << last)
        row = tables[rest]
        if row is None:
            return
        for prev in range(n):
            if not rest >> prev & 1:
                continue
            cell = row[prev]
            if cell is None:
                continue
            pk = k - (1 if colors[prev] != colors[last] else 0)
            if pk < 0:
                continue
            pv = value - abs(temps[prev] - temps[last])
            if pv < 0 or cell[pk] != pv:
                continue
            walk(rest, prev, pk, pv, (last,) + suffix)

    final = tables[full]
    if final is not None:
        for last in range(n):
            cell = final[last]
            if cell is None:
                continue
            for k in range(cap + 1):
                if cell[k] == best:
                    walk(full, last, k, best, ())
    found.sort()
    if len(found) > schedule_cap:
        overflow = True
        found = found[:schedule_cap]
    return found, overflow


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
    temps, colors, ids = _prepare(instance)
    n = len(temps)
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
    cap = min(max_color_changes, max_merged_color_changes(instance))
    if cap < 0:
        return OracleResult(None, (), k_used=max_color_changes, mode=mode)
    if mode == "permutation":
        best, orders, truncated = _by_permutations(temps, colors, cap, schedule_cap)
    else:
        tables = _subset_dp_tables(temps, colors, cap)
        final = tables[(1 << n) - 1]
        best_val = _INF
        if final is not None:
            for cell in final:
                if cell is not None:
                    best_val = min(best_val, min(cell))
        if best_val == _INF or final is None:
            best, orders, truncated = None, [], False
        else:
            best = int(best_val)
            orders, truncated = _collect_dp_schedules(
                tables, temps, colors, cap, best, schedule_cap
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


def enumerate_pareto(instance: Instance) -> list[tuple[int, int | None]]:
    """Exact table of (cap, optimal total change) for every feasible cap.

    Entries run from 0 to the combinatorial maximum of the color-change
    count; caps no schedule satisfies are flagged with ``None``.
    """
    temps, colors, _ = _prepare(instance)
    n = len(temps)
    _check_size(instance)
    merged_cap = max_merged_color_changes(instance)
    tables = _subset_dp_tables(temps, colors, merged_cap)
    final = tables[(1 << n) - 1]
    best_exact = [_INF] * (merged_cap + 1)
    if final is not None:
        for cell in final:
            if cell is None:
                continue
            for k, v in enumerate(cell):
                if v < best_exact[k]:
                    best_exact[k] = v
    return pareto_table(
        instance, [None if v == _INF else int(v) for v in best_exact]
    )
