"""Permutation enumeration: an independent reference for the subset-DP oracle.

Every order of the merged jobs is priced directly, in the lexicographic
order of ``itertools.permutations``, so the first ``schedule_cap`` optima
it keeps are the lexicographically first by definition.  It shares no code
with the table walk of :mod:`calsched.oracle` and is meant for instances of
at most :data:`MAX_JOBS` merged jobs.
"""

from __future__ import annotations

from itertools import permutations

from calsched.core import INF, Instance, Schedule, max_merged_color_changes
from calsched.oracle import DEFAULT_SCHEDULE_CAP, OracleResult

MAX_JOBS = 10


def by_permutations(
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


def permutation_optimal(
    instance: Instance,
    max_color_changes: int,
    schedule_cap: int = DEFAULT_SCHEDULE_CAP,
) -> OracleResult:
    """What ``brute_force_optimal`` must return, by enumeration."""
    jobs = instance.jobs
    assert len(jobs) <= MAX_JOBS, len(jobs)
    cap = min(max_color_changes, max_merged_color_changes(instance))
    if cap < 0:
        return OracleResult(None, (), k_used=max_color_changes)
    best, orders, truncated = by_permutations(
        [job.temperature for job in jobs], [job.color for job in jobs], cap, schedule_cap
    )
    if best is None:
        return OracleResult(None, (), k_used=cap)
    schedules = tuple(
        Schedule(instance=instance, order=tuple(jobs[i].id for i in order))
        for order in orders
    )
    return OracleResult(best, schedules, k_used=cap, truncated=truncated)
