"""Schedule rewrite rules that never increase either cost metric.

The rules build on each other: internal sorting of blocks, merging of
overlapping same-color blocks, reordering of the same-color block
sequences, and finally a full normal form in which every inner block runs
in increasing temperature order.  The first three rewrites return the
improved schedule together with a trace of the steps applied;
:func:`normalize` returns only the schedule.  Operations establish their
own prerequisites, so any valid schedule is accepted.

Each canonical-form property has one finder over the block list, which
lists where the property fails.  A rewrite stage loops over its finder's
output, and :func:`check_canonical_form` reports the same four lists.

All rules are constructive improvements: for every step the total
temperature change and the color-change count of the schedule are less
than or equal to their values before the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .core import (
    Job,
    Schedule,
    ValidationError,
    color_changes,
    partition_blocks,
    total_temperature_change,
)

# Working representation: a list of (color, jobs) pairs with mutable job
# lists; cheap to edit in place and flattened back to a Schedule at the end.
_Blocks = list[tuple[int, list[Job]]]


@dataclass(frozen=True)
class ImprovementStep:
    """One applied rewrite: rule name, touched block indices, metrics."""

    rule: str
    blocks: tuple[int, ...]
    t_before: int
    t_after: int
    c_before: int
    c_after: int


@dataclass(frozen=True)
class ImprovementTrace:
    steps: tuple[ImprovementStep, ...]


def four_point_inequality(a: int, b: int, c: int, d: int) -> bool:
    """Whether |b-a| + |d-c| <= |c-a| + |d-b| (requires b < c and a < d).

    The inequality always holds under the precondition; it justifies
    running inner blocks in increasing order once the block sequence is
    externally increasing.
    """
    if not (b < c and a < d):
        raise ValidationError("four_point_inequality requires b < c and a < d")
    return abs(b - a) + abs(d - c) <= abs(c - a) + abs(d - b)


def _flatten(blocks: _Blocks) -> list[Job]:
    return [job for _, jobs in blocks for job in jobs]


def _metrics(blocks: _Blocks) -> tuple[int, int]:
    flat = _flatten(blocks)
    return total_temperature_change(flat), color_changes(flat)


def _to_blocks(schedule: Schedule) -> _Blocks:
    return [(b.color, list(b.jobs)) for b in partition_blocks(schedule)]


def _temps(jobs: list[Job]) -> list[int]:
    return [j.temperature for j in jobs]


def _increasing(values: list[int]) -> bool:
    return all(x < y for x, y in zip(values, values[1:]))


def _span(jobs: list[Job]) -> tuple[int, int]:
    temps = _temps(jobs)
    return min(temps), max(temps)


def _unsorted(blocks: _Blocks) -> list[int]:
    """Blocks whose temperatures are not monotone."""
    temps = [_temps(jobs) for _, jobs in blocks]
    return [i for i, t in enumerate(temps) if not (_increasing(t) or _increasing(t[::-1]))]


def _intersecting(blocks: _Blocks) -> list[tuple[int, int]]:
    """Same-color block pairs ``(r, s)``, ``r < s``, whose spans intersect."""
    spans = [_span(jobs) for _, jobs in blocks]
    return [
        (r, s)
        for r, s in combinations(range(len(blocks)), 2)
        if blocks[r][0] == blocks[s][0]
        and spans[r][0] <= spans[s][1]
        and spans[s][0] <= spans[r][1]
    ]


def _unincreasing(blocks: _Blocks) -> list[int]:
    """Colors, ascending, whose block maxima do not increase along the schedule."""
    maxima: dict[int, list[int]] = {}
    for color, jobs in blocks:
        maxima.setdefault(color, []).append(_span(jobs)[1])
    return [color for color in sorted(maxima) if not _increasing(maxima[color])]


def _not_ascending(blocks: _Blocks) -> list[int]:
    """Inner blocks (neither first nor last) that do not run upward."""
    return [i for i in range(1, len(blocks) - 1) if not _increasing(_temps(blocks[i][1]))]


def _oriented(jobs: list[Job], left: Job | None, right: Job | None) -> list[Job]:
    """Monotone ordering of ``jobs`` minimizing the adjacent transitions.

    Ties prefer increasing order, which keeps results deterministic.
    """
    asc = sorted(jobs, key=lambda j: j.temperature)
    desc = asc[::-1]

    def junction_cost(ordered: list[Job]) -> int:
        cost = 0
        if left is not None:
            cost += abs(ordered[0].temperature - left.temperature)
        if right is not None:
            cost += abs(ordered[-1].temperature - right.temperature)
        return cost

    return asc if junction_cost(asc) <= junction_cost(desc) else desc


class _Recorder:
    """Collects improvement steps and enforces per-step monotonicity."""

    def __init__(self, blocks: _Blocks) -> None:
        self.steps: list[ImprovementStep] = []
        self._t, self._c = _metrics(blocks)

    def record(self, rule: str, touched: tuple[int, ...], blocks: _Blocks) -> None:
        t_after, c_after = _metrics(blocks)
        step = ImprovementStep(rule, touched, self._t, t_after, self._c, c_after)
        if t_after > self._t or c_after > self._c:
            raise AssertionError(f"rewrite increased a metric: {step}")
        self.steps.append(step)
        self._t, self._c = t_after, c_after


def _sort_internally(blocks: _Blocks, rec: _Recorder) -> None:
    """Make every block monotone in temperature (left-to-right sweep)."""
    for i in _unsorted(blocks):
        left = blocks[i - 1][1][-1] if i > 0 else None
        right = blocks[i + 1][1][0] if i + 1 < len(blocks) else None
        blocks[i] = (blocks[i][0], _oriented(blocks[i][1], left, right))
        rec.record("sort-block", (i,), blocks)


def _insert_sorted(jobs: list[Job], job: Job) -> None:
    """Insert ``job`` into a monotone block, keeping it monotone."""
    sign = 1 if len(jobs) < 2 or jobs[0].temperature < jobs[-1].temperature else -1
    key = sign * job.temperature
    pos = next((k for k, j in enumerate(jobs) if sign * j.temperature > key), len(jobs))
    jobs.insert(pos, job)


def _elide_empty(blocks: _Blocks, idx: int, rec: _Recorder) -> None:
    """Drop the emptied block ``idx`` and merge now-adjacent equal colors."""
    del blocks[idx]
    left, right = idx - 1, idx
    if left >= 0 and right < len(blocks) and blocks[left][0] == blocks[right][0]:
        color = blocks[left][0]
        merged = blocks[left][1] + blocks[right][1]
        del blocks[right]
        outer_left = blocks[left - 1][1][-1] if left > 0 else None
        outer_right = blocks[left + 1][1][0] if left + 1 < len(blocks) else None
        blocks[left] = (color, _oriented(merged, outer_left, outer_right))
    rec.record("merge-adjacent-blocks", (idx,), blocks)


def _remove_intersections(blocks: _Blocks, rec: _Recorder) -> None:
    """Merge overlapping same-color blocks until all spans are disjoint.

    The donor's jobs that fall strictly inside the recipient's span move
    in ascending order into their fitting position there; the recipient's
    border jobs, and so its span, never change, so no transition cost can
    grow.  An emptied donor is elided, merging its neighbors.
    """
    while pairs := _intersecting(blocks):
        r, s = pairs[0]
        (lo_r, hi_r), (lo_s, hi_s) = _span(blocks[r][1]), _span(blocks[s][1])
        # The nested block donates; on partial overlap the later one does.
        donor, recipient = (r, s) if lo_s < lo_r and hi_s > hi_r else (s, r)
        lo_rec, hi_rec = _span(blocks[recipient][1])
        inside = [j for j in blocks[donor][1] if lo_rec < j.temperature < hi_rec]
        for job in sorted(inside, key=lambda j: j.temperature):
            blocks[donor][1].remove(job)
            _insert_sorted(blocks[recipient][1], job)
        emptied = not blocks[donor][1]
        rec.record("merge-intersecting-blocks", (r, s), blocks)
        if emptied:
            _elide_empty(blocks, donor, rec)


def _reverse_all(blocks: _Blocks) -> None:
    blocks.reverse()
    for i, (color, jobs) in enumerate(blocks):
        blocks[i] = (color, jobs[::-1])


def _find_crossing_quadruplet(blocks: _Blocks) -> int | None:
    """Leftmost index i such that the same-color pairs around blocks
    i and i+1 are ordered in opposite directions."""
    maxima = [_span(jobs)[1] for _, jobs in blocks]
    for i in range(1, len(blocks) - 2):
        first_up = maxima[i + 1] > maxima[i - 1]
        second_up = maxima[i + 2] > maxima[i]
        if first_up != second_up:
            return i
    return None


def _swap_and_merge(blocks: _Blocks, i: int, rec: _Recorder) -> None:
    """Swap blocks i and i+1 and merge both resulting same-color pairs.

    After the swap, block i+1 sits next to the same-colored block i-1 and
    block i next to block i+2; both pairs fuse into single blocks whose
    orientations are chosen jointly (their shared junction depends on
    both), which never costs more than the swap the crossing argument
    prescribes.
    """
    merged_left = blocks[i - 1][1] + blocks[i + 1][1]
    merged_right = blocks[i][1] + blocks[i + 2][1]
    color_left = blocks[i - 1][0]
    color_right = blocks[i][0]
    outer_left = blocks[i - 2][1][-1] if i - 2 >= 0 else None
    outer_right = blocks[i + 3][1][0] if i + 3 < len(blocks) else None
    left_asc = sorted(merged_left, key=lambda j: j.temperature)
    right_asc = sorted(merged_right, key=lambda j: j.temperature)
    best: tuple[int, list[Job], list[Job]] | None = None
    for lhs in (left_asc, left_asc[::-1]):
        for rhs in (right_asc, right_asc[::-1]):
            cost = abs(rhs[0].temperature - lhs[-1].temperature)
            if outer_left is not None:
                cost += abs(lhs[0].temperature - outer_left.temperature)
            if outer_right is not None:
                cost += abs(rhs[-1].temperature - outer_right.temperature)
            if best is None or cost < best[0]:
                best = (cost, lhs, rhs)
    assert best is not None
    _, lhs, rhs = best
    blocks[i - 1 : i + 3] = [(color_left, lhs), (color_right, rhs)]
    rec.record("swap-adjacent-blocks", (i - 1, i, i + 1, i + 2), blocks)


def _sort_externally(blocks: _Blocks, rec: _Recorder) -> None:
    """Reorder until both same-color block sequences increase externally.

    With two colors the blocks alternate, so a schedule without a crossing
    quadruplet has every same-color sequence running one way; an
    externally decreasing one is settled by a full reversal.
    """
    rounds = 0
    limit = len(blocks) + 2
    while _unincreasing(blocks):
        rounds += 1
        if rounds > limit:
            raise AssertionError("external sorting failed to terminate")
        i = _find_crossing_quadruplet(blocks)
        if i is None:
            _reverse_all(blocks)
            rec.record("reverse-schedule", tuple(range(len(blocks))), blocks)
            if _unincreasing(blocks):
                raise AssertionError("no crossing quadruplet in unsorted schedule")
            return
        _swap_and_merge(blocks, i, rec)
        _sort_internally(blocks, rec)
        _remove_intersections(blocks, rec)


def _force_inner_ascending(blocks: _Blocks, rec: _Recorder) -> None:
    """Run every inner block in increasing order (valid once the block
    sequences increase externally; see :func:`four_point_inequality`)."""
    for i in _not_ascending(blocks):
        blocks[i] = (blocks[i][0], sorted(blocks[i][1], key=lambda j: j.temperature))
        rec.record("orient-inner-block-ascending", (i,), blocks)


_Stage = Callable[[_Blocks, _Recorder], None]
# Each stage establishes the prerequisites of the next.
_STAGES = (_sort_internally, _remove_intersections, _sort_externally, _force_inner_ascending)


def _rewrite(
    schedule: Schedule, stages: tuple[_Stage, ...]
) -> tuple[Schedule, ImprovementTrace]:
    """Run ``stages`` in order on ``schedule``'s blocks, recording every step."""
    blocks = _to_blocks(schedule)
    rec = _Recorder(blocks)
    for stage in stages:
        stage(blocks, rec)
    result = Schedule.from_jobs(schedule.instance, _flatten(blocks))
    return result, ImprovementTrace(steps=tuple(rec.steps))


def sort_blocks_internally(schedule: Schedule) -> tuple[Schedule, ImprovementTrace]:
    """Sort every block monotonically in temperature.

    Keeps the block structure (and hence the color-change count) intact;
    the total temperature change never increases.
    """
    return _rewrite(schedule, _STAGES[:1])


def remove_intersections(schedule: Schedule) -> tuple[Schedule, ImprovementTrace]:
    """Make same-color block spans pairwise disjoint.

    Internally sorts blocks first.  Jobs of one overlapping block are
    folded into the other; fully absorbed blocks disappear, lowering the
    color-change count.
    """
    return _rewrite(schedule, _STAGES[:2])


def sort_blocks_externally(schedule: Schedule) -> tuple[Schedule, ImprovementTrace]:
    """Make both same-color block sequences increase externally.

    Establishes internal sorting and disjoint spans first, then repeatedly
    swaps the middle pair of a crossing quadruplet (merging two block
    pairs each time), and finally reverses the whole schedule if needed.
    Only defined for schedules with at most two colors.
    """
    _require_two_colors(schedule)
    return _rewrite(schedule, _STAGES[:3])


def normalize(schedule: Schedule) -> Schedule:
    """Rewrite a schedule into canonical form without worsening either metric.

    The result has monotone blocks, pairwise-disjoint same-color spans,
    externally increasing same-color block sequences, and inner blocks in
    increasing order.  For an input that is optimal under its color-change
    budget the total temperature change is preserved exactly.
    """
    _require_two_colors(schedule)
    return _rewrite(schedule, _STAGES)[0]


def _require_two_colors(schedule: Schedule) -> None:
    if len(schedule.instance.colors) > 2:
        raise ValidationError("canonical form is defined for at most two colors")


def check_canonical_form(schedule: Schedule) -> tuple[bool, list[str]]:
    """Verify the canonical-form properties literally.

    Returns (ok, violations).  Checked: every block monotone; same-color
    spans disjoint; same-color block sequences externally increasing;
    inner blocks in increasing order.
    """
    _require_two_colors(schedule)
    blocks = _to_blocks(schedule)
    violations = [f"block-not-monotone: block {i}" for i in _unsorted(blocks)]
    violations += [
        f"same-color-ranges-intersect: blocks {r},{s}" for r, s in _intersecting(blocks)
    ]
    violations += [
        f"external-order-not-increasing: color {c}" for c in _unincreasing(blocks)
    ]
    violations += [f"inner-block-not-ascending: block {i}" for i in _not_ascending(blocks)]
    return not violations, violations
