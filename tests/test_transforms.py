import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calsched import (
    Schedule,
    ValidationError,
    brute_force_optimal,
    build_instance,
    check_canonical_form,
    color_changes,
    four_point_inequality,
    normalize,
    partition_blocks,
    remove_intersections,
    sort_blocks_externally,
    sort_blocks_internally,
    total_temperature_change,
)
from conftest import random_schedules, three_color_instance


def schedule_from(pairs):
    inst = build_instance([(f"j{i}", t, c) for i, (t, c) in enumerate(pairs)])
    return Schedule(instance=inst, order=tuple(f"j{i}" for i in range(len(pairs))))


def block_is_monotone(block):
    temps = [j.temperature for j in block.jobs]
    return all(x < y for x, y in zip(temps, temps[1:])) or all(
        x > y for x, y in zip(temps, temps[1:])
    )


class TestFourPointInequality:
    def test_strict_case(self):
        assert four_point_inequality(2, 1, 3, 4)

    def test_equality_case(self):
        # b >= d collapses the slack: both sides equal 10
        assert four_point_inequality(0, 5, 6, 1)

    def test_precondition_enforced(self):
        with pytest.raises(ValidationError):
            four_point_inequality(1, 3, 2, 4)
        with pytest.raises(ValidationError):
            four_point_inequality(4, 1, 3, 2)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_always_holds_under_precondition(self, a, b, c, d):
        if b < c and a < d:
            assert four_point_inequality(a, b, c, d)


class TestSortBlocksInternally:
    def test_sorted_block_is_fixed_point(self):
        s = schedule_from([(1, 0), (2, 0), (3, 0)])
        out, trace = sort_blocks_internally(s)
        assert out.order == s.order
        assert trace.steps == ()

    def test_single_block_reaches_span(self):
        s = schedule_from([(3, 0), (1, 0), (4, 0), (2, 0)])
        # oracle: the best ordering of one block is its span
        best = min(
            total_temperature_change(list(p))
            for p in itertools.permutations(s.jobs)
        )
        assert best == 3000
        out, _ = sort_blocks_internally(s)
        assert total_temperature_change(out) == 3000
        assert all(block_is_monotone(b) for b in partition_blocks(out))

    def test_two_block_example(self):
        s = schedule_from([(4, 0), (1, 0), (2, 1), (3, 1)])
        assert total_temperature_change(s) == 5000
        out, _ = sort_blocks_internally(s)
        assert total_temperature_change(out) <= 5000
        assert color_changes(out) == color_changes(s)
        assert all(block_is_monotone(b) for b in partition_blocks(out))

    @given(random_schedules())
    @settings(max_examples=60)
    def test_improves_and_keeps_blocks(self, s):
        out, trace = sort_blocks_internally(s)
        assert total_temperature_change(out) <= total_temperature_change(s)
        assert color_changes(out) == color_changes(s)
        before = [frozenset(j.id for j in b.jobs) for b in partition_blocks(s)]
        after = [frozenset(j.id for j in b.jobs) for b in partition_blocks(out)]
        assert before == after
        assert all(block_is_monotone(b) for b in partition_blocks(out))


def spans_disjoint(schedule):
    blocks = partition_blocks(schedule)
    for r in range(len(blocks)):
        for s in range(r + 1, len(blocks)):
            if blocks[r].color != blocks[s].color:
                continue
            if blocks[r].t_min <= blocks[s].t_max and blocks[s].t_min <= blocks[r].t_max:
                return False
    return True


class TestRemoveIntersections:
    def test_disjoint_schedule_is_fixed_point(self):
        s = schedule_from([(1, 0), (2, 0), (5, 1), (8, 0), (9, 0)])
        out, _ = remove_intersections(s)
        assert out.order == s.order

    def test_overlapping_blocks_merge(self):
        # blocks: (1,5 color0) (0 color1) (3 color0) (7 color1)
        s = schedule_from([(1, 0), (5, 0), (0, 1), (3, 0), (7, 1)])
        t_before = total_temperature_change(s)
        c_before = color_changes(s)
        out, _ = remove_intersections(s)
        t_after = total_temperature_change(out)
        c_after = color_changes(out)
        assert t_after < t_before and c_after < c_before
        assert spans_disjoint(out)
        # the improved metrics belong to a real schedule of the same jobs
        feasible = {
            (total_temperature_change(list(p)), color_changes(list(p)))
            for p in itertools.permutations(s.jobs)
        }
        assert (t_after, c_after) in feasible

    def test_one_block_per_color_is_fixed_point(self):
        s = schedule_from([(4, 0), (1, 0), (2, 1), (3, 1)])
        out, _ = remove_intersections(s)
        assert [b.color for b in partition_blocks(out)] == [0, 1]

    @given(random_schedules())
    @settings(max_examples=60)
    def test_improves_and_disjoins(self, s):
        out, _ = remove_intersections(s)
        assert total_temperature_change(out) <= total_temperature_change(s)
        assert color_changes(out) <= color_changes(s)
        assert spans_disjoint(out)
        assert all(block_is_monotone(b) for b in partition_blocks(out))


def externally_increasing(schedule):
    blocks = partition_blocks(schedule)
    by_color = {}
    for b in blocks:
        by_color.setdefault(b.color, []).append(b.t_max)
    return all(
        all(x < y for x, y in zip(m, m[1:])) for m in by_color.values()
    )


class TestSortBlocksExternally:
    def test_increasing_schedule_is_fixed_point(self):
        s = schedule_from([(1, 0), (3, 1), (5, 0), (7, 1)])
        out, _ = sort_blocks_externally(s)
        assert out.order == s.order

    def test_decreasing_schedule_is_reversed(self):
        s = schedule_from([(7, 1), (5, 0), (3, 1), (1, 0)])
        t_before = total_temperature_change(s)
        out, trace = sort_blocks_externally(s)
        assert externally_increasing(out)
        assert total_temperature_change(out) == t_before
        # No crossing quadruplet: one full reversal settles it.
        assert [(step.rule, step.blocks) for step in trace.steps] == [
            ("reverse-schedule", (0, 1, 2, 3))
        ]
        assert out.order == s.order[::-1]

    def test_four_block_example(self):
        s = schedule_from([(1, 0), (2, 1), (5, 0), (6, 0), (3, 1)])
        t_before = total_temperature_change(s)
        out, _ = sort_blocks_externally(s)
        assert externally_increasing(out)
        t_after = total_temperature_change(out)
        c_after = color_changes(out)
        assert t_after <= t_before
        # full enumeration: the improved pair is feasible and respects the
        # capped optimum for its own change count
        feasible = {}
        for p in itertools.permutations(s.jobs):
            key = color_changes(list(p))
            t = total_temperature_change(list(p))
            feasible[key] = min(feasible.get(key, t), t)
        assert t_after >= min(v for k, v in feasible.items() if k <= c_after)

    @given(random_schedules())
    @settings(max_examples=60)
    def test_improves_and_orders(self, s):
        out, _ = sort_blocks_externally(s)
        assert total_temperature_change(out) <= total_temperature_change(s)
        assert color_changes(out) <= color_changes(s)
        assert externally_increasing(out)
        assert spans_disjoint(out)


class TestNormalize:
    def test_single_color_fixed_point(self):
        s = schedule_from([(1, 0), (2, 0), (5, 0)])
        assert normalize(s).order == s.order

    def test_two_block_example_reaches_capped_optimum(self):
        s = schedule_from([(4, 0), (1, 0), (2, 1), (3, 1)])
        out = normalize(s)
        ok, violations = check_canonical_form(out)
        assert ok, violations
        assert color_changes(out) <= 1
        # the input is optimal for a budget of one change, so the value is kept
        reference = brute_force_optimal(s.instance, 1)
        assert reference.optimal_total_change == 5000
        assert total_temperature_change(out) == 5000

    @given(random_schedules())
    @settings(max_examples=60)
    def test_canonical_and_improving(self, s):
        out = normalize(s)
        assert total_temperature_change(out) <= total_temperature_change(s)
        assert color_changes(out) <= color_changes(s)
        ok, violations = check_canonical_form(out)
        assert ok, violations

    @given(random_schedules(max_jobs=6, max_temp=12))
    @settings(max_examples=25, deadline=None)
    def test_preserves_optimal_value(self, s):
        cap = color_changes(s)
        reference = brute_force_optimal(s.instance, cap)
        optimum = reference.optimal_total_change
        if total_temperature_change(s) == optimum:
            assert total_temperature_change(normalize(s)) == optimum

    def test_trace_steps_never_increase_metrics(self):
        s = schedule_from([(9, 0), (1, 0), (5, 1), (3, 0), (7, 1), (2, 1)])
        for op in (sort_blocks_internally, remove_intersections, sort_blocks_externally):
            _, trace = op(s)
            for step in trace.steps:
                assert step.t_after <= step.t_before
                assert step.c_after <= step.c_before


class TestCheckCanonicalForm:
    def test_constructed_intersection_detected(self):
        s = schedule_from([(1, 0), (5, 0), (4, 1), (2, 0), (3, 0)])
        ok, violations = check_canonical_form(s)
        assert not ok
        assert any("intersect" in v for v in violations)

    def test_inner_block_orientation_detected(self):
        s = schedule_from([(1, 0), (5, 1), (4, 1), (8, 0), (9, 1)])
        ok, violations = check_canonical_form(s)
        assert not ok
        assert any("inner-block" in v for v in violations)

    def test_three_colors_guarded(self):
        inst = three_color_instance()
        s = Schedule.from_jobs(inst, inst.jobs)
        with pytest.raises(ValidationError):
            check_canonical_form(s)


# One sha256 over the results of every rewrite on GOLDEN_COUNT seeded
# schedules: each traced rewrite's order and steps, normalize's order and
# check_canonical_form's verdict.  The rewrites are deterministic, so a
# refactor that changes any order, step or violation changes the digest.
GOLDEN_COUNT = 5000
GOLDEN_DIGEST = "0bf8d6b4379fee77f4c7d908aed2df26d426950c0596bc1c3cf0d1c5d12e204a"
TRACED_REWRITES = (sort_blocks_internally, remove_intersections, sort_blocks_externally)


def golden_schedules(count, seed=20261018):
    """Two-color schedules of 1-16 jobs in random order.  Temperatures are
    distinct within a color and drawn from a narrow range, so the colors
    often share one; some schedules use colors 3 and 8."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 16)
        colors = rng.choice(((0, 1), (0, 1), (3, 8)))
        picks = [rng.choice(colors) for _ in range(n)]
        top = max(picks.count(c) for c in colors) + rng.randint(0, n)
        records = []
        for c in colors:
            for t in rng.sample(range(top), picks.count(c)):
                records.append((f"j{len(records)}", t, c))
        inst = build_instance(records)
        yield Schedule(inst, tuple(rng.sample([r[0] for r in records], n)))


def golden_results(schedule):
    for op in TRACED_REWRITES:
        out, trace = op(schedule)
        steps = tuple(
            (s.rule, s.blocks, s.t_before, s.t_after, s.c_before, s.c_after)
            for s in trace.steps
        )
        yield op.__name__, out.order, steps
    yield "normalize", normalize(schedule).order
    yield "check_canonical_form", check_canonical_form(schedule)


def test_golden_digest():
    sha = hashlib.sha256()
    rules = set()
    ties = 0
    for schedule in golden_schedules(GOLDEN_COUNT):
        temps = [{j.temperature for j in schedule.instance.sorted_jobs(c)} for c in (0, 1, 3, 8)]
        ties += bool(temps[0] & temps[1] or temps[2] & temps[3])
        for result in golden_results(schedule):
            if len(result) == 3:
                rules.update(step[0] for step in result[2])
            sha.update(repr(result).encode() + b"\n")
    # The data must reach every rule and many cross-color ties.
    assert rules == {
        "sort-block", "merge-intersecting-blocks", "merge-adjacent-blocks",
        "swap-adjacent-blocks", "reverse-schedule",
    }
    assert ties >= GOLDEN_COUNT // 4
    assert sha.hexdigest() == GOLDEN_DIGEST
