import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from calsched import (
    Job,
    Schedule,
    ValidationError,
    build_instance,
    color_changes,
    format_temperature,
    max_feasible_color_changes,
    parse_temperature,
    partition_blocks,
    total_temperature_change,
)
from calsched.core import MAGNITUDE_LIMIT
from conftest import make_two_color, random_schedules


def jobs_of(*pairs):
    return [Job(id=f"j{i}", temperature=t * 1000, color=c) for i, (t, c) in enumerate(pairs)]


class TestFixedPoint:
    @pytest.mark.parametrize(
        "raw,scaled",
        [
            ("1", 1000), ("2.5", 2500), ("0.125", 125), (7, 7000), ("372.004", 372004), ("0", 0),
            ("1.23400000", 1234), ("1E+2", 100000), ("0e-1000000000", 0), ("0e1000000", 0),
        ],
    )
    def test_parse(self, raw, scaled):
        assert parse_temperature(raw) == scaled

    @pytest.mark.parametrize(
        "raw",
        [
            "-1", "0.0001", "abc", "nan", "inf",
            # Past the context precision or exponent range of Decimal.
            "1.0000000000000000000000000000001", "1e-1000000000", "1e1000000", "1e5000",
        ],
    )
    def test_parse_rejects(self, raw):
        with pytest.raises(ValidationError):
            parse_temperature(raw)

    def test_parse_bound_is_the_magnitude_limit(self):
        assert parse_temperature(MAGNITUDE_LIMIT) == MAGNITUDE_LIMIT * 1000
        with pytest.raises(ValidationError, match="too large"):
            parse_temperature(MAGNITUDE_LIMIT + 1)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_format_roundtrip(self, scaled):
        assert parse_temperature(format_temperature(scaled)) == scaled


class TestMetrics:
    def test_single_job_has_zero_change(self):
        assert total_temperature_change(jobs_of((5, 0))) == 0

    def test_signed_example(self):
        seq = jobs_of((1, 0), (4, 0), (3, 1), (2, 1))
        assert total_temperature_change(seq) == 5000
        assert color_changes(seq) == 1
        # cross-check: the exhaustive solver agrees this value is attained
        from calsched import brute_force_optimal

        inst = build_instance([(j.id, j.temperature // 1000, j.color) for j in seq])
        assert brute_force_optimal(inst, 1).optimal_total_change == 5000

    def test_three_color_instance_metrics(self, ten_job_three_color):
        lookup = {j.id: j for j in ten_job_three_color.jobs}
        order = ["c2t0", "c2t2", "c0t2", "c0t1", "c1t1", "c1t3", "c0t3", "c0t4", "c2t4", "c2t5"]
        seq = [lookup[i] for i in order]
        assert total_temperature_change(seq) == 7000
        assert color_changes(seq) == 4
        blocks = partition_blocks(seq)
        assert len(blocks) == 5
        assert [len(b.jobs) for b in blocks] == [2, 2, 2, 2, 2]

    def test_boundary_counting(self):
        seq = jobs_of((1, 0), (2, 0), (3, 1), (4, 0))
        assert color_changes(seq) == 2
        mono = jobs_of(*[(i, 1) for i in range(1, 7)])
        assert color_changes(mono) == 0
        assert len(partition_blocks(mono)) == 1

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            total_temperature_change([])
        with pytest.raises(ValidationError):
            color_changes([])

    @given(random_schedules())
    def test_reversal_symmetry(self, schedule):
        rev = schedule.reversed()
        assert total_temperature_change(rev) == total_temperature_change(schedule)
        assert color_changes(rev) == color_changes(schedule)

    @given(random_schedules(max_jobs=7))
    def test_deleting_a_job_never_increases_change(self, schedule):
        jobs = list(schedule.jobs)
        base = total_temperature_change(jobs)
        for i in range(len(jobs)):
            rest = jobs[:i] + jobs[i + 1 :]
            if rest:
                assert total_temperature_change(rest) <= base

    @given(random_schedules())
    def test_block_partition_roundtrip(self, schedule):
        blocks = partition_blocks(schedule)
        flat = [job for block in blocks for job in block.jobs]
        assert flat == list(schedule.jobs)
        assert len(blocks) == color_changes(schedule) + 1
        for block in blocks:
            assert len({j.color for j in block.jobs}) == 1
            assert total_temperature_change(block.jobs) >= block.t_max - block.t_min

    def test_block_maximality(self):
        seq = jobs_of((1, 0), (2, 0), (5, 1), (4, 0))
        blocks = partition_blocks(seq)
        assert [len(b.jobs) for b in blocks] == [2, 1, 1]
        for left, right in zip(blocks, blocks[1:]):
            assert left.color != right.color


class TestInstance:
    @pytest.mark.parametrize("hot", ["2400000000000000", "9300000000000000", "200000000000000.001"])
    def test_magnitude_bound(self, hot):
        with pytest.raises(ValidationError, match="too large"):
            build_instance([("a", 1, 0), ("b", hot, 1), ("c", 2, 0)])

    def test_magnitude_bound_is_inclusive(self):
        build_instance([("a", 1, 0), ("b", format_temperature(MAGNITUDE_LIMIT // 2), 1)])

    def test_merging_duplicates(self):
        inst = build_instance(
            [("a", 2, 0), ("x", 5, 1), ("b", 2, 0), ("c", 2, 1)]
        )
        assert len(inst.jobs) == 3
        merged = inst.job_by_id("a")
        assert merged.members == ("a", "b")
        assert merged.multiplicity == 2
        assert inst.total_jobs == 4
        assert inst.count(0) == 2
        schedule = Schedule.from_jobs(inst, inst.jobs)
        expanded = schedule.expanded_ids()
        assert expanded.index("b") == expanded.index("a") + 1

    def test_equal_temperature_across_colors_allowed(self):
        inst = build_instance([("a", 3, 0), ("b", 3, 1)])
        assert len(inst.jobs) == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([("a", 1, 0), ("a", 2, 0)])

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([("a", -1, 0)])

    def test_empty_instance_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([])

    def test_sorted_index_is_increasing(self):
        inst = make_two_color([9, 2, 5], [4, 1])
        temps = [j.temperature for j in inst.sorted_jobs(0)]
        assert temps == sorted(temps)
        assert len(temps) == len(set(temps))

    def test_schedule_must_be_permutation(self):
        inst = make_two_color([1, 2], [3])
        with pytest.raises(ValidationError):
            Schedule(instance=inst, order=("w1", "w1", "b1"))


def enumerate_max_changes(instance):
    jobs = []
    for job in instance.jobs:
        jobs.extend([job.color] * job.multiplicity)
    best = 0
    for perm in set(itertools.permutations(jobs)):
        best = max(best, sum(1 for a, b in zip(perm, perm[1:]) if a != b))
    return best


class TestMaxFeasibleChanges:
    @pytest.mark.parametrize(
        "white,black,expected",
        [([1, 2, 3], [], 0), ([1, 2], [3, 4], 3), ([1, 2, 3], [4], 2)],
    )
    def test_known_counts(self, white, black, expected):
        inst = make_two_color(white, black) if black else build_instance(
            [(f"w{i}", t, 0) for i, t in enumerate(white)]
        )
        assert max_feasible_color_changes(inst) == expected

    @pytest.mark.parametrize("n0,n1", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (1, 5)])
    def test_matches_enumeration(self, n0, n1):
        inst = make_two_color(list(range(1, n0 + 1)), list(range(1, n1 + 1)))
        assert max_feasible_color_changes(inst) == enumerate_max_changes(inst)

    def test_counts_merged_duplicates_individually(self):
        inst = build_instance([("a", 1, 0), ("b", 1, 0), ("c", 2, 1)])
        # expanded counts (2, 1): the duplicate can sandwich the other color
        assert max_feasible_color_changes(inst) == 2
        assert enumerate_max_changes(inst) == 2

    def test_three_colors(self, ten_job_three_color):
        assert max_feasible_color_changes(ten_job_three_color) == 9

    def test_matches_enumeration_three_colors(self):
        inst = build_instance(
            [("a", 1, 0), ("b", 2, 0), ("c", 1, 1), ("d", 1, 2)]
        )
        assert max_feasible_color_changes(inst) == enumerate_max_changes(inst)
