import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calsched import (
    Instance,
    Job,
    brute_force_optimal,
    build_instance,
    check_canonical_form,
    color_changes,
    enumerate_pareto,
    normalize,
    pareto_sweep,
    temperature_span,
    total_temperature_change,
)
from calsched import oracle
from calsched.core import MAGNITUDE_LIMIT, max_merged_color_changes
from calsched.oracle import OracleSizeError, oracle_job_limit
from conftest import (
    THREE_COLOR_OPTIMUM,
    job_records,
    make_two_color,
    two_color_instances,
)


class TestThreeColorInstance:
    def test_capped_optimum_is_unique_up_to_reversal(self, ten_job_three_color):
        result = brute_force_optimal(ten_job_three_color, 4, mode="subset_dp")
        assert result.optimal_total_change == 7000
        assert not result.truncated
        orders = {s.order for s in result.optimal_schedules}
        assert orders == {THREE_COLOR_OPTIMUM, tuple(reversed(THREE_COLOR_OPTIMUM))}
        for s in result.optimal_schedules:
            assert color_changes(s) <= 4
            assert total_temperature_change(s) == 7000

    def test_same_color_blocks_need_opposite_orientations(self, ten_job_three_color):
        # the capped optimum cannot be rebuilt from ascending-only inner
        # blocks of one color: its two inner color-0 blocks run oppositely
        result = brute_force_optimal(ten_job_three_color, 4)
        lookup = {j.id: j for j in ten_job_three_color.jobs}
        seq = [lookup[i] for i in result.optimal_schedules[0].order]
        runs = []
        for job in seq:
            if runs and runs[-1][0] == job.color:
                runs[-1][1].append(job.temperature)
            else:
                runs.append((job.color, [job.temperature]))
        inner = [temps for _, temps in runs[1:-1]]
        directions = {
            temps[0] < temps[-1] for temps in inner if len(temps) > 1
        }
        assert directions == {True, False}

    def test_pareto_contains_capped_entry(self, ten_job_three_color):
        table = dict(enumerate_pareto(ten_job_three_color))
        assert table[4] == 7000
        assert table[9] == temperature_span(ten_job_three_color.jobs)


class TestModes:
    @given(two_color_instances(max_jobs=7, max_temp=20))
    @settings(max_examples=30, deadline=None)
    def test_permutation_and_dp_agree(self, instance):
        for cap in range(0, len(instance.jobs)):
            a = brute_force_optimal(instance, cap, mode="permutation")
            b = brute_force_optimal(instance, cap, mode="subset_dp")
            assert a.optimal_total_change == b.optimal_total_change
            if not (a.truncated or b.truncated):
                assert {s.order for s in a.optimal_schedules} == {
                    s.order for s in b.optimal_schedules
                }

    @given(job_records(min_colors=3, max_colors=4), st.sampled_from([1, 3, 64]))
    @settings(max_examples=40, deadline=None)
    def test_multicolor_modes_agree(self, records, schedule_cap):
        instance = build_instance(records)
        index = {job.id: i for i, job in enumerate(instance.jobs)}
        for cap in range(max_merged_color_changes(instance) + 1):
            a = brute_force_optimal(instance, cap, "permutation", schedule_cap)
            b = brute_force_optimal(instance, cap, "subset_dp", schedule_cap)
            assert a.optimal_total_change == b.optimal_total_change
            if not (a.truncated or b.truncated):
                assert [s.order for s in a.optimal_schedules] == [
                    s.order for s in b.optimal_schedules
                ]
            for result in (a, b):
                if not result.truncated:
                    continue
                assert len(result.optimal_schedules) == schedule_cap
                orders = [
                    tuple(index[i] for i in s.order) for s in result.optimal_schedules
                ]
                assert all(x < y for x, y in zip(orders, orders[1:]))
                for s in result.optimal_schedules:
                    assert total_temperature_change(s) == result.optimal_total_change
                    assert color_changes(s) <= cap

    def test_truncated_golden(self):
        # Pinned from the nested-list subset DP that the numpy table
        # replaced.  Truncation keeps the first schedule_cap + 1 schedules
        # in walk order, then sorts: the sorted first four of all six
        # optima differ, so this pins the walk order too.
        records = [
            ("j0", 2, 0), ("j1", 1, 1), ("j2", 3, 2), ("j3", 0, 0), ("j4", 0, 1),
            ("j5", 4, 2), ("j6", 0, 0), ("j7", 2, 1), ("j8", 4, 2),
        ]
        instance = build_instance(records)
        result = brute_force_optimal(instance, 4, mode="subset_dp", schedule_cap=4)
        golden = [
            ("j3", "j4", "j1", "j7", "j0", "j2", "j5"),
            ("j4", "j3", "j1", "j7", "j0", "j2", "j5"),
            ("j5", "j2", "j0", "j7", "j1", "j3", "j4"),
            ("j5", "j2", "j0", "j7", "j1", "j4", "j3"),
        ]
        assert (result.optimal_total_change, result.k_used, result.truncated) == (4000, 4, True)
        assert [s.order for s in result.optimal_schedules] == golden
        everything = brute_force_optimal(instance, 4, mode="subset_dp")
        assert not everything.truncated and len(everything.optimal_schedules) == 6
        assert sorted(s.order for s in everything.optimal_schedules)[:4] != golden

    def test_magnitude_limit_keeps_sums_exact(self):
        # Three colors at exactly the largest magnitude an instance may have.
        top = MAGNITUDE_LIMIT // 8
        temps = [
            (0, 0), (top, 1), (top // 3, 2), (top // 2, 0),
            (top - 1, 1), (7, 2), (top // 5, 1), (top - 9, 0),
        ]
        instance = Instance(
            tuple(Job(f"j{i}", t, c) for i, (t, c) in enumerate(temps))
        )
        assert len(instance.jobs) * top == MAGNITUDE_LIMIT
        table = dict(enumerate_pareto(instance))
        for cap in range(max_merged_color_changes(instance) + 1):
            a = brute_force_optimal(instance, cap, mode="permutation")
            b = brute_force_optimal(instance, cap, mode="subset_dp")
            assert type(b.optimal_total_change) is type(a.optimal_total_change)
            assert a.optimal_total_change == b.optimal_total_change == table[cap]
        assert table[cap] == top

    def test_unknown_mode_rejected(self):
        inst = make_two_color([1], [2])
        with pytest.raises(ValueError):
            brute_force_optimal(inst, 1, mode="magic")


class TestSizeLimits:
    def test_permutation_cap(self):
        inst = make_two_color(list(range(1, 9)), list(range(1, 5)))
        with pytest.raises(OracleSizeError):
            brute_force_optimal(inst, 3, mode="permutation")

    def test_dp_cap_and_env_override(self, monkeypatch):
        inst = make_two_color(list(range(1, 9)), list(range(1, 5)))
        monkeypatch.setenv("CALSCHED_ORACLE_MAX_N", "10")
        assert oracle_job_limit() == 10
        with pytest.raises(OracleSizeError):
            brute_force_optimal(inst, 3, mode="subset_dp")
        monkeypatch.setenv("CALSCHED_ORACLE_MAX_N", "12")
        assert brute_force_optimal(inst, 3).feasible


class TestSmallInstances:
    def test_budget_one(self):
        inst = make_two_color([1, 4], [2, 3])
        assert brute_force_optimal(inst, 1).optimal_total_change == 5000

    def test_generous_budget_reaches_span(self):
        inst = make_two_color([9, 2, 5], [4, 7])
        result = brute_force_optimal(inst, len(inst.jobs) - 1)
        assert result.optimal_total_change == temperature_span(inst.jobs)

    def test_zero_budget_two_colors_infeasible(self):
        inst = make_two_color([1], [2])
        result = brute_force_optimal(inst, 0)
        assert not result.feasible
        assert result.optimal_schedules == ()

    def test_input_order_invariance(self):
        records = [("a", 4, 0), ("b", 1, 1), ("c", 7, 0), ("d", 3, 1), ("e", 9, 0)]
        base = brute_force_optimal(build_instance(records), 2)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            other = brute_force_optimal(build_instance(shuffled), 2)
            assert other.optimal_total_change == base.optimal_total_change

    @given(two_color_instances(max_jobs=7, max_temp=15))
    @settings(max_examples=25, deadline=None)
    def test_two_color_optimum_has_canonical_witness(self, instance):
        cap = max(1, len(instance.jobs) // 2)
        result = brute_force_optimal(instance, cap)
        witness = normalize(result.optimal_schedules[0])
        assert total_temperature_change(witness) == result.optimal_total_change
        assert color_changes(witness) <= cap
        ok, violations = check_canonical_form(witness)
        assert ok, violations


class TestParetoTable:
    def test_example_table(self):
        inst = make_two_color([1, 4], [2, 3])
        table = enumerate_pareto(inst)
        assert table[0] == (0, None)
        assert table[1:] == [(1, 5000), (2, 3000), (3, 3000)]

    def test_single_job(self):
        inst = build_instance([("a", 5, 0)])
        assert enumerate_pareto(inst) == [(0, 0)]

    def test_values_non_increasing(self):
        inst = make_two_color([3, 11, 19], [6, 14])
        values = [v for _, v in enumerate_pareto(inst) if v is not None]
        assert values == sorted(values, reverse=True)

    def test_merged_duplicates_extend_table(self):
        inst = build_instance([("a", 1, 0), ("b", 1, 0), ("c", 2, 1)])
        table = enumerate_pareto(inst)
        assert [k for k, _ in table] == [0, 1, 2]
        assert table[1][1] == table[2][1] == 1000


class TestParetoFront:
    @pytest.mark.parametrize(
        "records",
        [
            [("a", 3, 0), ("b", 1, 0), ("c", 3, 0), ("d", 2, 0)],
            [("j0", 2, 0), ("j1", 1, 1), ("j2", 3, 2), ("j3", 0, 0), ("j4", 0, 1)],
            [(f"j{i}", i % 3, i // 3 % 3) for i in range(11)],
        ],
        ids=["one-color", "permutation", "merged-subset-dp"],
    )
    def test_one_table_serves_every_budget(self, records, monkeypatch):
        instance = build_instance(records)
        builds = []
        real_table = oracle._subset_dp_table
        monkeypatch.setattr(
            oracle, "_subset_dp_table", lambda *a: builds.append(a) or real_table(*a)
        )
        table, solve = oracle.pareto_front(instance)
        answers = [solve(k) for k in range(-1, len(table) + 1)]
        assert len(builds) == 1
        assert table == enumerate_pareto(instance)
        assert answers == [
            brute_force_optimal(instance, k) for k in range(-1, len(table) + 1)
        ]


def _relabel(records, mapping):
    return [(i, t, mapping[c]) for i, t, c in records]


PARETO_CASES = [
    (enumerate_pareto, job_records(min_colors=1, max_colors=3, max_temp=9)),
    (pareto_sweep, job_records(min_colors=2, max_colors=2, max_jobs=10, max_temp=9)),
]


@pytest.mark.parametrize(
    "pareto,records", PARETO_CASES, ids=["enumerate_pareto", "pareto_sweep"]
)
class TestMetamorphic:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_temperature_shift_keeps_table(self, pareto, records, data):
        base = data.draw(records)
        shift = data.draw(st.integers(1, 1000))
        shifted = [(i, t + shift, c) for i, t, c in base]
        assert pareto(build_instance(shifted)) == pareto(build_instance(base))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_color_relabeling_keeps_table(self, pareto, records, data):
        base = data.draw(records)
        mapping = data.draw(st.permutations(range(5)))
        relabeled = _relabel(base, mapping)
        assert pareto(build_instance(relabeled)) == pareto(build_instance(base))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_exact_duplicate_keeps_every_budget(self, pareto, records, data):
        base = data.draw(records)
        _, t, c = data.draw(st.sampled_from(base))
        table = pareto(build_instance(base))
        grown = pareto(build_instance(base + [("dup", t, c)]))
        assert grown[: len(table)] == table

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_values_never_increase(self, pareto, records, data):
        table = pareto(build_instance(data.draw(records)))
        values = [v for _, v in table]
        known = values[values.count(None):]
        assert None not in known and known == sorted(known, reverse=True)
