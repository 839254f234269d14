import hashlib
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    shortest_schedule,
    temperature_span,
    total_temperature_change,
)
from calsched import oracle
from calsched.core import INF, MAGNITUDE_LIMIT, max_merged_color_changes
from calsched.oracle import OracleSizeError
from conftest import (
    THREE_COLOR_OPTIMUM,
    child_peak_rss_mb,
    job_records,
    make_two_color,
    run_child,
    two_color_instances,
)
from permutation_oracle import permutation_optimal
from subset_dp_reference import dense_view, subset_dp_cells


class TestThreeColorInstance:
    def test_capped_optimum_is_unique_up_to_reversal(self, ten_job_three_color):
        result = brute_force_optimal(ten_job_three_color, 4)
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
            assert brute_force_optimal(instance, cap) == permutation_optimal(instance, cap)

    @given(job_records(min_colors=3, max_colors=4), st.sampled_from([1, 3, 64]))
    @settings(max_examples=40, deadline=None)
    def test_multicolor_modes_agree(self, records, schedule_cap):
        instance = build_instance(records)
        index = {job.id: i for i, job in enumerate(instance.jobs)}
        for cap in range(max_merged_color_changes(instance) + 1):
            result = brute_force_optimal(instance, cap, schedule_cap=schedule_cap)
            assert result == permutation_optimal(instance, cap, schedule_cap)
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

    @given(job_records(min_colors=1, max_colors=4, max_jobs=9, max_temp=2))
    @example(
        [(f"j{i}", t, c) for i, (t, c) in enumerate(
            [(0, 2), (2, 0), (0, 0), (1, 2), (1, 3), (1, 1), (0, 1), (2, 2)]
        )]
    )
    @settings(max_examples=30, deadline=None)
    def test_truncation_keeps_a_prefix(self, records):
        # Few distinct temperatures, so optima tie.  The explicit example has
        # eight merged jobs and 206 optima over its budgets.
        instance = build_instance(records)
        for budget in range(max_merged_color_changes(instance) + 1):
            full = brute_force_optimal(instance, budget, schedule_cap=math.factorial(9))
            assert not full.truncated
            orders = [s.order for s in full.optimal_schedules]
            for cap in range(1, len(orders) + 1):
                result = brute_force_optimal(instance, budget, schedule_cap=cap)
                assert [s.order for s in result.optimal_schedules] == orders[:cap]
                assert result.truncated == (len(orders) > cap)
                assert (result.optimal_total_change, result.k_used) == (
                    full.optimal_total_change, full.k_used
                )

    def test_truncated_golden(self):
        # A truncated result keeps the lexicographically first schedule_cap
        # optima of the merged job indices: here the first four of six.
        records = [
            ("j0", 2, 0), ("j1", 1, 1), ("j2", 3, 2), ("j3", 0, 0), ("j4", 0, 1),
            ("j5", 4, 2), ("j6", 0, 0), ("j7", 2, 1), ("j8", 4, 2),
        ]
        instance = build_instance(records)
        result = brute_force_optimal(instance, 4, schedule_cap=4)
        golden = [
            ("j3", "j4", "j1", "j0", "j7", "j2", "j5"),
            ("j3", "j4", "j1", "j7", "j0", "j2", "j5"),
            ("j4", "j3", "j1", "j7", "j0", "j2", "j5"),
            ("j5", "j2", "j0", "j7", "j1", "j3", "j4"),
        ]
        assert (result.optimal_total_change, result.k_used, result.truncated) == (4000, 4, True)
        assert [s.order for s in result.optimal_schedules] == golden
        everything = brute_force_optimal(instance, 4)
        assert not everything.truncated and len(everything.optimal_schedules) == 6
        assert sorted(s.order for s in everything.optimal_schedules)[:4] == golden

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
        temps, colors, _ = oracle._prepare(instance)
        assert oracle._subset_dp_table(temps, colors, 1)[0].blocks[-1].dtype == np.int64
        table = dict(enumerate_pareto(instance))
        for cap in range(max_merged_color_changes(instance) + 1):
            a = permutation_optimal(instance, cap)
            b = brute_force_optimal(instance, cap)
            assert type(b.optimal_total_change) is type(a.optimal_total_change)
            assert a == b and b.optimal_total_change == table[cap]
        assert table[cap] == top


class TestSizeLimits:
    def test_byte_bound_is_the_only_size_limit(self, monkeypatch):
        # The build's counted bytes decide, up to and including the limit,
        # whatever the job count.
        inst = make_two_color(list(range(1, 9)), list(range(1, 5)))
        size = oracle.build_bytes(12, 3, np.int32)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", size - 1)
        with pytest.raises(OracleSizeError, match=r"MiB for its table and index arrays"):
            brute_force_optimal(inst, 3)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", size)
        assert brute_force_optimal(inst, 3).feasible

    def test_table_limit_admits_20_jobs_and_refuses_21(self, monkeypatch):
        assert oracle.table_bytes(16, 15, np.int32) == 17 << 20
        assert oracle.build_bytes(16, 15, np.int32) < 21 << 20
        assert oracle.build_bytes(20, 19, np.int32) <= oracle.MAX_TABLE_BYTES
        # The index arrays count toward the limit: at 21 jobs the table
        # alone (924 MiB) fits, but not with them (1,064 MiB).
        assert oracle.table_bytes(21, 20, np.int32) == 924 << 20
        assert oracle.build_bytes(21, 20, np.int32) > oracle.MAX_TABLE_BYTES
        assert oracle.table_bytes(22, 21, np.int32) == 2024 << 20 > oracle.MAX_TABLE_BYTES

        def allocate(*args, **kwargs):
            raise AssertionError("array allocated")

        for name in ("empty", "zeros", "full"):
            monkeypatch.setattr(np, name, allocate)
        with pytest.raises(OracleSizeError, match=r"needs 1,064 MiB for its table and index arrays"):
            oracle._subset_dp_table(list(range(21)), [i % 3 for i in range(21)], 20)

    @pytest.mark.parametrize("command", [["sweep"], ["solve", "--max-color-changes", "3"]])
    def test_oversized_table_refused_before_allocating(self, command, tmp_path, monkeypatch, capsys):
        # 45 merged jobs would need petabytes; the byte bound refuses the
        # table before any array is allocated.
        from calsched.cli import main

        def allocate(*args, **kwargs):
            raise AssertionError("array allocated")

        rng = random.Random(45)
        path = tmp_path / "big.csv"
        path.write_text(
            "".join(f"j{i},{rng.randint(0, 10**6) / 1000},{i % 3}\n" for i in range(45)),
            encoding="utf-8",
        )
        for name in ("empty", "zeros", "full"):
            monkeypatch.setattr(np, name, allocate)
        assert main([command[0], "--input", str(path), *command[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MiB" in err and err.count("\n") == 1

    def test_any_job_count_is_refused_at_once(self, tmp_path, monkeypatch, capsys):
        # From 28 jobs the 2**n-cell rank lookup alone passes the limit, so
        # the build is refused before its bytes are summed over every
        # subset size, and the message holds no float of 2**n.
        from calsched.cli import main

        def allocate(*args, **kwargs):
            raise AssertionError("array allocated")

        rng = random.Random(2000)
        paths = {}
        for n in (21, 28, 2000, 5000):
            # Distinct temperatures, so no jobs merge.
            temps = rng.sample(range(10**6), n)
            paths[n] = tmp_path / f"jobs{n}.csv"
            paths[n].write_text(
                "".join(f"j{i},{t / 1000},{i % 3}\n" for i, t in enumerate(temps)),
                encoding="utf-8",
            )
        for name in ("empty", "zeros", "full"):
            monkeypatch.setattr(np, name, allocate)
        start = time.perf_counter()
        for n, need in [
            (21, "needs 1,064 MiB for its table and index arrays"),
            (28, "needs at least 2^11 MiB for its rank lookup"),
            (2000, "needs at least 2^1983 MiB for its rank lookup"),
            (5000, "needs at least 2^4983 MiB for its rank lookup"),
        ]:
            assert main(["sweep", "--input", str(paths[n])]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: exhaustive search over {n} merged jobs")
            assert need in captured.err and captured.err.count("\n") == 1
        assert time.perf_counter() - start < 1.0

    def test_seventeen_jobs_match_the_graph_solver(self):
        # 17 jobs take a 46 MiB table at the full budget, well inside the
        # byte bound.
        rng = random.Random(17)
        temps = rng.sample(range(1, 1000), 17)
        inst = make_two_color(temps[:9], temps[9:])
        for budget in (3, max_merged_color_changes(inst)):
            reference = brute_force_optimal(inst, budget, schedule_cap=1)
            assert reference.optimal_total_change == shortest_schedule(inst, budget).total_change

    @pytest.mark.parametrize("schedule_cap", [0, -1])
    def test_schedule_cap_below_one_rejected(self, schedule_cap):
        inst = make_two_color([1, 4], [2, 3])
        with pytest.raises(ValueError, match="schedule_cap"):
            brute_force_optimal(inst, 1, schedule_cap=schedule_cap)


def _answers(instance, schedule_cap=oracle.DEFAULT_SCHEDULE_CAP):
    """The trade-off table and every budget's subset-DP result."""
    caps = range(-1, max_merged_color_changes(instance) + 2)
    return enumerate_pareto(instance), [
        brute_force_optimal(instance, cap, schedule_cap=schedule_cap) for cap in caps
    ]


@contextmanager
def _int64_tables():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "table_dtype", lambda n, span: (np.int64, INF))
        yield


def _int64_answers(instance, schedule_cap=oracle.DEFAULT_SCHEDULE_CAP):
    with _int64_tables():
        return _answers(instance, schedule_cap)


class TestTableDtype:
    @given(
        job_records(min_colors=1, max_colors=4, max_jobs=10),
        st.sampled_from([1, 7, 1000]),
        st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_int32_table_equals_int64(self, records, scale, schedule_cap):
        # Few distinct temperatures, so duplicates merge and optima tie.
        instance = build_instance([(i, t * scale, c) for i, t, c in records])
        temps, colors, _ = oracle._prepare(instance)
        cap = max_merged_color_changes(instance)
        narrow, unreachable = oracle._subset_dp_table(temps, colors, cap)
        narrow = dense_view(narrow, cap, unreachable)
        assert narrow.dtype == np.int32 and unreachable == 1 << 30
        with _int64_tables():
            wide, _ = oracle._subset_dp_table(temps, colors, cap)
        wide = dense_view(wide, cap, INF)
        assert wide.dtype == np.int64
        assert (narrow <= unreachable).all() and (wide <= INF).all()
        assert np.array_equal(narrow == unreachable, wide == INF)
        assert np.array_equal(narrow[narrow < unreachable], wide[wide < INF])
        assert _answers(instance, schedule_cap) == _int64_answers(instance, schedule_cap)

    @pytest.mark.parametrize(
        "n,bound,dtype",
        [(7, (1 << 30) - 1, np.int32), (8, 1 << 30, np.int64)],
        ids=["2^30-1", "2^30"],
    )
    def test_int32_below_the_bound(self, n, bound, dtype):
        span = bound // n
        assert n * span == bound
        # Three colors spread across the whole span, from 0 to span.
        temps = [span * i // (n - 1) for i in range(n)]
        instance = Instance(
            tuple(Job(f"j{i}", t, (i * 2) % 3) for i, t in enumerate(temps))
        )
        assert len(instance.jobs) == n and max(temps) == span
        assert oracle.table_dtype(n, span)[0] is dtype
        table, _ = oracle._subset_dp_table(*oracle._prepare(instance)[:2], n - 1)
        assert {block.dtype for block in table.blocks} == {np.dtype(dtype)}
        assert _answers(instance) == _int64_answers(instance)

    def test_oracle_workload_table_is_int32(self):
        # The benchmark's oracle shape: 5+4+4 jobs, thousandths up to 1000.
        rng = random.Random(13)
        records = [
            (f"c{c}j{i}", rng.randint(0, 10**6) / 1000, c)
            for c, count in enumerate((5, 4, 4))
            for i in range(count)
        ]
        instance = build_instance(records)
        temps, colors, _ = oracle._prepare(instance)
        cap = max_merged_color_changes(instance)
        table, _ = oracle._subset_dp_table(temps, colors, cap)
        assert {block.dtype for block in table.blocks} == {np.dtype(np.int32)}
        nbytes = sum(block.nbytes for block in table.blocks)
        assert nbytes == 1_490_944 == oracle.table_bytes(13, cap, np.int32)

    def test_n16_front_peak_memory(self):
        # A three-color n=16 front and its top-budget solve in a fresh
        # process, near 51 MB; with an int64 table it peaks near 68 MB.
        peak_mb = child_peak_rss_mb(
            """
            import random
            from calsched import build_instance, oracle
            rng = random.Random(2024)
            records = [(f"j{i}", rng.randint(0, 10**6) / 1000, i % 3) for i in range(16)]
            front, solve = oracle.pareto_front(build_instance(records))
            assert len(front) == 16 and solve([front[-1][0]])[0].feasible
            """
        )
        assert peak_mb < 60, peak_mb


class TestSubsetDpTable:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_plain_reference(self, data):
        n = data.draw(st.integers(1, 8))
        colors = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        # Few distinct temperatures, so optima tie; the large scale makes
        # the table int64.
        scale = data.draw(st.sampled_from([1, 1 << 28]))
        temps = [t * scale for t in data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        _, sentinel = oracle.table_dtype(n, max(temps) - min(temps))
        reference = np.array(subset_dp_cells(temps, colors, n + 1, sentinel))
        popcount = np.array([bin(mask).count("1") for mask in range(1 << n)])
        for cap in range(n + 1):
            ranked, unreachable = oracle._subset_dp_table(temps, colors, cap)
            table = dense_view(ranked, cap, unreachable)
            assert unreachable == sentinel and table.shape == (1 << n, n, cap + 1)
            assert np.array_equal(table, reference[:, :, : cap + 1])
            # An ordering of a mask's jobs has fewer changes than jobs.
            beyond = np.arange(cap + 1) >= popcount[:, None, None]
            assert (table[np.broadcast_to(beyond, table.shape)] == sentinel).all()


def test_cli_sweep_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.4), 12-30 ms
    # that every CLI run through the oracle would pay.
    two = tmp_path / "two.csv"
    two.write_text("a,1,0\nb,2,1\nc,3,1\nd,0,0\n", encoding="utf-8")
    three = tmp_path / "three.csv"
    three.write_text("a,1,0\nb,2,1\nc,3,2\nd,0,0\ne,4,2\n", encoding="utf-8")
    run_child(
        f"""
        import contextlib, io, sys
        from calsched import cli
        for path in ({str(two)!r}, {str(three)!r}):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["sweep", "--input", path]) == 0
            assert "numpy.ma" not in sys.modules, path
        """
    )


def test_cli_commands_import_no_argparse(tmp_path):
    # argparse, gettext and locale cost about 2-3 ms of every CLI run; the
    # option table needs none of them, and no command may load them later.
    csv = tmp_path / "jobs.csv"
    csv.write_text("a,1,0\nb,2,1\nc,3,1\nd,0,0\n", encoding="utf-8")
    result = tmp_path / "result.json"
    result.write_text('{"schedule": ["d", "a", "b", "c"], "T": "3", "C": 1}', encoding="utf-8")
    runs = [
        ["solve", "--input", str(csv), "--max-color-changes", "2", "--emit-plot", str(tmp_path / "p.tsv")],
        ["solve", "--input", str(csv), "--max-color-changes", "2", "--emit-plot", str(tmp_path / "p.svg")],
        ["sweep", "--input", str(csv), "--emit-plot-dir", str(tmp_path / "plots")],
        ["verify", "--input", str(csv), "--schedule", str(result)],
        ["gen", "--seed", "1", "--n0", "3", "--n1", "3", "--out", str(tmp_path / "gen.csv")],
    ]
    run_child(
        f"""
        import contextlib, io, sys
        from calsched import cli
        for argv in {runs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            loaded = {{"argparse", "gettext", "locale"}} & set(sys.modules)
            assert not loaded, (argv, loaded)
        """
    )


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
        budgets = list(range(-1, len(table) + 1))
        answers = solve(budgets)
        assert len(builds) == 1
        assert table == enumerate_pareto(instance)
        assert answers == [oracle.shortest_schedule(instance, k) for k in budgets]
        for k, answer in zip(budgets, answers):
            reference = brute_force_optimal(instance, k)
            assert answer.feasible == reference.feasible
            assert answer.total_change == reference.optimal_total_change
            if reference.feasible:
                assert answer.schedule == reference.optimal_schedules[0]
                assert answer.changes == color_changes(answer.schedule) <= k


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


# One sha256 over the oracle's answers on GOLDEN_COUNT seeded instances:
# the trade-off table, and for every budget from -1 to one past the merged
# maximum and every schedule cap in GOLDEN_SCHEDULE_CAPS, the optimum, the
# optimal orders in their order and the truncation flag.  A change to the
# table's layout or fill that alters any value, tie-break or truncation
# changes the digest.
GOLDEN_COUNT = 2000
GOLDEN_SCHEDULE_CAPS = (1, 3, 64)
GOLDEN_DIGEST = "a3c2578a9d807194fdaaaf4abd17426251119eb1bc2397ab8ab1cfc8ad32f504"


def golden_instances(count, seed=20261019):
    """Instances of 1-10 jobs in 1-4 colors.  Temperatures are distinct
    within a color, so no job merges, and drawn from a narrow range, so
    the colors share them and optima tie."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        k = rng.randint(1, min(4, n))
        colors = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        top = max(colors.count(c) for c in range(k)) + rng.randint(0, 2)
        records = []
        for c in range(k):
            for t in rng.sample(range(top), colors.count(c)):
                records.append((f"j{len(records)}", t, c))
        rng.shuffle(records)
        yield build_instance(records)


def golden_answers(instance):
    yield enumerate_pareto(instance)
    for budget in range(-1, max_merged_color_changes(instance) + 2):
        for schedule_cap in GOLDEN_SCHEDULE_CAPS:
            result = brute_force_optimal(instance, budget, schedule_cap=schedule_cap)
            orders = tuple(s.order for s in result.optimal_schedules)
            yield budget, schedule_cap, result.optimal_total_change, orders, result.truncated


def test_golden_digest(monkeypatch):
    # Each table is built once per instance and width and shared by the
    # schedule caps, which read the same table through brute_force_optimal.
    built = {}
    real_table = oracle._subset_dp_table

    def shared_table(temps, colors, cap):
        key = tuple(temps), tuple(colors), cap
        if key not in built:
            built[key] = real_table(temps, colors, cap)
        return built[key]

    monkeypatch.setattr(oracle, "_subset_dp_table", shared_table)
    sha = hashlib.sha256()
    truncated = 0
    for instance in golden_instances(GOLDEN_COUNT):
        built.clear()
        for answer in golden_answers(instance):
            truncated += answer[-1] is True
            sha.update(repr(answer).encode() + b"\n")
    # The data must truncate often, so the digest pins tie-break order.
    assert truncated >= GOLDEN_COUNT
    assert sha.hexdigest() == GOLDEN_DIGEST
