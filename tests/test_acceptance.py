"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
All tolerances are exact (scaled-integer arithmetic); the runtime and
memory bounds are asserted with generous hardware-independent margins.
"""

import random
import resource
import time
from contextlib import contextmanager

import pytest

from calsched import (
    Schedule,
    build_instance,
    brute_force_optimal,
    check_canonical_form,
    color_changes,
    emit_plot,
    four_point_inequality,
    generate_instance,
    max_feasible_color_changes,
    normalize,
    parse_instance,
    pareto_sweep,
    partition_blocks,
    remove_intersections,
    serialize_instance,
    shortest_schedule,
    sort_blocks_externally,
    sort_blocks_internally,
    temperature_span,
    total_temperature_change,
    verify_schedule,
)
from conftest import THREE_COLOR_OPTIMUM

CORPUS_SEED = 20260810
CORPUS_SIZE = 500


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(3, 9)
        n0 = rng.randint(1, n - 1)
        temps = {0: set(), 1: set()}
        records = []
        for j in range(n):
            color = 0 if j < n0 else 1
            while True:
                t = rng.randint(1, 50)
                if t not in temps[color]:
                    temps[color].add(t)
                    break
            records.append((f"j{j}", t, color))
        instances.append(build_instance(records))
    return instances


@pytest.fixture(scope="module")
def fuzz_solutions(fuzz_corpus):
    """Solver results for every instance and every feasible budget."""
    start = time.perf_counter()
    solved = []
    for instance in fuzz_corpus:
        per_budget = {}
        for cap in range(1, max_feasible_color_changes(instance) + 1):
            per_budget[cap] = shortest_schedule(instance, cap)
        solved.append(per_budget)
    elapsed = time.perf_counter() - start
    return solved, elapsed


def test_criterion_1_three_color_counterexample(ten_job_three_color):
    with criterion(1, "three-color capped optimum is 7, unique up to reversal, <10s"):
        start = time.perf_counter()
        result = brute_force_optimal(ten_job_three_color, 4)
        elapsed = time.perf_counter() - start
        assert result.optimal_total_change == 7000
        assert not result.truncated
        orders = {s.order for s in result.optimal_schedules}
        assert orders == {
            THREE_COLOR_OPTIMUM,
            tuple(reversed(THREE_COLOR_OPTIMUM)),
        }
        assert elapsed < 10.0


def test_criterion_2_oracle_equivalence(fuzz_corpus, fuzz_solutions):
    with criterion(2, "500-instance fuzz: solver equals exhaustive optimum exactly, <60s"):
        solved, solve_time = fuzz_solutions
        start = time.perf_counter()
        checked = 0
        for instance, per_budget in zip(fuzz_corpus, solved):
            for cap, result in per_budget.items():
                reference = brute_force_optimal(instance, cap)
                assert result.total_change == reference.optimal_total_change, (
                    instance.jobs,
                    cap,
                )
                checked += 1
        elapsed = solve_time + (time.perf_counter() - start)
        assert checked > CORPUS_SIZE
        assert elapsed < 60.0


def test_criterion_3_canonical_outputs(fuzz_solutions):
    with criterion(3, "every feasible solver output is in canonical form"):
        violations = []
        for per_budget in fuzz_solutions[0]:
            for result in per_budget.values():
                assert result.feasible
                ok, found = check_canonical_form(result.schedule)
                if not ok:
                    violations.append(found)
        assert violations == []


def test_criterion_4_rewrite_property_suite():
    with criterion(4, "1000 random schedules: every rewrite improves and lands in shape"):
        rng = random.Random(CORPUS_SEED + 1)
        for _ in range(1000):
            n = rng.randint(2, 12)
            n0 = rng.randint(0, n)
            temps = {0: set(), 1: set()}
            records = []
            for j in range(n):
                color = 0 if j < n0 else 1
                while True:
                    t = rng.randint(1, 40)
                    if t not in temps[color]:
                        temps[color].add(t)
                        break
                records.append((f"j{j}", t, color))
            instance = build_instance(records)
            jobs = list(instance.jobs)
            rng.shuffle(jobs)
            schedule = Schedule.from_jobs(instance, jobs)
            t_before = total_temperature_change(schedule)
            c_before = color_changes(schedule)
            for block in partition_blocks(schedule):
                assert total_temperature_change(block.jobs) >= block.t_max - block.t_min

            sorted_s, _ = sort_blocks_internally(schedule)
            assert total_temperature_change(sorted_s) <= t_before
            assert color_changes(sorted_s) <= c_before
            for block in partition_blocks(sorted_s):
                ts = [j.temperature for j in block.jobs]
                assert all(x < y for x, y in zip(ts, ts[1:])) or all(
                    x > y for x, y in zip(ts, ts[1:])
                )
                assert total_temperature_change(block.jobs) == block.t_max - block.t_min

            merged, _ = remove_intersections(schedule)
            assert total_temperature_change(merged) <= t_before
            assert color_changes(merged) <= c_before
            blocks = partition_blocks(merged)
            for r in range(len(blocks)):
                for s in range(r + 1, len(blocks)):
                    if blocks[r].color == blocks[s].color:
                        assert (
                            blocks[r].t_max < blocks[s].t_min
                            or blocks[s].t_max < blocks[r].t_min
                        )

            ordered, _ = sort_blocks_externally(schedule)
            assert total_temperature_change(ordered) <= t_before
            assert color_changes(ordered) <= c_before
            by_color = {}
            for block in partition_blocks(ordered):
                by_color.setdefault(block.color, []).append(block.t_max)
                assert total_temperature_change(block.jobs) >= block.t_max - block.t_min
            for maxima in by_color.values():
                assert all(x < y for x, y in zip(maxima, maxima[1:]))

            canonical = normalize(schedule)
            assert total_temperature_change(canonical) <= t_before
            assert color_changes(canonical) <= c_before
            ok, found = check_canonical_form(canonical)
            assert ok, found


def test_criterion_5_four_point_inequality_exhaustive():
    with criterion(5, "four-point inequality holds on the exhaustive 0..20 grid, <1s"):
        start = time.perf_counter()
        checked = 0
        for b in range(21):
            for c in range(b + 1, 21):
                for a in range(21):
                    for d in range(a + 1, 21):
                        assert four_point_inequality(a, b, c, d)
                        checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 44100
        assert elapsed < 1.0


def test_criterion_6_pareto_sanity(fuzz_corpus):
    with criterion(6, "sweeps are non-increasing, saturate at the span, flag budget 0"):
        for instance in fuzz_corpus:
            table = pareto_sweep(instance)
            assert table[0] == (0, None)
            values = [v for _, v in table[1:]]
            assert all(v is not None for v in values)
            assert all(x >= y for x, y in zip(values, values[1:]))
            assert values[-1] == temperature_span(instance.jobs)
            assert table[-1][0] == max_feasible_color_changes(instance)


def test_criterion_7_polynomial_scale_smoke():
    with criterion(7, "500+500 jobs, budget 20: <10s, <2GB, certified output"):
        instance = generate_instance(seed=CORPUS_SEED, n0=500, n1=500, t_min=1, t_max=100000)
        start = time.perf_counter()
        result = shortest_schedule(instance, 20)
        elapsed = time.perf_counter() - start
        # Peak resident size of the whole process so far, in KiB on Linux.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        assert elapsed < 10.0
        assert peak_rss < 2 * 1024**3
        assert result.feasible and result.changes <= 20
        ok, violations = check_canonical_form(result.schedule)
        assert ok, violations
        report = verify_schedule(instance, list(result.schedule.expanded_ids()))
        assert report["T"] == _format(result.total_change)
        assert report["C"] == result.changes


def _format(scaled):
    from calsched import format_temperature

    return format_temperature(scaled)


def test_criterion_8_roundtrip_and_plot(fuzz_corpus, fuzz_solutions):
    with criterion(8, "serialize/parse roundtrips; plot totals equal reported values"):
        for instance in fuzz_corpus:
            for fmt in ("csv", "json"):
                assert parse_instance(serialize_instance(instance, fmt), fmt) == instance
        for per_budget in fuzz_solutions[0]:
            for result in per_budget.values():
                rows = emit_plot(result.schedule)
                assert rows[0].cumulative == 0
                assert rows[-1].cumulative == result.total_change
