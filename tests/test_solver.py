import hashlib
import heapq
import itertools
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calsched import (
    SolveResult,
    ValidationError,
    brute_force_optimal,
    build_instance,
    build_search_graph,
    check_canonical_form,
    color_changes,
    enumerate_pareto,
    format_temperature,
    max_feasible_color_changes,
    pareto_sweep,
    shortest_schedule,
    temperature_span,
    total_temperature_change,
)
from calsched import solver
from calsched.core import MAGNITUDE_LIMIT, max_merged_color_changes, pareto_table
from calsched.solver import _band, pareto_front
from conftest import (
    child_peak_rss_mb,
    job_records,
    make_two_color,
    run_child,
    three_color_instance,
    two_color_instances,
)
from graph_view import arc_count, iter_arcs, iter_nodes, node_count

# Each running-minimum kernel on one thread, and the blocked kernel with
# one chain on a second thread, as pass_plan would return them.
FORCED_PLANS = {
    "accumulate": (solver._accumulate_minimum, False),
    "doubling": (solver._doubling_minimum, False),
    "blocked": (solver._blocked_minimum, False),
    "threaded": (solver._blocked_minimum, True),
}


@st.composite
def lopsided_records(draw, max_jobs=9, max_temp=9):
    """One job of one color and 1..max_jobs of the other (1+1 and 1+n
    shapes); equal temperatures of the larger color merge."""
    lone = draw(st.integers(0, 1))
    temps = draw(st.lists(st.integers(0, max_temp), min_size=2, max_size=max_jobs + 1))
    return [(f"j{i}", t, lone if i == 0 else 1 - lone) for i, t in enumerate(temps)]


def dijkstra(arcs, source):
    graph = {}
    for u, v, w in arcs:
        graph.setdefault(u, []).append((v, w))
        graph.setdefault(v, [])
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for v, w in graph.get(u, []):
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class TestGraphStructure:
    def test_node_and_arc_counts_match_enumeration(self):
        inst = make_two_color([1, 4], [2, 3])
        graph = build_search_graph(inst, 2)
        nodes = list(iter_nodes(graph))
        arcs = list(iter_arcs(graph))
        assert len(nodes) == len(set(nodes)) == node_count(graph) == 24
        assert len(arcs) == arc_count(graph) == 26
        node_set = set(nodes)
        for u, v, w in arcs:
            assert u in node_set and v in node_set
            assert w >= 0

    @pytest.mark.parametrize(
        "n0,n1,cap", [(2, 2, 3), (1, 4, 2), (3, 3, 5), (4, 2, 4), (1, 1, 1), (3, 2, 1)]
    )
    def test_counts_for_other_shapes(self, n0, n1, cap):
        inst = make_two_color(
            [10 * i + 1 for i in range(n0)], [10 * i + 5 for i in range(n1)]
        )
        graph = build_search_graph(inst, cap)
        assert len(list(iter_nodes(graph))) == node_count(graph)
        assert len(list(iter_arcs(graph))) == arc_count(graph)

    def test_budget_is_clamped_before_layers(self):
        inst = make_two_color([1, 4], [2, 3])
        graph = build_search_graph(inst, 10**6)
        assert graph.max_changes == 3

    def test_graph_is_acyclic(self):
        inst = make_two_color([1, 4, 6], [2, 3])
        graph = build_search_graph(inst, 4)
        indegree = {node: 0 for node in iter_nodes(graph)}
        successors = {node: [] for node in indegree}
        for u, v, _ in iter_arcs(graph):
            successors[u].append(v)
            indegree[v] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for nxt in successors[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        assert seen == node_count(graph)

    def test_preconditions_enforced(self):
        with pytest.raises(ValidationError):
            build_search_graph(build_instance([("a", 1, 0), ("b", 2, 0)]), 4)
        with pytest.raises(ValidationError):
            build_search_graph(three_color_instance(), 4)
        with pytest.raises(ValidationError):
            build_search_graph(make_two_color([1], [2]), 0)
        assert build_search_graph(make_two_color([1], [2]), 4).max_changes == 1

    @given(two_color_instances(max_jobs=10, max_temp=25))
    @settings(max_examples=30, deadline=None)
    def test_layer_targets_match_reference_search(self, instance):
        cap = max_feasible_color_changes(instance)
        graph = build_search_graph(instance, cap)
        dist = dijkstra(list(iter_arcs(graph)), ("source",))
        for k, value in enumerate(graph.layer_target_distances(), start=1):
            reference = dist.get(("ltarget", k))
            assert value == reference
        best = min(v for v in graph.layer_target_distances() if v is not None)
        assert dist[("target",)] == best
        # The distance pass relaxes and stores only the band of each grid,
        # so no node outside it may be reachable.
        for node in dist:
            if node[0] == "grid":
                _, layer, color, i, j = node
                lo_i, lo_j = _band(layer)[:: 1 - 2 * color]  # in (i, j) order
                assert i - 1 >= lo_i and j - 1 >= lo_j, node


class TestShortestSchedule:
    def test_budget_one_example(self):
        inst = make_two_color([1, 4], [2, 3])
        result = shortest_schedule(inst, 1)
        assert result.total_change == 5000
        assert result.changes == 1

    def test_budget_two_example(self):
        inst = make_two_color([1, 4], [2, 3])
        result = shortest_schedule(inst, 2)
        assert result.total_change == 3000
        assert result.schedule.order == ("w1", "b1", "b2", "w2")

    def test_single_color(self):
        inst = build_instance([("a", 5, 1), ("b", 1, 1), ("c", 3, 1)])
        result = shortest_schedule(inst, 0)
        assert result.total_change == 4000
        assert result.changes == 0
        assert result.schedule.order == ("b", "c", "a")

    def test_zero_budget_two_colors_infeasible(self):
        inst = make_two_color([1], [2])
        result = shortest_schedule(inst, 0)
        assert not result.feasible
        assert result.schedule is None

    @given(two_color_instances(max_jobs=8, max_temp=40))
    @settings(max_examples=40, deadline=None)
    def test_budget_one_is_first_cheapest_two_block_layout(self, instance):
        # Both color orders, each block either way round, in this order;
        # the first cheapest layout wins ties.
        first, second = (instance.sorted_jobs(c) for c in instance.colors)
        layouts = [
            list(a[::-1] if rev_a else a) + list(b[::-1] if rev_b else b)
            for a, b in ((first, second), (second, first))
            for rev_a in (False, True)
            for rev_b in (False, True)
        ]
        result = shortest_schedule(instance, 1)
        assert list(result.schedule.jobs) == min(layouts, key=total_temperature_change)

    def test_magnitude_bound_keeps_distances_exact(self):
        # Temperatures at the largest magnitude an instance may have.
        top = MAGNITUDE_LIMIT // 5
        temps = [(0, 0), (top, 0), (top // 3, 0), (top // 2, 1), (top - 1, 1)]
        inst = build_instance(
            [(f"j{i}", format_temperature(t), c) for i, (t, c) in enumerate(temps)]
        )
        for cap in range(1, max_feasible_color_changes(inst) + 1):
            result = shortest_schedule(inst, cap)
            assert result.total_change == brute_force_optimal(inst, cap).optimal_total_change
        assert pareto_sweep(inst)[-1] == (4, top)

    def test_ties_go_to_fewest_changes(self):
        # Exactly 2 and exactly 3 changes both cost 9; span 7 needs 4.
        inst = build_instance(
            [("w0", 4, 0), ("w1", 6, 0), ("w2", 4, 0),
             ("b0", 4, 1), ("b1", 8, 1), ("b2", 5, 1), ("b3", 1, 1)]
        )
        graph = build_search_graph(inst, 4)
        assert graph.layer_target_distances() == [11000, 9000, 9000, 7000]
        assert graph.best_under_cap(3) == (9000, 2)
        assert shortest_schedule(inst, 3).changes == 2

    @pytest.mark.parametrize("colors,seed", [(3, 0), (3, 1), (4, 2)])
    def test_more_colors_take_the_oracle_first_optimum(self, colors, seed):
        rng = random.Random(seed)  # few distinct temperatures, so optima tie
        records = [(f"j{i}", rng.randint(0, 6), i % colors) for i in range(3 * colors)]
        instances = [build_instance(records)]
        if seed == 0:
            instances.append(three_color_instance())
        for instance in instances:
            assert len(instance.colors) == colors
            table, solve = pareto_front(instance)
            assert table == enumerate_pareto(instance) == pareto_sweep(instance)
            budgets = list(range(-1, table[-1][0] + 1))
            expected = []
            for k in budgets:
                outcome = brute_force_optimal(instance, k)
                if outcome.feasible:
                    first = outcome.optimal_schedules[0]
                    expected.append(SolveResult(first, outcome.optimal_total_change, color_changes(first), True))
                else:
                    expected.append(SolveResult(None, None, None, False))
            assert not expected[colors - 1].feasible and expected[colors].feasible
            assert [shortest_schedule(instance, k) for k in budgets] == expected
            assert solve(budgets) == expected

    def test_deterministic(self):
        inst = make_two_color([5, 12, 9, 30], [7, 11, 28])
        first = shortest_schedule(inst, 3)
        second = shortest_schedule(inst, 3)
        assert first.schedule.order == second.schedule.order

    def test_input_order_invariance(self):
        records = [("a", 4, 0), ("b", 1, 1), ("c", 7, 0), ("d", 3, 1), ("e", 9, 0)]
        base = shortest_schedule(build_instance(records), 2)
        shuffled = [records[i] for i in (3, 0, 4, 2, 1)]
        other = shortest_schedule(build_instance(shuffled), 2)
        assert other.schedule.order == base.schedule.order
        assert other.total_change == base.total_change

    def test_merged_duplicates_expand_consecutively(self):
        inst = build_instance(
            [("a", 2, 0), ("b", 2, 0), ("c", 5, 1), ("d", 7, 0), ("e", 6, 1)]
        )
        result = shortest_schedule(inst, 2)
        expanded = result.schedule.expanded_ids()
        assert abs(expanded.index("a") - expanded.index("b")) == 1
        reference = brute_force_optimal(inst, 2)
        assert result.total_change == reference.optimal_total_change

    @given(two_color_instances(max_jobs=8, max_temp=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_for_every_budget(self, instance):
        for cap in range(1, max_feasible_color_changes(instance) + 1):
            result = shortest_schedule(instance, cap)
            reference = brute_force_optimal(instance, cap)
            assert result.total_change == reference.optimal_total_change
            assert result.changes <= cap
            assert (
                total_temperature_change(result.schedule)
                == result.total_change
            )
            ok, violations = check_canonical_form(result.schedule)
            assert ok, violations

    def test_enumeration_cross_check_with_duplicates(self):
        records = [
            ("a", 3, 0), ("b", 3, 0), ("c", 1, 1), ("d", 5, 1), ("e", 4, 0)
        ]
        inst = build_instance(records)
        expanded = []
        for job in inst.jobs:
            expanded.extend([job] * job.multiplicity)
        for cap in range(1, max_feasible_color_changes(inst) + 1):
            best = min(
                total_temperature_change(list(p))
                for p in itertools.permutations(expanded)
                if color_changes(list(p)) <= cap
            )
            assert shortest_schedule(inst, cap).total_change == best


class TestParetoSweep:
    def test_example_table(self):
        inst = make_two_color([1, 4], [2, 3])
        assert pareto_sweep(inst) == [(0, None), (1, 5000), (2, 3000), (3, 3000)]

    def test_single_color(self):
        inst = build_instance([("a", 5, 1), ("b", 1, 1)])
        assert pareto_sweep(inst) == [(0, 4000)]

    def test_saturates_at_global_span(self):
        inst = make_two_color([3, 11, 19, 27], [6, 14])
        table = pareto_sweep(inst)
        assert table[-1][1] == temperature_span(inst.jobs)

    @given(two_color_instances(max_jobs=7, max_temp=30))
    @settings(max_examples=30, deadline=None)
    def test_non_increasing_and_matches_solves(self, instance):
        table = pareto_sweep(instance)
        assert table[0] == (0, None)
        values = [v for _, v in table if v is not None]
        assert all(x >= y for x, y in zip(values, values[1:]))
        for cap, value in table[1:]:
            assert shortest_schedule(instance, cap).total_change == value

    @given(
        st.one_of(
            job_records(min_colors=2, max_colors=2, max_jobs=12, max_temp=9),
            lopsided_records(),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_front_stops_early_without_changing_answers(self, records):
        # The front prices layers only until the curve saturates; a graph
        # priced in full, and a fresh solve per budget, must agree with it.
        instance = build_instance(records)
        table, solve = pareto_front(instance)
        full = build_search_graph(instance, max_merged_color_changes(instance))
        assert table == pareto_table(instance, [None, *full.layer_target_distances()])
        for (k, value), result in zip(table[1:], solve([k for k, _ in table[1:]])):
            assert result == shortest_schedule(instance, k)
            # Ties go to the fewest changes: the first budget reaching the value.
            assert result.changes == next(j for j, v in table if v == value)

    @given(
        st.one_of(
            st.integers(2, 9).flatmap(
                lambda top: job_records(min_colors=2, max_colors=2, max_jobs=12, max_temp=top)
            ),
            lopsided_records(),
        )
    )
    @example([("w1", 1, 0), ("w2", 2, 0), ("w3", 3, 0), ("b1", 5, 1), ("b2", 6, 1)])  # separable: 1
    @example([("w1", 1, 0), ("b1", 1, 1), ("w2", 2, 0), ("b2", 2, 1)])  # each shared: 2
    @example([("w1", 2, 0), ("b1", 1, 1), ("b2", 2, 1), ("b3", 3, 1)])  # shared inside one color: 2
    @example([("w1", 1, 0), ("w2", 3, 0), ("b1", 2, 1), ("b2", 4, 1)])  # alternating: 3
    @settings(max_examples=80, deadline=None)
    def test_saturation_is_the_first_budget_at_the_span(self, records):
        # Priced in full, the curve first reaches the span at the closed
        # form: the fewest color changes of a sorted order.
        instance = build_instance(records)
        full = build_search_graph(instance, max_merged_color_changes(instance))
        table = pareto_table(instance, [None, *full.layer_target_distances()])
        span = temperature_span(instance.jobs)
        assert full.saturation == next(k for k, value in table if value == span)
        assert pareto_sweep(instance) == table

    def test_table_is_invariant_at_300_per_color(self):
        # Too large for the oracle or the explicit-graph audit.  A shift by
        # more than int32 holds still has to price int32 grids exactly;
        # reflection reverses both sorted lists, so other cells decide.
        rng = random.Random(300)
        scaled = [(rng.randint(0, 10**6), i % 2) for i in range(600)]
        top = max(t for t, _ in scaled)

        def table(records):
            return pareto_sweep(
                build_instance(
                    [(f"j{i}", format_temperature(t), c) for i, (t, c) in enumerate(records)]
                )
            )

        base = table(scaled)
        assert len(base) == 600 and base[-1][1] == top - min(t for t, _ in scaled)
        assert table([(t + 5 * 10**9, c) for t, c in scaled]) == base
        assert table([(top - t, c) for t, c in scaled]) == base
        assert table([(t, 1 - c) for t, c in scaled]) == base

    @given(
        st.one_of(
            job_records(min_colors=2, max_colors=2, max_jobs=14, max_temp=9),
            lopsided_records(),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_color_swap_keeps_every_budget_answer(self, records):
        # Swapping the colors sends each walk through the other color's
        # turn of the shared relaxation and walk code.
        def answers(records):
            table, solve = pareto_front(build_instance(records))
            budgets = [k for k, value in table if value is not None]
            return table, [(r.total_change, r.changes) for r in solve(budgets)]

        assert answers([(i, t, 1 - c) for i, t, c in records]) == answers(records)

    def test_equal_cost_optima_resolve_the_same_way(self):
        # Several optima tie at budgets 2 and 3.  The walk takes color 0's
        # exits before color 1's, and starts each block at the latest job
        # that reaches the optimum; both rules show in these schedules.
        instance = build_instance(
            [("w0", 2, 0), ("b1", 3, 1), ("b2", 1, 1), ("b3", 2, 1), ("w4", 4, 0), ("w5", 4, 0)]
        )
        expected = {2: ("w0", "b2", "b3", "b1", "w4"), 3: ("b2", "b3", "w0", "b1", "w4")}
        _, solve = pareto_front(instance)
        assert [r.schedule.order for r in solve([2, 3])] == [expected[2], expected[3]]
        for budget, order in expected.items():
            assert shortest_schedule(instance, budget).schedule.order == order

    def test_agrees_with_oracle_table_under_duplicates(self):
        from calsched import enumerate_pareto

        inst = build_instance(
            [("a", 3, 0), ("b", 3, 0), ("c", 1, 1), ("d", 5, 1), ("e", 4, 0), ("f", 5, 1)]
        )
        assert pareto_sweep(inst) == enumerate_pareto(inst)


class TestCheckpoints:
    """What the rolling distance pass keeps, its grid dtype and its memory."""

    @given(
        st.one_of(
            job_records(min_colors=2, max_colors=2, max_jobs=16, max_temp=9),
            lopsided_records(),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_and_dtype_do_not_change_answers(self, records):
        # int64 grids hold every value, and these bands are narrow enough
        # for minimum.accumulate on one thread: the reference.  The forced
        # plans run each kernel on one thread, and the blocked kernel with
        # the chains on two.
        instance = build_instance(records)
        seen = []
        for dtype, plan in itertools.product((np.int64, None), (None, *FORCED_PLANS.values())):
            with pytest.MonkeyPatch.context() as mp:
                if dtype is not None:
                    mp.setattr(solver, "grid_dtype", lambda changes, span, d=dtype: d)
                if plan is not None:
                    mp.setattr(solver, "pass_plan", lambda width, cpus, p=plan: p)
                table, solve = pareto_front(instance)
                budgets = [k for k, value in table if value is not None]
                batch = solve(budgets)
                single = [shortest_schedule(instance, k) for k in budgets]
                graph = build_search_graph(instance, max_merged_color_changes(instance))
                seen.append((table, batch, single, graph.layer_target_distances()))
            assert batch == single
        assert all(answers == seen[0] for answers in seen[1:])

    def test_no_grid_buffers_below_the_first_relaxed_grid(self, monkeypatch):
        # Budgets 1 and 2 read the entry grids only, so no buffer of n0 * n1
        # cells is allocated; budget 3 relaxes one grid per color.
        rng = random.Random(41)
        temps = rng.sample(range(1, 1000), 70)
        instance = make_two_color(temps[:40], temps[40:])
        cells = 40 * 30
        sizes = []
        real_empty = np.empty

        def recording_empty(shape, *args, **kwargs):
            sizes.append(math.prod(np.atleast_1d(shape)))
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        assert shortest_schedule(instance, 2).feasible
        graph = build_search_graph(instance, 1)
        assert graph.layer_target_distances()[0] is not None and graph.solve_many([1])[0].feasible
        assert cells not in sizes
        assert shortest_schedule(instance, 3).feasible
        assert sizes.count(cells) == 8  # two chains of three grid buffers and one mask

    def test_reconstruction_relaxes_no_grid(self, monkeypatch):
        # Walks read only the decision bits and last rows the pass kept.
        rng = random.Random(40)
        temps = rng.sample(range(1, 1000), 80)
        instance = make_two_color(temps[:40], temps[40:])
        calls = []
        real_relax = solver.SearchGraph._relax
        monkeypatch.setattr(
            solver.SearchGraph, "_relax", lambda *a, **kw: calls.append(a[1:3]) or real_relax(*a, **kw)
        )
        table, solve = pareto_front(instance)
        priced = len({layer for layer, _ in calls}) + 1  # the pass relaxes every layer from 2 up
        budgets = [k for k, value in table if value is not None]
        calls.clear()
        results = solve(budgets)
        assert calls == []
        assert len({result.changes for result in results}) > priced // 2
        assert results == [shortest_schedule(instance, k) for k in budgets]

    @given(
        st.one_of(
            job_records(min_colors=2, max_colors=2, max_jobs=16, max_temp=40),
            lopsided_records(max_temp=40),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_band_values_stay_within_the_path_bound(self, records):
        # The bound that lets grid_dtype pick int32: with exact int64 grids,
        # no band value leaves [-span, (layer+2)*span], so no INF ever
        # enters a band.  Relaxed grids live in reused buffers, so each is
        # copied as it is made.
        instance = build_instance(records)
        span = temperature_span(instance.jobs)
        grids = {}
        real_relax = solver.SearchGraph._relax

        def relax(graph, layer, c, *args):
            grid = grids[layer, c] = real_relax(graph, layer, c, *args).copy()
            return grid

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "grid_dtype", lambda changes, span: np.int64)
            mp.setattr(solver.SearchGraph, "_relax", relax)
            graph = build_search_graph(instance, max_merged_color_changes(instance))
            graph.layer_target_distances()
        assert sorted(grids) == [(layer, c) for layer in range(2, graph.max_changes) for c in (0, 1)]
        grids.update({(1, c): graph._entry_grid(c) for c in (0, 1)})
        for (layer, _), grid in grids.items():
            assert -span <= grid.min() and grid.max() <= (layer + 2) * span, layer

    @pytest.mark.parametrize("widen", [0, 1])
    def test_int32_up_to_the_bound(self, widen):
        # 3+2 jobs allow at most 4 changes, so (4 + 4) * span hits 2^30
        # exactly at span 2^27; one thousandth wider needs int64.
        span = (1 << 27) + widen
        temps = [(0, 0), (span // 3, 0), (span, 0), (span // 2, 1), (span - 7, 1)]
        instance = build_instance(
            [(f"j{i}", format_temperature(t), c) for i, (t, c) in enumerate(temps)]
        )
        assert max_merged_color_changes(instance) == 4 and temperature_span(instance.jobs) == span
        assert solver.grid_dtype(4, span) is (np.int64 if widen else np.int32)
        graph = build_search_graph(instance, 4)
        distances = graph.layer_target_distances()
        assert graph._dp["dtype"] is solver.grid_dtype(4, span)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "grid_dtype", lambda changes, span: np.int64)
            assert build_search_graph(instance, 4).layer_target_distances() == distances
            assert pareto_sweep(instance) == pareto_table(instance, [None, *distances])

    def test_front_prices_int32_when_only_saturation_fits(self):
        # 3+5 jobs allow 6 changes, but the curve saturates at 4: the graph
        # of the whole budget needs int64 at span 2^27, and the front's and
        # the solve's graphs, which stop at saturation, take int32.
        span = 1 << 27
        whites = [0, span // 3, span]
        blacks = [span // 7, span // 5, span // 2 + 3, 2 * span // 3, span - 11]
        records = [(f"w{i}", format_temperature(t), 0) for i, t in enumerate(whites)]
        records += [(f"b{i}", format_temperature(t), 1) for i, t in enumerate(blacks)]
        instance = build_instance(records)
        assert max_merged_color_changes(instance) == 6
        assert build_search_graph(instance, 1).saturation == 4
        assert (4 + 4) * span <= 1 << 30 < (6 + 4) * span
        picked = []
        real_dtype = solver.grid_dtype
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                solver, "grid_dtype", lambda changes, span: picked.append(real_dtype(changes, span)) or picked[-1]
            )
            table, solve = pareto_front(instance)
            budgets = [k for k, value in table if value is not None]
            answers = table, solve(budgets), [shortest_schedule(instance, k) for k in (4, 6)]
        assert picked == [np.int32] * 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "grid_dtype", lambda changes, span: np.int64)
            graph = build_search_graph(instance, 6)
            full = pareto_table(instance, [None, *graph.layer_target_distances()])
            assert answers == (full, graph.solve_many(budgets), graph.solve_many([4, 6]))

    def test_full_500_sweep_peak_memory(self):
        # The whole 500+500 curve in a fresh process; with every priced
        # layer kept it needs more than 1 GB.
        peak_mb = child_peak_rss_mb(
            """
            import random
            from calsched import build_instance, pareto_sweep
            rng = random.Random(2024)
            records = [(f"j{i}", rng.randint(0, 10**6) / 1000, i % 2) for i in range(1000)]
            table = pareto_sweep(build_instance(records))
            assert len(table) == 1000 and table[-1][1] is not None
            """
        )
        assert peak_mb < 512, peak_mb

    def test_500_solve_peak_memory(self):
        # A 500+500 solve at budget 50 in a fresh process, near 41 MB: the
        # pass keeps decision bits, not grids.  Keeping every
        # ceil(sqrt(K))-th grid layer for the walks instead reads 58 MB.
        peak_mb = child_peak_rss_mb(
            """
            import random
            from calsched import build_instance, shortest_schedule
            rng = random.Random(50)
            records = [(f"j{i}", rng.randint(0, 10**6) / 1000, i % 2) for i in range(1000)]
            result = shortest_schedule(build_instance(records), 50)
            assert result.feasible and result.changes <= 50
            """
        )
        assert peak_mb < 46, peak_mb


class TestPassPlan:
    """The running-minimum kernel and the chain threads of the forward pass."""

    def test_narrow_bands_accumulate_on_one_thread(self):
        for cpus in (1, 2, 64):
            for width in (60, solver._DOUBLING_FROM - 1):
                assert solver.pass_plan(width, cpus) == (solver._accumulate_minimum, False)

    def test_mid_bands_double_on_one_thread(self):
        for cpus in (1, 2, 64):
            for width in (solver._DOUBLING_FROM, 150, solver._BLOCKED_FROM - 1):
                assert solver.pass_plan(width, cpus) == (solver._doubling_minimum, False)

    def test_wide_bands_block_and_thread_with_two_cpus(self):
        blocked = solver._blocked_minimum
        wide = max(solver._THREADS_FROM, 1000)
        assert solver.pass_plan(wide, 1) == (blocked, False)
        assert solver.pass_plan(wide, 2) == (blocked, True)
        assert solver.pass_plan(solver._THREADS_FROM, 2) == (blocked, True)
        assert solver.pass_plan(solver._BLOCKED_FROM, 1) == (blocked, False)
        # Two threads always run the blocked kernel.
        assert solver._DOUBLING_FROM < solver._BLOCKED_FROM <= solver._THREADS_FROM

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 9, 10, 17, 24, 99, 100, 101])
    def test_blocked_minimum_equals_accumulate(self, dtype, rows):
        rng = np.random.default_rng(rows)
        values = rng.integers(-1000, 1000, size=(rows, 7)).astype(dtype)
        grid = np.empty_like(values)
        solver._blocked_minimum(values, grid, np.empty_like(values))
        assert grid.dtype == dtype
        assert np.array_equal(grid, np.minimum.accumulate(values, axis=0))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_blocked_minimum_on_a_view_into_a_flat_buffer(self, dtype):
        # As in the pass: from a band at the front of one flat buffer into
        # a band grid at the front of another, whose tail must stay
        # untouched, and leaving the sums as they were.
        sums = np.full(23 * 11 + 5, 5555, dtype=dtype)
        values = sums[: 19 * 11].reshape(19, 11)
        values[...] = np.random.default_rng(3).integers(-500, 500, size=(19, 11))
        before = values.copy()
        buffer = np.full(23 * 11 + 5, 7777, dtype=dtype)
        grid = buffer[: 19 * 11].reshape(19, 11)
        solver._blocked_minimum(values, grid, np.empty_like(values))
        assert np.array_equal(grid, np.minimum.accumulate(before, axis=0))
        assert np.array_equal(values, before)
        assert (buffer[19 * 11 :] == 7777).all()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 100, 101])
    def test_doubling_minimum_equals_accumulate(self, dtype, rows):
        # Both parities of the step count ((rows - 1).bit_length()) must
        # end in out, not in spare.
        rng = np.random.default_rng(rows)
        values = rng.integers(-1000, 1000, size=(rows, 7)).astype(dtype)
        before = values.copy()
        grid = np.full_like(values, 7777)
        solver._doubling_minimum(values, grid, np.full_like(values, 5555))
        assert grid.dtype == dtype
        assert np.array_equal(grid, np.minimum.accumulate(before, axis=0))
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rows", [8, 9])
    def test_doubling_minimum_on_views_into_three_flat_buffers(self, dtype, rows):
        # As in the pass: the sums, the grid and the spare are bands at the
        # front of a chain's three flat buffers.  The sums stay as they
        # were, and the tails past the band in the grid and spare buffers
        # stay untouched.
        size = rows * 11
        flats = [np.full(23 * 11 + 5, fill, dtype=dtype) for fill in (5555, 7777, 3333)]
        values, grid, spare = (flat[:size].reshape(rows, 11) for flat in flats)
        values[...] = np.random.default_rng(rows).integers(-500, 500, size=(rows, 11))
        before = values.copy()
        solver._doubling_minimum(values, grid, spare)
        assert np.array_equal(grid, np.minimum.accumulate(before, axis=0))
        assert np.array_equal(values, before)
        assert (flats[0][size:] == 5555).all()
        assert (flats[1][size:] == 7777).all()
        assert (flats[2][size:] == 3333).all()

    @pytest.mark.parametrize("kernel", ["accumulate", "doubling", "blocked"])
    def test_every_kernel_reads_the_one_weight_layout(self, monkeypatch, kernel):
        # Every kernel takes its running minimum down the rows of sums in
        # the grid's own order, c's jobs down, built from the one into[c].
        rng = random.Random(12)
        temps = rng.sample(range(1, 1000), 24)
        instance = make_two_color(temps[:8], temps[8:])
        expected = build_search_graph(instance, 9).solve_many(range(1, 10))
        relaxed, shapes = [], []
        real_kernel = FORCED_PLANS[kernel][0]
        real_relax = solver.SearchGraph._relax

        def recording(values, out, spare):
            assert all(a.flags.c_contiguous for a in (values, out, spare))
            shapes.append(values.shape)
            real_kernel(values, out, spare)

        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus: (recording, False))
        monkeypatch.setattr(
            solver.SearchGraph,
            "_relax",
            lambda *a, **kw: relaxed.append(a[1:3]) or real_relax(*a, **kw),
        )
        graph = build_search_graph(instance, 9)
        assert graph.solve_many(range(1, 10)) == expected
        n = (graph.n0, graph.n1)
        assert relaxed and shapes == [
            (n[c] - _band(layer)[0], n[1 - c] - _band(layer)[1]) for layer, c in relaxed
        ]
        t = graph._dp["t"]
        for c, o in ((0, 1), (1, 0)):
            weights = graph._dp["into"][c]
            assert weights.flags.c_contiguous
            assert np.array_equal(weights, 2 * np.maximum(t[o][None, :] - t[c][:, None], 0))

    def test_threaded_pass_relaxes_the_sequential_grids(self, monkeypatch):
        # Both thread counts price layers up to the saturation layer known
        # before the pass, so two threads relax exactly the (layer, color)
        # grids of one thread, far below the top budget.
        rng = random.Random(41)
        temps = rng.sample(range(1, 1000), 120)
        instance = make_two_color(temps[:60], temps[60:])
        relaxed, tables = {}, {}
        real_relax = solver.SearchGraph._relax
        for threaded in (False, True):
            calls = relaxed[threaded] = []
            with pytest.MonkeyPatch.context() as mp:
                plan = FORCED_PLANS["threaded" if threaded else "blocked"]
                mp.setattr(solver, "pass_plan", lambda width, cpus, p=plan: p)
                mp.setattr(
                    solver.SearchGraph,
                    "_relax",
                    lambda *a, calls=calls, **kw: calls.append(a[1:3]) or real_relax(*a, **kw),
                )
                table, _ = tables[threaded] = pareto_front(instance)
        assert tables[True][0] == tables[False][0]
        assert sorted(relaxed[True]) == sorted(relaxed[False])
        assert len(set(relaxed[False])) == len(relaxed[False])
        saturated = next(k for k, value in table if value == table[-1][1])
        assert max(layer for layer, _ in relaxed[False]) == saturated - 1 < len(table) - 2

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        rng = random.Random(8)
        temps = rng.sample(range(1, 1000), 40)
        instance = make_two_color(temps[:20], temps[20:])
        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus: FORCED_PLANS["threaded"])
        real_relax = solver.SearchGraph._relax

        def relax(graph, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker chain failed")
            return real_relax(graph, *args, **kwargs)

        monkeypatch.setattr(solver.SearchGraph, "_relax", relax)
        before = threading.active_count()
        graph = build_search_graph(instance, 10)
        with pytest.raises(RuntimeError, match="worker chain failed"):
            graph.best_under_cap(10)
        assert threading.active_count() == before

    def test_caller_exception_stops_the_worker(self, monkeypatch):
        # When the caller's chain fails, it must stop the worker before it
        # joins.  The solve runs on a thread of its own, so a hang fails the
        # test.
        rng = random.Random(8)
        temps = rng.sample(range(1, 1000), 40)
        instance = make_two_color(temps[:20], temps[20:])
        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus: FORCED_PLANS["threaded"])
        real_relax = solver.SearchGraph._relax
        caller, raised = [], []

        def relax(graph, *args, **kwargs):
            if threading.current_thread() is caller[0]:
                raise RuntimeError("caller chain failed")
            return real_relax(graph, *args, **kwargs)

        def solve():
            caller.append(threading.current_thread())
            try:
                build_search_graph(instance, 10).best_under_cap(10)
            except RuntimeError as exc:
                raised.append(str(exc))

        monkeypatch.setattr(solver.SearchGraph, "_relax", relax)
        before = threading.active_count()
        thread = threading.Thread(target=solve, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert raised == ["caller chain failed"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failed_chain_stops_the_other_before_its_next_layer(self, monkeypatch, failing):
        # The failing chain raises on its layer-3 grid once the other chain
        # has reached its own, which it holds until the stop event is set.
        # So the other chain must relax no grid past layer 3, the failure
        # reaches the caller after the join, and no thread is left.
        rng = random.Random(8)
        temps = rng.sample(range(1, 1000), 40)
        instance = make_two_color(temps[:20], temps[20:])
        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus: FORCED_PLANS["threaded"])
        stops, other_layers, other_at_3 = [], [], threading.Event()
        real_on_two_threads = solver._on_two_threads
        monkeypatch.setattr(
            solver,
            "_on_two_threads",
            lambda chain: real_on_two_threads(lambda p, stop: stops.append(stop) or chain(p, stop)),
        )
        real_relax = solver.SearchGraph._relax

        def relax(graph, layer, *args):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                if layer == 3:
                    assert other_at_3.wait(timeout=60)
                    raise RuntimeError(f"{failing} chain failed")
            else:
                other_layers.append(layer)
                if layer == 3:
                    other_at_3.set()
                    assert stops[0].wait(timeout=60)
            return real_relax(graph, layer, *args)

        monkeypatch.setattr(solver.SearchGraph, "_relax", relax)
        before = threading.active_count()
        graph = build_search_graph(instance, 10)
        with pytest.raises(RuntimeError, match=f"{failing} chain failed"):
            graph.layer_target_distances()
        assert len(stops) == 2 and stops[0] is stops[1] and stops[0].is_set()
        assert other_layers == [2, 3]
        assert threading.active_count() == before

    def test_threaded_solve_imports_no_concurrent_futures(self, tmp_path):
        # A thread start plus join costs about 130 us; importing
        # concurrent.futures would cost 7-9 ms on every CLI run.
        rng = random.Random(9)
        temps = rng.sample(range(1, 10**6), 60)
        path = tmp_path / "two.csv"
        path.write_text(
            "".join(f"j{i},{t / 1000},{i % 2}\n" for i, t in enumerate(temps)), encoding="utf-8"
        )
        run_child(
            f"""
            import contextlib, io, sys, threading
            from calsched import cli, solver
            solver.pass_plan = lambda width, cpus: (solver._blocked_minimum, True)
            started = []
            start = threading.Thread.start
            threading.Thread.start = lambda thread: started.append(thread) or start(thread)
            argv = ["solve", "--input", {str(path)!r}, "--max-color-changes", "12"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert started
            assert "concurrent.futures" not in sys.modules
            """
        )


GOLDEN_TWO_COLOR_COUNT = 300
# Recorded before the distance pass stored decision bits instead of layers;
# any change to a value, a tie-break or a schedule changes it.
GOLDEN_TWO_COLOR_DIGEST = "d2944ddfec425a358d38482537cfac06e5938f45fd896e493f6034c2d1271c8e"


def golden_two_color_records(count, seed=20261019):
    """Two-color instances of 2-18 jobs, with a few of 24-60.  Temperatures
    come from a coarse range, so optima tie and equal temperatures of one
    color merge; a third of the instances have one color of one to three
    jobs."""
    rng = random.Random(seed)
    for index in range(count):
        n = rng.randint(24, 60) if index % 25 == 0 else rng.randint(2, 18)
        lone = rng.randint(1, min(3, n - 1))
        n0 = lone if index % 3 == 0 else rng.randint(1, n - 1)
        colors = [0] * n0 + [1] * (n - n0)
        if rng.random() < 0.5:
            colors = [1 - c for c in colors]
        top = rng.choice((3, 6, 12, 2 * n))
        yield [(f"j{i}", rng.randint(0, top) * 0.5, c) for i, c in enumerate(colors)]


def golden_two_color_results(instance):
    table, solve = pareto_front(instance)
    yield "table", table
    budgets = [k for k, value in table if value is not None]
    for label, results in (
        ("batch", solve(budgets)),
        ("single", [shortest_schedule(instance, k) for k in budgets]),
    ):
        yield label, [(r.total_change, r.changes, r.schedule.order) for r in results]
    graph = build_search_graph(instance, max_merged_color_changes(instance))
    yield "targets", graph.layer_target_distances()


@pytest.mark.parametrize(
    "plan,dtype",
    [(None, None), *((plan, None) for plan in FORCED_PLANS.values()), (None, np.int64)],
    ids=["natural", *FORCED_PLANS, "int64"],
)
def test_two_color_golden_digest(monkeypatch, plan, dtype):
    # The natural plan relaxes these narrow bands by minimum.accumulate;
    # the forced plans run each kernel on one thread, and the blocked
    # kernel with one chain on a second thread.  Every plan must give the
    # same bytes.
    if plan is not None:
        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus: plan)
    if dtype is not None:
        monkeypatch.setattr(solver, "grid_dtype", lambda changes, span: dtype)
    sha = hashlib.sha256()
    tied = 0
    for records in golden_two_color_records(GOLDEN_TWO_COLOR_COUNT):
        instance = build_instance(records)
        targets = []
        for result in golden_two_color_results(instance):
            sha.update(repr(result).encode() + b"\n")
            if result[0] == "targets":
                targets = [v for v in result[1] if v is not None]
        tied += len(targets) != len(set(targets))
    # Coarse temperatures must make many change counts tie.
    assert tied >= GOLDEN_TWO_COLOR_COUNT // 4, tied
    assert sha.hexdigest() == GOLDEN_TWO_COLOR_DIGEST
