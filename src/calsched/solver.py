"""Exact two-color solver via shortest paths in a layered grid graph.

Canonical-form schedules consume each color's temperature-sorted job list
as a sequence of consecutive runs taken in order, alternating colors.
The search graph encodes exactly those schedules:

* an entry chain per color prices the first block (a prefix of one
  color's sorted list, runnable in either direction);
* each layer holds one grid per color; a node ``(layer, color, i, j)``
  means "i jobs of color 0 and j jobs of color 1 are scheduled, the open
  block has ``color`` and ends at that color's i-th (or j-th) job, and
  ``layer`` color changes have happened";
* exit chains per layer price the final block (the suffix of one color,
  runnable in either direction);
* the target for ``k`` color changes collects the exit of layer ``k-1``;
  the target for one change (two blocks) joins the two entry chains.

All weights are nonnegative scaled-integer temperature gaps, the graph is
acyclic, and one pass of relaxations in layer order yields the distances
of every per-change-count target.  Every two-color answer is read from
that one pass: :meth:`SearchGraph.solve` reconstructs the best schedule
under any budget up to the graph's, and :func:`pareto_front` returns the
whole trade-off table together with that per-budget solve, so a sweep
with plots builds one graph and reconstructs once per distinct optimum.
The dense per-layer arrays are numpy ``int64``; the magnitude bound that
:class:`~calsched.core.Instance` enforces keeps every real distance far
below the ``INF`` sentinel.  Node and arc enumeration is also provided so
small graphs can be audited against a reference shortest-path search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .core import (
    INF,
    Instance,
    Job,
    Schedule,
    ValidationError,
    color_changes,
    max_merged_color_changes,
    pareto_table,
    temperature_span,
    total_temperature_change,
)

Node = tuple
Arc = tuple[Node, Node, int]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a capped solve; every other field is ``None`` when not
    ``feasible``."""

    schedule: Schedule | None
    total_change: int | None
    changes: int | None
    feasible: bool


@dataclass(frozen=True, eq=False)
class SearchGraph:
    """Layered search graph for a two-color instance.

    ``max_changes`` is the clamped color-change budget (at least 1); the
    graph has ``max_changes - 1`` grid layers plus entry and exit gadgets.
    """

    instance: Instance
    max_changes: int
    _dp: dict = field(init=False, repr=False, default_factory=dict)
    _solved: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def jobs0(self) -> tuple[Job, ...]:
        return self.instance.sorted_jobs(self.instance.colors[0])

    @property
    def jobs1(self) -> tuple[Job, ...]:
        return self.instance.sorted_jobs(self.instance.colors[1])

    @property
    def n0(self) -> int:
        return len(self.jobs0)

    @property
    def n1(self) -> int:
        return len(self.jobs1)

    # -- dense distance computation ------------------------------------

    def _temps(self) -> tuple[np.ndarray, np.ndarray]:
        t0 = np.array([j.temperature for j in self.jobs0], dtype=np.int64)
        t1 = np.array([j.temperature for j in self.jobs1], dtype=np.int64)
        return t0, t1

    def _distances(self) -> dict:
        """Run the layered relaxation once and cache every distance array."""
        if self._dp:
            return self._dp
        t0, t1 = self._temps()
        n0, n1, cap = self.n0, self.n1, self.max_changes
        entry0 = t0 - t0[0]
        entry1 = t1 - t1[0]
        cross = np.abs(t0[:, None] - t1[None, :])

        def sweep_rows(grid: np.ndarray) -> np.ndarray:
            shifted = grid - t0[:, None]
            np.minimum.accumulate(shifted, axis=0, out=shifted)
            return shifted + t0[:, None]

        def sweep_cols(grid: np.ndarray) -> np.ndarray:
            shifted = grid - t1[None, :]
            np.minimum.accumulate(shifted, axis=1, out=shifted)
            return shifted + t1[None, :]

        grids0: list[np.ndarray] = []  # index l-1 holds layer l
        grids1: list[np.ndarray] = []
        for layer in range(1, cap):
            g0 = np.full((n0, n1), INF, dtype=np.int64)
            g1 = np.full((n0, n1), INF, dtype=np.int64)
            if layer == 1:
                g1[:, 0] = entry0 + np.minimum(
                    np.abs(t1[0] - t0), np.abs(t1[0] - t0[0])
                )
                g0[0, :] = entry1 + np.minimum(
                    np.abs(t0[0] - t1), np.abs(t0[0] - t1[0])
                )
            else:
                g0[1:, :] = grids1[-1][:-1, :] + cross[1:, :]
                g1[:, 1:] = grids0[-1][:, :-1] + cross[:, 1:]
            grids0.append(sweep_rows(g0))
            grids1.append(sweep_cols(g1))

        # Per-change-count target distances; index k, valid for k >= 1.
        tau = np.full(cap + 1, INF, dtype=np.int64)
        borders = (
            min(abs(int(a) - int(b)) for a in (t0[0], t0[-1]) for b in (t1[0], t1[-1]))
        )
        tau[1] = min(
            int(entry0[-1]) + borders + int(t1[-1] - t1[0]),
            int(entry1[-1]) + borders + int(t0[-1] - t0[0]),
        )
        exits0: list[np.ndarray | None] = []  # final color-0 block per layer
        exits1: list[np.ndarray | None] = []
        for layer in range(1, cap):
            best = INF
            cand0 = cand1 = None
            if n0 >= 2:
                cand0 = (
                    grids1[layer - 1][: n0 - 1, n1 - 1]
                    + np.minimum(np.abs(t0[1:] - t1[-1]), abs(int(t0[-1] - t1[-1])))
                    + (t0[-1] - t0[1:])
                )
                best = min(best, int(cand0.min()))
            if n1 >= 2:
                cand1 = (
                    grids0[layer - 1][n0 - 1, : n1 - 1]
                    + np.minimum(np.abs(t1[1:] - t0[-1]), abs(int(t1[-1] - t0[-1])))
                    + (t1[-1] - t1[1:])
                )
                best = min(best, int(cand1.min()))
            exits0.append(cand0)
            exits1.append(cand1)
            tau[layer + 1] = best

        self._dp.update(
            t0=t0,
            t1=t1,
            entry0=entry0,
            entry1=entry1,
            cross=cross,
            grids0=grids0,
            grids1=grids1,
            exits0=exits0,
            exits1=exits1,
            tau=tau,
        )
        return self._dp

    def layer_target_distances(self) -> list[int | None]:
        """Optimal total change for exactly k changes, k = 1..max_changes.

        Entry k of the returned list (index k-1) is ``None`` when no
        canonical schedule uses exactly k changes.
        """
        tau = self._distances()["tau"]
        return [None if tau[k] >= INF else int(tau[k]) for k in range(1, self.max_changes + 1)]

    def best_under_cap(self, cap: int) -> tuple[int, int]:
        """Minimum total change with at most ``cap`` changes, and the
        smallest change count attaining it."""
        cap = min(cap, self.max_changes)
        tau = self._distances()["tau"]
        best = INF
        best_k = 0
        for k in range(1, cap + 1):
            if tau[k] < best:
                best = int(tau[k])
                best_k = k
        if best >= INF:
            raise AssertionError("no feasible target reached")
        return best, best_k

    def solve(self, budget: int) -> SolveResult:
        """Best schedule with at most ``budget`` changes (at least 1).

        Budgets whose optimum uses the same change count share one
        reconstruction.  The schedule's metrics are recomputed from its
        job sequence, so the reported value always equals the realized one.
        """
        value, changes = self.best_under_cap(budget)
        if changes not in self._solved:
            jobs = self.reconstruct(changes)
            realized = total_temperature_change(jobs)
            if realized != value or color_changes(jobs) != changes:
                raise AssertionError(
                    f"reconstruction mismatch: path {value}/{changes}, "
                    f"schedule {realized}/{color_changes(jobs)}"
                )
            schedule = Schedule.from_jobs(self.instance, jobs)
            self._solved[changes] = SolveResult(schedule, value, changes, True)
        return self._solved[changes]

    # -- schedule reconstruction ----------------------------------------

    def reconstruct(self, changes: int) -> list[Job]:
        """Rebuild a schedule realizing ``tau[changes]`` from the arrays.

        Equal-cost predecessors are resolved toward the smallest
        (layer, color, i, j) node, and block orientations break ties
        toward increasing order, so outputs are deterministic.
        """
        dp = self._distances()
        tau = dp["tau"]
        target = int(tau[changes])
        if target >= INF:
            raise AssertionError(f"target for {changes} changes unreachable")
        if changes == 1:
            return self._reconstruct_two_blocks(target)
        t0, t1 = dp["t0"], dp["t1"]
        n0, n1 = self.n0, self.n1
        layer = changes - 1
        runs_rev: list[tuple[int, int, int]] = []  # (color, lo, hi) 0-based
        cursor: tuple[int, int, int, int] | None = None
        exits0 = dp["exits0"][layer - 1]
        exits1 = dp["exits1"][layer - 1]
        if exits0 is not None:
            for a in range(n0 - 1):
                if int(exits0[a]) == target:
                    runs_rev.append((0, a + 1, n0 - 1))
                    cursor = (layer, 1, a, n1 - 1)
                    break
        if cursor is None and exits1 is not None:
            for b in range(n1 - 1):
                if int(exits1[b]) == target:
                    runs_rev.append((1, b + 1, n1 - 1))
                    cursor = (layer, 0, n0 - 1, b)
                    break
        if cursor is None:
            raise AssertionError("no exit matches the target distance")

        grids0, grids1 = dp["grids0"], dp["grids1"]
        entry0, entry1, cross = dp["entry0"], dp["entry1"], dp["cross"]
        first_run: tuple[int, int, int] | None = None
        while first_run is None:
            layer, color, a, b = cursor
            if color == 0:
                run_hi = a
                while True:
                    d = int(grids0[layer - 1][a, b])
                    if layer == 1 and a == 0:
                        w = min(abs(int(t0[0] - t1[b])), abs(int(t0[0] - t1[0])))
                        if int(entry1[b]) + w == d:
                            runs_rev.append((0, 0, run_hi))
                            first_run = (1, 0, b)
                            break
                    if layer >= 2 and a >= 1:
                        if int(grids1[layer - 2][a - 1, b]) + int(cross[a, b]) == d:
                            runs_rev.append((0, a, run_hi))
                            cursor = (layer - 1, 1, a - 1, b)
                            break
                    if a >= 1 and int(grids0[layer - 1][a - 1, b]) + int(t0[a] - t0[a - 1]) == d:
                        a -= 1
                        continue
                    raise AssertionError("backtrack mismatch on color-0 grid")
            else:
                run_hi = b
                while True:
                    d = int(grids1[layer - 1][a, b])
                    if layer == 1 and b == 0:
                        w = min(abs(int(t1[0] - t0[a])), abs(int(t1[0] - t0[0])))
                        if int(entry0[a]) + w == d:
                            runs_rev.append((1, 0, run_hi))
                            first_run = (0, 0, a)
                            break
                    if layer >= 2 and b >= 1:
                        if int(grids0[layer - 2][a, b - 1]) + int(cross[a, b]) == d:
                            runs_rev.append((1, b, run_hi))
                            cursor = (layer - 1, 0, a, b - 1)
                            break
                    if b >= 1 and int(grids1[layer - 1][a, b - 1]) + int(t1[b] - t1[b - 1]) == d:
                        b -= 1
                        continue
                    raise AssertionError("backtrack mismatch on color-1 grid")

        runs = [first_run] + runs_rev[::-1]
        return self._materialize(runs)

    def _jobs_of(self, color: int) -> tuple[Job, ...]:
        return self.jobs0 if color == 0 else self.jobs1

    def _materialize(self, runs: list[tuple[int, int, int]]) -> list[Job]:
        """Lay out the block runs; border blocks take the cheaper direction."""
        temps = {0: [j.temperature for j in self.jobs0], 1: [j.temperature for j in self.jobs1]}
        blocks: list[list[Job]] = []
        for color, lo, hi in runs:
            blocks.append(list(self._jobs_of(color)[lo : hi + 1]))
        # Inner blocks always run upward; the first and last block face a
        # single neighbor and flip when that lowers the junction cost.
        first_color, first_lo, first_hi = runs[0]
        next_color, next_lo, _ = runs[1]
        anchor = temps[next_color][next_lo]
        t_first = temps[first_color]
        if abs(anchor - t_first[first_hi]) > abs(anchor - t_first[first_lo]):
            blocks[0].reverse()
        last_color, last_lo, last_hi = runs[-1]
        prev_color, _, prev_hi = runs[-2]
        anchor = temps[prev_color][prev_hi]
        t_last = temps[last_color]
        if abs(t_last[last_lo] - anchor) > abs(t_last[last_hi] - anchor):
            blocks[-1].reverse()
        out: list[Job] = []
        for block in blocks:
            out.extend(block)
        return out

    def _reconstruct_two_blocks(self, target: int) -> list[Job]:
        for first, second in ((self.jobs0, self.jobs1), (self.jobs1, self.jobs0)):
            for first_rev in (False, True):
                for second_rev in (False, True):
                    seq = list(first[::-1] if first_rev else first)
                    seq += list(second[::-1] if second_rev else second)
                    if total_temperature_change(seq) == target:
                        return seq
        raise AssertionError("no two-block layout matches the target distance")

    # -- explicit graph view ---------------------------------------------

    @property
    def node_count(self) -> int:
        n0, n1, cap = self.n0, self.n1, self.max_changes
        return (
            2
            + (n0 + n1)
            + (cap - 1) * 2 * n0 * n1
            + cap * (n0 + n1)
            + cap
        )

    @property
    def arc_count(self) -> int:
        n0, n1, cap = self.n0, self.n1, self.max_changes
        within = (n0 - 1) * n1 + n0 * (n1 - 1)
        return (
            2
            + (n0 - 1)
            + (n1 - 1)
            + (n0 + n1 if cap > 1 else 0)
            + 2
            + (cap - 1) * within
            + max(cap - 2, 0) * within
            + (cap - 1) * ((n0 - 1) + (n1 - 1))
            + cap * ((n0 - 1) + (n1 - 1))
            + 2 * cap
            + cap
        )

    def iter_nodes(self) -> Iterator[Node]:
        n = {0: self.n0, 1: self.n1}
        yield ("source",)
        for color in (0, 1):
            for i in range(1, n[color] + 1):
                yield ("entry", color, i)
        for layer in range(1, self.max_changes):
            for color in (0, 1):
                for i in range(1, self.n0 + 1):
                    for j in range(1, self.n1 + 1):
                        yield ("grid", layer, color, i, j)
        for layer in range(self.max_changes):
            for color in (0, 1):
                for i in range(1, n[color] + 1):
                    yield ("exit", layer, color, i)
        for k in range(1, self.max_changes + 1):
            yield ("ltarget", k)
        yield ("target",)

    def iter_arcs(self) -> Iterator[Arc]:
        """Enumerate every arc with its weight (1-based job indices)."""
        t = {
            0: [j.temperature for j in self.jobs0],
            1: [j.temperature for j in self.jobs1],
        }
        n = {0: self.n0, 1: self.n1}
        cap = self.max_changes
        for color in (0, 1):
            yield ("source",), ("entry", color, 1), 0
            for i in range(1, n[color]):
                gap = t[color][i] - t[color][i - 1]
                yield ("entry", color, i), ("entry", color, i + 1), gap
        if cap > 1:  # entry chains feed the first grid layer
            for i in range(1, n[0] + 1):
                w = min(abs(t[1][0] - t[0][i - 1]), abs(t[1][0] - t[0][0]))
                yield ("entry", 0, i), ("grid", 1, 1, i, 1), w
            for j in range(1, n[1] + 1):
                w = min(abs(t[0][0] - t[1][j - 1]), abs(t[0][0] - t[1][0]))
                yield ("entry", 1, j), ("grid", 1, 0, 1, j), w
        borders = min(
            abs(a - b) for a in (t[0][0], t[0][-1]) for b in (t[1][0], t[1][-1])
        )
        yield ("entry", 0, n[0]), ("exit", 0, 1, 1), borders
        yield ("entry", 1, n[1]), ("exit", 0, 0, 1), borders
        for layer in range(1, cap):
            for i in range(1, n[0] + 1):
                for j in range(1, n[1] + 1):
                    if i < n[0]:
                        gap = t[0][i] - t[0][i - 1]
                        yield ("grid", layer, 0, i, j), ("grid", layer, 0, i + 1, j), gap
                    if j < n[1]:
                        gap = t[1][j] - t[1][j - 1]
                        yield ("grid", layer, 1, i, j), ("grid", layer, 1, i, j + 1), gap
                    if layer < cap - 1:
                        if j < n[1]:
                            w = abs(t[1][j] - t[0][i - 1])
                            yield ("grid", layer, 0, i, j), ("grid", layer + 1, 1, i, j + 1), w
                        if i < n[0]:
                            w = abs(t[0][i] - t[1][j - 1])
                            yield ("grid", layer, 1, i, j), ("grid", layer + 1, 0, i + 1, j), w
            for j in range(1, n[1]):
                w = min(abs(t[1][j] - t[0][-1]), abs(t[1][-1] - t[0][-1]))
                yield ("grid", layer, 0, n[0], j), ("exit", layer, 1, j + 1), w
            for i in range(1, n[0]):
                w = min(abs(t[0][i] - t[1][-1]), abs(t[0][-1] - t[1][-1]))
                yield ("grid", layer, 1, i, n[1]), ("exit", layer, 0, i + 1), w
        for layer in range(cap):
            for color in (0, 1):
                for i in range(1, n[color]):
                    gap = t[color][i] - t[color][i - 1]
                    yield ("exit", layer, color, i), ("exit", layer, color, i + 1), gap
                yield ("exit", layer, color, n[color]), ("ltarget", layer + 1), 0
        for k in range(1, cap + 1):
            yield ("ltarget", k), ("target",), 0


def build_search_graph(instance: Instance, max_color_changes: int) -> SearchGraph:
    """Construct the layered graph for a two-color instance.

    The budget must be at least 1; it is clamped to the achievable
    maximum before layers are laid out.
    """
    if len(instance.colors) != 2:
        raise ValidationError("search graph requires exactly two colors")
    if max_color_changes < 1:
        raise ValidationError("search graph requires a budget of at least 1")
    cap = min(max_color_changes, max_merged_color_changes(instance))
    return SearchGraph(instance=instance, max_changes=cap)


def _check_colors(instance: Instance) -> None:
    if len(instance.colors) > 2:
        raise ValidationError(
            "the exact solver handles two colors; use the exhaustive oracle "
            "for small instances with more colors"
        )


def shortest_schedule(instance: Instance, max_color_changes: int) -> SolveResult:
    """Minimize total temperature change under a color-change budget.

    The returned schedule is in canonical form and its metrics are
    recomputed from the job sequence, so the reported value always equals
    the realized one.
    """
    _check_colors(instance)
    colors = instance.colors
    if max_color_changes < len(colors) - 1:
        return SolveResult(None, None, None, False)
    if len(colors) == 1:
        jobs = instance.sorted_jobs(colors[0])
        schedule = Schedule.from_jobs(instance, jobs)
        return SolveResult(schedule, total_temperature_change(jobs), 0, True)
    return build_search_graph(instance, max_color_changes).solve(max_color_changes)


def pareto_front(
    instance: Instance,
) -> tuple[list[tuple[int, int | None]], Callable[[int], SolveResult]]:
    """The :func:`pareto_sweep` table and a solve for any budget in it.

    Both read the same single distance pass; the solve takes budgets of
    at least the first feasible one.
    """
    _check_colors(instance)
    if len(instance.colors) == 1:
        table = pareto_table(instance, [temperature_span(instance.jobs)])
        return table, partial(shortest_schedule, instance)
    graph = build_search_graph(instance, max_merged_color_changes(instance))
    return pareto_table(instance, [None, *graph.layer_target_distances()]), graph.solve


def pareto_sweep(instance: Instance) -> list[tuple[int, int | None]]:
    """Optimal total change for every color-change budget, in one pass.

    Returns (budget, value) pairs for budgets 0 through the combinatorial
    maximum; unattainable budgets carry ``None``.  Values are
    non-increasing and end at the global temperature span.
    """
    return pareto_front(instance)[0]
