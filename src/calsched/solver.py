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

The pass is dense numpy ``int64`` work, shaped three ways:

* shifted frame: each grid holds distance minus the last temperature of
  the open block, so a layer is one add of a fixed per-cell weight to the
  previous layer's grid of the other color and one in-place running
  minimum, and every reader adds the temperature back;
* on demand: layers are priced one at a time, and a capped solve or the
  trade-off table stops once the running best equals the temperature
  span, which no schedule can beat;
* band: a node on layer ``l`` has at least ``ceil((l+1)/2)`` jobs of its
  open color and ``floor((l+1)/2)`` of the other behind it, so only the
  cells past that corner are relaxed and stored, and every other node
  counts as unreachable (``INF``).

The magnitude bound that :class:`~calsched.core.Instance` enforces keeps
every real distance far below the ``INF`` sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    graph has ``max_changes - 1`` grid layers plus entry and exit gadgets,
    priced as far as the queries so far have needed.
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

    def _distances(self) -> dict:
        """Per-graph constants and the distances priced so far.

        Grid distances are stored in the shifted frame: a color-0 grid holds
        distance minus ``t0[i]``, a color-1 grid distance minus ``t1[j]``
        (the last temperature of the open block).  Extending the open block
        then costs nothing, so a layer is the previous layer's grid of the
        other color plus a fixed weight per cell, followed by one running
        minimum along the open block's color.  The weight of a color change
        is the junction cost minus the temperature difference between the
        old and new block ends: ``2 * max(t1[j] - t0[i], 0)`` into a
        color-0 block, ``2 * max(t0[i] - t1[j], 0)`` into a color-1 block.

        Layer ``l`` stores only its band (see :func:`_band`).  ``tau[k]``
        is the optimum with exactly ``k`` changes for every ``k`` priced so
        far (index 0 unused), and ``best[k]`` the best ``(value, changes)``
        with at most ``k`` changes; the number of layers priced is
        ``len(tau) - 2``.
        """
        if self._dp:
            return self._dp
        t0 = np.array([j.temperature for j in self.jobs0], dtype=np.int64)
        t1 = np.array([j.temperature for j in self.jobs1], dtype=np.int64)
        entry0 = t0 - t0[0]
        entry1 = t1 - t1[0]
        gap = t1[None, :] - t0[:, None]
        borders = (
            min(abs(int(a) - int(b)) for a in (t0[0], t0[-1]) for b in (t1[0], t1[-1]))
        )
        tau1 = min(
            int(entry0[-1]) + borders + int(t1[-1] - t1[0]),
            int(entry1[-1]) + borders + int(t0[-1] - t0[0]),
        )
        self._dp.update(
            t0=t0,
            t1=t1,
            entry0=entry0,
            entry1=entry1,
            into0=2 * np.maximum(gap, 0),
            into1=2 * np.maximum(-gap, 0),
            # Entry a (b): what a final block of color 0's jobs a+1.. (color
            # 1's jobs b+1..) adds to the shifted distance of the grid cell
            # at the other color's last job.
            exit0=t1[-1] + np.minimum(np.abs(t0[1:] - t1[-1]), abs(int(t0[-1] - t1[-1])))
            + (t0[-1] - t0[1:]),
            exit1=t0[-1] + np.minimum(np.abs(t1[1:] - t0[-1]), abs(int(t1[-1] - t0[-1])))
            + (t1[-1] - t1[1:]),
            span=temperature_span(self.instance.jobs),
            grids0=[],  # index l-1 holds layer l's band
            grids1=[],
            tau=[INF, tau1],
            best=[(INF, 0), (tau1, 1)],
        )
        return self._dp

    def _price_layer(self) -> None:
        """Relax the next grid layer and price the change count its exits reach."""
        dp = self._dp
        grids0, grids1 = dp["grids0"], dp["grids1"]
        layer = len(grids0) + 1
        t0, t1 = dp["t0"], dp["t1"]
        if layer == 1:
            # One entry block per color; every cell of a row (column) shares it.
            row = dp["entry1"] + np.minimum(np.abs(t0[0] - t1), abs(int(t0[0] - t1[0]))) - t0[0]
            col = dp["entry0"] + np.minimum(np.abs(t1[0] - t0), abs(int(t1[0] - t0[0]))) - t1[0]
            h0 = np.broadcast_to(row[None, :], (self.n0, self.n1))
            h1 = np.broadcast_to(col[:, None], (self.n0, self.n1))
        else:
            i0, j0 = _band(layer, 0)
            i1, j1 = _band(layer, 1)
            h0 = np.add(grids1[-1][:-1, :], dp["into0"][i0:, j0:])
            np.minimum.accumulate(h0, axis=0, out=h0)
            h1 = np.add(grids0[-1][:, :-1], dp["into1"][i1:, j1:])
            np.minimum.accumulate(h1, axis=1, out=h1)
        grids0.append(h0)
        grids1.append(h1)
        exits0, exits1 = self._exits(layer)
        value = int(min(exits0.min(initial=INF), exits1.min(initial=INF)))
        dp["tau"].append(value)
        best = dp["best"]
        best.append((value, layer + 1) if value < best[-1][0] else best[-1])

    def _exits(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Distance through each final block after ``layer``'s grids.

        Entry ``a`` of the first array ends with color 0's jobs ``a+1 ..``
        after color 1's last job, entry ``b`` of the second with color 1's
        jobs ``b+1 ..``; entries whose grid cell lies outside the band are
        ``INF``.
        """
        dp = self._dp
        h0, h1 = dp["grids0"][layer - 1], dp["grids1"][layer - 1]
        exits0 = np.full(self.n0 - 1, INF, dtype=np.int64)
        lo = _band(layer, 1)[0]
        exits0[lo:] = h1[: self.n0 - 1 - lo, -1] + dp["exit0"][lo:]
        exits1 = np.full(self.n1 - 1, INF, dtype=np.int64)
        lo = _band(layer, 0)[1]
        exits1[lo:] = h0[-1, : self.n1 - 1 - lo] + dp["exit1"][lo:]
        return exits0, exits1

    def _price_through(self, changes: int) -> dict:
        """Price every layer up to the one whose exits reach ``changes``."""
        dp = self._distances()
        while len(dp["tau"]) <= changes:
            self._price_layer()
        return dp

    def _line(self, layer: int, color: int, along: int, k: int) -> tuple[int, np.ndarray]:
        """Shifted distances on ``layer``'s ``color`` grid as the job of
        color ``along`` varies and the other color stays at job ``k``, and
        the job index of the first entry.

        Jobs before that index lie outside the band; ``k`` must lie
        inside it.
        """
        lo_i, lo_j = _band(layer, color)
        grid = self._dp["grids0" if color == 0 else "grids1"][layer - 1]
        if along == 0:
            return lo_i, grid[:, k - lo_j]
        return lo_j, grid[k - lo_i, :]

    def layer_target_distances(self, max_changes: int | None = None) -> list[int | None]:
        """Optimal total change for exactly k changes, k = 1..``max_changes``
        (default and upper limit: the graph's budget).

        Entry k of the returned list (index k-1) is ``None`` when no
        canonical schedule uses exactly k changes.  Prices every layer the
        range needs.
        """
        cap = self.max_changes if max_changes is None else min(max_changes, self.max_changes)
        tau = self._price_through(cap)["tau"]
        return [None if tau[k] >= INF else tau[k] for k in range(1, cap + 1)]

    def best_under_cap(self, cap: int) -> tuple[int, int]:
        """Minimum total change with at most ``cap`` changes, and the
        smallest change count attaining it.

        Layers are priced on demand and only until the running best
        reaches the temperature span, a lower bound for every schedule.
        """
        cap = min(cap, self.max_changes)
        dp = self._distances()
        best = dp["best"]
        while len(best) <= cap and best[-1][0] > dp["span"]:
            self._price_layer()
        value, changes = best[min(cap, len(best) - 1)]
        if value >= INF:
            raise AssertionError("no feasible target reached")
        return value, changes

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
        dp = self._price_through(changes)
        target = dp["tau"][changes]
        if target >= INF:
            raise AssertionError(f"target for {changes} changes unreachable")
        if changes == 1:
            return self._reconstruct_two_blocks(target)
        t0, t1 = dp["t0"], dp["t1"]
        n0, n1 = self.n0, self.n1
        layer = changes - 1
        runs_rev: list[tuple[int, int, int]] = []  # (color, lo, hi) 0-based
        cursor: tuple[int, int, int, int] | None = None
        exits0, exits1 = self._exits(layer)
        for a in range(n0 - 1):
            if int(exits0[a]) == target:
                runs_rev.append((0, a + 1, n0 - 1))
                cursor = (layer, 1, a, n1 - 1)
                break
        if cursor is None:
            for b in range(n1 - 1):
                if int(exits1[b]) == target:
                    runs_rev.append((1, b + 1, n1 - 1))
                    cursor = (layer, 0, n0 - 1, b)
                    break
        if cursor is None:
            raise AssertionError("no exit matches the target distance")

        # Shifted distances: a move within the open block keeps the value,
        # a color change adds the ``into`` weight of the new block's cell.
        entry0, entry1 = dp["entry0"], dp["entry1"]
        into0, into1 = dp["into0"], dp["into1"]
        first_run: tuple[int, int, int] | None = None
        while first_run is None:
            layer, color, a, b = cursor
            if color == 0:
                run_hi = a
                lo, line = self._line(layer, 0, 0, b)
                d = int(line[a - lo])
                if layer >= 2:
                    lo_prev, prev = self._line(layer - 1, 1, 0, b)
                while True:
                    if layer == 1 and a == 0:
                        w = min(abs(int(t0[0] - t1[b])), abs(int(t0[0] - t1[0])))
                        if int(entry1[b]) + w == d + int(t0[0]):
                            runs_rev.append((0, 0, run_hi))
                            first_run = (1, 0, b)
                            break
                    if layer >= 2 and a - 1 >= lo_prev:
                        if int(prev[a - 1 - lo_prev]) + int(into0[a, b]) == d:
                            runs_rev.append((0, a, run_hi))
                            cursor = (layer - 1, 1, a - 1, b)
                            break
                    if a - 1 >= lo and int(line[a - 1 - lo]) == d:
                        a -= 1
                        continue
                    raise AssertionError("backtrack mismatch on color-0 grid")
            else:
                run_hi = b
                lo, line = self._line(layer, 1, 1, a)
                d = int(line[b - lo])
                if layer >= 2:
                    lo_prev, prev = self._line(layer - 1, 0, 1, a)
                while True:
                    if layer == 1 and b == 0:
                        w = min(abs(int(t1[0] - t0[a])), abs(int(t1[0] - t0[0])))
                        if int(entry0[a]) + w == d + int(t1[0]):
                            runs_rev.append((1, 0, run_hi))
                            first_run = (0, 0, a)
                            break
                    if layer >= 2 and b - 1 >= lo_prev:
                        if int(prev[b - 1 - lo_prev]) + int(into1[a, b]) == d:
                            runs_rev.append((1, b, run_hi))
                            cursor = (layer - 1, 0, a, b - 1)
                            break
                    if b - 1 >= lo and int(line[b - 1 - lo]) == d:
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


def _band(layer: int, color: int) -> tuple[int, int]:
    """Smallest ``(i, j)`` of a reachable node on ``layer``'s ``color`` grid.

    Such a node closes ``layer + 1`` alternating blocks ending in
    ``color``, so that color has used at least ``ceil((layer + 1) / 2)``
    jobs and the other at least ``floor((layer + 1) / 2)``; no other node
    of the grid has a finite distance, and only the band from this corner
    is relaxed and stored.
    """
    own, other = (layer + 2) // 2 - 1, (layer + 1) // 2 - 1
    return (own, other) if color == 0 else (other, own)


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
    # No change count past the first that attains the overall optimum can
    # lower the running best, so the table needs exact values only up to it.
    _, changes = graph.best_under_cap(graph.max_changes)
    return pareto_table(instance, [None, *graph.layer_target_distances(changes)]), graph.solve


def pareto_sweep(instance: Instance) -> list[tuple[int, int | None]]:
    """Optimal total change for every color-change budget, in one pass.

    Returns (budget, value) pairs for budgets 0 through the combinatorial
    maximum; unattainable budgets carry ``None``.  Values are
    non-increasing and end at the global temperature span.
    """
    return pareto_front(instance)[0]
