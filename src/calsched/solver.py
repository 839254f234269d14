"""Exact two-color solver via shortest paths in a layered grid graph.

Canonical-form schedules consume each color's temperature-sorted job list
as a sequence of consecutive runs taken in order, alternating colors.
The search graph encodes exactly those schedules.  The two colors play
the same part in it, so every rule below is stated once for a color ``c``,
with ``o = 1 - c`` the other:

* an entry chain prices a first block of color ``c``: a prefix of c's
  sorted list, runnable in either direction;
* each layer holds one grid per color; a node ``(layer, c, i, j)`` means
  "i jobs of color 0 and j jobs of color 1 are scheduled, the open block
  has color ``c`` and ends at c's last scheduled job, and ``layer`` color
  changes have happened".  A color-c grid reads only the color-o grid of
  the layer below;
* an exit chain per layer prices a final block of color ``c``: a suffix of
  c's sorted list, runnable in either direction;
* the target for ``k`` color changes collects the exits of layer ``k-1``;
  the target for one change (two blocks) joins the two entry chains.

Every grid and per-cell weight array of color ``c`` is stored in c's own
order, ``(n_c, n_o)`` in C order: one row per job of ``c``, one column per
job of the other color.  So code written once for ``c`` indexes every
array the same way, and both colors take their running minimum down the
rows.  Relaxing a grid transposes once, because the grid it reads is
stored in the other color's order (see :meth:`SearchGraph._relax`).

All weights are nonnegative scaled-integer temperature gaps, the graph is
acyclic, and one pass of relaxations in layer order yields the distances
of every per-change-count target.  Every two-color answer is read from
that one pass: :meth:`SearchGraph.solve_many` reconstructs the best
schedules under any budgets up to the graph's, and :func:`pareto_front`
returns the whole trade-off table together with that batch solve, so a
sweep with plots builds one graph and rebuilds every distinct optimum in
one reconstruction pass.

The pass is dense numpy work, shaped six ways:

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
  counts as unreachable (``INF``);
* rolling with checkpoints: of ``K`` grid layers only layer 1 and every
  ``ceil(sqrt(K))``-th one are kept; the others are relaxed into two
  reused buffer pairs.  Reconstruction walks every requested optimum down
  the layers in lock-step and relaxes each segment between two kept
  layers again at most once per call, only up to the farthest cell a
  walk stands on, so about ``2 * sqrt(K)`` layers are stored at once
  instead of ``K``;
* narrow: temperatures are shifted so the lowest is 0, which changes no
  weight or target, and then every band value on layer ``l`` lies in
  ``[-span, (l + 2) * span]``.  :func:`grid_dtype` turns that bound into
  the one dtype of every band grid, buffer and recomputed layer: ``int32``
  when ``(max_changes + 4) * span <= 2**30``, else ``int64``.  Exits and
  targets are always ``int64``;
* blocked and threaded: ``minimum.accumulate`` down the rows runs a
  strided scalar loop per column, and numpy holds the GIL in it unless a
  column has more than 500 cells.  :func:`_blocked_minimum` gives the
  same running minimum from about ``2 * sqrt(rows)`` calls over whole
  rows, which release the GIL.  A color-c grid reads only the color-o
  grid of the layer below, so the grids form two chains by the parity of
  layer + color.  With a wide band and two usable CPUs, the forward pass
  runs one chain on a second thread, one checkpoint segment at a time,
  and merges the targets and tests for the span after each segment.
  :func:`pass_plan` makes both choices from the band width and the usable
  CPU count.  Reconstruction runs on one thread.

The magnitude bound that :class:`~calsched.core.Instance` enforces keeps
every real distance far below the ``INF`` sentinel, and no ``INF`` ever
enters a band grid.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Sequence

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

_PAIRS = ((0, 1), (1, 0))  # (c, o): each color, then the other one


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a capped solve; every other field is ``None`` when not
    ``feasible``."""

    schedule: Schedule | None
    total_change: int | None
    changes: int | None
    feasible: bool


@dataclass
class _Walk:
    """One schedule's reconstruction, block by block down the layers."""

    layer: int  # the cursor's layer; a walk starts on its top layer
    target: int
    runs_rev: list[tuple[int, int, int]] = field(default_factory=list)  # (color, lo, hi)
    # (c, x, y) on ``layer``: the open block has color c and ends at c's job
    # x, and the other color's last job so far is y.
    cursor: tuple[int, int, int] | None = None
    first_run: tuple[int, int, int] | None = None  # set once the walk is done


@dataclass(frozen=True, eq=False)
class SearchGraph:
    """Layered search graph for a two-color instance.

    ``max_changes`` is the clamped color-change budget (at least 1); the
    graph has ``max_changes - 1`` grid layers plus entry and exit gadgets,
    priced as far as the queries so far have needed.
    """

    instance: Instance
    max_changes: int
    _jobs: tuple = field(init=False, repr=False)  # each color's sorted jobs
    _n: tuple = field(init=False, repr=False)  # (n0, n1)
    _dp: dict = field(init=False, repr=False, default_factory=dict)
    _solved: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        jobs = tuple(self.instance.sorted_jobs(color) for color in self.instance.colors)
        object.__setattr__(self, "_jobs", jobs)
        object.__setattr__(self, "_n", tuple(len(js) for js in jobs))

    @property
    def jobs0(self) -> tuple[Job, ...]:
        return self._jobs[0]

    @property
    def jobs1(self) -> tuple[Job, ...]:
        return self._jobs[1]

    @property
    def n0(self) -> int:
        return self._n[0]

    @property
    def n1(self) -> int:
        return self._n[1]

    # -- dense distance computation ------------------------------------

    def _distances(self) -> dict:
        """Per-graph constants and the state of the distance pass.

        Below, ``c`` is either color, ``o = 1 - c`` the other, and ``t[c]``
        color c's sorted temperatures.  A color-c grid holds, at the node
        whose open block ends at c's job ``x``, the distance minus ``t[c][x]``
        (the shifted frame).  Extending the open block then costs nothing,
        so a layer's color-c grid is the previous layer's color-o grid plus
        a fixed weight per cell, followed by one running minimum along c's
        axis.  That weight, ``into[c][x, y]``, is the junction cost from o's
        job ``y`` to c's job ``x`` minus the temperature difference between
        the old and new block ends: ``2 * max(t[o][y] - t[c][x], 0)``.
        ``exit[c][a]`` is what a final block of c's jobs ``a+1 ..`` adds to
        the shifted distance of the color-o cell at o's last job, and
        ``entry[c][y]`` is the span of a first block of c's jobs ``0 .. y``.

        Layer ``l`` stores only its band (see :func:`_band`).  ``kept``
        maps layer 1 and every ``stride``-th layer to its pair of grids;
        ``last`` is the pair of the newest layer priced.  ``tau[k]`` is the
        optimum with exactly ``k`` changes for every ``k`` priced so far
        (index 0 unused), and ``best[k]`` the best ``(value, changes)``
        with at most ``k`` changes; the number of layers priced is
        ``len(tau) - 2``.  ``cpus`` is the number of CPUs this process may
        run on, read once for :func:`pass_plan`.
        """
        if self._dp:
            return self._dp
        jobs = self._jobs
        # Weights and targets depend only on temperature differences, so
        # this shift is exact; it bounds the band values for grid_dtype.
        low = min(js[0].temperature for js in jobs)
        t = tuple(np.array([j.temperature - low for j in js], dtype=np.int64) for js in jobs)
        span = temperature_span(self.instance.jobs)
        dtype = grid_dtype(self.max_changes, span)
        entry = tuple(tc - tc[0] for tc in t)
        # One change: both whole colors, joined at the closest pair of ends.
        borders = min(abs(int(a - b)) for a in t[0][[0, -1]] for b in t[1][[0, -1]])
        tau1 = int(entry[0][-1] + entry[1][-1]) + borders
        t_grid = tuple(tc.astype(dtype) for tc in t)
        self._dp.update(
            t=t,
            entry=entry,
            into=tuple(_junctions(t_grid[o][None, :], t_grid[c][:, None]) for c, o in _PAIRS),
            into_t=None,  # each into[c].T, for the accumulate form; see _plan
            exit=tuple(
                t[o][-1] + np.minimum(np.abs(t[c][1:] - t[o][-1]), abs(int(t[c][-1] - t[o][-1])))
                + (t[c][-1] - t[c][1:])
                for c, o in _PAIRS
            ),
            span=span,
            dtype=dtype,
            stride=checkpoint_stride(self.max_changes - 1),
            cpus=_usable_cpus(),
            kept={},
            last=None,
            buffers=None,  # two reused flat pairs for the layers not kept
            tau=[INF, tau1],
            best=[(INF, 0), (tau1, 1)],
        )
        return self._dp

    def _price(self, changes: int, until_span: bool = False) -> dict:
        """Price layers until ``tau`` reaches ``changes`` changes or, with
        ``until_span``, until the running best reaches the temperature span,
        a lower bound for every schedule.

        Layer 1, the entry grids, is kept.  Above it the layers go in
        segments, each relaxed by :meth:`_price_segment`: a single layer
        when sequential, so the pass stops right at the span, and with
        threads everything up to the next kept layer (at most the layer
        whose exits reach ``changes``).  Pricing a few layers past the span
        changes no answer.
        """
        dp = self._distances()
        while len(dp["tau"]) <= changes and not (until_span and dp["best"][-1][0] <= dp["span"]):
            first = len(dp["tau"]) - 1
            if first == 1:
                grids = dp["kept"][1] = dp["last"] = tuple(self._entry_grid(c) for c in (0, 1))
                self._record([[self._exits(1, 1 - c, grids[c]).min(initial=INF) for c in (0, 1)]])
            else:
                blocked, threaded = self._plan(self._width(first), dp["cpus"])
                end = min(-(-first // dp["stride"]) * dp["stride"], changes - 1) if threaded else first
                self._price_segment(first, end, blocked, threaded)
        return dp

    def _price_segment(self, first: int, end: int, blocked: bool, threaded: bool) -> None:
        """Relax layers ``first`` through ``end`` and price the change
        counts their exits reach.

        A color-c grid reads only the color-o grid of the layer below, so
        the grids split into two chains by the parity of layer + color, and
        each chain relaxes its grid of every layer and prices that grid's
        exits on its own; with ``threaded`` one chain runs on a second
        thread.  A kept layer gets arrays of its own; any other layer
        overwrites the buffers that held the same chain's grid two layers
        below, which nothing reads any more.  A buffer slot belongs to one
        chain, so the chains share no array they write.  The chains call no
        function that ``perfbench/tracing.py`` wraps, since its span stack
        is not thread-safe.
        """
        dp = self._dp
        layers = range(first, end + 1)
        if dp["buffers"] is None and any(layer % dp["stride"] for layer in layers):
            dp["buffers"] = [self._flat_pair(), self._flat_pair()]
        grids = [[None, None] for _ in layers]
        lows = [[None, None] for _ in layers]  # per layer, each grid's least exit

        def chain(parity: int) -> None:
            grid = dp["last"][(parity + first + 1) % 2]
            for row, layer in enumerate(layers):
                c = (parity + layer) % 2
                out = None if layer % dp["stride"] == 0 else dp["buffers"][layer % 2][c]
                grid = grids[row][c] = self._relax(layer, c, grid, blocked, out=out)
                lows[row][c] = self._exits(layer, 1 - c, grid).min(initial=INF)

        if threaded:
            _on_two_threads(lambda: chain(1), lambda: chain(0))
        else:
            chain(0)
            chain(1)
        for layer, pair in zip(layers, grids):
            if layer % dp["stride"] == 0:
                dp["kept"][layer] = tuple(pair)
        dp["last"] = tuple(grids[-1])
        self._record(lows)

    def _record(self, lows: list) -> None:
        """Append each new layer's target to ``tau`` and ``best``; ``lows``
        holds, per layer, the least exit of each of its grids."""
        tau, best = self._dp["tau"], self._dp["best"]
        for pair in lows:
            value = int(min(pair))
            tau.append(value)
            best.append((value, len(tau) - 1) if value < best[-1][0] else best[-1])

    def _plan(self, width: int, cpus: int) -> tuple[bool, bool]:
        """:func:`pass_plan` for this graph.  Before any chain runs, the
        calling thread builds the transposed weights that the accumulate
        form of :meth:`_relax` reads."""
        blocked, threaded = pass_plan(width, cpus)
        dp = self._dp
        if not blocked and dp["into_t"] is None:
            dp["into_t"] = tuple(np.ascontiguousarray(weights.T) for weights in dp["into"])
        return blocked, threaded

    def _width(self, layer: int) -> int:
        """The shortest side of any of ``layer``'s band grids."""
        return min(self._n) - _band(layer)[0]

    def _entry_grid(self, c: int) -> np.ndarray:
        """Layer 1's color-c grid: an entry block of the other color's jobs
        ``0 .. y``, then c's jobs from the first.

        The shifted value depends only on ``y``, so every cell along c's
        axis shares it, and the grid is a broadcast view.
        """
        o = 1 - c
        t = self._dp["t"]
        row = self._dp["entry"][o] + np.minimum(np.abs(t[c][0] - t[o]), abs(int(t[c][0] - t[o][0])))
        row = (row - t[c][0]).astype(self._dp["dtype"])
        return np.broadcast_to(row, (self._n[c], self._n[o]))

    def _flat_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Two flat buffers of the grid dtype, each large enough for a full grid."""
        size, dtype = self._n[0] * self._n[1], self._dp["dtype"]
        return np.empty(size, dtype), np.empty(size, dtype)

    def _relax(
        self,
        layer: int,
        c: int,
        prev: np.ndarray,
        blocked: bool,
        stop: tuple[int, int] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``layer``'s color-c band grid (layer 2 and up) from ``prev``, the
        color-o grid of the layer below.

        The grid is ``prev.T`` plus ``into[c]``, followed by a running
        minimum down its rows.  The ``blocked`` form adds into the grid and
        runs :func:`_blocked_minimum` on it.  The other form adds in
        ``prev``'s order, to ``into[c].T``, and ``minimum.accumulate`` runs
        along that sum's rows and writes the grid through its transpose:
        accumulate's loop is as slow along either axis, so the transpose
        then costs nothing extra.

        Only cells ``(i, j)`` with ``i < stop[0]`` and ``j < stop[1]`` are
        relaxed (default: all; ``stop`` is in color 0's order).  A cell
        depends only on cells at or before it in both coordinates, so those
        hold exactly what a full pass gives, and ``prev`` needs only that
        rectangle.  ``out`` is a flat buffer to write into instead of a new
        array.
        """
        dp = self._dp
        rows, cols = _swap(stop, c) if stop else (self._n[c], self._n[1 - c])
        a, b = _band(layer)
        h, w = rows - a, cols - b
        grid = np.empty((h, w), dp["dtype"]) if out is None else out[: h * w].reshape(h, w)
        if blocked:
            np.add(prev.T[:h, :w], dp["into"][c][a:rows, b:cols], out=grid)
            _blocked_minimum(grid)
        else:
            paths = np.add(prev[:w, :h], dp["into_t"][c][b:cols, a:rows])
            np.minimum.accumulate(paths, axis=1, out=grid.T)
        return grid

    def _exits(self, layer: int, c: int, grid: np.ndarray) -> np.ndarray:
        """Distance through each final block of color ``c`` after
        ``layer``'s full color-o ``grid``.

        Entry ``a`` ends with c's jobs ``a+1 ..`` after o's last job;
        entries whose grid cell lies outside the band are ``INF``.
        """
        n = self._n[c]
        lo = _band(layer)[1]
        exits = np.full(n - 1, INF, dtype=np.int64)
        exits[lo:] = grid[-1, : n - 1 - lo] + self._dp["exit"][c][lo:]
        return exits

    def layer_target_distances(self, max_changes: int | None = None) -> list[int | None]:
        """Optimal total change for exactly k changes, k = 1..``max_changes``
        (default and upper limit: the graph's budget).

        Entry k of the returned list (index k-1) is ``None`` when no
        canonical schedule uses exactly k changes.  Prices every layer the
        range needs.
        """
        cap = self.max_changes if max_changes is None else min(max_changes, self.max_changes)
        tau = self._price(cap)["tau"]
        return [None if tau[k] >= INF else tau[k] for k in range(1, cap + 1)]

    def best_under_cap(self, cap: int) -> tuple[int, int]:
        """Minimum total change with at most ``cap`` changes, and the
        smallest change count attaining it.

        Layers are priced on demand and only until the running best
        reaches the temperature span, a lower bound for every schedule.
        """
        cap = min(cap, self.max_changes)
        best = self._price(cap, until_span=True)["best"]
        value, changes = best[min(cap, len(best) - 1)]
        if value >= INF:
            raise AssertionError("no feasible target reached")
        return value, changes

    def solve_many(self, budgets: Iterable[int]) -> list[SolveResult]:
        """Best schedule with at most ``b`` changes for each budget ``b``
        (each at least 1), in order.

        Budgets whose optimum uses the same change count share one result,
        and every new one comes from a single :meth:`reconstruct` call.
        The schedule's metrics are recomputed from its job sequence, so
        the reported value always equals the realized one.
        """
        optima = [self.best_under_cap(budget) for budget in budgets]
        values = {changes: value for value, changes in optima}
        new = [changes for changes in values if changes not in self._solved]
        for changes, jobs in zip(new, self.reconstruct(new) if new else []):
            value = values[changes]
            realized = total_temperature_change(jobs)
            if realized != value or color_changes(jobs) != changes:
                raise AssertionError(
                    f"reconstruction mismatch: path {value}/{changes}, "
                    f"schedule {realized}/{color_changes(jobs)}"
                )
            schedule = Schedule.from_jobs(self.instance, jobs)
            self._solved[changes] = SolveResult(schedule, value, changes, True)
        return [self._solved[changes] for _, changes in optima]

    def solve(self, budget: int) -> SolveResult:
        """Best schedule with at most ``budget`` changes (at least 1)."""
        return self.solve_many([budget])[0]

    # -- schedule reconstruction ----------------------------------------

    def reconstruct(self, changes: Sequence[int]) -> list[list[Job]]:
        """Rebuild a schedule realizing ``tau[k]`` for each ``k`` in
        ``changes``, in order.

        The walks descend the layers in lock-step, from the highest one
        down.  A layer that was not kept is relaxed again from the kept
        layer below it, at most once per call: over the whole grid when a
        walk starts in that segment, else only up to the farthest cell any
        walk stands on, and only along the walks' chains (a color-0 grid
        reads only the color-1 grid of the layer below and vice versa, so
        the grids split by the parity of layer + color, and a walk keeps
        its parity).  Equal-cost predecessors are resolved toward the
        smallest (layer, color, i, j) node, and block orientations break
        ties toward increasing order, so outputs are deterministic.
        """
        dp = self._price(max(changes))
        walks: dict[int, _Walk] = {}
        for k in sorted(set(changes), reverse=True):
            target = dp["tau"][k]
            if target >= INF:
                raise AssertionError(f"target for {k} changes unreachable")
            walks[k] = _Walk(k - 1, target)
        pending = [walk for walk in walks.values() if walk.layer >= 1]
        have = dict(dp["kept"])
        pool: list[tuple[np.ndarray, np.ndarray]] = []
        if dp["last"] is not None:
            have[len(dp["tau"]) - 2] = dp["last"]
        active: list[_Walk] = []
        for layer in range(pending[0].layer if pending else 0, 0, -1):
            while pending and pending[0].layer == layer:
                if layer not in have:
                    self._recompute(have, layer, None, (0, 1), pool)
                self._start(pending[0], have[layer])
                active.append(pending.pop(0))
            below = layer - 1
            if below and below not in have:
                base = self._checkpoint_below(below)
                if pending and pending[0].layer > base:
                    stop, chains = None, (0, 1)
                else:
                    cells = [_swap(walk.cursor[1:], walk.cursor[0]) for walk in active]
                    stop = tuple(max(axis) + 1 for axis in zip(*cells))
                    chains = {(walk.layer + walk.cursor[0]) % 2 for walk in active}
                self._recompute(have, below, stop, chains, pool)
            for walk in active:
                self._step(walk, have)
            if layer not in dp["kept"]:
                del have[layer]
        jobs = {}
        for k, walk in walks.items():
            if k == 1:
                jobs[k] = self._reconstruct_two_blocks(walk.target)
            else:
                jobs[k] = self._materialize([walk.first_run] + walk.runs_rev[::-1])
        return [jobs[k] for k in changes]

    def _checkpoint_below(self, layer: int) -> int:
        """The highest kept layer below ``layer``."""
        stride = self._dp["stride"]
        return max(1, (layer - 1) // stride * stride)

    def _recompute(
        self,
        have: dict,
        layer: int,
        stop: tuple[int, int] | None,
        chains: Collection[int],
        pool: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Relax the layers from the kept one below ``layer`` through
        ``layer`` again, over the cells before ``stop`` and on the grids
        whose layer + color parity is in ``chains``, into ``have``.

        The ``i``-th layer of a segment reuses the ``i``-th buffer pair of
        ``pool``; the segment relaxed before this one lay above it, and the
        walks have left it.  The whole segment is relaxed on this thread,
        in the form :func:`pass_plan` picks for its first layer's band.
        """
        base = self._checkpoint_below(layer)
        grids = have[base]
        blocked, _ = self._plan(self._width(base + 1), 1)
        for offset, above in enumerate(range(base + 1, layer + 1)):
            if offset == len(pool):
                pool.append(self._flat_pair())
            pair = [None, None]
            for chain in chains:
                c = (chain - above) % 2
                pair[c] = self._relax(above, c, grids[1 - c], blocked, stop, pool[offset][c])
            grids = have[above] = tuple(pair)

    def _start(self, walk: _Walk, grids: tuple[np.ndarray, np.ndarray]) -> None:
        """Place ``walk`` on the first exit of its layer that meets its
        target: color 0's exits before color 1's, each in job order."""
        n = self._n
        for c, o in _PAIRS:
            exits = self._exits(walk.layer, c, grids[o]).tolist()
            if walk.target in exits:
                a = exits.index(walk.target)
                walk.runs_rev.append((c, a + 1, n[c] - 1))
                walk.cursor = (o, n[o] - 1, a)
                return
        raise AssertionError("no exit matches the target distance")

    def _step(self, walk: _Walk, have: dict) -> None:
        """Trace ``walk``'s open block on its layer back to the block's
        first job, and move to the layer below (or finish on layer 1).

        Shifted distances: a move within the open block keeps the value,
        a color change adds the ``into`` weight of the new block's cell.
        On layer 1 the open block starts at its color's first job and
        follows an entry block of the other color.
        """
        layer, (c, x, y) = walk.layer, walk.cursor
        o = 1 - c
        if layer == 1:
            walk.runs_rev.append((c, 0, x))
            walk.first_run = (o, 0, y)
            return
        lo_x, lo_y = _band(layer)
        line = have[layer][c][:, y - lo_y]  # along c's jobs, from lo_x
        d = int(line[x - lo_x])
        lo_y_prev, lo_x_prev = _band(layer - 1)
        prev = have[layer - 1][o][y - lo_y_prev]  # along c's jobs, from lo_x_prev
        into = self._dp["into"][c][:, y]
        # Change color at the first x (from the block's end down) where the
        # layer below plus the weight gives d, else stay in the block.
        while x <= lo_x_prev or int(prev[x - 1 - lo_x_prev]) + int(into[x]) != d:
            if x <= lo_x or int(line[x - 1 - lo_x]) != d:
                raise AssertionError(f"backtrack mismatch on color-{c} grid")
            x -= 1
        walk.runs_rev.append((c, x, walk.cursor[1]))
        walk.layer, walk.cursor = layer - 1, (o, y, x - 1)

    def _materialize(self, runs: list[tuple[int, int, int]]) -> list[Job]:
        """Lay out the block runs; border blocks take the cheaper direction."""
        blocks = [list(self._jobs[color][lo : hi + 1]) for color, lo, hi in runs]
        # Inner blocks always run upward; the first and last block face a
        # single neighbor and flip when that lowers the junction cost.
        first, anchor = blocks[0], blocks[1][0].temperature
        if abs(anchor - first[-1].temperature) > abs(anchor - first[0].temperature):
            first.reverse()
        last, anchor = blocks[-1], blocks[-2][-1].temperature
        if abs(last[0].temperature - anchor) > abs(last[-1].temperature - anchor):
            last.reverse()
        return [job for block in blocks for job in block]

    def _reconstruct_two_blocks(self, target: int) -> list[Job]:
        for first, second in (self._jobs, self._jobs[::-1]):
            for first_rev in (False, True):
                for second_rev in (False, True):
                    seq = list(first[::-1] if first_rev else first)
                    seq += list(second[::-1] if second_rev else second)
                    if total_temperature_change(seq) == target:
                        return seq
        raise AssertionError("no two-block layout matches the target distance")


def checkpoint_stride(layers: int) -> int:
    """Every this-many-th of a graph's ``layers`` grid layers is kept for
    reconstruction: ``ceil(sqrt(layers))``, at least 1.

    So the kept layers number about ``sqrt(layers)``, and so do the layers
    of a segment relaxed again between two of them.
    """
    return math.isqrt(max(layers, 1) - 1) + 1


def grid_dtype(max_changes: int, span: int) -> type[np.signedinteger]:
    """The narrowest exact dtype for the band grids of a graph with budget
    ``max_changes`` over temperatures spanning ``span``.

    With the lowest temperature shifted to 0, a partial path with ``l``
    changes costs at most ``(l + 2) * span`` (moves within blocks add up to
    at most the two colors' spans, and each junction to at most ``span``),
    and a shifted value subtracts at most ``span``.  Layers stop at
    ``max_changes - 1`` and a relaxation adds one weight of at most
    ``2 * span``, so ``int32`` holds every band value and every sum once
    ``(max_changes + 4) * span <= 2**30``.
    """
    return np.int32 if (max_changes + 4) * span <= 1 << 30 else np.int64


# Crossovers of pass_plan, in band width (a band grid's shortest side).
# Measured on a 2-core x86-64 KVM guest with numpy 2.4, pricing 20 and 40
# layers of (w + 10) + (w + 10) and (w + 20) + (w + 20) jobs: the blocked
# form took 6.3-13.0 ms against 6.9-14.0 ms at w = 200 and tied at 150;
# two threads took 10.6-24.4 ms against 11.3-30.7 ms at 300, 12.2-30.4
# against 16.1-31.4 ms at 350, and lost at 200 (7.8-16.0 against
# 6.3-13.0 ms).  Each row of this comment is the range over 2-4 runs.
_BLOCKED_FROM = 200
_THREADS_FROM = 300


def pass_plan(width: int, cpus: int) -> tuple[bool, bool]:
    """Whether band grids ``width`` wide are relaxed in the blocked form,
    and whether the forward pass runs its two parity chains on two threads
    when ``cpus`` CPUs are usable.

    :func:`_blocked_minimum` beats ``minimum.accumulate`` from about
    ``_BLOCKED_FROM`` rows.  It releases the GIL, so two chains on two
    threads beat one from about ``_THREADS_FROM``; narrower bands lose more
    to starting threads and to passing the GIL than they gain.
    """
    return width >= _BLOCKED_FROM, cpus >= 2 and width >= _THREADS_FROM


def _blocked_minimum(grid: np.ndarray) -> None:
    """Running minimum down the rows of the C-contiguous ``grid``, in place.

    ``minimum.accumulate`` along axis 0 runs one strided scalar loop per
    column and holds the GIL when a column has 500 or fewer cells.  Here
    the rows are cut into blocks of about ``sqrt(rows)``: row ``r`` of
    every block takes the minimum with row ``r - 1`` of its block in one
    call, the block ends take their running minimum, and one call carries
    each block end into the rows of the next block.  Rows past the last
    whole block follow one at a time.  Every call works on whole rows.
    """
    rows, cols = grid.shape
    size = max(math.isqrt(rows), 1)
    count = rows // size
    blocks = grid[: count * size].reshape(count, size, cols)
    for r in range(1, size):
        np.minimum(blocks[:, r - 1], blocks[:, r], out=blocks[:, r])
    ends = blocks[:, -1]
    np.minimum.accumulate(ends, axis=0, out=ends)
    np.minimum(blocks[1:, :-1], blocks[:-1, -1:], out=blocks[1:, :-1])
    for r in range(count * size, rows):
        np.minimum(grid[r - 1], grid[r], out=grid[r])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(first: Callable[[], None], second: Callable[[], None]) -> None:
    """Run ``first`` on a new thread and ``second`` on this one, and
    re-raise what ``first`` raised once both are done."""
    raised: list[BaseException] = []

    def run() -> None:
        try:
            first()
        except BaseException as exc:  # re-raised on the calling thread
            raised.append(exc)

    thread = threading.Thread(target=run, name="calsched-chain")
    thread.start()
    try:
        second()
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _junctions(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``2 * max(high - low, 0)`` over the broadcast shape, in their dtype."""
    weights = np.subtract(high, low)
    np.maximum(weights, 0, out=weights)
    return np.add(weights, weights, out=weights)


def _band(layer: int) -> tuple[int, int]:
    """Smallest ``(own, other)`` job pair of a reachable node on either of
    ``layer``'s grids, in that grid's own order.

    Such a node closes ``layer + 1`` alternating blocks ending in the
    grid's color, so that color has used at least ``ceil((layer + 1) / 2)``
    jobs and the other at least ``floor((layer + 1) / 2)``; no other node
    of the grid has a finite distance, and only the band from this corner
    is relaxed and stored.
    """
    return (layer + 2) // 2 - 1, (layer + 1) // 2 - 1


def _swap(pair: tuple[int, int], color: int) -> tuple[int, int]:
    """Turn an ``(i, j)`` pair into ``color``'s ``(own, other)`` order, or back."""
    return pair if color == 0 else pair[::-1]


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
) -> tuple[list[tuple[int, int | None]], Callable[[Iterable[int]], list[SolveResult]]]:
    """The :func:`pareto_sweep` table and a batch solve for budgets in it.

    Both read the same single distance pass.  The solve takes a sequence
    of budgets, each at least the first feasible one, and returns one
    result per budget; a two-color batch reconstructs in one pass.
    """
    _check_colors(instance)
    if len(instance.colors) == 1:
        table = pareto_table(instance, [temperature_span(instance.jobs)])
        return table, lambda budgets: [shortest_schedule(instance, k) for k in budgets]
    graph = build_search_graph(instance, max_merged_color_changes(instance))
    # No change count past the first that attains the overall optimum can
    # lower the running best, so the table needs exact values only up to it.
    _, changes = graph.best_under_cap(graph.max_changes)
    table = pareto_table(instance, [None, *graph.layer_target_distances(changes)])
    return table, graph.solve_many


def pareto_sweep(instance: Instance) -> list[tuple[int, int | None]]:
    """Optimal total change for every color-change budget, in one pass.

    Returns (budget, value) pairs for budgets 0 through the combinatorial
    maximum; unattainable budgets carry ``None``.  Values are
    non-increasing and end at the global temperature span.
    """
    return pareto_front(instance)[0]
