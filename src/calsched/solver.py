"""Exact solver: shortest paths in a layered grid graph for two colors.

:func:`shortest_schedule` and :func:`pareto_front` serve every color
count, and this module alone decides which exact method runs: one color
is its sorted order, two colors take the search graph below, and three or
more go to the exhaustive subset DP of :mod:`calsched.oracle`, the only
exact method known there.  Every answer is a
:class:`~calsched.core.SolveResult`.

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
rows.  Relaxing a grid reads the grid below through its transpose, since
that grid is stored in the other color's order, and adds it to the one
weight layout (see :meth:`SearchGraph._relax`).

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
  previous layer's grid of the other color and one running minimum, and
  every reader adds the temperature back;
* on demand: layers are priced one at a time, and a capped solve or the
  trade-off table stops once the running best equals the temperature
  span, which no schedule can beat;
* band: a node on layer ``l`` has at least ``ceil((l+1)/2)`` jobs of its
  open color and ``floor((l+1)/2)`` of the other behind it, so only the
  cells past that corner are relaxed and stored, and every other node
  counts as unreachable (``INF``);
* rolling with decision bits: a grid is read only to relax the next
  grid of its chain (see below), so each chain relaxes into three reused
  buffers.  For reconstruction the pass keeps, per relaxed grid, one bit
  per band cell, set when the cell's own predecessor on the layer below
  attains the cell's running minimum, and the grid's last row, which the
  exits read.  A walk reads only those, so no layer is relaxed twice,
  and ``K`` layers keep about ``K * n0 * n1 / 4`` bytes of bits;
* narrow: temperatures are shifted so the lowest is 0, which changes no
  weight or target, and then every band value on layer ``l`` lies in
  ``[-span, (l + 2) * span]``.  :func:`grid_dtype` turns that bound into
  the one dtype of every band grid and buffer: ``int32`` when
  ``(max_changes + 4) * span <= 2**30``, else ``int64``.  Exits and
  targets are always ``int64``;
* kernel and threads: ``minimum.accumulate`` down the rows runs a
  strided scalar loop per column, and numpy holds the GIL in it unless a
  column has more than 500 cells.  :func:`_doubling_minimum` gives the
  same running minimum from about ``2 * log2(rows)`` calls over whole
  arrays, and :func:`_blocked_minimum` from about ``2 * sqrt(rows)``
  calls over whole rows; both release the GIL.  A color-c grid reads
  only the color-o grid of the layer below, so the grids form two chains
  by the parity of layer + color.  With a wide band and two usable CPUs,
  the forward pass runs one chain on a second thread while that plan
  holds.  The chains meet after every layer: the last to arrive records
  the layer's targets, and both stop at the first layer that saturates,
  so they relax exactly the grids one thread would.  :func:`pass_plan`
  picks the kernel and the threads from the band width and the usable
  CPU count.

The magnitude bound that :class:`~calsched.core.Instance` enforces keeps
every real distance far below the ``INF`` sentinel, and no ``INF`` ever
enters a band grid.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import oracle
from .core import (
    INF,
    Instance,
    Job,
    Schedule,
    SolveResult,
    ValidationError,
    color_changes,
    max_merged_color_changes,
    pareto_table,
    temperature_span,
    total_temperature_change,
)

_PAIRS = ((0, 1), (1, 0))  # (c, o): each color, then the other one

# A running minimum down the rows: (values, out, spare), all of one shape.
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


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

        Layer ``l`` stores only its band (see :func:`_band`).  The grid of
        layer ``l`` and color ``c`` belongs to chain ``p = (l + c) % 2``:
        ``grids[p]`` is the chain's newest grid, and ``work[p]`` holds its
        three flat grid buffers and its flat mask buffer (see
        :meth:`_relax`).  ``bits[l, c]`` and ``rows[l, c]`` are what
        reconstruction reads of each grid priced, and ``lows[c]`` is the
        least exit through the newest color-c grid.  ``tau[k]`` is the
        optimum with exactly ``k`` changes for every ``k`` priced so far
        (index 0 unused), and ``best[k]`` the best ``(value, changes)``
        with at most ``k`` changes; the number of layers priced is
        ``len(tau) - 2``.  ``t_grid`` holds ``t`` in the grid dtype, for the
        ``into`` weights that :meth:`_plan` builds, with ``work``, before
        the first grid is relaxed, and ``cpus`` the number of CPUs this
        process may run on, read once for :func:`pass_plan`.
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
        self._dp.update(
            t=t,
            entry=entry,
            t_grid=tuple(tc.astype(dtype) for tc in t),
            into=None,  # built by _plan
            exit=tuple(
                t[o][-1] + np.minimum(np.abs(t[c][1:] - t[o][-1]), abs(int(t[c][-1] - t[o][-1])))
                + (t[c][-1] - t[c][1:])
                for c, o in _PAIRS
            ),
            span=span,
            dtype=dtype,
            cpus=_usable_cpus(),
            grids=[None, None],
            work=None,  # built by _plan
            bits={},
            rows={},
            lows=[INF, INF],
            tau=[INF, tau1],
            best=[(INF, 0), (tau1, 1)],
        )
        return self._dp

    def _price(self, changes: int, until_span: bool = False) -> dict:
        """Price layers until ``tau`` reaches ``changes`` changes or, with
        ``until_span``, until the running best reaches the temperature span,
        a lower bound for every schedule.

        A color-c grid reads only the color-o grid of the layer below, so
        the grids split into two chains by the parity of layer + color.
        Each layer relaxes the chains' grids in turn, or, when
        :func:`pass_plan` picks threads, the layers that keep that plan go
        to :meth:`_price_threaded`.
        """
        dp = self._distances()
        while self._more(changes, until_span):
            layer = len(dp["tau"]) - 1
            if layer == 1:
                for c in (0, 1):
                    grid = dp["grids"][(1 + c) % 2] = self._entry_grid(c)
                    dp["rows"][1, c] = grid[-1]
                    dp["lows"][c] = self._exits(1, 1 - c).min(initial=INF)
                self._record()
                continue
            kernel, threaded = self._plan(self._width(layer), dp["cpus"])
            if threaded:
                # Up to the last layer that is needed and keeps this plan.
                end, cpus = layer, dp["cpus"]
                while end + 1 < changes and pass_plan(self._width(end + 1), cpus) == (kernel, True):
                    end += 1
                self._price_threaded(layer, end, kernel, changes, until_span)
            else:
                self._advance(0, layer, kernel)
                self._advance(1, layer, kernel)
                self._record()
        return dp

    def _more(self, changes: int, until_span: bool) -> bool:
        """Whether :meth:`_price` needs another layer."""
        dp = self._dp
        return len(dp["tau"]) <= changes and not (until_span and dp["best"][-1][0] <= dp["span"])

    def _price_threaded(
        self, first: int, end: int, kernel: Kernel, changes: int, until_span: bool
    ) -> None:
        """Relax layers ``first`` through ``end``, chain 1 on a worker
        thread and chain 0 on this one.

        The chains meet at a barrier after every layer; the last to arrive
        records the layer, and then both test whether :meth:`_price` needs
        another.  So a chain starts layer ``l + 1`` only after layer ``l``
        is recorded, and neither relaxes a grid past the first saturated
        layer.  The chains call no function that ``perfbench/tracing.py``
        wraps, since its span stack is not thread-safe.
        """
        barrier = threading.Barrier(2, action=self._record)

        def chain(p: int) -> None:
            for layer in range(first, end + 1):
                self._advance(p, layer, kernel)
                barrier.wait()
                if not self._more(changes, until_span):
                    return

        _on_two_threads(lambda: chain(1), lambda: chain(0), barrier)

    def _advance(self, p: int, layer: int, kernel: Kernel) -> None:
        """Relax chain ``p``'s grid of ``layer`` (2 and up) and note its
        least exit."""
        dp = self._dp
        c = (p + layer) % 2
        dp["grids"][p] = self._relax(layer, c, dp["grids"][p], kernel, dp["work"][p])
        dp["lows"][c] = self._exits(layer, 1 - c).min(initial=INF)

    def _record(self) -> None:
        """Append the newest layer's target to ``tau`` and ``best``."""
        tau, best = self._dp["tau"], self._dp["best"]
        value = int(min(self._dp["lows"]))
        tau.append(value)
        best.append((value, len(tau) - 1) if value < best[-1][0] else best[-1])

    def _plan(self, width: int, cpus: int) -> tuple[Kernel, bool]:
        """:func:`pass_plan` for this graph.  The first time, before any
        chain runs, the calling thread also builds the ``into`` weights,
        c's jobs down and o's jobs across, and each chain's ``work``
        buffers, which every kernel's :meth:`_relax` uses; a graph that
        prices no layer past the first allocates neither."""
        dp = self._dp
        if dp["into"] is None:
            t = dp["t_grid"]
            dp["into"] = tuple(_junctions(t[o][None, :], t[c][:, None]) for c, o in _PAIRS)
            size, dtype = self._n[0] * self._n[1], dp["dtype"]
            dp["work"] = tuple(
                (tuple(np.empty(size, dtype) for _ in range(3)), np.empty(size, np.bool_))
                for _ in (0, 1)
            )
        return pass_plan(width, cpus)

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

    def _relax(
        self,
        layer: int,
        c: int,
        prev: np.ndarray,
        kernel: Kernel,
        work: tuple[tuple[np.ndarray, ...], np.ndarray],
    ) -> np.ndarray:
        """``layer``'s color-c band grid (layer 2 and up) from ``prev``, the
        color-o grid of the layer below, and what reconstruction reads of
        it: ``bits[layer, c]`` and ``rows[layer, c]``.

        ``paths``, ``prev.T`` plus ``into[c]``, is added in the grid's own
        order, and ``kernel``, the running minimum that :func:`pass_plan`
        picked, takes it down the rows of ``paths`` into the grid.

        Bit ``row * w + col`` of ``bits[layer, c]``, packed over the grid's
        ``w`` columns in row-major order, is set where ``paths`` equals the
        grid, that is, where the cell's own predecessor attains its running
        minimum.  ``rows[layer, c]`` is the grid's last row, which the exits
        read.

        ``work`` is the chain's three flat grid buffers and its mask
        buffer.  The grid of ``layer`` goes into buffer ``layer % 3`` and
        ``paths`` into ``(layer + 1) % 3``; ``prev`` lies in the third, or
        is layer 1's broadcast view, and is dead once ``paths`` is added,
        so the kernel may use the third buffer as its spare.
        """
        dp = self._dp
        a, b = _band(layer)
        h, w = self._n[c] - a, self._n[1 - c] - b
        flats, mask = work
        grid, paths, spare, mask = (
            flat[: h * w].reshape(h, w)
            for flat in (flats[layer % 3], flats[(layer + 1) % 3], flats[(layer + 2) % 3], mask)
        )
        np.add(prev.T[:h, :w], dp["into"][c][a:, b:], out=paths)
        kernel(paths, grid, spare)
        np.equal(paths, grid, out=mask)
        dp["bits"][layer, c] = np.packbits(mask.reshape(-1), bitorder="little")
        dp["rows"][layer, c] = grid[-1].copy()
        return grid

    def _exits(self, layer: int, c: int) -> np.ndarray:
        """Distance through each final block of color ``c`` after
        ``layer``'s color-o grid, from that grid's last row.

        Entry ``i`` ends with c's jobs ``lo + i + 1 ..`` after o's last
        job, where ``lo = _band(layer)[1]``: a final block that starts
        earlier leaves the band.
        """
        lo = _band(layer)[1]
        row = self._dp["rows"][layer, 1 - c]
        return row[: self._n[c] - 1 - lo] + self._dp["exit"][c][lo:]

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

    # -- schedule reconstruction ----------------------------------------

    def reconstruct(self, changes: Sequence[int]) -> list[list[Job]]:
        """Rebuild a schedule realizing ``tau[k]`` for each ``k`` in
        ``changes``, in order.

        Each walk starts at the first exit of layer ``k - 1`` that meets
        its target and traces one block per layer down to the entry
        blocks, reading only the bits and last rows that the distance pass
        kept, so no layer is relaxed again.  Equal-cost predecessors are
        resolved toward the smallest (layer, color, i, j) node, and block
        orientations break ties toward increasing order, so outputs are
        deterministic.
        """
        dp = self._price(max(changes))
        jobs = {}
        for k in set(changes):
            target = dp["tau"][k]
            if target >= INF:
                raise AssertionError(f"target for {k} changes unreachable")
            jobs[k] = self._reconstruct_two_blocks(target) if k == 1 else self._walk(k - 1, target)
        return [jobs[k] for k in changes]

    def _walk(self, top: int, target: int) -> list[Job]:
        """The schedule of a path that leaves layer ``top`` with ``target``.

        It takes the first exit that meets the target, color 0's exits
        before color 1's, each in job order.  Then, on each layer, the
        open block of color ``c`` that ends at c's job ``x``, with ``y`` the
        other color's last job, starts at the last row ``x' <= x`` whose bit
        is set in column ``y``.  Between ``x'`` and ``x`` the grid holds one
        value, since it never increases down the rows and an unset bit
        repeats the cell above, so ``x'`` is the latest block start that
        attains it.
        """
        n = self._n
        for c, o in _PAIRS:
            exits = self._exits(top, c).tolist()
            if target in exits:
                a = _band(top)[1] + exits.index(target)
                break
        else:
            raise AssertionError("no exit matches the target distance")
        runs = [(c, a + 1, n[c] - 1)]  # (color, lo, hi), last block first
        c, x, y = o, n[o] - 1, a
        for layer in range(top, 1, -1):
            lo_x, lo_y = _band(layer)
            bits, w = self._dp["bits"][layer, c], n[1 - c] - lo_y
            bit = (x - lo_x) * w + y - lo_y
            while bit >= 0 and not bits.item(bit >> 3) >> (bit & 7) & 1:
                bit -= w
            if bit < 0:
                raise AssertionError(f"no decision bit set on color-{c} grid")
            row = bit // w
            runs.append((c, lo_x + row, x))
            c, x, y = 1 - c, y, lo_x + row - 1
        # Layer 1: c's block starts at its first job, after an entry block.
        runs += [(c, 0, x), (1 - c, 0, y)]
        return self._materialize(runs[::-1])

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
# Measured on a 2-core x86-64 KVM guest with numpy 2.4, one thread, int32
# grids, pricing 20 and 40 layers of (w + 10) + (w + 10) and (w + 20) +
# (w + 20) jobs, median of 7 runs: the doubling kernel took 2.8 and 5.8 ms
# against accumulate's 2.2 and 4.8 ms at w = 60, tied at 100 (3.8 and 7.9-8.0
# ms each), and won at 150 (6.2 and 12.7 against 6.9 and 14.5 ms).  The
# blocked kernel took 10.7 and 23.6 ms against doubling's 8.3 and 17.4 ms
# at 200, tied at 300-350 (21.9 and 42.6 against 20.5 and 40.3 ms at 300)
# and won at 500 (62 and 120 against 72 and 150 ms).  With two CPUs, two
# threads took 10.6-24.4 ms against 11.3-30.7 ms on one at 300 and lost at
# 200 (blocked kernel).  On two threads, the seeded 500+500 solve at budget
# 50 (bands 476-499 wide) took 0.97-1.02 times as long with the doubling
# kernel as with the blocked one over three sets of 24 runs, so threads keep
# the blocked kernel.
_DOUBLING_FROM = 100
_BLOCKED_FROM = 300
_THREADS_FROM = 300


def pass_plan(width: int, cpus: int) -> tuple[Kernel, bool]:
    """The running-minimum kernel for band grids ``width`` wide, and
    whether the forward pass runs its two parity chains on two threads
    when ``cpus`` CPUs are usable.

    ``minimum.accumulate`` runs a scalar loop that costs about the same
    per cell at any width.  :func:`_doubling_minimum` makes about
    ``log2(rows)`` vectorized passes, whose fixed cost per call pays from
    about ``_DOUBLING_FROM`` wide, and :func:`_blocked_minimum` makes about
    three passes in more calls, which pays from about ``_BLOCKED_FROM``.
    The blocked kernel releases the GIL, so two chains on two threads beat
    one from about ``_THREADS_FROM``; narrower bands lose more to starting
    threads and to passing the GIL than they gain.
    """
    if width < _DOUBLING_FROM:
        kernel = _accumulate_minimum
    else:
        kernel = _doubling_minimum if width < _BLOCKED_FROM else _blocked_minimum
    return kernel, cpus >= 2 and width >= _THREADS_FROM


def _accumulate_minimum(values: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """Running minimum down the rows of ``values`` into ``out`` by numpy's
    ``minimum.accumulate``: one strided scalar loop per column.  ``spare``
    is not used."""
    np.minimum.accumulate(values, axis=0, out=out)


def _doubling_minimum(values: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """Running minimum down the rows of ``values`` into ``out``, in about
    ``2 * log2(rows)`` calls over whole arrays; ``values`` is left as it
    was and ``spare`` is overwritten.

    After the step with offset ``d`` (1, 2, 4, ... below ``rows``), row
    ``r`` holds the minimum of the ``2 * d`` rows up to ``r``: it takes the
    minimum with row ``r - d`` of the step before, and the first ``d`` rows
    are already final.  Each step writes into the buffer the step before
    did not, alternating between ``out`` and ``spare``, and the parity of
    the step count picks the first so that the last writes ``out``.
    """
    rows = len(values)
    steps = max(rows - 1, 0).bit_length()
    if not steps:
        out[...] = values
        return
    targets = (out, spare) if steps % 2 else (spare, out)
    source, d = values, 1
    for step in range(steps):
        target = targets[step % 2]
        np.minimum(source[d:], source[:-d], out=target[d:])
        target[:d] = source[:d]
        source, d = target, 2 * d


def _blocked_minimum(values: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """Running minimum down the rows of the C-contiguous ``values``, into
    the C-contiguous ``out`` of the same shape; ``spare`` is not used.

    ``minimum.accumulate`` along axis 0 runs one strided scalar loop per
    column and holds the GIL when a column has 500 or fewer cells.  Here
    the rows are cut into blocks of about ``sqrt(rows)``: row ``r`` of
    every block takes the minimum with row ``r - 1`` of its block in one
    call, the block ends take their running minimum, and one call carries
    each block end into the rows of the next block.  Rows past the last
    whole block follow one at a time.  Every call works on whole rows.
    """
    rows, cols = values.shape
    size = max(math.isqrt(rows), 1)
    count = rows // size
    source = values[: count * size].reshape(count, size, cols)
    blocks = out[: count * size].reshape(count, size, cols)
    blocks[:, 0] = source[:, 0]
    for r in range(1, size):
        np.minimum(blocks[:, r - 1], source[:, r], out=blocks[:, r])
    ends = blocks[:, -1]
    np.minimum.accumulate(ends, axis=0, out=ends)
    np.minimum(blocks[1:, :-1], blocks[:-1, -1:], out=blocks[1:, :-1])
    for r in range(count * size, rows):
        np.minimum(out[r - 1], values[r], out=out[r])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(
    first: Callable[[], None], second: Callable[[], None], barrier: threading.Barrier
) -> None:
    """Run ``first`` on a new thread and ``second`` on this one, where both
    wait at ``barrier``, and re-raise here what either raised once the
    thread has ended.

    A side that fails aborts the barrier, so the other one stops at its
    next wait instead of waiting for ever.  When this side stops that way,
    the worker's exception is the one raised.
    """
    raised: list[BaseException] = []

    def run() -> None:
        try:
            first()
        except BaseException as exc:  # re-raised on the calling thread
            raised.append(exc)
            barrier.abort()

    thread = threading.Thread(target=run, name="calsched-chain")
    thread.start()
    try:
        second()
    except BaseException as exc:
        barrier.abort()
        thread.join()
        if isinstance(exc, threading.BrokenBarrierError) and raised:
            raise raised[0] from None
        raise
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


def shortest_schedule(instance: Instance, max_color_changes: int) -> SolveResult:
    """Minimize total temperature change under a color-change budget, for
    any number of colors.

    With two colors the returned schedule is in canonical form; with three
    or more it is the exhaustive solver's lexicographically first optimum,
    and instances above :func:`~calsched.oracle.oracle_job_limit` merged
    jobs raise :class:`~calsched.oracle.OracleSizeError`.  Metrics are
    recomputed from the job sequence, so the reported value always equals
    the realized one.
    """
    colors = instance.colors
    if len(colors) > 2:
        return oracle.shortest_schedule(instance, max_color_changes)
    if max_color_changes < len(colors) - 1:
        return SolveResult(None, None, None, False)
    if len(colors) == 1:
        jobs = instance.sorted_jobs(colors[0])
        schedule = Schedule.from_jobs(instance, jobs)
        return SolveResult(schedule, total_temperature_change(jobs), 0, True)
    return build_search_graph(instance, max_color_changes).solve_many([max_color_changes])[0]


def pareto_front(
    instance: Instance,
) -> tuple[list[tuple[int, int | None]], Callable[[Iterable[int]], list[SolveResult]]]:
    """The :func:`pareto_sweep` table and a batch solve for budgets in it,
    for any number of colors.

    Both read the same single distance pass, or with three or more colors
    the same subset-DP table (:func:`calsched.oracle.pareto_front`).  The
    solve takes a sequence of budgets, each at least the first feasible
    one, and returns one result per budget, what :func:`shortest_schedule`
    returns for it; a two-color batch reconstructs in one pass.
    """
    colors = instance.colors
    if len(colors) > 2:
        return oracle.pareto_front(instance)
    if len(colors) == 1:
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
