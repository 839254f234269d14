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
* saturation and one pass: only a monotone order reaches the
  temperature span, which no schedule beats, and a sorted merge of both
  colors is canonical, so the curve saturates at the fewest changes of a
  sorted order (:func:`saturation_changes`), known before the pass.  The
  first query prices every layer up to the graph's budget in one pass and
  then releases the pass's buffers, so callers size the budget by
  saturation: a capped solve and the trade-off table never price past it;
* band: a node on layer ``l`` has at least ``ceil((l+1)/2)`` jobs of its
  open color and ``floor((l+1)/2)`` of the other behind it, so only the
  cells past that corner are relaxed and stored, and every other node
  counts as unreachable (``INF``);
* two buffers with decision bits: a grid is read only to relax the next
  grid of its chain (see below), so each chain relaxes into two reused
  buffers, and takes a third as scratch only when a run of the pass uses
  a kernel that needs one.  For reconstruction the pass keeps, per
  relaxed grid, one bit per band cell, set when the cell's own
  predecessor on the layer below attains the cell's running minimum, and
  the grid's last row, which the exits read.  A walk reads only those, so
  no layer is relaxed twice, and ``K`` layers keep about
  ``K * n0 * n1 / 4`` bytes of bits;
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
  by the parity of layer + color, which share no data.  Each chain
  relaxes a run of layers on its own, on a second thread with a wide band
  and two usable CPUs, and returns each grid's least exit; the run's
  targets are recorded from both chains' exits once both have returned.
  :func:`pass_plan` picks the kernel and the threads from the band width
  and the usable CPU count.

The magnitude bound that :class:`~calsched.core.Instance` enforces keeps
every real distance far below the ``INF`` sentinel, and no ``INF`` ever
enters a band grid.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
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

# A running minimum down the rows: (values, out, spare), all of one shape;
# a kernel in _SCRATCH_FREE is passed no spare.
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray | None], None]


class SearchGraph:
    """Layered search graph for a two-color instance.

    ``max_changes`` is the clamped color-change budget (at least 1); the
    graph has ``max_changes - 1`` grid layers plus entry and exit gadgets.
    Construction prices layer 1, which relaxes no grid, and the first
    query prices every further layer in one pass (see :meth:`_price`), so
    callers size the budget by :func:`saturation_changes`.  One graph must
    not be queried from two threads at once, while its
    :class:`~calsched.core.Instance` may be shared.

    Below, ``c`` is either color, ``o = 1 - c`` the other, and ``_t[c]``
    color c's sorted temperatures, shifted so that the lowest is 0.  A
    color-c grid holds, at the node whose open block ends at c's job ``x``,
    the distance minus ``_t[c][x]`` (the shifted frame).  Extending the
    open block then costs nothing, so a layer's color-c grid is the
    previous layer's color-o grid plus a fixed weight per cell, followed by
    one running minimum along c's axis.  That weight, ``_into[c][x, y]``,
    is the junction cost from o's job ``y`` to c's job ``x`` minus the
    temperature difference between the old and new block ends:
    ``2 * max(_t[o][y] - _t[c][x], 0)``.  ``_exit[c][a]`` is what a final
    block of c's jobs ``a+1 ..`` adds to the shifted distance of the
    color-o cell at o's last job, and ``_entry[c][y]`` is the span of a
    first block of c's jobs ``0 .. y``.  ``_dtype`` is the
    :func:`grid_dtype` of every band grid and buffer.

    Layer ``l`` stores only its band (see :func:`_band`).  The grid of
    layer ``l`` and color ``c`` belongs to chain ``p = (l + c) % 2``.
    During the pass, ``_grids[p]`` is the chain's newest grid, and
    ``_work[p]`` lists its flat grid and sums buffers, its flat mask buffer
    and, when a run of the pass needs scratch, a flat spare buffer (see
    :meth:`_relax`); the pass drops both, and ``_into``, when it ends.
    ``_bits[l, c]`` and ``_rows[l, c]`` are what reconstruction reads of
    each grid priced.  ``_tau[k]`` is the optimum with exactly ``k``
    changes for every ``k`` priced so far (index 0 unused); the number of
    layers priced is ``len(_tau) - 2``.  ``_cpus`` is the number of CPUs
    this process may run on, read once for :func:`pass_plan`.
    """

    def __init__(self, instance: Instance, max_changes: int) -> None:
        self.instance, self.max_changes = instance, max_changes
        self._jobs = tuple(instance.sorted_jobs(color) for color in instance.colors)
        self._n = self.n0, self.n1 = tuple(len(js) for js in self._jobs)
        # Weights and targets depend only on temperature differences, so
        # this shift is exact; it bounds the band values for grid_dtype.
        t = [np.array([j.temperature for j in js], dtype=np.int64) for js in self._jobs]
        low = min(tc[0] for tc in t)
        self._t = t = tuple(tc - low for tc in t)
        self._dtype = grid_dtype(max_changes, int(max(tc[-1] for tc in t)))
        self._entry = tuple(tc - tc[0] for tc in t)
        self._exit = tuple(
            t[o][-1] + np.minimum(np.abs(t[c][1:] - t[o][-1]), abs(int(t[c][-1] - t[o][-1])))
            + (t[c][-1] - t[c][1:])
            for c, o in _PAIRS
        )
        self._cpus = _usable_cpus()
        self._bits = {}
        # One change: both whole colors, joined at the closest pair of ends.
        borders = min(abs(int(a - b)) for a in t[0][[0, -1]] for b in t[1][[0, -1]])
        tau1 = int(self._entry[0][-1] + self._entry[1][-1]) + borders
        self._tau = [INF, tau1]
        # Layer 1: its grids are entry grids, read only by their last row.
        self._rows = {(1, c): self._entry_grid(c)[-1] for c in (0, 1)}
        self._record([self._exits(1, 0).min(initial=INF)], [self._exits(1, 1).min(initial=INF)])

    # -- dense distance computation ------------------------------------

    def _price(self) -> None:
        """Price every layer up to the budget in one pass, on the first call.

        The calling thread first allocates all that the runs of
        :meth:`_plan` use: the ``_into`` weights, c's jobs down and o's
        jobs across, and each chain's ``_work``, with a spare buffer only
        if a run's kernel is not in ``_SCRATCH_FREE``.  Each parity chain
        relaxes a run on its own, on a thread of its own when the plan says
        so, and returns its grids' least exits for :meth:`_record`.  Then
        the weights, grids and buffers are dropped.
        """
        if len(self._tau) > self.max_changes:
            return
        runs, size = self._plan(len(self._tau) - 1), self._n[0] * self._n[1]
        t = tuple(tc.astype(self._dtype) for tc in self._t)
        self._into = tuple(_junctions(t[o][None, :], t[c][:, None]) for c, o in _PAIRS)
        scratch = any(kernel not in _SCRATCH_FREE for _, kernel, _ in runs)
        # Per chain: the grid, sums and mask buffers, then the spare if any.
        dtypes = (self._dtype, self._dtype, np.bool_, self._dtype)[: 3 + scratch]
        self._work = tuple([np.empty(size, dtype) for dtype in dtypes] for _ in (0, 1))
        # Layer 1: chain p's grid has color 1 - p.
        self._grids = [self._entry_grid(1 - p) for p in (0, 1)]
        for layers, kernel, threaded in runs:
            if threaded:
                lows = _on_two_threads(lambda p, stop: self._advance(p, layers, kernel, stop))
            else:
                lows = [self._advance(p, layers, kernel, threading.Event()) for p in (0, 1)]
            self._record(*lows)
        del self._into, self._grids, self._work

    def _record(self, lows0: list, lows1: list) -> None:
        """Append to ``_tau`` the target of ``layer + 1`` changes for each
        layer of a run in order: the lesser of the least exits that chains
        0 and 1 returned for the layer's two grids."""
        for low0, low1 in zip(lows0, lows1):
            self._tau.append(int(min(low0, low1)))

    def _advance(self, p: int, layers: list[int], kernel: Kernel, stop: threading.Event) -> list:
        """Relax chain ``p``'s grids of ``layers`` until ``stop`` is set, and
        return each grid's least exit.  Chains call nothing that
        ``perfbench/tracing.py`` wraps, since its span stack is not
        thread-safe."""
        lows = []
        for layer in layers:
            if stop.is_set():
                break
            c = (p + layer) % 2
            self._grids[p] = self._relax(layer, c, self._grids[p], kernel, self._work[p])
            lows.append(self._exits(layer, 1 - c).min(initial=INF))
        return lows

    def _plan(self, first: int) -> list[tuple[list[int], Kernel, bool]]:
        """Every layer from ``first`` to ``max_changes - 1``, as runs of
        consecutive layers whose band widths keep one :func:`pass_plan`,
        each with that plan's kernel and threads."""
        short = min(self._n)
        plans = itertools.groupby(
            range(first, self.max_changes), lambda layer: pass_plan(short - _band(layer)[0], self._cpus)
        )
        return [(list(layers), *plan) for plan, layers in plans]

    def _entry_grid(self, c: int) -> np.ndarray:
        """Layer 1's color-c grid: an entry block of the other color's jobs
        ``0 .. y``, then c's jobs from the first.

        The shifted value depends only on ``y``, so every cell along c's
        axis shares it, and the grid is a broadcast view.
        """
        o, t = 1 - c, self._t
        row = self._entry[o] + np.minimum(np.abs(t[c][0] - t[o]), abs(int(t[c][0] - t[o][0])))
        row = (row - t[c][0]).astype(self._dtype)
        return np.broadcast_to(row, (self._n[c], self._n[o]))

    def _relax(
        self,
        layer: int,
        c: int,
        prev: np.ndarray,
        kernel: Kernel,
        work: list[np.ndarray],
    ) -> np.ndarray:
        """``layer``'s color-c band grid (layer 2 and up) from ``prev``, the
        color-o grid of the layer below, and what reconstruction reads of
        it: ``_bits[layer, c]`` and ``_rows[layer, c]``.

        ``paths``, ``prev.T`` plus ``_into[c]``, is added in the grid's own
        order, and ``kernel``, the running minimum that :func:`pass_plan`
        picked, takes it down the rows of ``paths`` into the grid.

        Bit ``row * w + col`` of ``_bits[layer, c]``, packed over the grid's
        ``w`` columns in row-major order, is set where ``paths`` equals the
        grid, that is, where the cell's own predecessor attains its running
        minimum.  ``_rows[layer, c]`` is the grid's last row, which the exits
        read.

        ``work`` is the chain's flat grid, sums and mask buffers, and its
        spare buffer if :meth:`_price` allocated one.  ``paths`` always goes
        into the sums buffer.  ``prev`` lies in the grid buffer, or is layer
        1's broadcast view, and is dead once ``paths`` is added, so the
        kernel writes the grid over it.  Only a kernel that needs scratch is passed
        the spare.
        """
        a, b = _band(layer)
        h, w = self._n[c] - a, self._n[1 - c] - b
        grid, paths, mask, *spare = (flat[: h * w].reshape(h, w) for flat in work)
        np.add(prev.T[:h, :w], self._into[c][a:, b:], out=paths)
        kernel(paths, grid, *spare)
        np.equal(paths, grid, out=mask)
        self._bits[layer, c] = np.packbits(mask.reshape(-1), bitorder="little")
        self._rows[layer, c] = grid[-1].copy()
        return grid

    def _exits(self, layer: int, c: int) -> np.ndarray:
        """Distance through each final block of color ``c`` after
        ``layer``'s color-o grid, from that grid's last row.

        Entry ``i`` ends with c's jobs ``lo + i + 1 ..`` after o's last
        job, where ``lo = _band(layer)[1]``: a final block that starts
        earlier leaves the band.
        """
        lo = _band(layer)[1]
        row = self._rows[layer, 1 - c]
        return row[: self._n[c] - 1 - lo] + self._exit[c][lo:]

    def layer_target_distances(self) -> list[int | None]:
        """Optimal total change for exactly k changes, k = 1..``max_changes``.

        Entry k of the returned list (index k-1) is ``None`` when no
        canonical schedule uses exactly k changes.
        """
        self._price()
        return [None if value >= INF else value for value in self._tau[1 : self.max_changes + 1]]

    def best_under_cap(self, cap: int) -> tuple[int, int]:
        """Minimum total change with at most ``cap`` changes, and the
        smallest change count attaining it, read from ``_tau``."""
        cap = min(cap, self.max_changes)
        self._price()
        value = min(self._tau[1 : cap + 1])
        return value, self._tau.index(value, 1)

    def solve_many(self, budgets: Iterable[int]) -> list[SolveResult]:
        """Best schedule with at most ``b`` changes for each budget ``b``
        (each at least 1), in order.

        Budgets whose optimum uses the same change count share one result,
        and all of them come from a single :meth:`reconstruct` call.
        The schedule's metrics are recomputed from its job sequence, over
        ``int64`` arrays of its temperatures and colors, so the reported
        value always equals the realized one; on a mismatch, the error
        names the core functions' recount.
        """
        optima = [self.best_under_cap(budget) for budget in budgets]
        values = {changes: value for value, changes in optima}
        solved = {}
        for changes, jobs in zip(values, self.reconstruct(list(values)) if values else []):
            value = values[changes]
            temps = np.fromiter([job.temperature for job in jobs], np.int64, len(jobs))
            colors = np.fromiter([job.color for job in jobs], np.int64, len(jobs))
            realized = int(np.abs(np.diff(temps)).sum())
            switches = int(np.count_nonzero(np.diff(colors)))
            if (realized, switches) != (value, changes):
                raise AssertionError(
                    f"reconstruction mismatch: path {value}/{changes}, "
                    f"schedule {total_temperature_change(jobs)}/{color_changes(jobs)}"
                )
            schedule = Schedule.from_jobs(self.instance, jobs)
            solved[changes] = SolveResult(schedule, value, changes, True)
        return [solved[changes] for _, changes in optima]

    # -- schedule reconstruction ----------------------------------------

    def reconstruct(self, changes: Sequence[int]) -> list[list[Job]]:
        """Rebuild a schedule realizing ``_tau[k]`` for each ``k`` in
        ``changes``, in order.

        Each walk starts at the first exit of layer ``k - 1`` that meets
        its target and traces one block per layer down to the entry
        blocks, reading only the bits and last rows that the distance pass
        kept, so no layer is relaxed again.  Equal-cost predecessors are
        resolved toward the smallest (layer, color, i, j) node, and block
        orientations break ties toward increasing order, so outputs are
        deterministic.
        """
        self._price()
        jobs = {}
        for k in set(changes):
            target = self._tau[k]
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
            bits, w = self._bits[layer, c], n[1 - c] - lo_y
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
        """The first layout of two sorted blocks costing ``target``: color
        0's first, then color 1's, each with its first block up, then down,
        and within that its second.  A layout costs both spans plus the
        junction of its end temperatures, so only the one returned is built.
        """
        t, spans = self._t, int(self._entry[0][-1] + self._entry[1][-1])
        for c, o in _PAIRS:
            for end, first in ((-1, 1), (0, -1)):  # up ends at the last job
                for start, second in ((0, 1), (-1, -1)):
                    if spans + abs(int(t[c][end] - t[o][start])) == target:
                        return [*self._jobs[c][::first], *self._jobs[o][::second]]
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
# and won at 500 (62 and 120 against 72 and 150 ms).  With two CPUs and
# the chains unsynced between layers, two threads (blocked kernel, median of
# 7) took 0.85-0.89 times as long as one at 300, 0.67-0.84 at 400-480, 1.07
# at 250 and 1.10-1.32 at 190.  On two threads, the seeded 500+500 solve at
# budget 50 (bands 476-499 wide) took 0.97-1.02 times as long with the
# doubling kernel as with the blocked one, so threads keep the blocked one.
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


def _accumulate_minimum(values: np.ndarray, out: np.ndarray, spare: np.ndarray | None = None) -> None:
    """Running minimum down the rows of ``values`` into ``out`` by numpy's
    ``minimum.accumulate``: one strided scalar loop per column.  It needs
    no scratch, so the pass passes no ``spare``."""
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


def _blocked_minimum(values: np.ndarray, out: np.ndarray, spare: np.ndarray | None = None) -> None:
    """Running minimum down the rows of the C-contiguous ``values``, into
    the C-contiguous ``out`` of the same shape.  It needs no scratch, so
    the pass passes no ``spare``.

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


# Kernels that write only ``out``: a chain whose runs use only these never
# allocates a spare buffer (see SearchGraph._plan).
_SCRATCH_FREE = frozenset({_accumulate_minimum, _blocked_minimum})


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(chain: Callable[[int, threading.Event], object]) -> list:
    """Run ``chain(1, stop)`` on a new thread and ``chain(0, stop)`` on
    this one, and return both results in chain order, or re-raise here the
    first exception either raised, once the thread has ended.  A side that
    fails sets ``stop``, so the other ends at its next layer."""
    stop, raised, results = threading.Event(), [], [None, None]

    def run(p: int) -> None:
        try:
            results[p] = chain(p, stop)
        except BaseException as exc:  # re-raised on the calling thread
            raised.append(exc)
            stop.set()

    thread = threading.Thread(target=run, args=(1,), name="calsched-chain")
    thread.start()
    run(0)
    thread.join()
    if raised:
        raise raised[0]
    return results


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
    maximum.  The first query prices every layer up to it in one pass, so
    callers size it by :func:`saturation_changes`, past which no layer
    lowers an optimum.
    """
    if len(instance.colors) != 2:
        raise ValidationError("search graph requires exactly two colors")
    if max_color_changes < 1:
        raise ValidationError("search graph requires a budget of at least 1")
    cap = min(max_color_changes, max_merged_color_changes(instance))
    return SearchGraph(instance, cap)


def saturation_changes(instance: Instance) -> int:
    """The fewest color changes of any sorted order of a two-color
    instance's jobs.

    Only a monotone schedule has a total change equal to the span, so
    this is the least change count whose optimum is the span.  The walk
    merges the two lists and keeps ``end0`` and ``end1``, the fewest
    changes of an order so far that ends in color 0 and in color 1.  A
    temperature that both colors share puts either color first: one
    change that flips the last color, or two that keep it.  The walk is
    plain Python: a numpy merge read about 0.2 MB more peak RSS in each
    forked benchmark op.
    """
    # INF ends each color's temperatures.
    a, b = (iter([job.temperature for job in instance.sorted_jobs(c)] + [INF]) for c in instance.colors)
    x, y, end0, end1 = next(a), next(b), 0, 0
    while x < INF or y < INF:
        if x < y:
            end0, end1, x = min(end0, end1 + 1), INF, next(a)
        elif y < x:
            end0, end1, y = INF, min(end1, end0 + 1), next(b)
        else:
            end0, end1 = min(end1 + 1, end0 + 2), min(end0 + 1, end1 + 2)
            x, y = next(a), next(b)
    return min(end0, end1)


def shortest_schedule(instance: Instance, max_color_changes: int) -> SolveResult:
    """Minimize total temperature change under a color-change budget, for
    any number of colors.

    With two colors the returned schedule is in canonical form; with three
    or more it is the exhaustive solver's lexicographically first optimum,
    and instances whose table would pass
    :data:`~calsched.oracle.MAX_TABLE_BYTES` raise
    :class:`~calsched.oracle.OracleSizeError`.  Metrics are
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
    # No budget past saturation lowers the optimum, and the graph's budget
    # bounds its grid dtype.
    graph = build_search_graph(instance, min(max_color_changes, saturation_changes(instance)))
    return graph.solve_many([max_color_changes])[0]


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
    # No change count past saturation can lower the running best, so the
    # table needs exact values only up to it, and pareto_table carries the
    # span on to the top budget.
    graph = build_search_graph(instance, saturation_changes(instance))
    table = pareto_table(instance, [None, *graph.layer_target_distances()])
    return table, graph.solve_many


def pareto_sweep(instance: Instance) -> list[tuple[int, int | None]]:
    """Optimal total change for every color-change budget, in one pass.

    Returns (budget, value) pairs for budgets 0 through the combinatorial
    maximum; unattainable budgets carry ``None``.  Values are
    non-increasing and end at the global temperature span.
    """
    return pareto_front(instance)[0]
