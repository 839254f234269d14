"""Traced runs: spans around calls into each calsched module, from outside.

Wrappers replace names in the namespaces where callers look them up
(``calsched.cli``, ``calsched.formats``, ``calsched.solver``) and methods on
the ``SearchGraph`` and ``Schedule`` classes.  Each call records a span
``[name, start_ns, end_ns, parent span index, op id]``; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the time its child spans cover, and every span's self time counts
toward exactly one layer metric, so the layer times of an op add up to the
op's traced time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# Names replaced in a module's namespace, by the module callers look them up in.
MODULE_TARGETS = {
    "calsched.cli": (
        "main", "_cmd_solve", "_cmd_sweep", "_load_instance", "_result_document",
        "_write_plot", "_solve_multicolor", "parse_instance", "detect_format",
        "emit_plot", "plot_tsv", "plot_svg", "shortest_schedule", "pareto_sweep",
        "enumerate_pareto", "brute_force_optimal", "color_changes",
    ),
    "calsched.formats": ("build_instance",),
    "calsched.solver": ("build_search_graph", "total_temperature_change", "color_changes"),
}
# Attributes replaced on a class; the class is named by module and class name.
CLASS_TARGETS = {
    ("calsched.solver", "SearchGraph"): ("best_under_cap", "layer_target_distances", "reconstruct"),
    ("calsched.core", "Schedule"): ("__init__", "from_jobs", "jobs", "expanded_ids"),
}

# Span name (defining module, then qualified name) -> the layer metric its self time adds to.
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "cli._cmd_solve": "cli.self_s",
    "cli._cmd_sweep": "cli.self_s",
    "cli._load_instance": "cli.self_s",
    "cli._result_document": "cli.self_s",
    "cli._write_plot": "cli.self_s",
    "cli._solve_multicolor": "cli.self_s",
    "formats.parse_instance": "formats.parse_s",
    "formats.detect_format": "formats.parse_s",
    "core.build_instance": "core.build_instance_s",
    "formats.emit_plot": "formats.plot_s",
    "formats.plot_tsv": "formats.plot_s",
    "formats.plot_svg": "formats.plot_s",
    "core.Schedule.__init__": "core.schedule_s",
    "core.Schedule.from_jobs": "core.schedule_s",
    "core.Schedule.jobs": "core.schedule_s",
    "core.Schedule.expanded_ids": "core.schedule_s",
    "core.color_changes": "core.schedule_s",
    "core.total_temperature_change": "core.schedule_s",
    "solver.shortest_schedule": "solver.self_s",
    "solver.pareto_sweep": "solver.self_s",
    "solver.build_search_graph": "solver.self_s",
    "solver.SearchGraph.best_under_cap": "solver.distance_s",
    "solver.SearchGraph.layer_target_distances": "solver.distance_s",
    "solver.SearchGraph.reconstruct": "solver.reconstruct_s",
    "oracle.enumerate_pareto": "oracle.pareto_s",
    "oracle.brute_force_optimal": "oracle.solve_s",
}
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))

# Per-op counts: (unit, how it is obtained).  "computed" counts follow from
# the graph's budget and job counts (or the oracle's n and cap) by formula;
# the others are counted at the wrappers or read from the op's output.
COUNT_METRICS = {
    "formats.plot_rows": ("count", "counted"),
    "core.schedule_jobs_calls": ("count", "counted"),
    "solver.reconstructs": ("count", "counted"),
    "solver.graph_builds": ("count", "counted"),
    "solver.layers": ("count", "computed: sum of max_changes over graphs"),
    "solver.cells": ("count", "computed: sum of 2*(max_changes-1)*n0*n1 over graphs"),
    "solver.dp_bytes": ("B", "computed: int64 grid bytes of the largest graph"),
    "solver.useful_layer_ratio": ("ratio", "saturation layer / solver.layers, per op; 0 without a curve or a graph"),
    "oracle.table_builds": ("count", "counted"),
    "oracle.states": ("count", "computed: sum of 2^n*n*(cap+1) over tables"),
    "oracle.schedules": ("count", "counted"),
    "oracle.truncated_ratio": ("ratio", "truncated solves / oracle solves"),
}


def _merged_oracle_cap(instance) -> int:
    from calsched.core import max_changes_for_counts

    return max_changes_for_counts([len(instance.sorted_jobs(c)) for c in instance.colors])


def _targets():
    """(owner, attribute, current value or None, dotted path) of every wrap target."""
    for module_name, attrs in MODULE_TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            yield module, attr, getattr(module, attr, None), f"{module_name}.{attr}"
    for (module_name, class_name), attrs in CLASS_TARGETS.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            yield cls, attr, cls.__dict__.get(attr), f"{module_name}.{class_name}.{attr}"


def _function(raw):
    """The plain function behind a property or classmethod."""
    return getattr(raw, "fget", None) or getattr(raw, "__func__", None) or raw


def _span_name(owner, attr: str, raw) -> str:
    """Defining module, then qualified name: ``cli.parse_instance`` is ``formats.parse_instance``."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{raw.__module__.rsplit('.', 1)[-1]}.{raw.__name__}"


def leftover_wrappers() -> list[str]:
    """Targets that still hold a wrapper; empty once ``Tracer.tracing`` has exited."""
    return [path for _, _, raw, path in _targets() if hasattr(_function(raw), "__wrapped__")]


class Tracer:
    """Installs the wrappers for one op at a time and keeps every span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, raw, name: str):
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, name))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = raw(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    @contextmanager
    def tracing(self, op: int):
        """Wrap every target while one op runs, then restore the originals.

        A target the library no longer has is listed in ``missing``.
        """
        self._op = op
        self.counts[op] = Counter()
        targets = list(_targets())
        self.missing = [path for _, _, raw, path in targets if raw is None]
        saved = []
        try:
            for owner, attr, raw, _ in targets:
                if raw is not None:
                    name = _span_name(owner, attr, raw)
                    if name not in SPAN_METRIC:
                        raise KeyError(f"span {name} has no layer metric")
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, self._wrap(raw, name))
            yield
        finally:
            for owner, attr, raw in saved:
                setattr(owner, attr, raw)

    # -- counts --------------------------------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        c = self.counts[self._op]
        if name == "solver.build_search_graph":
            k, cells = result.max_changes, 2 * (result.max_changes - 1) * result.n0 * result.n1
            c["solver.graph_builds"] += 1
            c["solver.layers"] += k
            c["solver.cells"] += cells
            c["solver.dp_bytes"] = max(c["solver.dp_bytes"], 8 * cells)
        elif name == "solver.SearchGraph.reconstruct":
            c["solver.reconstructs"] += 1
        elif name == "formats.emit_plot":
            c["formats.plot_rows"] += len(result)
        elif name == "core.Schedule.jobs":
            c["core.schedule_jobs_calls"] += 1
        elif name == "oracle.enumerate_pareto":
            self._table_built(c, len(args[0].jobs), _merged_oracle_cap(args[0]))
        elif name == "oracle.brute_force_optimal":
            c["oracle.solves"] += 1
            c["oracle.schedules"] += len(result.optimal_schedules)
            c["oracle.truncated"] += bool(result.truncated)
            if result.mode == "subset_dp":
                self._table_built(c, len(args[0].jobs), result.k_used)

    @staticmethod
    def _table_built(c: Counter, n: int, cap: int) -> None:
        c["oracle.table_builds"] += 1
        c["oracle.states"] += (1 << n) * n * (cap + 1)

    def finish_op(self, op: int, layer: int | None) -> None:
        """Derive the op's ratios; ``layer`` is the saturation layer read from its printed curve."""
        c = self.counts[op]
        c["solver.useful_layer_ratio"] = layer / c["solver.layers"] if layer and c["solver.layers"] else 0.0
        c["oracle.truncated_ratio"] = c["oracle.truncated"] / c["oracle.solves"] if c["oracle.solves"] else 0.0

    # -- reduction -------------------------------------------------------------

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Per op, the self time in seconds that each layer metric covers."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for (name, start, end, _, op), children in zip(self.spans, child_ns):
            per_op = out.setdefault(op, dict.fromkeys(TIME_METRICS, 0.0))
            per_op[SPAN_METRIC[name]] += (end - start - children) / 1e9
        return out

    def summary(self, count_ops: list[int]) -> dict[str, float]:
        """Median per-op layer times over all traced ops, and per-op mean
        counts over ``count_ops`` (a fixed prefix, so counts repeat exactly)."""
        times = self.layer_times()
        metrics = {m: statistics.median(t[m] for t in times.values()) for m in TIME_METRICS}
        for m in COUNT_METRICS:
            metrics[m] = statistics.fmean(self.counts[op][m] for op in count_ops)
        return metrics
