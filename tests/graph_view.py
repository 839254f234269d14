"""Explicit node and arc view of a :class:`calsched.solver.SearchGraph`.

Small graphs are audited against a reference shortest-path search over
this view, which spells out every node and weighted arc of the layered
graph independently of the solver's dense distance pass.  Job indices in
node names are 1-based.
"""

from __future__ import annotations

from typing import Iterator

Node = tuple
Arc = tuple[Node, Node, int]


def node_count(graph) -> int:
    n0, n1, cap = graph.n0, graph.n1, graph.max_changes
    return (
        2
        + (n0 + n1)
        + (cap - 1) * 2 * n0 * n1
        + cap * (n0 + n1)
        + cap
    )


def arc_count(graph) -> int:
    n0, n1, cap = graph.n0, graph.n1, graph.max_changes
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


def iter_nodes(graph) -> Iterator[Node]:
    n = {0: graph.n0, 1: graph.n1}
    yield ("source",)
    for color in (0, 1):
        for i in range(1, n[color] + 1):
            yield ("entry", color, i)
    for layer in range(1, graph.max_changes):
        for color in (0, 1):
            for i in range(1, graph.n0 + 1):
                for j in range(1, graph.n1 + 1):
                    yield ("grid", layer, color, i, j)
    for layer in range(graph.max_changes):
        for color in (0, 1):
            for i in range(1, n[color] + 1):
                yield ("exit", layer, color, i)
    for k in range(1, graph.max_changes + 1):
        yield ("ltarget", k)
    yield ("target",)


def iter_arcs(graph) -> Iterator[Arc]:
    """Every arc with its weight."""
    colors = graph.instance.colors
    t = {c: [j.temperature for j in graph.instance.sorted_jobs(colors[c])] for c in (0, 1)}
    n = {0: graph.n0, 1: graph.n1}
    cap = graph.max_changes
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
