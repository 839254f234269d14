"""The benchmark tracer's wrap targets still exist in the library.

The tracer lives in ``perfbench/``, which the default test run does not
collect, so a rename in ``src/`` would otherwise go unnoticed here.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Targets the CLI no longer looks up; the tracer lists them as missing.
KNOWN_STALE = {"calsched.cli.pareto_sweep", "calsched.cli.enumerate_pareto"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_unwrap():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    targets = {path for _, _, _, path in tracing._targets()}
    with tracer.tracing(0):
        assert set(tracer.missing) <= KNOWN_STALE
        assert set(tracing.leftover_wrappers()) == targets - set(tracer.missing)
    assert tracing.leftover_wrappers() == []


def test_threaded_pass_keeps_the_span_tree(tmp_path, monkeypatch):
    # The tracer's span stack is not thread-safe, so the chain worker must
    # call nothing it wraps: a threaded sweep records the same spans, with
    # the same parents, as a sequential one.
    import contextlib
    import io
    import random

    from calsched import cli, solver

    tracing = _load_tracing()
    rng = random.Random(12)
    temps = rng.sample(range(1, 10**6), 80)
    path = tmp_path / "two.csv"
    path.write_text("".join(f"j{i},{t / 1000},{i % 2}\n" for i, t in enumerate(temps)), encoding="utf-8")
    trees = []
    for threaded in (False, True):
        monkeypatch.setattr(solver, "pass_plan", lambda width, cpus, t=threaded: (True, t))
        tracer = tracing.Tracer()
        with tracer.tracing(0), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--input", str(path)]) == 0
        assert tracing.leftover_wrappers() == []
        trees.append([(name, parent) for name, _, _, parent, _ in tracer.spans])
    assert trees[0] == trees[1]
    assert "solver.SearchGraph.best_under_cap" in {name for name, _ in trees[1]}
