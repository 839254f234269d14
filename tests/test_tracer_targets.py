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
