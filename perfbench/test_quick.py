"""Quick-mode checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Each run
uses ``--seconds 0``: a few ops per workload, traced and untraced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload: str, trace: int) -> None:
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_digest_and_counts() -> None:
    first, first_lines = bench("sweep-plots", 1)
    second, second_lines = bench("sweep-plots", 1)
    digest = [line for line in first_lines if line.startswith("digest ")]
    assert digest and digest == [line for line in second_lines if line.startswith("digest ")]
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"}
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}


def test_trace_wrappers_are_installed_then_removed(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import calsched.cli
    import calsched.core
    from inputs import make_records, op_rng, to_csv
    from tracing import Tracer, leftover_wrappers

    csv_path = tmp_path / "in.csv"
    csv_path.write_text(to_csv(make_records(op_rng("test", 0, 0), (8, 8))), encoding="utf-8")
    before = dict(vars(calsched.cli)), dict(vars(calsched.core.Schedule))
    tracer = Tracer()
    with tracer.tracing(0):
        assert leftover_wrappers()
        assert calsched.cli.main(["sweep", "--input", str(csv_path), "--emit-plot-dir", str(tmp_path / "plots")]) == 0
    assert leftover_wrappers() == [] and not tracer.missing
    after = dict(vars(calsched.cli)), dict(vars(calsched.core.Schedule))
    assert all(after[i][k] is v for i in (0, 1) for k, v in before[i].items())
    root = next(s for s in tracer.spans if s[0] == "cli.main")
    assert sum(tracer.layer_times()[0].values()) == pytest.approx((root[2] - root[1]) / 1e9)
    assert tracer.counts[0]["solver.graph_builds"] >= 1 and tracer.counts[0]["formats.plot_rows"] >= 16
