"""The benchmark's workloads: one CLI call per op, and the check of its output.

Why each workload exists (the solve work grows with budget x n0 x n1, the
sweep work with the full layer count, the oracle with 2^n):

* ``solve``: two colors, 500+500 jobs, budget 50.  The everyday planner
  query.  The budget is far below the layer where the curve saturates
  (about n per color), so early stopping has nothing to skip here.
* ``sweep``: two colors, 200+200 jobs.  The paper's headline path: every
  layer, and about half of them past saturation.
* ``sweep-plots``: two colors, 60+60 jobs, one plot per budget.  Every
  budget is solved again in full today, so graph builds and plot
  writing dominate.
* ``oracle``: three colors, 13 merged jobs.  The only workload for the
  exhaustive subset DP, and the case where the two-color solver does no
  work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from inputs import Record, milli_to_decimal


@dataclass(frozen=True)
class Workload:
    name: str
    counts: tuple[int, ...]  # jobs per color
    budget: int | None = None  # ``solve`` budget; ``None`` runs ``sweep``
    plot_dir: bool = False  # ``sweep --emit-plot-dir``

    def argv(self, input_path: Path, out_path: Path) -> list[str]:
        if self.budget is not None:
            return ["solve", "--input", str(input_path),
                    "--max-color-changes", str(self.budget),
                    "--emit-plot", str(out_path.with_suffix(".tsv"))]
        argv = ["sweep", "--input", str(input_path)]
        if self.plot_dir:
            argv += ["--emit-plot-dir", str(out_path)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", (500, 500), budget=50),
        Workload("sweep", (200, 200)),
        Workload("sweep-plots", (60, 60), plot_dir=True),
        Workload("oracle", (5, 4, 4)),
    )
}


def output_files(out_path: Path) -> list[Path]:
    """Plot files an op wrote: the ``solve`` plot or the plot directory's files."""
    plot = out_path.with_suffix(".tsv")
    if plot.is_file():
        return [plot]
    return sorted(out_path.iterdir()) if out_path.is_dir() else []


def digest(stdout: str, files: list[Path]) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _last_cumulative(path: Path) -> Decimal:
    last_row = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    return Decimal(last_row.split("\t", 1)[0])


def saturation_layer(curve: list[list]) -> int:
    """Smallest budget whose value already equals the curve's final value."""
    final = curve[-1][1]
    return next(k for k, value in curve if value is not None and Decimal(value) == Decimal(final))


def check(
    workload: Workload,
    records: list[Record],
    csv_text: str,
    code: int | None,
    stdout: str,
    out_path: Path,
) -> list[str]:
    """Every way the op's output is wrong; an empty list means it passed."""
    from calsched.formats import parse_instance, verify_schedule

    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(stdout)
    report = verify_schedule(parse_instance(csv_text, "csv"), [str(i) for i in doc["schedule"]])
    problems = []
    if Decimal(report["T"]) != Decimal(doc["T"]) or report["C"] != doc["C"]:
        problems.append(f"reported T/C {doc['T']}/{doc['C']}, recomputed {report['T']}/{report['C']}")
    if len(workload.counts) == 2 and not report["canonical"]:
        problems.append(f"not canonical: {report['violations']}")
    files = output_files(out_path)

    if workload.budget is not None:
        if doc["C"] > workload.budget:
            problems.append(f"C {doc['C']} exceeds budget {workload.budget}")
        if [f.name for f in files] != [out_path.with_suffix(".tsv").name]:
            problems.append("plot file missing")
        elif _last_cumulative(files[0]) != Decimal(doc["T"]):
            problems.append("plot does not end at T")
        return problems

    curve = doc["pareto"]
    values = [None if v is None else Decimal(v) for _, v in curve]
    if [k for k, _ in curve] != list(range(len(curve))):
        problems.append("curve budgets are not 0, 1, 2, ...")
    known = [v for v in values if v is not None]
    if values[len(values) - len(known):] != known or known != sorted(known, reverse=True):
        problems.append("curve is not non-increasing")
    if len(workload.counts) == 2 and values[0] is not None:
        problems.append("budget 0 is not null for two colors")
    temps = [milli for _, milli, _ in records]
    if values[-1] != milli_to_decimal(max(temps) - min(temps)):
        problems.append(f"curve tail {values[-1]} is not the temperature span")
    if Decimal(report["T"]) != values[-1]:
        problems.append(f"recomputed T {report['T']} is not the last curve value {values[-1]}")
    if doc["C"] > curve[-1][0]:
        problems.append(f"C {doc['C']} exceeds top budget {curve[-1][0]}")
    if workload.plot_dir:
        expected = [f"pareto_k{k}.tsv" for k, v in curve if v is not None]
        if sorted(f.name for f in files) != sorted(expected):
            problems.append("plot files do not match the feasible budgets")
        else:
            for k, value in enumerate(values):
                if value is not None and _last_cumulative(out_path / f"pareto_k{k}.tsv") != value:
                    problems.append(f"plot for budget {k} does not end at {value}")
    return problems
