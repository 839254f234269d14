"""calsched benchmark: CLI ops in a closed loop, plus a traced run per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Each op calls ``calsched.cli.main(argv)`` with stdout captured, in a child
forked from this process (see ``Runner``): one process at a time, one
thread, one client, no think time.  Every op
reads a freshly generated input (``inputs.py``), so ops share no work.
Timed ops run until ``--seconds`` have passed (at least ``TAIL_OPS`` of
them, and ``MIN_OPS`` with ``--seconds 0``, the quick mode).  The first op
runs again, untimed, at the end; the two outputs must hash the same.  Every
output is checked outside the timed region (``workloads.check``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics (``tracing.py``).
Human-readable lines come first; the last line is one JSON object.  The
full result, with the environment and the spans, goes to
``.perfbench/results/``.  Work files live in ``.perfbench/`` and are removed
at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from inputs import make_records, op_rng, to_csv
from tracing import COUNT_METRICS, TIME_METRICS, Tracer, leftover_wrappers
from workloads import WORKLOADS, check, digest, output_files, saturation_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 3  # timed ops per kind (untraced, traced) even when time runs out
TAIL_OPS = 11  # untraced ops a timed run makes at least, so op_s_tail has 10 beyond it
SETUP_SPAWNS = 11  # timed interpreter spawns for setup_s, after one warm-up spawn
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_CODE = "import time, calsched.cli; print(time.monotonic_ns())"


def measure_setup() -> list[float]:
    """Seconds from spawning an interpreter until ``import calsched.cli`` returns.

    The first spawn is not timed: it writes the bytecode cache, which a
    user's installation has already.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append((int(proc.stdout) - start) / 1e9)
    return times


def environment() -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        "cache_bytes": {lvl: libc.sysconf(code) for lvl, code in (("L1d", 188), ("L2", 191), ("L3", 194))},
        "rss_method": "ru_maxrss of each op's forked process, from os.wait4",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Generates, runs and checks the ops of one workload.

    Each op runs in a child forked from this process once ``calsched`` is
    imported, so every op starts from the allocator state a fresh CLI
    process has after import.  Run in this process one after another, ops
    would inherit the heap the previous op left, and whether numpy's
    arrays page-fault afresh would depend on that history: per-run medians
    of ``sweep`` split between about 0.6 s and 0.9 s.  Only one process
    runs at a time; the parent waits.
    """

    def __init__(self, workload, seed: int, work: Path, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.failures: list[str] = []
        self.peak_rss_kib = 0

    def op(self, i: int, traced: bool = False) -> tuple[float, str, dict]:
        """Run op ``i``; returns its wall time, output digest and output document."""
        records = make_records(op_rng(self.workload.name, self.seed, i), self.workload.counts)
        csv_text = to_csv(records)
        input_path = self.work / f"op{i}.csv"
        out_path = self.work / f"op{i}"
        input_path.write_text(csv_text, encoding="utf-8")
        gc.collect()
        result = self._forked(self.workload.argv(input_path, out_path), i, traced)
        stdout = result["stdout"]
        try:
            problems = check(self.workload, records, csv_text, result["code"], stdout, out_path)
        except Exception as exc:  # e.g. a schedule that is not a permutation
            problems = [f"check raised {exc!r}"]
        if traced:
            self.tracer.spans += result["spans"]
            self.tracer.counts[i] = Counter(result["counts"])
            if result["leftover"]:
                problems.append(f"trace wrappers left installed: {result['leftover']}")
        if problems:
            self.failures.append(f"op {i}: {'; '.join(problems)} {result['stderr'].strip()}")
        doc = {} if problems else json.loads(stdout)
        op_digest = digest(stdout, output_files(out_path))
        input_path.unlink()
        shutil.rmtree(out_path, ignore_errors=True)
        out_path.with_suffix(".tsv").unlink(missing_ok=True)
        return result["elapsed"], op_digest, doc

    def _forked(self, argv: list[str], i: int, traced: bool) -> dict:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(self._child(argv, i, traced), pipe)
                status = 0
            except BaseException:  # the child must never return into the parent's loop
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            text = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        if status != 0:
            raise RuntimeError(f"op {i}: child exited with status {status}")
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return json.loads(text)

    def _child(self, argv: list[str], i: int, traced: bool) -> dict:
        import calsched.cli

        tracer = self.tracer if traced else None
        first_span = len(tracer.spans) if tracer else 0
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), (tracer.tracing(i) if tracer else nullcontext()):
            start = time.perf_counter_ns()
            try:
                code = calsched.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
                code = None
                print(repr(exc), file=sys.stderr)
            elapsed = (time.perf_counter_ns() - start) / 1e9
        result = {"elapsed": elapsed, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if tracer:
            result.update(spans=tracer.spans[first_span:], counts=tracer.counts[i], leftover=leftover_wrappers())
        return result


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    With fewer than 11 samples the maximum is reported, with 0 beyond.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100 * rank / len(ordered), len(ordered) - rank


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str], dict]:
    """Returns the result object, the human-readable lines and the full record."""
    workload = WORKLOADS[workload_name]
    lines = []
    record: dict = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    setup = [] if trace else measure_setup()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, work, tracer)
    untraced: list[float] = []
    traced: dict[int, float] = {}
    saturation: dict[int, int | None] = {}
    digests: dict[int, str] = {}
    try:
        deadline = time.monotonic() + seconds
        i = 1
        min_untraced = TAIL_OPS if seconds and not trace else MIN_OPS
        while len(untraced) < min_untraced or (trace and len(traced) < MIN_OPS) or time.monotonic() < deadline:
            traced_op = trace and i % 2 == 0
            elapsed, digests[i], doc = runner.op(i, traced_op)
            if "pareto" in doc:
                saturation[i] = saturation_layer(doc["pareto"])
            if traced_op:
                traced[i] = elapsed
                tracer.finish_op(i, saturation.get(i))
            else:
                untraced.append(elapsed)
            i += 1
        _, replay, _ = runner.op(1)
        if replay != digests[1]:
            runner.failures.append("op 1: output digest differs on replay")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(untraced) + len(traced) + 1
    failed = len(runner.failures)
    record.update(
        env=environment(),
        merged_jobs=list(workload.counts),
        saturation_layers=saturation,
        digest=digests[1],
        op_seconds=untraced,
        failures=runner.failures,
        fail_ratio=failed / attempted,
    )
    lines.append(
        f"workload {workload_name}  seed {seed}  merged jobs {'+'.join(map(str, workload.counts))}"
        f"  ops {attempted} ({len(untraced)} untraced, {len(traced)} traced, 1 replay)"
    )
    lines.append(f"env {json.dumps(record['env'], sort_keys=True)}")
    if saturation:
        lines.append(f"saturation layer per op: median {statistics.median(v for v in saturation.values())}")
    lines.append(f"digest {digests[1]}")
    lines += [f"FAILED {f}" for f in runner.failures]
    lines.append(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    p50 = statistics.median(untraced)
    if trace:
        count_ops = sorted(traced)[:MIN_OPS]
        units = dict.fromkeys(TIME_METRICS, "s") | {m: unit for m, (unit, _) in COUNT_METRICS.items()}
        metrics = {m: (v, units[m]) for m, v in tracer.summary(count_ops).items()}
        metrics["trace.overhead_s"] = (statistics.median(traced.values()) - p50, "s")
        record.update(spans=tracer.spans, traced_op_seconds=traced, unwrapped=tracer.missing)
        for name, (value, unit) in metrics.items():
            how = COUNT_METRICS[name][1] if name in COUNT_METRICS else f"median of {len(traced)} traced ops"
            lines.append(f"{name:28s} {value:14.6g} {unit:6s} per op; {how}")
    else:
        tail_value, tail_pct, beyond = tail(untraced)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s_p50": (p50, "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (runner.peak_rss_kib / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} spawns",
            "op_s_p50": f"median of {len(untraced)} ops",
            "op_s_tail": f"p{tail_pct:.1f} of {len(untraced)} ops, {beyond} beyond it",
            "peak_rss_mb": "largest over the op processes",
        }
        record["setup_seconds"] = setup
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:12s} {value:12.6f} {unit:3s} {notes[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="0 runs only MIN_OPS ops (quick mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "calsched" / "cli.py").is_file():
        print(f"error: no calsched sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads; set-up spawns inherit them
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import calsched

    if Path(calsched.__file__).resolve().parent != SRC / "calsched":
        print(f"error: imported calsched from {calsched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record | {"result": result}), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
