"""Command-line interface.

Subcommands: ``solve``, ``sweep``, ``gen``, ``verify``.  Results are JSON
documents on stdout; temperatures appear as decimal strings.

Exit codes: 0 success, 1 parse/validation error, 2 infeasible budget,
3 exhaustive-search size refusal, 4 internal error (a failed self-check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import (
    Instance,
    Schedule,
    SolveResult,
    ValidationError,
    format_temperature,
    parse_temperature,
)
from .formats import (
    detect_format,
    emit_plot,
    generate_instance,
    parse_instance,
    parse_json,
    plot_svg,
    plot_tsv,
    plot_tsv_bytes,
    serialize_instance,
    verify_schedule,
)
from .oracle import OracleSizeError, brute_force_optimal
from .solver import pareto_front, shortest_schedule

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_TOO_LARGE = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; any other bytes are a ValidationError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None


def _load_instance(path: str, fmt: str | None) -> Instance:
    text = _read_text(path)
    return parse_instance(text, fmt or detect_format(text))


def _result_document(result: SolveResult, pareto: list[tuple[int, int | None]] | None = None) -> dict:
    doc: dict = {
        "schedule": list(result.schedule.expanded_ids()) if result.schedule else [],
        "T": format_temperature(result.total_change) if result.total_change is not None else None,
        "C": result.changes,
        "feasible": result.feasible,
    }
    if pareto is not None:
        doc["pareto"] = [
            [k, None if v is None else format_temperature(v)] for k, v in pareto
        ]
    return doc


def _write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` with bare system calls, which cost less
    per small file than a buffered file object."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _write_plot(schedule: Schedule, path: str) -> None:
    text = plot_svg(emit_plot(schedule)) if path.endswith(".svg") else plot_tsv(schedule)
    Path(path).write_text(text, encoding="utf-8")


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input, args.format)
    budget = args.max_color_changes
    result = shortest_schedule(instance, budget)
    # Above two colors the oracle is the solver; checking it against itself
    # proves nothing.
    if result.feasible and args.oracle_check and len(instance.colors) <= 2:
        reference = brute_force_optimal(instance, budget)
        if reference.optimal_total_change != result.total_change:
            print(
                f"oracle mismatch: solver {result.total_change}, "
                f"oracle {reference.optimal_total_change}",
                file=sys.stderr,
            )
            return EXIT_INVALID
    if args.emit_plot and result.schedule is not None:
        _write_plot(result.schedule, args.emit_plot)
    print(json.dumps(_result_document(result), indent=2))
    if not result.feasible:
        print(
            "infeasible: the color-change budget is below the minimum any "
            "schedule of this instance needs",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input, args.format)
    table, solve = pareto_front(instance)
    # The top budget is always feasible; every table ends at its optimum.
    plotted = [k for k, value in table if value is not None] if args.emit_plot_dir else []
    result, *plot_results = solve([table[-1][0], *plotted])
    if plotted:
        out_dir = Path(args.emit_plot_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Flat stretches of the curve share a schedule; format it once and
        # write its bytes to the file of each budget.
        plots: dict[tuple[str, ...], tuple[Schedule, list[int]]] = {}
        for k, plot_result in zip(plotted, plot_results):
            plots.setdefault(plot_result.schedule.order, (plot_result.schedule, []))[1].append(k)
        texts = plot_tsv_bytes([schedule for schedule, _ in plots.values()])
        for (_, budgets), data in zip(plots.values(), texts):
            for k in budgets:
                _write_bytes(out_dir / f"pareto_k{k}.tsv", data)
    print(json.dumps(_result_document(result, pareto=table), indent=2))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(
        seed=args.seed, n0=args.n0, n1=args.n1, t_min=args.t_min, t_max=args.t_max
    )
    text = serialize_instance(instance, "csv")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(instance.jobs)} jobs to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input, args.format)
    payload = parse_json(_read_text(args.schedule))
    if isinstance(payload, dict):
        ids = payload.get("schedule")
        claimed_t = payload.get("T")
        claimed_c = payload.get("C")
    else:
        ids, claimed_t, claimed_c = payload, None, None
    if not isinstance(ids, list):
        raise ValidationError("schedule file must hold an id array or a result document")
    report = verify_schedule(instance, [str(i) for i in ids])
    if claimed_t is not None:
        # T by value, so "4.0" and 4 match a cost of 4; C only as an integer.
        report["matches_claimed"] = (
            parse_temperature(claimed_t) == parse_temperature(report["T"])
            and type(claimed_c) is int
            and claimed_c == report["C"]
        )
    print(json.dumps(report, indent=2))
    if report.get("matches_claimed") is False:
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calsched",
        description="Exact bicriteria sequencing of temperature/color jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize total temperature change under a budget")
    solve.add_argument("--input", required=True)
    solve.add_argument("--max-color-changes", type=int, required=True, dest="max_color_changes")
    solve.add_argument("--format", choices=["csv", "json"])
    solve.add_argument("--emit-plot", dest="emit_plot")
    solve.add_argument("--oracle-check", action="store_true", dest="oracle_check")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="optimal value for every color-change budget")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--format", choices=["csv", "json"])
    sweep.add_argument("--emit-plot-dir", dest="emit_plot_dir")
    sweep.set_defaults(func=_cmd_sweep)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n0", type=int, required=True)
    gen.add_argument("--n1", type=int, required=True)
    gen.add_argument("--out")
    gen.add_argument("--t-min", type=int, default=1, dest="t_min")
    gen.add_argument("--t-max", type=int, default=1000, dest="t_max")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="recompute metrics for a given schedule")
    verify.add_argument("--input", required=True)
    verify.add_argument("--schedule", required=True)
    verify.add_argument("--format", choices=["csv", "json"])
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
