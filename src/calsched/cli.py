"""Command-line interface.

Subcommands: ``solve``, ``sweep``, ``gen``, ``verify``.  Results are JSON
documents on stdout; temperatures appear as decimal strings.

Exit codes: 0 success, 1 parse/validation error, 2 infeasible budget,
3 exhaustive-search size refusal, 4 internal error (a failed self-check).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import (
    Instance,
    Schedule,
    ValidationError,
    color_changes,
    format_temperature,
)
from .formats import (
    detect_format,
    emit_plot,
    generate_instance,
    parse_instance,
    plot_svg,
    plot_tsv,
    serialize_instance,
    verify_schedule,
)
from .oracle import OracleResult, OracleSizeError, brute_force_optimal
from .oracle import pareto_front as oracle_front
from .solver import SolveResult, pareto_front, shortest_schedule

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_TOO_LARGE = 3
EXIT_INTERNAL = 4


def _load_instance(path: str, fmt: str | None) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
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


def _write_plot(schedule: Schedule, path: str) -> None:
    text = plot_svg(emit_plot(schedule)) if path.endswith(".svg") else plot_tsv(schedule)
    Path(path).write_text(text, encoding="utf-8")


def _solve_multicolor(outcome: OracleResult) -> SolveResult:
    """The answer for three or more colors: the oracle's first optimum."""
    if not outcome.feasible:
        return SolveResult(None, None, None, False)
    schedule = outcome.optimal_schedules[0]
    return SolveResult(schedule, outcome.optimal_total_change, color_changes(schedule), True)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input, args.format)
    budget = args.max_color_changes
    if len(instance.colors) > 2:
        # The oracle is the solver here; checking it against itself proves nothing.
        result = _solve_multicolor(brute_force_optimal(instance, budget))
    else:
        result = shortest_schedule(instance, budget)
        if result.feasible and args.oracle_check:
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
    if len(instance.colors) > 2:
        table, oracle_solve = oracle_front(instance)

        def solve(budgets: list[int]) -> list[SolveResult]:
            return [_solve_multicolor(oracle_solve(k)) for k in budgets]
    else:
        table, solve = pareto_front(instance)
    # The top budget is always feasible; every table ends at its optimum.
    plotted = [k for k, value in table if value is not None] if args.emit_plot_dir else []
    result, *plot_results = solve([table[-1][0], *plotted])
    if plotted:
        out_dir = Path(args.emit_plot_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Flat stretches of the curve share a schedule; format it once, and
        # each job temperature once across the plots.
        texts: dict[tuple[str, ...], str] = {}
        labels: dict[int, str] = {}
        for k, plot_result in zip(plotted, plot_results):
            schedule = plot_result.schedule
            if schedule.order not in texts:
                texts[schedule.order] = plot_tsv(schedule, labels)
            (out_dir / f"pareto_k{k}.tsv").write_text(texts[schedule.order], encoding="utf-8")
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
    payload = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
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
        report["matches_claimed"] = (
            str(claimed_t) == report["T"] and claimed_c == report["C"]
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
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
