"""Command-line interface.

Subcommands: ``solve``, ``sweep``, ``gen``, ``verify``.  Results are JSON
documents on stdout; temperatures appear as decimal strings.

Options come from one table, ``_COMMANDS``, and read as argparse read them:
``--opt value`` or ``--opt=value``, the last occurrence winning, integers
through ``int()``.  Abbreviated options are not accepted.  ``-h`` or
``--help`` prints usage on stdout.  A usage error prints one ``error:``
line and the command's usage line on stderr.  ``main`` returns an exit code
for every argv; it never raises ``SystemExit``.

Exit codes: 0 success or help, 1 usage, parse or validation error,
2 infeasible budget, 3 exhaustive-search size refusal, 4 internal error
(a failed self-check).
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    if path.endswith(".svg"):
        data = plot_svg(emit_plot(schedule)).encode()
    else:
        data = next(plot_tsv_bytes([schedule]))
    _write_bytes(Path(path), data)


def _cmd_solve(args: SimpleNamespace) -> int:
    instance = _load_instance(args.input, args.format)
    budget = args.max_color_changes
    result = shortest_schedule(instance, budget)
    # Above two colors the oracle is the solver; checking it against itself
    # proves nothing.  Only the totals are compared, so one optimum will do.
    if result.feasible and args.oracle_check and len(instance.colors) <= 2:
        reference = brute_force_optimal(instance, budget, schedule_cap=1)
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


def _cmd_sweep(args: SimpleNamespace) -> int:
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


def _cmd_gen(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
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


class _Option(NamedTuple):
    """One option of a command: the attribute it sets, the converter of its
    value (None for a switch, which takes no value), and its rules."""

    dest: str
    convert: Callable[[str], object] | None = str
    required: bool = False
    choices: tuple[str, ...] | None = None
    default: object = None


class _Command(NamedTuple):
    help: str
    options: dict[str, _Option]


_FORMAT = _Option("format", choices=("csv", "json"))

# Every command and its options by flag.  A command's handler is the
# ``_cmd_`` function of its name, looked up when it runs, so a wrapper put
# over a handler in this module's namespace is the one called.
_COMMANDS = {
    "solve": _Command("minimize total temperature change under a budget", {
        "--input": _Option("input", required=True),
        "--max-color-changes": _Option("max_color_changes", int, required=True),
        "--format": _FORMAT,
        "--emit-plot": _Option("emit_plot"),
        "--oracle-check": _Option("oracle_check", None, default=False),
    }),
    "sweep": _Command("optimal value for every color-change budget", {
        "--input": _Option("input", required=True),
        "--format": _FORMAT,
        "--emit-plot-dir": _Option("emit_plot_dir"),
    }),
    "gen": _Command("generate a random instance", {
        "--seed": _Option("seed", int, required=True),
        "--n0": _Option("n0", int, required=True),
        "--n1": _Option("n1", int, required=True),
        "--out": _Option("out"),
        "--t-min": _Option("t_min", int, default=1),
        "--t-max": _Option("t_max", int, default=1000),
    }),
    "verify": _Command("recompute metrics for a given schedule", {
        "--input": _Option("input", required=True),
        "--schedule": _Option("schedule", required=True),
        "--format": _FORMAT,
    }),
}

# What argparse reads as a negative number, hence as a value, and as a help
# request: -h, --help, and -h followed by more h's, with or without an "=".
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match
_HELP = re.compile(r"--help|-h(?:=?h+)?").fullmatch


class _Usage(Exception):
    """A help request (``error`` None) or a malformed command line; ``command``
    is None until the command is known."""

    def __init__(self, command: str | None, error: str | None = None) -> None:
        self.command, self.error = command, error


def _is_option(token: str, options: dict[str, _Option]) -> bool:
    """Whether argparse would read ``token`` as an option, not as a value."""
    if token[:1] != "-" or token == "-":
        return False
    name = token.partition("=")[0]
    if name in options or name == "--help" or token.startswith("-h"):
        return True
    return not (_NEGATIVE_NUMBER(token) or " " in token)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and option values of ``argv``, as argparse read them:
    ``--opt value`` or ``--opt=value``, the last occurrence winning, and a
    missing value wherever the next token reads as an option.  Unlike
    argparse, it accepts no abbreviated option.  Raises ``_Usage``."""
    command: str | None = None
    options: dict[str, _Option] = {}
    args = SimpleNamespace()
    extras = []  # reported after a later -h has had its chance, as argparse does
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":  # argparse takes every later token as a value no option reads
            extras += argv[i - 1 :]
            break
        if not _is_option(token, options):
            if command is not None:
                extras.append(token)
            elif token in _COMMANDS:
                command, options = token, _COMMANDS[token].options
                args = SimpleNamespace(command=command, **{o.dest: o.default for o in options.values()})
            else:
                raise _Usage(None, f"invalid command {token!r} (choose from {', '.join(_COMMANDS)})")
            continue
        name, eq, value = token.partition("=")
        if name == "--help" or token.startswith("-h"):
            if _HELP(token):
                raise _Usage(command)
            raise _Usage(command, f"-h/--help takes no value: {token!r}")
        option = options.get(name)
        if option is None:
            extras.append(token)
            continue
        if option.convert is None:
            if eq:
                raise _Usage(command, f"{name} takes no value: {token!r}")
            value = True
        else:
            if not eq:
                if i == len(argv) or _is_option(argv[i], options):
                    raise _Usage(command, f"{name} expects a value")
                value = argv[i]
                i += 1
            try:
                value = option.convert(value)
            except ValueError:
                raise _Usage(command, f"{name}: not an integer: {value!r}") from None
            if option.choices and value not in option.choices:
                raise _Usage(command, f"{name}: {value!r} is not one of {', '.join(option.choices)}")
        setattr(args, option.dest, value)
    if command is None:
        raise _Usage(None, f"a command is required (one of {', '.join(_COMMANDS)})")
    if extras:
        raise _Usage(command, f"unrecognized arguments: {' '.join(map(repr, extras))}")
    missing = [flag for flag, o in options.items() if o.required and getattr(args, o.dest) is None]
    if missing:
        raise _Usage(command, f"required: {', '.join(missing)}")
    return args


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: calsched [-h] {{{','.join(_COMMANDS)}}} ..."
    words = []
    for flag, option in _COMMANDS[command].options.items():
        if option.convert is not None:
            flag += " {" + ",".join(option.choices) + "}" if option.choices else " " + option.dest.upper()
        words.append(flag if option.required else f"[{flag}]")
    return f"usage: calsched {command} [-h] {' '.join(words)}"


def _help(command: str | None) -> str:
    if command is not None:
        return f"{_usage(command)}\n\n{_COMMANDS[command].help}"
    lines = [f"  {name:8}{spec.help}" for name, spec in _COMMANDS.items()]
    return "\n".join([
        _usage(None), "", "Exact bicriteria sequencing of temperature/color jobs", "", "commands:", *lines,
        "", "calsched COMMAND -h lists the options of a command.",
    ])


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as stop:
        if stop.error is None:
            print(_help(stop.command))
            return EXIT_OK
        print(f"error: {stop.error}\n{_usage(stop.command)}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return globals()[f"_cmd_{args.command}"](args)
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
