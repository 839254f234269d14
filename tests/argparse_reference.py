"""The argparse parser the CLI used before its option table, kept as the
reference that ``cli._parse`` is checked against.

It is the old ``build_parser()`` unchanged except for ``allow_abbrev=False``
on every parser: the table parser accepts no unique-prefix abbreviations.
"""

import argparse

from calsched.cli import _cmd_gen, _cmd_solve, _cmd_sweep, _cmd_verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calsched",
        description="Exact bicriteria sequencing of temperature/color jobs",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize total temperature change under a budget", allow_abbrev=False)
    solve.add_argument("--input", required=True)
    solve.add_argument("--max-color-changes", type=int, required=True, dest="max_color_changes")
    solve.add_argument("--format", choices=["csv", "json"])
    solve.add_argument("--emit-plot", dest="emit_plot")
    solve.add_argument("--oracle-check", action="store_true", dest="oracle_check")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="optimal value for every color-change budget", allow_abbrev=False)
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--format", choices=["csv", "json"])
    sweep.add_argument("--emit-plot-dir", dest="emit_plot_dir")
    sweep.set_defaults(func=_cmd_sweep)

    gen = sub.add_parser("gen", help="generate a random instance", allow_abbrev=False)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n0", type=int, required=True)
    gen.add_argument("--n1", type=int, required=True)
    gen.add_argument("--out")
    gen.add_argument("--t-min", type=int, default=1, dest="t_min")
    gen.add_argument("--t-max", type=int, default=1000, dest="t_max")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="recompute metrics for a given schedule", allow_abbrev=False)
    verify.add_argument("--input", required=True)
    verify.add_argument("--schedule", required=True)
    verify.add_argument("--format", choices=["csv", "json"])
    verify.set_defaults(func=_cmd_verify)

    return parser
