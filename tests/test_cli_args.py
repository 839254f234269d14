"""The CLI's option table reads command lines as the argparse parser it
replaced did (``argparse_reference``), which accepted no abbreviations
either; a usage error exits 1 with nothing on stdout."""

import contextlib
import io

import pytest

from argparse_reference import build_parser
from calsched import cli


def reference(argv):
    """The reference parser's values for ``argv``, without its handler."""
    values = vars(build_parser().parse_args(argv))
    del values["func"]
    return values


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


VALID = [
    # solve: both value forms, the last occurrence winning, signed and
    # underscored integers, a switch, and "-" and "" as values.
    ["solve", "--input", "a.csv", "--max-color-changes", "3"],
    ["solve", "--input=a.csv", "--max-color-changes=3"],
    ["solve", "--max-color-changes", "+7", "--input", "-"],
    ["solve", "--input", "", "--max-color-changes", "1_000"],
    ["solve", "--input", "a", "--max-color-changes", "-5"],
    ["solve", "--input=", "--max-color-changes=-5", "--oracle-check", "--oracle-check"],
    ["solve", "--input", "a", "--input", "b", "--max-color-changes", "1", "--max-color-changes", "2"],
    ["solve", "--input", "a", "--max-color-changes", "0", "--format", "json", "--emit-plot", "p.svg"],
    ["solve", "--input", "a", "--max-color-changes", " 4 ", "--format=csv", "--emit-plot=-"],
    ["solve", "--input", "-5", "--max-color-changes", "٣", "--emit-plot", "-.5"],
    ["solve", "--input", "a b", "--max-color-changes", "9" * 40, "--emit-plot", "--foo=a b"],
    # sweep
    ["sweep", "--input", "a.csv"],
    ["sweep", "--input=a.csv", "--format", "json", "--emit-plot-dir", "plots"],
    ["sweep", "--emit-plot-dir=", "--input", "-", "--format=csv", "--format=json"],
    # gen: the --t-min and --t-max defaults, and each overridden
    ["gen", "--seed", "7", "--n0", "6", "--n1", "5"],
    ["gen", "--seed=-1", "--n0=0", "--n1=+2", "--out", "jobs.csv"],
    ["gen", "--seed", "7", "--n0", "6", "--n1", "5", "--t-min", "-3", "--t-max=1_0"],
    ["gen", "--n1", "5", "--n0", "6", "--seed", "7", "--seed", "8", "--out=", "--out", "-"],
    # verify
    ["verify", "--input", "a.csv", "--schedule", "r.json"],
    ["verify", "--schedule=r.json", "--input=-", "--format", "json"],
    ["verify", "--input", "", "--schedule", "", "--schedule", "s"],
]

INVALID = [
    ["solve", "--input", "a.csv"],  # a required option missing
    ["gen", "--seed", "1", "--n0", "2"],
    ["sweep", "--input", "a", "--bogus", "1"],  # an unknown option
    ["sweep", "--input", "a", "--emit-plot", "p"],  # another command's option
    ["sweep", "--inp", "a"],  # an abbreviation
    ["solve", "--input", "a", "--max-color-changes", "x"],  # a bad integer
    ["solve", "--input", "a", "--max-color-changes", "1.5"],
    ["gen", "--seed", "", "--n0", "1", "--n1", "1"],
    ["sweep", "--input", "a", "--format", "xml"],  # a bad choice
    ["sweep", "--input", "a", "--format=CSV"],
    ["sweep", "--input"],  # a value missing at the end
    ["solve", "--input", "a", "--max-color-changes"],
    ["solve", "--input", "--max-color-changes", "1"],  # an option where a value belongs
    ["solve", "--input", "-x", "--max-color-changes", "1"],
    ["solve", "--emit-plot", "--input=a", "--max-color-changes", "1"],
    ["solve", "--input", "a", "--max-color-changes", "-1e5"],
    ["solve", "--input", "a", "--max-color-changes", "1", "--oracle-check=x"],
    ["sweep", "--input", "a", "extra"],  # a stray value
    ["sweep", "--input", "a", "--"],
    [],  # no command
    ["--input", "a"],
    ["bogus"],  # an unknown command
    ["solv", "--input", "a", "--max-color-changes", "1"],
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_reads_as_the_reference_reads_it(argv):
    assert vars(cli._parse(argv)) == reference(argv)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_argv_exits_1_where_the_reference_exits_2(argv):
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as stop:
        reference(argv)
    assert stop.value.code == 2
    code, out, err = run(argv)
    assert (code, out) == (cli.EXIT_INVALID, "")
    error, usage = err.splitlines()
    assert error.startswith("error: ") and usage.startswith("usage: calsched")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help", "solve"], ["solve", "-h"], ["gen", "--seed", "1", "--help"], ["sweep", "--bogus", "-h"]],
    ids=" ".join,
)
def test_help_anywhere_prints_usage_and_exits_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as stop:
        reference(argv)
    assert stop.value.code == 0 and out.getvalue().startswith("usage: calsched")
    code, out, err = run(argv)
    assert code == cli.EXIT_OK and out.startswith("usage: calsched") and err == ""
    names = cli._COMMANDS[argv[0]].options if argv[0] in cli._COMMANDS else cli._COMMANDS
    for flag in names:
        assert flag in out
