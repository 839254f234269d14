"""Random and mutated input files and command lines for the CLI: each ends
in a defined exit code (0 done, 1 invalid, 2 infeasible, 3 too large for
exhaustive search), never in an exception."""

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calsched.cli import main

# Three colors, so solve and sweep reach the exhaustive solver; a mutation
# that drops a color sends them to the graph solver or the sorted order.
VALID_CSV = b"id,temperature,color\nw1,1.5,0\nw2,4,0\nb1,2,1\nb2,3.25,1\nr1,0,2\n"
VALID_JSON = json.dumps(
    [
        {"id": "w1", "temperature": 1.5, "color": 0},
        {"id": "w2", "temperature": "4", "color": 0},
        {"id": "b1", "temperature": 2, "color": 1},
        {"id": "b2", "temperature": "3.25", "color": "1"},
        {"id": "r1", "temperature": 0, "color": 2},
    ]
).encode()
VALID_SCHEDULE = b'{"schedule": ["w1", "w2", "b1", "b2", "r1"], "T": "9", "C": 2}'

# What a mutation writes over one piece of a valid file: separators and
# syntax over a separator, and over anything else a value, from ordinary
# to extreme.  The last four once ended in tracebacks.
SYNTAX = [b"", b",", b"\n", b"\r", b'"', b"[", b"]", b"{", b"}", b":", b" ", b"\x00", b"\xff"]
VALUES = [
    b"", b"-1", b"0", b"1.5", b"0.0001", b"7", b"null", b"true", b"nan", b"Infinity", b"9" * 40,
    b"1e-1000000000", b"1e1000000", b"1" + b"0" * 5000, b"7" * 140_000,
]
_PIECES = re.compile(rb'([,\n:{}\[\] "])')


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` with up to three of its pieces overwritten; separators are
    the odd pieces of the split."""
    pieces = _PIECES.split(base)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at] = draw(st.sampled_from(SYNTAX if at % 2 else VALUES))
    return b"".join(pieces)


INPUTS = st.one_of(st.binary(max_size=64), mutated(VALID_CSV), mutated(VALID_JSON))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["solve", "sweep", "verify"]),
    instance=INPUTS,
    schedule=st.one_of(st.just(VALID_SCHEDULE), mutated(VALID_SCHEDULE), st.binary(max_size=32)),
    budget=st.integers(-1, 5),
)
def test_cli_exits_with_a_defined_code(workdir, command, instance, schedule, budget):
    instance_path, schedule_path = workdir / "instance", workdir / "schedule"
    instance_path.write_bytes(instance)
    schedule_path.write_bytes(schedule)
    argv = [command, "--input", str(instance_path)]
    if command == "solve":
        argv += ["--max-color-changes", str(budget)]
    elif command == "verify":
        argv += ["--schedule", str(schedule_path)]
    assert run(argv) in {0, 1, 2, 3}


# Command lines from the CLI's own words: every command and option, an
# option alone, with a value after it or in --opt=value form, values from
# ordinary to extreme, and the names of valid files (the test runs inside
# the work directory, so every relative name a command writes lands there).
COMMANDS = ["solve", "sweep", "gen", "verify"]
OPTIONS = [
    "--input", "--max-color-changes", "--format", "--emit-plot", "--oracle-check",
    "--emit-plot-dir", "--seed", "--n0", "--n1", "--out", "--t-min", "--t-max",
    "--schedule", "-h", "--help",
]
ARG_VALUES = ["", "-1", "+7", "1_0", "٣", "9" * 40, "--input", "csv", "in.csv", "in.json", "schedule.json"]
PIECES = st.one_of(
    st.sampled_from(COMMANDS).map(lambda command: [command]),
    st.sampled_from(OPTIONS).map(lambda option: [option]),
    st.sampled_from(ARG_VALUES).map(lambda value: [value]),
    st.builds(lambda option, value: [option, value], st.sampled_from(OPTIONS), st.sampled_from(ARG_VALUES)),
    st.builds(lambda option, value: [f"{option}={value}"], st.sampled_from(OPTIONS), st.sampled_from(ARG_VALUES)),
)
REQUIRED = {
    "solve": ("--input", "--max-color-changes"), "sweep": ("--input",),
    "gen": ("--seed", "--n0", "--n1"), "verify": ("--input", "--schedule"),
}


@st.composite
def argvs(draw):
    """A command and a value for each of its required options among random
    pieces, in random order; or random pieces alone."""
    pieces = draw(st.lists(PIECES, max_size=4))
    command = draw(st.sampled_from([*COMMANDS, None]))
    if command is None:
        return [token for piece in pieces for token in piece]
    pieces += [[option, draw(st.sampled_from(ARG_VALUES))] for option in REQUIRED[command]]
    return [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@contextlib.contextmanager
def inside(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_with_a_defined_code(workdir, argv):
    with inside(workdir):
        for name, data in (("in.csv", VALID_CSV), ("in.json", VALID_JSON), ("schedule.json", VALID_SCHEDULE)):
            (workdir / name).write_bytes(data)
        try:
            code = run(argv)
        except SystemExit as stop:
            pytest.fail(f"SystemExit({stop.code!r}) from {argv}")
    assert code in {0, 1, 2, 3}
