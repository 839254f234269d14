"""The library reads no environment variable: every size limit and every
choice comes from the input or a command-line option, so no hidden knob
can change what a command does."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "calsched").glob("*.py"))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    """Line numbers of ``os.environ``-style attribute reads and of
    ``from os import environ``-style imports."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines.extend(node.lineno for alias in node.names if alias.name in ENV_NAMES)
    return sorted(lines)


def test_sources_are_found():
    assert {"cli.py", "oracle.py", "solver.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _env_reads(tree) == [], f"{path.name} reads the environment"


def test_the_check_sees_each_form():
    source = "import os\nos.environ.get('A')\nos.getenv('B')\nfrom os import environ\n"
    assert _env_reads(ast.parse(source)) == [2, 3, 4]
