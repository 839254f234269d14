import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calsched

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A copy, so any file the demo writes next to itself lands in tmp_path.
    script = shutil.copy(demo, tmp_path)
    src = os.path.dirname(os.path.dirname(calsched.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, script],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
