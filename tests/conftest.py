import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import strategies as st

import calsched
from calsched import Schedule, build_instance

# A ten-job, three-color instance whose capped optimum is known exactly
# and unique up to reversal; exercised by the exhaustive oracle.
TEN_JOB_THREE_COLOR = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (1, 1), (3, 1),
    (0, 2), (2, 2), (4, 2), (5, 2),
]

THREE_COLOR_OPTIMUM = (
    "c2t0", "c2t2", "c0t2", "c0t1", "c1t1",
    "c1t3", "c0t3", "c0t4", "c2t4", "c2t5",
)


def child_peak_rss_mb(source):
    """Peak RSS in MB of a fresh Python process that runs ``source``."""
    src = os.path.dirname(os.path.dirname(calsched.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    source = textwrap.dedent(source) + (
        "import resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    return int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux


def three_color_instance():
    return build_instance([(f"c{c}t{t}", t, c) for t, c in TEN_JOB_THREE_COLOR])


@pytest.fixture
def ten_job_three_color():
    return three_color_instance()


def make_two_color(white_temps, black_temps):
    records = [(f"w{i}", t, 0) for i, t in enumerate(white_temps, 1)]
    records += [(f"b{i}", t, 1) for i, t in enumerate(black_temps, 1)]
    return build_instance(records)


@st.composite
def two_color_instances(draw, max_jobs=8, max_temp=50):
    n = draw(st.integers(min_value=2, max_value=max_jobs))
    n0 = draw(st.integers(min_value=1, max_value=n - 1))
    temps0 = draw(
        st.lists(st.integers(1, max_temp), min_size=n0, max_size=n0, unique=True)
    )
    temps1 = draw(
        st.lists(
            st.integers(1, max_temp), min_size=n - n0, max_size=n - n0, unique=True
        )
    )
    return make_two_color(temps0, temps1)


@st.composite
def random_schedules(draw, max_jobs=8, max_temp=50):
    instance = draw(two_color_instances(max_jobs=max_jobs, max_temp=max_temp))
    jobs = draw(st.permutations(list(instance.jobs)))
    return Schedule.from_jobs(instance, jobs)


@st.composite
def job_records(draw, min_colors=1, max_colors=3, max_jobs=7, max_temp=5):
    """(id, temperature, color) records using colors 0 .. k-1, every one of
    them; equal (temperature, color) pairs are allowed and merge."""
    k = draw(st.integers(min_value=min_colors, max_value=max_colors))
    n = draw(st.integers(min_value=k, max_value=max_jobs))
    colors = list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k)
    )
    temps = draw(st.lists(st.integers(0, max_temp), min_size=n, max_size=n))
    return [(f"j{i}", t, c) for i, (t, c) in enumerate(zip(temps, colors))]
