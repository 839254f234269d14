"""Seeded instance generator for the benchmark, built on stdlib ``random`` only.

Inputs never come from ``calsched.generate_instance``: a change to the
library's generator must not change what the benchmark measures.
Temperatures are kept as integer thousandths, carry three decimals in the
CSV the program reads, and are distinct within each color, so every job is
its own merged job.
"""

from __future__ import annotations

import random
from decimal import Decimal

T_MAX_MILLI = 1_000_000  # temperatures lie in [0, 1000.000]

Record = tuple[str, int, int]  # (id, temperature in thousandths, color)


def op_rng(workload: str, seed: int, op: int) -> random.Random:
    """Generator for one op's input; a string seed hashes the same on every run."""
    return random.Random(f"{workload}/{seed}/{op}")


def make_records(rng: random.Random, counts: tuple[int, ...]) -> list[Record]:
    """``counts[c]`` jobs of color ``c``, in shuffled file order."""
    records: list[Record] = []
    for color, count in enumerate(counts):
        for i, milli in enumerate(rng.sample(range(T_MAX_MILLI + 1), count)):
            records.append((f"c{color}j{i}", milli, color))
    rng.shuffle(records)
    return records


def milli_to_text(milli: int) -> str:
    return f"{milli // 1000}.{milli % 1000:03d}"


def milli_to_decimal(milli: int) -> Decimal:
    return Decimal(milli).scaleb(-3)


def to_csv(records: list[Record]) -> str:
    lines = ["id,temperature,color"]
    lines += [f"{job_id},{milli_to_text(milli)},{color}" for job_id, milli, color in records]
    return "\n".join(lines) + "\n"
