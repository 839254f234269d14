"""Instance ingestion, serialization, plot data, and random generation.

Interchange formats:

* CSV: ``id,temperature,color`` rows (UTF-8, LF); line 1 may be a
  header, which has a temperature that is not a number and a color that
  is not an integer.
* JSON: array of ``{"id", "temperature", "color"}`` objects.
* Plot TSV: ``cumulative<TAB>temperature<TAB>color<TAB>id`` rows in the
  paper-style cumulative-temperature layout: the running total change is
  the x coordinate, the job temperature the y coordinate.  Plots of one
  instance are built as UTF-8 bytes from numpy columns, a chunk of
  schedules at a time (:func:`plot_tsv_bytes`); :func:`plot_tsv` is the
  one-schedule call and :func:`emit_plot` reads the same columns.

Temperatures are serialized as decimal strings with at most three
fractional digits so parse/serialize roundtrips are bit-exact.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .core import (
    MAGNITUDE_LIMIT,
    SCALE,
    Instance,
    Job,
    Schedule,
    ValidationError,
    build_instance,
    color_changes,
    format_temperature,
    parse_record,
    total_temperature_change,
)
from .transforms import check_canonical_form


def detect_format(text: str) -> str:
    stripped = text.lstrip()
    return "json" if stripped.startswith(("[", "{")) else "csv"


def _parses(convert: type, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _is_header(row: list[str]) -> bool:
    """A first row is a header only when it has three fields, a temperature
    that is not a number and a color that is not an integer."""
    return len(row) == 3 and not _parses(float, row[1]) and not _parses(int, row[2])


def parse_instance(text: str, fmt: str) -> Instance:
    """Parse instance text in the given format (``csv`` or ``json``)."""
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValidationError(f"unknown format {fmt!r}")


def _parse_csv(text: str) -> Instance:
    records = []
    line_nos = []
    reader = csv.reader(io.StringIO(text))
    try:
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and _is_header(row):
                continue
            if len(row) != 3:
                raise ValidationError(
                    f"line {line_no}: expected 3 fields (id,temperature,color), got {len(row)}"
                )
            records.append((row[0].strip(), row[1].strip(), row[2].strip()))
            line_nos.append(line_no)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    try:
        return build_instance(records)
    except ValidationError:
        # Name the first line whose own fields are bad, if one is; errors of
        # the instance as a whole have no line.
        for line_no, record in zip(line_nos, records):
            try:
                parse_record(*record)
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None
        raise


def parse_json(text: str) -> object:
    """``json.loads``, with malformed or too deeply nested JSON, or an
    integer too long for ``int``, as a ValidationError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    except ValueError:  # int() of a number past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"invalid JSON: integer with more than {limit:,} digits") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None


def _parse_json(text: str) -> Instance:
    data = parse_json(text)
    if not isinstance(data, list):
        raise ValidationError("JSON instance must be an array of job objects")
    records = []
    for idx, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValidationError(f"record {idx}: expected an object")
        missing = {"id", "temperature", "color"} - item.keys()
        if missing:
            raise ValidationError(f"record {idx}: missing fields {sorted(missing)}")
        records.append((item["id"], item["temperature"], item["color"]))
    return build_instance(records)


def serialize_instance(instance: Instance, fmt: str = "csv") -> str:
    """Serialize with merged duplicates expanded back to one row per job."""
    rows = []
    for job in instance.jobs:
        for member in job.members:
            rows.append((member, format_temperature(job.temperature), job.color))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "temperature", "color"])
        writer.writerows(rows)
        return out.getvalue()
    if fmt == "json":
        return json.dumps(
            [
                {"id": job_id, "temperature": temp, "color": color}
                for job_id, temp, color in rows
            ],
            indent=2,
        )
    raise ValidationError(f"unknown format {fmt!r}")


@dataclass(frozen=True)
class PlotRow:
    cumulative: int  # scaled
    temperature: int  # scaled
    color: int
    job_id: str


def _members(instance: Instance) -> list[tuple[Job, str]]:
    """Every expanded job as ``(merged job, member id)``, numbered in
    ``instance.jobs`` order with each job's members in order."""
    return [(job, member) for job in instance.jobs for member in job.members]


def _plot_columns(
    instance: Instance, orders: Sequence[tuple[str, ...]], step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Cumulative change and member number (see :func:`_members`) of each
    expanded job of ``step`` orders of ``instance``'s merged jobs at a
    time, as two flat arrays that run through the orders in turn.

    The cumulative change is ``cumsum(abs(diff(temperatures)))`` along each
    order.  Members of a merged job share its temperature, so they repeat
    its cumulative change and add none.
    """
    jobs = instance.jobs
    position = {job.id: index for index, job in enumerate(jobs)}
    temperatures = np.array([job.temperature for job in jobs], np.int64)
    counts = np.array([job.multiplicity for job in jobs], np.intp)
    firsts = counts.cumsum() - counts
    total = instance.total_jobs
    for start in range(0, len(orders), step):
        chunk = orders[start : start + step]
        picked = np.fromiter(
            chain.from_iterable(map(position.__getitem__, order) for order in chunk),
            np.intp,
            len(chunk) * len(jobs),
        )
        ordered = temperatures[picked].reshape(len(chunk), -1)
        steps = np.abs(ordered[:, 1:] - ordered[:, :-1])
        cumulative = np.zeros(ordered.shape, np.int64)
        steps.cumsum(axis=1, out=cumulative[:, 1:])
        repeats = counts[picked]
        # The members of a job placed at expanded position p count up from
        # its first member number: member = p - p0 + first.
        shift = firsts[picked] - (repeats.cumsum() - repeats)
        member = np.arange(len(chunk) * total) + shift.repeat(repeats)
        yield cumulative.ravel().repeat(repeats), member


def emit_plot(schedule: Schedule) -> list[PlotRow]:
    """Cumulative-change plot series, one row per expanded job."""
    members = _members(schedule.instance)
    cumulative, member = next(_plot_columns(schedule.instance, [schedule.order], 1))
    return [
        PlotRow(x, job.temperature, job.color, job_id)
        for x, (job, job_id) in zip(cumulative.tolist(), map(members.__getitem__, member.tolist()))
    ]


_PLOT_HEADER = b"cumulative_T\ttemperature\tcolor\tid\n"

# Plot rows formatted at a time, so a sweep never holds the text of all its
# plots at once.  Larger chunks spread the array calls over more rows, but
# their temporaries (some 600 bytes a row) stop fitting in reused heap
# memory: at 2048 rows a 60+60 sweep formatted slower than at 512.
_CHUNK_ROWS = 512


def _segments(pieces: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``pieces`` as one byte buffer, with the start and length of each."""
    lengths = np.fromiter(map(len, pieces), np.intp, len(pieces))
    return np.frombuffer(b"".join(pieces), np.uint8), lengths.cumsum() - lengths, lengths


def _gather(buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The segments ``buffer[start : start + length]``, concatenated."""
    ends = lengths.cumsum()
    index = (starts - ends + lengths).repeat(lengths)
    index += np.arange(len(index))
    return buffer[index]


# Digit place values; a scaled value below 2**63 has at most 19 digits.
_POWERS = np.array([10**k for k in range(19)], np.int64)

# format_temperature's text after the whole part, by thousandths: "" for
# 0, ".5" for 500, ".125" for 125; as bytes padded with NUL, and its length.
_FRACTION_TEXT = np.array([format_temperature(f)[1:] for f in range(SCALE)], "S4")
_FRACTION_TEXT = _FRACTION_TEXT.view(np.uint8).reshape(SCALE, 4)
_FRACTION_LENGTHS = np.count_nonzero(_FRACTION_TEXT, axis=1)


def _rows(
    cumulative: np.ndarray, member: np.ndarray, tails: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Plot rows as one byte array, and the end of each row in it.

    Row ``r`` is ``cumulative[r]`` in :func:`~calsched.core.format_temperature`'s
    text, then the tail of member ``member[r]`` (``tails`` as
    :func:`_segments` gives them).  Row ``r`` of ``numbers`` holds the
    digits of the value's whole part, right-aligned, then the padded
    text of its fraction; the value's text runs from the first digit to
    the end of that text.
    """
    whole = cumulative // SCALE
    fraction = cumulative - SCALE * whole
    width = len(str(int(whole.max())))
    # Quotients by 10**(width - 1), ..., 10, 1; each ends in one digit.
    quotients = whole[:, None] // _POWERS[width - 1 :: -1]
    whole_digits = 1 + np.minimum(quotients[:, :-1], 1).sum(axis=1)
    quotients[:, 1:] -= 10 * quotients[:, :-1]
    numbers = np.empty((len(cumulative), width + 4), np.uint8)
    numbers[:, :width] = quotients + ord("0")
    numbers[:, width:] = _FRACTION_TEXT[fraction]
    tail_text, tail_starts, tail_lengths = tails
    starts = np.empty((len(cumulative), 2), np.intp)
    lengths = np.empty_like(starts)
    starts[:, 0] = np.arange(width, numbers.size, width + 4) - whole_digits
    starts[:, 1] = tail_starts[member] + numbers.size
    lengths[:, 0] = whole_digits + _FRACTION_LENGTHS[fraction]
    lengths[:, 1] = tail_lengths[member]
    text = _gather(np.concatenate([numbers.ravel(), tail_text]), starts.ravel(), lengths.ravel())
    return text, (lengths[:, 0] + lengths[:, 1]).cumsum()


def plot_tsv_bytes(schedules: Sequence[Schedule]) -> Iterator[bytes]:
    """UTF-8 plot TSV of each of ``schedules``, all of one instance, in order.

    Chunks of schedules are turned into columns in one array pass
    (:func:`_plot_columns`) and into text in another (:func:`_rows`).
    Each expanded job's row ends in a precomputed tail: a tab, its job's
    temperature, color and its id, tab-separated, and a newline.  Each
    distinct job temperature is formatted once.
    """
    if not schedules:
        return
    instance = schedules[0].instance
    members = _members(instance)
    labels = {t: format_temperature(t) for t in {job.temperature for job, _ in members}}
    tails = _segments(
        [f"\t{labels[job.temperature]}\t{job.color}\t{job_id}\n".encode() for job, job_id in members]
    )
    rows = len(members)
    orders = [schedule.order for schedule in schedules]
    for cumulative, member in _plot_columns(instance, orders, max(1, _CHUNK_ROWS // rows)):
        text, row_ends = _rows(cumulative, member, tails)
        ends = row_ends[rows - 1 :: rows].tolist()
        for begin, end in zip([0, *ends], ends):
            yield _PLOT_HEADER + text[begin:end].tobytes()


def plot_tsv(schedule: Schedule) -> str:
    """Plot TSV text of ``schedule``, one line per expanded job."""
    return next(plot_tsv_bytes([schedule])).decode()


_SVG_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#b279a2", "#eeca3b", "#9d755d",
)
_SVG_WIDTH, _SVG_HEIGHT = 800, 400


def plot_svg(rows: list[PlotRow]) -> str:
    """Minimal standalone SVG rendering of a plot series."""
    from html import escape  # imported here: it takes about 2 ms, which no other output needs

    pad = 40
    xs = [row.cumulative for row in rows]
    ys = [row.temperature for row in rows]
    x_hi = max(xs) or 1
    y_lo, y_hi = min(ys), max(ys)
    y_range = (y_hi - y_lo) or 1

    def px(x: int) -> float:
        return pad + (_SVG_WIDTH - 2 * pad) * x / x_hi

    def py(y: int) -> float:
        return _SVG_HEIGHT - pad - (_SVG_HEIGHT - 2 * pad) * (y - y_lo) / y_range

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="#888" stroke-width="1.5"/>',
    ]
    for row in rows:
        fill = _SVG_PALETTE[row.color % len(_SVG_PALETTE)]
        parts.append(
            f'<circle cx="{px(row.cumulative):.1f}" cy="{py(row.temperature):.1f}" '
            f'r="4" fill="{fill}"><title>{escape(row.job_id, quote=False)}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def generate_instance(
    seed: int,
    n0: int,
    n1: int,
    t_min: int = 1,
    t_max: int = 1000,
) -> Instance:
    """Random two-color instance with distinct per-color integer temperatures.

    Deterministic for a fixed seed.  Raises when the range cannot host the
    requested number of distinct values.
    """
    if n0 < 0 or n1 < 0 or n0 + n1 == 0:
        raise ValidationError("need a positive number of jobs")
    if t_min < 0 or t_max < t_min:
        raise ValidationError("invalid temperature range")
    span = t_max - t_min + 1
    if max(n0, n1) > span:
        raise ValidationError(
            f"range [{t_min}, {t_max}] too small for {max(n0, n1)} distinct temperatures"
        )
    # The instance check would refuse every draw: even the coolest one has
    # n0 + n1 jobs and a hottest temperature of t_min + max(n0, n1) - 1.
    # Refuse before drawing, which for a huge count would never end.
    if (n0 + n1) * (t_min + max(n0, n1) - 1) * SCALE > MAGNITUDE_LIMIT:
        raise ValidationError(
            f"temperatures too large: {n0 + n1} jobs times a highest temperature of at "
            f"least {t_min + max(n0, n1) - 1} exceeds {format_temperature(MAGNITUDE_LIMIT)}"
        )
    rng = random.Random(seed)
    records = []
    for color, count, prefix in ((0, n0, "w"), (1, n1, "b")):
        chosen: set[int] = set()
        for i in range(count):
            while True:
                value = rng.randint(t_min, t_max)
                if value not in chosen:
                    chosen.add(value)
                    break
            records.append((f"{prefix}{i + 1}", value, color))
    return build_instance(records)


def verify_schedule(instance: Instance, ids: list[str]) -> dict:
    """Recompute metrics for an externally supplied id sequence.

    The sequence must cover every expanded job id exactly once.  Metrics
    come from the expanded job sequence, one job per id; the
    canonical-form report groups consecutive equal jobs back together.
    """
    member_map: dict[str, Job] = {m: job for job in instance.jobs for m in job.members}
    if len(ids) != len(member_map) or set(ids) != member_map.keys():
        raise ValidationError("schedule does not cover the instance's jobs exactly once")
    expanded = [member_map[i] for i in ids]
    # Group members of one merged job back together when they are adjacent.
    merged_order: list[str] = []
    for job in expanded:
        if not merged_order or merged_order[-1] != job.id:
            merged_order.append(job.id)
    report: dict = {
        "valid": True,
        "T": format_temperature(total_temperature_change(expanded)),
        "C": color_changes(expanded),
    }
    if len(merged_order) == len(instance.jobs) and len(instance.colors) <= 2:
        schedule = Schedule(instance=instance, order=tuple(merged_order))
        ok, violations = check_canonical_form(schedule)
        report["canonical"] = ok
        report["violations"] = violations
    else:
        report["canonical"] = False
        report["violations"] = (
            ["merged duplicates are not scheduled consecutively"]
            if len(merged_order) != len(instance.jobs)
            else ["canonical form is defined for at most two colors"]
        )
    return report
