"""Instance ingestion, serialization, plot data, and random generation.

Interchange formats:

* CSV: ``id,temperature,color`` rows (UTF-8, LF); line 1 may be a
  header, which has a temperature that is not a number and a color that
  is not an integer.
* JSON: array of ``{"id", "temperature", "color"}`` objects.
* Plot TSV: ``cumulative<TAB>temperature<TAB>color<TAB>id`` rows in the
  paper-style cumulative-temperature layout: the running total change is
  the x coordinate, the job temperature the y coordinate.

Temperatures are serialized as decimal strings with at most three
fractional digits so parse/serialize roundtrips are bit-exact.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

from .core import (
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


def _parse_json(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
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


def _plot_columns(
    schedule: Schedule,
) -> tuple[list[int], list[int], list[int], list[str]]:
    """Cumulative change, temperature, color and id of each expanded job.

    Members of a merged job share its temperature, so they add no change.
    """
    cumulative: list[int] = []
    temperatures: list[int] = []
    colors: list[int] = []
    ids: list[str] = []
    total = 0
    previous: int | None = None
    for job in schedule.jobs:
        temperature = job.temperature
        if previous is not None:
            total += abs(temperature - previous)
        previous = temperature
        for member in job.members:
            cumulative.append(total)
            temperatures.append(temperature)
            colors.append(job.color)
            ids.append(member)
    return cumulative, temperatures, colors, ids


def emit_plot(schedule: Schedule) -> list[PlotRow]:
    """Cumulative-change plot series, one row per expanded job."""
    return [PlotRow(*row) for row in zip(*_plot_columns(schedule))]


def plot_tsv(schedule: Schedule, labels: dict[int, str] | None = None) -> str:
    """Plot TSV text of ``schedule``, one line per expanded job.

    ``labels`` caches the decimal text of job temperatures; plots of one
    instance that share it format each job temperature once between them.
    Cumulative values are formatted per row, since few of them repeat.
    """
    cumulative, temperatures, colors, ids = _plot_columns(schedule)
    labels = {} if labels is None else labels
    for temperature in set(temperatures).difference(labels):
        labels[temperature] = format_temperature(temperature)
    lines = ["cumulative_T\ttemperature\tcolor\tid"]
    lines += [
        f"{format_temperature(x)}\t{labels[t]}\t{c}\t{i}"
        for x, t, c, i in zip(cumulative, temperatures, colors, ids)
    ]
    return "\n".join(lines) + "\n"


_SVG_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#b279a2", "#eeca3b", "#9d755d",
)


def plot_svg(rows: list[PlotRow], width: int = 800, height: int = 400) -> str:
    """Minimal standalone SVG rendering of a plot series."""
    pad = 40
    xs = [row.cumulative for row in rows]
    ys = [row.temperature for row in rows]
    x_hi = max(xs) or 1
    y_lo, y_hi = min(ys), max(ys)
    y_range = (y_hi - y_lo) or 1

    def px(x: int) -> float:
        return pad + (width - 2 * pad) * x / x_hi

    def py(y: int) -> float:
        return height - pad - (height - 2 * pad) * (y - y_lo) / y_range

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="#888" stroke-width="1.5"/>',
    ]
    for row in rows:
        fill = _SVG_PALETTE[row.color % len(_SVG_PALETTE)]
        parts.append(
            f'<circle cx="{px(row.cumulative):.1f}" cy="{py(row.temperature):.1f}" '
            f'r="4" fill="{fill}"><title>{row.job_id}</title></circle>'
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
