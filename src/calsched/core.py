"""Domain model: jobs, instances, schedules, blocks, and the two cost metrics.

A job is a pair (process temperature, color).  Temperatures are stored as
fixed-point integers scaled by ``SCALE`` (three decimal digits), so every
metric in this package is computed with exact integer arithmetic and
solver results are bit-for-bit deterministic.

Jobs that share both temperature and color are merged into a single
:class:`Job` with a multiplicity; merged jobs are scheduled consecutively
and expand back to their member ids on output.  Within one color all
temperatures are therefore pairwise distinct, which the rewrite rules and
the graph solver rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Iterable, Sequence

SCALE = 1000

# Largest allowed (merged job count) x (highest scaled temperature).  No
# schedule can cost more, which keeps the two-color solver's int64
# distances far below its unreachable-cell sentinel and clear of overflow.
# It also keeps the exhaustive solver's sums exact: every schedule costs at
# most 2^59, and INF plus one edge stays below 2^63.
MAGNITUDE_LIMIT = 1 << 59

# Unreachable-cell sentinel of the exact solvers' int64 arrays: the two-color
# solver's exits and distances, and the exhaustive solver's table when it
# cannot be int32 (see ``oracle.table_dtype``).
INF = 1 << 61


class ValidationError(ValueError):
    """Raised for malformed or inconsistent input data."""


def parse_temperature(value: object) -> int:
    """Convert a user-facing temperature into its scaled integer form.

    Accepts ints, decimal strings, ``Decimal`` and floats; at most three
    fractional digits are allowed so the conversion is exact.
    """
    if isinstance(value, bool):
        raise ValidationError(f"invalid temperature: {value!r}")
    if isinstance(value, int):
        dec = Decimal(value)
    else:
        try:
            dec = Decimal(str(value))
        except InvalidOperation:
            raise ValidationError(f"invalid temperature: {value!r}") from None
    if not dec.is_finite():
        raise ValidationError(f"invalid temperature: {value!r}")
    if dec < 0:
        raise ValidationError(f"temperature must be nonnegative, got {value!r}")
    scaled = dec.scaleb(3)
    if scaled != scaled.to_integral_value():
        raise ValidationError(
            f"temperature {value!r} has more than 3 decimal places"
        )
    return int(scaled)


def format_temperature(scaled: int) -> str:
    """Render a scaled temperature as a canonical decimal string."""
    whole, frac = divmod(scaled, SCALE)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


@dataclass(frozen=True)
class Job:
    """One schedulable unit: temperature (scaled), color, merged members."""

    id: str
    temperature: int
    color: int
    members: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            object.__setattr__(self, "members", (self.id,))

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Instance:
    """A validated job set with per-color temperature-sorted indexes.

    ``jobs`` holds the merged jobs in first-occurrence order.  Instances
    are immutable and safe to share between concurrent solves.
    """

    jobs: tuple[Job, ...]
    _by_color: dict[int, tuple[Job, ...]] = field(
        init=False, repr=False, compare=False
    )
    _by_id: dict[str, Job] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValidationError("instance must contain at least one job")
        seen_ids: set[str] = set()
        seen_pairs: set[tuple[int, int]] = set()
        for job in self.jobs:
            if job.temperature < 0:
                raise ValidationError(f"job {job.id}: negative temperature")
            if job.color < 0:
                raise ValidationError(f"job {job.id}: negative color")
            for member in job.members:
                if member in seen_ids:
                    raise ValidationError(f"duplicate job id {member!r}")
                seen_ids.add(member)
            pair = (job.temperature, job.color)
            if pair in seen_pairs:
                raise ValidationError(
                    f"job {job.id}: duplicate (temperature, color) pair; "
                    "merge duplicates before constructing the instance"
                )
            seen_pairs.add(pair)
        hottest = max(job.temperature for job in self.jobs)
        if len(self.jobs) * hottest > MAGNITUDE_LIMIT:
            raise ValidationError(
                f"temperatures too large: {len(self.jobs)} merged jobs times the "
                f"highest temperature {format_temperature(hottest)} exceeds "
                f"{format_temperature(MAGNITUDE_LIMIT)}"
            )
        grouped: dict[int, list[Job]] = {}
        for job in self.jobs:
            grouped.setdefault(job.color, []).append(job)
        by_color = {
            color: tuple(sorted(group, key=lambda j: j.temperature))
            for color, group in grouped.items()
        }
        object.__setattr__(self, "_by_color", by_color)
        object.__setattr__(self, "_by_id", {job.id: job for job in self.jobs})

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_color))

    @property
    def total_jobs(self) -> int:
        """Number of jobs counting merged duplicates."""
        return sum(job.multiplicity for job in self.jobs)

    def count(self, color: int) -> int:
        """Number of jobs of ``color``, counting merged duplicates."""
        return sum(job.multiplicity for job in self._by_color.get(color, ()))

    def sorted_jobs(self, color: int) -> tuple[Job, ...]:
        """Merged jobs of ``color`` in strictly increasing temperature order."""
        return self._by_color.get(color, ())

    def job_by_id(self, job_id: str) -> Job:
        return self._by_id[job_id]


def build_instance(records: Iterable[tuple[object, object, object]]) -> Instance:
    """Build an :class:`Instance` from (id, temperature, color) records.

    Temperatures are given in user units (see :func:`parse_temperature`).
    Records with identical (temperature, color) are merged into one job.
    """
    merged: dict[tuple[int, int], list[str]] = {}
    order: list[tuple[int, int]] = []
    for record_id, raw_temp, raw_color in records:
        job_id = str(record_id)
        temp = parse_temperature(raw_temp)
        try:
            color = int(raw_color)
        except (TypeError, ValueError):
            raise ValidationError(f"job {job_id}: invalid color {raw_color!r}") from None
        if color < 0:
            raise ValidationError(f"job {job_id}: color must be nonnegative")
        key = (temp, color)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(job_id)
    jobs = tuple(
        Job(id=members[0], temperature=temp, color=color, members=tuple(members))
        for (temp, color), members in ((key, merged[key]) for key in order)
    )
    return Instance(jobs=jobs)


@dataclass(frozen=True)
class Schedule:
    """A permutation of the instance's merged jobs."""

    instance: Instance
    order: tuple[str, ...]

    def __post_init__(self) -> None:
        expected = self.instance._by_id.keys()
        if len(self.order) != len(expected) or set(self.order) != expected:
            raise ValidationError("schedule is not a permutation of the instance")

    @classmethod
    def from_jobs(cls, instance: Instance, jobs: Sequence[Job]) -> "Schedule":
        return cls(instance=instance, order=tuple(job.id for job in jobs))

    @property
    def jobs(self) -> tuple[Job, ...]:
        lookup = self.instance._by_id
        return tuple(lookup[job_id] for job_id in self.order)

    def expanded_ids(self) -> tuple[str, ...]:
        """Job ids with merged duplicates expanded to consecutive positions."""
        out: list[str] = []
        for job in self.jobs:
            out.extend(job.members)
        return tuple(out)

    def reversed(self) -> "Schedule":
        return Schedule(instance=self.instance, order=tuple(reversed(self.order)))


@dataclass(frozen=True)
class Block:
    """A maximal run of consecutive same-color jobs inside a schedule."""

    color: int
    jobs: tuple[Job, ...]

    @property
    def t_min(self) -> int:
        return min(job.temperature for job in self.jobs)

    @property
    def t_max(self) -> int:
        return max(job.temperature for job in self.jobs)


def _as_jobs(schedule_or_jobs: Schedule | Sequence[Job]) -> Sequence[Job]:
    if isinstance(schedule_or_jobs, Schedule):
        return schedule_or_jobs.jobs
    return schedule_or_jobs


def total_temperature_change(seq: Schedule | Sequence[Job]) -> int:
    """Sum of absolute temperature differences between adjacent jobs."""
    jobs = _as_jobs(seq)
    if not jobs:
        raise ValidationError("empty job sequence")
    return sum(
        abs(b.temperature - a.temperature) for a, b in zip(jobs, jobs[1:])
    )


def color_changes(seq: Schedule | Sequence[Job]) -> int:
    """Number of adjacent pairs with differing colors (nominal count)."""
    jobs = _as_jobs(seq)
    if not jobs:
        raise ValidationError("empty job sequence")
    return sum(1 for a, b in zip(jobs, jobs[1:]) if a.color != b.color)


def partition_blocks(seq: Schedule | Sequence[Job]) -> list[Block]:
    """Split a schedule into its maximal same-color blocks, in order."""
    jobs = _as_jobs(seq)
    if not jobs:
        raise ValidationError("empty job sequence")
    blocks: list[Block] = []
    start = 0
    for i in range(1, len(jobs) + 1):
        if i == len(jobs) or jobs[i].color != jobs[start].color:
            blocks.append(Block(color=jobs[start].color, jobs=tuple(jobs[start:i])))
            start = i
    return blocks


def temperature_span(seq: Schedule | Sequence[Job]) -> int:
    """Largest minus smallest temperature in the sequence."""
    jobs = _as_jobs(seq)
    if not jobs:
        raise ValidationError("empty job sequence")
    temps = [job.temperature for job in jobs]
    return max(temps) - min(temps)


def max_changes_for_counts(counts: Sequence[int]) -> int:
    """Maximum nominal color-change count over all orderings.

    ``counts`` are per-color job counts.  With ``M`` the largest count and
    ``N`` the total, every job of the majority color can be separated iff
    ``M <= N - M + 1``, giving ``N - 1`` boundaries; otherwise the
    ``M - (N - M) - 1`` unavoidable same-color adjacencies reduce the
    maximum to ``2 * (N - M)``.
    """
    positive = [c for c in counts if c > 0]
    if not positive:
        return 0
    total = sum(positive)
    largest = max(positive)
    if largest <= total - largest + 1:
        return total - 1
    return 2 * (total - largest)


def max_feasible_color_changes(instance: Instance) -> int:
    """True maximum of the color-change count over all schedules.

    Counts merged duplicates individually, since duplicates may be split
    across blocks (at no benefit to the temperature objective).
    """
    return max_changes_for_counts(
        [instance.count(color) for color in instance.colors]
    )


def max_merged_color_changes(instance: Instance) -> int:
    """Maximum color-change count over schedules that keep each merged
    job in one piece, the layer count of the exact solvers' tables."""
    return max_changes_for_counts(
        [len(instance.sorted_jobs(color)) for color in instance.colors]
    )


def pareto_table(
    instance: Instance, exact: Sequence[int | None]
) -> list[tuple[int, int | None]]:
    """Trade-off table from the optimum with exactly k changes, k = 0, 1, ...

    ``exact`` covers every budget up to :func:`max_merged_color_changes`,
    with ``None`` where no schedule has exactly k changes.  Entry k of the
    result is the best value with at most k changes, ``None`` while no
    schedule qualifies.  Budgets only reachable by splitting merged
    duplicates cannot beat the merged optimum, so the table runs on flat
    up to :func:`max_feasible_color_changes`.
    """
    table: list[tuple[int, int | None]] = []
    running: int | None = None
    for k, value in enumerate(exact):
        if value is not None and (running is None or value < running):
            running = value
        table.append((k, running))
    top = max_feasible_color_changes(instance)
    table.extend((k, running) for k in range(len(exact), top + 1))
    return table
