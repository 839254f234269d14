"""Jobs, schedules, blocks, and the two cost metrics.

A production batch is a (process temperature, color) pair.  Sequencing
batches costs energy for every temperature move and cleaning effort for
every color switch, so a schedule is judged by two numbers: the total
temperature change and the number of color changes.  This script builds
a small instance, evaluates a few schedules, and prints the block
structure and the cumulative-temperature plot series.
"""

from calsched import (
    Schedule,
    build_instance,
    color_changes,
    format_temperature,
    partition_blocks,
    total_temperature_change,
)
from calsched.formats import plot_tsv

instance = build_instance(
    [
        ("slab-a", "165.5", 0),
        ("slab-b", "171.0", 0),
        ("slab-c", "168.0", 1),
        ("slab-d", "180.5", 1),
        ("slab-e", "162.0", 0),
    ]
)

print("instance:")
for job in instance.jobs:
    print(
        f"  {job.id}: t={format_temperature(job.temperature)} color={job.color}"
    )

# Two extreme strategies: sort purely by temperature, or group by color.
by_temperature = Schedule.from_jobs(
    instance, sorted(instance.jobs, key=lambda j: j.temperature)
)
by_color = Schedule.from_jobs(
    instance, sorted(instance.jobs, key=lambda j: (j.color, j.temperature))
)

for name, schedule in (("temperature-sorted", by_temperature), ("color-grouped", by_color)):
    total = total_temperature_change(schedule)
    changes = color_changes(schedule)
    print(f"\n{name}: {' -> '.join(schedule.order)}")
    print(f"  total temperature change: {format_temperature(total)}")
    print(f"  color changes:            {changes}")
    print("  blocks:")
    for block in partition_blocks(schedule):
        ids = ", ".join(j.id for j in block.jobs)
        print(
            f"    color {block.color}: [{ids}]  span "
            f"{format_temperature(block.t_min)}..{format_temperature(block.t_max)}"
        )

print("\nplot series for the color-grouped schedule (x = cumulative change):")
print(plot_tsv(by_color), end="")
