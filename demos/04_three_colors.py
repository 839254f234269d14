"""Why three colors are harder: a ten-job instance with a twist.

With two colors, some optimal schedule always runs each inner block in
increasing temperature order, which is what makes the polynomial solver
possible.  With three colors that structure breaks down.  The exhaustive
solver below finds the capped optimum of a ten-job three-color instance;
it is unique up to reversal, and its two inner blocks of color 0 run in
opposite directions, so no ascending-only layout can reach the optimum.
"""

from calsched import (
    brute_force_optimal,
    build_instance,
    color_changes,
    enumerate_pareto,
    format_temperature,
    partition_blocks,
)

JOBS = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (1, 1), (3, 1),
    (0, 2), (2, 2), (4, 2), (5, 2),
]
instance = build_instance([(f"c{c}t{t}", t, c) for t, c in JOBS])

result = brute_force_optimal(instance, 4)
print(
    f"optimum with at most 4 color changes: "
    f"{format_temperature(result.optimal_total_change)}"
)
print(f"optimal schedules found: {len(result.optimal_schedules)} (mirror images)")

schedule = result.optimal_schedules[0]
print(f"\n{' '.join(schedule.order)}   (C = {color_changes(schedule)})")
print("block structure:")
for i, block in enumerate(partition_blocks(schedule)):
    temps = [format_temperature(j.temperature) for j in block.jobs]
    direction = ""
    if len(temps) > 1:
        direction = "  (upward)" if block.jobs[0].temperature < block.jobs[-1].temperature else "  (downward)"
    print(f"  block {i}: color {block.color}: {' '.join(temps)}{direction}")

print(
    "\nInner blocks of color 0 run in opposite directions in every optimum,"
    "\nso the two-color canonical form does not generalize as-is."
)

print("\nfull trade-off table (exhaustive):")
for budget, value in enumerate_pareto(instance):
    shown = "infeasible" if value is None else format_temperature(value)
    print(f"  budget {budget}: {shown}")
