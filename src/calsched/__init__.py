"""Exact bicriteria sequencing of temperature/color jobs on a single machine.

Minimize the total process-temperature change of a job sequence subject
to a cap on adjacent color changes.  The package provides the domain
model and metrics (:mod:`calsched.core`), improvement rewrites and the
canonical form (:mod:`calsched.transforms`), an exact solver for any
number of colors (:mod:`calsched.solver`: a polynomial search graph for
two colors, and for three or more the exhaustive subset DP of
:mod:`calsched.oracle`, which also certifies the graph on small
instances), and file formats plus a CLI (:mod:`calsched.formats`,
:mod:`calsched.cli`).
"""

from .core import (
    Block,
    Instance,
    Job,
    Schedule,
    SolveResult,
    ValidationError,
    build_instance,
    color_changes,
    format_temperature,
    max_feasible_color_changes,
    parse_temperature,
    partition_blocks,
    temperature_span,
    total_temperature_change,
)
from .formats import (
    emit_plot,
    generate_instance,
    parse_instance,
    serialize_instance,
    verify_schedule,
)
from .oracle import (
    OracleResult,
    OracleSizeError,
    brute_force_optimal,
    enumerate_pareto,
)
from .solver import (
    SearchGraph,
    build_search_graph,
    pareto_sweep,
    shortest_schedule,
)
from .transforms import (
    ImprovementStep,
    ImprovementTrace,
    check_canonical_form,
    four_point_inequality,
    normalize,
    remove_intersections,
    sort_blocks_externally,
    sort_blocks_internally,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "ImprovementStep",
    "ImprovementTrace",
    "Instance",
    "Job",
    "OracleResult",
    "OracleSizeError",
    "Schedule",
    "SearchGraph",
    "SolveResult",
    "ValidationError",
    "build_instance",
    "build_search_graph",
    "brute_force_optimal",
    "check_canonical_form",
    "color_changes",
    "emit_plot",
    "enumerate_pareto",
    "format_temperature",
    "four_point_inequality",
    "generate_instance",
    "max_feasible_color_changes",
    "normalize",
    "pareto_sweep",
    "parse_instance",
    "parse_temperature",
    "partition_blocks",
    "remove_intersections",
    "serialize_instance",
    "shortest_schedule",
    "sort_blocks_externally",
    "sort_blocks_internally",
    "temperature_span",
    "total_temperature_change",
    "verify_schedule",
]
