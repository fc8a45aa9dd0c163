"""Trace-driven planning library for cellular content pre-push broadcasting.

Quantifies how much unicast transmission traffic a content-broadcast
scheme saves on an access trace: concentration statistics over users,
titles, and cells; the most-active-cell placement heuristic; and a
per-title transmission cost model with coverage optimization.
"""

from types import ModuleType as _Module

from .concentration import (
    ConcentrationCurve,
    GeoProfile,
    cell_visit_counts,
    concentration_curve,
    geo_concentration_profile,
    top_fraction_share,
    user_cell_shares,
)
from .errors import (
    EmptyTraceError,
    RecordValidationError,
    TraceFormatError,
    UnknownIdError,
)
from .placement import (
    CellPartition,
    estimate_target_cells,
    most_active_cell,
    partition_cells,
    rank_title_visitors,
)
from .planning import (
    CASE_ASSUMED_LOCATION,
    CASE_LIMITED_COVERAGE,
    CASE_PERFECT,
    CASE_UNICAST,
    DEFAULT_COVERAGE_GRID,
    DEFAULT_LIMITED_COVERAGE,
    CostBreakdown,
    CoverageSweep,
    broadcast_cost,
    coverage_cost,
    perfect_cost,
    plan_title,
    sweep_coverage,
    titles_by_popularity,
    traffic_vs_broadcast_ratio,
    unicast_breakdown,
    unicast_cost,
)
from .synth import DEFAULT_GEO_PROFILE, SynthParams, generate
from .trace import (
    TRACE_HEADER,
    TraceDataset,
    VisitRecord,
    build_indexes,
    parse_trace,
    write_trace,
)

__version__ = "0.1.0"

#: The public names: every name imported above, none of the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
