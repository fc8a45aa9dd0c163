"""Transmission cost model for content pre-push broadcasting.

Accounting is time-agnostic and counts one transmission per event: the
unicast baseline pays one transmission per visit, and a broadcast pays one
transmission per (title, cell) it is pushed into.  Visits in cells the
broadcast did not reach still go out as unicast, so for one title

    total = broadcast_transmissions + missed_visits.

Three planning regimes are modeled.  With perfect knowledge the title is
broadcast exactly in the cells its visits occur in (no missed visits).
With assumed locations every visitor is targeted in their most active
cell.  With limited coverage only the most active fraction of the title's
visitors is predicted and targeted; raising the coverage buys back missed
visits at the price of more broadcast cells, and the total is generally
U-shaped in coverage rather than monotone.

Every regime, the unicast baseline included, is costed by one dispatch
from counts alone: unicast, assumed location and limited coverage target
a prefix of the title's visitors ranked by activity (none, all, or the
most active fraction), and each prefix is costed by one binary search of
the dataset's first-target table.  Only :func:`plan_title` also builds the
cell sets of a :class:`~prepush.placement.CellPartition`.
"""

from dataclasses import dataclass
from itertools import accumulate
from operator import add, lt

from .errors import UnknownIdError
from .placement import partition_cells
from .rounding import ceil_count

CASE_UNICAST = "unicast"
CASE_PERFECT = "perfect"
CASE_ASSUMED_LOCATION = "assumed_location"
CASE_LIMITED_COVERAGE = "limited_coverage"

TRAFFIC_MODES = (CASE_PERFECT, CASE_ASSUMED_LOCATION, CASE_LIMITED_COVERAGE)

#: Coverage fractions 0.05, 0.10, ..., 1.00 used when no grid is given.
DEFAULT_COVERAGE_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))

#: Oracle coverage used for the limited-coverage traffic curve by default.
DEFAULT_LIMITED_COVERAGE = 0.2


@dataclass(frozen=True)
class CostBreakdown:
    """Per-title transmission accounting for one planning regime."""

    title_id: str
    case: str
    coverage: float
    broadcast_transmissions: int
    missed_visits: int
    total_transmissions: int


@dataclass(frozen=True)
class CoverageSweep:
    """Total cost of one title as a function of oracle coverage."""

    title_id: str
    grid: tuple
    costs: tuple
    unicast_baseline: int
    optimal_coverage: float
    optimal_cost: int


def unicast_cost(dataset, title):
    """Baseline transmissions for one title: one per visit."""
    try:
        return dataset.title_visits[title]
    except KeyError:
        raise UnknownIdError("title", title) from None


def _breakdown(title, case, coverage, broadcast, missed):
    return CostBreakdown(
        title_id=title,
        case=case,
        coverage=coverage,
        broadcast_transmissions=broadcast,
        missed_visits=missed,
        total_transmissions=broadcast + missed,
    )


def _cost(dataset, title, case, coverage):
    """The one regime dispatch: ``(CostBreakdown, hits)`` of one title.

    ``hits`` counts the broadcast cells the title was visited in.  See
    :func:`plan_title` for ``case`` and ``coverage``.
    """
    if case == CASE_PERFECT:
        n_cells = dataset._planning[2][dataset._title_code(title)]
        return _breakdown(title, case, 1.0, n_cells, 0), n_cells
    if case == CASE_UNICAST:
        coverage = 0.0
    elif case == CASE_ASSUMED_LOCATION:
        coverage = 1.0
    elif case == CASE_LIMITED_COVERAGE:
        if not 0 < coverage <= 1:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    else:
        raise ValueError(f"unknown case: {case!r}")
    broadcast, hits, missed = dataset._targeting(title, coverage)
    return _breakdown(title, case, coverage, broadcast, missed), hits


def plan_title(dataset, title, case, coverage):
    """Breakdown and cell partition of one title under one regime.

    ``case`` is :data:`CASE_UNICAST` (broadcast nothing) or one of
    :data:`TRAFFIC_MODES`.  ``coverage`` is read only by limited coverage;
    the breakdown records 0.0 for unicast and 1.0 for the other regimes.
    Returns ``(CostBreakdown, CellPartition)``.
    """
    breakdown, _ = _cost(dataset, title, case, coverage)
    if case == CASE_PERFECT:
        estimated = dataset.title_cell_visits[title]
    else:
        estimated = dataset._target_cells(
            title, breakdown.broadcast_transmissions)
    return breakdown, partition_cells(dataset, title, estimated)


def unicast_breakdown(dataset, title):
    """The unicast baseline as a :class:`CostBreakdown` (no broadcasting)."""
    return _cost(dataset, title, CASE_UNICAST, 0.0)[0]


def perfect_cost(dataset, title):
    """Cost with perfect prediction and known locations.

    The title is broadcast once in every cell it is actually visited in,
    so the total is the number of distinct visited cells and never exceeds
    the unicast baseline.
    """
    return _cost(dataset, title, CASE_PERFECT, 1.0)[0]


def broadcast_cost(dataset, title, target_cells, case=CASE_ASSUMED_LOCATION,
                   coverage=1.0):
    """Cost of broadcasting one title into an arbitrary cell set."""
    partition = partition_cells(dataset, title, target_cells)
    return _breakdown(title, case, coverage, len(partition.estimated),
                      partition.missed_visits)


def coverage_cost(dataset, title, coverage):
    """Cost under most-active-cell placement at a given oracle coverage.

    Coverage 1.0 targets every visitor in their most active cell; smaller
    values restrict the broadcast to the most active fraction of the
    title's visitors.
    """
    case = CASE_ASSUMED_LOCATION if coverage == 1.0 else CASE_LIMITED_COVERAGE
    return _cost(dataset, title, case, coverage)[0]


def _validate_fraction_grid(grid, name, low_open):
    # Positive comparisons, so that NaN fails each of them.
    if len(grid) == 0:
        raise ValueError(f"{name} must be non-empty")
    if not all(map(lt, grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    lo, hi = grid[0], grid[-1]
    if not ((0 < lo if low_open else 0 <= lo) and hi <= 1):
        bound = "(0, 1]" if low_open else "[0, 1]"
        raise ValueError(f"{name} values must lie in {bound}")


def sweep_coverage(dataset, title, grid=DEFAULT_COVERAGE_GRID):
    """Evaluate one title's cost over a coverage grid and pick the argmin.

    Parameters
    ----------
    dataset : TraceDataset
    title : str
    grid : sequence of float
        Strictly increasing coverage fractions in (0, 1].

    Returns
    -------
    CoverageSweep
        ``costs[i]`` equals ``coverage_cost(dataset, title, grid[i])``'s
        total; ties for the optimum go to the smallest coverage.

    Notes
    -----
    Each grid point targets a prefix of the title's ranked visitors, and
    one binary search of the dataset's first-target table costs every
    grid point at once, with no work per visitor.
    """
    grid = tuple(grid)
    _validate_fraction_grid(grid, "coverage grid", low_open=True)
    broadcast, _, missed = dataset._targeting(title, grid)
    costs = tuple(map(add, broadcast, missed))
    best = costs.index(min(costs))
    return CoverageSweep(
        title_id=title,
        grid=grid,
        costs=costs,
        unicast_baseline=dataset.title_visits[title],
        optimal_coverage=grid[best],
        optimal_cost=costs[best],
    )


def titles_by_popularity(dataset):
    """All titles sorted by descending visit count, ties by ascending id."""
    return list(dataset._popularity)


def traffic_vs_broadcast_ratio(dataset, mode, ratios,
                               coverage=DEFAULT_LIMITED_COVERAGE):
    """Whole-trace transmissions as the broadcast title set grows.

    For each ratio p, the top ``ceil(p * n_titles)`` titles by popularity
    are broadcast under the given mode and every other title stays
    unicast.

    Parameters
    ----------
    dataset : TraceDataset
    mode : {"perfect", "assumed_location", "limited_coverage"}
        Per-title costing regime for broadcast titles.
    ratios : sequence of float
        Strictly increasing fractions in [0, 1]; p = 0 yields the unicast
        baseline (total visit count) exactly.
    coverage : float
        Oracle coverage for mode "limited_coverage" (default 0.2); ignored
        for "perfect" and forced to 1.0 for "assumed_location".

    Returns
    -------
    list of (ratio, total_transmissions)
    """
    ratios = _curve_ratios(mode, ratios, coverage)
    # Only the popularity prefix the largest ratio broadcasts is costed.
    ordered = titles_by_popularity(dataset)
    costs = [
        _cost(dataset, t, mode, coverage)[0].total_transmissions
        for t in ordered[:ceil_count(ratios[-1], len(ordered))]
    ]
    return _traffic_curve(dataset, ordered, costs, ratios)


def _curve_ratios(mode, ratios, coverage):
    """Check the arguments of a traffic curve; return the ratios as a tuple."""
    if mode not in TRAFFIC_MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    ratios = tuple(ratios)
    _validate_fraction_grid(ratios, "ratio grid", low_open=False)
    if mode == CASE_LIMITED_COVERAGE and not 0 < coverage <= 1:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    return ratios


def _traffic_curve(dataset, ordered, costs, ratios):
    """The traffic curve from the broadcast costs of the most popular titles.

    ``ordered`` lists every title by popularity, and ``costs[i]`` is the
    broadcast cost of ``ordered[i]``; it must cover every title the largest
    ratio broadcasts.  Prefix sums answer every ratio at once.
    """
    broadcast = list(accumulate(costs, initial=0))
    unicast = list(accumulate(
        (dataset.title_visits[t] for t in ordered[:len(costs)]), initial=0))
    curve = []
    for p in ratios:
        k = ceil_count(p, len(ordered))
        curve.append((p, broadcast[k] + dataset.total_visits - unicast[k]))
    return curve
