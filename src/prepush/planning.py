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
U-shaped in coverage rather than monotone.  Every regime, the unicast
baseline included, is costed by :func:`plan_title`.
"""

from dataclasses import dataclass
from itertools import accumulate

from .errors import UnknownIdError
from .placement import estimate_target_cells, partition_cells, rank_title_visitors
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


def _priced(dataset, title, estimated, case, coverage):
    """Breakdown and partition of broadcasting ``title`` into ``estimated``.

    One transmission per target cell, plus unicast for every visit in
    cells the target set does not cover.
    """
    partition = partition_cells(dataset, title, estimated)
    n_targets = len(partition.estimated)
    breakdown = CostBreakdown(
        title_id=title,
        case=case,
        coverage=coverage,
        broadcast_transmissions=n_targets,
        missed_visits=partition.missed_visits,
        total_transmissions=n_targets + partition.missed_visits,
    )
    return breakdown, partition


def plan_title(dataset, title, case, coverage):
    """Breakdown and cell partition of one title under one regime.

    ``case`` is :data:`CASE_UNICAST` (broadcast nothing) or one of
    :data:`TRAFFIC_MODES`.  ``coverage`` is read only by limited coverage;
    the breakdown records 0.0 for unicast and 1.0 for the other regimes.
    Returns ``(CostBreakdown, CellPartition)``.
    """
    if case == CASE_UNICAST:
        estimated, coverage = (), 0.0
    elif case == CASE_PERFECT:
        # An unknown title gets no cells here and fails in partition_cells.
        estimated, coverage = dataset.title_cell_visits.get(title, ()), 1.0
    elif case in (CASE_ASSUMED_LOCATION, CASE_LIMITED_COVERAGE):
        if case == CASE_ASSUMED_LOCATION:
            coverage = 1.0
        estimated = estimate_target_cells(dataset, title, coverage)
    else:
        raise ValueError(f"unknown case: {case!r}")
    return _priced(dataset, title, estimated, case, coverage)


def unicast_breakdown(dataset, title):
    """The unicast baseline as a :class:`CostBreakdown` (no broadcasting)."""
    return plan_title(dataset, title, CASE_UNICAST, 0.0)[0]


def perfect_cost(dataset, title):
    """Cost with perfect prediction and known locations.

    The title is broadcast once in every cell it is actually visited in,
    so the total is the number of distinct visited cells and never exceeds
    the unicast baseline.
    """
    return plan_title(dataset, title, CASE_PERFECT, 1.0)[0]


def broadcast_cost(dataset, title, target_cells, case=CASE_ASSUMED_LOCATION,
                   coverage=1.0):
    """Cost of broadcasting one title into an arbitrary cell set."""
    return _priced(dataset, title, target_cells, case, coverage)[0]


def coverage_cost(dataset, title, coverage):
    """Cost under most-active-cell placement at a given oracle coverage.

    Coverage 1.0 targets every visitor in their most active cell; smaller
    values restrict the broadcast to the most active fraction of the
    title's visitors.
    """
    case = CASE_ASSUMED_LOCATION if coverage == 1.0 else CASE_LIMITED_COVERAGE
    return plan_title(dataset, title, case, coverage)[0]


def _validate_fraction_grid(grid, name, low_open):
    if len(grid) == 0:
        raise ValueError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    lo, hi = grid[0], grid[-1]
    if (lo <= 0 if low_open else lo < 0) or hi > 1:
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
    The grid is walked incrementally (the target user prefix only grows
    with coverage), which keeps a full sweep linear in the title's visitor
    count instead of quadratic.
    """
    grid = tuple(grid)
    _validate_fraction_grid(grid, "coverage grid", low_open=True)
    ranked = rank_title_visitors(dataset, title)
    target_cells = list(map(dataset.user_top_cell.__getitem__, ranked))
    cell_counts = dataset.title_cell_visits[title]
    visits = dataset.title_visits[title]

    costs = []
    estimated = set()
    covered_visits = 0
    taken = 0
    for coverage in grid:
        k = ceil_count(coverage, len(ranked))
        while taken < k:
            cell = target_cells[taken]
            taken += 1
            if cell not in estimated:
                estimated.add(cell)
                covered_visits += cell_counts.get(cell, 0)
        costs.append(len(estimated) + visits - covered_visits)

    best = costs.index(min(costs))
    return CoverageSweep(
        title_id=title,
        grid=grid,
        costs=tuple(costs),
        unicast_baseline=visits,
        optimal_coverage=grid[best],
        optimal_cost=costs[best],
    )


def titles_by_popularity(dataset):
    """All titles sorted by descending visit count, ties by ascending id."""
    return sorted(dataset.title_visits, key=lambda t: (-dataset.title_visits[t], t))


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
        plan_title(dataset, t, mode, coverage)[0].total_transmissions
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
