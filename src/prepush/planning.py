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
most active fraction), and each prefix is costed by reading the
dataset's prefix columns at its two ends.  The traffic curve and the
CLI's rows cost all titles in one pass, reading every title's at once.
Only :func:`plan_title` and :func:`broadcast_cost` build the cell sets of
a :class:`~prepush.placement.CellPartition`.
"""

from itertools import accumulate
from operator import add, lt, sub
from typing import NamedTuple

from .placement import _checked_coverage, partition_cells
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


class CostBreakdown(NamedTuple):
    """Per-title transmission accounting for one planning regime."""

    title_id: str
    case: str
    coverage: float
    broadcast_transmissions: int
    missed_visits: int
    total_transmissions: int


class CoverageSweep(NamedTuple):
    """Total cost of one title as a function of oracle coverage."""

    title_id: str
    grid: tuple
    costs: tuple
    unicast_baseline: int
    optimal_coverage: float
    optimal_cost: int


def unicast_cost(dataset, title):
    """Baseline transmissions for one title: one per visit."""
    return dataset.title_visits[title]


def _case_coverage(case, coverage):
    """The one regime dispatch: the coverage ``case`` targets, checked.
    Perfect knowledge records 1.0 but is costed from cell counts alone."""
    if case == CASE_LIMITED_COVERAGE:
        return _checked_coverage(coverage)
    if case == CASE_UNICAST:
        return 0.0
    if case in (CASE_PERFECT, CASE_ASSUMED_LOCATION):
        return 1.0
    raise ValueError(f"unknown case: {case!r}")


def _cost(dataset, title, case, coverage):
    """The :class:`CostBreakdown` of one title under one regime; see
    :func:`plan_title` for ``case`` and ``coverage``."""
    coverage = _case_coverage(case, coverage)
    if case == CASE_PERFECT:
        code = dataset._title_code(title)
        n_cells = int(dataset._arrays["title_cells"][code])
        return CostBreakdown(title, case, coverage, n_cells, 0, n_cells)
    broadcast, missed = dataset._targeting(title, coverage)
    return CostBreakdown(title, case, coverage, broadcast, missed,
                         broadcast + missed)


def _title_costs(dataset, case, coverage, n=None):
    """:func:`_cost` of the ``n`` most popular titles (all by default) in
    one pass: ``(coverage, broadcast, hits, missed, cells, visits)``, the
    regime's coverage and then lists in popularity order, ``cells``
    counting distinct visited cells and ``visits`` the unicast baseline."""
    coverage = _case_coverage(case, coverage)
    arrays = dataset._arrays
    codes = arrays["popularity"][:n]
    cells, visits = arrays["title_cells"][codes], arrays["title_counts"][codes]
    broadcast, hits, missed = cells, cells, 0 * visits
    if case != CASE_PERFECT:
        bounds = arrays["ranked_bounds"]
        start, sizes = bounds[codes], bounds[codes + 1] - bounds[codes]
        # Python ints: a fraction's numerator times a count can pass 2**63.
        end = start + [ceil_count(coverage, size) for size in sizes.tolist()]
        # Each prefix column at the prefix's end less at its start.
        broadcast, hits, covered = (
            sub(*arrays[f"ranked_{name}"][[end, start]])
            for name in ("targets", "hits", "covered"))
        missed = visits - covered
    return (coverage,
            *(c.tolist() for c in (broadcast, hits, missed, cells, visits)))


def plan_title(dataset, title, case, coverage):
    """Breakdown and cell partition of one title under one regime.

    ``case`` is :data:`CASE_UNICAST` (broadcast nothing) or one of
    :data:`TRAFFIC_MODES`.  ``coverage`` is read only by limited coverage;
    the breakdown records 0.0 for unicast and 1.0 for the other regimes.
    Returns ``(CostBreakdown, CellPartition)``.
    """
    breakdown = _cost(dataset, title, case, coverage)
    if case == CASE_PERFECT:
        estimated = dataset.title_cell_visits[title]
    else:
        estimated = dataset._target_cells(
            title, breakdown.broadcast_transmissions)
    return breakdown, partition_cells(dataset, title, estimated)


def unicast_breakdown(dataset, title):
    """The unicast baseline as a :class:`CostBreakdown` (no broadcasting)."""
    return _cost(dataset, title, CASE_UNICAST, 0.0)


def perfect_cost(dataset, title):
    """Cost with perfect prediction and known locations.

    The title is broadcast once in every cell it is actually visited in,
    so the total is the number of distinct visited cells and never exceeds
    the unicast baseline.
    """
    return _cost(dataset, title, CASE_PERFECT, 1.0)


def broadcast_cost(dataset, title, target_cells, case=CASE_ASSUMED_LOCATION,
                   coverage=1.0):
    """Cost of broadcasting one title into an arbitrary cell set."""
    partition = partition_cells(dataset, title, target_cells)
    broadcast, missed = len(partition.estimated), partition.missed_visits
    return CostBreakdown(title, case, coverage, broadcast, missed,
                         broadcast + missed)


def coverage_cost(dataset, title, coverage):
    """Cost under most-active-cell placement at a given oracle coverage.

    Coverage 1.0 targets every visitor in their most active cell; smaller
    values restrict the broadcast to the most active fraction of the
    title's visitors.
    """
    case = CASE_ASSUMED_LOCATION if coverage == 1.0 else CASE_LIMITED_COVERAGE
    return _cost(dataset, title, case, coverage)


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
        Strictly increasing coverage fractions in (0, 1]; every grid but
        :data:`DEFAULT_COVERAGE_GRID` itself is checked on every call.

    Returns
    -------
    CoverageSweep
        ``costs[i]`` equals ``coverage_cost(dataset, title, grid[i])``'s
        total; ties for the optimum go to the smallest coverage.

    Notes
    -----
    Each grid point targets a prefix of the title's ranked visitors, and
    two reads of each of the dataset's prefix columns cost it, with no
    work per visitor.
    """
    if grid is not DEFAULT_COVERAGE_GRID:
        grid = tuple(grid)
        _validate_fraction_grid(grid, "coverage grid", low_open=True)
    broadcast, missed = dataset._targeting(title, grid)
    costs = tuple(map(add, broadcast, missed))
    best = costs.index(min(costs))
    return CoverageSweep(title, grid, costs, dataset.title_visits[title],
                         grid[best], costs[best])


def titles_by_popularity(dataset):
    """All titles sorted by descending visit count, ties by ascending id."""
    arrays = dataset._arrays
    return arrays["ids1"][arrays["popularity"]].tolist()


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
    if mode not in TRAFFIC_MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    ratios = tuple(ratios)
    _validate_fraction_grid(ratios, "ratio grid", low_open=False)
    return _curve(dataset, ratios, _title_costs(
        dataset, mode, coverage, ceil_count(ratios[-1], dataset.n_titles)))


def _curve(dataset, ratios, costs):
    """The traffic curve over checked ``ratios`` from :func:`_title_costs`
    columns of at least the popularity prefix its largest ratio
    broadcasts."""
    # Each title the curve broadcasts changes the unicast total by its cost
    # less its visits.
    _, broadcast, _, missed, _, visits = costs
    changes = list(accumulate(map(sub, map(add, broadcast, missed), visits),
                              initial=0))
    total, n = dataset.total_visits, dataset.n_titles
    return [(p, total + changes[ceil_count(p, n)]) for p in ratios]
