"""Most-active-cell broadcast placement and cell-set partitions.

Pushing content to a user's device requires guessing which cell the user
is in.  Since a user's own traffic concentrates heavily on one or two
cells, the heuristic here targets each user's single most visited cell.
Comparing the targeted (estimated) cell set against the cells where a
title's visits actually happened partitions the cells into hits (targeted
and visited), missing (visited but not targeted; those visits still go out
as unicast), and mistaken (targeted but never visited; wasted broadcasts).

:func:`most_active_cell` reads ``user_top_cell``, a map the dataset
builds on first use.  Ranking and targeting read two tables the dataset
also builds on first use: each title's visitors in descending activity
order (the ranked index), and the cells those visitors bring in, in the
order they are first reached (the first-target table).  So ranking is a
slice and targeting is two array reads (``TraceDataset._targeting``).
"""

from typing import NamedTuple


class CellPartition(NamedTuple):
    """Estimated-vs-actual cell sets for one title's broadcast plan."""

    estimated: frozenset
    actual: frozenset
    hit: frozenset
    missing: frozenset
    mistaken: frozenset
    missed_visits: int


def _checked_coverage(coverage):
    """``coverage``, if an oracle can have it: the one check of (0, 1]."""
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    return coverage


def most_active_cell(dataset, user):
    """The user's cell with the most visits (ties by ascending cell id)."""
    return dataset.user_top_cell[user]


def rank_title_visitors(dataset, title):
    """The title's distinct visitors, most globally active first.

    Activity is the user's total visit count across all titles; ties break
    by ascending user id.
    """
    return dataset._ranked_visitors(title)


def estimate_target_cells(dataset, title, coverage):
    """Cells to broadcast the title into, under an oracle of given coverage.

    The prediction oracle is assumed to identify the most active fraction
    of the title's future visitors; each predicted visitor is targeted in
    their most active cell.

    Parameters
    ----------
    dataset : TraceDataset
    title : str
    coverage : float
        Fraction of the title's visitors the oracle predicts, in (0, 1].
        The target user count rounds up, so any positive coverage targets
        at least one user; coverage 1.0 targets every visitor.

    Returns
    -------
    frozenset of cell ids
    """
    n_cells, _ = dataset._targeting(title, _checked_coverage(coverage))
    return dataset._target_cells(title, n_cells)


def partition_cells(dataset, title, estimated):
    """Partition estimated vs actual cells for one title.

    ``actual`` is the set of cells where the title's visits occurred;
    ``missed_visits`` counts the title's visits in cells the estimate did
    not cover (a visit in any estimated cell is satisfied by the
    broadcast, regardless of which target user brought that cell in).
    """
    cell_counts = dataset.title_cell_visits[title]
    estimated = frozenset(estimated)
    actual = frozenset(cell_counts)
    hit = estimated & actual
    missing = actual - estimated
    mistaken = estimated - actual
    missed_visits = sum(cell_counts[c] for c in missing)
    return CellPartition(
        estimated=estimated,
        actual=actual,
        hit=hit,
        missing=missing,
        mistaken=mistaken,
        missed_visits=missed_visits,
    )
