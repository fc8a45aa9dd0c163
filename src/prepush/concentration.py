"""Traffic concentration statistics over users, titles, and cells.

The central object is the cumulative-share curve: sort entities of one
kind by descending visit count and plot, for each k, the fraction of
entities k/n against the share of all visits the top k entities consume.
Steep curves mean a small minority carries most of the traffic, which is
what makes pre-push broadcasting worthwhile in the first place.

The per-user geographic profile summarizes how concentrated each user's
own traffic is across cells: the mean share of every user's rank-k cell.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EmptyTraceError
from .rounding import floor_count
from .trace import _IdMap

CURVE_KINDS = ("user", "title", "cell")


@dataclass(frozen=True)
class ConcentrationCurve:
    """Cumulative-share curve, one point per entity.

    ``points[k-1]`` is ``(k/n, share of visits consumed by the top k
    entities)``; both coordinates are non-decreasing and the last point is
    exactly (1.0, 1.0).
    """

    entity_kind: str
    points: tuple

    @property
    def n_entities(self):
        return len(self.points)

    @property
    def fractions(self):
        return tuple(p[0] for p in self.points)

    @property
    def shares(self):
        return tuple(p[1] for p in self.points)


@dataclass(frozen=True)
class GeoProfile:
    """Unweighted per-user cell concentration averages.

    ``mean_share_by_rank[k-1]`` is the mean over users of the visit share
    of that user's k-th most visited cell (0 when the user has fewer than
    k cells); ``cumulative_by_rank`` is its running sum.
    """

    mean_share_by_rank: tuple
    cumulative_by_rank: tuple
    mean_active_cells: float


def cell_visit_counts(dataset):
    """Total visit count per cell, keys in order of first appearance."""
    arrays = dataset._arrays
    return _IdMap("cell", zip(arrays["ids2"].tolist(),
                              arrays["cell_counts"].tolist()))


def concentration_curve(dataset, kind):
    """Build the cumulative-share curve for one entity kind.

    Parameters
    ----------
    dataset : TraceDataset
    kind : {"user", "title", "cell"}

    Returns
    -------
    ConcentrationCurve
        Entities sorted by descending visit count, ties broken by
        ascending identifier.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown entity kind: {kind!r}")
    counts = dataset._arrays[f"{kind}_counts"]
    if not len(counts):
        raise EmptyTraceError("cannot build a curve over an empty dataset")

    # The points depend on the sorted counts only, not on how ties between
    # entities are ordered.  Below 2**53, float64 division gives the bits
    # Python's int division gives.
    fractions = np.arange(1, len(counts) + 1) / len(counts)
    shares = np.cumsum(np.sort(counts)[::-1]) / dataset.total_visits
    points = tuple(zip(fractions.tolist(), shares.tolist()))
    return ConcentrationCurve(entity_kind=kind, points=points)


def top_fraction_share(curve, fraction):
    """Visit share of the top ``fraction`` of entities.

    Step interpolation: the share of the top ``floor(fraction * n)``
    entities; fractions below 1/n yield 0.

    Parameters
    ----------
    curve : ConcentrationCurve
    fraction : float
        In (0, 1].
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = floor_count(fraction, curve.n_entities)
    if k == 0:
        return 0.0
    return curve.points[k - 1][1]


def user_cell_shares(dataset, user):
    """Per-cell visit shares of one user, most visited first.

    Returns a list of ``(cell_id, share)`` sorted by descending visit
    count (ties by ascending cell id); shares sum to 1.
    """
    cells = dataset.user_cell_visits[user]
    total = dataset.user_visits[user]
    ordered = sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cell, count / total) for cell, count in ordered]


def geo_concentration_profile(dataset, max_rank):
    """Average cell-share profile over all users.

    Parameters
    ----------
    dataset : TraceDataset
    max_rank : int
        Number of cell ranks to report (>= 1).

    Returns
    -------
    GeoProfile
        Per-rank means are unweighted across users: each user contributes
        their own share vector regardless of how many visits they made.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    n_users = dataset.n_users
    if not n_users:
        raise EmptyTraceError("cannot profile an empty dataset")

    # Each user's cells, most visited first (ties by ascending cell id).
    bounds = dataset._arrays["user_cell_bounds"]
    counts = dataset._arrays["user_cell_counts"]
    starts, sizes = bounds[:-1], np.diff(bounds)
    shares = counts / np.repeat(np.add.reduceat(counts, starts), sizes)
    # Sum each rank's shares down the users in order, as a loop in Python
    # would: np.sum adds pairwise, which changes the last bits.
    rank_sums = [0.0] * max_rank
    for k in range(min(max_rank, sizes.max())):
        rank_sums[k] = np.cumsum(shares[starts[sizes > k] + k])[-1].item()

    means = tuple(s / n_users for s in rank_sums)
    return GeoProfile(
        mean_share_by_rank=means,
        cumulative_by_rank=tuple(accumulate(means)),
        mean_active_cells=len(counts) / n_users,
    )
