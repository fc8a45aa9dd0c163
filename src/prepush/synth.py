"""Seeded synthetic trace generator.

Real operator traces are private, so this module fabricates workloads whose
marginal shapes match what access-log studies keep measuring: heavy-tailed
(Zipf-like) popularity over titles, heavy-tailed activity over users, and
per-user geographic concentration where the most-visited cell takes the
lion's share of a user's traffic.

The model is deliberately minimal: title and user are drawn independently
per visit from rank-weighted Zipf laws, and the visit's cell is drawn from
the visiting user's personal cell distribution, fixed at user creation.
Exponents and the per-rank cell-share profile are parameters, not fits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .trace import _from_columns

#: Expected visit share of a user's rank-k cell (k = 1..5); the remaining
#: 4% is spread uniformly over the rest of the user's cells.
DEFAULT_GEO_PROFILE = (0.58, 0.22, 0.09, 0.05, 0.02)


@dataclass(frozen=True)
class SynthParams:
    """Parameters of :func:`generate`; validated on construction."""

    n_users: int
    n_titles: int
    n_cells: int
    n_visits: int
    title_zipf_exponent: float = 1.0
    user_zipf_exponent: float = 0.8
    geo_profile: tuple = DEFAULT_GEO_PROFILE
    max_cells_per_user: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "geo_profile", tuple(self.geo_profile))
        for name in ("n_users", "n_titles", "n_cells", "n_visits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("title_zipf_exponent", "user_zipf_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.title_zipf_exponent <= 0 or self.user_zipf_exponent <= 0:
            raise ValueError("zipf exponents must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        profile = self.geo_profile
        if not all(map(math.isfinite, profile)):
            raise ValueError("geo_profile entries must be finite")
        if any(w < 0 for w in profile):
            raise ValueError("geo_profile entries must be non-negative")
        if any(a < b for a, b in zip(profile, profile[1:])):
            raise ValueError("geo_profile entries must be non-increasing")
        if sum(profile) > 1.0 + 1e-12:
            raise ValueError("geo_profile must sum to at most 1")
        if self.max_cells_per_user < len(profile):
            raise ValueError(
                "max_cells_per_user must be at least len(geo_profile)"
            )
        if self.n_cells < self.max_cells_per_user:
            raise ValueError("n_cells must be at least max_cells_per_user")
        if self._residual() > 0 and self.max_cells_per_user == len(profile):
            raise ValueError(
                "geo_profile sums below 1 but max_cells_per_user leaves no "
                "cells to carry the residual"
            )

    def _residual(self):
        residual = 1.0 - sum(self.geo_profile)
        return residual if residual > 1e-12 else 0.0

    def cell_weights(self):
        """Per-user cell-slot probabilities: profile plus uniform residual."""
        residual = self._residual()
        if residual == 0.0:
            return np.asarray(self.geo_profile, dtype=float)
        extra = self.max_cells_per_user - len(self.geo_profile)
        return np.concatenate(
            [self.geo_profile, np.full(extra, residual / extra)]
        )


def _zipf_pmf(n, exponent):
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def _ids(prefix, n):
    width = len(str(n))
    return [f"{prefix}{k:0{width}d}" for k in range(1, n + 1)]


def generate(params):
    """Generate a seeded synthetic trace as an indexed dataset.

    Draw order is fixed (user cell assignments, then users, titles, and
    cell slots for all visits), so identical params give a bit-identical
    dataset.  Title and user identifiers encode popularity/activity rank:
    ``t0001`` is the most popular title by construction.

    Parameters
    ----------
    params : SynthParams

    Returns
    -------
    TraceDataset
        Exactly ``params.n_visits`` records in visit order.
    """
    rng = np.random.default_rng(params.seed)
    weights = params.cell_weights()
    slots = len(weights)
    weights = weights / weights.sum()

    user_cells = np.empty((params.n_users, slots), dtype=np.int64)
    for u in range(params.n_users):
        user_cells[u] = rng.choice(params.n_cells, size=slots, replace=False)

    users = rng.choice(
        params.n_users,
        size=params.n_visits,
        p=_zipf_pmf(params.n_users, params.user_zipf_exponent),
    )
    titles = rng.choice(
        params.n_titles,
        size=params.n_visits,
        p=_zipf_pmf(params.n_titles, params.title_zipf_exponent),
    )
    slot_draws = rng.choice(slots, size=params.n_visits, p=weights)
    cells = user_cells[users, slot_draws]

    return _from_columns(
        (_ids("u", params.n_users), _ids("t", params.n_titles),
         _ids("c", params.n_cells)),
        users, titles, cells,
    )
