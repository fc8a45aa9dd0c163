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
import operator
from dataclasses import dataclass

import numpy as np

from .trace import _from_columns

#: Expected visit share of a user's rank-k cell (k = 1..5); the remaining
#: 4% is spread uniformly over the rest of the user's cells.
DEFAULT_GEO_PROFILE = (0.58, 0.22, 0.09, 0.05, 0.02)

#: Uniforms :func:`_draw` takes per chunk, and its guide table's entries (a
#: power of two, so each entry is an exact lower bound).
_CHUNK = 1 << 18
_GUIDE = 1 << 16
#: About the draws :func:`_user_cells` takes per chunk of users (2**18 raised
#: `gen`'s peak at 16,667 users of 20 cells by 10 MB).
_USER_CHUNK = 1 << 15
#: The most slots per user :func:`_user_cells` draws over many users at once,
#: a Python step per slot: numpy's own call per user catches up between 100 and
#: 128, and tail-shuffles only above 200, so it takes every tail shape.
_FLOYD_SLOTS = 64


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
        for name in ("n_users", "n_titles", "n_cells", "n_visits",
                     "max_cells_per_user", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, operator.index(value))
            if name.startswith("n_") and value <= 0:
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


def _draw(rng, pmf, size):
    """``rng.choice(len(pmf), size, p=pmf)`` as int32 codes, leaving ``rng``
    in the same state: a chunk of uniforms at a time, each looked up in a
    guide table of exact lower bounds and searched for only past it."""
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    guide = cdf.searchsorted(np.arange(_GUIDE) / _GUIDE, "right")
    codes = np.empty(size, dtype=np.int32)
    for start in range(0, size, _CHUNK):
        u = rng.random(min(_CHUNK, size - start))
        found = guide[(u * _GUIDE).astype(np.intp)]
        short = np.flatnonzero(cdf[found] <= u)
        found[short] = cdf.searchsorted(u[short], "right")
        codes[start:start + len(u)] = found
    return codes


def _user_cells(rng, n_users, n_cells, slots):
    """``rng.choice(n_cells, slots, replace=False)`` per user, as int32 rows,
    and ``rng``'s state after: up to ``_FLOYD_SLOTS`` slots by numpy's method,
    Floyd's algorithm and a shuffle, run over a chunk of users at a time, and
    above it by numpy's own call, user by user."""
    cells = np.empty((n_users, slots), dtype=np.int32)
    if slots > _FLOYD_SLOTS:
        for row in cells:
            row[:] = rng.choice(n_cells, slots, replace=False)
        return cells
    picks, base = min(slots, n_cells - 1), n_cells - slots  # no draw in [0, 0]
    bounds = np.r_[n_cells - picks + 1:n_cells + 1, slots:1:-1]
    step = max(1, _USER_CHUNK // (slots + picks))
    for start in range(0, n_users, step):
        users = min(step, n_users - start)
        draws = rng.integers(0, np.tile(bounds, users)).reshape(users, -1)
        # Floyd: column c keeps its draw v, or base + c if v is held: drawn
        # before in the row, or the base + c' an earlier c' kept.
        at = np.arange(users * slots).reshape(users, slots)
        v = np.pad(draws[:, :picks], ((0, 0), (slots - picks, 0)))
        seen, col = np.divmod(np.sort(v * slots + np.arange(slots)), slots)
        held = np.zeros(v.size, bool)
        held[at[:, :1] + col[:, 1:]] = seen[:, 1:] == seen[:, :-1]
        link = np.where(v >= base, at[:, :1] + v - base, at).ravel()
        while not np.array_equal(link, link[link]):  # pointer doubling
            held |= held[link]
            link = link[link]
        values = np.where((held | held[link]).reshape(v.shape),
                          base + np.arange(slots), v).ravel()
        # Fisher-Yates, a column at a time.
        for i, k in zip(at[:, :0:-1].T, (at[:, :1] + draws[:, picks:]).T):
            values[i], values[k] = values[k], values[i]
        cells[start:start + users] = values.reshape(users, slots)
    return cells


def generate(params):
    """Generate a seeded synthetic trace as an indexed dataset.

    Draw order is fixed and each draw equals ``rng.choice``'s: each user's
    cells, user by user (``replace=False``; :func:`_user_cells` draws up to
    ``_FLOYD_SLOTS`` a user over many users at once), then users, titles and
    cell slots for all visits, by weight.  Identical params give a
    bit-identical dataset with int32 codes, and title and user identifiers
    encode rank: ``t0001`` is the most popular title by construction.

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
    slots, n = len(weights), params.n_visits

    user_cells = _user_cells(rng, params.n_users, params.n_cells, slots)

    users = _draw(rng, _zipf_pmf(params.n_users, params.user_zipf_exponent), n)
    titles = _draw(rng, _zipf_pmf(params.n_titles, params.title_zipf_exponent),
                   n)
    cells = _draw(rng, weights / weights.sum(), n)
    for start in range(0, n, _CHUNK):  # each chunk of slots becomes cells
        rows = slice(start, start + _CHUNK)
        cells[rows] = user_cells[users[rows], cells[rows]]
    columns = [users, titles, cells]
    del users, titles, cells  # so that each column goes once renumbered
    return _from_columns((_ids("u", params.n_users),
                          _ids("t", params.n_titles),
                          _ids("c", params.n_cells)), columns)
