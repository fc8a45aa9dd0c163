"""Brute-force re-derivations used as independent test oracles.

Every function here recomputes its answer by scanning a raw record list
(:func:`read_trace` scans file text, and :func:`synthetic_rows` draws one),
never by consulting TraceDataset indexes or the library's own helpers, so
the tests compare two genuinely separate paths.  Fractions of counts are
resolved with exact rational arithmetic (`fractions.Fraction`).  A float
stands for the simplest fraction whose nearest double it is: 0.1 is
exactly 1/10 (its decimal value) and 1/3 is one third, not the binary
value of either double.  A Fraction stands for itself.
"""

import csv
import io
import math
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np

#: Largest denominator :func:`as_fraction` searches.
MAX_DENOMINATOR = 10**6

#: The reference grammar of a block the parser reads without csv: rows of
#: three identifiers and a timestamp of at most 18 digits (so it fits
#: int64) or none, each ending in a newline.
ROWS_RE = re.compile(r"(?:[A-Za-z0-9_:-]+,[A-Za-z0-9_:-]+,[A-Za-z0-9_:-]+,"
                     r"[0-9]{0,18}\n)*")
TRACE_FIELDS = ("user_id", "title_id", "cell_id", "timestamp")
IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_:-]+")


def as_fraction(fraction):
    """``fraction`` as an exact Fraction, found by trying denominators."""
    if isinstance(fraction, Fraction):
        return fraction
    for q in range(1, MAX_DENOMINATOR + 1):
        for p in (math.floor(fraction * q), math.ceil(fraction * q)):
            if p / q == fraction:
                return Fraction(p, q)
    raise AssertionError(f"{fraction!r} is no fraction of denominator "
                         f"<= {MAX_DENOMINATOR}")


def exact_ceil(fraction, n):
    m = as_fraction(fraction) * n
    return -((-m.numerator) // m.denominator)


def exact_floor(fraction, n):
    m = as_fraction(fraction) * n
    return m.numerator // m.denominator


def title_visits(records, title):
    return sum(1 for r in records if r.title_id == title)


def title_cell_counts(records, title):
    counts = {}
    for r in records:
        if r.title_id == title:
            counts[r.cell_id] = counts.get(r.cell_id, 0) + 1
    return counts


def user_activity(records):
    counts = {}
    for r in records:
        counts[r.user_id] = counts.get(r.user_id, 0) + 1
    return counts


def user_cell_counts(records, user):
    counts = {}
    for r in records:
        if r.user_id == user:
            counts[r.cell_id] = counts.get(r.cell_id, 0) + 1
    return counts


def most_active_cell(records, user):
    counts = user_cell_counts(records, user)
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def ranked_visitors(records, title):
    visitors = {r.user_id for r in records if r.title_id == title}
    activity = user_activity(records)
    return sorted(visitors, key=lambda u: (-activity[u], u))


def target_cells(records, title, coverage):
    """Estimated broadcast cells with `coverage` as an exact Fraction."""
    ranked = ranked_visitors(records, title)
    k = max(1, exact_ceil(coverage, len(ranked)))
    return {most_active_cell(records, u) for u in ranked[:k]}


def partition(records, title, estimated):
    """Returns (hit, missing, mistaken, missed_visits) as plain sets/int."""
    cell_counts = title_cell_counts(records, title)
    actual = set(cell_counts)
    estimated = set(estimated)
    hit = actual & estimated
    missing = actual - estimated
    mistaken = estimated - actual
    missed = sum(cell_counts[c] for c in missing)
    return hit, missing, mistaken, missed


def coverage_breakdown(records, title, coverage):
    """(broadcast, missed, total) under most-active-cell placement."""
    estimated = target_cells(records, title, coverage)
    _, _, _, missed = partition(records, title, estimated)
    return len(estimated), missed, len(estimated) + missed


def sweep_costs(records, title, grid):
    """Total cost at each exact-Fraction grid point, plus the argmin index."""
    costs = [coverage_breakdown(records, title, c)[2] for c in grid]
    best = 0
    for i, cost in enumerate(costs):
        if cost < costs[best]:
            best = i
    return costs, best


def titles_by_popularity(records):
    counts = {}
    for r in records:
        counts[r.title_id] = counts.get(r.title_id, 0) + 1
    return sorted(counts, key=lambda t: (-counts[t], t))


def traffic_total(records, mode, ratio, coverage=None):
    """Whole-trace transmissions at one exact-Fraction broadcast ratio."""
    ordered = titles_by_popularity(records)
    k = max(0, exact_ceil(ratio, len(ordered)))
    broadcast = ordered[:k]
    total = 0
    for title in ordered:
        if title not in broadcast:
            total += title_visits(records, title)
        elif mode == "perfect":
            total += len(title_cell_counts(records, title))
        elif mode == "assumed_location":
            total += coverage_breakdown(records, title, Fraction(1))[2]
        elif mode == "limited_coverage":
            total += coverage_breakdown(records, title, coverage)[2]
        else:
            raise AssertionError(f"bad mode {mode}")
    return total


def top_fraction_count_sum(counts, fraction):
    """Sum of the top floor(fraction * n) counts, fraction an exact Fraction."""
    ordered = sorted(counts, reverse=True)
    k = exact_floor(fraction, len(ordered))
    return sum(ordered[:k])


def read_trace(text):
    """Read trace file text as documented, with csv and int, line by line.

    Returns the visits as a list of ``(user, title, cell, timestamp)``
    tuples, timestamp None where missing; ``[]`` for a file with no rows;
    or ``(line, message)`` for the first bad line, worded as
    parse_trace's TraceFormatError words it.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return []
    if tuple(header) != TRACE_FIELDS:
        return 1, f"bad header {header!r}"
    visits = []
    for row in reader:
        line = reader.line_num
        if len(row) != 4:
            return line, f"expected 4 fields, got {len(row)}"
        for name, value in zip(TRACE_FIELDS, row[:3]):
            if not value:
                return line, f"empty {name} field"
            if not IDENTIFIER_RE.fullmatch(value):
                return line, f"invalid {name} {value!r}"
        timestamp = None
        if row[3]:
            try:
                timestamp = int(row[3])
            except ValueError:
                return line, f"non-integer timestamp {row[3]!r}"
            if timestamp < 0:
                return line, f"negative timestamp {timestamp}"
            if timestamp >= 2**63:
                return line, f"timestamp {timestamp} out of range"
        visits.append((*row[:3], timestamp))
    return visits


def concentration_points(records, kind):
    """The cumulative-share curve of ``kind`` ("user", "title" or "cell"):
    counts by descending count, ties by ascending id, and each point
    ``(k / n, running / total)`` in Python int division."""
    counts = {}
    for r in records:
        key = getattr(r, f"{kind}_id")
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    running = accumulate(count for _, count in ordered)
    return tuple((k / len(ordered), r / len(records))
                 for k, r in enumerate(running, start=1))


def cell_counts(records):
    counts = {}
    for r in records:
        counts[r.cell_id] = counts.get(r.cell_id, 0) + 1
    return counts


def geo_profile(records, max_rank):
    """(mean share by rank, cumulative, mean active cells), with each
    rank's shares summed over the users in order of first appearance."""
    user_cells = {}
    for r in records:
        cells = user_cells.setdefault(r.user_id, {})
        cells[r.cell_id] = cells.get(r.cell_id, 0) + 1
    sums = [0.0] * max_rank
    for cells in user_cells.values():
        total = sum(cells.values())
        ordered = sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))
        for k, (_, count) in enumerate(ordered[:max_rank]):
            sums[k] += count / total
    means = [s / len(user_cells) for s in sums]
    active = sum(map(len, user_cells.values())) / len(user_cells)
    return tuple(means), tuple(accumulate(means)), active


def synthetic_rows(params):
    """The (user, title, cell) identifier rows of ``synth.generate(params)``
    in visit order, drawn as whole columns by ``rng.choice``: the same
    draws from the same stream, in the same order."""
    rng = np.random.default_rng(params.seed)
    weights = params.cell_weights()
    slots = len(weights)
    weights = weights / weights.sum()

    def zipf(n, exponent):
        w = np.arange(1, n + 1, dtype=float) ** -exponent
        return w / w.sum()

    def ids(prefix, n):
        return [f"{prefix}{k:0{len(str(n))}d}" for k in range(1, n + 1)]

    user_cells = np.empty((params.n_users, slots), dtype=np.int64)
    for u in range(params.n_users):
        user_cells[u] = rng.choice(params.n_cells, size=slots, replace=False)
    n = params.n_visits
    users = rng.choice(params.n_users, size=n,
                       p=zipf(params.n_users, params.user_zipf_exponent))
    titles = rng.choice(params.n_titles, size=n,
                        p=zipf(params.n_titles, params.title_zipf_exponent))
    cells = user_cells[users, rng.choice(slots, size=n, p=weights)]
    user_ids = ids("u", params.n_users)
    title_ids = ids("t", params.n_titles)
    cell_ids = ids("c", params.n_cells)
    return [(user_ids[u], title_ids[t], cell_ids[c])
            for u, t, c in zip(users.tolist(), titles.tolist(),
                               cells.tolist())]
