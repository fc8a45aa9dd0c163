"""Visit-record data model, trace file I/O, and the indexed dataset.

A trace is an ordered list of visit records (user, title, cell, optional
timestamp).  ``TraceDataset`` stores it as integer code columns, with one
vocabulary of identifiers per entity kind, and adds the aggregations every
other module consumes: per-user, per-title and per-cell visit counts, each
user's cells, each title's visitors ranked by activity, and the cells
targeting them brings in, counted along that ranking so that two reads
cost targeting any prefix of it.  These are named arrays, the dataset's
only state, declared once in :data:`_SIDECAR`.  One private builder derives
every index with numpy over the code columns; :func:`parse_trace`,
:func:`build_indexes` and ``synth.generate`` all feed it, and every map of
identifiers is built from the arrays on first use and raises
:class:`UnknownIdError` for an identifier the trace does not hold, as do
the one-title and one-user queries that read one.  Datasets are immutable
after construction and safe to share across threads; all analysis
functions in this package are pure reads over them.  :func:`load_trace`
parses a file once and builds its planning tables, then keeps the arrays
(about twice the columns' size) in a sidecar ``.<name>.prepush.npz`` keyed
by the sha256 of the bytes parsed; later reads wrap the stored arrays and
build nothing.  A stale, damaged or inconsistent sidecar is parsed over,
and any is safe to delete.

Trace file format: UTF-8 text, one header line ``user_id,title_id,cell_id,
timestamp``, comma-delimited rows, empty timestamp field allowed.
Identifiers are restricted to ``[A-Za-z0-9_:-]+`` so no quoting is needed.
The parser checks each block of about a megabyte with byte operations,
then finds its fields and codes its identifiers and timestamps with numpy
over the block's bytes, looking up each distinct identifier once.  From
the first block the check rejects to the end of the file it reads line
by line with :mod:`csv`: that path still accepts the odd rows :mod:`csv`
and ``int`` accept (quoted fields, CRLF line ends, ``+5`` timestamps), and
it is the only place a parse error is raised.
"""

import csv
import hashlib
import io
import itertools
import os
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTraceError,
    RecordValidationError,
    TraceFormatError,
    UnknownIdError,
)
from .rounding import ceil_count, ceil_counts

TRACE_HEADER = ("user_id", "title_id", "cell_id", "timestamp")

_IDENT_RE = re.compile(r"[A-Za-z0-9_:-]+\Z")
_ID_BYTES = bytes(c for c in range(128) if _IDENT_RE.match(chr(c)))
_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"
_ID_FIELDS = TRACE_HEADER[:3]
#: Characters per block the parser reads, and rows per block it collects
#: on the per-line path or write_trace formats.
_CHUNK_CHARS = 1 << 20
_CHUNK_ROWS = 1 << 16
#: The timestamp column's value for a visit without a timestamp.
_NO_TIMESTAMP = -1
_MAX_TIMESTAMP = int(np.iinfo(np.int64).max)
#: Masks that keep a little-endian word's first 0 to 8 bytes.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: The place values of a timestamp's digits, ones first.
_PLACES = 10 ** np.arange(18, dtype=np.int64)
#: A sidecar's key before the sha256: bump it if the layout or parse changes.
_SIDECAR_KEY = "prepush sidecar 4 sha256 "
#: The arrays a dataset is built from, as a sidecar stores them after its
#: key: name, dtype, length and the exclusive bound of its values.  Both
#: are sizes: of the visits, of each vocabulary, of the timestamps (the
#: visits, or 0 for none), of the target cells, or the last entry of a
#: bounds array, which is ``+1`` long and runs strictly up from 0 to its
#: bound.  The members from ``ranked_bounds`` on are ``_planning``'s.
_SIDECAR = (
    ("ids0", "S", "users", None),
    ("ids1", "S", "titles", None),
    ("ids2", "S", "cells", None),
    ("codes0", np.int32, "visits", "users"),
    ("codes1", np.int32, "visits", "titles"),
    ("codes2", np.int32, "visits", "cells"),
    ("timestamps", np.int64, "stamps", None),
    ("user_counts", np.int64, "users", None),
    ("user_ranks", np.int64, "users", "users"),
    ("title_counts", np.int64, "titles", None),
    ("popularity", np.int64, "titles", "titles"),
    ("cell_counts", np.int64, "cells", None),
    ("user_cell_bounds", np.int64, "users+1", "user_cells"),
    ("user_cells", np.int64, "user_cells", "cells"),
    ("user_cell_counts", np.int64, "user_cells", None),
    ("ranked_bounds", np.int64, "titles+1", "ranked"),
    ("ranked_users", np.int32, "ranked", "users"),
    ("ranked_targets", np.int32, "ranked+1", None),
    ("ranked_hits", np.int32, "ranked+1", None),
    ("ranked_covered", np.int64, "ranked+1", None),
    ("target_cells", np.int32, "targets", "cells"),
    ("title_cells", np.int64, "titles", None),
)


@dataclass(frozen=True, slots=True)
class VisitRecord:
    """One logged content access: a user fetched a title from a cell."""

    user_id: str
    title_id: str
    cell_id: str
    timestamp: int | None = None

    def problem(self):
        """Return a description of the first violated invariant, or None."""
        if not self.user_id:
            return "empty user_id"
        if not self.title_id:
            return "empty title_id"
        if not self.cell_id:
            return "empty cell_id"
        if self.timestamp is not None and self.timestamp < 0:
            return f"negative timestamp {self.timestamp}"
        if self.timestamp is not None and self.timestamp > _MAX_TIMESTAMP:
            return f"timestamp {self.timestamp} out of range"
        return None


class _IdMap(dict):
    """A dict keyed by the identifiers of one ``kind`` (user, title or
    cell): a missing key raises :class:`UnknownIdError` naming it."""

    __slots__ = ("kind",)

    def __init__(self, kind, items):
        super().__init__(items)
        self.kind = kind

    def __missing__(self, key):
        raise UnknownIdError(self.kind, key)


class TraceDataset:
    """Immutable visit columns plus derived per-entity indexes: the arrays
    named in :data:`_SIDECAR`, and nothing else but views of them.

    The visits are three int32 code columns (user, title, cell) and an
    int64 timestamp column in which -1 stands for "no timestamp" (empty
    for a trace with none).  A code indexes its kind's vocabulary of
    identifiers, numbered in order of first appearance in the trace, so
    equal record sequences give equal columns, and ``==`` compares two
    datasets' records that way.

    Every map of identifiers, the visit counts too, is a view built from
    the arrays on first use and cached (:func:`functools.cached_property`);
    their keys, and those of the per-title and per-user cell maps, follow
    first appearance in the trace.  So is ``records``, a read-only tuple of
    :class:`VisitRecord`.  ``user_top_cell`` maps each user to their most
    visited cell (ties by ascending cell id) and ``user_rank`` to their
    0-based position in descending activity order (ties by ascending id).
    A map keyed by identifiers raises :class:`UnknownIdError`, a
    ``KeyError`` naming the kind, for an identifier not in the trace;
    ``.get`` and ``in`` work as on any dict.  The inner ``{cell: visits}``
    maps are plain dicts.  Python 3.11 locks a view's first build; from
    3.12 on, two threads that read an unbuilt view at once may each build
    it, and either keeps an equal value.

    Placement and planning read two private indexes of integer arrays instead
    of sets of identifiers.  The *ranked index* holds each title's distinct
    visitors as user codes, most active first.  The *first-target table* holds
    each title's distinct target cells (a visitor's most active cell) in the
    order the ranked index first reaches them; prefix columns over the ranked
    index count the entries reached before each position, their hit cells
    (cells the title was visited in) and the visits those cells cover.
    Targeting a title's first k ranked visitors is then two reads of each
    column; see :meth:`_targeting`.  ``_planning`` adds both to the arrays
    on first use, so a dataset never planned over never holds them, unless
    :func:`load_trace` restored them with the columns.  ``title_users`` maps
    each title to the frozenset of its visitors.
    """

    def __init__(self, arrays):
        #: The arrays, named as in :data:`_SIDECAR` with the vocabularies
        #: as object arrays; ``_planning`` adds its tables.
        self._arrays = arrays

    def __repr__(self):
        return f"TraceDataset(total_visits={self.total_visits})"

    @property
    def total_visits(self):
        return len(self._arrays["codes0"])

    @property
    def n_titles(self):
        return len(self._arrays["ids1"])

    @property
    def n_users(self):
        return len(self._arrays["ids0"])

    @cached_property
    def title_visits(self):
        """Each title's visit count."""
        return _IdMap("title", zip(self._arrays["ids1"].tolist(),
                                   self._arrays["title_counts"].tolist()))

    @cached_property
    def user_visits(self):
        """Each user's visit count."""
        return _IdMap("user", zip(self._arrays["ids0"].tolist(),
                                  self._arrays["user_counts"].tolist()))

    @cached_property
    def records(self):
        """The visits in trace order, as a tuple of :class:`VisitRecord`."""
        a = self._arrays
        fields = [a[f"ids{k}"][a[f"codes{k}"]].tolist() for k in range(3)]
        stamps = a["timestamps"]
        if len(stamps):
            given = stamps.astype(object)
            given[stamps == _NO_TIMESTAMP] = None
            fields.append(given.tolist())
        return tuple(map(VisitRecord, *fields))

    @cached_property
    def title_users(self):
        """Each title's distinct visitors, as a frozenset of user ids."""
        a = self._planning
        bounds = a["ranked_bounds"].tolist()
        names = a["ids0"][a["ranked_users"]].tolist()
        return _IdMap("title", (
            (title, frozenset(names[start:stop])) for title, start, stop in
            zip(a["ids1"].tolist(), bounds, bounds[1:])))

    @cached_property
    def title_cell_visits(self):
        """Each title's visits per cell, as ``{cell: visits}``."""
        return self._cell_maps(1)

    @cached_property
    def user_cell_visits(self):
        """Each user's visits per cell, as ``{cell: visits}``."""
        return self._cell_maps(0)

    @cached_property
    def user_top_cell(self):
        """Each user's most visited cell (ties by ascending cell id)."""
        a = self._arrays
        top = a["ids2"][a["user_cells"][a["user_cell_bounds"][:-1]]]
        return _IdMap("user", zip(a["ids0"].tolist(), top.tolist()))

    @cached_property
    def user_rank(self):
        """Each user's 0-based position in descending activity order."""
        a = self._arrays
        return _IdMap("user", zip(a["ids0"].tolist(),
                                  a["user_ranks"].tolist()))

    def _cell_maps(self, kind):
        """``{id: {cell: visits}}`` over the users (``kind`` 0) or the
        titles (``kind`` 1), each map's keys in order of first appearance."""
        a = self._arrays
        ids, cell_ids = a[f"ids{kind}"], a["ids2"]
        outer, cells = a[f"codes{kind}"], a["codes2"]
        keys, first, counts = _distinct(_pair_keys(outer, cells, len(cell_ids)))
        groups = keys // len(cell_ids)
        order = np.argsort(groups * len(outer) + first)
        bounds = _bounds(groups, len(ids)).tolist()
        cells = cell_ids[(keys % len(cell_ids))[order]].tolist()
        counts = counts[order].tolist()
        return _IdMap(("user", "title")[kind], (
            (key, dict(zip(cells[start:stop], counts[start:stop])))
            for key, start, stop in zip(ids.tolist(), bounds, bounds[1:])))

    @cached_property
    def _planning(self):
        """The arrays, with the tables added unless :func:`load_trace`
        restored them: the ranked index ``ranked_{bounds,users}``, the
        first-target table ``target_cells`` and its prefix columns
        ``ranked_{targets,hits,covered}``, and ``title_cells``, each title
        code's number of distinct cells.

        ``targets[r]`` counts the entries first reached before ranked
        position r, and ``hits[r]`` and ``covered[r]`` sum their hit cells
        and covered visits; ranked positions s to e reach the entries
        ``target_cells[targets[s]:targets[e]]``.
        """
        a = self._arrays
        if "title_cells" in a:
            return a
        users, titles, cells = a["codes0"], a["codes1"], a["codes2"]
        n_users, n_titles, n_cells = (len(a[f"ids{k}"]) for k in range(3))
        ranks = a["user_ranks"]
        # The ranked index: one sort of (title, user rank) keys, deduplicated.
        keys = _counted(_pair_keys(titles, ranks[users], n_users))[0]
        ranked_users = ranks.argsort()[keys % n_users].astype(np.int32)
        ranked_titles = keys // n_users
        del keys

        # Each (title, target cell) pair at the first ranked position it
        # appears at, with the visits the cell covers (0 where the title was
        # never visited in it).
        top_cells = a["user_cells"][a["user_cell_bounds"][:-1]]
        pairs = ranked_titles * n_cells + top_cells[ranked_users]
        first = np.sort(_distinct(pairs)[1])
        pairs = pairs[first]
        tc_keys, tc_counts = _counted(_pair_keys(titles, cells, n_cells))
        at = tc_keys.searchsorted(pairs).clip(max=len(tc_keys) - 1)
        covers = np.where(tc_keys[at] == pairs, tc_counts[at], 0)
        title_cells = np.bincount(tc_keys // n_cells)
        del pairs, at, tc_keys, tc_counts
        # Each prefix column steps at the positions that reach a new entry.
        prefix = {}
        for name, dtype, step in (("ranked_targets", np.int32, 1),
                                  ("ranked_hits", np.int32, covers > 0),
                                  ("ranked_covered", np.int64, covers)):
            prefix[name] = np.zeros(len(ranked_users) + 1, dtype=dtype)
            prefix[name][first + 1] = step
            np.cumsum(prefix[name], out=prefix[name])
        # One update, so that a reader who finds title_cells finds every
        # table.
        a.update({
            "ranked_bounds": _bounds(ranked_titles, n_titles),
            "ranked_users": ranked_users, **prefix,
            "target_cells": top_cells[ranked_users[first]].astype(np.int32),
            "title_cells": title_cells})
        return a

    @cached_property
    def _title_index(self):
        """The one-title queries' tables, read a Python object at a time:
        each title id's code, by code its ranked bounds and visits, the cell
        ids, and memoryviews of ``ranked_{targets,covered}, target_cells``."""
        a = self._planning
        return (_IdMap("title", zip(a["ids1"].tolist(), itertools.count())),
                a["ranked_bounds"].tolist(), a["title_counts"].tolist(),
                a["ids2"].tolist(), *map(memoryview, (
                    a["ranked_targets"], a["ranked_covered"],
                    a["target_cells"])))

    def _title_code(self, title):
        return self._title_index[0][title]

    def _ranked_visitors(self, title):
        """The title's distinct visitors, most active first."""
        code = self._title_code(title)
        ranked = self._title_index[1]
        users = self._arrays["ranked_users"][ranked[code]:ranked[code + 1]]
        return self._arrays["ids0"][users].tolist()

    def _targeting(self, title, coverage):
        """Cost of targeting the most active ``coverage`` of the title's
        visitors, each in their most active cell.

        A coverage targets the first ``k = ceil(coverage * n)`` of the
        title's ``n`` ranked visitors, from ranked position s; coverage 0
        targets none.  Their cells are the table entries first reached
        before position ``s + k``, so each coverage is two reads of each
        prefix column.  Returns the number of target cells and the title's
        visits in no target cell: each an int for one coverage, or a list
        with one entry per coverage for a tuple.
        """
        codes, ranked, visits, _, targets, covered, _ = self._title_index
        code = codes[title]
        start, stop = ranked[code:code + 2]
        top, offset = targets[start], visits[code] + covered[start]
        if isinstance(coverage, tuple):
            ends = [start + k for k in ceil_counts(coverage, stop - start)]
            return ([targets[end] - top for end in ends],
                    [offset - covered[end] for end in ends])
        end = start + ceil_count(coverage, stop - start)
        return targets[end] - top, offset - covered[end]

    def _target_cells(self, title, n_cells):
        """The title's first ``n_cells`` target cells, as a frozenset."""
        _, ranked, _, names, targets, _, cells = self._title_index
        top = targets[ranked[self._title_code(title)]]
        return frozenset(map(names.__getitem__, cells[top:top + n_cells]))

    def __eq__(self, other):
        if not isinstance(other, TraceDataset):
            return NotImplemented
        return all(np.array_equal(self._arrays[name], other._arrays[name])
                   for name, *_ in _SIDECAR[:7])


class _Columns:
    """Code columns collected block by block for :func:`_from_columns`,
    with one identifier-to-code dict per kind shared by every block;
    :func:`_add_rows` appends its code arrays to ``blocks`` itself."""

    def __init__(self):
        self.codes = (defaultdict(), defaultdict(), defaultdict())
        for codes in self.codes:
            codes.default_factory = codes.__len__
        self.blocks = ([], [], [], [])

    def add(self, users, titles, cells, timestamps):
        """Append one block: three lists of identifiers and an int64 array
        of timestamps (:data:`_NO_TIMESTAMP` where missing)."""
        # A missing identifier gets the next code on lookup, so one pass
        # numbers new identifiers in order of first appearance.
        for codes, blocks, ids in zip(self.codes, self.blocks,
                                      (users, titles, cells)):
            blocks.append(np.fromiter(map(codes.__getitem__, ids), np.int32,
                                      len(ids)))
        self.blocks[3].append(timestamps)

    def build(self):
        """The dataset; the blocks are released before it is built."""
        columns = [np.concatenate(b) if b else np.zeros(0, np.int64)
                   for b in self.blocks]
        self.blocks = None
        # Popped into the call, so each column goes once renumbered.
        return _from_columns([list(c) for c in self.codes], columns.pop(0),
                             columns.pop(0), columns.pop(0), columns.pop(0))


def _first_appearance(ids, codes):
    """Renumber ``codes`` in order of first appearance.

    Returns the identifiers of the codes in use, in their new order, as an
    object array, and the renumbered int32 codes.
    """
    n = len(codes)
    first = np.full(len(ids), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n))
    used = np.flatnonzero(first < n)
    order = used[np.argsort(first[used])]
    renumber = np.zeros(len(ids), dtype=np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    vocabulary = np.empty(len(order), dtype=object)
    vocabulary[:] = [ids[k] for k in order.tolist()]
    return vocabulary, renumber[codes]


def _bounds(groups, n_groups):
    """CSR bounds of items grouped by ascending group code."""
    bounds = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=n_groups), out=bounds[1:])
    return bounds


def _distinct(keys):
    """The distinct values of a non-negative int64 array, ascending.

    Returns ``(values, first, counts)``: each value's index of first
    appearance in ``keys`` and its number of occurrences.
    """
    order = keys.argsort()
    keys = keys[order]
    starts = _run_starts(keys)
    return (keys[starts], np.minimum.reduceat(order, starts),
            np.diff(starts, append=len(keys)))


def _counted(keys):
    """The distinct values of an int64 array, ascending, and their counts;
    ``keys`` is sorted in place, where ``np.unique`` would copy it first."""
    keys.sort()
    starts = _run_starts(keys)
    return keys[starts], np.diff(starts, append=len(keys))


def _run_starts(keys):
    """Where each run of equal values starts in a sorted array."""
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _pair_keys(outer, inner, n_inner):
    """The int64 keys ``outer * n_inner + inner`` of code pairs."""
    keys = outer.astype(np.int64)
    keys *= n_inner
    keys += inner
    return keys


def _id_ranks(vocabulary):
    """Each code's position in ascending identifier order."""
    ids = vocabulary.tolist()
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _from_columns(vocabularies, users, titles, cells, timestamps=None):
    """The one dataset builder: every index from the code columns.

    ``vocabularies`` holds the user, title and cell identifiers indexed by
    the codes in ``users``, ``titles`` and ``cells``.  Any numbering will
    do: codes are renumbered in order of first appearance, and identifiers
    no visit uses are dropped.  ``timestamps`` is an int64 column with
    :data:`_NO_TIMESTAMP` for a missing value, or None if no visit has
    one.
    """
    (user_ids, users), (title_ids, titles), (cell_ids, cells) = (
        _first_appearance(ids, codes)
        for ids, codes in zip(vocabularies, (users, titles, cells)))
    if timestamps is None or (timestamps == _NO_TIMESTAMP).all():
        timestamps = np.zeros(0, dtype=np.int64)
    n_users, n_titles, n_cells = len(user_ids), len(title_ids), len(cell_ids)
    user_counts = np.bincount(users, minlength=n_users)
    title_counts = np.bincount(titles, minlength=n_titles)

    # The user-cell pairs by user, descending count and ascending cell id:
    # each user's first pair is their most active cell.
    uc_keys, uc_counts = _counted(_pair_keys(users, cells, n_cells))
    uc_users, uc_cells = np.divmod(uc_keys, n_cells)
    top = np.lexsort((_id_ranks(cell_ids)[uc_cells], -uc_counts, uc_users))

    return TraceDataset({
        "ids0": user_ids, "ids1": title_ids, "ids2": cell_ids,
        "codes0": users, "codes1": titles, "codes2": cells,
        "timestamps": timestamps,
        "user_counts": user_counts,
        # Sorting the activity order's permutation inverts it.
        "user_ranks": np.lexsort((_id_ranks(user_ids),
                                  -user_counts)).argsort(),
        "title_counts": title_counts,
        "popularity": np.lexsort((_id_ranks(title_ids), -title_counts)),
        "cell_counts": np.bincount(cells, minlength=n_cells),
        "user_cell_bounds": _bounds(uc_users, n_users),
        "user_cells": uc_cells[top],
        "user_cell_counts": uc_counts[top],
    })


def build_indexes(records):
    """Validate records and build a fully indexed :class:`TraceDataset`.

    Parameters
    ----------
    records : iterable of VisitRecord
        Visits in trace order.

    Returns
    -------
    TraceDataset

    Raises
    ------
    RecordValidationError
        If a record violates an invariant; the error names its index.
    """
    records = tuple(records)
    for i, rec in enumerate(records):
        problem = rec.problem()
        if problem is not None:
            raise RecordValidationError(i, problem)
    columns = _Columns()
    columns.add(
        *(list(map(attrgetter(name), records)) for name in _ID_FIELDS),
        np.array([_NO_TIMESTAMP if r.timestamp is None else r.timestamp
                  for r in records], dtype=np.int64),
    )
    return columns.build()


def _add_rows(columns, rows):
    """Append a block of rows and return True if each is three identifiers
    and a timestamp of at most 18 digits (so it fits int64) or none; else
    append nothing and return False.  Non-ASCII text fails the byte check.

    An identifier's key is its bytes zero-padded to whole little-endian
    8-byte words (identifiers hold no NUL), so the block's distinct keys
    come from one sort and only those are looked up in the vocabulary.
    """
    data = rows.encode()
    if (data.translate(None, _ID_BYTES) != b",,,\n" * data.count(b"\n")
            or b",," in data or b"\n," in data or data.startswith(b",")):
        return False
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    starts, sizes = starts.reshape(-1, 4), (ends - starts).reshape(-1, 4)
    # Padding by the longest field keeps every window read inside the buffer.
    buf = np.frombuffer(data + bytes(sizes.max() + 8), np.uint8)
    stamps = np.full(len(starts), _NO_TIMESTAMP, dtype=np.int64)
    given = np.flatnonzero(sizes[:, 3])
    if len(given):
        size = sizes[given, 3]
        if size.max() > 18:
            return False
        at = np.arange(size.max())
        place = size[:, None] - 1 - at
        digits = buf[starts[given, 3, None] + at] - ord("0")
        digits[place < 0] = 0
        if (digits > 9).any():
            return False
        stamps[given] = (digits * _PLACES[place.clip(0)]).sum(axis=1)
    window = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    for kind, (codes, blocks) in enumerate(zip(columns.codes, columns.blocks)):
        start, size = starts[:, kind], sizes[:, kind]
        words = np.stack([window[start + at] & _MASKS[(size - at).clip(0, 8)]
                          for at in range(0, size.max(), 8)])
        # Equal keys end up side by side; one unstable sort for one word.
        order = (np.lexsort(words[::-1]) if len(words) > 1
                 else words[0].argsort())
        words = words[:, order]
        new = np.r_[True, (words[:, 1:] != words[:, :-1]).any(axis=0)]
        names = np.ascontiguousarray(words[:, new].T, dtype="<u8").view(
            f"S{8 * len(words)}").astype(str).ravel().tolist()
        local = np.fromiter(map(codes.__getitem__, names), np.int32)
        blocks.append(np.empty(len(order), dtype=np.int32))
        blocks[-1][order] = local[np.cumsum(new) - 1]
    columns.blocks[3].append(stamps)
    return True


def _parse_identifier(line_no, name, value):
    if not value:
        raise TraceFormatError(line_no, f"empty {name} field")
    if not _IDENT_RE.match(value):
        raise TraceFormatError(line_no, f"invalid {name} {value!r}")
    return value


def _parse_timestamp(line_no, text):
    if text == "":
        return _NO_TIMESTAMP
    try:
        timestamp = int(text)
    except ValueError:
        raise TraceFormatError(
            line_no, f"non-integer timestamp {text!r}"
        ) from None
    if timestamp < 0:
        raise TraceFormatError(line_no, f"negative timestamp {timestamp}")
    if timestamp > _MAX_TIMESTAMP:
        raise TraceFormatError(line_no, f"timestamp {timestamp} out of range")
    return timestamp


def _add_lines(columns, lines, lines_before, path):
    """The per-line path: read ``lines`` with :mod:`csv`, check every field
    and append the rows.

    ``lines_before`` counts the file's lines ahead of ``lines``; when it is
    0, ``lines`` starts with the header.
    """
    reader = csv.reader(lines)
    if lines_before == 0:
        header = next(reader, None)
        if header is None:
            raise EmptyTraceError(f"{path}: empty trace file")
        if tuple(header) != TRACE_HEADER:
            raise TraceFormatError(1, f"bad header {header!r}")
    block = ([], [], [], [])
    for row in reader:
        line_no = lines_before + reader.line_num
        if len(row) != 4:
            raise TraceFormatError(
                line_no, f"expected 4 fields, got {len(row)}"
            )
        for name, value, ids in zip(_ID_FIELDS, row, block):
            ids.append(_parse_identifier(line_no, name, value))
        block[3].append(_parse_timestamp(line_no, row[3]))
        if len(block[3]) == _CHUNK_ROWS:
            columns.add(*block[:3], np.array(block[3], dtype=np.int64))
            block = ([], [], [], [])
    columns.add(*block[:3], np.array(block[3], dtype=np.int64))


def _add_blocks(columns, handle, path):
    """The fast path: the rows after the header, a block at a time, until
    the end of the file or the first block :func:`_add_rows` rejects."""
    lines_before = 1
    pending = ""
    while True:
        text = handle.read(_CHUNK_CHARS)
        block = pending + text
        cut = block.rfind("\n") + 1 if text else len(block)
        block, pending = block[:cut], block[cut:]
        if block:
            rows = block if block.endswith("\n") else block + "\n"
            if not _add_rows(columns, rows):
                # Complete the pending line, so the csv reader goes on from
                # the handle at a line boundary.
                head = io.StringIO(block + pending + handle.readline(),
                                   newline="")
                _add_lines(columns, itertools.chain(head, handle),
                           lines_before, path)
                return
            lines_before += len(columns.blocks[3][-1])  # one stamp a row
        if not text:
            return


def parse_trace(path):
    """Read a trace file and return the indexed dataset.

    Parameters
    ----------
    path : str or Path
        Trace file to read.

    Returns
    -------
    TraceDataset
        Record order preserved from file order.

    Raises
    ------
    TraceFormatError
        Malformed header or line, or bytes that are not UTF-8; the error
        names the line number.
    EmptyTraceError
        File contains a header but zero records.
    """
    return _parse(path, None)


class _Digesting(io.RawIOBase):
    """Reads a raw binary file, feeding every byte read to ``digest``."""

    def __init__(self, raw, digest):
        self.raw, self.digest = raw, digest

    def readable(self):
        return True

    def readinto(self, buffer):
        size = self.raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:size])
        return size


def _parse(path, digest):
    """:func:`parse_trace`, feeding each byte it reads, on the block path
    and the per-line path alike, to ``digest`` unless that is None."""
    columns = _Columns()
    try:
        with (open(path, "rb", buffering=0) as raw,
              io.TextIOWrapper(io.BufferedReader(
                  raw if digest is None else _Digesting(raw, digest)),
                  encoding="utf-8", newline="") as handle):
            header = handle.readline()
            if header == _HEADER_LINE:
                _add_blocks(columns, handle, path)
            else:
                head = io.StringIO(header, newline="")
                _add_lines(columns, itertools.chain(head, handle), 0, path)
    except UnicodeDecodeError:
        # Its offset is in the decoder's buffer: drop the rows, find its line.
        columns.blocks = columns.codes = None
        with open(path, "rb") as handle:
            for line_no, line in enumerate(handle, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(line_no, str(exc)) from None
        raise
    dataset = columns.build()
    if not dataset.total_visits:
        raise EmptyTraceError(f"{path}: trace contains zero records")
    return dataset


def _read_sidecar(sidecar, key):
    """The dataset ``sidecar`` holds under ``key``, or None: a stale,
    damaged or crafted one is None if any :data:`_SIDECAR` member is
    missing, has another dtype or length, or holds a value out of range,
    or if ``ranked_targets`` does not count up from 0 to its entries."""
    try:
        with (open(sidecar, "rb") as handle,
              np.load(handle, allow_pickle=False) as npz):
            if str(npz["key"]) != key:
                return None
            arrays = {name: npz[name] for name, *_ in _SIDECAR}
        n = len(arrays["codes0"])
        sizes = {"visits": n, "stamps": n if len(arrays["timestamps"]) else 0,
                 "users": len(arrays["ids0"]), "titles": len(arrays["ids1"]),
                 "cells": len(arrays["ids2"]),
                 "targets": len(arrays["target_cells"])}
        # A bounds array's last entry sizes the arrays it bounds.
        sizes.update((bound, int(arrays[name][-1]))
                     for name, _, length, bound in _SIDECAR
                     if bound and length.endswith("+1"))
        for name, dtype, length, bound in _SIDECAR:
            array = arrays[name]
            size, plus, _ = length.partition("+")
            if not ((array.dtype.kind == "S" if dtype == "S"
                     else array.dtype == dtype)
                    and array.shape == (sizes[size] + bool(plus),)):
                return None
            # An empty index array, as of no visits, raises: a miss too.
            if bound and not (
                    array[0] == 0 and (np.diff(array) > 0).all() if plus
                    else 0 <= array.min() and array.max() < sizes[bound]):
                return None
        # Each ranked position reaches at most one new entry.
        targets = arrays["ranked_targets"]
        steps = np.diff(targets)
        if not (targets[0] == 0 and targets[-1] == sizes["targets"]
                and 0 <= steps.min() and steps.max() <= 1):
            return None
        for k in range(3):
            arrays[f"ids{k}"] = arrays[f"ids{k}"].astype(str).astype(object)
    except Exception:  # an unreadable sidecar, or non-ASCII identifiers
        return None
    return TraceDataset(arrays)


def load_trace(path):
    """:func:`parse_trace` through the file's sidecar (see the module)."""
    path = Path(path)
    if not path.is_file():
        return parse_trace(path)
    sidecar = path.with_name(f".{path.name}.prepush.npz")
    with open(path, "rb") as handle:
        key = _SIDECAR_KEY + hashlib.file_digest(handle, "sha256").hexdigest()
    dataset = _read_sidecar(sidecar, key)
    if dataset is not None:
        return dataset
    # Keyed by the bytes parsed, which differ from those hashed above if the
    # file was rewritten in between.
    digest = hashlib.sha256()
    dataset = _parse(path, digest)
    key = _SIDECAR_KEY + digest.hexdigest()
    dataset._planning  # stored with the columns, so no hit builds it
    # Every array is stored, an empty one for no timestamps: a damaged zip
    # directory can drop a member, but each member's CRC is checked.
    arrays = {name: np.asarray(dataset._arrays[name], dtype)
              for name, dtype, *_ in _SIDECAR}
    temp = None
    try:
        fd, temp = tempfile.mkstemp(".tmp", sidecar.name, sidecar.parent)
        with open(fd, "wb") as handle:
            np.savez(handle, key=key, **arrays)
        # Whoever may read the trace may read its sidecar.
        os.chmod(temp, os.stat(path).st_mode & 0o666)
        os.replace(temp, sidecar)
    except OSError:  # a read-only directory or a full disk, say
        if temp:
            os.unlink(temp)
    return dataset


def write_trace(dataset, path):
    """Write a dataset in the exact format :func:`parse_trace` reads.

    ``parse_trace(write_trace(d))`` reproduces ``d``.  Raises
    :class:`EmptyTraceError` for a zero-record dataset and ValueError for
    identifiers outside the file format's character set; either is raised
    before the file is opened.
    """
    if not dataset.total_visits:
        raise EmptyTraceError("refusing to write a zero-record trace")
    # Each vocabulary entry is checked once.  Codes number identifiers in
    # order of first appearance, so a kind's lowest bad code is the first
    # bad one in its column.
    found = []
    arrays = dataset._arrays
    for kind, name in enumerate(_ID_FIELDS):
        ids, codes = arrays[f"ids{kind}"], arrays[f"codes{kind}"]
        bad = next((code for code, ident in enumerate(ids.tolist())
                    if not _IDENT_RE.match(ident)), None)
        if bad is not None:
            found.append((int(np.argmax(codes == bad)), kind,
                          f"{name} {ids[bad]!r}"))
    if found:
        index, _, what = min(found)
        raise ValueError(
            f"record {index}: {what} not writable as [A-Za-z0-9_:-]+"
        )
    stamps = arrays["timestamps"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_HEADER_LINE)
        for start in range(0, dataset.total_visits, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            ids = [arrays[f"ids{k}"][arrays[f"codes{k}"][rows]].tolist()
                   for k in range(3)]
            texts = np.full(len(ids[0]), "", dtype=object)
            if len(stamps):
                given = stamps[rows]
                has = given != _NO_TIMESTAMP
                texts[has] = given[has].astype(str)
            handle.write("\n".join(map(",".join, zip(*ids, texts.tolist()))))
            handle.write("\n")
