"""Visit-record data model, trace file I/O, and the indexed dataset.

A trace is an ordered list of visit records (user, title, cell, optional
timestamp).  ``TraceDataset`` stores it as integer code columns, with one
vocabulary of identifiers per entity kind, and adds the aggregations every
other module consumes: per-user, per-title and per-cell visit counts, each
user's cells, each title's visitors ranked by activity, and the cells
targeting them brings in, counted along that ranking so that two reads
cost targeting any prefix of it.  These are named arrays, the dataset's
only state, declared once in :data:`_SIDECAR`; one rule holds them all: an
array not held yet is made on first use, one thread at a time.  One
private builder derives every index with numpy over the code columns, the
planning tables on first use; :func:`parse_trace`, :func:`build_indexes`
and ``synth.generate`` all feed it, and every map of identifiers is built
from the arrays on first use and raises :class:`UnknownIdError` for an
identifier the trace does not hold, as do the one-title and one-user
queries that read one.  Datasets are immutable after construction and
safe to share across threads; all analysis functions in this package are
pure reads over them.  :func:`write_trace` keeps a dataset's arrays and
planning tables (about twice the columns' size) in a sidecar
``.<name>.prepush.npz`` keyed by the sha256 of the bytes written, as
``prepush gen`` does and :func:`load_trace` after parsing a trace without
one.  Its mtime binds it to the trace's ctime C with those bytes: C if
older than the sidecar's write (git's racy-clean rule), else 0.  A read
trusts the stored key if that mtime is the trace's ctime and older than
the sidecar's own ctime, which a rewrite moves; any other read beside a
regular sidecar of this layout hashes the trace, and binds nothing.  Later
reads build nothing: up front they read only the key and the sizes; every
array, a vocabulary too, is made by reading it, its CRC, dtype, length and
values checked.  A stale, damaged or inconsistent sidecar is parsed over,
up front or on that first use; any may be deleted.

Trace file format: UTF-8 text, one header line ``user_id,title_id,cell_id,
timestamp``, comma-delimited rows, empty timestamp field allowed.
Identifiers are restricted to ``[A-Za-z0-9_:-]+`` so no quoting is needed.
The parser checks each block of about a megabyte with byte operations,
then finds its fields and codes its identifiers and timestamps with numpy
over the block's bytes, looking up each distinct identifier once.  It
reads a block the check rejects, and a record a quoted field carries past
it, line by line with :mod:`csv`, then goes on with the next: that path
still accepts the odd rows :mod:`csv` and ``int`` accept (quoted fields,
CRLF line ends, ``+5`` timestamps), and it is the only place a parse error
is raised: bytes that are not UTF-8, read as lone surrogates, fail their
own row, as does a field longer than :func:`csv.field_size_limit`.
"""

import csv
import errno
import io
import itertools
import os
import re
import stat
import threading
import weakref
from collections import defaultdict
from collections.abc import Mapping
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, partial, reduce
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
#: Characters per block the parser reads (to the end of a line), and rows
#: per block write_trace formats.
_CHUNK_CHARS = 1 << 20
_CHUNK_ROWS = 1 << 16
#: The timestamp column's value for a visit without a timestamp.
_NO_TIMESTAMP = -1
_MAX_TIMESTAMP = int(np.iinfo(np.int64).max)
#: Masks that keep a little-endian word's first 0 to 8 bytes.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: The odd multiplier that mixes an identifier's words into one sort key.
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: The place values of a timestamp's digits, ones first.
_PLACES = 10 ** np.arange(18, dtype=np.int64)
#: A sidecar's key before the sha256: bump it if the layout or parse changes.
_SIDECAR_KEY = "prepush sidecar 5 sha256 "
#: The arrays a dataset is built from, as a sidecar stores them after its
#: key and sizes: name, dtype, length and the exclusive bound of its
#: values.  Both are sizes: of the visits, of each vocabulary, of the
#: timestamps (the visits, or 0 for none), of the target cells, or the last
#: entry of a bounds array, which is ``+1`` long and runs strictly up from
#: 0 to its bound.  A dataset's :class:`_Arrays` makes a member it does not
#: hold yet on first use, one thread at a time: those from ``ranked_bounds``
#: on are :func:`_planning`'s.
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
_MEMBERS = {name: spec for name, *spec in _SIDECAR}
#: The sizes, in the order of a sidecar's ``sizes`` member.
_SIZES = tuple(dict.fromkeys(length.removesuffix("+1")
                             for _, _, length, _ in _SIDECAR))


@dataclass(frozen=True, slots=True)
class VisitRecord:
    """One logged content access: a user fetched a title from a cell."""

    user_id: str
    title_id: str
    cell_id: str
    timestamp: int | None = None

    def problem(self):
        """Return a description of the first violated invariant, or None."""
        for name in _ID_FIELDS:
            if not getattr(self, name):
                return f"empty {name}"
        return _timestamp_problem(self.timestamp)


def _timestamp_problem(timestamp):
    """Why a timestamp, if not None, is out of range, or else None."""
    if timestamp is not None and timestamp < 0:
        return f"negative timestamp {timestamp}"
    if timestamp is not None and timestamp > _MAX_TIMESTAMP:
        return f"timestamp {timestamp} out of range"
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
    it, and either keeps an equal value.  An array not held yet is made on
    first use, one thread at a time (:class:`_Arrays`), so every thread
    gets the one array made; a sidecar hit's file stays open until every
    array is read or the arrays are dropped.

    Placement and planning read two private indexes of integer arrays instead
    of sets of identifiers.  The *ranked index* holds each title's distinct
    visitors as user codes, most active first.  The *first-target table* holds
    each title's distinct target cells (a visitor's most active cell) in the
    order the ranked index first reaches them; prefix columns over the ranked
    index count the entries reached before each position, their hit cells
    (cells the title was visited in) and the visits those cells cover.
    Targeting a title's first k ranked visitors is then two reads of each
    column; see :meth:`_targeting`.  Both are made on first use, so a built
    dataset never planned over never holds them.  ``title_users`` maps each
    title to the frozenset of its visitors.
    """

    def __init__(self, arrays):
        #: The :class:`_Arrays`, named as in :data:`_SIDECAR` with the
        #: vocabularies as object arrays.
        self._arrays = arrays

    def __repr__(self):
        return f"TraceDataset(total_visits={self.total_visits})"

    @property
    def total_visits(self):
        return self._arrays.visits

    @property
    def n_titles(self):
        return len(self._arrays["title_counts"])

    @property
    def n_users(self):
        return len(self._arrays["user_counts"])

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
        a = self._arrays
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
    def _title_index(self):
        """What :meth:`_targeting` reads, a Python object at a time: each
        title id's code, by code its ranked bounds and visits, and
        memoryviews of ``ranked_targets`` and ``ranked_covered``."""
        a = self._arrays
        return (_IdMap("title", zip(a["ids1"].tolist(), itertools.count())),
                a["ranked_bounds"].tolist(), a["title_counts"].tolist(),
                *map(memoryview, (a["ranked_targets"], a["ranked_covered"])))

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
        prefix column.  For one coverage, returns the number of target cells
        and the title's visits in no target cell.  For a tuple, returns a
        list with each coverage's total of the two, and the title's visits.
        """
        codes, ranked, visits, targets, covered = self._title_index
        code = codes[title]
        start, stop = ranked[code:code + 2]
        top, offset = targets[start], visits[code] + covered[start]
        if isinstance(coverage, tuple):
            ends = [start + k for k in ceil_counts(coverage, stop - start)]
            base = offset - top
            return ([base + targets[end] - covered[end] for end in ends],
                    visits[code])
        end = start + ceil_count(coverage, stop - start)
        return targets[end] - top, offset - covered[end]

    def _target_cells(self, title, n_cells):
        """The title's first ``n_cells`` target cells, as a frozenset, read
        from ``ids2`` and ``target_cells``, which no costing reads."""
        index, a = self._title_index, self._arrays
        top = index[3][index[1][index[0][title]]]  # ranked_targets[start]
        cells = a["target_cells"][top:top + n_cells]
        return frozenset(a["ids2"][cells].tolist())

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
        return _from_columns([list(c) for c in self.codes], columns)


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


def _from_columns(vocabularies, columns):
    """The one dataset builder: every index from the code columns.

    ``columns`` is a list of the user, title and cell code columns, and
    then an int64 timestamp column with :data:`_NO_TIMESTAMP` for a missing
    value, unless no visit has one.  ``vocabularies`` holds the user, title
    and cell identifiers the codes index.  Any numbering will do: codes are
    renumbered in order of first appearance, and identifiers no visit uses
    are dropped.  The list is emptied, a column at a time, so that a raw
    column no caller holds goes once renumbered.
    """
    user_ids, users = _first_appearance(vocabularies[0], columns.pop(0))
    title_ids, titles = _first_appearance(vocabularies[1], columns.pop(0))
    cell_ids, cells = _first_appearance(vocabularies[2], columns.pop(0))
    timestamps = columns.pop() if columns else None
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

    a = {
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
    }
    return TraceDataset(_Arrays(a, lambda name: _planning(a), len(users),
                                lambda: None))


def _planning(a):
    """The planning tables of the arrays ``a`` holds: the ranked index
    ``ranked_{bounds,users}``, the first-target table ``target_cells`` and
    its prefix columns ``ranked_{targets,hits,covered}``, and
    ``title_cells``, each title code's number of distinct cells.

    ``targets[r]`` counts the entries first reached before ranked position
    r, and ``hits[r]`` and ``covered[r]`` sum their hit cells and covered
    visits; ranked positions s to e reach the entries
    ``target_cells[targets[s]:targets[e]]``.
    """
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
    # never visited in it), looked up in ascending order of pairs.
    top_cells = a["user_cells"][a["user_cell_bounds"][:-1]]
    pairs, first = _distinct(ranked_titles * n_cells
                             + top_cells[ranked_users])[:2]
    tc_keys, tc_counts = _counted(_pair_keys(titles, cells, n_cells))
    at = tc_keys.searchsorted(pairs).clip(max=len(tc_keys) - 1)
    covers = np.where(tc_keys[at] == pairs, tc_counts[at], 0)
    title_cells = np.bincount(tc_keys // n_cells)
    del pairs, at, tc_keys, tc_counts
    order = first.argsort()
    first, covers = first[order], covers[order]
    # Each prefix column steps at the positions that reach a new entry.
    prefix = {}
    for name, dtype, step in (("ranked_targets", np.int32, 1),
                              ("ranked_hits", np.int32, covers > 0),
                              ("ranked_covered", np.int64, covers)):
        prefix[name] = np.zeros(len(ranked_users) + 1, dtype=dtype)
        prefix[name][first + 1] = step
        np.cumsum(prefix[name], out=prefix[name])
    return {"ranked_bounds": _bounds(ranked_titles, n_titles),
            "ranked_users": ranked_users, **prefix,
            "target_cells": top_cells[ranked_users[first]].astype(np.int32),
            "title_cells": title_cells}


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
    """Append a block of rows (the last newline optional) and return their
    number if each is three identifiers and a timestamp of at most 18
    digits (so it fits int64) or none; else append nothing and return 0.  Text
    that is not ASCII fails, as do a field :mod:`csv` refuses and keys
    that would outgrow 16 times the block.

    An identifier's key is its bytes zero-padded to whole little-endian
    8-byte words (identifiers hold no NUL), so the block's distinct keys
    come from one sort, of the words mixed by :data:`_MIX`, and only those
    are looked up in the vocabulary; the runs compare every word, so keys
    that mix alike cost a second lookup of a name, never a wrong code.
    """
    data = rows.encode("utf-8", "surrogateescape").removesuffix(b"\n") + b"\n"
    if (data.translate(None, _ID_BYTES) != b",,,\n" * data.count(b"\n")
            or b",," in data or b"\n," in data or data.startswith(b",")):
        return 0
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    starts, sizes = starts.reshape(-1, 4), (ends - starts).reshape(-1, 4)
    longest = sizes.max()
    # Keys take about the longest field's bytes a row; near 20 times the
    # block's bytes, csv reads the block as fast, in far less memory.
    if (longest * len(sizes) > 16 * len(data)
            or longest > csv.field_size_limit()):
        return 0
    # Padding by the longest field keeps every window read inside the buffer.
    buf = np.frombuffer(data + bytes(longest + 8), np.uint8)
    stamps = np.full(len(starts), _NO_TIMESTAMP, dtype=np.int64)
    given = np.flatnonzero(sizes[:, 3])
    if len(given):
        size = sizes[given, 3]
        if size.max() > 18:
            return 0
        at = np.arange(size.max())
        place = size[:, None] - 1 - at
        digits = buf[starts[given, 3, None] + at] - ord("0")
        digits[place < 0] = 0
        if (digits > 9).any():
            return 0
        stamps[given] = (digits * _PLACES[place.clip(0)]).sum(axis=1)
    window = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    for kind, (codes, blocks) in enumerate(zip(columns.codes, columns.blocks)):
        start, size = starts[:, kind], sizes[:, kind]
        words = np.stack([window[start + at] & _MASKS[(size - at).clip(0, 8)]
                          for at in range(0, size.max(), 8)])
        # Equal keys end up side by side: one sort of the words' mix.
        order = reduce(lambda key, word: key * _MIX + word, words).argsort()
        words = words[:, order]
        new = np.r_[True, (words[:, 1:] != words[:, :-1]).any(axis=0)]
        names = np.ascontiguousarray(words[:, new].T, dtype="<u8").view(
            f"S{8 * len(words)}").astype(str).ravel().tolist()
        local = np.fromiter(map(codes.__getitem__, names), np.int32)
        blocks.append(np.empty(len(order), dtype=np.int32))
        blocks[-1][order] = local[np.cumsum(new) - 1]
    columns.blocks[3].append(stamps)
    return len(stamps)


def _all_identifiers(ids):
    """Whether ``ids`` is one or more str, each passing the parser's test."""
    data = ("\n" + "\n".join(ids) + "\n").encode("ascii", "replace")
    return (data.translate(None, _ID_BYTES) == b"\n" * (len(ids) + 1)
            and b"\n\n" not in data)


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
    if problem := _timestamp_problem(timestamp):
        raise TraceFormatError(line_no, problem)
    return timestamp


def _add_lines(columns, text, handle, lines_before):
    """The per-line path: read ``text``, whole lines, with :mod:`csv`, and
    from ``handle`` the rest of a record a quoted field carries past it;
    check every field, append the rows and return the lines read.

    ``lines_before`` counts the file's lines ahead of ``text``; when it is
    0, ``text`` starts with the header.
    """
    head, spill, start = io.StringIO(text, newline=""), [], 0
    reader = csv.reader(itertools.chain(head, (  # each line also in spill
        spill.append(line) or line for line in iter(handle.readline, ""))))
    block = ([], [], [], [])
    try:
        if lines_before == 0 and tuple(row := next(reader)) != TRACE_HEADER:
            raise TraceFormatError(1, f"bad header {row!r}")
        while (start := head.tell()) < len(text):
            row = next(reader)
            line_no = lines_before + reader.line_num
            if len(row) != 4:
                raise TraceFormatError(
                    line_no, f"expected 4 fields, got {len(row)}"
                )
            for name, value, ids in zip(_ID_FIELDS, row, block):
                ids.append(_parse_identifier(line_no, name, value))
            block[3].append(_parse_timestamp(line_no, row[3]))
    except (TraceFormatError, csv.Error) as exc:
        # Rather the codec's error, at the record's first line not UTF-8.
        lines = io.StringIO(text[start:head.tell()],
                            newline="").readlines() + spill
        for line_no, line in enumerate(
                lines, lines_before + reader.line_num - len(lines) + 1):
            try:
                line.encode("utf-8", "surrogateescape").decode()
            except UnicodeDecodeError as bad:
                exc = bad
                break
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(line_no, str(exc)) from None
    columns.add(*block[:3], np.array(block[3], dtype=np.int64))
    return reader.line_num


def _add_blocks(columns, handle, path):
    """Add the file's rows a block of whole lines at a time: on the fast
    path, or on the per-line path for a block :func:`_add_rows` rejects
    and for a header that is not plain."""
    if not (block := handle.readline()):
        raise EmptyTraceError(f"{path}: empty trace file")
    lines_before = (1 if block == _HEADER_LINE
                    else _add_lines(columns, block, handle, 0))
    while block := handle.read(_CHUNK_CHARS) + handle.readline():
        lines_before += (_add_rows(columns, block)
                         or _add_lines(columns, block, handle, lines_before))


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
        Malformed header or line, bytes that are not UTF-8, or a field
        :mod:`csv` refuses; the error names the first bad line.
    EmptyTraceError
        File contains a header but zero records.
    """
    return _parse(path, None)[0]


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
    and the per-line path alike, to ``digest`` unless that is None, and
    the file's ctime before the read, which a change moves past."""
    columns = _Columns()
    with (open(path, "rb", buffering=0) as raw,
          io.TextIOWrapper(io.BufferedReader(
              raw if digest is None else _Digesting(raw, digest)),
              encoding="utf-8", errors="surrogateescape",
              newline="") as handle):
        ctime = os.fstat(raw.fileno()).st_ctime_ns
        _add_blocks(columns, handle, path)
    dataset = columns.build()
    if not dataset.total_visits:
        raise EmptyTraceError(f"{path}: trace contains zero records")
    return dataset, ctime


def _read_sidecar(path, ctime):
    """The dataset the sidecar of the trace at ``path`` holds, or None for
    a missing, stale, damaged or crafted one: not a regular file, its key
    or sizes missing, a key of another layout or not the trace's (bound to
    ``ctime``, the trace's, or else hashed last), or sizes no trace gives;
    every :data:`_SIDECAR` member is checked on first use."""
    with ExitStack() as unread:  # closes the sidecar unless it is read
        try:
            # Not blocking, so that a FIFO at its path is a miss, not a hang.
            handle = unread.enter_context(open(
                _sidecar(path), "rb", opener=lambda name, flags:
                os.open(name, flags | os.O_NONBLOCK)))
            info = os.fstat(handle.fileno())
        except OSError:
            return None
        if not stat.S_ISREG(info.st_mode):
            return None
        try:
            npz = np.lib.npyio.NpzFile(handle)
            key, stored = str(npz["key"]), npz["sizes"]
            if stored.dtype != np.int64 or stored.shape != (len(_SIZES),):
                raise ValueError("sizes of another layout")
            sizes = dict(zip(_SIZES, stored.tolist()))
        except Exception:  # an unreadable sidecar
            return None
        visits = sizes["visits"]
        if not (key.startswith(_SIDECAR_KEY) and min(sizes.values()) >= 0
                and visits > 0 and sizes["stamps"] in (0, visits)):
            return None
        if not 0 != info.st_mtime_ns == ctime < info.st_ctime_ns:
            # Outside the catch-all above: a failed read fails the command.
            import hashlib  # here, so that a bound hit does not load OpenSSL
            with open(path, "rb") as raw:
                if key != _SIDECAR_KEY + hashlib.file_digest(
                        raw, "sha256").hexdigest():
                    return None
        unread.pop_all()
    return TraceDataset(_Arrays({}, partial(_read_or_parse, npz, sizes, path,
                                            key), visits, handle.close))


def _read_member(npz, name, sizes):
    """Member ``name``, read through the zip, which checks its CRC;
    ValueError unless it has its dtype and its length in ``sizes``, and
    its values are a trace's: a vocabulary's identifiers, a bounds array's
    strictly rising from 0 to its bound, ``ranked_targets`` counting up by
    0 or 1 to the entries, and any other bounded one's under its bound
    (see :data:`_SIDECAR`)."""
    dtype, length, bound = _MEMBERS[name]
    array = npz[name]
    size, plus, _ = length.partition("+")
    if array.shape != (sizes[size] + bool(plus),) or (
            array.dtype.kind != "S" if dtype == "S" else array.dtype != dtype):
        raise ValueError(f"{name} is not {length} of {dtype}")
    if dtype == "S":
        array = array.astype(str).astype(object)
        valid = _all_identifiers(array) and len(set(array)) == len(array)
    elif name == "ranked_targets":
        # Each ranked position reaches at most one new entry.
        steps = np.diff(array)
        valid = (array[0] == 0 and array[-1] == sizes["targets"]
                 and 0 <= steps.min() and steps.max() <= 1)
    else:
        # An empty index array raises: a miss too.
        valid = not bound or (
            array[0] == 0 and (np.diff(array) > 0).all()
            and array[-1] == sizes[bound]
            if plus else 0 <= array.min() and array.max() < sizes[bound])
    if not valid:
        raise ValueError(f"{name} holds values no trace gives")
    return array


def _read_or_parse(npz, sizes, path, key, name):
    """Member ``name`` of a sidecar hit, read and checked; if that fails,
    every member from the trace parsed over as on a miss, or OSError if the
    trace no longer has ``key``, the sidecar's."""
    try:
        return {name: _read_member(npz, name, sizes)}
    except Exception:  # a damaged member, or non-ASCII identifiers
        dataset, parsed = _parsed(path)
        if parsed != key:
            raise OSError(f"{path}: changed while it was read; "
                          "run again") from None
        return dataset._arrays


class _Arrays(Mapping):
    """A dataset's arrays, named as in :data:`_SIDECAR`: those in ``held``,
    and each other made on first use, one thread at a time, by
    ``make(name)``, which returns a mapping of the arrays it made; those
    not held yet are kept.  ``visits`` is the trace's visit count, and
    ``close`` runs once every array is held, or when the arrays are
    dropped."""

    def __init__(self, held, make, visits, close):
        self._held, self._make, self.visits = held, make, visits
        self._lock = threading.Lock()
        self._close = weakref.finalize(self, close)

    def __iter__(self):
        return iter(_MEMBERS)

    def __len__(self):
        return len(_MEMBERS)

    def __getitem__(self, name):
        with self._lock:
            if name in _MEMBERS and name not in self._held:
                for member, array in self._make(name).items():
                    self._held.setdefault(member, array)
                if len(self._held) == len(_MEMBERS):
                    self._close()
        return self._held[name]


@contextmanager
def _replacing(paths):
    """Temporary names next to ``paths``, unique to this process and
    thread, in a directory made if missing, to write the files under.  Each
    is renamed into place once the block ends.  On a failure the temporary
    files are removed, and so are the directories made unless a file was
    renamed into one: a failed write leaves no output, and a failed rename
    the files renamed before it.  The error raised is the one that stopped
    the block or the renames.  A path given twice, or that exists and is
    not a regular file, is refused before anything is made."""
    seen = set()
    for path in paths:
        if path in seen:
            raise ValueError(f"two outputs would be written to {path}")
        seen.add(path)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(path))
        if path.exists() and not path.is_file():
            raise OSError(errno.EINVAL, "Not a regular file", str(path))
    parent = paths[0].parent
    made = [d for d in (parent, *parent.parents) if not d.exists()]
    parent.mkdir(parents=True, exist_ok=True)
    # Short whatever the output's name, so any name that fits has one.
    tag = f"{os.getpid()}.{threading.get_native_id()}.tmp"
    temps = [p.with_name(f".prepush.{i}.{tag}") for i, p in enumerate(paths)]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with suppress(OSError):
                temp.unlink()
        for directory in made:  # the deepest first
            with suppress(OSError):
                directory.rmdir()
        raise


def load_trace(path):
    """:func:`parse_trace` through the file's sidecar, unhashed when bound
    to the trace's ctime.  A miss reads the trace once, hashing the bytes
    as it parses them, and binds the sidecar it writes (see the module)."""
    path = Path(path)
    info = os.stat(path)  # fails where open would, with the same error
    if not stat.S_ISREG(info.st_mode):
        return parse_trace(path)
    return _read_sidecar(path, info.st_ctime_ns) or _parsed(path)[0]


def _parsed(path):
    """The miss: ``path`` parsed and kept in its sidecar, and the key of
    the bytes parsed, hashed as they were read, for a caller to check."""
    import hashlib
    digest = hashlib.sha256()
    dataset, ctime = _parse(path, digest)
    _write_sidecar(dataset, path, digest, ctime)
    return dataset, _SIDECAR_KEY + digest.hexdigest()


def _sidecar(path):
    return path.with_name(f".{path.name}.prepush.npz")


def _write_sidecar(dataset, path, digest, ctime):
    """Keep the dataset in ``path``'s sidecar, bound to ``ctime``, the
    trace's with the bytes ``digest`` hashed; a failed write leaves none."""
    # Made private; whoever may read the trace may read its sidecar.
    with suppress(OSError), _replacing([_sidecar(path)]) as (temp,):
        with open(temp, "wb", opener=lambda name, flags: os.open(
                name, flags | os.O_EXCL, 0o600)) as handle:
            # Built once the file is open, and stored so that no hit builds
            # them, with every array, an empty one for no timestamps: a zip
            # directory can lose a member, but each member's CRC is checked.
            a = {name: np.asarray(dataset._arrays[name], dtype)
                 for name, dtype, *_ in _SIDECAR}
            lengths = {length: len(a[name]) for name, _, length, _ in _SIDECAR}
            np.savez(handle, key=_SIDECAR_KEY + digest.hexdigest(),
                     sizes=np.array([lengths[size] for size in _SIZES],
                                    np.int64), **a)
        os.chmod(temp, os.stat(path).st_mode & 0o666)
        written = os.stat(temp).st_mtime_ns  # bound if ctime is older
        os.utime(temp, ns=(written, ctime if ctime < written else 0))


def write_trace(dataset, path):
    """Write a dataset in the exact format :func:`parse_trace` reads, and
    its sidecar unless ``path`` is not a regular file, as :func:`load_trace`.

    ``parse_trace(write_trace(d))`` reproduces ``d``.  Raises
    :class:`EmptyTraceError` for a zero-record dataset and ValueError for
    identifiers outside the file format's character set; either is raised
    before the file is opened.
    """
    digest, written = _write_rows(dataset, path)
    if Path(path).is_file():
        _write_sidecar(dataset, Path(path), digest, written.st_ctime_ns)


def _write_renamed(dataset, path):
    """``prepush gen``'s write: the rows renamed into place, and a sidecar
    bound if a stat after the rename shows the file written."""
    with _replacing([path]) as (temp,):
        digest, written = _write_rows(dataset, temp)
    now = os.stat(path)
    same = all(getattr(now, f) == getattr(written, f)
               for f in ("st_ino", "st_size", "st_mtime_ns"))
    _write_sidecar(dataset, path, digest, now.st_ctime_ns if same else 0)


def _write_rows(dataset, path):
    """:func:`write_trace`'s rows alone; returns their bytes' sha256 and
    the file's fstat.  A row is its NUL-padded fields with commas and a
    newline, NULs dropped."""
    import hashlib
    if not dataset.total_visits:
        raise EmptyTraceError("refusing to write a zero-record trace")
    # Codes number identifiers in order of first appearance, so a kind's
    # lowest bad code is the first bad one in its column.
    found, a = [], dataset._arrays
    for kind, name in enumerate(_ID_FIELDS):
        ids = a[f"ids{kind}"]
        if not _all_identifiers(ids):
            bad = next(k for k, i in enumerate(ids) if not _IDENT_RE.match(i))
            found.append((int(np.argmax(a[f"codes{kind}"] == bad)), kind,
                          f"{name} {ids[bad]!r}"))
    if found:
        index, _, what = min(found)
        raise ValueError(f"record {index}: {what} not writable as "
                         "[A-Za-z0-9_:-]+")
    matrices = [np.char.add(a[f"ids{k}"].astype("S"), b",")[:, None].view(
        np.uint8) for k in range(3)]
    stamps = a["timestamps"]
    digest = hashlib.sha256(_HEADER_LINE.encode())
    with open(path, "wb") as handle:
        handle.write(_HEADER_LINE.encode())
        for start in range(0, dataset.total_visits, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            row = [m.take(a[f"codes{k}"][rows], axis=0)
                   for k, m in enumerate(matrices)]
            if len(stamps):
                given = stamps[rows].astype("S19")
                given[stamps[rows] == _NO_TIMESTAMP] = b""
                row.append(given.view(np.uint8).reshape(len(given), -1))
            row.append(np.full((len(row[0]), 1), ord("\n"), np.uint8))
            text = np.concatenate(row, axis=1)
            text = text[text != 0]
            digest.update(text)
            handle.write(text)
        handle.flush()
        return digest, os.fstat(handle.fileno())
