"""Visit-record data model, trace file I/O, and the indexed dataset.

A trace is an ordered list of visit records (user, title, cell, optional
timestamp).  ``TraceDataset`` adds the aggregations every other module
consumes: per-title and per-user visit counts, per-title cell maps and
visitor sets, and per-user cell histograms.  Datasets are immutable after
construction and safe to share across threads; all analysis functions in
this package are pure reads over them.

Trace file format: UTF-8 text, one header line ``user_id,title_id,cell_id,
timestamp``, comma-delimited rows, empty timestamp field allowed.
Identifiers are restricted to ``[A-Za-z0-9_:-]+`` so no quoting is needed.
"""

import csv
import re
from dataclasses import dataclass, field

from .errors import EmptyTraceError, RecordValidationError, TraceFormatError

TRACE_HEADER = ("user_id", "title_id", "cell_id", "timestamp")

_IDENT_RE = re.compile(r"[A-Za-z0-9_:-]+\Z")


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
        return None


@dataclass(frozen=True, slots=True)
class TraceDataset:
    """Immutable record collection plus derived per-entity indexes.

    All index maps are derived purely from ``records``.  Besides the visit
    counts, cell maps and visitor sets (insertion order follows first
    appearance in the trace), two per-user indexes serve placement:
    ``user_top_cell`` maps each user to their most visited cell (ties by
    ascending cell id) and ``user_rank`` to their 0-based position in
    descending activity order (ties by ascending user id).
    """

    records: tuple
    title_visits: dict = field(repr=False)
    title_cell_visits: dict = field(repr=False)
    title_users: dict = field(repr=False)
    user_visits: dict = field(repr=False)
    user_cell_visits: dict = field(repr=False)
    user_top_cell: dict = field(repr=False)
    user_rank: dict = field(repr=False)
    total_visits: int = 0

    @property
    def n_titles(self):
        return len(self.title_visits)

    @property
    def n_users(self):
        return len(self.user_visits)


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
    return _index(records)


def _index(records):
    """:func:`build_indexes` for a tuple of records already validated."""
    title_visits = {}
    title_cell_visits = {}
    title_users = {}
    user_visits = {}
    user_cell_visits = {}

    for rec in records:
        user, title, cell = rec.user_id, rec.title_id, rec.cell_id

        title_visits[title] = title_visits.get(title, 0) + 1
        cells = title_cell_visits.get(title)
        if cells is None:
            cells = title_cell_visits[title] = {}
        cells[cell] = cells.get(cell, 0) + 1
        users = title_users.get(title)
        if users is None:
            users = title_users[title] = set()
        users.add(user)

        user_visits[user] = user_visits.get(user, 0) + 1
        ucells = user_cell_visits.get(user)
        if ucells is None:
            ucells = user_cell_visits[user] = {}
        ucells[cell] = ucells.get(cell, 0) + 1

    by_activity = sorted(user_visits, key=lambda u: (-user_visits[u], u))
    return TraceDataset(
        records=records,
        title_visits=title_visits,
        title_cell_visits=title_cell_visits,
        title_users={t: frozenset(u) for t, u in title_users.items()},
        user_visits=user_visits,
        user_cell_visits=user_cell_visits,
        user_top_cell={
            u: min(cells.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for u, cells in user_cell_visits.items()
        },
        user_rank={u: i for i, u in enumerate(by_activity)},
        total_visits=len(records),
    )


def _parse_identifier(line_no, name, value):
    if not value:
        raise TraceFormatError(line_no, f"empty {name} field")
    if not _IDENT_RE.match(value):
        raise TraceFormatError(line_no, f"invalid {name} {value!r}")
    return value


def parse_trace(path):
    """Read a trace file and return the indexed dataset.

    Every field is validated here, so the records are indexed without the
    second check :func:`build_indexes` makes.

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
        Malformed header or line; the error names the line number.
    EmptyTraceError
        File contains a header but zero records.
    """
    records = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyTraceError(f"{path}: empty trace file")
        if tuple(header) != TRACE_HEADER:
            raise TraceFormatError(1, f"bad header {header!r}")
        for row in reader:
            line_no = reader.line_num
            if len(row) != 4:
                raise TraceFormatError(
                    line_no, f"expected 4 fields, got {len(row)}"
                )
            user, title, cell, ts_text = row
            user = _parse_identifier(line_no, "user_id", user)
            title = _parse_identifier(line_no, "title_id", title)
            cell = _parse_identifier(line_no, "cell_id", cell)
            if ts_text == "":
                timestamp = None
            else:
                try:
                    timestamp = int(ts_text)
                except ValueError:
                    raise TraceFormatError(
                        line_no, f"non-integer timestamp {ts_text!r}"
                    ) from None
                if timestamp < 0:
                    raise TraceFormatError(
                        line_no, f"negative timestamp {timestamp}"
                    )
            records.append(VisitRecord(user, title, cell, timestamp))

    if not records:
        raise EmptyTraceError(f"{path}: trace contains zero records")
    return _index(tuple(records))


def write_trace(dataset, path):
    """Write a dataset in the exact format :func:`parse_trace` reads.

    ``parse_trace(write_trace(d))`` reproduces ``d``.  Raises
    :class:`EmptyTraceError` for a zero-record dataset and ValueError for
    identifiers outside the file format's character set.
    """
    if not dataset.records:
        raise EmptyTraceError("refusing to write a zero-record trace")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for i, rec in enumerate(dataset.records):
            for name, value in (
                ("user_id", rec.user_id),
                ("title_id", rec.title_id),
                ("cell_id", rec.cell_id),
            ):
                if not _IDENT_RE.match(value):
                    raise ValueError(
                        f"record {i}: {name} {value!r} not writable as "
                        "[A-Za-z0-9_:-]+"
                    )
            ts_text = "" if rec.timestamp is None else str(rec.timestamp)
            writer.writerow((rec.user_id, rec.title_id, rec.cell_id, ts_text))
