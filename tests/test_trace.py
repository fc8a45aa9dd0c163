import copy
import hashlib
import os
import pickle
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from helpers import make_random_records, seeded_rng, sidecar_of
from prepush import (
    EmptyTraceError,
    RecordValidationError,
    SynthParams,
    TraceFormatError,
    UnknownIdError,
    VisitRecord,
    build_indexes,
    cell_visit_counts,
    generate,
    parse_trace,
    titles_by_popularity,
    trace,
    write_trace,
)
from prepush.trace import _CHUNK_CHARS

HEADER = "user_id,title_id,cell_id,timestamp\n"


def write_text(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_three_valid_lines(self, tmp_path):
        path = write_text(
            tmp_path, HEADER + "u1,t1,c1,\nu2,t1,c2,17\nu1,t2,c1,\n"
        )
        ds = parse_trace(path)
        assert ds.total_visits == 3
        assert ds.records[1] == VisitRecord("u2", "t1", "c2", 17)
        assert ds.records[1].timestamp == 17
        assert ds.records[0].timestamp is None

    def test_record_order_preserved(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u2,t2,c2,\nu1,t1,c1,\n")
        ds = parse_trace(path)
        assert [r.user_id for r in ds.records] == ["u2", "u1"]

    def test_empty_cell_field_names_line(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,\nu2,t2,,\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == 3
        assert "cell_id" in str(exc.value)

    def test_wrong_field_count(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == 2

    def test_bad_header(self, tmp_path):
        path = write_text(tmp_path, "user,title,cell,ts\nu1,t1,c1,\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == 1

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path, "")
        with pytest.raises(EmptyTraceError):
            parse_trace(path)

    def test_header_only_is_empty(self, tmp_path):
        path = write_text(tmp_path, HEADER)
        with pytest.raises(EmptyTraceError):
            parse_trace(path)

    def test_non_integer_timestamp(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,soon\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert "timestamp" in str(exc.value)

    def test_negative_timestamp(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,-5\n")
        with pytest.raises(TraceFormatError):
            parse_trace(path)

    def test_identifier_charset_enforced(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u 1,t1,c1,\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == 2

    def test_timestamp_range_is_int64(self, tmp_path):
        top = 2**63 - 1
        path = write_text(tmp_path, HEADER + f"u1,t1,c1,{top}\n")
        assert parse_trace(path).records[0].timestamp == top
        path = write_text(tmp_path, HEADER + f"u1,t1,c1,\nu1,t1,c1,{top + 1}\n")
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert str(exc.value) == f"line 3: timestamp {top + 1} out of range"

    def test_records_built_once(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,\nu2,t1,c2,17\n")
        ds = parse_trace(path)
        assert ds.records is ds.records
        assert ds.records == (VisitRecord("u1", "t1", "c1"),
                              VisitRecord("u2", "t1", "c2", 17))

    @pytest.mark.parametrize("view", ["title_cell_visits", "user_cell_visits",
                                      "user_top_cell", "user_rank"])
    def test_view_built_once(self, view):
        ds = build_indexes(make_random_records(seeded_rng(25)))
        assert getattr(ds, view) is getattr(ds, view)

    def test_title_users_built_once(self):
        records = make_random_records(seeded_rng(24))
        ds = build_indexes(records)
        assert ds.title_users is ds.title_users
        assert ds.title_users == {
            title: {r.user_id for r in records if r.title_id == title}
            for title in ds.title_visits
        }


def block_lines():
    """Plain trace rows of more than one parse block, one string each."""
    lines, size, i = [], len(HEADER), 0
    while size <= 1.2 * _CHUNK_CHARS:
        line = f"user{i % 997:03d},title{i % 499:03d},cell{i % 61:02d},{i}\n"
        lines.append(line)
        size += len(line)
        i += 1
    return lines


def boundary_row(lines):
    """Index of the row that straddles the end of the first parse block."""
    offset = 0
    for i, line in enumerate(lines):
        offset += len(line)
        if offset > _CHUNK_CHARS:
            return i
    raise AssertionError("trace fits in one block")


ODD_FORMS = {
    "quoted": lambda u, t, c, ts: f'"{u}",{t},"{c}",{ts}\n',
    "crlf": lambda u, t, c, ts: f"{u},{t},{c},{ts}\r\n",
    "plus": lambda u, t, c, ts: f"{u},{t},{c},+{ts}\n",
    "space": lambda u, t, c, ts: f"{u},{t},{c}, {ts}\n",
}


class TestParseBlocks:
    """Traces of more than one parse block: the fast path and the per-line
    path it hands over to."""

    @pytest.fixture(scope="class")
    def lines(self):
        return block_lines()

    @pytest.fixture(scope="class")
    def plain(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("plain") / "trace.csv"
        path.write_text(HEADER + "".join(lines), encoding="utf-8")
        return parse_trace(path)

    def test_bad_row_after_first_block(self, tmp_path, lines):
        bad = len(lines) - 10
        assert len("".join(lines[:bad])) > _CHUNK_CHARS
        odd = lines[:bad] + ["user1,title1,cell 1,5\n"] + lines[bad + 1:]
        path = write_text(tmp_path, HEADER + "".join(odd))
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == bad + 2
        assert str(exc.value) == f"line {bad + 2}: invalid cell_id 'cell 1'"

    def test_bad_row_after_odd_row(self, tmp_path, lines):
        # The CRLF row sends the first block to the per-line path, which
        # must count every line up to the bad row in the next block.
        bad = len(lines) - 10
        odd = list(lines)
        odd[5] = odd[5].replace("\n", "\r\n")
        odd[bad] = "user1,title1,cell1,soon\n"
        path = write_text(tmp_path, HEADER + "".join(odd))
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert exc.value.line_no == bad + 2
        assert "non-integer timestamp 'soon'" in str(exc.value)

    @pytest.mark.parametrize("form", sorted(ODD_FORMS))
    @pytest.mark.parametrize("where", ["before_boundary", "at_boundary", "last"])
    def test_odd_rows_parse_as_plain(self, tmp_path, lines, plain, form, where):
        at = {"before_boundary": boundary_row(lines) - 1,
              "at_boundary": boundary_row(lines),
              "last": len(lines) - 1}[where]
        odd = list(lines)
        odd[at] = ODD_FORMS[form](*odd[at].rstrip("\n").split(","))
        path = write_text(tmp_path, HEADER + "".join(odd))
        assert parse_trace(path) == plain

    def test_crlf_file_parses_as_plain(self, tmp_path, lines, plain):
        text = (HEADER + "".join(lines)).replace("\n", "\r\n")
        path = tmp_path / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_trace(path) == plain

    def test_no_final_newline(self, tmp_path, lines, plain):
        path = write_text(tmp_path, HEADER + "".join(lines).rstrip("\n"))
        assert parse_trace(path) == plain

    @pytest.mark.parametrize("where", ["first_block", "after_first_block"])
    def test_invalid_utf8_names_its_line(self, tmp_path, lines, where):
        bad = 7 if where == "first_block" else len(lines) - 10
        data = (HEADER + "".join(lines)).encode()
        line_start = len((HEADER + "".join(lines[:bad])).encode())
        offset = line_start + 2
        assert (offset > _CHUNK_CHARS) == (where == "after_first_block")
        path = tmp_path / "trace.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(path)
        assert str(exc.value) == (
            f"line {bad + 2}: 'utf-8' codec can't decode byte 0xff in "
            f"position {offset - line_start}: invalid start byte")


#: Rows that parse, by how they are written.
GOOD_FORMS = {
    "plain": lambda u, t, c, n: f"{u},{t},{c},{n}\n",
    "no_timestamp": lambda u, t, c, n: f"{u},{t},{c},\n",
    "quoted": lambda u, t, c, n: f'"{u}",{t},"{c}",{n}\n',
    "crlf": lambda u, t, c, n: f"{u},{t},{c},{n}\r\n",
    "plus": lambda u, t, c, n: f"{u},{t},{c},+{n}\n",
    "space": lambda u, t, c, n: f"{u},{t},{c}, {n}\n",
    "leading_zeros": lambda u, t, c, n: f"{u},{t},{c},00{n}\n",
    "digits_18": lambda u, t, c, n: f"{u},{t},{c},{10**18 - 1 - n}\n",
    "digits_19": lambda u, t, c, n: f"{u},{t},{c},{2**63 - 1 - n}\n",
}
#: Rows that do not parse.
BAD_FORMS = {
    "non_ascii": lambda u, t, c, n: f"{u}\u00e9,{t},{c},{n}\n",
    "empty_user": lambda u, t, c, n: f",{t},{c},{n}\n",
    "empty_title": lambda u, t, c, n: f"{u},,{c},{n}\n",
    "empty_cell": lambda u, t, c, n: f"{u},{t},,\n",
    "three_fields": lambda u, t, c, n: f"{u},{t},{c}\n",
    "five_fields": lambda u, t, c, n: f"{u},{t},{c},{n},{n}\n",
    "negative": lambda u, t, c, n: f"{u},{t},{c},-{n}\n",
    "too_large": lambda u, t, c, n: f"{u},{t},{c},{2**63 + n}\n",
    "letters": lambda u, t, c, n: f"{u},{t},{c},{n}x\n",
    "bad_char": lambda u, t, c, n: f"{u}.{t},{t},{c},{n}\n",
    "blank": lambda u, t, c, n: "\n",
}
ROW_FORMS = {**GOOD_FORMS, **BAD_FORMS}
#: 1 to 20 bytes: keys of one to three 8-byte words.
identifiers = st.text("aZ09_:-", min_size=1, max_size=20)
#: Ids of 8, 9, 16 and 17 bytes, some sharing their first 8 or 16 bytes,
#: one of 40 bytes, and short ones last, at the end of the block.
WORD_EDGE_ROWS = (
    ("abcdefgh", "abcdefgh0", "abcdefghijklmnop", "5"),
    ("a" * 40, "b" * 40, "c" * 40, "0"),
    ("abcdefgh0", "abcdefgh", "abcdefghijklmnop0", ""),
    ("abcdefgh1", "abcdefghijklmnop", "abcdefgh", "123456789012345678"),
    ("abcdefghijklmnop1", "abcdefgh0", "abcdefghijklmnop0", "7"),
    ("abcdefgh", "abcdefghijklmnop0", "abcdefgh1", "007"),
    ("a", "b", "c", "1"),
)
WORD_EDGE_TEXT = HEADER + "".join(",".join(row) + "\n"
                                  for row in WORD_EDGE_ROWS)
WORD_EDGE_RECORDS = [VisitRecord(*ids, int(n) if n else None)
                     for *ids, n in WORD_EDGE_ROWS]


def row_text(form, user, title, cell, number):
    return ROW_FORMS[form](user, title, cell, number)


def rows_of(forms):
    return st.builds(row_text, st.sampled_from(sorted(forms)), identifiers,
                     identifiers, identifiers, st.integers(0, 10**6))


good_rows = rows_of(GOOD_FORMS)


@st.composite
def trace_texts(draw):
    """Trace file text: odd and plain rows, maybe one bad row, and maybe no
    final newline."""
    rows = draw(st.lists(good_rows, max_size=25))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(rows_of(BAD_FORMS)))
    text = HEADER + "".join(rows)
    return text[:-1] if draw(st.booleans()) else text


class TestBlockCheck:
    """The parser's byte checks against the reference grammar, and the
    parser against a csv reader, over blocks of a few rows."""

    @given(st.lists(rows_of(ROW_FORMS), min_size=1, max_size=8))
    @example([",t,c,5\n"])
    @example(["u,t,c,5\n", "u,,c,\n"])
    @example(["u,t,c,1000000000000000000\n"])
    @settings(max_examples=300, deadline=None)
    def test_accepts_what_the_grammar_matches(self, rows):
        block = "".join(rows)
        assert trace._add_rows(trace._Columns(), block) == bool(
            oracle.ROWS_RE.fullmatch(block))

    @given(trace_texts(), st.integers(8, 80))
    @example(WORD_EDGE_TEXT, 8)
    @example(WORD_EDGE_TEXT, _CHUNK_CHARS)
    @settings(max_examples=250, deadline=None)
    def test_parse_matches_csv_reader(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
        path.write_bytes(text.encode())
        want = oracle.read_trace(text)
        with mock.patch.object(trace, "_CHUNK_CHARS", chunk):
            if isinstance(want, tuple):
                with pytest.raises(TraceFormatError) as exc:
                    parse_trace(path)
                line, message = want
                assert (exc.value.line_no, str(exc.value)) == (
                    line, f"line {line}: {message}")
            elif not want:
                with pytest.raises(EmptyTraceError):
                    parse_trace(path)
            else:
                assert [(r.user_id, r.title_id, r.cell_id, r.timestamp)
                        for r in parse_trace(path).records] == want


visit_records = st.builds(
    VisitRecord, identifiers, identifiers, identifiers,
    st.none() | st.integers(0, 10**18 - 1) | st.just(2**63 - 1))


@given(st.lists(visit_records, min_size=1, max_size=25), st.integers(8, 80))
@example(WORD_EDGE_RECORDS, 8)
@example(WORD_EDGE_RECORDS, _CHUNK_CHARS)
@settings(max_examples=200, deadline=None)
def test_write_parse_roundtrip(tmp_path_factory, records, chunk):
    """Blocks of a few rows: every block after the first merges its
    identifiers into the vocabulary the earlier blocks built."""
    ds = build_indexes(records)
    path = tmp_path_factory.mktemp("roundtrip") / "trace.csv"
    write_trace(ds, path)
    with mock.patch.object(trace, "_CHUNK_CHARS", chunk):
        back = parse_trace(path)
    assert back == ds
    assert back.records == tuple(records)


class TestWrite:
    def test_roundtrip_with_timestamps(self, tmp_path):
        records = make_random_records(seeded_rng(3), with_timestamps=True)
        ds = build_indexes(records)
        path = tmp_path / "out.csv"
        write_trace(ds, path)
        assert parse_trace(path) == ds

    def test_roundtrip_seeded_synthetic_10k(self, tmp_path):
        ds = generate(
            SynthParams(n_users=200, n_titles=100, n_cells=50,
                        n_visits=10_000, seed=99)
        )
        path = tmp_path / "out.csv"
        write_trace(ds, path)
        assert parse_trace(path) == ds

    def test_single_record_roundtrip(self, tmp_path):
        ds = build_indexes([VisitRecord("u1", "t1", "c1")])
        path = tmp_path / "out.csv"
        write_trace(ds, path)
        assert parse_trace(path).total_visits == 1

    def test_header_exactly_once(self, tmp_path):
        ds = build_indexes([VisitRecord("u1", "t1", "c1", 5)])
        path = tmp_path / "out.csv"
        write_trace(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == HEADER.strip()
        assert sum(1 for ln in lines if ln == HEADER.strip()) == 1

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(EmptyTraceError):
            write_trace(build_indexes([]), tmp_path / "out.csv")

    def test_unwritable_path(self, tmp_path):
        ds = build_indexes([VisitRecord("u1", "t1", "c1")])
        with pytest.raises(OSError):
            write_trace(ds, tmp_path / "no" / "such" / "dir" / "out.csv")

    def test_identifier_outside_charset_rejected(self, tmp_path):
        ds = build_indexes([VisitRecord("u,1", "t1", "c1")])
        with pytest.raises(ValueError):
            write_trace(ds, tmp_path / "out.csv")

    @pytest.mark.parametrize(
        "records, message",
        [
            ([("u1", "t1", "c1"), ("u2", "t 2", "c1"), ("u,3", "t1", "c1"),
              ("u2", "t 2", "c 1")],
             "record 1: title_id 't 2'"),
            ([("u1", "t1", "c1"), ("u 2", "t1", "c 2"), ("u 3", "t 3", "c1")],
             "record 1: user_id 'u 2'"),
            ([("u 1", "t1", "c1"), ("u2", "t1", "c1"), ("u2", "t1", "c 1")],
             "record 0: user_id 'u 1'"),
            ([("u1", "t1", "c1"), ("u2", "t1", "c\n2"), ("u 1", "t1", "c1")],
             "record 1: cell_id 'c\\n2'"),
        ],
    )
    def test_error_names_first_bad_record(self, tmp_path, records, message):
        ds = build_indexes(VisitRecord(*r) for r in records)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError) as exc:
            write_trace(ds, path)
        assert str(exc.value) == f"{message} not writable as [A-Za-z0-9_:-]+"
        assert not path.exists()

    def test_generate_roundtrip_over_blocks(self, tmp_path):
        params = SynthParams(n_users=300, n_titles=200, n_cells=40,
                             n_visits=80_000, seed=5)
        path = tmp_path / "out.csv"
        write_trace(generate(params), path)
        assert path.stat().st_size > _CHUNK_CHARS
        assert parse_trace(path) == generate(params)

    def test_equality_is_record_equality(self):
        records = make_random_records(seeded_rng(8), with_timestamps=True)
        ds = build_indexes(records)
        assert ds == build_indexes(list(records))
        assert ds != build_indexes(records[::-1])
        assert ds != build_indexes(records[:-1])
        changed = list(records)
        last = changed[-1]
        changed[-1] = VisitRecord(last.user_id, last.title_id, last.cell_id,
                                  1 + (last.timestamp or 0))
        assert ds != build_indexes(changed)
        assert ds != records


class TestBuildIndexes:
    def test_single_record(self):
        ds = build_indexes([VisitRecord("u1", "t1", "c1")])
        assert ds.title_visits["t1"] == 1
        assert ds.user_visits["u1"] == 1
        assert ds.title_cell_visits["t1"]["c1"] == 1
        assert ds.title_users["t1"] == {"u1"}
        assert ds.user_cell_visits["u1"] == {"c1": 1}

    def test_same_user_title_two_cells(self):
        ds = build_indexes(
            [VisitRecord("u1", "t1", "c1"), VisitRecord("u1", "t1", "c2")]
        )
        assert len(ds.title_cell_visits["t1"]) == 2
        assert len(ds.title_users["t1"]) == 1
        assert ds.title_visits["t1"] == 2

    def test_duplicate_records_count_separately(self):
        rec = VisitRecord("u1", "t1", "c1")
        ds = build_indexes([rec, rec, rec])
        assert ds.title_visits["t1"] == 3
        assert ds.title_cell_visits["t1"]["c1"] == 3

    def test_validation_error_names_index(self):
        records = [VisitRecord("u1", "t1", "c1"), VisitRecord("u2", "", "c1")]
        with pytest.raises(RecordValidationError) as exc:
            build_indexes(records)
        assert exc.value.index == 1

    def test_negative_timestamp_rejected(self):
        with pytest.raises(RecordValidationError):
            build_indexes([VisitRecord("u1", "t1", "c1", -1)])

    def test_conservation_on_synthetic_10k(self):
        ds = generate(
            SynthParams(n_users=150, n_titles=80, n_cells=40,
                        n_visits=10_000, seed=4)
        )
        # Independent linear recount straight off the record list.
        assert ds.total_visits == len(ds.records) == 10_000
        assert sum(ds.title_visits.values()) == 10_000
        assert sum(ds.user_visits.values()) == 10_000
        for title, count in ds.title_visits.items():
            assert sum(ds.title_cell_visits[title].values()) == count
            assert len(ds.title_users[title]) <= count
            assert len(ds.title_cell_visits[title]) <= count
        for user, count in ds.user_visits.items():
            assert sum(ds.user_cell_visits[user].values()) == count
        activity = oracle.user_activity(ds.records)
        assert activity == ds.user_visits

    def test_rebuild_idempotent(self):
        records = make_random_records(seeded_rng(11))
        once = build_indexes(records)
        again = build_indexes(once.records)
        assert once == again


def first_appearance_maps(records):
    """Outer key order of every index, and inner cell-map key order, as
    first appearance in ``records``."""
    titles, users, title_cells, user_cells = {}, {}, {}, {}
    for r in records:
        titles.setdefault(r.title_id, None)
        users.setdefault(r.user_id, None)
        title_cells.setdefault(r.title_id, {}).setdefault(r.cell_id, None)
        user_cells.setdefault(r.user_id, {}).setdefault(r.cell_id, None)
    return list(titles), list(users), title_cells, user_cells


def assert_first_appearance_order(ds, records):
    titles, users, title_cells, user_cells = first_appearance_maps(records)
    for index in (ds.title_visits, ds.title_cell_visits, ds.title_users):
        assert list(index) == titles
    for index in (ds.user_visits, ds.user_cell_visits, ds.user_top_cell,
                  ds.user_rank):
        assert list(index) == users
    for title, cells in ds.title_cell_visits.items():
        assert list(cells) == list(title_cells[title])
    for user, cells in ds.user_cell_visits.items():
        assert list(cells) == list(user_cells[user])


class TestKeyOrder:
    def test_build_indexes(self):
        records = make_random_records(seeded_rng(21))
        assert_first_appearance_order(build_indexes(records), records)

    def test_parse_trace(self, tmp_path):
        records = make_random_records(seeded_rng(22), with_timestamps=True)
        path = tmp_path / "out.csv"
        write_trace(build_indexes(records), path)
        assert_first_appearance_order(parse_trace(path), records)

    def test_generate(self):
        ds = generate(SynthParams(n_users=120, n_titles=90, n_cells=30,
                                  n_visits=3_000, seed=23))
        # Identifiers encode rank, so first appearance is not id order.
        assert list(ds.user_visits) != sorted(ds.user_visits)
        assert_first_appearance_order(ds, ds.records)


record_ids = st.integers(min_value=1, max_value=6)
records_strategy = st.lists(
    st.builds(
        lambda u, t, c: VisitRecord(f"u{u}", f"t{t}", f"c{c}"),
        record_ids, record_ids, record_ids,
    ),
    min_size=1,
    max_size=60,
)


@given(records_strategy)
@settings(max_examples=100)
def test_conservation_property(records):
    ds = build_indexes(records)
    assert ds.total_visits == len(records)
    assert sum(ds.title_visits.values()) == ds.total_visits
    assert sum(ds.user_visits.values()) == ds.total_visits
    for title, count in ds.title_visits.items():
        assert sum(ds.title_cell_visits[title].values()) == count
    for user, count in ds.user_visits.items():
        assert sum(ds.user_cell_visits[user].values()) == count


@given(records_strategy)
@settings(max_examples=100)
def test_ranked_targets_count_entries_property(records):
    # Each ranked position reaches at most one new target cell, and the
    # count runs from 0 to every entry.
    a = build_indexes(records)._planning
    targets = a["ranked_targets"]
    assert targets[0] == 0 and targets[-1] == len(a["target_cells"])
    assert set(np.diff(targets).tolist()) <= {0, 1}


def refuse_parse(*args):
    raise AssertionError("parsed a trace whose sidecar holds it")


def as_tuples(dataset):
    return [(r.user_id, r.title_id, r.cell_id, r.timestamp)
            for r in dataset.records]


def assert_same_fields(got, want):
    """``got`` holds ``want``'s every array, by name, dtype and value, and
    its maps and popularity order with their key order: ``==`` compares
    only the vocabularies and the columns."""
    assert got == want
    assert list(got._arrays) == list(want._arrays)
    for name, array in want._arrays.items():
        assert type(got._arrays[name]) is type(array), name
        assert got._arrays[name].dtype == array.dtype, name
        assert np.array_equal(got._arrays[name], array), name
    for name in ("title_visits", "user_visits"):
        assert list(getattr(got, name).items()) == list(
            getattr(want, name).items())
    assert list(got._title_index[0].items()) == list(
        want._title_index[0].items())
    assert got.total_visits == want.total_visits
    assert titles_by_popularity(got) == titles_by_popularity(want)


def test_a_dataset_is_its_arrays(tmp_path):
    path = write_text(tmp_path, HEADER + "u1,t1,c1,5\nu2,t1,c2,\n")
    miss = trace.load_trace(path)
    with mock.patch.object(trace, "_parse", refuse_parse):
        hit = trace.load_trace(path)
    # Beside the arrays, an instance holds only the views read so far: the
    # sidecar write read the planning tables, which are the arrays.
    assert vars(hit).keys() == {"_arrays"}
    assert vars(miss).keys() == {"_arrays", "_planning"}
    assert miss._planning is miss._arrays
    assert list(hit._arrays) == list(miss._arrays) == [
        name for name, *_ in trace._SIDECAR]
    assert repr(hit) == repr(miss) == "TraceDataset(total_visits=2)"


#: Each map of identifiers a dataset holds, by the kind of its keys.
ID_MAPS = {"title_visits": "title", "user_visits": "user",
           "title_users": "title", "title_cell_visits": "title",
           "user_cell_visits": "user", "user_top_cell": "user",
           "user_rank": "user"}


@pytest.mark.parametrize("state", ["built", "hit"])
def test_id_maps_report_unknown_ids(tmp_path, state):
    path = write_text(tmp_path, HEADER + "u1,t1,c1,5\nu2,t1,c2,\n")
    dataset = parse_trace(path)
    if state == "hit":
        trace.load_trace(path)
        with mock.patch.object(trace, "_parse", refuse_parse):
            dataset = trace.load_trace(path)
    maps = [(getattr(dataset, name), kind) for name, kind in ID_MAPS.items()]
    maps += [(dataset._title_index[0], "title"),
             (cell_visit_counts(dataset), "cell")]
    for ids, kind in maps:
        with pytest.raises(UnknownIdError) as exc:
            ids["x9"]
        assert isinstance(exc.value, KeyError)
        assert (exc.value.kind, exc.value.identifier) == (kind, "x9")
        assert (ids.get("x9"), ids.get("x9", 0), "x9" in ids) == (None, 0,
                                                                  False)
        known = next(iter(ids))
        assert known in ids and ids.get(known) == ids[known]
        for copied in (copy.copy(ids), copy.deepcopy(ids),
                       pickle.loads(pickle.dumps(ids))):
            assert (type(copied), copied.kind, copied) == (type(ids), kind,
                                                           ids)
    assert dataset.title_visits == {"t1": 2}
    assert cell_visit_counts(dataset) == {"c1": 1, "c2": 1}


class TestLoadTrace:
    """load_trace: the parse, or the sidecar written by an earlier one."""

    @given(trace_texts(), st.integers(8, 80))
    @example(WORD_EDGE_TEXT, 8)
    @settings(max_examples=100, deadline=None)
    def test_miss_then_hit_match_parse(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("load") / "trace.csv"
        path.write_bytes(text.encode())
        want = oracle.read_trace(text)
        with mock.patch.object(trace, "_CHUNK_CHARS", chunk):
            if isinstance(want, tuple):
                with pytest.raises(TraceFormatError) as exc:
                    trace.load_trace(path)
                line, message = want
                assert (exc.value.line_no, str(exc.value)) == (
                    line, f"line {line}: {message}")
            elif not want:
                with pytest.raises(EmptyTraceError):
                    trace.load_trace(path)
            else:
                parsed = parse_trace(path)
                parsed._planning
                miss = trace.load_trace(path)
                with mock.patch.object(trace, "_parse", refuse_parse):
                    hit = trace.load_trace(path)
                for ds in (miss, hit):
                    assert_same_fields(ds, parsed)
                    assert as_tuples(ds) == want
                    assert_first_appearance_order(
                        ds, [VisitRecord(*visit) for visit in want])
        # A failed parse writes no sidecar.
        assert sorted(p.name for p in path.parent.iterdir()) == (
            ["trace.csv"] if not want or isinstance(want, tuple)
            else [".trace.csv.prepush.npz", "trace.csv"])

    @pytest.mark.parametrize("row, error", [
        ("u1,t1,c2,5\n", None),
        ("u1,t1,c1,x\n", "line 2: non-integer timestamp 'x'"),
    ])
    def test_same_size_and_mtime_rewrite_is_parsed(self, tmp_path, row,
                                                   error):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,5\n")
        trace.load_trace(path)
        before = path.stat()
        path.write_text(HEADER + row, encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns)
        if error is None:
            assert trace.load_trace(path) == parse_trace(path)
            assert as_tuples(trace.load_trace(path)) == [("u1", "t1", "c2", 5)]
            return
        with pytest.raises(TraceFormatError) as want:
            parse_trace(path)
        with pytest.raises(TraceFormatError) as got:
            trace.load_trace(path)
        assert (got.value.line_no, str(got.value)) == (
            want.value.line_no, str(want.value)) == (2, error)

    def test_rewrite_between_hash_and_parse(self, tmp_path, monkeypatch):
        # The trace changes after load_trace hashes it and before it is
        # parsed, then changes back: the sidecar must not hold the other
        # bytes' dataset under the restored bytes' key.
        def rewrite(handle, name):
            digest = file_digest(handle, name)
            path.write_text(HEADER + "u1,t9,c1,\n", encoding="utf-8")
            return digest

        before = HEADER + "u1,t1,c1,\nu2,t1,c2,\n"
        path = write_text(tmp_path, before)
        file_digest = hashlib.file_digest
        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "file_digest", rewrite)
            assert trace.load_trace(path).title_visits == {"t9": 1}
        path.write_text(before, encoding="utf-8")
        parsed = parse_trace(path)
        parsed._planning
        assert parsed.title_visits == {"t1": 2}
        miss = trace.load_trace(path)
        with mock.patch.object(trace, "_parse", refuse_parse):
            hit = trace.load_trace(path)
        for ds in (miss, hit):
            assert_same_fields(ds, parsed)

    @staticmethod
    def rewrite(sidecar, drop=(), **changes):
        with np.load(sidecar) as npz:
            arrays = {name: npz[name] for name in npz.files
                      if name not in drop}
        arrays.update(changes)
        with open(sidecar, "wb") as handle:
            np.savez(handle, **arrays)

    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "empty", "wrong_version", "other_digest",
        "code_too_large", "negative_code", "int64_codes", "short_column",
        "object_ids", "unicode_ids", "timestamps_too_short",
        "timestamps_dropped", "codes_dropped", "non_ascii_ids",
        "table_dropped", "counts_dropped", "short_table", "int32_covered",
        "user_out_of_range", "cell_out_of_range", "negative_popularity",
        "bounds_not_monotone", "bounds_repeat", "bounds_from_one",
        "bounds_past_end", "targets_skip", "targets_descend",
        "targets_from_one", "targets_wrong_end", "cell_counts_dropped",
    ])
    def test_bad_sidecar_is_a_miss_and_rewritten(self, tmp_path, damage):
        records = make_random_records(seeded_rng(35), with_timestamps=True)
        path = tmp_path / "trace.csv"
        write_trace(build_indexes(records), path)
        sidecar = sidecar_of(path)
        trace.load_trace(path)
        good = sidecar.read_bytes()
        with np.load(sidecar) as npz:
            stored = {name: npz[name] for name in npz.files}
        ids0, codes0 = stored["ids0"], stored["codes0"]
        key = str(stored["key"])
        user_cells, ranked_users, ranked_bounds, targets = (
            stored[name].copy() for name in
            ("user_cell_bounds", "ranked_users", "ranked_bounds",
             "ranked_targets"))
        # Enough users and titles for every damage below to be built.
        assert len(user_cells) > 3 and len(ranked_bounds) > 3
        assert user_cells[1] > 1
        # Where two steps of the target count are both 1, and both 0.
        steps = np.diff(targets).tolist()
        pairs = list(zip(steps, steps[1:]))
        rise, flat = pairs.index((1, 1)), pairs.index((0, 0))
        if damage == "truncated":
            sidecar.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            sidecar.write_bytes(bytes(range(256)) * 8)
        elif damage == "empty":
            sidecar.write_bytes(b"")
        elif damage == "wrong_version":
            version = trace._SIDECAR_KEY.split()[2]
            self.rewrite(sidecar, key=key.replace(
                f" {version} ", f" {int(version) + 1} "))
        elif damage == "other_digest":
            self.rewrite(sidecar, key=key[:-1] + ("0" if key[-1] != "0"
                                                  else "1"))
        elif damage == "code_too_large":
            codes0 = codes0.copy()
            codes0[-1] = len(ids0)
            self.rewrite(sidecar, codes0=codes0)
        elif damage == "negative_code":
            self.rewrite(sidecar, codes0=codes0 - 1)
        elif damage == "int64_codes":
            self.rewrite(sidecar, codes0=codes0.astype(np.int64))
        elif damage == "short_column":
            self.rewrite(sidecar, codes0=codes0[:-1])
        elif damage == "object_ids":
            self.rewrite(sidecar, ids0=ids0.astype(str).astype(object))
        elif damage == "unicode_ids":
            self.rewrite(sidecar, ids0=ids0.astype(str))
        elif damage == "timestamps_too_short":
            with np.load(sidecar) as npz:
                self.rewrite(sidecar, timestamps=npz["timestamps"][:-1])
        elif damage == "timestamps_dropped":
            # As a damaged zip directory can lose a member.
            self.rewrite(sidecar, drop=("timestamps",))
        elif damage == "codes_dropped":
            self.rewrite(sidecar, drop=("codes2",))
        elif damage == "non_ascii_ids":
            self.rewrite(sidecar, ids0=np.char.add(ids0, b"\xff"))
        elif damage == "table_dropped":
            self.rewrite(sidecar, drop=("ranked_targets",))
        elif damage == "counts_dropped":
            self.rewrite(sidecar, drop=("user_counts",))
        elif damage == "short_table":
            self.rewrite(sidecar, ranked_users=ranked_users[:-1])
        elif damage == "int32_covered":
            self.rewrite(sidecar, ranked_covered=stored[
                "ranked_covered"].astype(np.int32))
        elif damage == "user_out_of_range":
            ranked_users[-1] = len(ids0)
            self.rewrite(sidecar, ranked_users=ranked_users)
        elif damage == "cell_out_of_range":
            cells = stored["target_cells"].copy()
            cells[0] = len(stored["ids2"])
            self.rewrite(sidecar, target_cells=cells)
        elif damage == "negative_popularity":
            self.rewrite(sidecar, popularity=stored["popularity"] - 1)
        elif damage == "bounds_not_monotone":
            ranked_bounds[[1, 2]] = ranked_bounds[[2, 1]]
            self.rewrite(sidecar, ranked_bounds=ranked_bounds)
        elif damage == "bounds_repeat":
            # The last user has no cell: a geo profile would index past
            # the end.
            user_cells[-2] = user_cells[-1]
            self.rewrite(sidecar, user_cell_bounds=user_cells)
        elif damage == "bounds_from_one":
            user_cells[0] = 1
            self.rewrite(sidecar, user_cell_bounds=user_cells)
        elif damage == "bounds_past_end":
            ranked_bounds[-1] += 1
            self.rewrite(sidecar, ranked_bounds=ranked_bounds)
        elif damage == "targets_skip":
            # Steps 0 and 2 for 1 and 1: every count in range, both ends
            # kept.
            targets[rise + 1] -= 1
            self.rewrite(sidecar, ranked_targets=targets)
        elif damage == "targets_descend":
            # Steps 1 and -1 for 0 and 0, as above.
            targets[flat + 1] += 1
            self.rewrite(sidecar, ranked_targets=targets)
        elif damage == "targets_from_one":
            # The first ranked position always reaches an entry.
            assert targets[1] == 1
            targets[0] = 1
            self.rewrite(sidecar, ranked_targets=targets)
        elif damage == "targets_wrong_end":
            # The last step turned to the other valid one: only the end
            # moves.
            targets[-1] += 1 if steps[-1] == 0 else -1
            self.rewrite(sidecar, ranked_targets=targets)
        elif damage == "cell_counts_dropped":
            self.rewrite(sidecar, drop=("cell_counts",))
        assert sidecar.read_bytes() != good
        assert trace.load_trace(path) == build_indexes(records)
        assert sidecar.read_bytes() == good
        with mock.patch.object(trace, "_parse", refuse_parse):
            assert trace.load_trace(path).records == tuple(records)

    def test_version_1_sidecar_is_a_miss_and_replaced(self, tmp_path):
        records = make_random_records(seeded_rng(32), with_timestamps=True)
        path = tmp_path / "trace.csv"
        write_trace(build_indexes(records), path)
        sidecar = sidecar_of(path)
        trace.load_trace(path)
        good = sidecar.read_bytes()
        # Version 1 stored the key, the vocabularies, the code columns and
        # the timestamps only.
        with np.load(sidecar) as npz:
            old = {name: npz[name] for name in (
                "ids0", "ids1", "ids2", "codes0", "codes1", "codes2",
                "timestamps")}
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with open(sidecar, "wb") as handle:
            np.savez(handle, key=f"prepush sidecar 1 sha256 {digest}", **old)
        assert trace.load_trace(path) == build_indexes(records)
        assert sidecar.read_bytes() == good

    def test_no_timestamps_stores_an_empty_column(self, tmp_path):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,\nu2,t1,c2,\n")
        trace.load_trace(path)
        with np.load(sidecar_of(path)) as npz:
            assert npz["timestamps"].dtype == np.int64
            assert npz["timestamps"].shape == (0,)
            assert [npz[f"ids{k}"].dtype.kind for k in range(3)] == ["S"] * 3
            assert [npz[f"codes{k}"].dtype for k in range(3)] == [np.int32] * 3
        with mock.patch.object(trace, "_parse", refuse_parse):
            assert trace.load_trace(path).records == (
                VisitRecord("u1", "t1", "c1"), VisitRecord("u2", "t1", "c2"))

    @pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
    def test_sidecar_has_the_trace_permissions(self, tmp_path, mode):
        path = write_text(tmp_path, HEADER + "u1,t1,c1,\n")
        path.chmod(mode)
        trace.load_trace(path)
        assert sidecar_of(path).stat().st_mode & 0o777 == mode

    def test_sidecar_is_private_while_written(self, tmp_path, monkeypatch):
        # A 0600 trace's identifiers are not readable by others through
        # the sidecar's temporary file, whatever the umask allows.
        def spy(handle, *args, **kwargs):
            modes.append(os.fstat(handle.fileno()).st_mode & 0o777)
            return savez(handle, *args, **kwargs)

        path = write_text(tmp_path, HEADER + "u1,t1,c1,\n")
        path.chmod(0o600)
        savez, modes = np.savez, []
        monkeypatch.setattr(np, "savez", spy)
        umask = os.umask(0o022)
        try:
            trace.load_trace(path)
        finally:
            os.umask(umask)
        assert modes == [0o600]
        assert sidecar_of(path).stat().st_mode & 0o777 == 0o600

    def test_threads_loading_one_fresh_trace(self, tmp_path):
        # Two misses at once write two temporary files, not one.
        def load(slot):
            barrier.wait()
            got[slot] = trace.load_trace(path)

        path = write_text(tmp_path, HEADER + "".join(
            f"u{k % 7},t{k % 5},c{k % 3},{k}\n" for k in range(500)))
        barrier, got = threading.Barrier(2), [None, None]
        threads = [threading.Thread(target=load, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        parsed = parse_trace(path)
        parsed._planning
        for dataset in got:
            assert_same_fields(dataset, parsed)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".trace.csv.prepush.npz", "trace.csv"]
        with mock.patch.object(trace, "_parse", refuse_parse):
            assert_same_fields(trace.load_trace(path), parsed)

    def test_missing_file_raises_as_parse(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            trace.load_trace(tmp_path / "nope.csv")
        assert exc.value.filename == str(tmp_path / "nope.csv")
        assert list(tmp_path.iterdir()) == []
