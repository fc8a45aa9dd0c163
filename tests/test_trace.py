import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import make_random_records, seeded_rng
from prepush import (
    EmptyTraceError,
    RecordValidationError,
    SynthParams,
    TraceFormatError,
    VisitRecord,
    build_indexes,
    generate,
    parse_trace,
    write_trace,
)

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
