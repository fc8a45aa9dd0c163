import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from helpers import make_random_records, seeded_rng
from prepush import (
    CASE_ASSUMED_LOCATION,
    CASE_LIMITED_COVERAGE,
    CASE_PERFECT,
    CASE_UNICAST,
    DEFAULT_COVERAGE_GRID,
    UnknownIdError,
    VisitRecord,
    broadcast_cost,
    build_indexes,
    coverage_cost,
    estimate_target_cells,
    most_active_cell,
    perfect_cost,
    plan_title,
    sweep_coverage,
    titles_by_popularity,
    trace,
    traffic_vs_broadcast_ratio,
    unicast_breakdown,
    unicast_cost,
    write_trace,
)
from prepush import rounding
from prepush.cli import _plan_rows
from prepush import planning
from prepush.planning import (
    TRAFFIC_MODES, _title_costs, _validate_fraction_grid)
from prepush.rounding import ceil_count


def one_title_dataset():
    return build_indexes(
        [
            VisitRecord("u1", "t1", "A"),
            VisitRecord("u1", "t1", "A"),
            VisitRecord("u1", "t1", "B"),
            VisitRecord("u2", "t1", "C"),
        ]
    )


class TestUnicast:
    def test_single_record_title(self):
        ds = build_indexes([VisitRecord("u1", "t1", "A")])
        assert unicast_cost(ds, "t1") == 1

    def test_counts_every_visit(self):
        assert unicast_cost(one_title_dataset(), "t1") == 4

    def test_unknown_title(self):
        with pytest.raises(UnknownIdError):
            unicast_cost(one_title_dataset(), "t9")

    def test_breakdown_accounting(self):
        bd = unicast_breakdown(one_title_dataset(), "t1")
        assert bd.case == CASE_UNICAST
        assert bd.broadcast_transmissions == 0
        assert bd.missed_visits == 4
        assert bd.total_transmissions == 4


@pytest.mark.parametrize("query", [
    lambda ds, title: coverage_cost(ds, title, 0.5),
    lambda ds, title: coverage_cost(ds, title, 1.0),
    sweep_coverage,
    *(lambda ds, title, case=case: plan_title(ds, title, case, 0.5)
      for case in (CASE_UNICAST, *TRAFFIC_MODES)),
    perfect_cost,
    unicast_breakdown,
], ids=["coverage_cost", "coverage_cost_1", "sweep_coverage",
        *(f"plan_title_{case}" for case in (CASE_UNICAST, *TRAFFIC_MODES)),
        "perfect_cost", "unicast_breakdown"])
def test_unknown_title_in_every_query(tmp_path, query):
    built = one_title_dataset()
    path = tmp_path / "trace.csv"
    write_trace(built, path)
    trace.load_trace(path)
    for dataset in (built, trace.load_trace(path)):  # a sidecar hit
        with pytest.raises(UnknownIdError) as exc:
            query(dataset, "t9")
        assert (exc.value.kind, exc.value.identifier) == ("title", "t9")


def test_unknown_case_is_refused():
    with pytest.raises(ValueError, match="unknown case: 'bogus'"):
        plan_title(one_title_dataset(), "t1", "bogus", 0.5)


class TestPerfectCost:
    def test_counts_distinct_cells(self):
        bd = perfect_cost(one_title_dataset(), "t1")
        assert bd.case == CASE_PERFECT
        assert bd.broadcast_transmissions == 3
        assert bd.missed_visits == 0
        assert bd.total_transmissions == 3

    def test_single_visit_title_no_savings(self):
        ds = build_indexes([VisitRecord("u1", "t1", "A")])
        assert perfect_cost(ds, "t1").total_transmissions == unicast_cost(ds, "t1")

    def test_dominance_on_random_traces(self):
        for seed in range(25):
            records = make_random_records(seeded_rng(500 + seed))
            ds = build_indexes(records)
            for title in ds.title_visits:
                total = perfect_cost(ds, title).total_transmissions
                baseline = unicast_cost(ds, title)
                assert total <= baseline
                distinct = len(oracle.title_cell_counts(records, title))
                assert (total == baseline) == (distinct == baseline)

    def test_distinct_cells_match_oracle(self):
        # The perfect cost and the CLI's `actual` column both count a
        # title's distinct cells.
        for seed in range(10):
            records = make_random_records(seeded_rng(540 + seed))
            ds = build_indexes(records)
            for case in TRAFFIC_MODES:
                _, rows = _plan_rows(ds, case, _title_costs(ds, case, 0.5))
                for title, _, actual, *_ in rows:
                    want = len(oracle.title_cell_counts(records, title))
                    assert actual == want
                    assert perfect_cost(
                        ds, title).broadcast_transmissions == want


class TestBroadcastCost:
    def test_empty_targets_is_pure_unicast(self):
        ds = one_title_dataset()
        bd = broadcast_cost(ds, "t1", frozenset())
        assert bd.total_transmissions == unicast_cost(ds, "t1")
        assert bd.broadcast_transmissions == 0

    def test_actual_targets_reduce_to_perfect(self):
        ds = one_title_dataset()
        actual = frozenset(ds.title_cell_visits["t1"])
        bd = broadcast_cost(ds, "t1", actual)
        assert bd.total_transmissions == perfect_cost(ds, "t1").total_transmissions

    def test_counts_target_cells_plus_missed(self):
        ds = one_title_dataset()
        bd = broadcast_cost(ds, "t1", {"A", "Z"})
        # A covers 2 visits; B and C are missed; Z is a wasted broadcast.
        assert bd.broadcast_transmissions == 2
        assert bd.missed_visits == 2
        assert bd.total_transmissions == 4


class TestCoverageCost:
    def test_case_label_follows_coverage(self):
        ds = one_title_dataset()
        assert coverage_cost(ds, "t1", 1.0).case == CASE_ASSUMED_LOCATION
        assert coverage_cost(ds, "t1", 0.2).case == CASE_LIMITED_COVERAGE
        assert coverage_cost(ds, "t1", 0.2).coverage == 0.2

    def test_single_visitor_title_formula(self):
        # u1's most active cell is A (2 visits there); t2 is visited once
        # from B, so the broadcast misses it.
        ds = build_indexes(
            [
                VisitRecord("u1", "t1", "A"),
                VisitRecord("u1", "t1", "A"),
                VisitRecord("u1", "t2", "B"),
            ]
        )
        for coverage in (0.3, 1.0):
            bd = coverage_cost(ds, "t2", coverage)
            assert bd.broadcast_transmissions == 1
            assert bd.missed_visits == 1
            assert bd.total_transmissions == 2

    def test_matches_step_by_step_oracle(self):
        grid = [Fraction(k, 10) for k in range(1, 11)]
        for seed in range(30):
            records = make_random_records(seeded_rng(600 + seed))
            ds = build_indexes(records)
            for title in ds.title_visits:
                for coverage in grid:
                    bd = coverage_cost(ds, title, float(coverage))
                    expected = oracle.coverage_breakdown(records, title, coverage)
                    got = (
                        bd.broadcast_transmissions,
                        bd.missed_visits,
                        bd.total_transmissions,
                    )
                    assert got == expected

    def test_accounting_identity_everywhere(self):
        for seed in range(10):
            records = make_random_records(seeded_rng(700 + seed))
            ds = build_indexes(records)
            for title in ds.title_visits:
                for coverage in (0.25, 0.5, 1.0):
                    bd = coverage_cost(ds, title, coverage)
                    assert (
                        bd.total_transmissions
                        == bd.broadcast_transmissions + bd.missed_visits
                    )


def test_results_are_plain_records():
    ds = one_title_dataset()
    bd = coverage_cost(ds, "t1", 0.5)
    title, case, coverage, broadcast, missed, total = bd
    assert (title, case, coverage, broadcast, missed, total) == (
        bd.title_id, bd.case, bd.coverage, bd.broadcast_transmissions,
        bd.missed_visits, bd.total_transmissions)
    assert bd == ("t1", CASE_LIMITED_COVERAGE, 0.5, 1, 2, 3)

    breakdown, partition = plan_title(ds, "t1", CASE_ASSUMED_LOCATION, 1.0)
    assert breakdown == ("t1", CASE_ASSUMED_LOCATION, 1.0, 2, 1, 3)
    estimated, actual, hit, missing, mistaken, missed_visits = partition
    assert (estimated, actual, hit, missing, mistaken, missed_visits) == (
        partition.estimated, partition.actual, partition.hit,
        partition.missing, partition.mistaken, partition.missed_visits)
    assert partition == (frozenset("AC"), frozenset("ABC"), frozenset("AC"),
                         frozenset("B"), frozenset(), 1)


class TestSweepCoverage:
    def test_sole_loyal_visitor_flat_cost(self):
        ds = build_indexes(
            [VisitRecord("u1", "t1", "A"), VisitRecord("u1", "t1", "A")]
        )
        sweep = sweep_coverage(ds, "t1", (0.2, 0.6, 1.0))
        assert sweep.costs == (1, 1, 1)
        assert sweep.optimal_coverage == 0.2
        assert sweep.optimal_cost == 1
        assert sweep.unicast_baseline == 2

    def test_default_grid(self):
        ds = one_title_dataset()
        sweep = sweep_coverage(ds, "t1")
        assert sweep.grid == DEFAULT_COVERAGE_GRID
        assert len(sweep.costs) == 20
        # The default grid is valid, so a sweep over it skips the check;
        # an equal grid that is another object is checked and agrees.
        _validate_fraction_grid(DEFAULT_COVERAGE_GRID, "coverage grid",
                                low_open=True)
        with mock.patch.object(planning, "_validate_fraction_grid") as check:
            assert sweep_coverage(ds, "t1") == sweep
            check.assert_not_called()
            grid = list(DEFAULT_COVERAGE_GRID)
            assert sweep_coverage(ds, "t1", grid) == sweep
            check.assert_called_once()

    @pytest.mark.parametrize(
        "grid", [(), (0.5, 0.5), (0.6, 0.3), (0.0, 0.5), (0.5, 1.2),
                 (0.1, math.nan), (math.nan,), (math.nan, 0.5)]
    )
    def test_grid_validated(self, grid):
        with pytest.raises(ValueError, match="coverage grid"):
            sweep_coverage(one_title_dataset(), "t1", grid)

    def test_matches_pointwise_and_bruteforce_argmin(self):
        grid = [Fraction(k, 10) for k in range(1, 11)]
        float_grid = [float(c) for c in grid]
        for seed in range(30):
            records = make_random_records(seeded_rng(800 + seed))
            ds = build_indexes(records)
            for title in ds.title_visits:
                sweep = sweep_coverage(ds, title, float_grid)
                expected_costs, best = oracle.sweep_costs(records, title, grid)
                assert list(sweep.costs) == expected_costs
                assert sweep.optimal_coverage == float_grid[best]
                assert sweep.optimal_cost == expected_costs[best]
                assert sweep.optimal_cost == min(expected_costs)

    def test_optimum_ties_take_smallest_coverage(self):
        ds = build_indexes(
            [VisitRecord("u1", "t1", "A"), VisitRecord("u2", "t1", "A")]
        )
        sweep = sweep_coverage(ds, "t1", (0.5, 1.0))
        assert sweep.costs == (1, 1)
        assert sweep.optimal_coverage == 0.5


class TestTrafficCurve:
    def test_zero_ratio_is_unicast_baseline(self):
        ds = one_title_dataset()
        curve = traffic_vs_broadcast_ratio(ds, CASE_PERFECT, (0.0, 1.0))
        assert curve[0] == (0.0, ds.total_visits)

    def test_perfect_curve_non_increasing(self):
        ratios = tuple(k / 10 for k in range(11))
        for seed in range(15):
            ds = build_indexes(make_random_records(seeded_rng(900 + seed)))
            curve = traffic_vs_broadcast_ratio(ds, CASE_PERFECT, ratios)
            totals = [total for _, total in curve]
            assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_matches_oracle_all_modes(self):
        # The second grid stops below 1, so only a popularity prefix of the
        # titles is costed.
        grids = ([Fraction(k, 4) for k in range(5)],
                 [Fraction(k, 4) for k in range(3)])
        coverage = Fraction(1, 5)
        for seed in range(12):
            records = make_random_records(seeded_rng(1000 + seed))
            ds = build_indexes(records)
            for mode in (CASE_PERFECT, CASE_ASSUMED_LOCATION, CASE_LIMITED_COVERAGE):
                for ratios in grids:
                    curve = traffic_vs_broadcast_ratio(
                        ds, mode, [float(r) for r in ratios],
                        coverage=float(coverage)
                    )
                    assert len(curve) == len(ratios)
                    for (p, total), ratio in zip(curve, ratios):
                        assert total == oracle.traffic_total(
                            records, mode, ratio, coverage=coverage
                        )

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            traffic_vs_broadcast_ratio(one_title_dataset(), "psychic", (0.0, 1.0))

    @pytest.mark.parametrize("ratios", [(), (0.5, 0.5), (0.8, 0.2), (-0.1, 1.0), (0.0, 1.1),
                                        (0.0, math.nan), (math.nan,)])
    def test_ratios_validated(self, ratios):
        with pytest.raises(ValueError, match="ratio grid"):
            traffic_vs_broadcast_ratio(one_title_dataset(), CASE_PERFECT, ratios)

    def test_limited_coverage_validated(self):
        with pytest.raises(ValueError):
            traffic_vs_broadcast_ratio(
                one_title_dataset(), CASE_LIMITED_COVERAGE, (0.0, 1.0), coverage=0.0
            )


def test_large_numerator_rounding_matches_oracle():
    # The simplest rational whose nearest double is just below 0.2 has a
    # denominator near 7e15, so its numerator times 8,000 visitors passes
    # 2**63: int64 rounding wraps round there (it gave -1215 visitors).
    coverage = math.nextafter(0.2, 0)
    assert rounding._resolve(coverage)[0] * 8000 >= 2**63
    records = [VisitRecord(f"u{i}", "t1", f"c{i % 40}") for i in range(8000)]
    records.append(VisitRecord("u1", "t2", "c1"))
    ds = build_indexes(records)
    # Any reading of the double, its binary value too, lies within 1e-16
    # below 1/5, so a count divisible by 5 gives the same ceiling.
    exact = Fraction(coverage)
    assert ceil_count(coverage, 8000) == oracle.exact_ceil(exact, 8000) == 1600
    want = oracle.coverage_breakdown(records, "t1", exact)
    bd = coverage_cost(ds, "t1", coverage)
    assert (bd.broadcast_transmissions, bd.missed_visits,
            bd.total_transmissions) == want
    _, broadcast, _, missed, _, _ = _title_costs(
        ds, CASE_LIMITED_COVERAGE, coverage)
    assert titles_by_popularity(ds)[0] == "t1"
    assert (broadcast[0], missed[0], broadcast[0] + missed[0]) == want
    assert traffic_vs_broadcast_ratio(
        ds, CASE_LIMITED_COVERAGE, (0.0, 1.0), coverage) == [
            (p, oracle.traffic_total(records, CASE_LIMITED_COVERAGE,
                                     Fraction(p), exact)) for p in (0.0, 1.0)]
    rows, _ = _plan_rows(ds, CASE_LIMITED_COVERAGE, _title_costs(
        ds, CASE_LIMITED_COVERAGE, coverage))
    assert rows[0] == ("t1", CASE_LIMITED_COVERAGE, coverage, *want)


class TestTitlesByPopularity:
    def test_ties_break_ascending(self):
        ds = build_indexes(
            [
                VisitRecord("u1", "tB", "A"),
                VisitRecord("u1", "tA", "A"),
                VisitRecord("u1", "tC", "A"),
                VisitRecord("u1", "tC", "B"),
            ]
        )
        assert titles_by_popularity(ds) == ["tC", "tA", "tB"]


def test_perfect_placement_makes_assumed_equal_perfect():
    for seed in range(8):
        records = make_random_records(seeded_rng(1100 + seed))
        ds = build_indexes(records)
        collapsed = build_indexes(
            [
                VisitRecord(r.user_id, r.title_id, most_active_cell(ds, r.user_id))
                for r in records
            ]
        )
        for title in collapsed.title_visits:
            assumed = coverage_cost(collapsed, title, 1.0)
            perfect = perfect_cost(collapsed, title)
            assert (
                assumed.broadcast_transmissions,
                assumed.missed_visits,
                assumed.total_transmissions,
            ) == (
                perfect.broadcast_transmissions,
                perfect.missed_visits,
                perfect.total_transmissions,
            )


record_ids = st.integers(min_value=1, max_value=5)
records_strategy = st.lists(
    st.builds(
        lambda u, t, c: VisitRecord(f"u{u}", f"t{t}", f"c{c}"),
        record_ids, record_ids, record_ids,
    ),
    min_size=1,
    max_size=50,
)


@given(records_strategy, st.floats(0.01, 1.0))
@settings(max_examples=150)
def test_accounting_identity_property(records, coverage):
    ds = build_indexes(records)
    title = records[0].title_id
    bd = coverage_cost(ds, title, coverage)
    assert bd.total_transmissions == bd.broadcast_transmissions + bd.missed_visits


# Traces for the first-target table: few users, titles and cells, so that
# users tie in activity, titles have a single visitor, and a visitor's most
# active cell (set by their other titles) is one the title never saw.
table_records = st.lists(
    st.builds(
        lambda u, t, c: VisitRecord(f"u{u}", f"t{t}", f"c{c}"),
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
    ),
    min_size=1,
    max_size=40,
)
hundredths = st.lists(st.integers(1, 100).map(lambda p: Fraction(p, 100)),
                      min_size=1, max_size=5)
# t1 has the single visitor u1, whose most active cell cB t1 never saw;
# u2 and u3 tie in activity.
TABLE_EXAMPLE = [
    VisitRecord("u1", "t1", "cA"),
    VisitRecord("u1", "t2", "cB"),
    VisitRecord("u1", "t2", "cB"),
    VisitRecord("u2", "t3", "cA"),
    VisitRecord("u3", "t3", "cC"),
]


def new_target_coverages(records, title):
    """Coverages k/n at each k where the k-th ranked visitor brings in a
    new target cell, and (k - 1)/n just before it."""
    ranked = oracle.ranked_visitors(records, title)
    seen, coverages = set(), []
    for k, user in enumerate(ranked, start=1):
        cell = oracle.most_active_cell(records, user)
        if cell not in seen:
            seen.add(cell)
            coverages += [Fraction(j, len(ranked)) for j in (k - 1, k) if j]
    return coverages


class TestFirstTargetTable:
    @given(table_records, hundredths)
    @example(TABLE_EXAMPLE, [Fraction(1, 2)])
    @settings(max_examples=150, deadline=None)
    def test_coverage_cost_and_targets_match_oracle(self, records, coverages):
        ds = build_indexes(records)
        for title in ds.title_visits:
            for coverage in coverages + new_target_coverages(records, title):
                bd = coverage_cost(ds, title, float(coverage))
                assert (bd.broadcast_transmissions, bd.missed_visits,
                        bd.total_transmissions) == oracle.coverage_breakdown(
                            records, title, coverage)
                assert estimate_target_cells(
                    ds, title, float(coverage)) == oracle.target_cells(
                        records, title, coverage)

    @given(table_records, hundredths)
    @example(TABLE_EXAMPLE, [Fraction(1, 2)])
    @settings(max_examples=100, deadline=None)
    def test_sweep_is_pointwise(self, records, coverages):
        ds = build_indexes(records)
        grid = tuple(sorted({float(c) for c in coverages}))
        for title in ds.title_visits:
            sweep = sweep_coverage(ds, title, grid)
            assert sweep.costs == tuple(
                coverage_cost(ds, title, c).total_transmissions for c in grid)

    @given(table_records, st.integers(1, 100))
    @example(TABLE_EXAMPLE, 50)
    @settings(max_examples=100, deadline=None)
    def test_partition_rows_match_plan_title(self, records, percent):
        # The CLI derives partitions.csv from counts alone; plan_title
        # builds the sets.
        ds = build_indexes(records)
        coverage = percent / 100
        for case in TRAFFIC_MODES:
            _, rows = _plan_rows(ds, case, _title_costs(ds, case, coverage))
            for title, *sizes in rows:
                part = plan_title(ds, title, case, coverage)[1]
                assert sizes == [len(part.estimated), len(part.actual),
                                 len(part.hit), len(part.missing),
                                 len(part.mistaken), part.missed_visits]

    @staticmethod
    def built_and_hit(records, tmp_path_factory):
        """The dataset built from ``records``, and the same trace read back
        from its sidecar with parsing refused."""
        path = tmp_path_factory.mktemp("table") / "trace.csv"
        write_trace(build_indexes(records), path)
        trace.load_trace(path)
        with mock.patch.object(trace, "_parse", side_effect=AssertionError(
                "parsed a trace whose sidecar holds it")):
            return build_indexes(records), trace.load_trace(path)

    @given(table_records)
    @example(TABLE_EXAMPLE)
    @settings(max_examples=100, deadline=None)
    def test_prefix_columns_match_oracle(self, tmp_path_factory, records):
        # Targeting the first k ranked visitors reads each prefix column at
        # the title's start s and at s + k, for every k from 0 to n.
        for ds in self.built_and_hit(records, tmp_path_factory):
            a = ds._arrays
            targets, hits, covered = (a[f"ranked_{name}"] for name in
                                      ("targets", "hits", "covered"))
            for title, visits in ds.title_visits.items():
                code = ds._title_code(title)
                start, stop = a["ranked_bounds"][code:code + 2].tolist()
                for k in range(stop - start + 1):
                    s, e = start, start + k
                    cells = a["ids2"][a["target_cells"][
                        targets[s]:targets[e]]].tolist()
                    got = (int(targets[e] - targets[s]),
                           int(hits[e] - hits[s]),
                           visits - int(covered[e] - covered[s]))
                    if k == 0:
                        assert got == (0, 0, visits) and cells == []
                        continue
                    coverage = Fraction(k, stop - start)
                    want = oracle.target_cells(records, title, coverage)
                    broadcast, missed, _ = oracle.coverage_breakdown(
                        records, title, coverage)
                    hit = oracle.partition(records, title, want)[0]
                    assert got == (broadcast, len(hit), missed)
                    assert len(cells) == len(want) and set(cells) == want

    def test_queries_return_python_numbers(self, tmp_path_factory):
        # Every field is a Python int or float (or str), never a numpy
        # scalar, on a built dataset and on a sidecar hit.
        records = make_random_records(seeded_rng(61))
        for ds in self.built_and_hit(records, tmp_path_factory):
            for title in ds.title_visits:
                for coverage in (0.2, 0.5, 1.0):
                    bd = coverage_cost(ds, title, coverage)
                    values = list(bd)
                    assert {type(v) for v in values} <= {int, float, str}
                sweep = sweep_coverage(ds, title)
                values = [sweep.title_id, *sweep.grid, *sweep.costs,
                          sweep.unicast_baseline, sweep.optimal_coverage,
                          sweep.optimal_cost]
                assert {type(v) for v in values} <= {int, float, str}
