from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import (
    dataset_from_counts,
    make_random_dataset,
    make_random_records,
    seeded_rng,
)
from prepush import (
    EmptyTraceError,
    SynthParams,
    UnknownIdError,
    VisitRecord,
    build_indexes,
    cell_visit_counts,
    concentration_curve,
    generate,
    geo_concentration_profile,
    top_fraction_share,
    user_cell_shares,
)
from prepush.concentration import CURVE_KINDS


class TestConcentrationCurve:
    def test_counts_5_3_2(self):
        ds = dataset_from_counts({"a": 5, "b": 3, "c": 2}, kind="user")
        curve = concentration_curve(ds, "user")
        assert curve.points == (
            (1 / 3, 0.5),
            (2 / 3, 0.8),
            (1.0, 1.0),
        )

    def test_uniform_counts_give_diagonal(self):
        ds = dataset_from_counts({u: 3 for u in "abcd"}, kind="user")
        curve = concentration_curve(ds, "user")
        for fraction, share in curve.points:
            assert share == pytest.approx(fraction)

    def test_first_point_fraction_is_1_over_n(self):
        ds = dataset_from_counts({"a": 5, "b": 1}, kind="title")
        curve = concentration_curve(ds, "title")
        assert curve.points[0][0] == 0.5

    def test_final_point_exact(self):
        ds = make_random_dataset(seeded_rng(1))
        for kind in ("user", "title", "cell"):
            curve = concentration_curve(ds, kind)
            assert curve.points[-1] == (1.0, 1.0)

    def test_cell_counts_aggregate(self):
        ds = build_indexes(
            [
                VisitRecord("u1", "t1", "cA"),
                VisitRecord("u2", "t2", "cA"),
                VisitRecord("u2", "t1", "cB"),
            ]
        )
        assert cell_visit_counts(ds) == {"cA": 2, "cB": 1}
        curve = concentration_curve(ds, "cell")
        assert curve.points[0][1] == pytest.approx(2 / 3)

    def test_cell_counts_match_oracle(self):
        for seed in range(5):
            records = make_random_records(seeded_rng(40 + seed))
            counts = cell_visit_counts(build_indexes(records))
            want = oracle.cell_counts(records)
            # Equal values, keys in order of first appearance.
            assert list(counts.items()) == list(want.items())

    @given(st.lists(st.builds(
        lambda u, t, c: VisitRecord(f"u{u}", f"t{t}", f"c{c}"),
        *[st.integers(1, 12)] * 3), min_size=1, max_size=80),
        st.sampled_from(CURVE_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_exactly(self, records, kind):
        curve = concentration_curve(build_indexes(records), kind)
        assert curve.points == oracle.concentration_points(records, kind)

    def test_generated_equals_oracle_exactly(self):
        ds = generate(SynthParams(n_users=400, n_titles=300, n_cells=60,
                                  n_visits=20_000, seed=8))
        for kind in CURVE_KINDS:
            assert concentration_curve(ds, kind).points == (
                oracle.concentration_points(ds.records, kind))

    def test_unknown_kind(self):
        ds = make_random_dataset(seeded_rng(2))
        with pytest.raises(ValueError):
            concentration_curve(ds, "tower")

    def test_empty_dataset_errors(self):
        with pytest.raises(EmptyTraceError):
            concentration_curve(build_indexes([]), "user")


class TestTopFractionShare:
    def test_diagonal_curve(self):
        ds = dataset_from_counts({f"u{i}": 2 for i in range(10)}, kind="user")
        curve = concentration_curve(ds, "user")
        assert top_fraction_share(curve, 0.2) == pytest.approx(0.2)

    def test_counts_5_3_2_one_third(self):
        ds = dataset_from_counts({"a": 5, "b": 3, "c": 2}, kind="user")
        curve = concentration_curve(ds, "user")
        assert top_fraction_share(curve, 1 / 3) == 0.5

    def test_full_fraction_is_exactly_one(self):
        ds = make_random_dataset(seeded_rng(3))
        curve = concentration_curve(ds, "title")
        assert top_fraction_share(curve, 1.0) == 1.0

    def test_below_one_entity_yields_zero(self):
        ds = dataset_from_counts({"a": 1, "b": 1, "c": 1}, kind="user")
        curve = concentration_curve(ds, "user")
        assert top_fraction_share(curve, 0.1) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.01])
    def test_fraction_out_of_range(self, fraction):
        ds = dataset_from_counts({"a": 1}, kind="user")
        curve = concentration_curve(ds, "user")
        with pytest.raises(ValueError):
            top_fraction_share(curve, fraction)

    @given(
        counts=st.lists(st.integers(1, 50), min_size=1, max_size=25),
        numerator=st.integers(1, 100),
    )
    @settings(max_examples=200)
    def test_matches_bruteforce_recount(self, counts, numerator):
        named = {f"u{i:03d}": c for i, c in enumerate(counts)}
        ds = dataset_from_counts(named, kind="user")
        curve = concentration_curve(ds, "user")
        fraction = Fraction(numerator, 100)
        expected = oracle.top_fraction_count_sum(list(named.values()), fraction)
        assert top_fraction_share(curve, float(fraction)) == (
            expected / ds.total_visits
        )


class TestUserCellShares:
    def test_shares_6_3_1(self):
        ds = build_indexes(
            [VisitRecord("u1", f"t{i}", "A") for i in range(6)]
            + [VisitRecord("u1", f"t{i}", "B") for i in range(3)]
            + [VisitRecord("u1", "t9", "C")]
        )
        assert user_cell_shares(ds, "u1") == [
            ("A", 0.6),
            ("B", 0.3),
            ("C", 0.1),
        ]

    def test_single_cell_user(self):
        ds = build_indexes([VisitRecord("u1", "t1", "A")])
        assert user_cell_shares(ds, "u1") == [("A", 1.0)]

    def test_tie_breaks_ascending(self):
        ds = build_indexes(
            [
                VisitRecord("u1", "t1", "B"),
                VisitRecord("u1", "t2", "B"),
                VisitRecord("u1", "t3", "A"),
                VisitRecord("u1", "t4", "A"),
            ]
        )
        assert [cell for cell, _ in user_cell_shares(ds, "u1")] == ["A", "B"]

    def test_unknown_user(self):
        ds = build_indexes([VisitRecord("u1", "t1", "A")])
        with pytest.raises(UnknownIdError):
            user_cell_shares(ds, "nobody")

    def test_shares_sum_to_one(self):
        ds = make_random_dataset(seeded_rng(4))
        for user in ds.user_visits:
            total = sum(share for _, share in user_cell_shares(ds, user))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestGeoProfile:
    def test_single_cell_users(self):
        ds = build_indexes(
            [VisitRecord(f"u{i}", "t1", f"c{i}") for i in range(4)]
        )
        profile = geo_concentration_profile(ds, 3)
        assert profile.mean_share_by_rank == (1.0, 0.0, 0.0)
        assert profile.mean_active_cells == 1.0

    def test_short_users_pad_with_zero(self):
        # One two-cell user, one single-cell user.
        ds = build_indexes(
            [
                VisitRecord("u1", "t1", "A"),
                VisitRecord("u1", "t2", "B"),
                VisitRecord("u2", "t1", "C"),
            ]
        )
        profile = geo_concentration_profile(ds, 2)
        assert profile.mean_share_by_rank == (0.75, 0.25)
        assert profile.cumulative_by_rank == (0.75, 1.0)
        assert profile.mean_active_cells == 1.5

    def test_max_rank_validated(self):
        ds = build_indexes([VisitRecord("u1", "t1", "A")])
        with pytest.raises(ValueError):
            geo_concentration_profile(ds, 0)

    def test_empty_dataset_errors(self):
        with pytest.raises(EmptyTraceError):
            geo_concentration_profile(build_indexes([]), 5)

    def test_unweighted_average_matches_oracle(self):
        # Recompute each user's share vector straight from the records and
        # average with equal user weights.
        for seed in range(5):
            ds = make_random_dataset(seeded_rng(100 + seed))
            max_rank = 6
            profile = geo_concentration_profile(ds, max_rank)
            users = sorted(ds.user_visits)
            sums = [0.0] * max_rank
            for user in users:
                counts = oracle.user_cell_counts(ds.records, user)
                shares = sorted(
                    (c / sum(counts.values()) for c in counts.values()),
                    reverse=True,
                )
                for k in range(max_rank):
                    sums[k] += shares[k] if k < len(shares) else 0.0
            for k in range(max_rank):
                assert profile.mean_share_by_rank[k] == pytest.approx(
                    sums[k] / len(users), abs=1e-12
                )

    def test_equals_oracle_exactly(self):
        # Enough users that a pairwise sum would change the last bits.
        ds = generate(SynthParams(n_users=2500, n_titles=50, n_cells=400,
                                  n_visits=25_000, seed=31))
        assert ds.n_users >= 2000
        profile = geo_concentration_profile(ds, 12)
        assert (profile.mean_share_by_rank, profile.cumulative_by_rank,
                profile.mean_active_cells) == oracle.geo_profile(ds.records,
                                                                 12)

    def test_cumulative_bounded(self):
        ds = make_random_dataset(seeded_rng(6))
        profile = geo_concentration_profile(ds, 12)
        assert all(
            b >= a - 1e-12
            for a, b in zip(
                profile.cumulative_by_rank, profile.cumulative_by_rank[1:]
            )
        )
        assert profile.cumulative_by_rank[-1] <= 1.0 + 1e-9


record_ids = st.integers(min_value=1, max_value=5)
records_strategy = st.lists(
    st.builds(
        lambda u, t, c: VisitRecord(f"u{u}", f"t{t}", f"c{c}"),
        record_ids, record_ids, record_ids,
    ),
    min_size=1,
    max_size=50,
)


@given(records_strategy, st.sampled_from(["user", "title", "cell"]))
@settings(max_examples=150)
def test_curve_monotone_and_concave(records, kind):
    curve = concentration_curve(build_indexes(records), kind)
    fractions = curve.fractions
    shares = curve.shares
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(shares, shares[1:]))
    increments = [b - a for a, b in zip((0.0,) + shares, shares)]
    assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))
