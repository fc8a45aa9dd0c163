import re

import pytest
from scipy import stats

from prepush import (
    SynthParams,
    generate,
    geo_concentration_profile,
)
from prepush.synth import DEFAULT_GEO_PROFILE


def small_params(**overrides):
    base = dict(n_users=40, n_titles=25, n_cells=30, n_visits=400, seed=5)
    base.update(overrides)
    return SynthParams(**base)


class TestParams:
    @pytest.mark.parametrize(
        "field", ["n_users", "n_titles", "n_cells", "n_visits"]
    )
    def test_zero_counts_rejected(self, field):
        with pytest.raises(ValueError):
            small_params(**{field: 0})

    def test_max_cells_below_profile_length_rejected(self):
        with pytest.raises(ValueError, match="at least len.geo_profile"):
            small_params(geo_profile=(0.5, 0.3, 0.2), max_cells_per_user=2)

    def test_cells_below_max_per_user_rejected(self):
        with pytest.raises(ValueError):
            small_params(n_cells=5, max_cells_per_user=10)

    def test_profile_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            small_params(geo_profile=(0.2, 0.5))

    def test_profile_sum_capped_at_one(self):
        with pytest.raises(ValueError):
            small_params(geo_profile=(0.9, 0.3))

    def test_profile_negative_rejected(self):
        with pytest.raises(ValueError):
            small_params(geo_profile=(0.5, -0.1))

    def test_residual_needs_room(self):
        # Profile sums to 0.8 but every cell slot is already named.
        with pytest.raises(ValueError):
            small_params(geo_profile=(0.5, 0.3), max_cells_per_user=2)

    def test_full_profile_without_residual_ok(self):
        params = small_params(geo_profile=(0.7, 0.3), max_cells_per_user=2)
        assert len(params.cell_weights()) == 2

    def test_residual_spread_uniformly(self):
        params = small_params(geo_profile=(0.5, 0.3), max_cells_per_user=6)
        weights = params.cell_weights()
        assert weights[:2] == pytest.approx([0.5, 0.3])
        assert weights[2:] == pytest.approx([0.05] * 4)

    def test_exponents_positive(self):
        with pytest.raises(ValueError):
            small_params(title_zipf_exponent=0.0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            small_params(seed=-1)


class TestGenerate:
    def test_exact_visit_count(self):
        ds = generate(small_params(n_visits=100))
        assert ds.total_visits == 100

    def test_determinism(self):
        a = generate(small_params())
        b = generate(small_params())
        assert a == b
        assert a.records == b.records

    def test_seed_changes_output(self):
        a = generate(small_params(seed=1))
        b = generate(small_params(seed=2))
        assert a.records != b.records

    def test_records_valid_identifiers(self):
        ds = generate(small_params())
        ident = re.compile(r"[A-Za-z0-9_:-]+\Z")
        for rec in ds.records:
            assert ident.match(rec.user_id)
            assert ident.match(rec.title_id)
            assert ident.match(rec.cell_id)
            assert rec.timestamp is None

    def test_user_cell_sets_bounded(self):
        params = small_params(n_visits=2000)
        ds = generate(params)
        for cells in ds.user_cell_visits.values():
            assert len(cells) <= params.max_cells_per_user

    def test_default_profile_matches_table(self):
        assert DEFAULT_GEO_PROFILE == (0.58, 0.22, 0.09, 0.05, 0.02)


class TestCalibration:
    def test_geo_profile_on_million_trace(self, million_dataset):
        profile = geo_concentration_profile(million_dataset, 5)
        expected = (0.58, 0.80, 0.89, 0.94, 0.96)
        for measured, target in zip(profile.cumulative_by_rank, expected):
            assert measured == pytest.approx(target, abs=0.05)

    def test_rank1_share_near_profile_head(self, million_dataset):
        profile = geo_concentration_profile(million_dataset, 1)
        assert profile.mean_share_by_rank[0] == pytest.approx(0.58, abs=0.05)

    def test_popularity_rank_correlation(self, million_dataset):
        # Title ids encode intended popularity rank; empirical counts must
        # track that order closely when visits dwarf the title count.
        titles = sorted(million_dataset.title_visits)
        counts = [million_dataset.title_visits[t] for t in titles]
        rho = stats.spearmanr(range(len(counts)), [-c for c in counts]).statistic
        assert rho > 0.9
