import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracle
from conftest import CALIBRATION_PARAMS
from prepush import (
    SynthParams,
    VisitRecord,
    build_indexes,
    generate,
    geo_concentration_profile,
    synth,
    write_trace,
)
from prepush.synth import DEFAULT_GEO_PROFILE
from prepush.trace import _SIDECAR


def small_params(**overrides):
    base = dict(n_users=40, n_titles=25, n_cells=30, n_visits=400, seed=5)
    base.update(overrides)
    return SynthParams(**base)


@st.composite
def geo_params(draw):
    """``SynthParams`` cell fields: a non-increasing profile that may hold
    zero entries and leave a residual, and the cells to carry them."""
    weights = sorted(draw(st.lists(st.integers(0, 9), min_size=1,
                                   max_size=5)), reverse=True)
    residual = draw(st.integers(0 if sum(weights) else 1, 9))
    total = sum(weights) + residual
    profile = tuple(w / total for w in weights)
    slots = len(profile) + draw(st.integers(1 if residual else 0, 4))
    return dict(geo_profile=profile, max_cells_per_user=slots,
                n_cells=slots + draw(st.integers(0, 5)))


@st.composite
def pmfs(draw):
    """Zipf pmfs of 1 to 20,000 entries, or a profile's cell weights, which
    may end in zeros."""
    if draw(st.booleans()):
        return synth._zipf_pmf(draw(st.integers(1, 20_000)),
                               draw(st.floats(0.1, 8.0)))
    weights = SynthParams(n_users=1, n_titles=1, n_visits=1,
                          **draw(geo_params())).cell_weights()
    return weights / weights.sum()


def chunked(chunk, guide=synth._GUIDE):
    """Patch the chunk sizes of :func:`synth._draw` and
    :func:`synth._user_cells`, and ``_draw``'s guide size."""
    return mock.patch.multiple(synth, _CHUNK=chunk, _USER_CHUNK=chunk,
                               _GUIDE=guide)


@given(pmfs(), st.integers(0, 30), st.integers(1, 8),
       st.sampled_from([1, 4, 1 << 16]), st.integers(0, 2**64 - 1))
@example(synth._zipf_pmf(5000, 2.0), 30, 8, 1 << 16, 12345)
@example(np.array([0.7, 0.3, 0.0, 0.0]), 17, 4, 1 << 16, 3)
@settings(max_examples=300, deadline=None)
def test_draw_is_rng_choice(pmf, size, chunk, guide, seed):
    """Equal draws and an equal generator state after, with sizes on both
    sides of chunk boundaries; a guide of one entry searches every draw."""
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    with chunked(chunk, guide):
        drawn = synth._draw(rng, pmf, size)
    assert drawn.dtype == np.int32
    assert np.array_equal(drawn, reference.choice(len(pmf), size, p=pmf))
    assert rng.bit_generator.state == reference.bit_generator.state


class Uniforms:
    """A stand-in generator that hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


@pytest.mark.parametrize("guide", [1, 2, 1 << 16])
def test_a_draw_equal_to_a_cdf_value_takes_the_next_entry(guide):
    # The cdf is [0.25, 0.5, 0.5, 1.0]; rng.choice searches it "right".
    pmf = np.array([0.25, 0.25, 0.0, 0.5])
    uniforms = [0.0, 0.25, 0.5, 0.75, 0.5 - 2**-53, 1 - 2**-53]
    with chunked(4, guide):
        drawn = synth._draw(Uniforms(uniforms), pmf, len(uniforms))
    assert drawn.tolist() == [0, 1, 3, 3, 1, 3]


def test_draw_across_a_full_chunk():
    pmf = synth._zipf_pmf(5000, 2.0)
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    drawn = synth._draw(rng, pmf, synth._CHUNK + 3)
    assert np.array_equal(drawn, reference.choice(5000, synth._CHUNK + 3,
                                                  p=pmf))
    assert rng.bit_generator.state == reference.bit_generator.state


@given(geo_params(), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 60), st.floats(0.1, 4.0), st.floats(0.1, 4.0),
       st.integers(0, 2**64 - 1), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_generate_matches_reference(geo, n_users, n_titles, n_visits,
                                    title_exponent, user_exponent, seed,
                                    chunk):
    """Every array of the dataset, dtypes too, equals the one built from the
    whole-column ``rng.choice`` draws, over several chunks of visits."""
    params = SynthParams(n_users=n_users, n_titles=n_titles,
                         n_visits=n_visits, seed=seed,
                         title_zipf_exponent=title_exponent,
                         user_zipf_exponent=user_exponent, **geo)
    with chunked(chunk):
        generated = generate(params)._arrays
    reference = build_indexes(
        VisitRecord(*row) for row in oracle.synthetic_rows(params))._arrays
    for name, *_ in _SIDECAR:
        assert generated[name].dtype == reference[name].dtype, name
        assert np.array_equal(generated[name], reference[name]), name


def choice_rows(seed, n_users, n_cells, slots):
    """One ``rng.choice(n_cells, slots, replace=False)`` row per user, and
    the generator after them."""
    rng = np.random.default_rng(seed)
    rows = [rng.choice(n_cells, slots, replace=False) for _ in range(n_users)]
    return np.array(rows, dtype=np.int64).reshape(n_users, slots), rng


def assert_user_cells_are_choice(seed, n_users, n_cells, slots):
    rng = np.random.default_rng(seed)
    cells = synth._user_cells(rng, n_users, n_cells, slots)
    rows, reference = choice_rows(seed, n_users, n_cells, slots)
    assert cells.dtype == np.int32
    assert np.array_equal(cells, rows)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(rng.random(3), reference.random(3))


@st.composite
def choice_shapes(draw):
    """``(n_cells, slots)``: small shapes, all drawn by Floyd's algorithm;
    65 to 300 slots of at most 10,000 cells, numpy's Floyd through its own
    call; or shapes on both sides of numpy's switch to the tail shuffle (more
    than 10,000 cells and ``slots > n_cells // 50``)."""
    kind = draw(st.sampled_from(["small", "many slots", "switch"]))
    if kind == "small":
        n_cells = draw(st.integers(1, 60))
        return n_cells, draw(st.integers(1, n_cells))
    if kind == "many slots":
        slots = draw(st.integers(synth._FLOYD_SLOTS + 1, 300))
        return draw(st.integers(slots, 10_000)), slots
    return draw(st.integers(10_000, 12_000)), draw(st.integers(1, 300))


@given(choice_shapes(), st.integers(0, 50),
       st.sampled_from([1, 37, synth._USER_CHUNK]), st.integers(0, 2**64 - 1))
@example((1, 1), 3, 1, 0)  # no draws at all
@example((20, 20), 5, 1, 0)  # the first column, of range 0, draws nothing
@example((40, 1), 9, 1, 0)  # one draw per user, so each chunk's is odd
@example((1_000, 64), 7, 37, 3)  # the most slots drawn over many users
@example((1_000, 65), 7, 37, 3)  # the fewest drawn by numpy's own call
@example((64, 64), 7, 37, 3)  # every cell, over many users
@example((10_000, 200), 2, 1, 3)  # Floyd's algorithm at the switch
@example((10_001, 200), 2, 1, 3)  # still Floyd: 200 == 10_001 // 50
@example((10_001, 201), 2, 1, 3)  # the tail shuffle
@example((12_000, 12_000), 2, 1 << 18, 3)  # a tail shuffle of every cell
@settings(max_examples=150, deadline=None)
def test_user_cells_are_rng_choice(shape, n_users, chunk, seed):
    """Equal int32 rows and an equal generator state after, buffered half
    included, with users split over chunks of odd and even draw counts."""
    with chunked(chunk):
        assert_user_cells_are_choice(seed, n_users, *shape)


@pytest.mark.parametrize("seed, n_users, n_cells, slots, draws", [
    (12000, 16_667, 1_667, 20, 16_667 * 39),  # the cli-dispersed shape
    (385, 1, 10_000, 200, 399),  # Floyd, by rng.choice
    (155, 1, 11_000, 250, 250),  # the tail shuffle, by rng.choice
])
@pytest.mark.parametrize("chunk", [1000, synth._USER_CHUNK])
def test_a_rejected_half_is_spent_and_its_draw_retried(seed, n_users, n_cells,
                                                       slots, draws, chunk):
    # numpy's own rows spend one 32-bit half more than they have draws.
    _, reference = choice_rows(seed, n_users, n_cells, slots)
    spent = np.random.default_rng(seed)
    spent.integers(2**32, size=draws + 1, dtype=np.uint32)
    assert spent.bit_generator.state == reference.bit_generator.state
    with chunked(chunk):
        assert_user_cells_are_choice(seed, n_users, n_cells, slots)


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

    @pytest.mark.parametrize("value", [12.0, True, np.float64(12), "12"])
    @pytest.mark.parametrize("field", [
        "n_users", "n_titles", "n_cells", "n_visits", "max_cells_per_user",
        "seed"])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            small_params(**{field: value})

    def test_numpy_integers_accepted(self):
        params = small_params(n_users=np.int64(40), n_cells=np.int32(30),
                              max_cells_per_user=np.uint8(10),
                              seed=np.uint64(5))
        assert params == small_params()
        assert type(params.n_users) is int and type(params.seed) is int
        assert generate(params) == generate(small_params())


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

    def test_million_trace_bytes_are_pinned(self, million_dataset, tmp_path):
        # The reference workload, four chunks of draws: cli-1m's gen digest.
        path = tmp_path / "trace.csv"
        write_trace(million_dataset, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "53f57631163e8959e168063eafeffbbb610a4911774fe653de80ef77b7a765d0")

    def test_million_visits_peak_at_32_bytes_each(self):
        tracemalloc.start()
        try:
            generate(CALIBRATION_PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * CALIBRATION_PARAMS.n_visits

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
