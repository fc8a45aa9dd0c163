from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from prepush.rounding import ceil_count, floor_count

hundredths = st.integers(min_value=0, max_value=100).map(lambda h: h / 100)


@pytest.mark.parametrize(
    "fraction, n, ceil, floor",
    [
        (0.1, 10, 1, 1),
        (0.2, 5, 1, 1),
        (0.3, 10, 3, 3),
        (0.05, 20, 1, 1),
        (0.05, 21, 2, 1),
        (1.0, 7, 7, 7),
        (0.0, 7, 0, 0),
        # 0.81 * 34_998_800 is 28_349_028.000000004 in binary floats: a
        # 1e-9 nudge cannot absorb an error that large.
        (0.81, 34_998_800, 28_349_028, 28_349_028),
        (0.3, 10**9 + 1, 300_000_001, 300_000_000),
    ],
)
def test_decimal_examples(fraction, n, ceil, floor):
    assert ceil_count(fraction, n) == ceil
    assert floor_count(fraction, n) == floor


def test_oracle_reads_floats_as_simple_fractions():
    assert oracle.exact_ceil(0.1, 10) == 1
    assert oracle.exact_ceil(0.2, 5) == 1
    assert oracle.exact_floor(0.3, 10) == 3
    assert oracle.exact_floor(1 / 3, 3) == 1
    assert oracle.exact_ceil(Fraction(1, 3), 3) == 1


def test_agrees_with_oracle_on_every_hundredth_to_2000():
    # Every fraction 0.01..1.00 against every count up to 2,000: reading
    # the floats' binary values disagreed with the library on thousands.
    for h in range(1, 101):
        exact = oracle.as_fraction(h / 100)
        assert exact == Fraction(h, 100)
        for n in range(1, 2001):
            m = exact * n
            assert ceil_count(h / 100, n) == -(-m.numerator // m.denominator)
            assert floor_count(h / 100, n) == m.numerator // m.denominator


@given(hundredths, st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_hundredths_match_oracle_to_1e9(fraction, n):
    assert ceil_count(fraction, n) == oracle.exact_ceil(fraction, n)
    assert floor_count(fraction, n) == oracle.exact_floor(fraction, n)


@given(st.integers(min_value=1, max_value=2000).flatmap(
           lambda q: st.tuples(st.integers(min_value=0, max_value=q),
                               st.just(q))),
       st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_simple_fractions_match_oracle_to_1e9(pq, n):
    p, q = pq
    fraction = p / q
    assert ceil_count(fraction, n) == -(-p * n // q)
    assert floor_count(fraction, n) == p * n // q
    assert ceil_count(fraction, n) == oracle.exact_ceil(fraction, n)
    assert floor_count(fraction, n) == oracle.exact_floor(fraction, n)


@given(st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_any_fraction_brackets_its_product(fraction, n):
    ceil, floor = ceil_count(fraction, n), floor_count(fraction, n)
    assert floor <= ceil <= floor + 1
    assert floor <= fraction * n * (1 + 1e-15) + 1e-9
    assert ceil >= fraction * n * (1 - 1e-15) - 1e-9
