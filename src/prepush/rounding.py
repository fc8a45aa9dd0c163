"""Fraction-of-count rounding used by ranking and coverage selection.

A fraction such as 0.05, 0.3 or 1/3 stands for a simple rational, but a
binary float holds only the nearest double to it, so ``fraction * n`` can
land an ulp on the wrong side of an integer (e.g.
``0.3 * 10 == 2.9999999999999996``).  Both functions therefore read the
fraction as the simplest rational that rounds to it, and round that
rational's product with ``n`` in integer arithmetic, which is exact at any
scale.  For a decimal of up to seven places the simplest rational is the
decimal's own value (0.3 is 3/10); 1/3 is read as one third.
"""

import math
from fractions import Fraction


def _simplest_between(lo, hi):
    """The rational with the smallest denominator in ``[lo, hi]``, lo >= 0."""
    whole = math.floor(lo)
    if whole == lo or whole + 1 <= hi:
        return Fraction(math.ceil(lo))
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


#: Fractions resolved so far: callers round the same few grid values
#: again and again, and a lookup costs a fraction of resolving one.
_RATIONALS = {}


def _resolve(fraction):
    """``(numerator, denominator)`` of the simplest rational whose nearest
    double is ``fraction``, remembered in :data:`_RATIONALS`."""
    x = abs(float(fraction))
    if x == 0:
        ratio = 0, 1
    else:
        # Every real strictly between the midpoints to the neighbouring
        # doubles rounds to x; the midpoints themselves are never simplest.
        below = (Fraction(math.nextafter(x, 0)) + Fraction(x)) / 2
        above = (Fraction(math.nextafter(x, math.inf)) + Fraction(x)) / 2
        simplest = _simplest_between(below, above)
        sign = -1 if fraction < 0 else 1
        ratio = sign * simplest.numerator, simplest.denominator
    if len(_RATIONALS) >= 4096:
        _RATIONALS.clear()
    _RATIONALS[fraction] = ratio
    return ratio


def floor_count(fraction, n):
    """Largest k with k <= fraction * n, exact for any n."""
    numerator, denominator = _RATIONALS.get(fraction) or _resolve(fraction)
    return numerator * n // denominator


def ceil_count(fraction, n):
    """Smallest k with k >= fraction * n, exact for any n."""
    numerator, denominator = _RATIONALS.get(fraction) or _resolve(fraction)
    return -(-numerator * n // denominator)
