"""Exact rational scalars and directed-rounding interval arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtgame.exact import (
    Interval,
    format_frac,
    frac,
    inthroot_floor,
    nthroot_interval,
    pow_interval,
    sqrt_interval,
    sqrt_upper,
)

rationals = st.fractions(
    min_value=F(-1000), max_value=F(1000), max_denominator=10 ** 6
)
positive_rationals = st.fractions(
    min_value=F(1, 10 ** 6), max_value=F(1000), max_denominator=10 ** 6
)


class TestFrac:
    def test_parses_strings(self):
        assert frac("3/4") == F(3, 4)
        assert frac("-2") == F(-2)
        assert frac(5) == F(5)

    def test_round_trip(self):
        for q in (F(0), F(22, 7), F(-3, 8)):
            assert frac(format_frac(q)) == q


class TestInthrootFloor:
    def test_exact_cubes(self):
        assert inthroot_floor(27, 3) == 3
        assert inthroot_floor(26, 3) == 2
        assert inthroot_floor(1, 5) == 1

    @given(st.integers(min_value=0, max_value=10 ** 12), st.integers(2, 5))
    def test_floor_property(self, n, k):
        r = inthroot_floor(n, k)
        assert r ** k <= n < (r + 1) ** k


class TestInterval:
    def test_arithmetic(self):
        a = Interval(F(1), F(2))
        b = Interval(F(-1), F(1))
        assert (a + b).lo == F(0) and (a + b).hi == F(3)
        assert (a * b).lo == F(-2) and (a * b).hi == F(2)
        assert (a - b).lo == F(0) and (a - b).hi == F(3)

    def test_inverse_requires_sign(self):
        with pytest.raises(Exception):
            Interval(F(-1), F(1)).inverse()
        inv = Interval(F(2), F(4)).inverse()
        assert inv.lo == F(1, 4) and inv.hi == F(1, 2)

    def test_ordering_predicates(self):
        a = Interval(F(2), F(3))
        assert a.certainly_gt(F(1))
        assert not a.certainly_gt(F(2))
        assert a.certainly_ge(F(2))
        assert a.certainly_lt(F(4))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(Exception):
            Interval(F(2), F(1))


class TestSqrtInterval:
    def test_perfect_square_enclosure(self):
        enc = sqrt_interval(F(1, 16))
        assert enc.lo <= F(1, 4) <= enc.hi

    @given(positive_rationals)
    def test_encloses_true_root(self, q):
        enc = sqrt_interval(q)
        assert enc.lo >= 0
        assert enc.lo ** 2 <= q <= enc.hi ** 2

    @given(positive_rationals)
    def test_bounds_agree(self, q):
        assert sqrt_interval(q).lo <= sqrt_upper(q)

    def test_tightness(self):
        enc = sqrt_interval(F(2))
        assert enc.width < F(1, 10 ** 9)


class TestNthroot:
    @given(positive_rationals, st.integers(2, 5))
    def test_encloses(self, q, k):
        enc = nthroot_interval(q, k)
        assert enc.lo ** k <= q <= enc.hi ** k

    def test_zero_first_root_and_zero_exponent_are_points(self):
        for k in (1, 2, 3):
            assert nthroot_interval(F(0), k) == Interval.point(0)
        for q in (F(7, 3), F(5), F(1, 8)):
            assert nthroot_interval(q, 1) == Interval.point(q)
            assert pow_interval(q, F(0)) == Interval.point(1)
        assert nthroot_interval(F(8, 27), 3) == Interval.point(F(2, 3))

    def test_pow_interval(self):
        enc = pow_interval(F(8), F(2, 3))
        assert enc.lo <= F(4) <= enc.hi
        enc = pow_interval(F(9), F(1, 2))
        assert enc.lo <= F(3) <= enc.hi


class TestIntervalSqrt:
    def test_monotone_enclosure(self):
        enc = Interval(sqrt_interval(F(4)).lo, sqrt_interval(F(9)).hi)
        assert enc.lo <= F(2) and enc.hi >= F(3)
