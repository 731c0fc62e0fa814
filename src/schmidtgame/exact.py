"""Exact rational scalars and certified interval enclosures.

Every quantity the engine reasons about is either a `fractions.Fraction`
or an `Interval` with rational endpoints known to bracket the true value.
Square roots and n-th roots of rationals are produced as enclosures via
integer root extraction on scaled numerators, so no floating point enters
any decision path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatLike = Union[Fraction, int]

DEFAULT_REL_BITS = 64


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and floats (exact dyadics) to a Fraction;
    a Fraction is returned as it is, not re-normalised."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_frac(q: Fraction) -> str:
    q = frac(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def inthroot_floor(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    r = 1 << (n.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    return r


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: RatLike) -> "Interval":
        x = frac(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RatLike) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other):
        o = _as_interval(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        o = _as_interval(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_interval(other).inverse()

    def __rtruediv__(self, other):
        return _as_interval(other) * self.inverse()

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self):
        return f"Interval({format_frac(self.lo)}, {format_frac(self.hi)})"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def sqrt_interval(q: RatLike, rel_bits: int = DEFAULT_REL_BITS) -> Interval:
    """Certified enclosure of sqrt(q), read off q in lowest terms; exact (a
    point) for perfect squares, 0 among them."""
    n, d = frac(q).as_integer_ratio()
    if n < 0:
        raise ValueError("sqrt of negative rational")
    nd = n * d
    r = math.isqrt(nd)
    if r * r == nd:
        return Interval.point(Fraction(r, d))
    s = rel_bits + 2
    big = math.isqrt(nd << (2 * s))
    return Interval(Fraction(big, d << s), Fraction(big + 1, d << s))


def nthroot_interval(q: RatLike, k: int, rel_bits: int = DEFAULT_REL_BITS) -> Interval:
    """Certified enclosure of q**(1/k) for q >= 0, integer k >= 1."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("even root of negative rational")
    if k < 1:
        raise ValueError("root order must be >= 1")
    n, d = q.numerator, q.denominator
    base = n * d ** (k - 1)
    r = inthroot_floor(base, k)
    if r ** k == base:
        return Interval.point(Fraction(r, d))
    s = rel_bits + 2
    big = inthroot_floor(base << (k * s), k)
    return Interval(Fraction(big, d << s), Fraction(big + 1, d << s))


def pow_interval(q: RatLike, exponent: Fraction, rel_bits: int = DEFAULT_REL_BITS) -> Interval:
    """Certified enclosure of q**exponent for q > 0 and rational exponent."""
    q = Fraction(q)
    exponent = Fraction(exponent)
    if q <= 0:
        raise ValueError("base must be positive")
    neg = exponent < 0
    exponent = abs(exponent)
    enc = nthroot_interval(q ** exponent.numerator, exponent.denominator, rel_bits)
    return enc.inverse() if neg else enc


def sqrt_upper(q: RatLike, rel_bits: int = DEFAULT_REL_BITS) -> Fraction:
    return sqrt_interval(q, rel_bits).hi
