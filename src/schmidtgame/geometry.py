"""Balls, slabs and the Schmidt partial order, all over exact rationals.

A slab is the closed neighborhood of an affine hyperplane: for a nonzero
normal n, offset b and halfwidth w >= 0 it is the set
{x : |n.x - b| <= w * ||n||}.  Normals are kept unnormalized so that every
predicate can be decided by comparing squares of rationals, here as integer
numerators over one common denominator (`over_common_den`): a predicate
builds no Fraction, and a rational-valued function builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Tuple

from .exact import frac, sqrt_interval

Vec = Tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    pass


def as_vec(xs) -> Vec:
    return tuple(map(frac, xs))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(t: Fraction, a: Vec) -> Vec:
    return tuple(t * x for x in a)


def over_common_den(x) -> Tuple[Tuple[int, ...], int]:
    """(X, D) with x = X / D and D the lcm of the denominators of x."""
    ratios = [xi.as_integer_ratio() for xi in x]
    D = math.lcm(*[q for _, q in ratios])
    return tuple([p * (D // q) for p, q in ratios]), D


def within(gap: Tuple[int, int], r2: Fraction) -> bool:
    """gap = (g, s) stands for the squared distance g / s; is it <= r2?"""
    return gap[0] * r2.denominator <= r2.numerator * gap[1]


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    (A, Da), (B, Db) = over_common_den(a), over_common_den(b)
    return Fraction(sum(map(mul, A, B)), Da * Db)


def norm2(a: Vec) -> Fraction:
    return dot(a, a)


def frame_gap2(a, b) -> Tuple[int, int]:
    """||A / Da - B / Db||^2 for a = (A, Da), b = (B, Db), as a pair (g, s)
    standing for g / s."""
    (A, Da), (B, Db) = a, b
    return sum((x * Db - y * Da) ** 2 for x, y in zip(A, B)), (Da * Db) ** 2


def gap2(a: Vec, b: Vec) -> Tuple[int, int]:
    """||a - b||^2 as a pair (g, s) for g / s."""
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    return frame_gap2(over_common_den(a), over_common_den(b))


def dist2(a: Vec, b: Vec) -> Fraction:
    return Fraction(*gap2(a, b))


@dataclass(frozen=True)
class Ball:
    center: Vec
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        object.__setattr__(self, "radius", frac(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class SlabConstraint:
    normal: Vec
    offset: Fraction
    halfwidth: Fraction
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vec(self.normal))
        object.__setattr__(self, "offset", frac(self.offset))
        object.__setattr__(self, "halfwidth", frac(self.halfwidth))
        if all(x == 0 for x in self.normal):
            raise ValueError("slab normal must be nonzero")
        if self.halfwidth < 0:
            raise ValueError("slab halfwidth must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.normal)


def schmidt_leq(inner: Ball, outer: Ball) -> bool:
    """True iff radius(inner) + d(centers) <= radius(outer), decided exactly."""
    g, h = gap2(inner.center, outer.center)  # raises DimensionMismatch
    ri, ro = inner.radius, outer.radius
    # the slack radius(outer) - radius(inner) is s / den
    s = ro.numerator * ri.denominator - ri.numerator * ro.denominator
    den = ri.denominator * ro.denominator
    return s >= 0 and s * s * h >= g * den * den


def slab_ball_distance(ball: Ball, slab: SlabConstraint) -> Fraction:
    """Certified lower bound on d(ball, slab), clamped at 0.

    Exact whenever ||normal|| is rational (in particular in dimension 1 or
    for axis-aligned normals); otherwise the value errs downward by the
    enclosure width of the norm.
    """
    t = abs(dot(ball.center, slab.normal) - slab.offset)  # raises DimensionMismatch
    nn = sqrt_interval(norm2(slab.normal))
    lo = t / nn.hi - slab.halfwidth - ball.radius
    return max(Fraction(0), lo)


def slab_distance_exceeds(ball: Ball, slab: SlabConstraint, margin: Fraction) -> bool:
    """Exactly decide d(ball, slab) > margin, for margin >= 0."""
    if ball.dim != slab.dim:
        raise DimensionMismatch(f"{ball.dim} vs {slab.dim}")
    margin = frac(margin)
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    (N, Dn), (X, Dx) = over_common_den(slab.normal), over_common_den(ball.center)
    b, den = slab.offset, Dn * Dx
    # |n.x - b| = t / (den * b.denominator); margin + halfwidth + radius = R / Dr
    t = abs(sum(map(mul, N, X)) * b.denominator - b.numerator * den)
    R, Dr = over_common_den((margin, slab.halfwidth, ball.radius))
    # t^2 > (R / Dr)^2 * ||normal||^2
    return (t * Dr * Dn) ** 2 > (sum(R) * den * b.denominator) ** 2 * sum(x * x for x in N)
