"""Balls, slabs and the Schmidt partial order, all over exact rationals.

A slab is the closed neighborhood of an affine hyperplane: for a nonzero
normal n, offset b and halfwidth w >= 0 it is the set
{x : |n.x - b| <= w * ||n||}.  Normals are kept unnormalized so that every
predicate can be decided by comparing squares of rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

from .exact import sqrt_interval

Vec = Tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    pass


def as_vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(t: Fraction, a: Vec) -> Vec:
    return tuple(t * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def norm2(a: Vec) -> Fraction:
    return dot(a, a)


def dist2(a: Vec, b: Vec) -> Fraction:
    return norm2(vsub(a, b))


@dataclass(frozen=True)
class Ball:
    center: Vec
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
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
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "halfwidth", Fraction(self.halfwidth))
        if all(x == 0 for x in self.normal):
            raise ValueError("slab normal must be nonzero")
        if self.halfwidth < 0:
            raise ValueError("slab halfwidth must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.normal)


def schmidt_leq(inner: Ball, outer: Ball) -> bool:
    """True iff radius(inner) + d(centers) <= radius(outer), decided exactly."""
    if inner.dim != outer.dim:
        raise DimensionMismatch(f"{inner.dim} vs {outer.dim}")
    slack = outer.radius - inner.radius
    if slack < 0:
        return False
    return slack * slack >= dist2(inner.center, outer.center)


def _check_slab_dim(ball: Ball, slab: SlabConstraint):
    if ball.dim != slab.dim:
        raise DimensionMismatch(f"{ball.dim} vs {slab.dim}")


def slab_ball_distance(ball: Ball, slab: SlabConstraint) -> Fraction:
    """Certified lower bound on d(ball, slab), clamped at 0.

    Exact whenever ||normal|| is rational (in particular in dimension 1 or
    for axis-aligned normals); otherwise the value errs downward by the
    enclosure width of the norm.
    """
    _check_slab_dim(ball, slab)
    t = abs(dot(slab.normal, ball.center) - slab.offset)
    nn = sqrt_interval(norm2(slab.normal))
    lo = t / nn.hi - slab.halfwidth - ball.radius
    return max(Fraction(0), lo)


def slab_distance_exceeds(ball: Ball, slab: SlabConstraint, margin: Fraction) -> bool:
    """Exactly decide d(ball, slab) > margin, for margin >= 0."""
    _check_slab_dim(ball, slab)
    margin = Fraction(margin)
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    t = abs(dot(slab.normal, ball.center) - slab.offset)
    rhs = margin + slab.halfwidth + ball.radius
    return t * t > rhs * rhs * norm2(slab.normal)
