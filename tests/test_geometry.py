"""Exact ball containment and slab-distance predicates."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtgame.exact import sqrt_interval
from schmidtgame.geometry import (
    Ball,
    DimensionMismatch,
    SlabConstraint,
    dist2,
    dot,
    norm2,
    schmidt_leq,
    slab_ball_distance,
    slab_distance_exceeds,
)

coords = st.fractions(min_value=F(-10), max_value=F(10), max_denominator=1000)


class TestSchmidtLeq:
    def test_concentric(self):
        assert schmidt_leq(Ball((F(0),), F(1, 2)), Ball((F(0),), F(1)))

    def test_touching_inside(self):
        assert schmidt_leq(Ball((F(1, 2),), F(1, 2)), Ball((F(0),), F(1)))

    def test_just_outside(self):
        assert not schmidt_leq(Ball((F(51, 100),), F(1, 2)), Ball((F(0),), F(1)))

    def test_larger_never_contained(self):
        assert not schmidt_leq(Ball((F(0),), F(2)), Ball((F(0),), F(1)))

    @given(coords, coords)
    def test_exact_boundary(self, c, r_num):
        # inner radius chosen so |c| + r_in == 1 exactly: always contained
        r_in = 1 - abs(c)
        if r_in <= 0:
            return
        assert schmidt_leq(Ball((c,), r_in), Ball((F(0),), F(1)))


class TestSlabDistance:
    def test_axis_aligned_exact(self):
        slab = SlabConstraint((F(1), F(0)), F(0), F(1, 10))
        ball = Ball((F(1), F(0)), F(1, 2))
        # distance = |1 - 0| - 1/10 - 1/2 = 2/5, scaled by ||n|| = 1
        assert slab_ball_distance(ball, slab) == F(2, 5)

    def test_intersecting_is_zero(self):
        slab = SlabConstraint((F(1),), F(0), F(1, 4))
        assert slab_ball_distance(Ball((F(0),), F(1)), slab) == F(0)

    def test_margin_strictness(self):
        slab = SlabConstraint((F(1),), F(0), F(1, 10))
        ball = Ball((F(1),), F(1, 2))
        d = slab_ball_distance(ball, slab)
        assert slab_distance_exceeds(ball, slab, d - F(1, 1000))
        assert not slab_distance_exceeds(ball, slab, d)

    def test_unnormalized_normal(self):
        # scaling the normal and offset together leaves the slab unchanged
        s1 = SlabConstraint((F(2),), F(2), F(1, 5))
        s2 = SlabConstraint((F(1),), F(1), F(1, 10))
        ball = Ball((F(3),), F(1, 4))
        assert slab_distance_exceeds(ball, s1, F(1)) == slab_distance_exceeds(
            ball, s2, F(1)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            slab_ball_distance(
                Ball((F(0), F(0)), F(1)), SlabConstraint((F(1),), F(0), F(0))
            )

    @given(coords, coords)
    def test_disjoint_certificate_sound(self, c, off):
        ball = Ball((c,), F(1, 8))
        slab = SlabConstraint((F(1),), off, F(1, 8))
        if slab_distance_exceeds(ball, slab, F(0)):
            # every point of the ball is strictly off the slab
            for p in (c - F(1, 8), c, c + F(1, 8)):
                assert abs(p - off) > F(1, 8)


class TestPointOnSlabSide:
    def test_inside_and_outside(self):
        slab = SlabConstraint((F(1),), F(0), F(1, 4))
        # a point is the limit of small balls
        tiny = F(1, 10 ** 6)
        assert not slab_distance_exceeds(Ball((F(0),), tiny), slab, F(0))
        assert slab_distance_exceeds(Ball((F(1, 2),), tiny), slab, F(0))


class TestVectorHelpers:
    @given(st.lists(coords, min_size=1, max_size=3))
    def test_norm_interval_encloses(self, xs):
        v = tuple(xs)
        enc = sqrt_interval(norm2(v))
        assert enc.lo ** 2 <= norm2(v) <= enc.hi ** 2

    def test_dot_dist(self):
        assert dot((F(1), F(2)), (F(3), F(4))) == F(11)
        assert dist2((F(0), F(0)), (F(3), F(4))) == F(25)


class TestBallValidation:
    def test_nonpositive_radius_rejected(self):
        with pytest.raises(Exception):
            Ball((F(0),), F(0))
