"""Exact ball containment and slab-distance predicates."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtgame.exact import sqrt_interval
from schmidtgame.geometry import (
    Ball,
    DimensionMismatch,
    SlabConstraint,
    as_vec,
    dist2,
    dot,
    norm2,
    over_common_den,
    schmidt_leq,
    slab_ball_distance,
    slab_distance_exceeds,
    within,
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


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction versions they replaced


def ref_dot(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), F(0))


def ref_dist2(a, b):
    d = tuple(x - y for x, y in zip(a, b))
    return ref_dot(d, d)


def ref_schmidt_leq(inner, outer):
    if inner.dim != outer.dim:
        raise DimensionMismatch(f"{inner.dim} vs {outer.dim}")
    slack = outer.radius - inner.radius
    if slack < 0:
        return False
    return slack * slack >= ref_dist2(inner.center, outer.center)


def ref_slab_distance_exceeds(ball, slab, margin):
    if ball.dim != slab.dim:
        raise DimensionMismatch(f"{ball.dim} vs {slab.dim}")
    margin = F(margin)
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    t = abs(ref_dot(slab.normal, ball.center) - slab.offset)
    rhs = margin + slab.halfwidth + ball.radius
    return t * t > rhs * rhs * ref_dot(slab.normal, slab.normal)


_DENOMINATORS = (1, 2, 3, 6, 1000, 3 ** 40, 2 ** 64 + 13, 7 ** 90, 2 ** 300)


def _rational(rng, scale=3):
    """An int or a Fraction of either sign, denominators up to 2^300."""
    if rng.random() < 0.2:
        return rng.randint(-scale, scale)
    den = rng.choice(_DENOMINATORS + (rng.randint(1, 2 ** rng.choice((8, 64, 300))),))
    return F(rng.randint(-scale * den, scale * den), den)


def _positive(rng):
    x = abs(F(_rational(rng, 1)))
    return x if x > 0 else F(1, rng.choice(_DENOMINATORS))


def _vector(rng, n, scale=3):
    return tuple(_rational(rng, scale) for _ in range(n))


# rational unit vectors, so a tangency or a touching slab is an exact tie
UNIT = {
    1: [(F(1),), (F(-1),)],
    2: [(F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(0), F(-1))],
    3: [(F(2, 3), F(1, 3), F(2, 3)), (F(-2, 7), F(3, 7), F(6, 7))],
    4: [(F(1, 2), F(1, 2), F(-1, 2), F(1, 2)), (F(0), F(0), F(-3, 5), F(4, 5))],
}


class TestKernelsAgainstFractionReferences:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seeded_cases(self, n):
        rng = random.Random(f"kernels:{n}")
        for _ in range(300):
            a, b = _vector(rng, n), _vector(rng, n)
            assert dot(a, b) == ref_dot(a, b)
            assert dist2(a, b) == ref_dist2(a, b)
            assert norm2(a) == ref_dot(a, a)
            # the outer ball is sometimes much larger, so both answers occur
            outer = Ball(a, _positive(rng) * rng.choice((1, 10)))
            inner = Ball(_vector(rng, n, 1) if rng.random() < 0.5 else a, _positive(rng))
            assert schmidt_leq(inner, outer) == ref_schmidt_leq(inner, outer)
            assert schmidt_leq(outer, inner) == ref_schmidt_leq(outer, inner)
            normal = _vector(rng, n)
            if all(x == 0 for x in normal):
                normal = UNIT[n][0]
            slab = SlabConstraint(normal, _rational(rng), abs(F(_rational(rng, 1))))
            margin = rng.choice((0, F(0), abs(F(_rational(rng, 1)))))
            ball = Ball(b, _positive(rng))
            assert slab_distance_exceeds(ball, slab, margin) == ref_slab_distance_exceeds(
                ball, slab, margin
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_internally_tangent_balls(self, n):
        # |inner center - outer center| = R - r exactly: slack^2 == dist^2
        rng = random.Random(f"tangent:{n}")
        for _ in range(40):
            c, u = _vector(rng, n), rng.choice(UNIT[n])
            R = _positive(rng) + 1
            r = R * rng.choice((F(1, 3), F(1, 2), F(999, 1000)))
            inner = Ball(tuple(ci + (R - r) * ui for ci, ui in zip(c, u)), r)
            outer = Ball(c, R)
            assert ref_dist2(inner.center, outer.center) == (R - r) ** 2
            assert schmidt_leq(inner, outer) and ref_schmidt_leq(inner, outer)
            # a hair further out is not contained
            eps = F(1, 2 ** 300)
            beyond = Ball(tuple(x + eps * ui for x, ui in zip(inner.center, u)), r)
            assert not schmidt_leq(beyond, outer) and not ref_schmidt_leq(beyond, outer)
            # equal balls: zero slack and zero distance
            assert schmidt_leq(outer, outer) and ref_schmidt_leq(outer, outer)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ball_touching_slab(self, n):
        # the ball sits at distance exactly m from the slab, for m = 0 and m > 0
        rng = random.Random(f"touch:{n}")
        for _ in range(40):
            u = rng.choice(UNIT[n])
            s = rng.choice((1, 2, 7, F(3, 2)))  # scales the normal and offset together
            offset, hw, r = _rational(rng), abs(F(_rational(rng, 1))), _positive(rng)
            slab = SlabConstraint(tuple(s * ui for ui in u), s * offset, hw)
            for m in (F(0), _positive(rng)):
                # u.x - offset = +-(hw + r + m) on either side of the slab
                side = rng.choice((1, -1))
                center = tuple((offset + side * (hw + r + m)) * ui for ui in u)
                ball = Ball(center, r)
                assert abs(ref_dot(u, center) - offset) == hw + r + m
                for margin in (m, m - F(1, 2 ** 200)):
                    if margin < 0:
                        continue
                    want = margin < m
                    assert slab_distance_exceeds(ball, slab, margin) is want
                    assert ref_slab_distance_exceeds(ball, slab, margin) is want
                assert slab_ball_distance(ball, slab) == m

    def test_errors_still_raised(self):
        one, two = (F(0),), (F(0), F(0))
        with pytest.raises(DimensionMismatch):
            dot(one, two)
        with pytest.raises(DimensionMismatch):
            dist2(one, two)
        with pytest.raises(DimensionMismatch):
            schmidt_leq(Ball(one, 1), Ball(two, 2))
        slab = SlabConstraint((F(1),), 0, 0)
        with pytest.raises(DimensionMismatch):
            slab_distance_exceeds(Ball(two, 1), slab, 0)
        with pytest.raises(DimensionMismatch):
            slab_ball_distance(Ball(two, 1), slab)
        with pytest.raises(ValueError, match="margin must be nonnegative"):
            slab_distance_exceeds(Ball(one, 1), slab, F(-1, 2 ** 300))
        with pytest.raises(ValueError, match="ball radius must be positive"):
            Ball(one, F(-1, 3))
        with pytest.raises(ValueError, match="slab normal must be nonzero"):
            SlabConstraint((F(0), 0), 1, 1)
        with pytest.raises(ValueError, match="slab halfwidth must be nonnegative"):
            SlabConstraint((F(1),), 0, F(-1, 7))

    def test_common_denominator(self):
        assert over_common_den((F(1, 2), F(-1, 3), 2)) == ((3, -2, 12), 6)
        assert over_common_den(()) == ((), 1)
        assert within((4, 9), F(4, 9)) and not within((5, 9), F(4, 9))

    def test_values_are_fractions_in_lowest_terms(self):
        for v in (dot((F(1, 2), 2), (F(2, 3), F(1, 4))), dist2((F(1, 6),), (F(1, 2),))):
            assert type(v) is F and v == F(v.numerator, v.denominator)
        assert dist2((F(1, 6),), (F(1, 2),)) == F(1, 9)
        # an already exact Fraction is kept, not rebuilt
        x = F(5, 7)
        assert Ball((x,), x).center[0] is x and as_vec([x])[0] is x
