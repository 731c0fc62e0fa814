"""Badly approximable systems: algebraic reals, best approximations, margins."""

import itertools
import random
from fractions import Fraction as F

import pytest

from schmidtgame import badapprox
from schmidtgame.badapprox import (
    ENTRY_WIDTH,
    AffineSystem,
    AlgebraicReal,
    _as_point_intervals,
    _dist_to_int_interval,
    _entry_interval,
    _int_vectors,
    bad_margin,
    bad_reduction,
    best_approx_sequence,
    continued_fraction,
    convergent_denominators,
    rational_case_set,
    rational_rank_check,
)
from schmidtgame.exact import Interval, pow_interval, sqrt_interval
from schmidtgame.geometry import Ball
from schmidtgame.matseq import MatrixSequence
from schmidtgame.targets import TargetFamily


def sqrt2():
    return AlgebraicReal.sqrt_of(2)


class TestAlgebraicReal:
    def test_refine_narrows(self):
        enc = sqrt2().interval(F(1, 2 ** 40))
        assert enc.hi - enc.lo <= F(1, 2 ** 40)
        assert enc.lo ** 2 <= 2 <= enc.hi ** 2

    def test_floor(self):
        assert sqrt2().floor() == 1
        assert sqrt2().minus_int(2).floor() == -1

    def test_inverse(self):
        inv = sqrt2().inverse().interval(F(1, 2 ** 30))
        # 1/sqrt(2) = sqrt(2)/2
        mid = sqrt2().interval(F(1, 2 ** 30))
        assert inv.lo <= mid.hi / 2 and inv.hi >= mid.lo / 2

    def test_rational_collapse(self):
        # a rational isolating interval around 3/2 for 2x - 3
        a = AlgebraicReal((-3, 2), F(1), F(2))
        assert a.floor() == 1

    @pytest.mark.parametrize(
        "poly, lo, hi",
        [((-2, 0, 1), 1, 2), ((3, 0, -1), 1, 2), ((-2, 0, 0, 1), 1, 2), ((1, -5, 0, 1), 0, 1)],
    )
    def test_refine_matches_plain_bisection(self, poly, lo, hi):
        def value(x):
            return sum(c * x ** k for k, c in enumerate(poly))

        a = AlgebraicReal(poly, F(lo), F(hi))
        a.refine(F(1, 2 ** 80))
        rlo, rhi = F(lo), F(hi)
        while rhi - rlo > F(1, 2 ** 80):
            mid = (rlo + rhi) / 2
            if (value(mid) > 0) == (value(rlo) > 0):
                rlo = mid
            else:
                rhi = mid
        assert (a.lo, a.hi) == (rlo, rhi)

    def test_refine_hits_rational_root(self):
        # 4x^2 - 1 on [0, 1]: the first midpoint is the root 1/2
        a = AlgebraicReal((-1, 0, 4), F(0), F(1))
        a.refine(F(1, 2 ** 10))
        assert a.is_rational and a.lo == F(1, 2) and a.lo_sign == 0


class TestContinuedFraction:
    def test_sqrt2_quotients(self):
        assert continued_fraction(sqrt2(), 8) == [1, 2, 2, 2, 2, 2, 2, 2]

    def test_rational_quotients(self):
        assert continued_fraction(F(10, 7), 8) == [1, 2, 3]

    def test_convergent_denominators(self):
        assert convergent_denominators([1, 2, 2, 2, 2]) == [1, 2, 5, 12, 29]


class TestRationalRank:
    def test_half(self):
        A = AffineSystem(((F(1, 2),),))
        assert rational_rank_check(A, 100) == (2,)

    def test_two_column(self):
        A = AffineSystem(((F(1, 2), F(1, 3)),))
        assert rational_rank_check(A, 100) == (6,)

    def test_irrational_none(self):
        A = AffineSystem(((sqrt2(),),))
        assert rational_rank_check(A, 32) is None


class TestRationalCaseSet:
    def test_membership(self):
        A = AffineSystem(((F(1, 2),),))
        u = rational_rank_check(A, 100)
        case = rational_case_set(A, u)
        assert case.in_bad_set((F(1, 3),))
        assert not case.in_bad_set((F(1, 2),))
        assert not case.in_bad_set((F(0),))


class TestBadMargin:
    def test_exact_rational_value(self):
        A = AffineSystem(((F(1, 2),),))
        assert bad_margin(A, (F(1, 3),), 10 ** 4) == F(1, 6)

    def test_rational_zero_for_excluded_point(self):
        A = AffineSystem(((F(1, 2),),))
        assert bad_margin(A, (F(1, 2),), 100) == F(0)

    def test_bare_algebraic_entry(self):
        x = (F(1, 3),)
        assert bad_margin(AlgebraicReal.sqrt_of(2), x, 100) == bad_margin(
            [[AlgebraicReal.sqrt_of(2)]], x, 100
        )

    def test_independent_of_entry_history(self):
        a, b = AlgebraicReal.sqrt_of(2), AlgebraicReal.sqrt_of(2)
        b.refine(F(1, 2 ** 300))
        before = (b.lo, b.hi)
        margin_a = bad_margin([[a]], (F(1, 3),), 1000)
        margin_b = bad_margin([[b]], (F(1, 3),), 1000)
        assert isinstance(margin_a, F)
        assert margin_a == margin_b
        assert (b.lo, b.hi) == before
        assert (a.lo, a.hi) == (F(1), F(2))


class TestBestApproxSequence:
    def test_sqrt2_matches_cf_oracle(self):
        seq = best_approx_sequence(AffineSystem(((sqrt2(),),)), 9)
        assert seq.denominators[:7] == [1, 2, 5, 12, 29, 70, 169]
        assert [v[0] for v in seq.vectors] == [
            1,
            5,
            29,
            169,
            985,
            5741,
            33461,
            195025,
            1136689,
        ]

    def test_errors_decrease_norms_thin(self):
        seq = best_approx_sequence(AffineSystem(((sqrt2(),),)), 6)
        for i in range(1, len(seq.vectors)):
            assert abs(seq.vectors[i][0]) >= 3 * abs(seq.vectors[i - 1][0])
            assert seq.errors[i].hi < seq.errors[i - 1].lo

    def test_rational_input_rejected(self):
        with pytest.raises(ValueError):
            best_approx_sequence(AffineSystem(((F(1, 2),),)), 5)


class TestBadReduction:
    def test_shapes(self):
        A = AffineSystem(((sqrt2(),),))
        seq = best_approx_sequence(A, 5)
        mats, targets = bad_reduction(A, seq)
        assert isinstance(mats, MatrixSequence)
        assert mats.finite and len(mats) == 5
        assert isinstance(targets, TargetFamily)
        assert targets.delta > 0
        # row k is the k-th thinned best-approximation vector
        assert mats.matrix(1) == ((F(seq.vectors[0][0]),),)


class TestIntervalMargin:
    def test_sqrt2_point_positive(self):
        # 1/2 is badly approximable for A = sqrt(2) at small scales
        A = AffineSystem(((sqrt2(),),))
        m = bad_margin(A, (F(1, 2),), 50)
        assert m > 0


def _interval_margin(A, x, q_bound):
    """Reference: the per-q Interval scan that bad_margin's integer kernel
    replaced, with the same entry enclosures."""
    n, m = A.n, A.m
    xs = _as_point_intervals(x, n)
    cols = [[_entry_interval(A.entries[i][j], ENTRY_WIDTH) for i in range(n)] for j in range(m)]
    best = None
    for q in _int_vectors(m, q_bound):
        d2_lo = F(0)
        for i in range(n):
            acc = Interval(-xs[i].hi, -xs[i].lo)
            for j in range(m):
                if q[j]:
                    acc = acc + cols[j][i] * Interval(F(q[j]), F(q[j]))
            d = _dist_to_int_interval(acc)
            d2_lo += d.lo * d.lo
        weight = pow_interval(F(max(abs(c) for c in q)), F(m, n)).lo
        val = weight * sqrt_interval(d2_lo).lo
        if best is None or val < best:
            best = val
        if best == 0:
            break
    return best


def _seeded_system(rng, n, m):
    def entry():
        if rng.random() < 0.5:
            return F(rng.randint(-30, 30), rng.randint(1, 30))
        k = rng.choice([2, 3, 5, 6, 7, 10, 11])
        return AlgebraicReal.sqrt_of(k)

    A = AffineSystem(tuple(tuple(entry() for _ in range(m)) for _ in range(n)))
    c = tuple(F(rng.randint(-20, 20), rng.randint(1, 24)) for _ in range(n))
    x = Ball(c, F(1, rng.randint(10 ** 3, 10 ** 9))) if rng.random() < 0.4 else c
    q_bound = {1: rng.randint(50, 200), 2: rng.randint(5, 10), 3: rng.randint(3, 4)}[m]
    return A, x, q_bound


@pytest.mark.parametrize("dim, bound", [(1, 6), (2, 6), (3, 4), (4, 2)])
def test_int_vectors_order(dim, bound):
    # each shell is the sorted part of the cube [-r, r]^dim at sup-norm r
    expected = []
    for r in range(1, bound + 1):
        cube = itertools.product(range(-r, r + 1), repeat=dim)
        expected += sorted(v for v in cube if max(map(abs, v)) == r)
    assert list(_int_vectors(dim, bound)) == expected


class TestIntegerKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_interval_scan(self, n, m):
        rng = random.Random(f"bad_margin:{n}x{m}")
        for _ in range(2):
            A, x, q_bound = _seeded_system(rng, n, m)
            assert bad_margin(A, x, q_bound) == _interval_margin(A, x, q_bound)

    @pytest.mark.parametrize(
        "A, x, q_bound",
        [
            # zero margins: x in the excluded set
            (AffineSystem(((F(1, 2),),)), (F(1, 2),), 100),
            (AffineSystem(((F(1, 3), F(2, 5)), (F(1, 2), F(0)))), (F(1, 3), F(1, 2)), 6),
            # Aq - x starts exactly on an integer but is not a point: the
            # margin is 0 only through such q: [0, 1/3] at q = 1, and
            # [0, 3/2] and [1, 5/2] at q = -1, 1
            (AffineSystem(((F(1, 3),),)), Ball((F(1, 6),), F(1, 6)), 2),
            (AffineSystem(((F(1, 2),),)), Ball((F(-5, 4),), F(3, 4)), 1),
            (AffineSystem(((F(1, 2),),)), Ball((F(1, 4),), F(1, 8)), 50),
            # negative q: the first hits -2/7 - 5/7 = -1; the others need the endpoint swap
            (AffineSystem(((F(2, 7),),)), (F(5, 7),), 3),
            (AffineSystem(((AlgebraicReal.sqrt_of(2),),)), Ball((F(-3, 7),), F(1, 10 ** 6)), 200),
            (AffineSystem(((AlgebraicReal.sqrt_of(3), F(-1, 4)), (F(2, 9), AlgebraicReal.sqrt_of(5)))), (F(-1, 3), F(1, 7)), 8),
            # a single shell
            (AffineSystem(((AlgebraicReal.sqrt_of(2),),)), (F(1, 3),), 1),
            (AffineSystem(((F(1, 3), F(1, 5), F(1, 7)),)), (F(1, 2),), 1),
        ],
    )
    def test_edge_cases_match_interval_scan(self, A, x, q_bound):
        assert bad_margin(A, x, q_bound) == _interval_margin(A, x, q_bound)

    def test_zero_and_single_shell_values(self):
        # q = -1: -2/7 - 5/7 = -1 is an integer
        assert bad_margin(AffineSystem(((F(2, 7),),)), (F(5, 7),), 3) == 0
        # q = +-1: d(1/2 - 1/3, Z) = d(-1/2 - 1/3, Z) = 1/6
        assert bad_margin(AffineSystem(((F(1, 2),),)), (F(1, 3),), 1) == F(1, 6)
        # q = 1: 1/3 - [0, 1/3] = [0, 1/3] contains 0; q = -1, +-2 stay 1/3 away
        assert bad_margin(AffineSystem(((F(1, 3),),)), Ball((F(1, 6),), F(1, 6)), 2) == 0

    def test_builds_no_interval_per_q(self, monkeypatch):
        created, roots = [], []
        post_init = Interval.__post_init__

        def counting_post_init(self):
            created.append(1)
            post_init(self)

        def counting_sqrt(*args, **kwargs):
            roots.append(1)
            return sqrt_interval(*args, **kwargs)

        monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
        monkeypatch.setattr(badapprox, "sqrt_interval", counting_sqrt)
        A = AffineSystem(((sqrt2(),),))
        assert bad_margin(A, (F(1, 3),), 10 ** 4) > 0
        assert len(created) <= 10
        assert len(roots) <= 1
