"""Badly approximable systems: algebraic reals, best approximations, margins."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from schmidtgame import badapprox
from schmidtgame.badapprox import (
    ENTRY_WIDTH,
    AffineSystem,
    AlgebraicReal,
    _as_point_intervals,
    _entry_interval,
    _eta,
    _first_hit,
    _frame,
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

    @pytest.mark.parametrize(
        "poly, lo, hi, root",
        [((-4, 0, 1), 1, 3, 2), ((-2, 1), 1, 3, 2), ((-3, 2), 1, 2, F(3, 2)), ((-2, -4, 3, 6, 0), F(-3, 5), 0, F(-1, 2))],
    )
    def test_interior_rational_root_collapses(self, poly, lo, hi, root):
        a = AlgebraicReal(poly, F(lo), F(hi))
        assert a.is_rational and (a.lo, a.hi, a.origin) == (root, root, (root, root))
        assert continued_fraction(a, 5) == continued_fraction(F(root), 5)

    def test_irrational_interval_kept(self):
        a = AlgebraicReal((-2, 0, 0, 1), F(-3), F(5))
        assert not a.is_rational and (a.lo, a.hi, a.origin) == (-3, 5, (-3, 5))

    @pytest.mark.parametrize("poly, lo, hi", [((), 1, 3), ((0, 0), 1, 3), ((-2, 0, 1), 1, 1)])
    def test_rejects_non_numbers(self, poly, lo, hi):
        with pytest.raises(ValueError):
            AlgebraicReal(poly, F(lo), F(hi))

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
        assert continued_fraction(F(-7, 3), 8) == [-3, 1, 2]
        assert continued_fraction(5, 8) == [5]

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


def _scan_rank_check(A, bound):
    """The reference: every integer vector by sup-norm shell, then
    lexicographic, with Fraction sums; the first hit, signed so that its
    first nonzero entry is positive."""
    rat = A.rational_entries()
    for u in _int_vectors(A.n, bound):
        good = True
        for j in range(A.m):
            s = sum(rat[i][j] * u[i] for i in range(A.n))
            if s.denominator != 1:
                good = False
                break
        if good:
            if next((c for c in u if c != 0), 0) < 0:
                u = tuple(-c for c in u)
            return u
    return None


_P = 10 ** 12 + 39  # a prime: over it the echelon basis has one large pivot


def _seeded_rational(rng, n, m):
    den = rng.choice([1, 2, 3, 4, 6, 7, 10, 12, 30, 97, _P])
    rows = []
    for _ in range(n):
        if rng.random() < 0.1:
            rows.append((F(0),) * m)  # a zero row: u = e_i
        elif rows and rng.random() < 0.1:
            rows.append(tuple(-e for e in rng.choice(rows)))  # a negated row: u = e_i + e_j
        elif den == _P:
            rows.append(tuple(F(rng.randint(-2 * den, 2 * den), den) for _ in range(m)))
        else:
            rows.append(tuple(F(rng.randint(-2 * den, 2 * den), rng.randint(1, den)) for _ in range(m)))
    return AffineSystem(tuple(rows))


class TestLatticeRankCheck:
    """rational_rank_check walks an echelon basis of {u : A^T u in Z^m}; it
    must return what the scan of every integer vector returns."""

    def test_matches_scan(self):
        rng = random.Random("rational_rank_check")
        seen = {"none": 0, "integer": 0, "zero_row": 0, "negative": 0, "large_pivot": 0}
        for trial in range(3000):
            n, m = 1 + trial % 4, rng.randint(1, 3)
            # the scan visits (2 bound + 1)^n vectors when there is no u
            bound = rng.randint(1, (30, 20, 5, 3)[n - 1])
            A = _seeded_rational(rng, n, m)
            expect = _scan_rank_check(A, bound)
            assert rational_rank_check(A, bound) == expect, (A.entries, bound)
            rat = A.rational_entries()
            seen["none"] += expect is None
            seen["integer"] += all(e.denominator == 1 for row in rat for e in row)
            seen["zero_row"] += any(not any(row) for row in rat)
            seen["negative"] += any(e < 0 for row in rat for e in row)
            seen["large_pivot"] += any(e.denominator == _P for row in rat for e in row)
        assert min(seen.values()) >= 50, seen

    def test_short_u_beside_large_pivot(self):
        # a zero or negated row gives a u of sup-norm 1, so the scan stops at
        # shell 1 even at bound 100; a walk of the whole box [-100, 100]^n
        # would visit about 100 * 201^(n-2) nodes over the pivot p
        rng = random.Random("short u, large pivot")
        t0 = time.perf_counter()
        for trial in range(400):
            n, m = 2 + trial % 4, rng.randint(1, 3)
            rows = [tuple(F(rng.randint(-2 * _P, 2 * _P), _P) for _ in range(m)) for _ in range(n - 1)]
            i = rng.randrange(n)
            rows.insert(i, (F(0),) * m if trial % 8 < 4 else tuple(-e for e in rows[i - 1]))
            A = AffineSystem(tuple(rows))
            expect = _scan_rank_check(A, 100)
            assert expect is not None and max(map(abs, expect)) == 1
            assert rational_rank_check(A, 100) == expect, (A.entries,)
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize(
        "column, u",
        [
            ((1, 0, 123457, 98765431), (0, 1, 0, 0)),
            ((1, 0, 123457, 98765431, 55555333331), (0, 1, 0, 0, 0)),
        ],
        ids=["4x1", "5x1"],
    )
    def test_zero_row_over_large_pivot(self, column, u):
        A = AffineSystem(tuple((F(a, _P),) for a in column))
        t0 = time.perf_counter()
        assert rational_rank_check(A, 100) == u
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize(
        "column",
        [
            (F(1, 101), F(1, 103), F(1, 107)),
            (F(1, 201), F(1, 201 ** 2), F(1, 201 ** 3)),
        ],
        ids=["three_primes", "powers_of_201"],
    )
    def test_no_small_u_answers_fast(self, column):
        # the scan would visit 201^3 = 8.1M vectors before saying None
        A = AffineSystem(tuple((a,) for a in column))
        t0 = time.perf_counter()
        assert rational_rank_check(A, 100) is None
        assert time.perf_counter() - t0 < 5


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

    def test_rational_beyond_rank_32_rejected(self):
        # the least u of 1/70 is 70: rejected by A.is_rational, not by a search
        with pytest.raises(ValueError):
            best_approx_sequence(AffineSystem(((F(1, 70),),)), 5)

    @pytest.mark.parametrize(
        "shape, vectors, denominators, errors_sha256",
        [
            (
                "1x2",
                [(-1,), (-3,), (-19,)],
                [1, 3, 7, 19, 22, 34, 41, 1183, 1463],
                "4dd61f2aa493d4f65e5198d4e45f285049c43ffffec7bca5dd98ce361b19ec8f",
            ),
            (
                "2x1",
                [(-1, -1), (-3, -1), (-16, -21)],
                [1, 2, 2, 3, 3, 5, 21, 25, 35],
                "0f7a396ee22181bb717a6555c95fe0300a67f2e0bf16c4e35f411d49efdbb85a",
            ),
        ],
    )
    def test_sqrt2_sqrt3_pinned(self, shape, vectors, denominators, errors_sha256):
        # (sqrt 2, sqrt 3) as a row and as a column; the pins are the values
        # of the Interval-arithmetic eta that the integer kernel replaced
        s2, s3 = AlgebraicReal.sqrt_of(2), AlgebraicReal.sqrt_of(3)
        A = AffineSystem(((s2, s3),) if shape == "1x2" else ((s2,), (s3,)))
        seq = best_approx_sequence(A, 3)
        assert seq.vectors == vectors and seq.denominators == denominators
        text = "\n".join(f"{e.lo} {e.hi}" for e in seq.errors)
        assert hashlib.sha256(text.encode()).hexdigest() == errors_sha256


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


def _dist_to_int_interval(iv):
    """Reference: an enclosure of d(t, Z) for t in iv, in Interval arithmetic."""
    if math.floor(iv.lo) != math.floor(iv.hi) or iv.lo == math.floor(iv.lo):
        lo = F(0)
    else:
        fl = math.floor(iv.lo)
        lo = min(iv.lo - fl, fl + 1 - iv.hi)
        lo = max(F(0), lo)
    mid_d = []
    for t in (iv.lo, iv.hi):
        fl = math.floor(t)
        mid_d.append(min(t - fl, fl + 1 - t))
    hi = max(max(mid_d), F(0))
    hi = min(hi, F(1, 2))
    if math.floor(2 * iv.lo) != math.floor(2 * iv.hi):
        hi = F(1, 2)  # a half-integer may lie inside
    return Interval(lo, hi)


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


def _integer_scan_1x1(A, x, q_bound):
    """Reference: the integer scan over every 0 < |q| <= q_bound that
    bad_margin's 1x1 record walk replaced, with the same enclosures and D."""
    (e,), = A.entries
    xs = _as_point_intervals(x, 1)[0]
    if isinstance(e, AlgebraicReal):
        e = AlgebraicReal(e.poly, *e.origin)
    iv = _entry_interval(e, ENTRY_WIDTH)
    D = math.lcm(*(v.denominator for v in (xs.lo, xs.hi, iv.lo, iv.hi)))
    elo, ehi, xlo, xhi = (v.numerator * (D // v.denominator) for v in (iv.lo, iv.hi, xs.lo, xs.hi))
    best = None
    for (c,) in _int_vectors(1, q_bound):
        lo, hi = -xhi, -xlo
        if c > 0:
            lo += c * elo
            hi += c * ehi
        else:
            lo += c * ehi
            hi += c * elo
        fl, r = divmod(lo, D)
        if not (r and hi // D == fl):
            return F(0)
        dl = min(r, (fl + 1) * D - hi)
        if best is None or abs(c) * dl < best:
            best = abs(c) * dl
    return F(best, D)


def _seeded_1x1(rng):
    """A 1x1 system and x: rational, integer, sqrt(n) and negative
    irrational entries; points, thin and wide balls; zeros planted."""
    kind = rng.randrange(4)
    if kind == 0:
        a = F(rng.randint(-40, 40), rng.randint(1, 40))
    elif kind == 1:
        a = F(rng.randint(-3, 3))
    else:
        n = rng.choice([2, 3, 5, 7, 10, 13, 99, 101])
        r = math.isqrt(n)
        a = AlgebraicReal.sqrt_of(n) if kind == 2 else AlgebraicReal((-n, 0, 1), F(-r - 1), F(-r))
    q_bound = rng.choice([1, 2, rng.randint(3, 40), rng.randint(40, 300)])
    if kind < 2 and rng.random() < 0.3:
        c = a * rng.randint(-q_bound, q_bound) + rng.randint(-2, 2)  # in the excluded set
    else:
        c = F(rng.randint(-20, 20), rng.randint(1, 30))
    radius = rng.choice([None, None, F(1, rng.randint(10, 10 ** 6)), F(rng.randint(1, 30), 20)])
    x = (c,) if radius is None else Ball((c,), radius)
    return AffineSystem(((a,),)), x, q_bound


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
            # 1x1: integer and negative entries, x wider than 1, a zero late in the range
            (AffineSystem(((F(-3),),)), (F(2, 5),), 40),
            (AffineSystem(((AlgebraicReal((-7, 0, 1), F(-3), F(-2)),),)), Ball((F(1, 4),), F(1, 10 ** 4)), 150),
            (AffineSystem(((AlgebraicReal.sqrt_of(5),),)), Ball((F(1, 3),), F(3, 4)), 5),
            (AffineSystem(((F(1, 197),),)), (F(100, 197),), 200),
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

    def test_first_hit_matches_brute_force(self):
        rng = random.Random("first_hit")
        for _ in range(3000):
            D = rng.randint(1, 80)
            a = D * rng.randint(-2, 2) if rng.random() < 0.1 else rng.randint(-200, 200)
            L = 0 if rng.random() < 0.2 else rng.randint(0, D - 1)
            R = rng.randint(L, D - 1)
            c = rng.randint(-200, 200)
            # (c + a*s) mod D has period dividing D in s
            hits = [s for s in range(1, D + 1) if L <= (c + a * s) % D <= R]
            assert _first_hit(c, a, D, L, R) == (hits[0] if hits else None)

    def test_walk_matches_integer_scan(self):
        rng = random.Random("bad_margin:walk")
        zeros = 0
        for _ in range(150):
            A, x, q_bound = _seeded_1x1(rng)
            margin = bad_margin(A, x, q_bound)
            assert margin == _integer_scan_1x1(A, x, q_bound)
            zeros += margin == 0
        assert zeros >= 10

    def test_walk_is_logarithmic_in_q_bound(self, monkeypatch):
        calls = []

        def counting_first_hit(*args):
            calls.append(1)
            return _first_hit(*args)

        A, x = AffineSystem(((sqrt2(),),)), (F(1, 3),)
        at_10_4 = bad_margin(A, x, 10 ** 4)
        monkeypatch.setattr(badapprox, "_first_hit", counting_first_hit)
        at_10_12 = bad_margin(A, x, 10 ** 12)
        assert 0 < at_10_12 <= at_10_4
        assert len(calls) <= 200

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


def _interval_eta(cols, y):
    """Reference: d(A^T y, Z^m) as _eta computed it in Interval arithmetic,
    cols[j] the Interval enclosures of column j of A."""
    total_lo = total_hi = F(0)
    for col in cols:
        acc = Interval(F(0), F(0))
        for e, c in zip(col, y):
            acc = acc + e * Interval(F(c), F(c))
        d = _dist_to_int_interval(acc)
        total_lo += d.lo * d.lo
        total_hi += d.hi * d.hi
    return Interval(sqrt_interval(total_lo).lo, sqrt_interval(total_hi).hi)


class TestEta:
    @staticmethod
    def _columns(rng, n, m):
        """n x m entry enclosures: points and short intervals over small,
        often odd, denominators, so sums land on integers and half-integers;
        some entries are sqrt(k) enclosures."""
        def entry():
            if rng.random() < 0.15:
                return AlgebraicReal.sqrt_of(rng.choice([2, 3, 5])).interval(F(1, 2 ** 60))
            den = rng.choice([1, 2, 3, 5, 6, 7, 9])
            lo = F(rng.randint(-4 * den, 4 * den), den)
            return Interval(lo, lo + F(rng.choice([0, 0, 1, 2]), den * rng.choice([1, 3])))

        return [[entry() for _ in range(n)] for _ in range(m)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_interval_reference(self, m):
        rng = random.Random(f"eta:{m}")
        seen = {"integer end": 0, "half-integer inside": 0, "odd D": 0, "negative sum": 0}
        for _ in range(400):
            n = rng.randint(1, 3)
            cols = self._columns(rng, n, m)
            y = [rng.randint(-6, 6) for _ in range(n)]
            ends, D = _frame([e for col in cols for e in col])
            got = _eta([ends[j * n:(j + 1) * n] for j in range(m)], D, y)
            assert got == _interval_eta(cols, y)
            seen["odd D"] += D % 2
            for col in cols:
                acc = sum((e * Interval(F(c), F(c)) for e, c in zip(col, y)), Interval(F(0), F(0)))
                seen["integer end"] += any(v.denominator == 1 for v in (acc.lo, acc.hi))
                seen["half-integer inside"] += math.floor(2 * acc.lo) != math.floor(2 * acc.hi)
                seen["negative sum"] += acc.hi < 0
        assert min(seen.values()) >= 20, seen

    def test_one_eta_builds_at_most_three_intervals(self, monkeypatch):
        created = []
        post_init = Interval.__post_init__

        def counting_post_init(self):
            created.append(1)
            post_init(self)

        s2, s3 = AlgebraicReal.sqrt_of(2), AlgebraicReal.sqrt_of(3)
        ends, D = _frame([s2.interval(F(1, 10 ** 40)), s3.interval(F(1, 10 ** 40))])
        monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
        for cols in ([ends], [ends[:1], ends[1:]]):
            for y in ([7, -3], [19]):
                created.clear()
                _eta(cols, D, y[: len(cols[0])])
                assert len(created) <= 3
