"""Badly approximable affine forms.

The rational case is settled by a finite search for an integer vector u
with A^T u integral; the excluded set is then the hyperplane family
u.x in Z.  The irrational case builds the best-approximation denominator
sequence (continued fractions when n = m = 1, exhaustive successive
minima otherwise), thins it to ratio >= 3, and hands the resulting row
sequence with targets Z to the game engine.  bad_margin independently
certifies inf |q|^{m/n} d(Aq - x, Z^n) over a finite range of q, in
integer arithmetic over one common denominator of the entry enclosures
and x: exact for n = 1 with rational data and a point x, otherwise a lower
bound from the enclosures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .exact import Interval, frac, pow_interval, sqrt_interval
from .geometry import Ball, as_vec
from .matseq import LacunarityReport, MatrixSequence, analyze_lacunarity
from .targets import TargetFamily


class PrecisionError(RuntimeError):
    """An enclosure is too wide for the requested certification."""


# ---------------------------------------------------------------------------
# real algebraic numbers


def _poly_sign(p: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den), from the integer den^deg * p(num/den) (den > 0)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _taylor_shift(p: Sequence[int], a: int) -> Tuple[int, ...]:
    """Coefficients of p(y + a)."""
    out = list(p)
    n = len(out)
    # repeated synthetic division by (y - (-a)) accumulates the shifted coeffs
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return tuple(out)


@dataclass
class AlgebraicReal:
    """A real root of an integer polynomial, isolated by a rational interval.

    The endpoints carry opposite nonzero polynomial signs unless the number
    is exactly rational, in which case lo == hi.
    """

    poly: Tuple[int, ...]
    lo: Fraction
    hi: Fraction
    # sign of poly(lo); constant while [lo, hi] isolates the root, 0 once lo is it
    lo_sign: int = field(init=False, repr=False, compare=False)
    # the isolating interval as given, before any refinement
    origin: Tuple[Fraction, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.poly = tuple(int(c) for c in self.poly)
        self.lo, self.hi = frac(self.lo), frac(self.hi)
        if self.lo > self.hi:
            raise ValueError("inverted isolating interval")
        self.lo_sign = 0
        if self.lo != self.hi:
            slo = _poly_sign(self.poly, self.lo.numerator, self.lo.denominator)
            shi = _poly_sign(self.poly, self.hi.numerator, self.hi.denominator)
            if slo == 0:
                self.hi = self.lo
            elif shi == 0:
                self.lo = self.hi
            elif slo == shi:
                raise ValueError("interval does not isolate a sign change")
            else:
                self.lo_sign = slo
        self.origin = (self.lo, self.hi)

    @staticmethod
    def sqrt_of(n: int) -> "AlgebraicReal":
        if n <= 0:
            raise ValueError("need a positive radicand")
        r = math.isqrt(n)
        if r * r == n:
            return AlgebraicReal((-n, 0, 1), Fraction(r), Fraction(r))
        return AlgebraicReal((-n, 0, 1), Fraction(r), Fraction(r + 1))

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, max_width: Fraction) -> None:
        """Bisect until the width is <= max_width.

        The endpoints are kept as integers lo_n/d and hi_n/d over one
        denominator, which doubles at each step, so no Fraction is built
        until the end.
        """
        if self.hi - self.lo <= max_width:
            return
        d = math.lcm(self.lo.denominator, self.hi.denominator)
        lo_n = self.lo.numerator * (d // self.lo.denominator)
        hi_n = self.hi.numerator * (d // self.hi.denominator)
        # width (hi_n - lo_n)/d > max_width = wn/wd, cross-multiplied
        wn, wd = max_width.numerator, max_width.denominator
        while (hi_n - lo_n) * wd > wn * d:
            mid, d = lo_n + hi_n, 2 * d
            lo_n, hi_n = 2 * lo_n, 2 * hi_n
            s = _poly_sign(self.poly, mid, d)
            if s == 0:
                self.lo = self.hi = Fraction(mid, d)
                self.lo_sign = 0
                return
            if s == self.lo_sign:
                lo_n = mid
            else:
                hi_n = mid
        self.lo, self.hi = Fraction(lo_n, d), Fraction(hi_n, d)

    def interval(self, max_width: Optional[Fraction] = None) -> Interval:
        if max_width is not None:
            self.refine(max_width)
        return Interval(self.lo, self.hi)

    def _exclude_point(self, c: Fraction) -> None:
        """Shrink the interval so the rational c is no longer interior."""
        s = _poly_sign(self.poly, c.numerator, c.denominator)
        if s == 0:
            self.lo = self.hi = c
            self.lo_sign = 0
        elif s == self.lo_sign:
            self.lo = c
        else:
            self.hi = c

    def floor(self) -> int:
        if self.is_rational:
            return math.floor(self.lo)
        while math.floor(self.lo) != math.floor(self.hi) or self.hi == math.floor(
            self.hi
        ):
            c = Fraction(math.floor(self.hi))
            if c <= self.lo:
                c = Fraction(math.floor(self.lo) + 1)
            self._exclude_point(c)
            if self.is_rational:
                return math.floor(self.lo)
            self.refine(self.width() / 2)
        return math.floor(self.lo)

    def minus_int(self, a: int) -> "AlgebraicReal":
        return AlgebraicReal(_taylor_shift(self.poly, a), self.lo - a, self.hi - a)

    def inverse(self) -> "AlgebraicReal":
        while self.lo <= 0 <= self.hi:
            if self.is_rational:
                raise ZeroDivisionError("inverse of zero")
            self._exclude_point(Fraction(0))
            self.refine(self.width() / 2)
        p = list(self.poly)
        while p and p[0] == 0:
            p.pop(0)  # x = 0 is not our root; drop the factor
        rev = tuple(reversed(p))
        if self.is_rational:
            return AlgebraicReal(rev, 1 / self.lo, 1 / self.lo)
        return AlgebraicReal(rev, 1 / self.hi, 1 / self.lo)


Entry = Union[Fraction, AlgebraicReal]


def _entry_interval(e: Entry, max_width: Fraction) -> Interval:
    if isinstance(e, AlgebraicReal):
        return e.interval(max_width)
    q = frac(e)
    return Interval(q, q)


def continued_fraction(a: Union[Fraction, AlgebraicReal], count: int) -> List[int]:
    """First `count` partial quotients (fewer if the number is rational)."""
    out: List[int] = []
    if isinstance(a, Fraction) or isinstance(a, int):
        x = frac(a)
        for _ in range(count):
            fl = math.floor(x)
            out.append(fl)
            if x == fl:
                break
            x = 1 / (x - fl)
        return out
    x = AlgebraicReal(a.poly, a.lo, a.hi)
    for _ in range(count):
        fl = x.floor()
        out.append(fl)
        if x.is_rational and x.lo == fl:
            break
        x = x.minus_int(fl).inverse()
    return out


def convergent_denominators(quotients: Sequence[int]) -> List[int]:
    qs: List[int] = []
    q_prev, q = 1, 0
    for a in quotients:
        q_prev, q = q, a * q + q_prev
        qs.append(q)
    return qs


# ---------------------------------------------------------------------------
# affine systems


@dataclass
class AffineSystem:
    """The form x -> Aq - x with A an n x m matrix of exact entries."""

    entries: Tuple[Tuple[Entry, ...], ...]

    def __post_init__(self):
        rows = []
        for row in self.entries:
            rows.append(
                tuple(e if isinstance(e, AlgebraicReal) else frac(e) for e in row)
            )
        self.entries = tuple(rows)
        if not self.entries or not self.entries[0]:
            raise ValueError("empty matrix")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries[0])

    @property
    def is_rational(self) -> bool:
        return all(
            not isinstance(e, AlgebraicReal) or e.is_rational
            for row in self.entries
            for e in row
        )

    def rational_entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        assert self.is_rational
        return tuple(
            tuple(e.lo if isinstance(e, AlgebraicReal) else e for e in row)
            for row in self.entries
        )


def _shell(dim: int, r: int):
    """Integer vectors of sup-norm r >= 1, in lexicographic order."""
    if dim == 1:
        yield (-r,)
        yield (r,)
        return
    for c in range(-r, r + 1):
        if abs(c) == r:
            rests = itertools.product(range(-r, r + 1), repeat=dim - 1)
        else:
            rests = _shell(dim - 1, r)
        for rest in rests:
            yield (c,) + rest


def _int_vectors(dim: int, bound: int):
    """Nonzero integer vectors ordered by sup-norm shell, then lexicographic."""
    for r in range(1, bound + 1):
        yield from _shell(dim, r)


def rational_rank_check(A: AffineSystem, bound: int) -> Optional[Tuple[int, ...]]:
    """Smallest 0 != u in Z^n with ||u||_inf <= bound and A^T u in Z^m.

    Integrality is only certifiable from exact rational data; enclosure
    entries make the answer None.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not A.is_rational:
        return None
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


@dataclass(frozen=True)
class RationalCaseSet:
    """The excluded hyperplane family {x : u.x in Z} of the rational case."""

    u: Tuple[int, ...]
    separation: Interval  # 1/||u||

    def excluded(self, x) -> bool:
        x = as_vec(x)
        s = sum(frac(c) * xi for c, xi in zip(self.u, x))
        return s.denominator == 1

    def in_bad_set(self, x) -> bool:
        return not self.excluded(x)


def rational_case_set(A: AffineSystem, u: Sequence[int]) -> RationalCaseSet:
    u = tuple(int(c) for c in u)
    n2 = sum(c * c for c in u)
    if n2 == 0:
        raise ValueError("u must be nonzero")
    return RationalCaseSet(u=u, separation=sqrt_interval(Fraction(1, n2)))


# ---------------------------------------------------------------------------
# best approximations


@dataclass
class BestApproxSequence:
    vectors: List[Tuple[int, ...]]      # thinned, ratio >= thin_ratio
    errors: List[Interval]              # eta_k = d(A^T y_k, Z^m), certified
    report: LacunarityReport
    denominators: List[int] = field(default_factory=list)  # raw, before thinning

    def __post_init__(self):
        norms = [max(abs(c) for c in v) for v in self.vectors]
        assert all(a < b for a, b in zip(norms, norms[1:])), "norms must increase"
        for e1, e2 in zip(self.errors, self.errors[1:]):
            assert e2.hi < e1.lo, "errors must certifiably decrease"


def _dist_to_int_interval(iv: Interval) -> Interval:
    """Enclosure of d(t, Z) for t in iv."""
    if math.floor(iv.lo) != math.floor(iv.hi) or iv.lo == math.floor(iv.lo):
        lo = Fraction(0)
    else:
        fl = math.floor(iv.lo)
        lo = min(iv.lo - fl, fl + 1 - iv.hi)
        lo = max(Fraction(0), lo)
    mid_d = []
    for t in (iv.lo, iv.hi):
        fl = math.floor(t)
        mid_d.append(min(t - fl, fl + 1 - t))
    hi = max(max(mid_d), Fraction(0))
    hi = min(hi, Fraction(1, 2))
    if math.floor(2 * iv.lo) != math.floor(2 * iv.hi):
        hi = Fraction(1, 2)  # a half-integer may lie inside
    return Interval(lo, hi)


def _eta(A: AffineSystem, y: Sequence[int], width: Fraction) -> Interval:
    """Certified enclosure of d(A^T y, Z^m) (Euclidean over coordinates)."""
    total_lo = Fraction(0)
    total_hi = Fraction(0)
    for j in range(A.m):
        acc = Interval(Fraction(0), Fraction(0))
        for i in range(A.n):
            e = _entry_interval(A.entries[i][j], width)
            acc = acc + e * Interval(Fraction(y[i]), Fraction(y[i]))
        d = _dist_to_int_interval(acc)
        total_lo += d.lo * d.lo
        total_hi += d.hi * d.hi
    return Interval(sqrt_interval(total_lo).lo, sqrt_interval(total_hi).hi)


DEFAULT_THIN_RATIO = 3


def best_approx_sequence(
    A: AffineSystem,
    count: int,
    thin_ratio: int = DEFAULT_THIN_RATIO,
    search_bound: int = 2000,
) -> BestApproxSequence:
    """Best-approximation vectors, thinned so consecutive norms grow by
    >= thin_ratio; continued fractions when n = m = 1."""
    if rational_rank_check(A, 32) is not None:
        raise ValueError("rational system: use rational_case_set instead")
    if A.n == 1 and A.m == 1:
        entry = A.entries[0][0]
        quotients = continued_fraction(entry, 2 * count + 8)
        denoms = convergent_denominators(quotients)
        raw = [(q,) for q in denoms]
    else:
        raw = []
        best: Optional[Interval] = None
        width = Fraction(1, 10 ** 40)
        for u in _int_vectors(A.n, search_bound):
            if any(c < 0 for c in u) and tuple(-c for c in u) <= u:
                continue  # eta is even; keep one of each +-pair
            e = _eta(A, u, width)
            if best is None or e.hi < best.lo:
                raw.append(u)
                best = e
            if len(raw) >= 3 * count:
                break
        denoms = [max(abs(c) for c in u) for u in raw]
    width = Fraction(1, 10 ** 40)
    thin: List[Tuple[int, ...]] = []
    errors: List[Interval] = []
    last_norm = 0
    for y in raw:
        nrm = max(abs(c) for c in y)
        if nrm == 0 or (thin and nrm < thin_ratio * last_norm):
            continue
        e = _eta(A, y, width)
        if errors and not e.hi < errors[-1].lo:
            continue  # keep the certified strict decrease
        thin.append(tuple(y))
        errors.append(e)
        last_norm = nrm
        if len(thin) >= count:
            break
    if not thin:
        raise PrecisionError("no certifiable best approximations found")
    rows = MatrixSequence.rows([tuple(Fraction(c) for c in y) for y in thin])
    report = analyze_lacunarity(rows, horizon=len(thin))
    return BestApproxSequence(
        vectors=thin, errors=errors, report=report, denominators=denoms
    )


def bad_reduction(
    A: AffineSystem, seq: BestApproxSequence
) -> Tuple[MatrixSequence, TargetFamily]:
    """Package the game instance whose winning points lie in Bad_A."""
    if not seq.vectors:
        raise ValueError("empty best-approximation sequence")
    rows = MatrixSequence.rows(
        [tuple(Fraction(c) for c in y) for y in seq.vectors]
    )
    targets = TargetFamily.lattice([Fraction(0)])
    return rows, targets


# ---------------------------------------------------------------------------
# direct margin checking


def _as_point_intervals(x, n: int) -> List[Interval]:
    if isinstance(x, Ball):
        return [Interval(c - x.radius, c + x.radius) for c in x.center]
    if isinstance(x, Interval):
        return [x]
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], Interval):
        return list(x)
    v = as_vec(x if isinstance(x, (list, tuple)) else [x])
    return [Interval(c, c) for c in v]


ENTRY_WIDTH = Fraction(1, 2 ** 240)  # width of the entry enclosures bad_margin scans


def bad_margin(A, x, q_bound: int) -> Fraction:
    """Certified lower bound of
    min over 0 < ||q||_inf <= q_bound of ||q||^{m/n} * d(Aq - x, Z^n).

    A is an AffineSystem, a nested list of rows, or one scalar entry.
    Each algebraic entry is enclosed to width ENTRY_WIDTH by bisecting a
    copy of its original isolating interval, so the caller's object is
    left as it was and the result does not depend on its history.  Every
    endpoint, of the entries and of x, is written over one common integer
    denominator D, so Aq - x is an integer interval over D and its distance
    to Z^n an integer over D: the same bound the Interval arithmetic of
    _dist_to_int_interval gives, with no Interval built per q.  For n = 1
    the margin is an integer over D; it is exact when the data is rational
    and x a point.  For n >= 2 the Euclidean norm is bounded below by
    sqrt_interval.
    """
    if q_bound < 1:
        raise ValueError("q_bound must be >= 1")
    if not isinstance(A, AffineSystem):
        A = AffineSystem(tuple(map(tuple, A)) if isinstance(A, (list, tuple)) else ((A,),))
    n, m = A.n, A.m
    xs = _as_point_intervals(x, n)
    if len(xs) != n:
        raise ValueError("point dimension does not match the system")
    fresh = [
        [AlgebraicReal(e.poly, *e.origin) if isinstance(e, AlgebraicReal) else e for e in row]
        for row in A.entries
    ]
    cols = [[_entry_interval(fresh[i][j], ENTRY_WIDTH) for i in range(n)] for j in range(m)]
    D = math.lcm(
        *(v.denominator for iv in itertools.chain(xs, *cols) for v in (iv.lo, iv.hi))
    )

    def scaled(v: Fraction) -> int:
        return v.numerator * (D // v.denominator)

    # per coordinate i: -x_i as (lo, hi) and the (lo, hi) of each entry A_ij
    rows = [
        (
            -scaled(xs[i].hi),
            -scaled(xs[i].lo),
            [(scaled(col[i].lo), scaled(col[i].hi)) for col in cols],
        )
        for i in range(n)
    ]
    best = None
    weight_nrm, weight = 0, None
    for q in _int_vectors(m, q_bound):
        d2 = 0
        for lo, hi, entries in rows:
            for c, (elo, ehi) in zip(q, entries):
                if c > 0:
                    lo += c * elo
                    hi += c * ehi
                elif c < 0:
                    lo += c * ehi
                    hi += c * elo
            fl, r = divmod(lo, D)
            if r and hi // D == fl:
                dl = min(r, (fl + 1) * D - hi)
                d2 += dl * dl
        if d2 == 0:
            return Fraction(0)
        nrm = max(map(abs, q))
        if n == 1:
            # sqrt(dl^2) = dl, and the weight nrm^m is an integer
            val = nrm ** m * dl
        else:
            if nrm != weight_nrm:
                weight_nrm = nrm
                weight = pow_interval(Fraction(nrm), Fraction(m, n)).lo
            val = weight * sqrt_interval(Fraction(d2, D * D)).lo
        if best is None or val < best:
            best = val
    return Fraction(best, D) if n == 1 else best
