"""Badly approximable affine forms.

The rational case is settled on an echelon basis of the lattice of u in
Z^n with A^T u integral; the excluded set is then the hyperplane family
u.x in Z.  The irrational case builds the best-approximation denominator
sequence (continued fractions when n = m = 1, exhaustive successive
minima otherwise), thins it to ratio >= 3, and hands the resulting row
sequence with targets Z to the game engine.  bad_margin independently
certifies inf |q|^{m/n} d(Aq - x, Z^n) over a finite range of q: exact for
n = 1 with rational data and a point x, otherwise a lower bound from the
enclosures; for n = m = 1 it visits only the record lows of the distance
to Z, not every q.  Both the errors eta_k of the best approximations and
bad_margin read distances to Z in integers: every enclosure goes over one
common denominator (_frame), and _dist_num does the rest.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .exact import Interval, frac, pow_interval, sqrt_interval
from .geometry import Ball, as_vec, over_common_den
from .matseq import MatrixSequence
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
    is rational: that is decided at construction, and then lo == hi.
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
        if not any(self.poly):
            raise ValueError("the zero polynomial does not define a number")
        self.lo, self.hi = frac(self.lo), frac(self.hi)
        if self.lo > self.hi:
            raise ValueError("inverted isolating interval")
        self.lo_sign = 0
        slo = _poly_sign(self.poly, self.lo.numerator, self.lo.denominator)
        shi = _poly_sign(self.poly, self.hi.numerator, self.hi.denominator)
        if slo == 0:
            self.hi = self.lo
        elif shi == 0:
            self.lo = self.hi
        elif slo == shi:  # also lo == hi at a non-root
            raise ValueError("interval does not isolate a sign change")
        else:
            self.lo_sign = slo
            # a rational root is some k/|a_n|, a_n the leading coefficient; on
            # a copy narrower than 1/|a_n| one exact sign at k/|a_n| decides it
            lead = abs(next(c for c in reversed(self.poly) if c))
            probe = copy.copy(self)
            probe.refine(Fraction(1, 2 * lead))
            c = Fraction(math.floor(probe.lo * lead) + 1, lead)
            if c < probe.hi:
                probe._exclude_point(c)
            if probe.is_rational:
                self.lo = self.hi = probe.lo
                self.lo_sign = 0
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
        (lo_n, hi_n), d = over_common_den((self.lo, self.hi))
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
    """First `count` partial quotients (fewer if the number is rational);
    a rational p/q runs as the root of q*x - p."""
    out: List[int] = []
    if isinstance(a, AlgebraicReal):
        x = AlgebraicReal(a.poly, a.lo, a.hi)
    else:
        a = frac(a)
        x = AlgebraicReal((-a.numerator, a.denominator), a, a)
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


def _lex_first(H, r: int, k: int, s: List[int]) -> Optional[Tuple[int, ...]]:
    """The lexicographically first point in [-r, r]^n of the lattice with upper
    triangular basis H that agrees with s before coordinate k, or None."""
    if k == len(H):
        return tuple(s)
    for c in range(-((r + s[k]) // H[k][k]), (r - s[k]) // H[k][k] + 1):
        u = _lex_first(H, r, k + 1, [a + c * b for a, b in zip(s, H[k])])
        if u is not None:
            return u
    return None


def rational_rank_check(A: AffineSystem, bound: int) -> Optional[Tuple[int, ...]]:
    """Smallest 0 != u in Z^n with ||u||_inf <= bound and A^T u in Z^m: least
    sup-norm, then lexicographically first up to sign, first nonzero entry > 0.

    With N = D A over the common denominator D, the echelon form of the rows
    (N_i | e_i), (D e_j | 0) ends in n rows that vanish on the first m columns
    and there span the lattice L of such u.  As L = -L, the lexicographically
    first point of L in a box is negative exactly when the box holds a nonzero
    point.  Doubling the box's radius, then bisecting the last step, finds the
    least sup-norm, so no walk looks past radius 2 ||u||_inf.

    Integrality is only certifiable from exact rational data; enclosure
    entries make the answer None.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not A.is_rational:
        return None
    n, m = A.n, A.m
    N, D = over_common_den([e for row in A.rational_entries() for e in row])
    rows = [list(N[i * m:(i + 1) * m]) + [int(i == k) for k in range(n)] for i in range(n)]
    rows += [[D * (j == k) for k in range(m)] + [0] * n for j in range(m)]
    for c in range(n + m):
        for i in range(c + 1, n + m):
            while rows[i][c]:  # Euclid on rows c and i: unimodular
                q = rows[c][c] // rows[i][c]
                rows[c], rows[i] = rows[i], [a - q * b for a, b in zip(rows[c], rows[i])]
        if rows[c][c] < 0:  # the walk needs a positive diagonal
            rows[c] = [-a for a in rows[c]]
    H = [row[m:] for row in rows[m:]]
    lo, hi, u = 0, 0, (0,) * n  # only 0 lies in [-lo, lo]^n; u is the walk at hi
    while hi - lo > 1 if any(u) else hi < bound:  # double the radius, then bisect
        r = (lo + hi) // 2 if any(u) else min(max(2 * hi, 1), bound)
        v = _lex_first(H, r, 0, [0] * n)
        lo, hi, u = (lo, r, v) if any(v) else (r, max(r, hi), u)
    return tuple(-c for c in u) if any(u) else None


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
# distances to Z, in integers over one common denominator


def _frame(ivs: Sequence[Interval]) -> Tuple[List[Tuple[int, int]], int]:
    """Each interval's (lo, hi) as integer numerators over one common
    denominator D, with D."""
    ends, D = over_common_den([v for iv in ivs for v in (iv.lo, iv.hi)])
    return list(zip(ends[::2], ends[1::2])), D


def _span(lo: int, hi: int, q: Sequence[int], ends: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """[lo, hi] + sum_j q_j * [elo_j, ehi_j], for ends[j] = (elo_j, ehi_j)."""
    for c, (elo, ehi) in zip(q, ends):
        if c > 0:
            lo, hi = lo + c * elo, hi + c * ehi
        elif c < 0:
            lo, hi = lo + c * ehi, hi + c * elo
    return lo, hi


def _dist_num(lo: int, hi: int, D: int) -> int:
    """D * d([lo, hi]/D, Z) for integers lo <= hi; 0 if the interval meets Z."""
    fl, r = divmod(lo, D)
    return min(r, (fl + 1) * D - hi) if r and hi // D == fl else 0


# ---------------------------------------------------------------------------
# best approximations


@dataclass
class BestApproxSequence:
    vectors: List[Tuple[int, ...]]  # thinned, ratio >= THIN_RATIO
    errors: List[Interval]          # eta_k = d(A^T y_k, Z^m), certified
    denominators: List[int]         # raw, before thinning

    def __post_init__(self):
        norms = [max(abs(c) for c in v) for v in self.vectors]
        assert all(a < b for a, b in zip(norms, norms[1:])), "norms must increase"
        for e1, e2 in zip(self.errors, self.errors[1:]):
            assert e2.hi < e1.lo, "errors must certifiably decrease"


def _eta(cols: Sequence[Sequence[Tuple[int, int]]], D: int, y: Sequence[int]) -> Interval:
    """Certified enclosure of d(A^T y, Z^m) (Euclidean over coordinates).

    cols[j] holds the (lo, hi) numerators over D of column j of A (_frame).
    Column j of A^T y lies in [lo, hi] / D, whose distance to Z is at least
    _dist_num(lo, hi, D) / D and at most that of the farther endpoint, or 1/2
    when a half-integer lies inside; the upper ends are numerators over 2D,
    so 1/2 is exact for odd D.
    """
    lo2 = hi2 = 0
    for col in cols:
        lo, hi = _span(0, 0, y, col)
        d = _dist_num(lo, hi, D)
        lo2 += d * d
        if (2 * lo) // D != (2 * hi) // D:
            u = D
        else:
            u = 2 * max(_dist_num(lo, lo, D), _dist_num(hi, hi, D))
        hi2 += u * u
    return Interval(
        sqrt_interval(Fraction(lo2, D * D)).lo, sqrt_interval(Fraction(hi2, 4 * D * D)).hi
    )


THIN_RATIO = 3  # consecutive thinned norms grow by at least this factor
SEARCH_BOUND = 2000  # sup-norm bound of the successive-minima search
ETA_WIDTH = Fraction(1, 10 ** 40)  # width of the entry enclosures _eta reads


def best_approx_sequence(A: AffineSystem, count: int) -> BestApproxSequence:
    """Best-approximation vectors, thinned so consecutive norms grow by
    >= THIN_RATIO; continued fractions when n = m = 1."""
    if A.is_rational:
        raise ValueError("rational system: use rational_case_set instead")
    if A.n == A.m == 1:
        # from the entry's interval as given, before _frame refines it
        quotients = continued_fraction(A.entries[0][0], 2 * count + 8)
        raw = [(q,) for q in convergent_denominators(quotients)]
    ends, D = _frame([_entry_interval(e, ETA_WIDTH) for row in A.entries for e in row])
    cols = [ends[j::A.m] for j in range(A.m)]
    if not A.n == A.m == 1:
        raw, best = [], None
        for u in _int_vectors(A.n, SEARCH_BOUND):
            if any(c < 0 for c in u) and tuple(-c for c in u) <= u:
                continue  # eta is even; keep one of each +-pair
            e = _eta(cols, D, u)
            if best is None or e.hi < best.lo:
                raw.append(u)
                best = e
            if len(raw) >= 3 * count:
                break
    thin: List[Tuple[int, ...]] = []
    errors: List[Interval] = []
    last_norm = 0
    for y in raw:
        nrm = max(abs(c) for c in y)
        if thin and nrm < THIN_RATIO * last_norm:
            continue
        e = _eta(cols, D, y)
        if errors and not e.hi < errors[-1].lo:
            continue  # keep the certified strict decrease
        thin.append(tuple(y))
        errors.append(e)
        last_norm = nrm
        if len(thin) >= count:
            break
    if not thin:
        raise PrecisionError("no certifiable best approximations found")
    denoms = [max(abs(c) for c in u) for u in raw]
    return BestApproxSequence(vectors=thin, errors=errors, denominators=denoms)


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


def _first_hit(c: int, a: int, D: int, L: int, R: int) -> Optional[int]:
    """Least s >= 1 with L <= (c + a*s) mod D <= R, for 0 <= L <= R < D, or None.

    Euclid on (a, D): if a*ceil(L/a) > R, then s solves L <= a*s - D*y <= R
    for the least y, a first hit of (-D mod a)*y mod a in [L mod a, R mod a].
    Reflecting a to D - a keeps a <= D/2: at most log2(D) + 1 rounds.
    """
    c = (c + a) % D
    if L <= c <= R:
        return 1
    L, R = (L - c) % D, (R - c) % D  # s = t + 1; the shifted window misses 0
    frames = []
    while a := a % D:
        if 2 * a > D:
            a, L, R = D - a, D - R, D - L
        t = -(-L // a)
        if a * t <= R:
            for a, D, L in reversed(frames):
                t = -(-(L + D * t) // a)
            return t + 1
        frames.append((a, D, L))
        a, D, L, R = a - D % a, a, L % a, R % a
    return None


def _low_hits(c: int, a: int, D: int, q_bound: int, R: Optional[int] = None):
    """Each k in [1, q_bound], in order, where (c + a*k) mod D is <= R or,
    when R is None, lower than at every smaller k >= 1 (a record low)."""
    k, v, bound = 0, c % D, D - 1 if R is None else R
    while bound >= 0 and (s := _first_hit(v, a, D, 0, bound)) and k + s <= q_bound:
        k, v = k + s, (v + a * s) % D
        yield k
        if R is None:
            bound = v - 1


def bad_margin(A, x, q_bound: int) -> Fraction:
    """Certified lower bound of
    min over 0 < ||q||_inf <= q_bound of ||q||^{m/n} * d(Aq - x, Z^n).

    A is an AffineSystem, a nested list of rows, or one scalar entry.  Each
    algebraic entry is enclosed to width ENTRY_WIDTH from a copy of its
    original interval, so the result does not depend on the entry's history.
    All endpoints go over one integer denominator D, so d(Aq - x, Z) is an
    integer over D per coordinate (_dist_num): exact for n = 1 with rational
    data and a point x; for n >= 2 sqrt_interval bounds the norm below.
    Every q is scanned except for n = m = 1: on each sign of q the ends
    lo(k), hi(k) of Aq - x are affine in k = |q|, a minimiser k* is a record
    low of lo(k) mod D or -hi(k) mod D (an r < k* at or below dl(k*) has
    r*dl(r) < k* * dl(k*)), and a zero needs -lo(k) mod D <= the width at
    q_bound.  _first_hit finds each such k in O(log D) steps; there are
    about as many as the partial quotients of A up to q_bound add up to,
    O(log q_bound) for sqrt(n), against 2*q_bound in the scan.
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
        AlgebraicReal(e.poly, *e.origin) if isinstance(e, AlgebraicReal) else e
        for row in A.entries
        for e in row
    ]
    ends, D = _frame(xs + [_entry_interval(e, ENTRY_WIDTH) for e in fresh])
    # per coordinate i: -x_i as (lo, hi) and the (lo, hi) of each entry A_ij
    rows = [(-ends[i][1], -ends[i][0], ends[n + i * m:n + (i + 1) * m]) for i in range(n)]
    if n == m == 1:
        # on q = k and on q = -k, only record lows and possible zeros
        (lo0, hi0, ((elo, ehi),)), best = rows[0], None
        for alo, ahi in ((elo, ehi), (-ehi, -elo)):
            w = min(hi0 - lo0 + q_bound * (ahi - alo), D - 1)
            ks = {
                *_low_hits(lo0, alo, D, q_bound),
                *_low_hits(-hi0, -ahi, D, q_bound),
                *_low_hits(-lo0, -alo, D, q_bound, w),
            }
            for k in ks:
                dl = _dist_num(lo0 + k * alo, hi0 + k * ahi, D)
                if dl == 0:
                    return Fraction(0)
                best = k * dl if best is None else min(best, k * dl)
        return Fraction(best, D)
    best = None
    weight_nrm, weight = 0, None
    for q in _int_vectors(m, q_bound):
        d2 = 0
        for lo, hi, entries in rows:
            dl = _dist_num(*_span(lo, hi, q, entries), D)
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
