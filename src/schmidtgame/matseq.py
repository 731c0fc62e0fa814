"""Matrix sequences: certified operator norms, lacunarity, Kronecker orders.

Certification never relies on floating point; float eigensolvers only seed
good rational guesses.  Norms run in integers: M = N / D over one common
denominator and M^T M = G / E with G = N^T N, E = D^2.  An inertia count,
the number of eigenvalues of G / E above x = p/q and the multiplicity of x,
comes from the pivot signs of a fraction-free (Bareiss) LDL^T elimination
of p*E*I - q*G (Sylvester's law of inertia).  The top eigenvalue is
enclosed between the Rayleigh quotient r of a rationalised float
eigenvector and a slightly larger u, or found exactly at r, by inertia
counts at r and u; otherwise inertia counts bisect.  The top direction is
that eigenvector, widened by a residual and gap (Davis-Kahan) bound whose
gap is certified by one more inertia count, or an exact kernel vector when
the top eigenvalue is rational.  A sequence computes ||M_k||_op alone, from
cached integer powers, and builds the top direction only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import Interval, frac, sqrt_interval
from .geometry import DimensionMismatch, Vec, dot, norm2, over_common_den

Matrix = Tuple[Tuple[Fraction, ...], ...]
IntMatrix = Tuple[Tuple[int, ...], ...]

# ---------------------------------------------------------------------------
# exact matrix helpers


def as_matrix(rows) -> Matrix:
    out = tuple(tuple(frac(x) for x in row) for row in rows)
    if not out or any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def mat_shape(M: Matrix) -> Tuple[int, int]:
    return len(M), len(M[0])


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k = mat_shape(A)
    k2, m = mat_shape(B)
    if k != k2:
        raise ValueError("shape mismatch")
    return _product(A, B)


def _product(A, B):
    """A B without a shape check: Fraction entries give Fractions, int entries ints."""
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*B)) for row in A)


def _integer_form(M: Matrix) -> Tuple[IntMatrix, int]:
    """(N, D): integer N with M = N / D, D the lcm of M's denominators."""
    flat, D = over_common_den([x for row in M for x in row])
    m = len(M[0])
    return tuple(flat[i:i + m] for i in range(0, len(flat), m)), D


def mat_vec(A: Matrix, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in A)


def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_pow(M: Matrix, k: int) -> Matrix:
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("matrix power needs a square matrix")
    result = identity(n)
    base = M
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def rref(M: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form over Q; returns (R, pivot_columns)."""
    rows = [list(r) for r in M]
    n, m = len(rows), len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in rows), pivots


def kernel_basis(M: Matrix) -> List[Vec]:
    """Basis of the null space over Q, one vector per free column."""
    R, pivots = rref(M)
    n, m = mat_shape(M)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# exact polynomial helpers (ascending coefficient lists)

Poly = List[Fraction]


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    a = list(a)
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(poly_trim(a)) >= len(b):
        d = len(a) - len(b)
        f = a[-1] / b[-1]
        q[d] = f
        for i, c in enumerate(b):
            a[i + d] -= f * c
        a.pop()
    return poly_trim(q), poly_trim(a)


def sturm_chain(p: Poly) -> List[Poly]:
    chain = [poly_trim(list(p))]
    d = poly_trim(poly_deriv(chain[0]))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: List[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: List[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    p = poly_trim(list(p))
    lead = abs(p[-1])
    if len(p) == 1:
        return Fraction(1)
    return 1 + max(abs(c) for c in p[:-1]) / lead


def charpoly(A: Matrix) -> Poly:
    """Characteristic polynomial det(xI - A), monic, via Faddeev-LeVerrier.

    The recursion runs on the integer N = D * A, whose coefficients are
    integers, so each -tr / k divides exactly; A's coefficient of x^(n-k)
    is N's over D^k.
    """
    n, m = mat_shape(A)
    if n != m:
        raise ValueError("square matrix required")
    N, D = _integer_form(A)
    cs, NM = [1], N  # NM = N * M_(k-1), M_0 = I
    for k in range(1, n + 1):
        ck = -sum(NM[i][i] for i in range(n)) // k
        cs.append(ck)
        if k < n:
            Mk = [[x + (ck if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(NM)]
            NM = _product(N, Mk)
    # cs holds [1, c1, ..., cn] for x^n + c1 x^{n-1} + ... + cn
    return [Fraction(c, D ** k) for k, c in reversed(list(enumerate(cs)))]


def spectral_radius_gt_one(M: Matrix) -> bool:
    """Certified decision: is the spectral radius strictly greater than 1?

    For real M the eigenvalues of M (x) M are the products z*w of M's
    eigenvalues, among them every |z|^2 = z * conj(z), and a real z*w > 1
    needs |z| > 1 or |w| > 1.  So the radius exceeds 1 iff the
    characteristic polynomial of M (x) M, with its roots at 0 and 1
    deflated, has a real root above 1, which a Sturm chain counts.
    """
    s = charpoly(tuple(tuple(a * b for a in ra for b in rb) for ra in M for rb in M))
    while s[0] == 0:
        s = s[1:]
    one = Fraction(1)
    while len(s) > 1 and poly_eval(s, one) == 0:
        s, _ = poly_divmod(s, [-one, one])
    if len(s) <= 1:
        return False
    return sturm_count(sturm_chain(s), one, cauchy_bound(s) + 1) > 0


# ---------------------------------------------------------------------------
# operator norm with certified enclosures

_REL_BITS = 48  # 2^-48 < 1e-14 relative width, beats the 1e-9 contract


class DegenerateDirection(RuntimeError):
    pass


def inertia(A: Matrix, x: Fraction) -> Tuple[int, int]:
    """(number of eigenvalues of symmetric A above x, multiplicity of x)."""
    return _inertia(*_integer_form(A), x)


def _bareiss_step(X: List[List[int]], rest, k: int, prev: int) -> None:
    """Fraction-free elimination of the rows and columns in rest by pivot
    X[k][k]: each new entry is a minor, so division by prev is exact."""
    d, pivot_row = X[k][k], X[k]
    for i in rest:
        row, f = X[i], X[i][k]
        for j in rest:
            row[j] = (d * row[j] - f * pivot_row[j]) // prev


def _inertia(G: IntMatrix, E: int, x: Fraction) -> Tuple[int, int]:
    """inertia(G / E, x) for integer symmetric G and E > 0: the negative and
    zero pivots (Sylvester) of an LDL^T factorisation of the integer
    p*E*I - q*G, x = p/q, with diagonal pivoting.  Its Bareiss pivots are
    leading minors D_s, so the s-th LDL^T pivot D_s / D_{s-1} has the sign
    of D_s * D_{s-1}.  When every remaining diagonal entry is zero but
    S[k][j] is not, adding row and column j to row and column k (a
    congruence) makes the pivot 2*S[k][j]; an all-zero remainder counts as
    zero eigenvalues."""
    p, q, n = x.numerator, x.denominator, len(G)
    S = [[(p * E if i == j else 0) - q * G[i][j] for j in range(n)] for i in range(n)]
    rest = list(range(n))
    above, prev = 0, 1
    while rest:
        k = next((i for i in rest if S[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in rest for j in rest if S[i][j]), None)
            if pair is None:
                break
            k, j = pair
            for l in rest:
                S[k][l] += S[j][l]
            for l in rest:
                S[l][k] += S[l][j]
        d = S[k][k]
        if (d < 0) != (prev < 0):
            above += 1
        rest.remove(k)
        _bareiss_step(S, rest, k, prev)
        prev = d
    return above, len(rest)


def _rayleigh(G: IntMatrix, E: int) -> Tuple[List[float], Tuple[int, ...], int, Fraction]:
    """Float eigenvalues of symmetric G / E (ascending), its float top
    eigenvector rationalised as a / c with integer a, and the exact
    Rayleigh quotient a^T G a / (E a^T a)."""
    arr = np.array([[x / E for x in row] for row in G], dtype=float)
    s = max(1.0, np.abs(arr).max())
    w, V = np.linalg.eigh(arr / s)
    u = [Fraction(float(x)).limit_denominator(10 ** 17) for x in V[:, int(np.argmax(w))]]
    (a,), c = _integer_form((u,))
    aGa = sum(x * sum(map(mul, row, a)) for x, row in zip(a, G))
    return [float(x * s) for x in w], a, c, Fraction(aGa, E * sum(x * x for x in a))


def _sign_normalized(v: Tuple[Interval, ...]) -> Tuple[Interval, ...]:
    """v, negated if needed so its first certainly-nonzero entry is positive."""
    for e in v:
        if e.lo > 0:
            break
        if e.hi < 0:
            return tuple(-x for x in v)
    return v


def _gram_top_eigenvalue(N: IntMatrix, D: int, rel_bits: int) -> Tuple[Interval, bool]:
    """Enclose the top eigenvalue of M^T M for M = N / D; flag exact rationals."""
    if not any(x for row in N for x in row):
        raise ValueError("zero matrix has no direction")
    if len(N) == 1:
        return Interval.point(Fraction(sum(x * x for x in N[0]), D * D)), True
    return _top_eigenvalue(_product(transpose(N), N), D * D, rel_bits)


def _singular_value(lam: Interval, exact: bool) -> Interval:
    """Enclosure of sqrt(lam), the top singular value."""
    if exact:
        return sqrt_interval(lam.lo)
    return Interval(sqrt_interval(lam.lo).lo, sqrt_interval(lam.hi).hi)


def _top_direction(N: IntMatrix, D: int, lam: Interval, exact: bool) -> Tuple[Interval, ...]:
    """Unit top right singular direction of M = N / D, given the enclosure
    of the top eigenvalue of M^T M = G / E.

    An exact eigenvalue gives an exact kernel vector.  Otherwise the
    rationalised float eigenvector u = a / c, with Rayleigh quotient r, is
    widened by the Davis-Kahan bound: if exactly one eigenvalue lies above
    g < r, the angle theta between u and the top eigenvector has
    sin(theta) <= ||A u - r u|| / (||u|| (r - g)), and the unit vectors
    differ by at most sqrt(2) sin(theta) in every coordinate.
    """
    if len(N) == 1:
        t = sqrt_interval(lam.lo)
        return _sign_normalized(tuple(Interval.point(Fraction(x, D)) / t for x in N[0]))
    G, E = _product(transpose(N), N), D * D
    x = lam.lo
    if not exact:
        w, a, c, r = _rayleigh(G, E)
        g = Fraction((w[-1] + w[-2]) / 2)
        if g < r and _inertia(G, E, g) == (1, 0):
            # ||A u - r u||^2 / ||u||^2 = ||q G a - p E a||^2 / ((q E)^2 a^T a)
            p, q, aa = r.numerator, r.denominator, sum(ai * ai for ai in a)
            res = sum((q * sum(map(mul, row, a)) - p * E * ai) ** 2 for row, ai in zip(G, a))
            eps = sqrt_interval(2 * Fraction(res, (q * E) ** 2 * aa) / (r - g) ** 2).hi
            nrm = sqrt_interval(Fraction(aa, c * c))
            return _sign_normalized(
                tuple(Interval.point(Fraction(ai, c)) / nrm + Interval(-eps, eps) for ai in a)
            )
        # no certified gap: the top eigenvalue may be repeated.  A rational
        # eigenvalue of A = G / E is an integer over the common denominator q
        # of its entries, so round the float one to that grid and test it.
        q = E // math.gcd(E, *(e for row in G for e in row))
        x = Fraction(round(Fraction(w[-1]) * q), q)
        above, mult = _inertia(G, E, x)
        if above or not mult:
            raise DegenerateDirection(
                "no certified gap below the top eigenvalue and no exact one; "
                "the top singular value may be a repeated irrational"
            )
    # the kernel of A - x*I is that of the integer matrix q*G - p*E*I
    n, p, q = len(G), x.numerator, x.denominator
    basis = kernel_basis(
        as_matrix([[q * G[i][j] - (p * E if i == j else 0) for j in range(n)] for i in range(n)])
    )
    if not basis:
        raise DegenerateDirection("exact eigenvalue with empty kernel")
    nrm = sqrt_interval(norm2(basis[0]))
    return _sign_normalized(tuple(Interval.point(c) / nrm for c in basis[0]))


def operator_norm(M, rel_bits: int = _REL_BITS) -> Tuple[Interval, Tuple[Interval, ...]]:
    """Certified enclosure of the largest singular value and a top direction.

    Returns (t, v) with t enclosing ||M||_op at relative width < 2^-rel_bits
    and v a unit top right singular direction, sign-normalized so the first
    certainly-nonzero coordinate is positive.
    """
    N, D = _integer_form(as_matrix(M))
    lam, exact = _gram_top_eigenvalue(N, D, rel_bits)
    return _singular_value(lam, exact), _top_direction(N, D, lam, exact)


def _top_eigenvalue(G: IntMatrix, E: int, rel_bits: int) -> Tuple[Interval, bool]:
    """Enclose the top eigenvalue of symmetric PSD A = G / E; flag exact rationals.

    The Rayleigh quotient r of a rationalised float eigenvector is a lower
    bound, and a slightly larger u an upper one; inertia counts at r and u
    certify the enclosure [r, u], or r as the exact top eigenvalue.  When
    they do not, inertia counts bisect [0, max row sum of |A|].
    """
    n = len(G)
    if all(G[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        return Interval.point(Fraction(max(G[i][i] for i in range(n)), E)), True
    r = _rayleigh(G, E)[3]
    above, mult = _inertia(G, E, r)
    if above == 0 and mult > 0:
        return Interval.point(r), True
    upper = r * (1 + Fraction(1, 1 << rel_bits)) + Fraction(1, 1 << (2 * rel_bits))
    if r > 0 and above > 0 and _inertia(G, E, upper)[0] == 0:
        return Interval(r, upper), False
    # the top eigenvalue stays in (lo, hi]: above(lo) > 0 = above(hi)
    lo, hi = Fraction(0), Fraction(max(sum(abs(a) for a in row) for row in G), E)
    for _ in range(4 * rel_bits + hi.numerator.bit_length()):
        mid = (lo + hi) / 2
        above, mult = _inertia(G, E, mid)
        if above == 0 and mult > 0:
            return Interval.point(mid), True
        if above:
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) / lo < Fraction(1, 1 << rel_bits):
            break
    return Interval(lo, hi), False


# ---------------------------------------------------------------------------
# matrix sequences


@dataclass
class MatrixSequence:
    kind: str  # "powers" | "explicit" | "rows"
    base: Optional[Matrix] = None
    matrices: Optional[List[Matrix]] = None
    # (N, D) with M_k = N / D at index k - 1, built once per k
    _ints: List[Tuple[IntMatrix, int]] = field(default_factory=list, repr=False)
    _t_cache: Dict[int, Interval] = field(default_factory=dict, repr=False)
    _eig_cache: Dict[int, Tuple[Interval, bool]] = field(default_factory=dict, repr=False)
    _v_cache: Dict[int, Tuple[Interval, ...]] = field(default_factory=dict, repr=False)

    @staticmethod
    def powers(M) -> "MatrixSequence":
        M = as_matrix(M)
        n, m = mat_shape(M)
        if n != m:
            raise ValueError("powers sequence needs a square matrix")
        return MatrixSequence(kind="powers", base=M, _ints=[_integer_form(M)])

    @staticmethod
    def explicit(mats: Sequence) -> "MatrixSequence":
        return MatrixSequence._finite("explicit", [as_matrix(m) for m in mats])

    @staticmethod
    def rows(vectors: Sequence[Sequence[int]]) -> "MatrixSequence":
        return MatrixSequence._finite("rows", [as_matrix([list(v)]) for v in vectors])

    @staticmethod
    def _finite(kind: str, mats: List[Matrix]) -> "MatrixSequence":
        if not mats:
            raise ValueError("empty sequence")
        for m in mats:
            if mat_shape(m) != mat_shape(mats[0]):
                raise ValueError("the matrices of a sequence must have equal shapes")
            if all(x == 0 for row in m for x in row):
                raise ValueError("zero row vector" if kind == "rows" else "zero matrix")
        return MatrixSequence(kind=kind, matrices=mats, _ints=[_integer_form(m) for m in mats])

    def __len__(self) -> int:
        if self.kind == "powers":
            raise TypeError("powers sequences are unbounded")
        return len(self.matrices)

    @property
    def finite(self) -> bool:
        return self.kind != "powers"

    def matrix(self, k: int) -> Matrix:
        """M_k, 1-indexed, built from the integer pair on each call."""
        N, D = self._integer(k)
        return tuple(tuple(Fraction(x, D) for x in row) for row in N)

    def _integer(self, k: int) -> Tuple[IntMatrix, int]:
        """(N, D): integer N with M_k = N / D; powers append (N^k, D^k)."""
        if k < 1:
            raise IndexError("sequence indices start at 1")
        if self.kind == "powers":
            N, D = self._ints[0]
            while len(self._ints) < k:
                P, E = self._ints[-1]
                self._ints.append((_product(P, N), E * D))
        return self._ints[k - 1]

    def image(self, k: int, x: Vec) -> Vec:
        """M_k x from the cached integer pair, one Fraction per coordinate."""
        (N, D), (X, Dx) = self._integer(k), over_common_den(x)
        if len(N[0]) != len(X):
            raise DimensionMismatch(f"{len(N[0])} vs {len(X)}")
        return tuple(Fraction(sum(map(mul, row, X)), D * Dx) for row in N)

    def preimage(self, k: int, y: Vec) -> Vec:
        """The minimum-norm least-squares solution x of M_k x = y, exactly.

        With M_k = N / D, G = N N^T and y = Y / Dy, x = D N^T z / Dy for any
        z with G^2 z = G Y; free variables are set to 0.  Such an x lies in
        the row space of N, and it solves the normal equations iff
        N^T (G z - Y) = 0, that is G^2 z = G Y, since ker N^T = ker G.  G Y
        lies in the column space of G, which is that of G^2, so the system
        is consistent, and x is unique.
        """
        (N, D), (Y, Dy) = self._integer(k), over_common_den(y)
        if len(N) != len(Y):
            raise DimensionMismatch(f"{len(N)} vs {len(Y)}")
        Nt = tuple(zip(*N))
        G = _product(N, Nt)
        aug = [row + (sum(map(mul, g, Y)),) for row, g in zip(_product(G, G), G)]
        R, pivots = rref(tuple(tuple(map(Fraction, row)) for row in aug))
        z = [Fraction(0)] * len(N)
        for i, c in enumerate(pivots):
            z[c] = R[i][-1]
        return tuple(D * sum(map(mul, col, z)) / Dy for col in Nt)

    def t(self, k: int) -> Interval:
        """||M_k||_op, certified; the top direction is not computed."""
        if k not in self._t_cache:
            lam, exact = _gram_top_eigenvalue(*self._integer(k), _REL_BITS)
            self._eig_cache[k] = lam, exact
            self._t_cache[k] = _singular_value(lam, exact)
        return self._t_cache[k]

    def v(self, k: int) -> Tuple[Interval, ...]:
        """Top right singular direction of M_k, from the cached eigenvalue.

        A 1x1 M_k = N / D has direction N / |N|, which sign-normalizes to 1.
        """
        if k not in self._v_cache:
            self.t(k)
            N, D = self._integer(k)
            if len(N) == len(N[0]) == 1:
                self._v_cache[k] = (Interval.point(1),)
            else:
                self._v_cache[k] = _top_direction(N, D, *self._eig_cache[k])
        return self._v_cache[k]


@dataclass(frozen=True)
class LacunarityReport:
    lacunary: Optional[bool]  # None = undecided
    Q: Optional[Fraction]
    decomposition: Optional[Tuple[int, int]]  # (l, N)
    horizon: int
    note: str = ""


def analyze_lacunarity(seq: MatrixSequence, horizon: int) -> LacunarityReport:
    """Certified lacunarity analysis over a finite horizon.

    Never reports a false positive: every claimed ratio Q > 1 is backed by
    exact enclosure comparisons, and for power sequences a certified
    spectral-radius test rules out rotations and unipotent growth first.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if seq.finite:
        count = min(len(seq), horizon)
        ratio_lo = None
        undecided = False
        for k in range(1, count):
            lo = seq.t(k + 1).lo / seq.t(k).hi
            hi = seq.t(k + 1).hi / seq.t(k).lo
            if hi <= 1:
                return LacunarityReport(False, None, None, horizon, f"ratio <= 1 at k={k}")
            if lo <= 1:
                undecided = True
            ratio_lo = lo if ratio_lo is None else min(ratio_lo, lo)
        if undecided or ratio_lo is None:
            return LacunarityReport(None, None, None, horizon, "ratio enclosure straddles 1")
        return LacunarityReport(True, ratio_lo, (1, 1), horizon)
    # Powers(M)
    M = seq.base
    if not spectral_radius_gt_one(M):
        return LacunarityReport(
            False, None, None, horizon, "spectral radius <= 1 (certified)"
        )
    n = mat_shape(M)[0]
    max_l = max(1, (n * horizon) // 4)
    for ell in range(1, max_l + 1):
        if horizon - ell < 1:
            break
        ratios = []
        for k in range(1, horizon - ell + 1):
            ratios.append(seq.t(k + ell).lo / seq.t(k).hi)
        # smallest N whose suffix min exceeds 1
        best_n = None
        suffix_min = None
        for idx in range(len(ratios) - 1, -1, -1):
            suffix_min = ratios[idx] if suffix_min is None else min(suffix_min, ratios[idx])
            if suffix_min > 1:
                best_n = idx + 1
                best_q = suffix_min
        if best_n is not None and best_n <= max(1, horizon // 2):
            return LacunarityReport(
                lacunary=(ell == 1 and best_n == 1),
                Q=best_q,
                decomposition=(ell, best_n),
                horizon=horizon,
            )
    return LacunarityReport(None, None, None, horizon, "no certificate found on horizon")


# ---------------------------------------------------------------------------
# Kronecker orders and invariant hyperplanes


def _unipotent(P: Matrix) -> bool:
    n = mat_shape(P)[0]
    p = charpoly(P)
    target = [
        Fraction(math.comb(n, i) * (-1) ** (n - i)) for i in range(n + 1)
    ]
    return p == target


def kronecker_order(M) -> Optional[int]:
    """Least N >= 1 with M^N unipotent, for nonsingular integer M with all
    eigenvalue moduli <= 1; None when the precondition fails."""
    M = as_matrix(M)
    if any(x.denominator != 1 for row in M for x in row):
        raise ValueError("integer matrix required")
    n = mat_shape(M)[0]
    if charpoly(M)[0] == 0:
        return None
    if spectral_radius_gt_one(M):
        return None
    # admissible cyclotomic orders d have phi(d) <= n
    def phi(d: int) -> int:
        out = d
        x = d
        p = 2
        while p * p <= x:
            if x % p == 0:
                while x % p == 0:
                    x //= p
                out -= out // p
            p += 1
        if x > 1:
            out -= out // x
        return out

    orders = [d for d in range(1, 6 * n * n + 7) if phi(d) <= n]
    bound = 1
    for d in orders:
        bound = bound * d // math.gcd(bound, d)
    P = M
    for N in range(1, bound + 1):
        if _unipotent(P):
            return N
        P = mat_mul(P, M)
    return None


def invariant_hyperplane_family(M, N: int) -> Tuple[Vec, Interval]:
    """Rational hyperplane V (through 0) invariant under M^N, as a primitive
    integer normal, plus the separation 1/||normal|| of the family V + Z^n."""
    M = as_matrix(M)
    n = mat_shape(M)[0]
    U = mat_pow(M, N)
    if not _unipotent(U):
        raise ValueError("M^N is not unipotent")
    W = mat_sub(transpose(U), identity(n))
    basis = kernel_basis(W)
    if not basis:
        raise ValueError("no invariant normal found (not unipotent?)")
    if len(basis) == n:
        normal = tuple(Fraction(1 if i == n - 1 else 0) for i in range(n))
    else:
        normal = basis[-1]
    # scale to a primitive integer vector
    (ints,), _ = _integer_form((normal,))
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    normal = tuple(Fraction(x) for x in ints)
    separation = Interval.point(1) / sqrt_interval(norm2(normal))
    return normal, separation


def jordan_dominance_check(M, horizon: int) -> dict:
    """Check ||B^k||_op / |binom(k, m-1) lambda^{k-m+1}| -> 1 at k = horizon."""
    M = as_matrix(M)
    n = mat_shape(M)[0]
    lam = M[0][0]
    for i in range(n):
        for j in range(n):
            expect = lam if i == j else (Fraction(1) if j == i + 1 else Fraction(0))
            if M[i][j] != expect:
                raise ValueError("not a single Jordan block")
    if lam == 0:
        raise ValueError("need |lambda| > 0")
    k = horizon
    lam_f = float(lam)
    dom = math.comb(k, n - 1)
    # entries scaled by the dominant one: binom(k, j-i)/binom(k, m-1) * lam^{(m-1)-(j-i)}
    E = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            E[i][j] = (
                math.comb(k, j - i) / dom * lam_f ** ((n - 1) - (j - i))
            )
    ratio = float(np.linalg.norm(E, 2))
    tol = 10 * n * n / horizon
    return {"ratio": ratio, "tolerance": tol, "ok": abs(ratio - 1) <= tol, "k": k}
