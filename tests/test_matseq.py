"""Matrix sequences: exact linear algebra, certified norms, lacunarity."""

import math
import random
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest

from schmidtgame import matseq
from schmidtgame.exact import Interval, sqrt_interval
from schmidtgame.geometry import DimensionMismatch, norm2
from schmidtgame.matseq import (
    DegenerateDirection,
    MatrixSequence,
    analyze_lacunarity,
    cauchy_bound,
    charpoly,
    identity,
    invariant_hyperplane_family,
    jordan_dominance_check,
    kernel_basis,
    inertia,
    kronecker_order,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    operator_norm,
    poly_divmod,
    poly_eval,
    poly_trim,
    rref,
    spectral_radius_gt_one,
    sturm_chain,
    sturm_count,
    transpose,
)

ROTATION_90 = ((F(0), F(-1)), (F(1), F(0)))
UNIPOTENT = ((F(1), F(1)), (F(0), F(1)))


def det(M):
    """det(M) = (-1)^n p(0) for the characteristic polynomial p of M."""
    return (-1) ** len(M) * charpoly(M)[0]


def solve_square(A, b):
    """Solve A x = b for square invertible A by rref; None when singular."""
    n = len(A)
    R, pivots = rref(tuple(row + (bi,) for row, bi in zip(A, b)))
    if pivots != list(range(n)):
        return None
    return tuple(R[i][n] for i in range(n))


class TestExactLinearAlgebra:
    def test_charpoly_2x2(self):
        # x^2 - 3x + 1 for [[2,1],[1,1]]
        assert charpoly(((F(2), F(1)), (F(1), F(1)))) == [F(1), F(-3), F(1)]

    def test_determinant(self):
        assert det(((F(2), F(1)), (F(1), F(1)))) == F(1)
        assert det(ROTATION_90) == F(1)

    def test_kernel_basis(self):
        M = ((F(1), F(2)), (F(2), F(4)))
        basis = kernel_basis(M)
        assert len(basis) == 1
        v = basis[0]
        assert mat_vec(M, v) == (F(0), F(0))

    def test_rref_pivots(self):
        R, pivots = rref(((F(0), F(1)), (F(1), F(0))))
        assert pivots == [0, 1]
        assert R == ((F(1), F(0)), (F(0), F(1)))

    def test_solve_square(self):
        A = ((F(2), F(0)), (F(0), F(3)))
        assert solve_square(A, (F(4), F(9))) == (F(2), F(3))
        assert solve_square(((F(1), F(1)), (F(1), F(1))), (F(0), F(1))) is None

    def test_mat_pow(self):
        assert mat_pow(ROTATION_90, 4) == identity(2)


class TestSturm:
    def test_root_count(self):
        # x^2 - 2 has one root in (0, 2), none in (2, 3)
        chain = sturm_chain([F(1), F(0), F(-2)])
        assert sturm_count(chain, F(0), F(2)) == 1
        assert sturm_count(chain, F(2), F(3)) == 0


class TestSpectralRadius:
    def test_expanding(self):
        assert spectral_radius_gt_one(((F(2),),))
        assert spectral_radius_gt_one(((F(2), F(0)), (F(0), F(3))))
        assert spectral_radius_gt_one(((F(2), F(1)), (F(1), F(1))))

    def test_non_expanding(self):
        assert not spectral_radius_gt_one(((F(1),),))
        assert not spectral_radius_gt_one(ROTATION_90)
        assert not spectral_radius_gt_one(UNIPOTENT)
        assert not spectral_radius_gt_one(((F(0), F(-1)), (F(1), F(-1))))


class TestOperatorNorm:
    def test_diagonal(self):
        enc, direction = operator_norm(((F(2), F(0)), (F(0), F(3))))
        assert enc.lo <= F(3) <= enc.hi
        assert enc.hi - enc.lo < F(1, 10 ** 6)

    def test_row_vector(self):
        enc, _ = operator_norm(((F(3), F(4)),))
        assert enc.lo <= F(5) <= enc.hi

    def test_rational_top_eigenvalue_is_exact(self):
        # M^T M = [[5, 4], [4, 5]]: the Rayleigh quotient is 9 itself, so
        # 9*I - M^T M has a zero pivot and the fallback proves 9 exact
        enc, _ = operator_norm(((F(2), F(1)), (F(1), F(2))))
        assert enc == Interval.point(3)


def _rational_orthogonal(S):
    """Cayley transform (I - S)(I + S)^-1 of a skew-symmetric S."""
    n = len(S)
    I = identity(n)
    plus = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(I, S))
    cols = [solve_square(plus, I[j]) for j in range(n)]
    return mat_mul(mat_sub(I, S), transpose(tuple(cols)))


def _squarefree_sturm(p):
    """(p / gcd(p, p'), its Sturm chain, a bound above its roots).

    Sturm counts are only sound at simple roots, so reference counts use
    the squarefree part; gcd(p, p') is the last member of p's chain."""
    p, _ = poly_divmod(p, sturm_chain(p)[-1])
    return p, sturm_chain(p), cauchy_bound(p) + 1


def _symmetric_cases(seed):
    """(A, shifts) pairs: dense integer A with irrational eigenvalues, and
    Q D Q^T with rational eigenvalues D, some of them zero (singular A)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        n = rng.choice((2, 3, 4))
        B = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        A = tuple(tuple(B[i][j] + B[j][i] for j in range(n)) for i in range(n))
        shifts = [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(6)]
        cases.append((A, [A[0][0]] + shifts))
    for _ in range(12):
        n = rng.choice((2, 3))
        S = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                S[i][j] = F(rng.randint(-3, 3), rng.randint(1, 3))
                S[j][i] = -S[i][j]
        Q = _rational_orthogonal(tuple(tuple(r) for r in S))
        D = [F(rng.choice((0, 0, 1, 2, 5, -3)), rng.randint(1, 2)) for _ in range(n)]
        diag = tuple(tuple(D[i] if i == j else F(0) for j in range(n)) for i in range(n))
        A = mat_mul(mat_mul(Q, diag), transpose(Q))
        cases.append((A, [A[0][0], max(D), min(D), F(0)] + D + [max(D) + F(1, 1000)]))
    return cases


class TestInertia:
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_agrees_with_sturm(self, seed):
        seen = set()
        for A, shifts in _symmetric_cases(seed):
            assert transpose(A) == A
            n = len(A)
            p, chain, bound = _squarefree_sturm(charpoly(A))
            for x in shifts:
                above, mult = inertia(A, x)
                assert (above > 0) == (sturm_count(chain, x, bound) > 0)
                shifted = mat_sub(tuple(tuple(x * e for e in row) for row in identity(n)), A)
                assert mult == n - len(rref(shifted)[1])
                assert (mult > 0) == (poly_eval(p, x) == 0)
                seen.add((above > 0, mult))
        # the cases reach x below, at and above the top eigenvalue, and
        # repeated eigenvalues
        assert {(True, 0), (True, 1), (False, 0), (False, 1)} <= seen
        assert any(mult > 1 for _, mult in seen)

    def test_zero_leading_pivot(self):
        # every diagonal entry of x*I - A is zero at x = 0: the congruence
        # step makes a pivot from the off-diagonal entry
        A = ((F(0), F(1)), (F(1), F(0)))
        assert inertia(A, F(0)) == (1, 0)
        assert inertia(A, F(1)) == (0, 1)
        assert inertia(A, F(-1)) == (1, 1)
        assert inertia(A, F(1, 2)) == (1, 0)
        assert inertia(A, F(3, 2)) == (0, 0)

    def test_zero_matrix(self):
        Z = ((F(0),) * 3,) * 3
        assert inertia(Z, F(0)) == (0, 3)
        assert inertia(Z, F(1)) == (0, 0)
        assert inertia(Z, F(-1)) == (3, 0)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(matseq, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(matseq, name, wrapper)
    return calls


DENSE = ((F(2), F(1), F(0)), (F(1), F(1), F(1)), (F(0), F(1), F(3)))


class TestLazyDirection:
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_powers_match_operator_norm(self, seed):
        rng = random.Random(seed)
        for _ in range(3):
            M = ((F(0),) * 3,) * 3
            while det(M) == 0:
                M = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
            seq = MatrixSequence.powers(M)
            for k in range(1, 21):
                t = seq.t(k)
                Mk = mat_pow(M, k)
                assert t == operator_norm(Mk)[0]
                # cross-check against the top root of the characteristic polynomial
                p, chain, bound = _squarefree_sturm(charpoly(mat_mul(transpose(Mk), Mk)))
                lo, hi = t.lo ** 2, t.hi ** 2
                assert sturm_count(chain, hi, bound) == 0
                assert sturm_count(chain, lo, bound) > 0 or poly_eval(p, lo) == 0

    def test_norm_and_direction_skip_charpoly(self, monkeypatch):
        charpolys = _counting(monkeypatch, "charpoly")
        seq = MatrixSequence.powers(DENSE)
        for k in range(1, 11):
            assert not seq.t(k).is_point()
            seq.v(k)
        assert charpolys == []

    def test_repeated_rational_top_value_gives_exact_direction(self):
        # M^T M has the double eigenvalue 25 with eigenspace spanned by
        # (0, 1, 0) and (3, 0, 4): no gap below it, but 25 is exact
        M = ((F(3), F(0), F(4)), (F(0), F(5), F(0)))
        seq = MatrixSequence.explicit([M])
        t = seq.t(1)
        assert t.lo <= 5 <= t.hi
        v = seq.v(1)
        assert all(e.is_point() for e in v)
        v = tuple(e.lo for e in v)
        assert v == (F(0), F(1), F(0))
        A = mat_mul(transpose(M), M)
        assert mat_vec(A, v) == tuple(25 * c for c in v)

    def test_repeated_irrational_top_value_raises(self):
        # blockdiag(B, B): the top eigenvalue (7 + sqrt(45))/2 of M^T M is double
        B = ((F(1), F(1)), (F(1), F(2)))
        Z = ((F(0), F(0)), (F(0), F(0)))
        M = tuple(a + b for a, b in zip(B, Z)) + tuple(a + b for a, b in zip(Z, B))
        seq = MatrixSequence.explicit([M])
        assert not seq.t(1).is_point()
        with pytest.raises(DegenerateDirection):
            seq.v(1)

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_direction_contains_exact_eigenvector(self, seed):
        # M = diag(d) Q^T with Q rational orthogonal: M^T M = Q diag(d^2) Q^T,
        # so for distinct |d| the top right singular direction is the
        # column of Q at max |d|
        rng = random.Random(seed)
        exact = set()
        for _ in range(20):
            n = rng.choice((2, 3))
            S = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    S[i][j] = F(rng.randint(-5, 5), rng.randint(1, 4))
                    S[j][i] = -S[i][j]
            Q = _rational_orthogonal(tuple(tuple(r) for r in S))
            d = [rng.choice((-1, 1)) * x for x in rng.sample(range(1, 10), n)]
            M = tuple(tuple(d[i] * Q[j][i] for j in range(n)) for i in range(n))
            top = max(range(n), key=lambda i: abs(d[i]))
            q = tuple(Q[j][top] for j in range(n))
            if next(c for c in q if c != 0) < 0:
                q = tuple(-c for c in q)
            _, v = operator_norm(M)
            assert all(e.lo <= c <= e.hi for e, c in zip(v, q))
            assert all(e.width < F(1, 10 ** 12) for e in v)
            exact.add(all(e.is_point() for e in v))
        # both the Davis-Kahan enclosure and the exact kernel vector are hit
        assert exact == {False, True}

    def test_bisection_when_rayleigh_guess_fails(self, monkeypatch):
        # a poor float eigenvector leaves [r, u] uncertified; inertia
        # bisection still encloses the top eigenvalue
        real = matseq._rayleigh

        def poor(G, E):
            w = real(G, E)[0]
            return w, (1,) + (0,) * (len(G) - 1), 1, F(G[0][0], E)

        monkeypatch.setattr(matseq, "_rayleigh", poor)
        A = mat_mul(transpose(DENSE), DENSE)
        lam, exact = matseq._top_eigenvalue(tuple(tuple(int(a) for a in row) for row in A), 1, 48)
        assert not exact and lam.lo > A[0][0]
        assert lam.width / lam.lo < F(1, 1 << 48)
        p, chain, bound = _squarefree_sturm(charpoly(A))
        assert sturm_count(chain, lam.hi, bound) == 0
        assert sturm_count(chain, lam.lo, bound) == 1

    @pytest.mark.parametrize("seq", [
        MatrixSequence.powers(((F(3),),)),
        MatrixSequence.powers(((F(-3),),)),
        MatrixSequence.powers(((F(-2, 7),),)),
        MatrixSequence.explicit([((F(5),),), ((F(-1, 3),),), ((F(-7, 2),),)]),
    ])
    def test_one_by_one_direction_matches_operator_norm(self, seq):
        for k in range(1, 4 if seq.finite else 9):
            assert seq.v(k) == operator_norm(seq.matrix(k))[1] == (Interval.point(1),)

    def test_one_by_one_direction_takes_no_square_root(self, monkeypatch):
        sqrts = _counting(monkeypatch, "sqrt_interval")
        seq = MatrixSequence.powers(((F(-3),),))
        seq.t(5)
        before = len(sqrts)
        seq.v(5)
        assert len(sqrts) == before

    def test_direction_reuses_cached_eigenvalue(self, monkeypatch):
        eigens = _counting(monkeypatch, "_top_eigenvalue")
        seq = MatrixSequence.powers(DENSE)
        t = seq.t(3)
        assert len(eigens) == 1
        v = seq.v(3)
        assert len(eigens) == 1
        assert (t, v) == operator_norm(mat_pow(DENSE, 3))


# ---------------------------------------------------------------------------
# Fraction references: the operator-norm path as it ran before the integer
# kernel, every entry a Fraction


def _reference_inertia(A, x):
    n = len(A)
    S = [[(x if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
    rest = list(range(n))
    above = 0
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
        if d < 0:
            above += 1
        rest.remove(k)
        for i in rest:
            f = S[i][k] / d
            if f:
                for j in rest:
                    S[i][j] -= f * S[k][j]
    return above, len(rest)


def _reference_rayleigh(A):
    arr = np.array([[float(x) for x in row] for row in A], dtype=float)
    s = max(1.0, np.abs(arr).max())
    w, V = np.linalg.eigh(arr / s)
    u = tuple(
        F(float(x)).limit_denominator(10 ** 17) for x in V[:, int(np.argmax(w))]
    )
    n = len(A)
    r = sum(u[i] * A[i][j] * u[j] for i in range(n) for j in range(n)) / norm2(u)
    return [float(x * s) for x in w], u, r


def _reference_top_eigenvalue(A, rel_bits):
    n = len(A)
    if all(A[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        lam = max(A[i][i] for i in range(n))
        return Interval.point(lam), True
    _, _, r = _reference_rayleigh(A)
    above, mult = _reference_inertia(A, r)
    if above == 0 and mult > 0:
        return Interval.point(r), True
    upper = r * (1 + F(1, 1 << rel_bits)) + F(1, 1 << (2 * rel_bits))
    if r > 0 and above > 0 and _reference_inertia(A, upper)[0] == 0:
        return Interval(r, upper), False
    lo, hi = F(0), max(sum(abs(a) for a in row) for row in A)
    for _ in range(4 * rel_bits + hi.numerator.bit_length()):
        mid = (lo + hi) / 2
        above, mult = _reference_inertia(A, mid)
        if above == 0 and mult > 0:
            return Interval.point(mid), True
        if above:
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) / lo < F(1, 1 << rel_bits):
            break
    return Interval(lo, hi), False


def _reference_gram_top_eigenvalue(M, rel_bits=48):
    if len(M) == 1:
        return Interval.point(norm2(M[0])), True
    return _reference_top_eigenvalue(mat_mul(transpose(M), M), rel_bits)


def _reference_top_direction(M, lam, exact):
    if len(M) == 1:
        t = sqrt_interval(lam.lo)
        return matseq._sign_normalized(tuple(Interval.point(x) / t for x in M[0]))
    A = mat_mul(transpose(M), M)
    n = len(A)
    x = lam.lo
    if not exact:
        w, u, r = _reference_rayleigh(A)
        g = F((w[-1] + w[-2]) / 2)
        if g < r and _reference_inertia(A, g) == (1, 0):
            uu = norm2(u)
            res = norm2(tuple(a - r * b for a, b in zip(mat_vec(A, u), u)))
            eps = sqrt_interval(2 * res / (uu * (r - g) ** 2)).hi
            nrm = sqrt_interval(uu)
            return matseq._sign_normalized(
                tuple(Interval.point(c) / nrm + Interval(-eps, eps) for c in u)
            )
        q = math.lcm(*(a.denominator for row in A for a in row))
        x = F(round(F(w[-1]) * q), q)
        above, mult = _reference_inertia(A, x)
        if above or not mult:
            raise DegenerateDirection("no gap and no exact top eigenvalue")
    basis = kernel_basis(
        mat_sub(A, tuple(tuple(x if i == j else F(0) for j in range(n)) for i in range(n)))
    )
    if not basis:
        raise DegenerateDirection("exact eigenvalue with empty kernel")
    nrm = sqrt_interval(norm2(basis[0]))
    return matseq._sign_normalized(tuple(Interval.point(c) / nrm for c in basis[0]))


def _reference_norm(M):
    """(t, v) of M by the Fraction reference; v is the exception class when
    the direction is degenerate."""
    lam, exact = _reference_gram_top_eigenvalue(M)
    try:
        v = _reference_top_direction(M, lam, exact)
    except DegenerateDirection:
        v = DegenerateDirection
    return matseq._singular_value(lam, exact), v


def _direction(seq, k):
    try:
        return seq.v(k)
    except DegenerateDirection:
        return DegenerateDirection


def _random_base(rng, n, den):
    """Nonsingular n x n matrix, entries p/q with |p| <= 3 and q <= den."""
    while True:
        M = tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n))
            for _ in range(n)
        )
        if det(M) != 0:
            return M


def _inertia_cases(seed):
    """(A, shifts): the Sturm cases, plus zero-diagonal A (every diagonal
    entry of x*I - A is zero at x = 0: the congruence branch), singular
    B B^T, and rational A, each at shifts with large denominators."""
    rng = random.Random(f"inertia:{seed}")
    cases = _symmetric_cases(seed)
    big = [F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25)) for _ in range(4)]
    for _ in range(8):
        n = rng.choice((2, 3, 4))
        A = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = A[j][i] = F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3))
        A = tuple(tuple(r) for r in A)
        cases.append((A, [F(0), F(0), A[0][1], -A[0][1]] + big))
    for _ in range(8):
        n = rng.choice((3, 4))
        B = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)] for _ in range(n)]
        A = mat_mul(tuple(map(tuple, B)), transpose(tuple(map(tuple, B))))
        cases.append((A, [F(0), A[0][0], A[n - 1][n - 1]] + big))
    return cases


class TestIntegerKernel:
    """The integer kernel against the Fraction references it replaced."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_inertia_matches_fraction_reference(self, seed):
        seen = set()
        for A, shifts in _inertia_cases(seed):
            for x in shifts:
                got = inertia(A, x)
                assert got == _reference_inertia(A, x), (A, x)
                seen.add(got)
        assert {(0, 0), (1, 0), (0, 1), (1, 1)} <= seen
        assert any(mult > 1 for _, mult in seen)

    def test_congruence_branch_on_integers(self):
        # at x = 0 every diagonal entry is zero: a congruence makes the pivot
        # 2*S[0][1] = -4, and after two pivots the second block needs a
        # congruence again, carrying the previous Bareiss pivot through
        A = ((F(0), F(2), F(0), F(0)), (F(2), F(0), F(0), F(0)),
             (F(0), F(0), F(0), F(5)), (F(0), F(0), F(5), F(0)))
        for x in (F(0), F(2), F(-5), F(5), F(10 ** 40 + 1, 10 ** 39)):
            assert inertia(A, x) == _reference_inertia(A, x)
        assert inertia(A, F(0)) == (2, 0)

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_rayleigh_matches_fraction_reference(self, seed):
        rng = random.Random(f"rayleigh:{seed}")
        for _ in range(10):
            n = rng.choice((2, 3))
            N, D = matseq._integer_form(_random_base(rng, n, rng.choice((1, 6))))
            G, E = matseq._product(transpose(N), N), D * D
            w, a, c, r = matseq._rayleigh(G, E)
            A = tuple(tuple(F(g, E) for g in row) for row in G)
            assert (w, tuple(F(x, c) for x in a), r) == _reference_rayleigh(A)

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_norms_and_directions_match_fraction_reference(self, seed):
        rng = random.Random(f"norms:{seed}")
        kinds = set()

        def check(seq, k, Mk):
            t, v = seq.t(k), _direction(seq, k)
            assert (t, v) == _reference_norm(Mk), (Mk, k)
            kinds.add(v if v is DegenerateDirection else all(e.is_point() for e in v))

        bases = [_random_base(rng, 3, 1) for _ in range(2)]
        bases += [_random_base(rng, n, 3) for n in (2, 3)]
        for M in bases:
            seq = MatrixSequence.powers(M)
            for k in range(1, 21):
                Mk = mat_pow(M, k)
                assert seq.matrix(k) == Mk
                check(seq, k, Mk)
        rows = [
            tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)) for _ in range(4)
        ]
        seq = MatrixSequence.rows([r for r in rows if any(r)])
        for k in range(1, len(seq) + 1):
            check(seq, k, seq.matrix(k))
        # an exact top eigenvalue found by the Rayleigh quotient, one found by
        # rounding when there is no gap, and a repeated irrational one
        B = ((F(1), F(1), F(0), F(0)), (F(1), F(2), F(0), F(0)))
        for M in (
            ((F(2), F(1)), (F(1), F(2))),
            ((F(3), F(0), F(4)), (F(0), F(5), F(0))),
            B + tuple(r[2:] + r[:2] for r in B),
        ):
            check(MatrixSequence.explicit([M]), 1, M)
        assert kinds == {True, False, DegenerateDirection}

    def test_determinant_matches_leibniz(self):
        rng = random.Random("determinant")

        def leibniz(M):
            n, total = len(M), F(0)
            for perm in permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
            return total

        for _ in range(40):
            n = rng.choice((1, 2, 3, 4))
            M = tuple(
                tuple(F(rng.choice((0, rng.randint(-5, 5))), rng.randint(1, 6)) for _ in range(n))
                for _ in range(n)
            )
            assert det(M) == leibniz(M)

    def test_powers_stay_in_integers(self, monkeypatch):
        # t(k) never builds a Fraction matrix product, and the elimination
        # kernel sees only int entries
        products = _counting(monkeypatch, "mat_mul")
        steps = []
        real = matseq._bareiss_step

        def checked(X, rest, k, prev):
            assert type(prev) is int
            assert all(type(e) is int for row in X for e in row)
            steps.append(k)
            return real(X, rest, k, prev)

        monkeypatch.setattr(matseq, "_bareiss_step", checked)
        seq = MatrixSequence.powers(DENSE)
        for k in range(1, 31):
            seq.t(k)
        assert products == []
        assert steps


# ---------------------------------------------------------------------------
# Fraction references: charpoly and the spectral test as they ran before the
# integer Faddeev-LeVerrier and the Kronecker square, through the resultant
# Res_x(p(x), x^d p(y/x)) of Sylvester determinants and Newton interpolation


def _reference_charpoly(A):
    n = len(A)
    cs, Mk = [F(1)], identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, Mk)
        ck = -sum(AM[i][i] for i in range(n)) / k
        cs.append(ck)
        Mk = tuple(tuple(AM[i][j] + (ck if i == j else 0) for j in range(n)) for i in range(n))
    return list(reversed(cs))


def _reference_determinant(M):
    """Bareiss elimination of M with each row scaled by its lcm denominator."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in M]
    X = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(M, scales)]
    n, sign, prev = len(X), 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if X[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            X[c], X[pivot] = X[pivot], X[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                X[i][j] = (X[c][c] * X[i][j] - X[i][c] * X[c][j]) // prev
        prev = X[c][c]
    return F(sign * prev, math.prod(scales))


def _reference_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _reference_modulus_squared_poly(p):
    """Res_x(p(x), x^d p(y/x)) for p without zero roots: its real roots
    include every |z|^2 over the roots z of p."""
    d = len(p) - 1

    def sylvester_det_at(y):
        q = [p[d - j] * y ** (d - j) for j in range(d + 1)]
        rows = tuple(
            tuple(c[d - j + i] if 0 <= j - i <= d else F(0) for j in range(2 * d))
            for c in (p, q) for i in range(d)
        )
        return _reference_determinant(rows)

    xs = [F(i) for i in range(d * d + 1)]
    table = [sylvester_det_at(x) for x in xs]
    # Newton divided differences, then the Newton form expanded
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - j])
    poly, basis = [F(0)] * len(xs), [F(1)]
    for x, c in zip(xs, table):
        for i, b in enumerate(basis):
            poly[i] += c * b
        basis = _reference_poly_mul(basis, [-x, F(1)])
    return poly_trim(poly)


def _reference_spectral_radius_gt_one(M):
    p = _reference_charpoly(M)
    while p and p[0] == 0:
        p = p[1:]
    if len(p) <= 1:
        return False
    s = _reference_modulus_squared_poly(p)
    one = F(1)
    while poly_eval(s, one) == 0:
        s, _ = poly_divmod(s, [-one, F(1)])
        if len(s) <= 1:
            break
    if len(s) <= 1:
        return False
    return sturm_count(sturm_chain(s), one, cauchy_bound(s) + 1) > 0


def _kronecker_square(M):
    return tuple(tuple(a * b for a in ra for b in rb) for ra in M for rb in M)


# (matrix, spectral radius > 1): a rational rotation, a rotation and a
# unipotent in 3-D, a Jordan block at -1, a nilpotent, and diag(2, 1/2)
SPECTRAL_CONTROLS = [
    (((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))), False),
    (((F(0), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))), False),
    (((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1))), False),
    (((F(-1), F(1), F(0)), (F(0), F(-1), F(1)), (F(0), F(0), F(-1))), False),
    (((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(0), F(0), F(0))), False),
    (((F(2), F(0)), (F(0), F(1, 2))), True),
]


def _spectral_cases(seed, count=800):
    """n x n matrices, n = 1..4 (mostly small), with entries p/q, |p| <= 1,
    2 or 3 and q <= 1, 2, 3 or 5: expanding, non-expanding and singular."""
    rng = random.Random(f"spectral:{seed}")
    cases = []
    for _ in range(count):
        n = rng.choice((1, 2, 2, 2, 3, 3, 3, 4))
        p, q = rng.choice((1, 2, 3)), rng.choice((1, 1, 2, 3, 5))
        cases.append(tuple(
            tuple(F(rng.randint(-p, p), rng.randint(1, q)) for _ in range(n)) for _ in range(n)
        ))
    return cases


class TestSpectralAgainstResultant:
    """charpoly and spectral_radius_gt_one against the Fraction references
    they replaced."""

    def test_controls(self):
        for M, expanding in SPECTRAL_CONTROLS:
            assert spectral_radius_gt_one(M) is expanding, M
            assert _reference_spectral_radius_gt_one(M) is expanding, M

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_matches_fraction_reference(self, seed):
        seen = []
        for M in _spectral_cases(seed) + [M for M, _ in SPECTRAL_CONTROLS]:
            assert charpoly(M) == _reference_charpoly(M), M
            got = spectral_radius_gt_one(M)
            assert got == _reference_spectral_radius_gt_one(M), M
            seen.append((len(M), any(x.denominator > 1 for row in M for x in row), got))
        # every size, integer and rational entries, both answers
        assert {n for n, _, _ in seen} == {1, 2, 3, 4}
        assert {(r, g) for _, r, g in seen} == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_kronecker_square_is_the_resultant(self, seed):
        # with its roots at 0 removed, charpoly(M (x) M) is the resultant up
        # to a constant factor
        for M in _spectral_cases(seed, 200) + [M for M, _ in SPECTRAL_CONTROLS]:
            s = charpoly(_kronecker_square(M))
            while s[0] == 0:
                s = s[1:]
            p = _reference_charpoly(M)
            while p[0] == 0 and len(p) > 1:
                p = p[1:]
            res = _reference_modulus_squared_poly(p)
            assert [c * res[-1] for c in s] == res, M


class TestMatrixSequence:
    def test_powers_norm(self):
        seq = MatrixSequence.powers(((F(3),),))
        assert not seq.finite
        for k in (1, 2, 5):
            t = seq.t(k)
            assert t.lo <= F(3) ** k <= t.hi

    def test_rows_finite(self):
        seq = MatrixSequence.rows([(1,), (5,), (29,)])
        assert seq.finite and len(seq) == 3
        assert seq.t(2).lo <= F(5) <= seq.t(2).hi

    def test_image_matches_mat_vec_and_checks_length(self):
        rng = random.Random(5)
        for seq in (
            MatrixSequence.powers(((F(2, 3), F(1)), (F(-1, 5), F(3)))),
            MatrixSequence.explicit([((F(1, 2), F(0), F(7)),), ((F(3), F(-1, 9), F(1)),)]),
        ):
            n = len(seq.matrix(1)[0])
            for k in (1, 2):
                x = tuple(F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(n))
                assert seq.image(k, x) == mat_vec(seq.matrix(k), x)
            for bad in (x[:-1], x + (F(1),)):
                with pytest.raises(DimensionMismatch):
                    seq.image(1, bad)

    def test_explicit(self):
        seq = MatrixSequence.explicit([((F(2),),), ((F(8),),)])
        assert seq.matrix(2) == ((F(8),),)

    def test_finite_integer_pairs_built_once(self, monkeypatch):
        # every (N, D) pair is built at construction; image and t reuse it.
        # t's Rayleigh quotient still scales its own float vector through
        # _integer_form, so only calls on a matrix of the sequence count
        mats = [((F(1, 2), F(3)), (F(-2, 7), F(5))), ((F(2), F(0)), (F(1), F(1, 3)))]
        seq = MatrixSequence.explicit(mats)
        calls = []
        real = matseq._integer_form

        def counting(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(matseq, "_integer_form", counting)
        x = (F(1), F(1, 4))
        for _ in range(5):
            for k in (1, 2):
                assert seq.image(k, x) == mat_vec(seq.matrix(k), x)
                seq.t(k)
        assert [M for M in calls if M in mats] == []
        with pytest.raises(IndexError):
            seq.image(0, (F(1), F(1)))


class TestLacunarity:
    def test_power_of_three(self):
        rep = analyze_lacunarity(MatrixSequence.powers(((F(3),),)), 40)
        assert rep.lacunary is True
        assert rep.decomposition == (1, 1)
        assert rep.Q is not None and rep.Q > 2

    def test_diag_2_3(self):
        rep = analyze_lacunarity(
            MatrixSequence.powers(((F(2), F(0)), (F(0), F(3)))), 40
        )
        assert rep.lacunary is True
        assert rep.Q > 2

    def test_rotation_not_lacunary(self):
        rep = analyze_lacunarity(MatrixSequence.powers(ROTATION_90), 40)
        assert rep.lacunary is False

    def test_unipotent_not_lacunary(self):
        rep = analyze_lacunarity(MatrixSequence.powers(UNIPOTENT), 40)
        assert rep.lacunary is False

    def test_finite_rows(self):
        rep = analyze_lacunarity(MatrixSequence.rows([(1,), (5,), (29,), (169,)]), 40)
        assert rep.lacunary is True
        assert rep.Q >= 5

    def test_decomposition_certified(self):
        # mixed-growth block: certified residue decomposition, exact recheck
        M = ((F(2), F(1)), (F(1), F(1)))
        seq = MatrixSequence.powers(M)
        rep = analyze_lacunarity(seq, 30)
        ell, N = rep.decomposition
        assert rep.Q > 1
        for k in range(N, 30 - ell + 1):
            assert seq.t(k + ell).lo / seq.t(k).hi >= rep.Q


class TestKronecker:
    def test_known_orders(self):
        assert kronecker_order(identity(2)) == 1
        assert kronecker_order(((F(-1), F(0)), (F(0), F(-1)))) == 2
        assert kronecker_order(ROTATION_90) == 4
        assert kronecker_order(((F(0), F(-1)), (F(1), F(-1)))) == 3
        assert kronecker_order(((F(0), F(-1)), (F(1), F(1)))) == 6
        assert kronecker_order(UNIPOTENT) == 1

    def test_precondition_failures(self):
        assert kronecker_order(((F(2),),)) is None
        assert kronecker_order(((F(0), F(0)), (F(0), F(0)))) is None

    def test_unipotent_power_identity(self):
        for M in (ROTATION_90, ((F(0), F(-1)), (F(1), F(-1)))):
            N = kronecker_order(M)
            P = mat_pow(M, N)
            D = mat_sub(P, identity(2))
            assert mat_mul(D, D) == ((F(0), F(0)), (F(0), F(0)))


class TestInvariantHyperplane:
    def test_exact_invariance(self):
        M = ROTATION_90
        N = kronecker_order(M)
        normal, separation = invariant_hyperplane_family(M, N)
        U = transpose(mat_pow(M, N))
        assert mat_vec(U, normal) == normal
        assert separation.lo > 0

    def test_rejects_non_unipotent_power(self):
        with pytest.raises(ValueError):
            invariant_hyperplane_family(((F(2),),), 1)


class TestJordanDominance:
    def test_single_blocks(self):
        for lam, size in ((F(2), 2), (F(3), 3)):
            J = tuple(
                tuple(
                    lam if i == j else (F(1) if j == i + 1 else F(0))
                    for j in range(size)
                )
                for i in range(size)
            )
            out = jordan_dominance_check(J, 60)
            assert out["ok"]

    def test_rejects_non_block(self):
        with pytest.raises(ValueError):
            jordan_dominance_check(((F(2), F(0)), (F(0), F(3))), 60)
