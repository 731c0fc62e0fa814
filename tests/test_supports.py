"""Support models: decay parameters, IFS attractors, candidate centers."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Tuple

import pytest

from schmidtgame.geometry import Ball, Vec, as_vec, dist2, schmidt_leq, vadd, vscale
from schmidtgame.supports import (
    DecayParams,
    ParameterError,
    Similarity,
    SupportError,
    SupportModel,
    _IntegerIFS,
    ball_grid,
    candidate_centers,
    epsilon_for,
    estimate_decay,
    grid_step,
    max_alpha,
    pointwise_dim_lower,
)


def lebesgue_line():
    return SupportModel.euclidean(1, DecayParams(C=F(1), gamma=F(1), ambient_dim=1))


def cantor_set():
    maps = [
        Similarity(F(1, 3), (F(0),)),
        Similarity(F(1, 3), (F(2, 3),)),
    ]
    decay = DecayParams(C=F(33, 16), gamma=F(5, 8), ambient_dim=1)
    return SupportModel.ifs(maps, (F(0),), (F(1),), decay)


def unequal_ifs():
    """Two maps with ratios 1/3 and 1/2: images [0, 1/3] and [1/2, 1]."""
    maps = [
        Similarity(F(1, 3), (F(0),)),
        Similarity(F(1, 2), (F(1, 2),)),
    ]
    return SupportModel.ifs(maps, (F(0),), (F(1),), DecayParams(C=F(4), gamma=F(1, 2)))


def corner_ifs():
    """A 2-D IFS whose two image boxes touch at the corner (1/2, 1/2)."""
    maps = [
        Similarity(F(1, 2), (F(0), F(0))),
        Similarity(F(1, 2), (F(1, 2), F(1, 2))),
    ]
    decay = DecayParams(C=F(4), gamma=F(1, 2), ambient_dim=2)
    return SupportModel.ifs(maps, (F(0), F(0)), (F(1), F(1)), decay)


def mixed_den_ifs():
    """A 2-D IFS whose box and translation denominators (5, 20, 7, 3) differ
    from its ratios' (4, 3): images [1/5, 9/20] x [1/7, 11/28] and
    [13/15, 6/5] x [2/3, 1] of the box [1/5, 6/5] x [0, 1]."""
    maps = [
        Similarity(F(1, 4), (F(3, 20), F(1, 7))),
        Similarity(F(1, 3), (F(4, 5), F(2, 3))),
    ]
    decay = DecayParams(C=F(4), gamma=F(1, 2), ambient_dim=2)
    return SupportModel.ifs(maps, (F(1, 5), F(0)), (F(6, 5), F(1)), decay)


class TestDecayParams:
    def test_max_alpha_frozen(self):
        assert max_alpha(DecayParams(C=F(1), gamma=F(1), ambient_dim=1)) == F(1, 3)
        assert max_alpha(DecayParams(C=F(2), gamma=F(1), ambient_dim=1)) == F(1, 5)

    def test_epsilon_frozen(self):
        d1 = DecayParams(C=F(1), gamma=F(1), ambient_dim=1)
        assert epsilon_for(d1, F(1, 4)) == F(1, 3)
        d2 = DecayParams(C=F(2), gamma=F(1), ambient_dim=1)
        assert epsilon_for(d2, F(9, 50)) == F(5, 41)

    def test_epsilon_positive_below_bound(self):
        d = DecayParams(C=F(1), gamma=F(1), ambient_dim=1)
        for num in range(1, 33):
            a = F(num, 100)
            assert 0 < epsilon_for(d, a) < 1

    def test_validation(self):
        with pytest.raises(Exception):
            DecayParams(C=F(0), gamma=F(1), ambient_dim=1)


class TestEuclideanSupport:
    def test_on_support_everywhere(self):
        K = lebesgue_line()
        assert K.on_support((F(22, 7),))

    def test_candidate_centers_contained(self):
        K = lebesgue_line()
        ball = Ball((F(0),), F(1))
        alpha = F(1, 4)
        cands = candidate_centers(K, ball, alpha)
        assert cands
        span2 = (1 - alpha) ** 2
        for u in cands:
            assert dist2(u, ball.center) <= span2

    @staticmethod
    def _product_grid(n, ball, alpha):
        """The Euclidean candidate mesh built point by point."""
        rho = ball.radius
        reach2 = ((1 - alpha) * rho) ** 2
        root_n = 1 if n == 1 else 2  # ceil(sqrt(n)) for n <= 4
        step = alpha * rho / 4 / root_n
        span = math.floor((1 - alpha) * rho / step)
        out = []
        for z in itertools.product(*[range(-span, span + 1)] * n):
            off = tuple(step * zi for zi in z)
            if sum(o * o for o in off) <= reach2:
                out.append(vadd(ball.center, off))
        return sorted(out)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_candidate_centers_match_product_grid(self, n):
        K = SupportModel.euclidean(n, DecayParams(C=F(1), gamma=F(1), ambient_dim=n))
        # the 3-D mesh at alpha = 9/50 has about 200k points; one alpha is enough
        for alpha in (F(9, 50), F(1, 4), F(1, 3)) if n < 3 else (F(1, 3),):
            for center, rho in (((F(0),) * n, F(1)), ((F(1, 3),) * n, F(2, 7 * 10 ** 30))):
                ball = Ball(center, rho)
                got = candidate_centers(K, ball, alpha)
                assert got == self._product_grid(n, ball, alpha)

    @staticmethod
    def _one_shot_grid(n, step, span):
        """ball_grid's arrays built from the whole cube at once."""
        import numpy as np

        m = int(span / step)
        axis = np.arange(-m, m + 1)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = pts.astype(float) * float(step)
        keep = (w * w).sum(axis=1) <= float(span) ** 2 + 1e-12
        pts, w = pts[keep], w[keep]
        inside = (pts * pts).sum(axis=1) <= math.floor((span / step) ** 2)
        return pts, w, inside

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ball_grid_matches_one_shot_build(self, n):
        for alpha in (F(9, 50), F(1, 4), F(1, 5)) if n < 3 else (F(9, 50),):
            step, span = grid_step(alpha, n), 1 - alpha
            got = ball_grid(n, step, span)
            want = self._one_shot_grid(n, step, span)
            for g, x in zip(got, want):
                assert g.dtype == x.dtype and g.shape == x.shape
                assert g.flags.c_contiguous
                assert g.tobytes() == x.tobytes()


class TestCantorSupport:
    def test_membership(self):
        K = cantor_set()
        assert K.on_support((F(1, 4),))
        assert K.on_support((F(1, 3),))
        assert K.on_support((F(3, 4),))
        assert not K.on_support((F(1, 2),))
        assert not K.on_support((F(2),))

    def test_open_set_condition_enforced(self):
        maps = [
            Similarity(F(2, 3), (F(0),)),
            Similarity(F(2, 3), (F(1, 3),)),
        ]
        with pytest.raises(Exception):
            SupportModel.ifs(
                maps,
                (F(0),),
                (F(1),),
                DecayParams(C=F(1), gamma=F(1), ambient_dim=1),
            )

    def test_candidate_centers_are_code_words(self):
        K = cantor_set()
        ball = Ball((F(1, 4),), F(1, 10))
        cands = candidate_centers(K, ball, F(1, 9))
        assert cands
        for (u,) in cands:
            # finite base-3 expansion using only digits 0 and 2
            x = u
            for _ in range(80):
                if x == 0:
                    break
                d = int(3 * x)
                assert d in (0, 2)
                x = 3 * x - d
            assert x == 0

    def test_nearest_on_support(self):
        K = cantor_set()
        cells = K.cells_meeting_ball(Ball((F(1, 2),), F(1, 4)), F(1, 100))
        (u,) = min((K.point(c) for c in cells), key=lambda p: abs(p[0] - F(1, 2)))
        assert K.on_support((u,))
        assert abs(u - F(1, 2)) < F(1, 4)


# -- the Fraction cell walk the integer kernel replaced, kept as reference --


@dataclass(frozen=True)
class _RefCell:
    """Image of the bounding box under a word of similarities."""

    word: Tuple[int, ...]
    scale: F  # product of ratios along the word
    shift: Vec  # accumulated translation

    def apply(self, x):
        return vadd(vscale(self.scale, x), self.shift)

    def child(self, branch, maps):
        m = maps[branch]
        return _RefCell(
            word=self.word + (branch,),
            scale=self.scale * m.ratio,
            shift=vadd(vscale(self.scale, m.translation), self.shift),
        )


def _ref_root(K):
    return _RefCell(word=(), scale=F(1), shift=(F(0),) * K.dim)


def _ref_cell(K, word):
    cell = _ref_root(K)
    for b in word:
        cell = cell.child(b, K.maps)
    return cell


def _ref_box_dist2(lo, hi, x):
    total = F(0)
    for a, b, xi in zip(lo, hi, x):
        if xi < a:
            d = a - xi
        elif xi > b:
            d = xi - b
        else:
            continue
        total += d * d
    return total


def _ref_cell_dist2(K, cell, x):
    return _ref_box_dist2(cell.apply(K.box_lo), cell.apply(K.box_hi), x)


def _ref_base_point(K):
    m = K.maps[0]
    return tuple(t / (1 - m.ratio) for t in m.translation)


def _reference_cells(K, ball, mesh):
    """cells_meeting_ball as a walk from the root on every query."""
    r2 = ball.radius ** 2
    diam2 = dist2(K.box_lo, K.box_hi)
    out = []
    stack = [_ref_root(K)]
    while stack:
        cell = stack.pop()
        if _ref_cell_dist2(K, cell, ball.center) > r2:
            continue
        if cell.scale ** 2 * diam2 <= mesh ** 2:
            out.append(cell)
        else:
            stack.extend(cell.child(b, K.maps) for b in range(len(K.maps)))
    return out


def _reference_descend_toward(K, cell, x, extra_depth):
    for _ in range(extra_depth):
        best = None
        best_d = None
        for b in range(len(K.maps)):
            child = cell.child(b, K.maps)
            d = _ref_cell_dist2(K, child, x)
            if best_d is None or d < best_d:
                best, best_d = child, d
        cell = best
        if best_d == 0 and cell.apply(_ref_base_point(K)) == x:
            break
    return cell


def _reference_candidate_centers(K, ball, alpha):
    """The IFS branch of candidate_centers in Fraction arithmetic."""
    reach2 = ((1 - alpha) * ball.radius) ** 2
    base = _ref_base_point(K)
    out = []
    for cell in _reference_cells(K, ball, alpha * ball.radius / 4):
        if _ref_cell_dist2(K, cell, ball.center) > reach2:
            continue
        p = cell.apply(base)
        if dist2(p, ball.center) > reach2:
            p = _reference_descend_toward(K, cell, ball.center, 64).apply(base)
            if dist2(p, ball.center) > reach2:
                continue
        out.append(p)
    return sorted(set(out))


def _reference_inverse_walk(K, x):
    """on_support as a Fraction walk through the inverse maps."""
    x = as_vec(x)
    inverses = [(1 / m.ratio, m.translation) for m in K.maps]
    stack = [(x, 0)]
    while stack:
        y, depth = stack.pop()
        if any(yi < a or yi > b for yi, a, b in zip(y, K.box_lo, K.box_hi)):
            continue
        if depth >= K.resolution_depth:
            return True
        for inv, t in inverses:
            stack.append((tuple((yi - ti) * inv for yi, ti in zip(y, t)), depth + 1))
    return False


def _reference_on_support(K, x):
    """on_support as a forward walk over cell boxes, down to the same depth."""
    x = as_vec(x)
    stack = [_ref_root(K)]
    while stack:
        cell = stack.pop()
        if _ref_cell_dist2(K, cell, x) > 0:
            continue
        if len(cell.word) >= K.resolution_depth:
            return True
        stack.extend(cell.child(b, K.maps) for b in range(len(K.maps)))
    return False


def _same_cells(K, got, ref):
    """Integer cells and reference cells agree word by word and point by point."""
    base = _ref_base_point(K)
    return [c.word for c in got] == [c.word for c in ref] and [
        K.point(c) for c in got
    ] == [c.apply(base) for c in ref]


def _queries(K, rng, rounds):
    """Seeded (ball, mesh, resumes) triples.  Most balls lie inside the
    previous one with a mesh no coarser; now and then the next ball is
    shifted out of the previous one, or the mesh gets coarser, and the walk
    must start again from the root."""
    word = [rng.randrange(len(K.maps)) for _ in range(60)]
    ball = Ball(K.cell_point(word), F(1, 2))
    mesh = ball.radius / 36
    out = [(ball, mesh, False)]
    for _ in range(rounds):
        u = rng.random()
        if u < 0.1:
            shift = (ball.radius / 2,) + (F(0),) * (K.dim - 1)
            ball = Ball(vadd(ball.center, shift), ball.radius)
            resumes = False
        elif u < 0.2:
            mesh = 2 * mesh
            resumes = False
        else:
            radius = ball.radius / rng.choice([1, 2, 3, 4, 9])
            slack = ball.radius - radius
            # |q_i| <= 5/8 keeps the shift within the slack for dim <= 2
            shift = tuple(slack * F(rng.randrange(-5, 6), 8) for _ in range(K.dim))
            ball = Ball(vadd(ball.center, shift), radius)
            mesh = min(mesh, radius / rng.choice([4, 8, 36]))
            resumes = True
        out.append((ball, mesh, resumes))
    return out


class TestResumedWalk:
    @pytest.mark.parametrize("make", [cantor_set, unequal_ifs])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_walk_from_root(self, make, seed, monkeypatch):
        K = make()
        roots = []
        root_cell = K.root_cell
        monkeypatch.setattr(K, "root_cell", lambda: roots.append(1) or root_cell())
        prev = None
        queries = _queries(K, random.Random(seed), 40)
        assert 0 < sum(q[2] for q in queries) < len(queries) - 1
        for ball, mesh, resumes in queries:
            if resumes:
                assert schmidt_leq(ball, prev[0]) and mesh <= prev[1]
            elif prev is not None:
                assert not (schmidt_leq(ball, prev[0]) and mesh <= prev[1])
            before = len(roots)
            got = K.cells_meeting_ball(ball, mesh)
            assert _same_cells(K, got, _reference_cells(K, ball, mesh))
            assert (len(roots) == before) == resumes
            prev = (ball, mesh)

    def test_repeated_query_is_stable(self):
        K = cantor_set()
        ball = Ball((F(1, 4),), F(1, 10))
        first = K.cells_meeting_ball(ball, F(1, 500))
        assert K.cells_meeting_ball(ball, F(1, 500)) == first
        assert _same_cells(K, first, _reference_cells(K, ball, F(1, 500)))

    def test_cells_visited_per_call_stay_bounded(self, monkeypatch):
        """Nested queries down to depth 80 visit as few cells per call as the
        first ones do; one walk from the root at that depth visits 183."""
        visits = [0]
        box_gap2 = _IntegerIFS.box_gap2

        def counting(self, cell, X, D):
            visits[0] += 1
            return box_gap2(self, cell, X, D)

        monkeypatch.setattr(_IntegerIFS, "box_gap2", counting)
        K = cantor_set()
        x = K.cell_point([0, 1, 1] * 30)
        ball = Ball(x, F(1, 2))
        per_call = []
        for _ in range(80):
            visits[0] = 0
            K.cells_meeting_ball(ball, ball.radius / 36)
            per_call.append(visits[0])
            ball = Ball(x, ball.radius / 3)
        visits[0] = 0
        cantor_set().cells_meeting_ball(ball, ball.radius / 36)
        assert max(per_call[1:]) == max(per_call[60:]) == 22
        assert visits[0] == 183


class TestMembershipByInverseMaps:
    @pytest.mark.parametrize("make", [cantor_set, unequal_ifs, corner_ifs, mixed_den_ifs])
    def test_matches_forward_walk(self, make):
        K = make()
        rng = random.Random(7)
        xs = []
        for _ in range(150):
            word = [rng.randrange(len(K.maps)) for _ in range(rng.randrange(1, 30))]
            p = K.cell_point(word)
            eps = F(1, rng.choice([3, 2, 6]) ** rng.randrange(1, 25))
            xs += [p, tuple(pi + eps for pi in p), tuple(pi - eps for pi in p)]
            xs.append(tuple(F(rng.randrange(-10, 111), 100) for _ in range(K.dim)))
            xs.append(tuple(F(rng.randrange(0, 3 ** 6 + 1), 3 ** 6) for _ in range(K.dim)))
        for x in xs:
            assert K.on_support(x) == _reference_on_support(K, x), x
            assert K.on_support(x) == _reference_inverse_walk(K, x), x
        assert any(K.on_support(x) for x in xs)
        assert not all(K.on_support(x) for x in xs)

    def test_box_edges(self):
        K = cantor_set()
        for x in (0, 1, F(1, 3), F(2, 3), F(1, 9), F(8, 9), F(1, 2), F(-1, 3), F(4, 3)):
            assert K.on_support((F(x),)) == _reference_on_support(K, (F(x),))
            assert K.on_support((F(x),)) == _reference_inverse_walk(K, (F(x),))
        assert K.on_support((F(1, 3),)) and K.on_support((F(2, 3),))
        C = corner_ifs()
        assert C.on_support((F(1, 2), F(1, 2)))
        assert not C.on_support((F(1, 2), F(1, 4)))

    def test_depth_limited_gap_is_unchanged(self):
        """1/4 + 3^-30 is off the Cantor set but inside the depth-20 cell
        around 1/4, so the depth-20 test accepts it, as it did before."""
        K = cantor_set()
        x = (F(1, 4) + F(1, 3 ** 30),)
        assert K.on_support(x) is True
        assert _reference_on_support(K, x) is True
        assert _reference_inverse_walk(K, x) is True


def _int_cell(K, word):
    cell = K.root_cell()
    for b in word:
        cell = K._ints.child(cell, b)
    return cell


class TestIntegerKernel:
    """The integer cell kernel gives the Fraction walk's words, points and
    membership answers."""

    MAKERS = [cantor_set, unequal_ifs, corner_ifs, mixed_den_ifs]

    def test_integer_form(self):
        ints = mixed_den_ifs()._ints
        assert ints.L == 420
        assert ints.p == (105, 140)
        assert ints.tau == ((63, 60), (336, 280))
        assert (ints.lo, ints.hi) == ((84, 0), (504, 420))
        assert ints.power(3) == 420 ** 3
        assert cantor_set()._ints.L == 3

    def test_translation_dimension_checked(self):
        maps = [Similarity(F(1, 3), (F(0), F(0))), Similarity(F(1, 3), (F(2, 3),))]
        decay = DecayParams(C=F(33, 16), gamma=F(5, 8), ambient_dim=1)
        with pytest.raises(ParameterError, match="translation 0 has dimension 2"):
            SupportModel.ifs(maps, (F(0),), (F(1),), decay)

    @pytest.mark.parametrize("make", MAKERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_walk_and_candidates(self, make, seed):
        K = make()
        rng = random.Random(seed)
        for ball, mesh, _ in _queries(K, rng, 12):
            got = K.cells_meeting_ball(ball, mesh)
            assert _same_cells(K, got, _reference_cells(K, ball, mesh))
        for _ in range(12):
            # a ball whose center is within radius/4 of a point of K
            word = [rng.randrange(len(K.maps)) for _ in range(rng.randrange(20, 60))]
            radius = F(1, rng.choice([2, 3, 5])) ** rng.randrange(1, 15)
            off = tuple(radius * F(rng.randrange(-1, 2), 8) for _ in range(K.dim))
            ball = Ball(vadd(K.cell_point(word), off), radius)
            alpha = F(1, rng.choice([5, 9, 20]))
            ref = _reference_candidate_centers(K, ball, alpha)
            assert ref and candidate_centers(K, ball, alpha) == ref
        with pytest.raises(SupportError):
            candidate_centers(K, Ball((F(7),) * K.dim, F(1)), F(1, 9))

    @pytest.mark.parametrize("make", MAKERS)
    def test_descend_toward(self, make):
        K = make()
        base = _ref_base_point(K)
        rng = random.Random(3)
        stops = 0
        for _ in range(60):
            word = [rng.randrange(len(K.maps)) for _ in range(rng.randrange(0, 6))]
            target = K.cell_point([rng.randrange(len(K.maps)) for _ in range(rng.randrange(1, 40))])
            x = tuple(t + F(rng.choice([-1, 0, 0, 1]), 3 ** rng.randrange(1, 30)) for t in target)
            D = math.lcm(*(xi.denominator for xi in x))
            X = tuple(int(xi * D) for xi in x)
            got = K._descend_toward(_int_cell(K, word), X, D, 64)
            ref = _reference_descend_toward(K, _ref_cell(K, word), x, 64)
            assert got.word == ref.word and K.point(got) == ref.apply(base)
            stops += len(got.word) < len(word) + 64
        # corner_ifs breaks ties toward map 0, whose points miss shared corners
        assert 0 < stops < 60 or make is corner_ifs

    @pytest.mark.parametrize("make", [cantor_set, unequal_ifs, mixed_den_ifs])
    def test_deeper_than_150_levels(self, make):
        K = make()
        base = _ref_base_point(K)
        rng = random.Random(11)
        word = [rng.randrange(len(K.maps)) for _ in range(190)]
        x = K.cell_point(word)
        assert x == _ref_cell(K, word).apply(base)
        cell = K._ints.child(_int_cell(K, word[:150]), word[150])
        ball = Ball(x, 2 * max(K.point(cell)[0] - K.cell_point(word[:151] + [1] * 39)[0],
                               F(1, 10 ** 90)))
        for mesh in (ball.radius / 36, ball.radius / 4):
            got = K.cells_meeting_ball(ball, mesh)
            assert min(len(c.word) for c in got) > 150
            assert _same_cells(K, got, _reference_cells(K, ball, mesh))
        ref = _reference_candidate_centers(K, ball, F(1, 9))
        assert ref and candidate_centers(K, ball, F(1, 9)) == ref
        D = math.lcm(*(xi.denominator for xi in x))
        X = tuple(int(xi * D) for xi in x)
        got = K._descend_toward(_int_cell(K, word[:100]), X, D, 80)
        ref = _reference_descend_toward(K, _ref_cell(K, word[:100]), x, 80)
        assert len(got.word) == 180 and got.word == ref.word
        for y in (x, tuple(xi + F(1, 3 ** 160) for xi in x)):
            assert K.on_support(y) is _reference_inverse_walk(K, y) is True


class TestEstimators:
    def test_lebesgue_gamma(self):
        est = estimate_decay(lebesgue_line(), trials=60, seed=0)
        assert abs(est.gamma_hat - 1.0) < 0.05
        assert est.C_hat > 1.0

    def test_cantor_gamma(self):
        est = estimate_decay(cantor_set(), trials=60, seed=0)
        assert abs(est.gamma_hat - math.log(2) / math.log(3)) < 0.05

    def test_pointwise_dim(self):
        region = Ball((F(0),), F(1))
        assert abs(pointwise_dim_lower(lebesgue_line(), region, 60, 0) - 1.0) < 0.05
        cd = pointwise_dim_lower(cantor_set(), region, 60, 0)
        assert abs(cd - math.log(2) / math.log(3)) < 0.05
