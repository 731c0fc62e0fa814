"""Support models: decay parameters, IFS attractors, candidate centers."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from schmidtgame.geometry import Ball, as_vec, dist2, schmidt_leq, vadd
from schmidtgame.supports import (
    DecayParams,
    Similarity,
    SupportModel,
    _box_dist2,
    _Cell,
    candidate_centers,
    epsilon_for,
    estimate_decay,
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
        (u,) = min((c.apply(K.base_point) for c in cells), key=lambda p: abs(p[0] - F(1, 2)))
        assert K.on_support((u,))
        assert abs(u - F(1, 2)) < F(1, 4)


def _reference_cells(K, ball, mesh):
    """cells_meeting_ball as a walk from the root on every query."""
    r2 = ball.radius ** 2
    diam2 = dist2(K.box_lo, K.box_hi)
    out = []
    stack = [_Cell(word=(), scale=F(1), shift=(F(0),) * K.dim)]
    while stack:
        cell = stack.pop()
        if _box_dist2(cell.apply(K.box_lo), cell.apply(K.box_hi), ball.center) > r2:
            continue
        if cell.scale ** 2 * diam2 <= mesh ** 2:
            out.append(cell)
        else:
            stack.extend(cell.child(b, K.maps) for b in range(len(K.maps)))
    return out


def _reference_on_support(K, x):
    """on_support as a forward walk over cell boxes, down to the same depth."""
    x = as_vec(x)
    stack = [_Cell(word=(), scale=F(1), shift=(F(0),) * K.dim)]
    while stack:
        cell = stack.pop()
        if _box_dist2(cell.apply(K.box_lo), cell.apply(K.box_hi), x) > 0:
            continue
        if len(cell.word) >= K.resolution_depth:
            return True
        stack.extend(cell.child(b, K.maps) for b in range(len(K.maps)))
    return False


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
            assert K.cells_meeting_ball(ball, mesh) == _reference_cells(K, ball, mesh)
            assert (len(roots) == before) == resumes
            prev = (ball, mesh)

    def test_repeated_query_is_stable(self):
        K = cantor_set()
        ball = Ball((F(1, 4),), F(1, 10))
        first = K.cells_meeting_ball(ball, F(1, 500))
        assert K.cells_meeting_ball(ball, F(1, 500)) == first
        assert first == _reference_cells(K, ball, F(1, 500))

    def test_cells_visited_per_call_stay_bounded(self, monkeypatch):
        """Nested queries down to depth 80 visit as few cells per call as the
        first ones do; one walk from the root at that depth visits 183."""
        visits = [0]
        cell_box = SupportModel.cell_box

        def counting(self, cell):
            visits[0] += 1
            return cell_box(self, cell)

        monkeypatch.setattr(SupportModel, "cell_box", counting)
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
    @pytest.mark.parametrize("make", [cantor_set, unequal_ifs, corner_ifs])
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
        assert any(K.on_support(x) for x in xs)
        assert not all(K.on_support(x) for x in xs)

    def test_box_edges(self):
        K = cantor_set()
        for x in (0, 1, F(1, 3), F(2, 3), F(1, 9), F(8, 9), F(1, 2), F(-1, 3), F(4, 3)):
            assert K.on_support((F(x),)) == _reference_on_support(K, (F(x),))
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
