"""Support models: decay parameters, IFS attractors, candidate centers."""

import itertools
import math
from fractions import Fraction as F

import pytest

from schmidtgame.geometry import Ball, dist2, vadd
from schmidtgame.supports import (
    DecayParams,
    Similarity,
    SupportModel,
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
