"""Schedules, avoidance moves, epoch constraints, and adversaries."""

import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from typing import List, Optional, Sequence, Tuple

from schmidtgame import cli
from schmidtgame.engine import GameConfig, Variant, run_game, validate_transcript
from schmidtgame.geometry import (
    Ball, DimensionMismatch, SlabConstraint, Vec, dist2, dot, norm2,
    slab_distance_exceeds, vadd,
)
from schmidtgame.matseq import (
    MatrixSequence, kernel_basis, mat_mul, mat_vec, rref, transpose,
)
from schmidtgame.strategies import (
    CertificateError,
    ChaseBob,
    NoFeasibleCenter,
    ScheduleParams,
    _exact_avoided,
    _slab_tables,
    Theorem42Alice,
    avoidance_move,
    bob_adversaries,
    certified_game,
    epoch_constraints,
    intersect_strategies,
    schedule_params,
    virtual_beta,
)
from schmidtgame.supports import (
    DecayParams, Similarity, SupportModel, ball_grid, candidate_centers, epsilon_for,
    grid_step, max_alpha,
)
from schmidtgame.targets import TargetFamily, points_near


def line_support(C=F(1)):
    return SupportModel.euclidean(1, DecayParams(C=C, gamma=F(1), ambient_dim=1))


def pow3_setup():
    seq = MatrixSequence.powers(((F(3),),))
    targets = TargetFamily.lattice([F(1, 2)])
    K = line_support()
    params = schedule_params(F(1, 4), F(1, 2), F(3), K.decay, F(1), F(1, 40))
    return seq, targets, K, params


class TestScheduleParams:
    def test_frozen_1d(self):
        _, _, _, p = pow3_setup()
        assert p.epsilon == F(1, 3)
        assert p.N == 14
        assert p.r == 7
        assert p.rho == F(1, 40)
        assert p.c == F(1, 40) * F(1, 8) ** 13

    def test_frozen_2d(self):
        decay = DecayParams(C=F(2), gamma=F(1), ambient_dim=2)
        p = schedule_params(F(1, 6), F(1, 2), F(3), decay, F(1), F(1, 50))
        assert p.epsilon == F(1, 5)
        assert p.N == 39
        assert p.r == 17

    def test_growth_inequality(self):
        # the defining property of N: (alpha*beta)^(-r) <= Q^N, minimal N
        _, _, _, p = pow3_setup()
        ab = F(1, 8)
        assert (1 / ab) ** p.r <= p.Q ** p.N
        # r is maximal for this N: one more round would overshoot
        assert (1 / ab) ** (p.r + 1) > p.Q ** p.N

    def test_oversized_rho_rejected(self):
        K = line_support()
        with pytest.raises(Exception):
            schedule_params(F(1, 4), F(1, 2), F(3), K.decay, F(1), F(1, 2))

    def test_infeasible_alpha(self):
        K = line_support()
        with pytest.raises(Exception):
            schedule_params(F(2, 5), F(1, 2), F(3), K.decay, F(1), F(1, 40))


def _reference_schedule_search(alpha, beta, Q, decay, delta, rho):
    """The (N, r) search of schedule_params with r recomputed from i = 0
    for every N, on inputs that pass its validation."""
    eps = epsilon_for(decay, alpha)
    ab = alpha * beta
    base = 1 / (1 - eps)
    for N in range(1, 100001):
        i, acc = 0, base
        while acc <= N:
            i += 1
            acc *= base
        r = i + 1
        if (1 / ab) ** r <= Q ** N:
            c = min(rho * ab ** (2 * r - 1), delta / 4)
            return ScheduleParams(Q=Q, epsilon=eps, N=N, r=r, rho=rho, c=c, delta=delta)
    raise AssertionError("no feasible N")


def _shipped_schedule_inputs():
    """schedule_params's arguments as certified_game derives them for the
    shipped game configs: the virtual beta for the strong variant."""
    out = []
    for name in ("cantor_pow2", "dim2_classic", "pow3_classic", "pow3_strong"):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
        with open(path) as fh:
            game = certified_game(**cli._game_inputs(json.load(fh), None))
        p = game.params
        out.append((game.config.alpha, game.beta, p.Q, game.config.support.decay, p.delta, p.rho))
    return out


def _seeded_schedule_inputs(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        decay = DecayParams(
            C=F(rng.randrange(4, 40), 4),
            gamma=F(rng.randrange(1, 9), 8),
            rho0=F(1, rng.randrange(1, 100)) if rng.random() < 0.5 else None,
        )
        alpha = max_alpha(decay) * F(rng.randrange(1, 5), 10)
        beta = F(rng.randrange(1, 10), 10)
        Q = 1 + F(rng.randrange(5, 40), 10)
        delta = F(1, rng.randrange(1, 5))
        cap = alpha * beta * delta / 4
        if decay.rho0 is not None:
            cap = min(cap, decay.rho0)
        rho = cap * F(rng.randrange(1, 10), 10)
        out.append((alpha, beta, Q, decay, delta, rho))
    return out


class TestIncrementalSchedule:
    def test_matches_search_from_zero(self):
        # epsilon = 1/2, so base = 2 and r steps up exactly at N = 2^k
        exact_base = (F(1, 5), F(1, 2), F(9, 5), DecayParams(C=F(1), gamma=F(1)), F(1), F(1, 1000))
        assert schedule_params(*exact_base).r == 5
        inputs = [exact_base] + _shipped_schedule_inputs() + _seeded_schedule_inputs(24, 0)
        rs = set()
        for args in inputs:
            p = schedule_params(*args)
            assert p == _reference_schedule_search(*args), args
            rs.add(p.r)
        assert len(rs) > 10 and max(rs) >= 35


class TestAvoidanceMove:
    def test_point_slab_example(self):
        K = line_support()
        slab = SlabConstraint((F(1),), F(0), F(0))
        center, avoided = avoidance_move(K, Ball((F(0),), F(1)), [slab], F(1, 5))
        assert center == (F(-4, 5),)
        assert avoided == [0]

    def test_empty_slab_list(self):
        K = line_support()
        center, avoided = avoidance_move(K, Ball((F(1, 3),), F(1)), [], F(1, 5))
        assert center == (F(1, 3),)
        assert avoided == []

    def test_random_instances_certified(self):
        rng = random.Random(7)
        K = line_support(C=F(2))
        alpha = F(9, 50)
        eps = F(5, 41)
        rho = F(1)
        for _ in range(25):
            n_slabs = rng.randint(1, 10)
            hw_cap = alpha * rho / 8
            slabs = [
                SlabConstraint(
                    (F(1),),
                    F(rng.randint(-100, 100), 100),
                    F(rng.randint(0, 100), 100) * hw_cap / 1,
                )
                for _ in range(n_slabs)
            ]
            ball = Ball((F(0),), rho)
            center, avoided = avoidance_move(K, ball, slabs, alpha)
            assert len(avoided) >= math.ceil(eps * n_slabs)
            small = Ball(center, alpha * rho)
            for i in avoided:
                assert slab_distance_exceeds(small, slabs[i], F(0))

    def test_single_escape(self):
        K = line_support()
        slab = SlabConstraint((F(1),), F(0), F(1, 100))
        c, avoided = avoidance_move(K, Ball((F(0),), F(1)), [slab], F(1, 5))
        assert avoided == [0]
        assert slab_distance_exceeds(Ball(c, F(1, 5)), slab, F(0))

    def test_no_feasible_center_raised(self):
        K = line_support()
        # slab covering the whole ball: escape is impossible
        slab = SlabConstraint((F(1),), F(0), F(10))
        with pytest.raises(NoFeasibleCenter, match="clears 0 of 1 slabs"):
            avoidance_move(K, Ball((F(0),), F(1)), [slab], F(1, 5))

    def test_slab_beyond_float_range(self):
        # offset / rho and halfwidth / rho overflow a double: the screen reads
        # them as +-inf, and the exact certificate still decides
        K = SupportModel.euclidean(2, DecayParams(C=F(1), gamma=F(1), ambient_dim=2))
        ball = Ball((F(0), F(0)), F(1, 10 ** 400))
        for offset in (F(1), F(-1)):
            far = SlabConstraint((F(1), F(0)), offset, F(1, 10 ** 401))
            units, offs, thresh = _slab_tables(ball, [far], F(1, 10))
            assert offs[0] == offset * math.inf and math.isfinite(thresh[0])
            center, avoided = avoidance_move(K, ball, [far], F(1, 10))
            assert avoided == [0]
            assert slab_distance_exceeds(Ball(center, ball.radius / 10), far, F(0))
        covering = SlabConstraint((F(1), F(0)), F(0), F(1))
        assert _slab_tables(ball, [covering], F(1, 10))[2][0] == math.inf
        with pytest.raises(NoFeasibleCenter, match="clears 0 of 1 slabs"):
            avoidance_move(K, ball, [covering], F(1, 10))

    def test_slab_normal_beyond_float_range(self):
        # the normal's squared norm 10^400 overflows a double; scaled by a
        # power of two it reads as the unit normal of the same slab
        K = SupportModel.euclidean(2, DecayParams(C=F(1), gamma=F(1), ambient_dim=2))
        ball = Ball((F(0), F(0)), F(1))
        huge = SlabConstraint((F(10 ** 200), F(0)), F(10 ** 200, 2), F(1))
        unit = SlabConstraint((F(1), F(0)), F(1, 2), F(1))
        for got, want in zip(_slab_tables(ball, [huge], F(1, 10)),
                             _slab_tables(ball, [unit], F(1, 10))):
            assert got.tolist() == want.tolist()
        center, avoided = avoidance_move(K, ball, [huge], F(1, 10))
        assert avoided == [0]
        assert slab_distance_exceeds(Ball(center, F(1, 10)), huge, F(0))

    def test_slab_tables_in_range_unchanged(self):
        ball = Ball((F(1, 3), F(-2, 7)), F(3, 10 ** 40))
        slab = SlabConstraint((F(2), F(-1)), F(5, 11), F(1, 10 ** 41))
        units, offs, thresh = _slab_tables(ball, [slab], F(1, 5))
        nn = math.sqrt(5)
        assert offs[0] == float((slab.offset - F(2, 3) - F(2, 7)) / ball.radius) / nn
        assert thresh[0] == float(slab.halfwidth / ball.radius) + 1.75 * 0.2


def _grid_step(alpha: F, rho: F, n: int) -> F:
    # same covering grid as candidate_centers on a Euclidean support
    return alpha * rho / (4 * math.ceil(math.sqrt(n)))


def _reference_avoid(
    K: SupportModel, ball: Ball, slabs: Sequence[SlabConstraint],
    alpha: F, need: int,
) -> Tuple[Vec, List[int]]:
    """The full-cube screen with a stable argsort, kept as the reference."""
    import numpy as np

    rho = ball.radius
    n = ball.dim
    margin = 3 * alpha * rho / 4
    step = _grid_step(alpha, rho, n)
    span = (1 - alpha) * rho
    m = int(span / step)
    axis = np.arange(-m, m + 1)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    h = float(step / rho)
    w = pts * h  # grid offsets in units of rho
    inside = (w * w).sum(axis=1) <= float(span / rho) ** 2 + 1e-12
    units, offs, thresh = _slab_tables(ball, slabs, alpha)
    dists = np.abs(w @ units.T - offs)
    counts = (dists > thresh).sum(axis=1)
    counts[~inside] = -1
    order = np.argsort(-counts, kind="stable")
    best: Optional[Tuple[int, Vec, List[int]]] = None
    span2 = span * span
    for rank in range(min(len(order), 200)):
        idx = int(order[rank])
        if counts[idx] < 0:
            break
        off = tuple(step * int(pts[idx][d]) for d in range(n))
        if norm2(off) > span2:
            continue  # float inclusion was optimistic; drop the point
        u = vadd(ball.center, off)
        avoided = _exact_avoided(Ball(u, alpha * rho), slabs, margin)
        if best is None or len(avoided) > best[0]:
            best = (len(avoided), u, avoided)
        if len(avoided) >= need:
            return u, avoided
    raise NoFeasibleCenter(
        f"best candidate clears {0 if best is None else best[0]} of "
        f"{len(slabs)} slabs, needed {need}"
    )


def _outcome(fn):
    try:
        return fn()
    except NoFeasibleCenter as e:
        return ("no feasible center", str(e))


# normals of integer norm, axis-aligned ones among them: their float units
# and dyadic offsets make exact ties |d| == thresh in the float screen
SQUARE_NORMALS = {
    1: ((1,), (2,), (3,)),
    2: ((1, 0), (0, 1), (0, 2), (3, 4), (4, 3)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 2), (2, 2, 1), (1, 2, 2), (2, 1, 2), (0, 3, 4)),
}


def _slab(rng, center, rho, scale, square):
    """A seeded slab near the ball: random small normals and anchors, or with
    square=True an integer-norm normal, a dyadic anchor and a dyadic width."""
    n = len(center)
    if square:
        normal = tuple(F(rng.choice((-1, 1)) * x) for x in rng.choice(SQUARE_NORMALS[n]))
        anchor = tuple(c + rho * F(rng.randint(-28, 28), 32) for c in center)
    else:
        normal = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if all(x == 0 for x in normal):
            normal = (F(1),) + (F(0),) * (n - 1)
        anchor = tuple(c + rho * F(rng.randint(-90, 90), 100) for c in center)
    offset = sum(a * b for a, b in zip(normal, anchor))
    return SlabConstraint(normal, offset, F(rng.randint(0, 8), 8) * rho * scale)


def _exact_ties(w, ball, slabs, alpha) -> int:
    """Float screen entries with |d| == thresh, which count as not cleared."""
    import numpy as np

    units, offs, thresh = _slab_tables(ball, slabs, alpha)
    return int(np.count_nonzero(np.abs(w @ units.T - offs) == thresh))


class TestCachedGridScreen:
    """The cached in-ball grid and bucketed pick match the full-cube screen."""

    ALPHAS = {1: (F(1, 4), F(1, 5), F(1, 10)), 2: (F(1, 4), F(1, 5), F(1, 10)),
              3: (F(1, 4), F(9, 50))}

    def _instances(self, n, count, seed, square=False):
        rng = random.Random(seed)
        K = SupportModel.euclidean(n, DecayParams(C=F(1), gamma=F(1), ambient_dim=n))
        for i in range(count):
            # alpha = 1/4 keeps the grid, margins and widths dyadic
            alpha = F(1, 4) if square else rng.choice(self.ALPHAS[n])
            rho = rng.choice((F(1), F(2, 7), F(3, 10 ** 40)))
            center = tuple(F(rng.randint(-99, 99), rng.randint(1, 50)) for _ in range(n))
            # every fourth instance has slabs wide enough to leave no room
            scale = alpha * (8 if i % 4 == 3 else F(1, 8))
            slabs = [_slab(rng, center, rho, scale, square) for _ in range(rng.randint(1, 20))]
            yield K, Ball(center, rho), slabs, alpha

    def _check(self, n, count, seed, square=False):
        """Compare with the reference; return (infeasible instances, ties)."""
        infeasible = ties = 0
        for K, ball, slabs, alpha in self._instances(n, count, seed, square):
            need = math.ceil(epsilon_for(K.decay, alpha) * len(slabs))
            got = _outcome(lambda: avoidance_move(K, ball, slabs, alpha))
            want = _outcome(lambda: _reference_avoid(K, ball, slabs, alpha, need))
            assert got == want
            infeasible += got[0] == "no feasible center"
            w = ball_grid(n, grid_step(alpha, n), 1 - alpha)[1]
            ties += _exact_ties(w, ball, slabs, alpha)
        return infeasible, ties

    @pytest.mark.parametrize("n,count", [(1, 40), (2, 30), (3, 12)])
    def test_matches_full_cube_reference(self, n, count):
        infeasible, _ = self._check(n, count, 1000 + n)
        assert 0 < infeasible < count

    @pytest.mark.parametrize("n,count", [(1, 40), (2, 30), (3, 12)])
    def test_square_norm_normals_match_reference(self, n, count):
        infeasible, ties = self._check(n, count, 2000 + n, square=True)
        assert 0 < infeasible < count
        assert ties > 0

    def test_second_call_reuses_grid(self):
        K = SupportModel.euclidean(3, DecayParams(C=F(2), gamma=F(1), ambient_dim=3))
        slab = SlabConstraint((F(1), F(2), F(0)), F(0), F(1, 100))
        avoidance_move(K, Ball((F(0),) * 3, F(1)), [slab], F(9, 50))
        before = ball_grid.cache_info()
        avoidance_move(K, Ball((F(1, 3),) * 3, F(1, 10 ** 30)), [slab], F(9, 50))
        after = ball_grid.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1

    def test_grid_is_read_only(self):
        pts, w, inside = ball_grid(2, F(1, 8), F(3, 4))
        for a in (pts, w, inside):
            assert not a.flags.writeable


def _reference_avoid_on_cells(
    K: SupportModel, ball: Ball, slabs: Sequence[SlabConstraint],
    alpha: F, need: int,
) -> Tuple[Vec, List[int]]:
    """The former IFS search, kept as the reference: a stable argsort of the
    float counts, 48 exact certificates once there are more than 96
    candidates, then a full exact scan as a last resort."""
    import numpy as np

    rho = ball.radius
    margin = 3 * alpha * rho / 4
    cands = candidate_centers(K, ball, alpha)
    units, offs, thresh = _slab_tables(ball, slabs, alpha)
    w = np.array(
        [[float((ui - ci) / rho) for ui, ci in zip(u, ball.center)] for u in cands]
    )
    counts = (np.abs(w @ units.T - offs) > thresh).sum(axis=1)
    order = np.argsort(-counts, kind="stable")
    best: Optional[Tuple[int, Vec, List[int]]] = None
    checked = 0
    for idx in order:
        u = cands[int(idx)]
        avoided = _exact_avoided(Ball(u, alpha * rho), slabs, margin)
        if best is None or len(avoided) > best[0]:
            best = (len(avoided), u, avoided)
        if len(avoided) >= need:
            return u, avoided
        checked += 1
        if checked >= 48 and len(cands) > 96:
            break
    if best is not None and best[0] < need and len(cands) > 96:
        for u in cands:
            avoided = _exact_avoided(Ball(u, alpha * rho), slabs, margin)
            if best is None or len(avoided) > best[0]:
                best = (len(avoided), u, avoided)
    if best is not None and best[0] >= need:
        return best[1], best[2]
    raise NoFeasibleCenter(
        f"best candidate clears {0 if best is None else best[0]} of "
        f"{len(slabs)} slabs, needed {need}"
    )


class TestIFSAvoidance:
    """The shared screen on IFS candidates matches the former IFS search."""

    def _cantor(self):
        maps = [Similarity(F(1, 3), (F(0),)), Similarity(F(1, 3), (F(2, 3),))]
        decay = DecayParams(C=F(33, 16), gamma=F(5, 8), ambient_dim=1)
        return SupportModel.ifs(maps, (F(0),), (F(1),), decay), (F(1, 9), F(1, 20), F(1, 3000))

    def _carpet(self):
        maps = [
            Similarity(F(1, 3), (F(i, 3), F(j, 3)))
            for i in range(3) for j in range(3) if (i, j) != (1, 1)
        ]
        # the decay only sets `need` here; C = 1/4 admits alpha up to 8/9, so
        # the candidate counts stay in the thousands
        decay = DecayParams(C=F(1, 4), gamma=F(1, 2), ambient_dim=2)
        return SupportModel.ifs(maps, (F(0), F(0)), (F(1), F(1)), decay), (F(1, 2), F(1, 4))

    def _cantor4(self):
        # the Cantor set of ratio 1/4: its points, and with dyadic radii the
        # float screen, are exact, so the screen meets exact ties
        maps = [Similarity(F(1, 4), (F(0),)), Similarity(F(1, 4), (F(3, 4),))]
        decay = DecayParams(C=F(1), gamma=F(1, 2), ambient_dim=1)
        return SupportModel.ifs(maps, (F(0),), (F(1),), decay), (F(1, 4), F(1, 8))

    def _instances(self, K, alphas, count, seed, square=False):
        rng = random.Random(seed)
        ratio = K.maps[0].ratio
        for i in range(count):
            alpha = rng.choice(alphas)
            depth = rng.randint(1, 12)
            if square:
                rho = ratio ** depth * rng.choice((F(1), F(1, 2), F(2)))
            else:
                rho = ratio ** depth * F(rng.randint(1, 9), 4)
            word = [rng.randrange(len(K.maps)) for _ in range(depth + 4)]
            center = K.cell_point(word)
            # every fourth instance has slabs as wide as the ball
            scale = 2 if i % 4 == 3 else alpha / 8
            slabs = [_slab(rng, center, rho, scale, square) for _ in range(rng.randint(1, 20))]
            yield Ball(center, rho), slabs, alpha

    def _check(self, support, count, seed, square=False):
        """Compare with the reference; return (infeasible, over the
        certification cap, ties)."""
        import numpy as np

        K, alphas = getattr(self, "_" + support)()
        infeasible = over_cap = ties = 0
        for ball, slabs, alpha in self._instances(K, alphas, count, seed, square):
            need = math.ceil(epsilon_for(K.decay, alpha) * len(slabs))
            got = _outcome(lambda: avoidance_move(K, ball, slabs, alpha))
            want = _outcome(lambda: _reference_avoid_on_cells(K, ball, slabs, alpha, need))
            assert got == want
            infeasible += got[0] == "no feasible center"
            cands = candidate_centers(K, ball, alpha)
            over_cap += len(cands) > 200
            w = np.array([[float((u - c) / ball.radius) for u, c in zip(p, ball.center)]
                          for p in cands])
            ties += _exact_ties(w, ball, slabs, alpha)
        return infeasible, over_cap, ties

    @pytest.mark.parametrize("support, count", [("cantor", 40), ("carpet", 8)])
    def test_matches_former_ifs_search(self, support, count):
        infeasible, over_cap, _ = self._check(support, count, 77)
        assert 0 < infeasible < count
        assert 0 < over_cap < count

    @pytest.mark.parametrize("support, count", [("cantor", 40), ("cantor4", 40)])
    def test_square_norm_normals_match_former_search(self, support, count):
        infeasible, _, ties = self._check(support, count, 78, square=True)
        assert 0 < infeasible < count
        if support == "cantor4":
            assert ties > 0


class TestEpochConstraints:
    def test_frozen_first_epoch(self):
        seq, targets, K, p = pow3_setup()
        ball = Ball((F(1, 6),), p.rho * F(1, 8) ** 6)
        ecs = epoch_constraints(ball, seq, targets, p, 1, F(1, 4), F(1, 2))
        assert [ec.k for ec in ecs] == list(range(1, 14))
        assert len(ecs) <= p.N

    def test_slab_contains_target_preimage(self):
        seq, targets, K, p = pow3_setup()
        ball = Ball((F(1, 6),), p.rho * F(1, 8) ** 6)
        for ec in epoch_constraints(ball, seq, targets, p, 1, F(1, 4), F(1, 2)):
            # the exact preimage of the resolved target lies inside the slab
            x_star = (ec.y[0] / F(3) ** ec.k,)
            val = abs(ec.slab.normal[0] * x_star[0] - ec.slab.offset)
            assert val <= ec.slab.halfwidth

    def test_cert_slab_wider_than_play_slab(self):
        seq, targets, K, p = pow3_setup()
        ball = Ball((F(1, 6),), p.rho * F(1, 8) ** 6)
        for ec in epoch_constraints(ball, seq, targets, p, 1, F(1, 4), F(1, 2)):
            assert ec.cert_slab.halfwidth <= ec.slab.halfwidth


class TestStrongWrapper:
    def test_virtual_beta_frozen(self):
        assert virtual_beta(F(1, 4), F(1, 2)) == (2, F(1, 4))
        assert virtual_beta(F(1, 3), F(1, 2)) == (2, F(1, 3))
        assert virtual_beta(F(1, 2), F(1, 2)) == (2, F(1, 2))

    def test_virtual_beta_defining_property(self):
        for a, b in ((F(1, 4), F(1, 2)), (F(1, 5), F(1, 3)), (F(2, 7), F(1, 2))):
            s, bv = virtual_beta(a, b)
            assert a ** s <= a * b
            assert s == 1 or a ** (s - 1) > a * b
            assert bv == a ** (s - 1)


class TestAdversaries:
    def test_registry(self):
        seq, targets, _, _ = pow3_setup()
        bobs = bob_adversaries(seq, targets, 0)
        assert set(bobs) == {"random", "maximal", "chase"}
        assert set(bob_adversaries()) == {"random", "maximal"}

    def test_bobs_play_legal_moves(self):
        seq, targets, K, p = pow3_setup()
        for name in ("chase", "random"):
            alice = Theorem42Alice(p, seq, targets, K, F(1, 4), F(1, 2))
            bob = bob_adversaries(seq, targets, 3)[name]
            cfg = GameConfig(
                F(1, 4),
                F(1, 2),
                Variant.CLASSIC,
                K,
                Ball((F(1, 6),), p.rho),
                2 * p.r - 1,
            )
            t = run_game(cfg, alice, bob)
            assert validate_transcript(t, cfg)

    def test_random_bob_deterministic_per_seed(self):
        seq, targets, K, p = pow3_setup()
        finals = []
        for _ in range(2):
            alice = Theorem42Alice(p, seq, targets, K, F(1, 4), F(1, 2))
            bob = bob_adversaries(seq, targets, 11)["random"]
            cfg = GameConfig(
                F(1, 4), F(1, 2), Variant.CLASSIC, K, Ball((F(1, 6),), p.rho), p.r
            )
            finals.append(run_game(cfg, alice, bob, seed=11).final_enclosure)
        assert finals[0] == finals[1]


def _solve(A, b: Vec) -> Optional[Vec]:
    """A solution of A x = b over Q with every free variable 0, or None."""
    n = len(A[0])
    R, pivots = rref(tuple(row + (bi,) for row, bi in zip(A, b)))
    if n in pivots:
        return None
    x = [F(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n]
    return tuple(x)


def _preimage_min_norm(M, y: Vec) -> Vec:
    """Minimum-norm least-squares solution of M x = y over Q, by the normal
    equations and a projection off the kernel: the reference for
    MatrixSequence.preimage."""
    Mt = transpose(M)
    x0 = _solve(mat_mul(Mt, M), mat_vec(Mt, y))
    null = kernel_basis(M)
    if not null:
        return x0
    gram = tuple(tuple(dot(u, v) for v in null) for u in null)
    coef = _solve(gram, tuple(dot(u, x0) for u in null))
    for ci, nv in zip(coef, null):
        x0 = tuple(o - ci * nvi for o, nvi in zip(x0, nv))
    return x0


class TestPreimage:
    @staticmethod
    def _check(seq: MatrixSequence, k: int, rng: random.Random, trials: int = 6):
        M = seq.matrix(k)
        for _ in range(trials):
            y = tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in M)
            got = seq.preimage(k, y)
            assert got == _preimage_min_norm(M, y)
            assert all(type(x) is F for x in got)

    def test_powers_match_reference(self):
        rng = random.Random(18)
        bases = [
            ((F(3),),),
            ((F(-2, 5),),),
            ((F(2), F(1)), (F(1), F(1))),
            ((F(1), F(2)), (F(2), F(4))),  # singular
            ((F(1, 2), F(-3)), (F(0), F(7, 4))),
            ((F(1), F(2), F(0)), (F(0), F(1), F(3)), (F(1), F(0), F(1))),
            ((F(1), F(2), F(3)), (F(2), F(4), F(6)), (F(0), F(1), F(-1, 3))),  # rank 2
        ]
        for _ in range(4):
            n = rng.choice((2, 3))
            bases.append(tuple(
                tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
                for _ in range(n)
            ))
        for base in bases:
            seq = MatrixSequence.powers(base)
            for k in range(1, 5):
                self._check(seq, k, rng)

    def test_tall_wide_and_rows_match_reference(self):
        rng = random.Random(7)
        tall = ((F(1), F(2)), (F(2), F(4)), (F(-1, 3), F(-2, 3)))  # rank 1
        wide = ((F(1), F(0), F(2, 3)), (F(-1), F(5), F(1)))
        seq = MatrixSequence.explicit([tall])
        y = (F(1), F(0), F(0))  # off the range: the residual is nonzero
        x = seq.preimage(1, y)
        assert x == _preimage_min_norm(tall, y) and seq.image(1, x) != y
        self._check(seq, 1, rng)
        self._check(MatrixSequence.explicit([wide]), 1, rng)
        rows = MatrixSequence.rows([(1, 2), (3, -1), (0, 5)])
        for k in (1, 2, 3):
            self._check(rows, k, rng)
        self._check(MatrixSequence.rows([(1, -2, 2), (4, 0, 3)]), 2, rng)

    def test_nilpotent_zero_power(self):
        seq = MatrixSequence.powers(((F(0), F(1)), (F(0), F(0))))
        assert seq.matrix(2) == ((F(0), F(0)), (F(0), F(0)))
        got = seq.preimage(2, (F(1, 3), F(-2)))
        assert got == (F(0), F(0)) == _preimage_min_norm(seq.matrix(2), (F(1, 3), F(-2)))
        assert all(type(x) is F for x in got)
        self._check(seq, 1, random.Random(3))

    def test_length_checked(self):
        seq = MatrixSequence.explicit([((F(1), F(2)),)])
        with pytest.raises(DimensionMismatch):
            seq.preimage(1, (F(1), F(2)))


def _reference_nearest_preimage(bob: ChaseBob, k: int, center: Vec, rho: F):
    """The chase target as ChaseBob found it by listing every point in reach."""
    t = bob.seq.t(k)
    M = bob.seq.matrix(k)
    img = mat_vec(M, center)
    reach = t.hi * rho * 4 + bob.targets.delta
    ys = points_near(bob.targets, k, img, reach)
    if not ys:
        return None
    return _preimage_min_norm(M, min(ys, key=lambda y: dist2(y, img)))


class TestChaseRounding:
    @pytest.mark.parametrize(
        "base, y",
        [
            (((F(2),),), [F(1, 2)]),
            (((F(2), F(0)), (F(0), F(3))), [F(0), F(0)]),
            (((F(2), F(1)), (F(1), F(1))), [F(1, 3), F(-2, 5)]),
        ],
    )
    def test_matches_points_near_min(self, base, y):
        seq = MatrixSequence.powers(base)
        bob = ChaseBob(seq, TargetFamily.lattice(y))
        rng = random.Random(31 * len(base) + int(base[0][0]))
        ties = 0
        for _ in range(60):
            k = rng.randrange(1, 6)
            rho = F(1, rng.choice([200, 1000, 10 ** 4]))
            center = tuple(F(rng.randrange(-500, 501), 1000) for _ in y)
            if rng.random() < 0.5:
                # an image on an exact half-integer tie in every coordinate
                tie = tuple(yi + rng.randrange(-3, 4) + F(1, 2) for yi in y)
                center = _preimage_min_norm(seq.matrix(k), tie)
                assert mat_vec(seq.matrix(k), center) == tie
                ties += 1
            got = bob._nearest_preimage(k, center, rho)
            assert got is not None
            assert got == _reference_nearest_preimage(bob, k, center, rho)
        assert ties > 10

    def test_empty_reach_and_explicit_family(self):
        seq = MatrixSequence.powers(((F(2),),))
        targets = TargetFamily.explicit(
            {1: [(F(50),)], 2: [(F(7),), (F(1, 3),)], 4: [(F(1),), (F(-1),)]}, F(1)
        )
        bob = ChaseBob(seq, targets)
        rho = F(1, 100)
        expected = {1: None, 2: (F(1, 12),), 3: None, 4: (F(-1, 16),)}
        for k, want in expected.items():
            assert bob._nearest_preimage(k, (F(0),), rho) == want
            assert _reference_nearest_preimage(bob, k, (F(0),), rho) == want


class TestIntersection:
    def test_single_passthrough(self):
        seq, targets, K, p = pow3_setup()
        alice = Theorem42Alice(p, seq, targets, K, F(1, 4), F(1, 2))
        assert intersect_strategies([alice], F(1, 4)) is alice

    def test_round_robin_alternates(self):
        seq, targets, K, p = pow3_setup()
        calls = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def propose(self, transcript, outer):
                calls.append(self.tag)
                return Ball(outer.center, F(1, 4) * outer.radius), {}

        robin = intersect_strategies([Probe("a"), Probe("b")], F(1, 4))
        outer = Ball((F(0),), F(1))
        for _ in range(4):
            ball, ann = robin.propose(None, outer)
        assert calls == ["a", "b", "a", "b"]
