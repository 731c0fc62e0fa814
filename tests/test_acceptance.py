"""Acceptance gate: eleven end-to-end criteria with exact certificates.

Each test prints a single CRITERION line on success; a pytest failure is the
corresponding FAIL line.
"""

import math
import random
import time
from fractions import Fraction as F

from schmidtgame.badapprox import (
    AffineSystem,
    AlgebraicReal,
    bad_margin,
    bad_reduction,
    best_approx_sequence,
)
from schmidtgame.engine import (
    GameConfig,
    Variant,
    limit_margin,
    run_game,
    validate_transcript,
)
from schmidtgame.geometry import (
    Ball,
    SlabConstraint,
    dist2,
    slab_distance_exceeds,
)
from schmidtgame.matseq import (
    MatrixSequence,
    analyze_lacunarity,
    identity,
    invariant_hyperplane_family,
    jordan_dominance_check,
    kronecker_order,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    spectral_radius_gt_one,
    transpose,
)
from schmidtgame.strategies import (
    Theorem42Alice,
    avoidance_move,
    bob_adversaries,
    certified_game,
    certified_horizon,
    intersect_strategies,
    schedule_params,
    virtual_beta,
)
from schmidtgame.supports import (
    DecayParams,
    Similarity,
    SupportModel,
    estimate_decay,
    max_alpha,
    pointwise_dim_lower,
)
from schmidtgame.targets import TargetFamily


def euclidean(n, C=F(1)):
    return SupportModel.euclidean(
        n, DecayParams(C=C, gamma=F(1), ambient_dim=n)
    )


def cantor_set():
    maps = [Similarity(F(1, 3), (F(0),)), Similarity(F(1, 3), (F(2, 3),))]
    decay = DecayParams(C=F(33, 16), gamma=F(5, 8), ambient_dim=1)
    return SupportModel.ifs(maps, (F(0),), (F(1),), decay)


def test_criterion_01_avoidance_lemma_suite():
    rng = random.Random(2026)
    alpha = F(9, 50)  # 0.9 * max_alpha for C=2, gamma=1
    eps = F(5, 41)
    rho = F(1)
    counts = {1: 0, 2: 0, 3: 0}
    for trial in range(500):
        n = rng.choice((1, 2, 3))
        counts[n] += 1
        K = euclidean(n, C=F(2))
        assert alpha == F(9, 10) * max_alpha(K.decay)
        n_slabs = rng.randint(1, 20)
        ball = Ball(tuple(F(0) for _ in range(n)), rho)
        slabs = []
        for _ in range(n_slabs):
            normal = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            if all(x == 0 for x in normal):
                normal = (F(1),) + tuple(F(0) for _ in range(n - 1))
            anchor = tuple(F(rng.randint(-90, 90), 100) for _ in range(n))
            offset = sum(a * b for a, b in zip(normal, anchor))
            hw = F(rng.randint(0, 8), 8) * (alpha * rho / 8)
            slabs.append(SlabConstraint(normal, offset, hw))
        t0 = time.monotonic()
        center, avoided = avoidance_move(K, ball, slabs, alpha)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"instance {trial} took {elapsed:.2f}s"
        assert dist2(center, ball.center) <= ((1 - alpha) * rho) ** 2
        assert len(avoided) >= math.ceil(eps * n_slabs)
        small = Ball(center, alpha * rho)
        for i in avoided:
            assert slab_distance_exceeds(small, slabs[i], F(0))
    assert min(counts.values()) > 100
    print("CRITERION 1: PASS (500 avoidance instances, all certified)")


def test_criterion_02_theorem42_one_dimensional():
    seq = MatrixSequence.powers(((F(3),),))
    targets = TargetFamily.lattice([F(1, 2)])
    K = euclidean(1)
    alpha, beta, rho = F(1, 4), F(1, 2), F(1, 40)
    c_theory = rho * F(1, 8) ** 13
    for name in ("chase", "random"):
        t0 = time.monotonic()
        game = certified_game(
            K, seq, targets, alpha, beta, Variant.CLASSIC, rho, (F(1, 6),), F(3), 2
        )
        bob = bob_adversaries(game.config, seq, targets, 0)[name]
        transcript = run_game(game.config, game.alice(), bob)
        margin = game.margin(transcript)
        assert time.monotonic() - t0 < 60
        assert (game.params.N, game.params.r) == (14, 7)
        assert game.params.c == c_theory
        assert game.k_max == 26
        assert validate_transcript(transcript, game.config)
        assert margin >= c_theory
        checks = game.epoch_checks(transcript)
        assert [c.epoch for c in checks] == [1, 2] and all(c.ok for c in checks)
        if name == "chase":
            # the chasing adversary forces live constraints; a random one may
            # legitimately leave every reach window empty
            assert sum(c.certified for c in checks) > 0
    # maximal adversary, playable only under the strong variant (criterion 9
    # re-checks the wrapper internals; here we check the win itself)
    game = certified_game(
        K, seq, targets, alpha, beta, Variant.STRONG, F(1, 80), (F(1, 6),), F(3), 2
    )
    bob = bob_adversaries(game.config, seq, targets, 0)["maximal"]
    transcript = run_game(game.config, game.alice(), bob)
    assert game.k_max == 40
    assert game.margin(transcript) >= game.params.c
    print("CRITERION 2: PASS (1-D certified wins vs chase/random/maximal)")


def test_criterion_03_theorem42_two_dimensional():
    seq = MatrixSequence.powers(((F(2), F(0)), (F(0), F(3))))
    targets = TargetFamily.lattice([F(0), F(0)])
    K = euclidean(2, C=F(2))
    alpha, beta = F(1, 6), F(1, 2)
    t0 = time.monotonic()
    game = certified_game(
        K, seq, targets, alpha, beta, Variant.CLASSIC, F(1, 50), (F(1, 5), F(1, 5)), F(3), 1
    )
    bob = bob_adversaries(game.config, seq, targets, 0)["chase"]
    transcript = run_game(game.config, game.alice(), bob)
    margin = game.margin(transcript)
    assert time.monotonic() - t0 < 300
    assert game.k_max == 38
    assert validate_transcript(transcript, game.config)
    assert margin >= game.params.c
    checks = game.epoch_checks(transcript)
    assert [c.epoch for c in checks] == [1] and all(c.ok for c in checks)
    assert checks[0].certified > 0
    print("CRITERION 3: PASS (diag(2,3) on R^2, certified epoch)")


def is_cantor_code_word(x):
    """Finite base-3 expansion using digits {0, 2} only."""
    for _ in range(200):
        if x == 0:
            return True
        d = int(3 * x)
        if d not in (0, 2):
            return False
        x = 3 * x - d
    return False


def test_criterion_04_cantor_support():
    seq = MatrixSequence.powers(((F(2),),))
    targets = TargetFamily.lattice([F(1, 2)])
    alpha, beta = F(1, 9), F(1, 2)
    game = certified_game(
        cantor_set(), seq, targets, alpha, beta, Variant.CLASSIC, F(1, 200), (F(1, 4),), F(2), 1
    )
    bob = bob_adversaries(game.config, seq, targets, 0)["chase"]
    transcript = run_game(game.config, game.alice(), bob)
    assert game.k_max == 145
    assert validate_transcript(transcript, game.config)
    assert game.margin(transcript) >= game.params.c
    alice_centers = [
        m.ball.center[0] for m in transcript.moves if m.player.value == "alice"
    ]
    assert alice_centers
    for x in alice_centers:
        assert is_cantor_code_word(x), f"non-code-word center {x}"
    checks = game.epoch_checks(transcript)
    assert [c.epoch for c in checks] == [1] and all(c.ok for c in checks)
    print("CRITERION 4: PASS (Cantor support, code-word centers)")


def test_criterion_05_lacunarity_jordan_suite():
    rng = random.Random(5)
    done = 0
    while done < 100:
        M = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
        if not spectral_radius_gt_one(M):
            continue
        seq = MatrixSequence.powers(M)
        rep = analyze_lacunarity(seq, 60)
        assert rep.decomposition is not None, M
        ell, start = rep.decomposition
        assert rep.Q > 1
        for k in range(start, 60 - ell + 1):
            assert seq.t(k + ell).lo / seq.t(k).hi >= rep.Q
        done += 1
    # single Jordan blocks: dominance ratio within stated tolerance
    for lam, size in ((F(2), 2), (F(3), 3), (F(5), 3)):
        J = tuple(
            tuple(
                lam if i == j else (F(1) if j == i + 1 else F(0))
                for j in range(size)
            )
            for i in range(size)
        )
        out = jordan_dominance_check(J, 60)
        assert out["ok"], out
    # controls: certified "not lacunary" for rotations and unipotents
    rotation3 = ((F(0), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    unipotent3 = ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1)))
    for M in (rotation3, unipotent3):
        rep = analyze_lacunarity(MatrixSequence.powers(M), 60)
        assert rep.lacunary is False
    print("CRITERION 5: PASS (100 lacunary matrices + controls)")


def test_criterion_06_kronecker_suite():
    zero2 = ((F(0), F(0)), (F(0), F(0)))
    checked = 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    M = ((F(a), F(b)), (F(c), F(d)))
                    if a * d - b * c == 0:
                        continue
                    if spectral_radius_gt_one(M):
                        continue
                    N = kronecker_order(M)
                    assert N in (1, 2, 3, 4, 6), (M, N)
                    P = mat_pow(M, N)
                    D = mat_sub(P, identity(2))
                    assert mat_mul(D, D) == zero2
                    normal, separation = invariant_hyperplane_family(M, N)
                    assert mat_vec(transpose(P), normal) == normal
                    assert separation.lo > 0
                    checked += 1
    assert checked > 50
    print(f"CRITERION 6: PASS ({checked} Kronecker matrices, exact)")


def test_criterion_07_bad_margin_rational():
    A = AffineSystem(((F(1, 2),),))
    assert bad_margin(A, (F(1, 3),), 10 ** 4) == F(1, 6)
    print("CRITERION 7: PASS (bad_margin(1/2, 1/3, 10^4) = 1/6 exactly)")


def test_criterion_08_bad_margin_irrational():
    t0 = time.monotonic()
    A = AffineSystem(((AlgebraicReal.sqrt_of(2),),))
    approx = best_approx_sequence(A, 17)
    assert approx.denominators[:7] == [1, 2, 5, 12, 29, 70, 169]
    seq, targets = bad_reduction(A, approx)
    alpha, beta = F(1, 4), F(1, 2)
    game = certified_game(
        euclidean(1), seq, targets, alpha, beta, Variant.CLASSIC, F(1, 40), (F(2, 5),), F(3), 2
    )
    bob = bob_adversaries(game.config, seq, targets, 0)["chase"]
    transcript = run_game(game.config, game.alice(), bob)
    assert game.k_max == 17
    assert validate_transcript(transcript, game.config)
    assert game.margin(transcript) >= game.params.c
    lower = bad_margin(A, transcript.final_enclosure, 10 ** 5)
    assert lower > 0
    assert time.monotonic() - t0 < 300
    print(f"CRITERION 8: PASS (sqrt(2) enclosure, bad_margin = {float(lower):.4g} > 0)")


def test_criterion_09_strong_variant():
    seq = MatrixSequence.powers(((F(3),),))
    targets = TargetFamily.lattice([F(1, 2)])
    alpha, beta, rho = F(1, 4), F(1, 2), F(1, 80)
    s, beta_v = virtual_beta(alpha, beta)
    assert (s, beta_v) == (2, F(1, 4))
    game = certified_game(
        euclidean(1), seq, targets, alpha, beta, Variant.STRONG, rho, (F(1, 6),), F(3), 2
    )
    params = game.params
    assert game.beta == beta_v
    assert game.config.max_rounds == s * (3 * params.r - 1) - 1
    wrapper = game.alice()
    bob = bob_adversaries(game.config, seq, targets, 0)["maximal"]
    transcript = run_game(game.config, wrapper, bob)
    # the inner strategy must have seen an exact Classic game for (alpha, beta_v)
    observed = wrapper.observed
    assert len(observed) >= 2 * (3 * params.r - 1) - 1
    for i in range(1, len(observed)):
        ratio = observed[i].radius / observed[i - 1].radius
        expect = alpha if i % 2 == 1 else beta_v
        assert ratio == expect
        assert dist2(observed[i].center, observed[i - 1].center) <= (
            observed[i - 1].radius - observed[i].radius
        ) ** 2
    assert game.k_max == 40
    assert game.margin(transcript) >= params.c
    print("CRITERION 9: PASS (strong wrapper, observed game exactly Classic)")


def test_criterion_10_intersection():
    seq = MatrixSequence.powers(((F(5),),))
    K = euclidean(1)
    alpha, beta = F(1, 4), F(1, 2)
    s = 2
    beta_i = beta * (alpha * beta) ** (s - 1)
    rho = F(1, 300)
    families = [TargetFamily.lattice([F(1, 2)]), TargetFamily.lattice([F(1, 4)])]
    subs, plist = [], []
    for i, fam in enumerate(families):
        p = schedule_params(
            alpha, beta_i, F(5), K.decay, fam.delta, rho * (alpha * beta) ** i
        )
        plist.append(p)
        subs.append(Theorem42Alice(p, seq, fam, K, alpha, beta_i))
    assert (plist[0].N, plist[0].r) == (21, 8)
    alice = intersect_strategies(subs, alpha)
    rounds = s * (2 * plist[0].r - 1)
    cfg = GameConfig(
        alpha, beta, Variant.CLASSIC, K, Ball((F(1, 3),), rho), rounds
    )
    transcript = run_game(cfg, alice, bob_adversaries(cfg, seq, families[0], 0)["chase"])
    assert validate_transcript(transcript, cfg)
    for p, fam in zip(plist, families):
        kmax = certified_horizon(seq, (1 / (alpha * beta_i)) ** p.r)
        margin = limit_margin(transcript, seq, fam, kmax)
        assert margin >= p.c > 0
    print("CRITERION 10: PASS (round-robin intersection, both margins certified)")


def test_criterion_11_estimators():
    log23 = math.log(2) / math.log(3)
    lebesgue = euclidean(1)
    cantor = cantor_set()
    est = estimate_decay(lebesgue, trials=60, seed=0)
    assert abs(est.gamma_hat - 1.0) < 0.05
    est = estimate_decay(cantor, trials=60, seed=0)
    assert abs(est.gamma_hat - log23) < 0.05
    region = Ball((F(0),), F(1))
    assert abs(pointwise_dim_lower(lebesgue, region, 60, 0) - 1.0) < 0.05
    assert abs(pointwise_dim_lower(cantor, region, 60, 0) - log23) < 0.05
    print("CRITERION 11: PASS (decay and dimension estimators within 0.05)")
