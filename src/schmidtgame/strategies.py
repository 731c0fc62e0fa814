"""Alice's constructive strategies and Bob adversaries.

The avoidance move realizes the measure-theoretic existence argument as a
finite search: candidate centers on the support are scored by how many
forbidden slabs the shrunken ball clears (with a slack of alpha*rho/4 that
pays for the candidate mesh), floats pre-screen the candidates and the
winner's clearances are re-certified exactly.  The scheduled strategy plays
epochs of r avoidance rounds, each epoch retiring every constraint whose
norm t_k falls in the current window, and emits exact disjointness
certificates at epoch boundaries.  Every scan over the indices k walks the
norms through `_norms`, which alone decides where an unbounded walk ends.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .engine import GameConfig, GameTranscript, Player, Variant, limit_margin
from .exact import Interval, frac, sqrt_interval
from .geometry import (
    Ball,
    SlabConstraint,
    Vec,
    dist2,
    dot,
    gap2,
    norm2,
    schmidt_leq,
    slab_ball_distance,
    slab_distance_exceeds,
    vadd,
    within,
)
from .matseq import MatrixSequence
from .supports import (
    DecayParams,
    ParameterError,
    SupportModel,
    ball_grid,
    candidate_centers,
    epsilon_for,
    grid_step,
    max_alpha,
)
from .targets import TargetFamily, nearest_point, points_near


class NoFeasibleCenter(RuntimeError):
    """The finite search found no center meeting the avoidance guarantee."""


class MoreThanOneTarget(RuntimeError):
    """Two targets in reach at one index: the uniqueness bound is violated."""


class CertificateError(RuntimeError):
    def __init__(self, message: str, dump: Optional[dict] = None):
        super().__init__(message)
        self.dump = dump or {}


# ---------------------------------------------------------------------------
# schedule parameters


@dataclass(frozen=True)
class ScheduleParams:
    Q: Fraction
    epsilon: Fraction
    N: int
    r: int
    rho: Fraction
    c: Fraction
    delta: Fraction


_MAX_N = 100000  # the largest epoch length N schedule_params tries


def schedule_params(
    alpha: Fraction,
    beta: Fraction,
    Q: Fraction,
    decay: DecayParams,
    delta: Fraction,
    rho: Fraction,
) -> ScheduleParams:
    """Derive (epsilon, N, r, c) for the scheduled avoidance strategy."""
    alpha, beta, Q, delta, rho = (frac(x) for x in (alpha, beta, Q, delta, rho))
    if Q <= 1:
        raise ParameterError("need a certified ratio Q > 1")
    if alpha >= max_alpha(decay):
        raise ParameterError(
            f"alpha={alpha} >= admissible bound {max_alpha(decay)}"
        )
    eps = epsilon_for(decay, alpha)
    ab = alpha * beta
    cap = ab * delta / 4
    if decay.rho0 is not None:
        cap = min(cap, decay.rho0)
    if not rho < cap:
        raise ParameterError(f"rho={rho} must be below {cap}")
    # r = floor(log_base N) + 1 never decreases in N, so the powers
    # base^r, (1/ab)^r and Q^N are carried from one N to the next
    base = 1 / (1 - eps)
    r, base_r, lhs, rhs = 1, base, 1 / ab, Fraction(1)
    for N in range(1, _MAX_N + 1):
        while base_r <= N:
            r, base_r, lhs = r + 1, base_r * base, lhs / ab
        rhs *= Q
        if lhs <= rhs:
            c = min(rho * ab ** (2 * r - 1), delta / 4)
            return ScheduleParams(Q=Q, epsilon=eps, N=N, r=r, rho=rho, c=c, delta=delta)
    raise ParameterError("no feasible N found below the scan bound")


# ---------------------------------------------------------------------------
# avoidance search


def _float(x: Fraction, e: int = 0) -> float:
    """float(x / 2^e), or +-inf where it exceeds the range of a double.

    The power of two shifts an integer, so the one rounding is that of
    float(x) scaled by 2^-e.
    """
    p, q = x.numerator, x.denominator
    try:
        return p / (q << e) if e >= 0 else (p << -e) / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _slab_tables(ball: Ball, slabs: Sequence[SlabConstraint], alpha: Fraction):
    """Per-slab float data in ball-relative units (offsets divided by rho).

    Working relative to the ball keeps the floats in range even when the
    radius itself underflows a double, and scaling each normal by 2^-e, with
    its largest entry's binary exponent e, does the same for its norm; both
    scalings are exact, so every float that was in range is unchanged.  An
    offset or halfwidth beyond the range of a double reads as +-inf: every
    candidate then clears a far slab and none a covering one, and exact
    certification still decides.
    """
    import numpy as np

    rho = ball.radius
    units = []
    offs = []
    thresh = []
    for s in slabs:
        e = max(x.numerator.bit_length() - x.denominator.bit_length() for x in s.normal)
        nn = math.sqrt(_float(norm2(s.normal), 2 * e))
        units.append([_float(x, e) / nn for x in s.normal])
        offs.append(_float((s.offset - dot(s.normal, ball.center)) / rho, e) / nn)
        thresh.append(_float(s.halfwidth / rho) + 1.75 * float(alpha))
    return np.array(units), np.array(offs), np.array(thresh)


def _exact_avoided(
    ball_small: Ball, slabs: Sequence[SlabConstraint], margin: Fraction
) -> List[int]:
    return [
        i for i, s in enumerate(slabs) if slab_distance_exceeds(ball_small, s, margin)
    ]


_SCREEN_BLOCK = 4096  # candidates per float block: 4096 x 20 slabs is 640 KB
_CERTIFIED = 200  # candidates certified exactly, best float screen first


def avoidance_move(
    K: SupportModel, ball: Ball, slabs: Sequence[SlabConstraint], alpha: Fraction
) -> Tuple[Vec, List[int]]:
    """Pick a center whose shrunken ball clears many slabs, certified exactly.

    Clearance is tested with margin 3*alpha*rho/4: the full alpha*rho minus
    the alpha*rho/4 mesh slack of the candidate mesh.  The returned index
    list is verified exactly and has size >= ceil(epsilon * N).

    Only the candidates depend on the support.  On R^n they are the points
    of the covering grid that `ball_grid` builds once per game, in units of
    rho; a point the float in-ball test admitted but the exact one rejects
    keeps its rank and is skipped.  On an IFS they are `candidate_centers`.
    Float clearance counts rank the candidates, taken over blocks of
    _SCREEN_BLOCK so the float temporaries stay in cache.  Each block's
    distances are compared in place as 0.0/1.0 and counted per row by one
    matrix-vector product with a vector of ones; a sum of at most len(slabs)
    ones is exact in any order, so the counts are exact integers.  Walking the
    counts from the maximum down picks the first _CERTIFIED of the stable
    descending order without a sort, and those are certified exactly in
    rank order.
    """
    import numpy as np

    alpha = frac(alpha)
    if not slabs:
        return ball.center, []
    need = math.ceil(epsilon_for(K.decay, alpha) * len(slabs))
    rho = ball.radius
    if K.kind == "euclidean":
        h = grid_step(alpha, ball.dim)
        pts, w, inside = ball_grid(ball.dim, h, 1 - alpha)
        step = h * rho

        def center(i: int) -> Optional[Vec]:
            if not inside[i]:
                return None
            return vadd(ball.center, tuple(step * int(z) for z in pts[i]))
    else:
        cands = candidate_centers(K, ball, alpha)
        w = np.array(
            [[float((ui - ci) / rho) for ui, ci in zip(u, ball.center)] for u in cands]
        )
        center = cands.__getitem__
    units, offs, thresh = _slab_tables(ball, slabs, alpha)
    ones = np.ones(len(slabs))
    counts = np.empty(len(w))
    for s in range(0, len(w), _SCREEN_BLOCK):
        d = w[s:s + _SCREEN_BLOCK] @ units.T
        d -= offs
        np.abs(d, out=d)
        np.greater(d, thresh, out=d)
        counts[s:s + _SCREEN_BLOCK] = d @ ones
    picks: List[int] = []
    for c in range(int(counts.max()), -1, -1):
        picks.extend(np.flatnonzero(counts == c)[: _CERTIFIED - len(picks)].tolist())
        if len(picks) == _CERTIFIED:
            break
    margin = 3 * alpha * rho / 4
    best = 0
    for idx in picks:
        u = center(idx)
        if u is None:
            continue
        avoided = _exact_avoided(Ball(u, alpha * rho), slabs, margin)
        if len(avoided) >= need:
            return u, avoided
        best = max(best, len(avoided))
    raise NoFeasibleCenter(
        f"best candidate clears {best} of {len(slabs)} slabs, needed {need}"
    )


# ---------------------------------------------------------------------------
# epoch constraints


@dataclass(frozen=True)
class EpochConstraint:
    k: int
    y: Vec
    # both slabs: normal a from M_k's top direction (a, e), offset
    # a.x0 + a.g / t.lo^2 at the ball's centre x0 with g = M_k^T (y - M_k x0)
    slab: SlabConstraint       # halfwidth zeta + error (play-time avoidance)
    cert_slab: SlabConstraint  # halfwidth c/t.lo + error (final certificate)


_NORM_GUARD = 8  # norms in a row certainly at or past the cap that end an unbounded walk
_NORM_LIMIT = 10000  # the last index an unbounded walk reads


def _norms(seq: MatrixSequence, cap: Fraction) -> Iterator[Tuple[int, Interval]]:
    """(k, t_k) for k = 1, 2, ...: every index of a finite sequence; an
    unbounded one ends after _NORM_GUARD norms in a row with t_k.lo >= cap,
    or raises CertificateError if it has not ended by k = _NORM_LIMIT."""
    if seq.finite:
        yield from ((k, seq.t(k)) for k in range(1, len(seq) + 1))
        return
    beyond = 0
    for k in range(1, _NORM_LIMIT + 1):
        t = seq.t(k)
        yield k, t
        beyond = beyond + 1 if t.lo >= cap else 0
        if beyond == _NORM_GUARD:
            return
    raise CertificateError(
        f"the norm walk to the cap {_float(cap):.3g} does not end by k = {_NORM_LIMIT}"
    )


def _constraint_for_index(
    ball: Ball,
    seq: MatrixSequence,
    targets: TargetFamily,
    c: Fraction,
    zeta: Fraction,
    k: int,
) -> Optional[EpochConstraint]:
    t = seq.t(k)
    reach = c + t.hi * ball.radius
    img = seq.image(k, ball.center)
    ys = points_near(targets, k, img, reach)
    if len(ys) > 1:
        raise MoreThanOneTarget(
            f"{len(ys)} targets within {float(reach):.3g} at index {k}"
        )
    if not ys:
        return None
    y = ys[0]
    # M_k v = t u for unit top directions v, u; with g = M_k^T (y - M_k x0) every
    # x with ||M_k x - y|| <= c has |v.(x - x0) - v.g / t^2| <= c / t, and a, e, t.lo
    # add e * rho over the ball and ||g|| ((e + 1) / t.lo^2 - 1 / t.hi^2) to it.
    a, e = seq.v(k)
    g = seq.transpose_image(k, tuple(yi - mi for yi, mi in zip(y, img)))
    base, lo2 = c / t.lo, t.lo * t.lo
    err = e * ball.radius + sqrt_interval(norm2(g)).hi * ((e + 1) / lo2 - 1 / (t.hi * t.hi))
    if base > zeta:
        raise CertificateError(
            f"c/t_k = {float(base):.3g} exceeds zeta = {float(zeta):.3g} at k={k}"
        )
    offset = dot(a, ball.center) + dot(a, g) / lo2
    return EpochConstraint(
        k=k,
        y=y,
        slab=SlabConstraint(a, offset, zeta + err, label=f"k={k}"),
        cert_slab=SlabConstraint(a, offset, base + err, label=f"k={k} cert"),
    )


def epoch_constraints(
    ball: Ball,
    seq: MatrixSequence,
    targets: TargetFamily,
    params: ScheduleParams,
    j: int,
    alpha: Fraction,
    beta: Fraction,
) -> List[EpochConstraint]:
    """Constraint slabs for epoch j >= 1: indices with t_k in the window
    [(ab)^{-r(j-1)}, (ab)^{-rj}), at most N of them."""
    ab = frac(alpha) * frac(beta)
    r = params.r
    lo_cap = (1 / ab) ** (r * (j - 1))
    hi_cap = (1 / ab) ** (r * j)
    zeta = ab ** (r * (j + 1) - 1) * params.rho
    out = []
    for k, t in _norms(seq, hi_cap):
        if t.hi >= lo_cap and t.lo < hi_cap:
            ec = _constraint_for_index(ball, seq, targets, params.c, zeta, k)
            if ec is not None:
                out.append(ec)
    if len(out) > params.N:
        raise CertificateError(
            f"epoch {j} produced {len(out)} constraints, schedule allows {params.N}"
        )
    return out


# ---------------------------------------------------------------------------
# the scheduled strategy


class Theorem42Alice:
    """Scheduled avoidance strategy with exact epoch certificates.

    Pre-stage rounds (1 .. r-1) escape the finitely many constraints with
    t_k < 1 that meet the initial ball, one per round.  Epoch j occupies
    rounds r*j .. r*(j+1)-1: its constraints are computed on Bob's ball at
    round r*j and retired by avoidance moves; at the last round of the epoch
    every retired constraint is re-certified disjoint from the current ball.
    """

    def __init__(
        self,
        params: ScheduleParams,
        seq: MatrixSequence,
        targets: TargetFamily,
        support: SupportModel,
        alpha: Fraction,
        beta: Fraction,
    ):
        self.params = params
        self.seq = seq
        self.targets = targets
        self.support = support
        self.alpha = frac(alpha)
        self.beta = frac(beta)
        self.round_no = 0
        self.pending: List[EpochConstraint] = []
        self.resolved: List[EpochConstraint] = []
        self.handled_k: set = set()
        self.pre_slabs: Optional[List[EpochConstraint]] = None

    def _initial_escapes(self, ball: Ball) -> List[EpochConstraint]:
        """Constraints with t_k certainly below 1 that meet the initial ball."""
        out = []
        for k, t in _norms(self.seq, 1):
            if t.hi < 1:  # a t_k straddling 1 is left to epoch 1's window
                ec = _constraint_for_index(
                    ball, self.seq, self.targets, self.params.c, ball.radius, k
                )
                if ec is not None:
                    out.append(ec)
        return out

    def propose(self, outer: Ball) -> Tuple[Ball, Dict]:
        self.round_no += 1
        i = self.round_no
        r = self.params.r
        a = self.alpha
        rho = outer.radius
        ann: Dict = {}
        if self.pre_slabs is None:
            self.pre_slabs = self._initial_escapes(outer)
        if i % r == 0:
            j = i // r
            fresh = [
                ec
                for ec in epoch_constraints(
                    outer, self.seq, self.targets, self.params, j, a, self.beta
                )
                if ec.k not in self.handled_k
            ]
            for ec in fresh:
                self.handled_k.add(ec.k)
            self.pending.extend(fresh)
            ann["epoch_start"] = j
            ann["new_constraints"] = [ec.k for ec in fresh]
        if i < r and self.pre_slabs:
            ec = self.pre_slabs.pop(0)
            # one slab needs ceil(epsilon) = 1 clearance, or NoFeasibleCenter
            center, _ = avoidance_move(self.support, outer, [ec.slab], a)
            self.resolved.append(ec)
            ann["pre_escape"] = ec.k
        elif self.pending:
            center, avoided = avoidance_move(
                self.support, outer, [ec.slab for ec in self.pending], a
            )
            hit = set(avoided)
            newly = [ec for x, ec in enumerate(self.pending) if x in hit]
            self.pending = [ec for x, ec in enumerate(self.pending) if x not in hit]
            self.resolved.extend(newly)
            ann["avoided"] = [ec.k for ec in newly]
        elif self.support.kind == "ifs":
            # keep position, but on an exact code-word point of the attractor
            cands = candidate_centers(self.support, outer, a)
            center = min(cands, key=lambda u: (dist2(u, outer.center), u))
        else:
            center = outer.center
        ball = Ball(center, a * rho)
        nxt = i + 1
        if nxt % r == 0 and nxt // r >= 2:
            j_done = nxt // r - 1
            if self.pending or self.pre_slabs:
                raise CertificateError(
                    f"epoch {j_done} ends with unresolved constraints",
                    dump={
                        "pending": [ec.k for ec in self.pending],
                        "pre": [ec.k for ec in self.pre_slabs or []],
                    },
                )
            certs = []
            for ec in self.resolved:
                if not slab_distance_exceeds(ball, ec.cert_slab, Fraction(0)):
                    raise CertificateError(
                        f"certificate failed at k={ec.k} after epoch {j_done}",
                        dump={"k": ec.k, "round": i},
                    )
                certs.append(
                    {
                        "k": ec.k,
                        "epoch": j_done,
                        "margin_lb": str(slab_ball_distance(ball, ec.cert_slab)),
                    }
                )
            ann["certificates"] = certs
        return ball, ann


# ---------------------------------------------------------------------------
# strong-game wrapper and intersection combinator


class StrongWrapper:
    """Runs a Classic-schedule strategy inside the Strong variant.

    Dummy moves shrink at the maximal legal rate alpha; the inner strategy
    is consulted exactly when the real radius hits its virtual-Classic grid,
    so its observed ball sequence satisfies the Classic rule with its own
    beta.  Supports adversaries whose radius choices stay on that grid (the
    maximal adversary, or exact-Classic Bobs with matching beta); any other
    radius pattern is detected and aborts rather than miscertifying.
    """

    def __init__(self, inner, alpha: Fraction):
        self.inner = inner
        self.alpha = frac(alpha)
        self.inner_beta = frac(inner.beta)
        self.next_trigger: Optional[Fraction] = None
        self.observed: List[Ball] = []

    def propose(self, outer: Ball):
        rho = outer.radius
        if self.next_trigger is None or rho == self.next_trigger:
            self.observed.append(outer)
            ball, ann = self.inner.propose(outer)
            self.next_trigger = self.alpha * self.inner_beta * rho
            ann = dict(ann)
            ann["virtual_round"] = True
            self.observed.append(ball)
            return ball, ann
        if rho < self.next_trigger:
            raise CertificateError(
                "adversary left the virtual-Classic radius grid; "
                f"saw {rho}, expected to pass {self.next_trigger}"
            )
        return Ball(outer.center, self.alpha * rho), {"dummy": True}


def virtual_beta(alpha: Fraction, beta: Fraction) -> Tuple[int, Fraction]:
    """Stride s and inner beta for wrapping under the maximal adversary.

    s = ceil(log(alpha*beta)/log(alpha)) real rounds per virtual round; the
    inner game runs at (alpha, alpha^{s-1})."""
    alpha, beta = frac(alpha), frac(beta)
    s = 1
    while alpha ** s > alpha * beta:
        s += 1
    return s, alpha ** (s - 1)


class RoundRobinAlice:
    """Finite intersection combinator: sub-strategy i acts on rounds == i (mod s).

    Each sub-strategy must be built for the slowed game (alpha, beta_i) with
    beta_i = beta*(alpha*beta)^{s-1}, the net shrink between its turns.
    """

    def __init__(self, subs: Sequence, alpha: Fraction):
        if not subs:
            raise ValueError("need at least one strategy")
        self.subs = list(subs)
        self.alpha = frac(alpha)
        self.count = 0

    def propose(self, outer: Ball):
        idx = self.count % len(self.subs)
        self.count += 1
        ball, ann = self.subs[idx].propose(outer)
        ann = dict(ann)
        ann["robin_slot"] = idx
        return ball, ann


def intersect_strategies(strategies: Sequence, alpha: Fraction):
    if len(strategies) == 1:
        return strategies[0]
    return RoundRobinAlice(strategies, alpha)


# ---------------------------------------------------------------------------
# certified games


def certified_horizon(seq: MatrixSequence, cap: Fraction) -> int:
    """Largest k with t_k certainly below cap: the indices a final margin
    certifies.  Raises CertificateError where the walk over the norms of
    an unbounded sequence does not end."""
    return max((k for k, t in _norms(seq, cap) if t.hi < cap), default=0)


@dataclass(frozen=True)
class EpochCheck:
    """One epoch's constraints, re-derived on Bob's ball at the epoch's first
    round, against the final enclosure."""

    epoch: int
    certified: int = 0            # constraints whose certificate slab it clears
    failed: Tuple[int, ...] = ()  # indices k whose certificate slab it meets
    error: str = ""               # why the epoch could not be re-derived

    @property
    def ok(self) -> bool:
        return not (self.failed or self.error)

    def __str__(self) -> str:
        if self.error:
            return f"epoch {self.epoch}: FAIL ({self.error})"
        if self.failed:
            return f"epoch {self.epoch}: FAIL at k={list(self.failed)}"
        return f"epoch {self.epoch}: {self.certified} certificates ok"


@dataclass(frozen=True)
class CertifiedGame:
    """A certified game as Theorem 4.2 assembles it from its inputs.

    `beta` is the beta of the Classic game Alice's schedule plays: the
    virtual beta of StrongWrapper in the Strong variant.  The final margin
    is certified for k <= k_max."""

    seq: MatrixSequence
    targets: TargetFamily
    config: GameConfig
    params: ScheduleParams
    beta: Fraction
    epochs: int
    k_max: int

    def alice(self):
        """A fresh Theorem42Alice, wrapped for the Strong variant."""
        cfg = self.config
        inner = Theorem42Alice(
            self.params, self.seq, self.targets, cfg.support, cfg.alpha, self.beta
        )
        return StrongWrapper(inner, cfg.alpha) if cfg.variant is Variant.STRONG else inner

    def margin(self, transcript: GameTranscript) -> Fraction:
        return limit_margin(transcript, self.seq, self.targets, self.k_max)

    def epoch_checks(self, transcript: GameTranscript) -> List[EpochCheck]:
        """Re-derive every epoch's constraints on a transcript that replays
        and re-check their certificate slabs against its final enclosure.
        Classic variant only: no check is made for a Strong game."""
        if self.config.variant is not Variant.CLASSIC:
            return []
        final = transcript.final_enclosure
        bob_balls = {m.round_no: m.ball for m in transcript.moves if m.player is Player.BOB}
        out = []
        for j in range(1, self.epochs + 1):
            try:
                ecs = epoch_constraints(
                    bob_balls[self.params.r * j], self.seq, self.targets, self.params,
                    j, self.config.alpha, self.beta,
                )
            except (MoreThanOneTarget, CertificateError) as e:
                out.append(EpochCheck(j, error=str(e)))
                continue
            failed = tuple(
                ec.k for ec in ecs
                if not slab_distance_exceeds(final, ec.cert_slab, Fraction(0))
            )
            out.append(EpochCheck(j, len(ecs) - len(failed), failed))
        return out


def certified_game(
    support: SupportModel, seq: MatrixSequence, targets: TargetFamily,
    alpha: Fraction, beta: Fraction, variant: Variant, radius: Fraction,
    center: Vec, Q: Fraction, epochs: int,
) -> CertifiedGame:
    """The schedule, round count and horizon of a certified game.

    Raises ParameterError when no schedule exists and ValueError when
    GameConfig rejects the initial ball, alpha or beta.
    """
    alpha = frac(alpha)
    s, beta_v = virtual_beta(alpha, beta) if variant is Variant.STRONG else (1, frac(beta))
    params = schedule_params(alpha, beta_v, Q, support.decay, targets.delta, radius)
    rounds = (epochs + 1) * params.r - 1
    if variant is Variant.STRONG:
        rounds = s * rounds - 1
    config = GameConfig(alpha, beta, variant, support, Ball(center, radius), rounds)
    k_max = certified_horizon(seq, (1 / (alpha * beta_v)) ** (params.r * epochs))
    return CertifiedGame(seq, targets, config, params, beta_v, epochs, k_max)


# ---------------------------------------------------------------------------
# Bob adversaries


_CHASE_HORIZON = 40  # the highest constraint index ChaseBob chases


class ChaseBob:
    """Drifts toward the nearest preimage point of the lowest constraint
    index still reachable under the remaining movement budget."""

    def __init__(self, config: GameConfig, seq: MatrixSequence, targets: TargetFamily):
        self.seq = seq
        self.targets = targets
        self.alpha, self.beta, self.support = config.alpha, config.beta, config.support
        self.k_target = 1

    def _nearest_preimage(self, k: int, center: Vec, rho: Fraction) -> Optional[Vec]:
        t = self.seq.t(k)
        img = self.seq.image(k, center)
        reach = t.hi * rho * 4 + self.targets.delta
        best = nearest_point(self.targets, k, img)
        if best is None or not within(gap2(best, img), reach * reach):
            return None
        return self.seq.preimage(k, best)

    def propose(self, outer: Ball):
        rho = outer.radius
        rad = self.beta * rho
        step = rho - rad
        c = outer.center
        budget = step / (1 - self.alpha * self.beta)  # total future movement
        p = None
        while self.k_target <= _CHASE_HORIZON:
            if self.seq.finite and self.k_target > len(self.seq):
                break
            p = self._nearest_preimage(self.k_target, c, rho)
            if p is not None and dist2(p, c) <= budget * budget:
                break
            self.k_target += 1
            p = None
        if p is None:
            return Ball(c, rad), {"chase": "idle"}
        if self.support.kind == "ifs":
            cands = candidate_centers(self.support, outer, self.beta)
            target = min(cands, key=lambda u: (dist2(u, p), u))
            return Ball(target, rad), {"chase": self.k_target}
        d2 = dist2(p, c)
        if d2 <= step * step:
            return Ball(p, rad), {"chase": self.k_target, "reached": True}
        inv = sqrt_interval(d2).hi
        tstep = step / inv  # <= step/||p-c||, keeps the move legal
        ball = Ball(tuple(ci + tstep * (pi - ci) for ci, pi in zip(c, p)), rad)
        if not schmidt_leq(ball, outer):  # numerical safety net, exact check
            ball = Ball(c, rad)
        return ball, {"chase": self.k_target}


class RandomBob:
    """Uniform feasible center each turn; bit-reproducible for a fixed seed."""

    def __init__(self, config: GameConfig, seed: int):
        self.beta, self.support = config.beta, config.support
        self.rng = random.Random(seed)

    def propose(self, outer: Ball):
        rho = outer.radius
        rad = self.beta * rho
        step = rho - rad
        if self.support.kind == "ifs":
            cands = candidate_centers(self.support, outer, self.beta)
            return Ball(self.rng.choice(cands), rad), {"random": True}
        n = outer.dim
        for _ in range(64):
            q = [
                Fraction(self.rng.randrange(-(1 << 20), (1 << 20) + 1), 1 << 20)
                for _ in range(n)
            ]
            w = tuple(qi * step for qi in q)
            if norm2(w) <= step * step:
                return Ball(vadd(outer.center, w), rad), {"random": True}
        return Ball(outer.center, rad), {"random": "centered"}


class MaximalBob:
    """Takes the full radius every turn (legal only in the Strong variant)."""

    def propose(self, outer: Ball):
        return Ball(outer.center, outer.radius), {"maximal": True}


def bob_adversaries(
    config: GameConfig, seq: MatrixSequence, targets: TargetFamily, seed: int
) -> Dict[str, object]:
    """Every adversary, built for the one game `config` describes."""
    return {
        "random": RandomBob(config, seed),
        "maximal": MaximalBob(),
        "chase": ChaseBob(config, seq, targets),
    }
