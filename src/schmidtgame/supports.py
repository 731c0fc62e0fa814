"""Play spaces: Euclidean space or a self-similar IFS attractor.

The support carries the measure-decay parameters (C, gamma, rho0) that the
avoidance strategy consumes, plus empirical estimators for them.  IFS
supports use exact cell arithmetic: a depth-d cell is the image of the
bounding box under a composition of d similarity maps, and every candidate
center is an exact code-word evaluation, so membership never relies on
rounding.  Ratios, translations and box corners are put over one common
denominator L, so a depth-d cell is a pair of integer numerators over L^d;
box, mesh and membership tests cross-multiply integers, and only the
returned candidate points are built as fractions.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exact import frac, pow_interval, sqrt_upper
from .geometry import (
    Ball, Vec, as_vec, dist2, frame_gap2, over_common_den, schmidt_leq, vadd, vscale, within,
)

_MAX_ALPHA_REL = Fraction(1, 10 ** 7)


class ParameterError(ValueError):
    pass


class SupportError(ValueError):
    """Invalid game state relative to the support (e.g. ball off the attractor)."""


@dataclass(frozen=True)
class DecayParams:
    C: Fraction
    gamma: Fraction
    rho0: Optional[Fraction] = None  # None means +infinity
    ambient_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "C", frac(self.C))
        object.__setattr__(self, "gamma", frac(self.gamma))
        if self.rho0 is not None:
            object.__setattr__(self, "rho0", frac(self.rho0))
            if self.rho0 <= 0:
                raise ParameterError("rho0 must be positive")
        if self.C <= 0 or self.gamma <= 0:
            raise ParameterError("C and gamma must be positive")


def max_alpha(decay: DecayParams) -> Fraction:
    """Largest admissible Alice ratio bound 1/(2 C^{1/gamma} + 1).

    Exact when C^{1/gamma} is rational; otherwise a certified rational
    lower bound with relative error below 1e-6.
    """
    rel_bits = 24
    while True:
        root = pow_interval(decay.C, 1 / decay.gamma, rel_bits)
        lo = 1 / (2 * root.hi + 1)
        hi = 1 / (2 * root.lo + 1)
        if root.is_point() or (hi - lo) / lo < _MAX_ALPHA_REL:
            return lo
        rel_bits *= 2


def epsilon_for(decay: DecayParams, alpha: Fraction) -> Fraction:
    """Certified lower bound on 1 - C(2 alpha/(1-alpha))^gamma, in (0,1)."""
    alpha = frac(alpha)
    if not (0 < alpha < max_alpha(decay)):
        raise ParameterError(f"alpha={alpha} outside (0, max_alpha)")
    ratio = 2 * alpha / (1 - alpha)
    rel_bits = 48
    while rel_bits <= 3072:
        powed = pow_interval(ratio, decay.gamma, rel_bits)
        eps = 1 - decay.C * powed.hi
        if eps > 0:
            return eps
        rel_bits *= 2
    raise ParameterError("epsilon not certifiably positive for this alpha")


@dataclass(frozen=True)
class Similarity:
    """x -> ratio * x + translation (uniform scaling, no rotation)."""

    ratio: Fraction
    translation: Vec

    def __post_init__(self):
        object.__setattr__(self, "ratio", frac(self.ratio))
        object.__setattr__(self, "translation", as_vec(self.translation))
        if not 0 < self.ratio < 1:
            raise ParameterError("similarity ratio must be in (0,1)")

    def apply(self, x: Vec) -> Vec:
        return vadd(vscale(self.ratio, x), self.translation)


class _Cell(NamedTuple):
    """Image of the bounding box under a word of similarities: the map
    x -> (scale * x + shift) / L^depth, depth = len(word)."""

    word: Tuple[int, ...]
    scale: int              # numerator of the product of ratios along the word
    shift: Tuple[int, ...]  # numerator of the accumulated translation


@dataclass(frozen=True)
class _IntegerIFS:
    """An IFS over one common denominator L.

    Map b is x -> (p[b] * x + tau[b]) / L and the bounding box is
    [lo / L, hi / L], so a depth-d cell, its box and its point carry integer
    numerators over powers of L; every test cross-multiplies instead of
    reducing fractions.
    """

    L: int
    p: Tuple[int, ...]
    tau: Tuple[Tuple[int, ...], ...]
    lo: Tuple[int, ...]
    hi: Tuple[int, ...]
    _pows: List[int] = field(default_factory=lambda: [1], compare=False, repr=False)

    @staticmethod
    def of(maps: Sequence[Similarity], box_lo: Vec, box_hi: Vec) -> "_IntegerIFS":
        ratios = [m.ratio for m in maps]
        entries = ratios + [t for m in maps for t in m.translation] + [*box_lo, *box_hi]
        L = math.lcm(*(c.denominator for c in entries))

        def scaled(v):
            return tuple(int(c * L) for c in v)

        tau = tuple(scaled(m.translation) for m in maps)
        return _IntegerIFS(L, scaled(ratios), tau, scaled(box_lo), scaled(box_hi))

    def power(self, k: int) -> int:
        """L^k, cached."""
        pows = self._pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.L)
        return pows[k]

    def child(self, cell: _Cell, b: int) -> _Cell:
        S, L = cell.scale, self.L
        return _Cell(
            cell.word + (b,),
            S * self.p[b],
            tuple(S * t + L * u for t, u in zip(self.tau[b], cell.shift)),
        )

    def box_gap2(self, cell: _Cell, X: Tuple[int, ...], D: int) -> Tuple[int, int]:
        """Squared distance from the cell's box to X / D, as (g, s) for g / s.

        The box corners are (S * lo + L * T) / L^(d+1) and likewise for hi.
        """
        S, L = cell.scale, self.L
        den = self.power(len(cell.word) + 1)
        g = 0
        for lo, hi, t, x in zip(self.lo, self.hi, cell.shift, X):
            x *= den
            a = (S * lo + L * t) * D
            if x < a:
                g += (a - x) ** 2
                continue
            b = (S * hi + L * t) * D
            if x > b:
                g += (x - b) ** 2
        return g, (den * D) ** 2

    def point(self, cell: _Cell) -> Tuple[Tuple[int, ...], int]:
        """(P, Dp): the cell's map at the fixed point tau[0] / (L - p[0]) of
        map 0 is P / Dp.  Every finite word evaluated there lies on K."""
        q = self.L - self.p[0]
        S = cell.scale
        P = tuple(S * t + q * u for t, u in zip(self.tau[0], cell.shift))
        return P, q * self.power(len(cell.word))


@dataclass
class SupportModel:
    kind: str  # "euclidean" | "ifs"
    dim: int
    decay: DecayParams
    maps: Tuple[Similarity, ...] = ()
    box_lo: Vec = ()
    box_hi: Vec = ()
    resolution_depth: int = 0
    # the IFS over one common denominator, set by ifs()
    _ints: Optional[_IntegerIFS] = field(
        default=None, init=False, compare=False, repr=False
    )
    # (ball, mesh, cells) of the last cells_meeting_ball query
    _frontier: Optional[Tuple[Ball, Fraction, Tuple[_Cell, ...]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    @staticmethod
    def euclidean(dim: int, decay: DecayParams) -> "SupportModel":
        return SupportModel(kind="euclidean", dim=dim, decay=decay)

    @staticmethod
    def ifs(
        maps: Sequence[Similarity],
        box_lo,
        box_hi,
        decay: DecayParams,
        resolution_depth: int = 20,
    ) -> "SupportModel":
        maps = tuple(maps)
        if len(maps) < 2:
            raise ParameterError("an IFS support needs at least two maps")
        box_lo, box_hi = as_vec(box_lo), as_vec(box_hi)
        if len(box_lo) != len(box_hi) or any(a >= b for a, b in zip(box_lo, box_hi)):
            raise ParameterError("degenerate bounding box")
        for i, m in enumerate(maps):
            if len(m.translation) != len(box_lo):
                raise ParameterError(
                    f"translation {i} has dimension {len(m.translation)} "
                    f"but the box has dimension {len(box_lo)}"
                )
        if decay.rho0 is None:
            diam = sqrt_upper(dist2(box_lo, box_hi))
            decay = replace(decay, rho0=diam)
        model = SupportModel(
            kind="ifs",
            dim=len(box_lo),
            decay=decay,
            maps=maps,
            box_lo=box_lo,
            box_hi=box_hi,
            resolution_depth=resolution_depth,
        )
        model._check_open_set_condition()
        model._ints = _IntegerIFS.of(maps, box_lo, box_hi)
        return model

    # -- IFS cell structure -------------------------------------------------

    def _check_open_set_condition(self):
        images = []
        for m in self.maps:
            lo = m.apply(self.box_lo)
            hi = m.apply(self.box_hi)
            if any(a < b for a, b in zip(lo, self.box_lo)) or any(
                a > b for a, b in zip(hi, self.box_hi)
            ):
                raise ParameterError("IFS map image leaves the bounding box")
            images.append((lo, hi))
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                overlaps = all(
                    images[i][0][a] < images[j][1][a] and images[j][0][a] < images[i][1][a]
                    for a in range(self.dim)
                )
                if overlaps:
                    raise ParameterError(
                        f"open set condition fails for maps {i} and {j}"
                    )

    def root_cell(self) -> _Cell:
        return _Cell((), 1, (0,) * self.dim)

    def point(self, cell: _Cell) -> Vec:
        """The cell's exact point on K (see _IntegerIFS.point)."""
        P, Dp = self._ints.point(cell)
        return tuple(Fraction(pi, Dp) for pi in P)

    def cell_point(self, word: Sequence[int]) -> Vec:
        cell = self.root_cell()
        for b in word:
            cell = self._ints.child(cell, b)
        return self.point(cell)

    def cells_meeting_ball(self, ball: Ball, mesh: Fraction) -> List[_Cell]:
        """All cells of diameter <= mesh whose box meets the ball and whose
        parent is wider than mesh, in depth-first order (exact tests).

        The walk resumes from the previous query's cells, instead of the
        root, when the ball lies inside the previous ball (schmidt_leq) and
        mesh is at most the previous mesh.  The answer is the same: the
        first ancestor of diameter <= the previous mesh of any answer cell
        has a box that contains the cell's box, so it meets the previous
        ball and was a previous cell; and the parent of every previous cell
        is wider than the previous mesh, hence than mesh.  A game's queries
        are nested with shrinking mesh, so each visits a bounded number of
        cells instead of walking down from the root.

        A depth-d cell has diameter (S / L^d) * diam, so it is fine enough
        iff S^2 * diam2.num * mesh.den^2 <= mesh.num^2 * diam2.den * L^(2d).
        """
        mesh = Fraction(mesh)
        prev = self._frontier
        resume = prev is not None and mesh <= prev[1] and schmidt_leq(ball, prev[0])
        stack = list(reversed(prev[2])) if resume else [self.root_cell()]
        ints = self._ints
        X, D = over_common_den(ball.center)
        r2 = ball.radius * ball.radius
        diam2 = dist2(self.box_lo, self.box_hi)
        wide = diam2.numerator * mesh.denominator ** 2
        fine = mesh.numerator ** 2 * diam2.denominator
        branches = range(len(self.maps))
        out: List[_Cell] = []
        while stack:
            cell = stack.pop()
            if not within(ints.box_gap2(cell, X, D), r2):
                continue
            if cell.scale ** 2 * wide <= fine * ints.power(2 * len(cell.word)):
                out.append(cell)
            else:
                stack.extend(ints.child(cell, b) for b in branches)
        self._frontier = (ball, mesh, tuple(out))
        return out

    def _descend_toward(
        self, cell: _Cell, X: Tuple[int, ...], D: int, extra_depth: int
    ) -> _Cell:
        """Walk into subcells toward X / D, each step picking the child box
        nearest it (the first on ties).  The children of one cell share a
        depth, so their gaps share a denominator and compare as integers."""
        ints = self._ints
        for _ in range(extra_depth):
            best = None
            best_g = None
            for b in range(len(self.maps)):
                child = ints.child(cell, b)
                g = ints.box_gap2(child, X, D)[0]
                if best_g is None or g < best_g:
                    best, best_g = child, g
            cell = best
            if best_g == 0 and frame_gap2(ints.point(cell), (X, D))[0] == 0:
                break
        return cell

    # -- public queries -----------------------------------------------------

    def on_support(self, x) -> bool:
        """Membership at the working resolution depth (exact for Euclidean).

        True iff x lies in the box of some word of length resolution_depth.
        x lies in the box of the word (b1, ..., bd) iff the inverse maps
        y -> (y - t_b) / r_b, applied for b1 first and bd last, keep x
        inside the bounding box at every step; so the walk carries one
        pulled-back point per node instead of a cell and its box corners.
        Over the common denominator L the point y = Y / Dy maps to
        (L * Y - Dy * tau_b) / (Dy * p_b), and y is in the box iff
        lo * Dy <= L * Y <= hi * Dy.
        Depth-limited: a point off K but within a depth-d cell is accepted.
        """
        x = as_vec(x)
        if len(x) != self.dim:
            return False
        if self.kind == "euclidean":
            return True
        ints = self._ints
        L, lo, hi = ints.L, ints.lo, ints.hi
        inverses = list(zip(ints.p, ints.tau))
        stack = [(*over_common_den(x), 0)]
        while stack:
            Y, Dy, depth = stack.pop()
            if any(
                L * y < a * Dy or L * y > b * Dy for y, a, b in zip(Y, lo, hi)
            ):
                continue
            if depth >= self.resolution_depth:
                return True
            for p, tau in inverses:
                stack.append(
                    (tuple(L * y - Dy * t for y, t in zip(Y, tau)), Dy * p, depth + 1)
                )
        return False


def grid_step(alpha: Fraction, n: int) -> Fraction:
    """Per-axis step, in units of the radius, of the Euclidean covering grid.

    Its covering radius sqrt(n)/2 * step stays within the mesh alpha/4.
    """
    return alpha / (4 * math.ceil(math.sqrt(n)))


@functools.lru_cache(maxsize=8)
def ball_grid(n: int, step: Fraction, span: Fraction):
    """Integer points z with ||step * z|| <= span, in units of the radius.

    Returns (z, w, inside): the points of the cube |z_i| <= floor(span/step)
    that pass the float test ||w||^2 <= span^2 + 1e-12, in C order, their
    float offsets w = step * z, and the exact test ||step * z|| <= span.
    The float test admits every exactly inside point: its rounding error is
    near 1e-15, far below the 1e-12 slack.  The cube is screened one slice
    z_0 = const at a time, so no more than one slice of it is held; the
    float test is row by row, so the arrays match a one-shot build byte for
    byte.  The key depends only on n and alpha, so one grid serves every
    ball of a game; the arrays are read-only.
    """
    import numpy as np

    m = int(span / step)
    axis = np.arange(-m, m + 1)
    bound = float(span) ** 2 + 1e-12
    parts = []
    for i in range(len(axis)):
        grids = np.meshgrid(axis[i:i + 1], *([axis] * (n - 1)), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = pts.astype(float) * float(step)
        keep = (w * w).sum(axis=1) <= bound
        parts.append((pts[keep], w[keep]))
    pts, w = (np.concatenate(a) for a in zip(*parts))
    # sum z^2 is an integer, so <= (span/step)^2 iff <= its floor
    inside = (pts * pts).sum(axis=1) <= math.floor((span / step) ** 2)
    for a in (pts, w, inside):
        a.flags.writeable = False
    return pts, w, inside


def candidate_centers(K: SupportModel, ball: Ball, alpha: Fraction) -> List[Vec]:
    """Finite mesh of points of K inside B(center, (1-alpha) * radius).

    Mesh size alpha*radius/4: any point of K in the shrunken ball has a
    candidate within that distance, which is the slack the avoidance move
    budgets for.  On an IFS the cells come from a walk over the outer ball,
    not the shrunken one: the outer balls of a game are nested and their
    meshes shrink, so cells_meeting_ball resumes from the previous round's
    cells, while shrunken balls need not be nested.  The walk's cells whose
    box meets the shrunken ball are exactly the cells meeting it.
    """
    alpha = Fraction(alpha)
    rho = ball.radius
    if K.kind == "euclidean":
        h = grid_step(alpha, K.dim)
        pts, _, inside = ball_grid(K.dim, h, 1 - alpha)
        step = h * rho
        return sorted(
            vadd(ball.center, tuple(step * int(zi) for zi in z))
            for z in pts[inside]
        )
    reach = (1 - alpha) * rho
    reach2 = reach * reach
    mesh = alpha * rho / 4
    # IFS: cells of diameter <= mesh meeting the shrunken ball, one exact
    # representative each, pushed toward the ball center until it lands
    # inside the shrunken ball.
    ints = K._ints
    X, D = over_common_den(ball.center)
    out = []
    for cell in K.cells_meeting_ball(ball, mesh):
        if not within(ints.box_gap2(cell, X, D), reach2):
            continue
        if not within(frame_gap2(ints.point(cell), (X, D)), reach2):
            cell = K._descend_toward(cell, X, D, 64)
            if not within(frame_gap2(ints.point(cell), (X, D)), reach2):
                continue
        out.append(K.point(cell))
    out = sorted(set(out))
    if not out:
        raise SupportError("no support points found inside the ball")
    return out


# -- empirical measure estimators (floating point by design) ---------------


def _euclidean_slab_fraction(n: int, u: float) -> float:
    """Mass fraction of a central slab of half-width u*rho in the unit ball."""
    u = min(u, 1.0)
    if n == 1:
        return u
    if n == 2:
        return (2 / math.pi) * (math.asin(u) + u * math.sqrt(1 - u * u))
    if n == 3:
        return (3 * u - u ** 3) / 2
    raise ValueError("closed forms implemented for n <= 3")


def _ifs_interval_mass(K: SupportModel, a: float, b: float, depth_cap: int) -> float:
    """Natural-measure mass of [a, b] for a 1-D IFS (uniform branch weights)."""
    m = len(K.maps)
    maps = [(float(s.ratio), float(s.translation[0])) for s in K.maps]
    lo0, hi0 = float(K.box_lo[0]), float(K.box_hi[0])

    def rec(scale: float, shift: float, depth: int) -> float:
        lo = scale * lo0 + shift
        hi = scale * hi0 + shift
        if hi <= a or lo >= b:
            return 0.0
        if a <= lo and hi <= b:
            return m ** -depth if depth else 1.0
        if depth >= depth_cap:
            frac_cover = max(0.0, (min(hi, b) - max(lo, a))) / (hi - lo)
            return (m ** -depth) * frac_cover
        return sum(rec(scale * r, scale * t + shift, depth + 1) for r, t in maps)

    return rec(1.0, 0.0, 0)


def _mass_ball(K: SupportModel, x: float, rho: float, depth_cap: int = 48) -> float:
    if K.kind == "euclidean":
        return rho ** K.dim  # constant factors cancel in every ratio we take
    if K.dim != 1:
        raise ValueError("IFS mass estimation implemented in dimension 1")
    return _ifs_interval_mass(K, x - rho, x + rho, depth_cap)


@dataclass(frozen=True)
class DecayEstimate:
    C_hat: float
    gamma_hat: float
    D_hat: float


def _fit_line(xs: List[float], ys: List[float]) -> Tuple[float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def _random_ifs_point(K: SupportModel, rng: random.Random, depth: int = 16) -> float:
    word = [rng.randrange(len(K.maps)) for _ in range(depth)]
    return float(K.cell_point(word)[0])


def estimate_decay(K: SupportModel, trials: int, seed: int) -> DecayEstimate:
    """Fit the hyperplane-decay exponent by regressing log mass ratios.

    Samples (x in K, rho, eps) with the hyperplane through x (the worst
    case), computes mu(B cap L^eps)/mu(B), and regresses against
    log(eps/rho).  The intercept carries a documented safety factor 2.
    """
    if trials < 10:
        raise ValueError("insufficient samples")
    rng = random.Random(seed)
    xs: List[float] = []
    ys: List[float] = []
    if K.kind == "euclidean":
        n = K.dim
        for _ in range(trials):
            u = 10 ** rng.uniform(-3, -1)
            ratio = _euclidean_slab_fraction(n, u)
            xs.append(math.log(u))
            ys.append(math.log(ratio))
        D_hat = 2.0 ** n
    else:
        if K.dim != 1:
            raise ValueError("decay estimation implemented for 1-D IFS")
        for _ in range(trials):
            x = _random_ifs_point(K, rng)
            rho = 3.0 ** -rng.uniform(2, 6)
            u = 3.0 ** -rng.uniform(1, 5)
            eps = u * rho
            mb = _mass_ball(K, x, rho)
            ms = _mass_ball(K, x, eps)
            if mb <= 0 or ms <= 0:
                continue
            xs.append(math.log(u))
            ys.append(math.log(ms / mb))
        # doubling constant from sampled ratios
        ratios = []
        for _ in range(min(trials, 200)):
            x = _random_ifs_point(K, rng)
            rho = 3.0 ** -rng.uniform(2, 8)
            m1 = _mass_ball(K, x, rho)
            m2 = _mass_ball(K, x, 2 * rho)
            if m1 > 0:
                ratios.append(m2 / m1)
        D_hat = max(ratios) * 1.05 if ratios else float("nan")
    slope, intercept = _fit_line(xs, ys)
    return DecayEstimate(C_hat=2.0 * math.exp(intercept), gamma_hat=slope, D_hat=D_hat)


def pointwise_dim_lower(K: SupportModel, region: Ball, trials: int, seed: int) -> float:
    """Empirical lower-dimension estimate: inf over samples of the mass slope."""
    rng = random.Random(seed)
    slopes = []
    n_pts = max(5, min(trials, 40))
    for _ in range(n_pts):
        if K.kind == "euclidean":
            # mu(B) ~ rho^n exactly; every sample gives slope n
            x = 0.0
            ladder = [2.0 ** -j for j in range(1, 15)]
            masses = [_mass_ball(K, x, r) for r in ladder]
        else:
            x = _random_ifs_point(K, rng, depth=24)
            ladder = [3.0 ** -j for j in range(2, 22)]
            masses = [_mass_ball(K, x, r, depth_cap=52) for r in ladder]
        pairs = [
            (math.log(r), math.log(m)) for r, m in zip(ladder, masses) if m > 0
        ]
        if len(pairs) < 4:
            continue
        slope, _ = _fit_line([p[0] for p in pairs], [p[1] for p in pairs])
        slopes.append(slope)
    if not slopes:
        raise ValueError("insufficient samples")
    return min(slopes)
