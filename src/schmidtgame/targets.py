"""Uniformly discrete target families Z_k in R^m.

Two kinds are supported: integer-lattice translates y_k + Z^m (covering both
torus fibers over a point sequence and the plain lattice Z used for badly
approximable forms), and explicit per-index finite point lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Union

from .geometry import Vec, as_vec, dist2

_HALF = Fraction(1, 2)


@dataclass
class TargetFamily:
    kind: str  # "lattice" | "explicit"
    delta: Fraction
    dim: int
    # lattice translate data: base(k) -> vector in R^m
    _base: Optional[Callable[[int], Vec]] = None
    # explicit data: k -> list of points (missing k means empty Z_k)
    _points: Optional[Dict[int, List[Vec]]] = None

    @staticmethod
    def lattice(base: Union[Sequence, Callable[[int], Sequence]], dim: Optional[int] = None) -> "TargetFamily":
        """Z_k = base(k) + Z^dim.  A constant base vector is accepted."""
        if callable(base):
            fn = lambda k: as_vec(base(k))
            if dim is None:
                dim = len(fn(1))
        else:
            const = as_vec(base)
            fn = lambda k: const
            dim = len(const)
        return TargetFamily(kind="lattice", delta=Fraction(1), dim=dim, _base=fn)

    @staticmethod
    def explicit(points_by_index: Dict[int, Sequence[Sequence]], delta: Fraction) -> "TargetFamily":
        delta = Fraction(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        table: Dict[int, List[Vec]] = {}
        dim = None
        for k, pts in points_by_index.items():
            vecs = [as_vec(p) for p in pts]
            for v in vecs:
                if dim is None:
                    dim = len(v)
                elif len(v) != dim:
                    raise ValueError("inconsistent target dimensions")
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    if dist2(vecs[i], vecs[j]) <= delta * delta:
                        raise ValueError(
                            f"targets at index {k} are not {delta}-uniformly discrete"
                        )
            table[k] = vecs
        if dim is None:
            raise ValueError("explicit family needs at least one point")
        return TargetFamily(kind="explicit", delta=delta, dim=dim, _points=table)

    def base(self, k: int) -> Vec:
        assert self.kind == "lattice" and self._base is not None
        return self._base(k)


def points_near(family: TargetFamily, k: int, center, radius: Fraction) -> List[Vec]:
    """Exactly the points of Z_k within distance `radius` of `center`."""
    center = as_vec(center)
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    r2 = radius * radius
    if family.kind == "lattice":
        y = family.base(k)
        ranges = []
        for ci, yi in zip(center, y):
            lo = math.ceil(ci - yi - radius)
            hi = math.floor(ci - yi + radius)
            ranges.append(range(lo, hi + 1))
        out = []
        for z in itertools.product(*ranges):
            p = tuple(yi + zi for yi, zi in zip(y, z))
            if dist2(p, center) <= r2:
                out.append(p)
        return sorted(out)
    pts = (family._points or {}).get(k, [])
    return sorted(p for p in pts if dist2(p, center) <= r2)


def nearest_point(family: TargetFamily, k: int, p) -> Optional[Vec]:
    """The point of Z_k nearest p, lexicographically smallest on a tie;
    None when Z_k is empty.

    On a lattice translate y + Z^m each coordinate rounds on its own to
    y_i + ceil(p_i - y_i - 1/2), which takes the smaller of two equally
    near integers; the lexicographic minimum of the product of the
    per-coordinate minimisers is that choice in every coordinate.
    """
    p = as_vec(p)
    if family.kind == "lattice":
        y = family.base(k)
        return tuple(yi + math.ceil(pi - yi - _HALF) for pi, yi in zip(p, y))
    pts = (family._points or {}).get(k, [])
    if not pts:
        return None
    return min(pts, key=lambda q: (dist2(q, p), q))


def dist2_to_targets(family: TargetFamily, k: int, p) -> Optional[Fraction]:
    """Exact squared distance from p to Z_k; None when Z_k is empty."""
    p = as_vec(p)
    q = nearest_point(family, k, p)
    return None if q is None else dist2(p, q)
