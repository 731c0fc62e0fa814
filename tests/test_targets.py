"""Uniformly discrete target families and exact nearest-point queries."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schmidtgame.exact import sqrt_interval
from schmidtgame.geometry import as_vec, dist2
from schmidtgame.targets import (
    TargetFamily,
    dist2_to_targets,
    nearest_point,
    points_near,
)

coords = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=1000)


class TestLatticeFamily:
    def test_shifted_integers(self):
        fam = TargetFamily.lattice([F(1, 2)])
        assert fam.delta == F(1)
        assert points_near(fam, 3, (F(2, 5),), F(1, 5)) == [(F(1, 2),)]

    def test_point_outside_radius_excluded(self):
        fam = TargetFamily.lattice([F(0), F(0)])
        # nearest lattice point (0,0) is at distance sqrt(0.32) > 1/2
        assert points_near(fam, 1, (F(2, 5), F(2, 5)), F(1, 2)) == []
        assert points_near(fam, 1, (F(2, 5), F(2, 5)), F(3, 5)) == [
            (F(0), F(0))
        ]

    def test_dist2_separable(self):
        fam = TargetFamily.lattice([F(1, 2)])
        assert dist2_to_targets(fam, 1, (F(3, 10),)) == F(1, 25)

    @given(coords)
    def test_dist2_matches_scan(self, x):
        fam = TargetFamily.lattice([F(0)])
        d2 = dist2_to_targets(fam, 1, (x,))
        best = min((x - m) ** 2 for m in range(-6, 7))
        assert d2 == best

    @given(coords, coords)
    def test_points_near_complete(self, x, y):
        fam = TargetFamily.lattice([F(0), F(0)])
        pts = points_near(fam, 1, (x, y), F(2))
        for m in range(-7, 8):
            for n in range(-7, 8):
                d2 = (x - m) ** 2 + (y - n) ** 2
                if d2 <= 4:
                    assert (F(m), F(n)) in pts
                else:
                    assert (F(m), F(n)) not in pts


class TestExplicitFamily:
    def test_lookup_and_missing_index(self):
        fam = TargetFamily.explicit({1: [(F(0),), (F(2),)]}, F(3, 2))
        assert points_near(fam, 1, (F(1, 10),), F(1, 2)) == [(F(0),)]
        assert dist2_to_targets(fam, 5, (F(0),)) is None

    def test_separation_validated(self):
        with pytest.raises(Exception):
            TargetFamily.explicit({1: [(F(0),), (F(1, 2),)]}, F(2))


class TestDistInterval:
    def test_encloses_exact_distance(self):
        fam = TargetFamily.lattice([F(1, 2)])
        enc = sqrt_interval(dist2_to_targets(fam, 1, (F(1, 4),)))
        assert enc.lo <= F(1, 4) <= enc.hi


def _reference_nearest(family, k, center, reach):
    """Nearest point of Z_k within reach the old way: list them, take the min."""
    ys = points_near(family, k, center, reach)
    return min(ys, key=lambda y: dist2(y, center)) if ys else None


class TestNearestPoint:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rounding_matches_scan(self, dim):
        rng = random.Random(20 + dim)
        for _ in range(300):
            base = [F(rng.randrange(-9, 10), rng.choice([1, 2, 3, 7])) for _ in range(dim)]
            fam = TargetFamily.lattice(base)
            # half of the centers sit on exact ties: base + integer + 1/2
            center = tuple(
                b + rng.randrange(-5, 6) + (F(1, 2) if rng.random() < 0.5
                                            else F(rng.randrange(-99, 100), 97))
                for b in base
            )
            ref = _reference_nearest(fam, 1, center, F(dim))
            assert nearest_point(fam, 1, center) == ref
            assert dist2_to_targets(fam, 1, center) == dist2(ref, as_vec(center))

    def test_tie_takes_smaller_point(self):
        fam = TargetFamily.lattice([F(0), F(1, 3)])
        center = (F(5, 2), F(1, 3) - F(1, 2))
        assert nearest_point(fam, 1, center) == (F(2), F(-2, 3))
        assert nearest_point(fam, 1, center) == _reference_nearest(fam, 1, center, F(1))

    def test_explicit_family_scans(self):
        fam = TargetFamily.explicit({1: [(F(3),), (F(0),), (F(1),)]}, F(1, 2))
        # 1/2 is equally near 0 and 1; the smaller wins, as in the sorted scan
        assert nearest_point(fam, 1, (F(1, 2),)) == (F(0),)
        assert nearest_point(fam, 1, (F(1, 2),)) == _reference_nearest(
            fam, 1, (F(1, 2),), F(1)
        )
        assert nearest_point(fam, 1, (F(5, 2),)) == (F(3),)
        assert nearest_point(fam, 2, (F(0),)) is None
