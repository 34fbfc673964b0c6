import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicbundle
from cubicbundle.arith import InvalidPoint, ProjectivePoint, normalize
from cubicbundle.classify import classify_point
from cubicbundle.enumeration import enumerate_fiber
from cubicbundle.geometry import PAIRINGS, BundlePoint, NotOnVariety, on_bundle
from oracles import (
    enumerate_bundle,
    in_pair_locus,
    liftable,
    over_singular_fiber,
    pair_products,
    search_lift,
)


nonzero_coord = st.integers(-10, 10).filter(bool)
any_coord = st.integers(-10, 10)
x_points = st.tuples(any_coord, any_coord, any_coord, any_coord).filter(any).map(normalize)


class TestOnBundle:
    def test_alternating_signs(self):
        assert on_bundle(normalize([1, 1, 1, 1]), normalize([1, -1, 1, -1]))

    def test_all_ones_fails(self):
        assert not on_bundle(normalize([1, 1, 1, 1]), normalize([1, 1, 1, 1]))

    def test_zero_padding(self):
        assert on_bundle(normalize([1, 0, 0, 0]), normalize([0, 1, 2, 3]))

    def test_bundle_point_validates(self):
        with pytest.raises(NotOnVariety):
            BundlePoint(normalize([1, 1, 1, 1]), normalize([1, 1, 1, 1]))

    @pytest.mark.parametrize("xs, ys", [
        ((1, -1), (1, 1)),  # x0*y0^3 + x1*y1^3 = 0 in P^1 x P^1
        ((1, 1, 1, 1, 1), (1, -1, 1, -1, 0)),
        ((1, 1, 1, 1), (1, -1, 1, -1, 0)),
        ((1, 1, 1, 1, 1), (1, -1, 1, -1)),
        ((1, -1, 0), (1, 1, 0, 0)),
    ])
    def test_points_outside_p3_x_p3_rejected(self, xs, ys):
        x, y = ProjectivePoint(xs), ProjectivePoint(ys)
        with pytest.raises(InvalidPoint, match=r"is not a point of P\^3 x P\^3"):
            on_bundle(x, y)
        with pytest.raises(InvalidPoint):
            BundlePoint(x, y)

    def test_dimension_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle.arith import ProjectivePoint
            from cubicbundle.geometry import BundlePoint
            assert False, "asserts must be off"
            BundlePoint(ProjectivePoint((1, -1)), ProjectivePoint((1, 1)))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.arith.InvalidPoint: (1:-1, 1:1) is not a point of P^3 x P^3"


class TestBasePointDimension:
    # the points of TestOnBundle.test_points_outside_p3_x_p3_rejected not in P^3
    @pytest.mark.parametrize("xs", [(1, -1), (1, 1), (1, 1, 1, 1, 1), (1, -1, 1, -1, 0), (1, -1, 0)])
    def test_points_outside_p3_rejected(self, xs):
        x = ProjectivePoint(xs)
        calls = [
            lambda: enumerate_fiber(x, 3),
            lambda: liftable(x, 1),
            lambda: over_singular_fiber(x),
            lambda: pair_products(x, 1),
        ]
        for call in calls:
            with pytest.raises(InvalidPoint, match=r"is not a point of P\^3$"):
                call()

    def test_dimension_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle.arith import ProjectivePoint
            from oracles import over_singular_fiber
            assert False, "asserts must be off"
            over_singular_fiber(ProjectivePoint((1, -1)))
        """)
        path = [str(Path(cubicbundle.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.arith.InvalidPoint: 1:-1 is not a point of P^3"


class TestPairLocus:
    def setup_method(self):
        self.p = BundlePoint(normalize([1, 1, 1, 1]), normalize([1, -1, 1, -1]))

    def test_first_pairing_holds(self):
        assert in_pair_locus(self.p, 1)
        assert classify_point(self.p).in_V[1]

    def test_second_pairing_fails(self):
        assert not in_pair_locus(self.p, 2)
        assert not classify_point(self.p).in_V[2]

    def test_implies_on_bundle(self):
        # both pair-sums add up to the defining cubic
        for point in itertools.islice(enumerate_bundle(2), 400):
            for pairing in PAIRINGS:
                if in_pair_locus(point, pairing):
                    assert on_bundle(point.x, point.y)


class TestLiftable:
    def test_unit_ratios(self):
        x = normalize([1, 1, 1, 1])
        assert all(liftable(x, p) for p in PAIRINGS)

    def test_non_cube_ratios(self):
        x = normalize([1, 1, 1, 2])
        assert not any(liftable(x, p) for p in PAIRINGS)

    def test_zero_coordinate_lifts_everywhere(self):
        x = normalize([0, 1, 1, 1])
        assert all(liftable(x, p) for p in PAIRINGS)

    @given(x_points)
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_search_oracle(self, x):
        # the exact cube test is the authority; the bounded search may only
        # miss solutions, never find spurious ones — for these coordinate
        # sizes it misses nothing either
        for pairing in PAIRINGS:
            a, b = pair_products(x, pairing)
            if search_lift(a, b):
                assert liftable(x, pairing)

    @given(x_points, st.integers(-20, 20).filter(bool))
    @settings(max_examples=200)
    def test_scale_invariant(self, x, scale):
        scaled = normalize([scale * c for c in x.coords])
        for pairing in PAIRINGS:
            assert liftable(x, pairing) == liftable(scaled, pairing)

    @given(
        st.tuples(any_coord, any_coord, any_coord).filter(any),
        st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_singular_base_always_lifts(self, partial, zero_pos):
        coords = list(partial)
        coords.insert(zero_pos, 0)
        if not any(coords):
            return
        x = normalize(coords)
        assert all(liftable(x, p) for p in PAIRINGS)


class TestSingularFiber:
    def test_examples(self):
        assert not over_singular_fiber(normalize([1, 1, 1, 1]))
        assert over_singular_fiber(normalize([0, 1, 2, 3]))
        assert over_singular_fiber(normalize([1, 0, 0, 1]))


class TestPairings:
    def test_exactly_three(self):
        assert sorted(PAIRINGS) == [1, 2, 3]
        covered = {frozenset(pair) for pairs in PAIRINGS.values() for pair in pairs}
        assert len(covered) == 6  # all 2-element subsets of {0,1,2,3}

    def test_invalid_index_rejected(self):
        from cubicbundle.arith import InvalidArgument

        with pytest.raises(InvalidArgument):
            liftable(normalize([1, 1, 1, 1]), 4)


class TestPermutationReduction:
    """The full S4 family of loci collapses onto the three pairings."""

    @staticmethod
    def _v_membership(point, perm):
        x, y = point.x.coords, point.y.coords
        t0, t1, t2, t3 = perm
        return (
            x[t0] * y[t0] ** 3 + x[t1] * y[t1] ** 3 == 0
            and x[t2] * y[t2] ** 3 + x[t3] * y[t3] ** 3 == 0
        )

    @staticmethod
    def _perm_pairing(perm):
        pair = frozenset(perm[:2])
        for idx, ((i, j), _) in PAIRINGS.items():
            if pair in (frozenset((i, j)), frozenset(range(4)) - frozenset((i, j))):
                return idx
        raise AssertionError(perm)

    def test_pair_locus_reduction(self):
        points = list(itertools.islice(enumerate_bundle(3), 1200))
        for perm in itertools.permutations(range(4)):
            pairing = self._perm_pairing(perm)
            for point in points:
                assert self._v_membership(point, perm) == in_pair_locus(point, pairing)

    @given(x_points)
    @settings(max_examples=150, deadline=None)
    def test_lift_reduction(self, x):
        for perm in itertools.permutations(range(4)):
            pairing = self._perm_pairing(perm)
            c = x.coords
            a, b = c[perm[0]] * c[perm[1]], c[perm[2]] * c[perm[3]]
            if a == 0 or b == 0:
                lifted = True
            else:
                from cubicbundle.arith import is_cube

                lifted = is_cube(a, b)
            assert lifted == liftable(x, pairing)
