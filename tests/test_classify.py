import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubicbundle
from cubicbundle.arith import normalize
from cubicbundle.classify import classify_point
from cubicbundle.enumeration import enumerate_bundle, enumerate_fiber
from cubicbundle.geometry import PAIRINGS, BundlePoint, NotOnVariety, in_pair_locus


def bundle_point(xs, ys):
    return BundlePoint(normalize(xs), normalize(ys))


class TestClassifyPoint:
    def test_pair_locus_point(self):
        record = classify_point(bundle_point([1, 1, 1, 1], [1, -1, 1, -1]))
        assert record.in_V[1]
        assert record.in_Z
        assert record.fiber_rank == 4
        assert not record.singular_fiber

    def test_rank_one_fiber_point(self):
        # found by enumeration above x = (1, 2, 3, 5): 1*1 + 2*1 + 3*(-1) + 5*0 = 0
        record = classify_point(bundle_point([1, 2, 3, 5], [1, 1, -1, 0]))
        assert record.fiber_rank == 1
        assert not any(record.liftable.values())
        assert record.in_Z == any(record.in_V.values())

    @pytest.mark.parametrize(
        "xs", [(1, 1, 1, 1), (1, -8, 1, -1), (0, 1, 1, 1), (1, 1, 0, 0), (1, 0, 0, 0), (1, 2, 3, 5)]
    )
    def test_pair_loci_match_in_pair_locus(self, xs):
        x = normalize(xs)
        seen = set()
        for y in enumerate_fiber(x, 6):
            record = classify_point(BundlePoint(x, y))
            assert record.in_V == {p: in_pair_locus(record.point, p) for p in PAIRINGS}
            seen.update(p for p in PAIRINGS if record.in_V[p])
        if xs == (1, 1, 1, 1):
            assert seen == set(PAIRINGS)

    def test_rank_check_survives_optimize(self):
        # x = (1, 2, 3, 5) has no liftable pairing, so a reported rank of 3 is inconsistent
        code = textwrap.dedent("""
            import dataclasses, sys
            from cubicbundle import classify
            from cubicbundle.arith import normalize
            from cubicbundle.geometry import BundlePoint
            assert False, "asserts must be off"
            real = classify.picard_rank
            classify.picard_rank = lambda s: dataclasses.replace(real(s), rank_over_Q=3)
            classify.classify_point(BundlePoint(normalize([1, 2, 3, 5]), normalize([1, 1, -1, 0])))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: fiber above x = (1, 2, 3, 5)")
        assert "rank 3" in last

    def test_singular_fiber_point(self):
        record = classify_point(bundle_point([0, 1, 1, 1], [9, 1, -1, 0]))
        assert record.singular_fiber
        assert record.fiber_rank is None
        assert record.in_Z

    def test_not_on_variety_rejected(self):
        with pytest.raises(NotOnVariety):
            bundle_point([1, 1, 1, 1], [1, 1, 1, 1])

    def test_z_membership_projection(self):
        assert classify_point(bundle_point([1, 1, 1, 1], [1, -1, 1, -1])).in_Z
        assert classify_point(bundle_point([0, 1, 1, 1], [9, 1, -1, 0])).in_Z

    def test_off_z_point_exists(self):
        # rank-1 fiber, point off every pair locus
        record = classify_point(bundle_point([1, 2, 3, 5], [1, 1, -1, 0]))
        if not any(record.in_V.values()):
            assert not record.in_Z


class TestInvariantsOnEnumeration:
    def test_totality_and_consistency(self):
        for point in enumerate_bundle(4):
            record = classify_point(point)
            assert record.in_Z == (any(record.in_V.values()) or any(record.liftable.values()))
            if record.singular_fiber:
                assert record.in_Z
                assert record.fiber_rank is None
            else:
                assert record.fiber_rank in (1, 2, 3, 4)
                assert any(record.liftable.values()) == (record.fiber_rank >= 2)

    def test_not_in_z_points_have_rank_one(self):
        seen_off_z = 0
        for point in enumerate_bundle(8):
            record = classify_point(point)
            if not record.in_Z:
                seen_off_z += 1
                assert record.fiber_rank == 1
                assert not any(record.in_V.values())
                assert not record.singular_fiber
        assert seen_off_z > 0

    def test_pair_locus_forces_z(self):
        for point in enumerate_bundle(4):
            record = classify_point(point)
            if any(record.in_V.values()):
                assert record.in_Z


class TestFiberMemoization:
    def test_shared_fiber_reuses_profile(self):
        x = normalize([1, 1, 1, 1])
        records = [
            classify_point(BundlePoint(x, y)) for y in enumerate_fiber(x, 2)
        ]
        ranks = {r.fiber_rank for r in records}
        assert ranks == {4}
        lifts = {tuple(sorted(r.liftable.items())) for r in records}
        assert len(lifts) == 1

    def test_in_v_varies_within_fiber(self):
        x = normalize([1, 1, 1, 1])
        flags = {
            tuple(r.in_V[p] for p in PAIRINGS)
            for r in (
                classify_point(BundlePoint(x, y)) for y in enumerate_fiber(x, 2)
            )
        }
        assert len(flags) > 1
