import copy
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubicbundle
from cubicbundle.arith import normalize
from cubicbundle.classify import _IN_V, _fiber_profile, classify_point
from cubicbundle.enumeration import canonical_coords, enumerate_fiber
from cubicbundle.geometry import PAIRINGS, BundlePoint, NotOnVariety
from oracles import enumerate_bundle, fiber_profile, in_pair_locus

#: base points whose pair points have multipliers other than 1, among them
#: cones over two and three nonzero coordinates
MULTIPLIER_BASE_POINTS = [
    (1, 8, 27, 64), (1, -8, 27, -64), (8, 27, 1, -125), (2, 16, 27, 128), (1, 1, 8, 8),
    (0, 1, 8, 27), (0, 2, 16, -27), (0, 0, 8, 27), (1, 27, 2, 54), (1, 8, -27, 1),
]


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
            import sys
            from cubicbundle import classify
            from cubicbundle.arith import normalize
            from cubicbundle.geometry import BundlePoint
            assert False, "asserts must be off"
            real = classify.picard_rank
            classify.picard_rank = lambda s: real(s)._replace(rank_over_Q=3)
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


class TestFiberProfile:
    """The profile on plain ints against the definitions, through a point
    object (oracles.fiber_profile)."""

    def test_matches_the_definitions(self):
        # (1, 1, 2, 4) lifts for pairing 1 alone: the one rank 2 here
        xs = [*canonical_coords(4, 3), *MULTIPLIER_BASE_POINTS, (1, 1, 2, 4)]
        assert len(xs) == 1131
        ranks = set()
        for x in xs:
            lifts, singular, rank = _fiber_profile.__wrapped__(x)
            assert (lifts, singular, rank) == fiber_profile(x), x
            assert all(type(v) is bool for v in (*lifts.values(), singular)), x
            ranks.add(rank)
        assert ranks == {None, 1, 2, 3, 4}


#: every way to change a dict in place, each as a function of the map
MUTATIONS = {
    "item assignment": lambda m: m.__setitem__(1, False),
    "new item": lambda m: m.__setitem__(4, True),
    "del": lambda m: m.__delitem__(1),
    "clear": lambda m: m.clear(),
    "pop": lambda m: m.pop(1),
    "pop with default": lambda m: m.pop(4, None),
    "popitem": lambda m: m.popitem(),
    "setdefault": lambda m: m.setdefault(4, True),
    "update": lambda m: m.update({1: False}),
    "empty update": lambda m: m.update(),
    "|=": lambda m: m.__ior__({1: False}),
}

# Every mutation of both maps of a record, in a subprocess, so that it also
# runs under python -O: each must raise TypeError and leave the map as it was.
MUTATE_RECORD = textwrap.dedent("""
    import sys
    from cubicbundle.arith import normalize
    from cubicbundle.classify import classify_point
    from cubicbundle.geometry import BundlePoint

    record = classify_point(BundlePoint(normalize((1, 1, 2, 4)), normalize((1, 1, -1, 0))))
    mutations = [
        lambda m: m.__setitem__(1, False), lambda m: m.__delitem__(1), lambda m: m.clear(),
        lambda m: m.pop(1), lambda m: m.popitem(), lambda m: m.setdefault(4, True),
        lambda m: m.update({1: False}),
    ]
    for flags in (record.in_V, record.liftable):
        before = dict(flags)
        for mutate in mutations:
            try:
                mutate(flags)
            except TypeError:
                pass
            else:
                sys.exit(f"{flags} took a change")
        try:
            flags |= {1: False}
        except TypeError:
            pass
        else:
            sys.exit(f"{flags} took |=")
        if flags != before:
            sys.exit(f"{flags} changed from {before}")
    print("optimize", sys.flags.optimize)
""")


def liftable_record():
    """A record over the rank-2 fiber 1:1:2:4, which lifts for pairing 1
    alone, at a point off every pair locus."""
    return classify_point(bundle_point([1, 1, 2, 4], [1, 1, -1, 0]))


class TestSharedFlagMaps:
    """A record's in_V and liftable maps are read-only dicts shared between
    records: one per fiber, and one of eight per pair-locus pattern."""

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS)
    @pytest.mark.parametrize("field", ["in_V", "liftable"])
    def test_every_mutator_raises(self, field, mutate):
        flags = getattr(liftable_record(), field)
        before = dict(flags)
        with pytest.raises(TypeError, match="read-only"):
            mutate(flags)
        assert flags == before

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_every_mutator_raises_in_a_subprocess(self, flags):
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, *flags, "-c", MUTATE_RECORD], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"optimize {len(flags)}\n"

    def test_a_failed_mutation_leaves_the_cached_profile_unchanged(self):
        x = (1, 1, 2, 4)
        record = liftable_record()
        for mutate in MUTATIONS.values():
            with pytest.raises(TypeError):
                mutate(record.liftable)
        assert _fiber_profile(x) == _fiber_profile.__wrapped__(x) == fiber_profile(x)
        assert _fiber_profile(x)[0] == {1: True, 2: False, 3: False}
        assert liftable_record() == record

    def test_records_over_one_fiber_share_one_liftable_map(self):
        x = normalize([1, 1, 1, 1])
        records = [classify_point(BundlePoint(x, y)) for y in enumerate_fiber(x, 12)]
        assert len(records) == 621
        assert all(record.liftable is _fiber_profile(x.coords)[0] for record in records)
        shared = {id(flags) for flags in _IN_V}
        assert len(shared) == 8
        assert {id(record.in_V) for record in records} <= shared
        # every pattern but all three loci at once, which only y = 0 meets
        patterns = {sum(v << p - 1 for p, v in record.in_V.items()) for record in records}
        assert patterns == {0, 1, 2, 3, 4, 5, 6}

    def test_each_pattern_is_its_bits(self):
        assert [dict(flags) for flags in _IN_V] == [
            {p: bool(k >> p - 1 & 1) for p in PAIRINGS} for k in range(8)
        ]
        assert all(type(v) is bool for flags in _IN_V for v in flags.values())

    @pytest.mark.parametrize("field", ["in_V", "liftable"])
    def test_copy_is_a_plain_mutable_dict(self, field):
        flags = getattr(liftable_record(), field)
        mutable = flags.copy()
        assert type(mutable) is dict and mutable == flags
        mutable[1] = not mutable[1]
        del mutable[2]
        assert dict(flags) == getattr(liftable_record(), field)
        assert flags != mutable
        assert type(flags | {4: True}) is dict

    def test_pickle_deepcopy_and_json_keep_values_and_repr(self):
        record = liftable_record()
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(record), copy.copy(record)]
        for other in copies:
            assert other == record and repr(other) == repr(record)
            for field in ("in_V", "liftable"):
                assert type(getattr(other, field)) is type(getattr(record, field))
                assert repr(getattr(other, field)) == repr(getattr(record, field))
        assert repr(record.in_V) == "{1: False, 2: False, 3: False}"
        assert repr(record.liftable) == "{1: True, 2: False, 3: False}"
        assert json.dumps(record.in_V) == json.dumps(dict(record.in_V))
        assert json.loads(json.dumps(record.liftable)) == {"1": True, "2": False, "3": False}
