"""Named one-line mutants of the fast paths, each killed by a check that
runs in well under a second.

A mutant is a (module, old text, new text) edit of the package and the
name of its check.  Each is applied to a copy of the package under
tmp_path, and its check runs in a
subprocess on that copy, so the test process never imports a mutant.  A
check is a script that asserts; it must pass on an unchanged copy and fail
with an AssertionError on the mutant, not with some other error.
"""

import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cubicbundle.enumeration import canonical_coords
from oracles import _fermat_collisions, _surface_scan, fiber_profile
from test_cli import ENUMERATE_8_SHA256
from test_enumeration import surface_oracle
from test_picard import LATTICE_SURFACES, subgroups_of_z3_cubed

PACKAGE = Path(__file__).parents[1] / "src" / "cubicbundle"

LATTICE_COEFFICIENTS = [s.coefficients for s in LATTICE_SURFACES]

#: SHA-256 of the repr of the fiber profiles of the canonical x with
#: H(x) <= 3, in lexicographic order, by the definitions
PROFILES_SHA256 = hashlib.sha256(
    repr(list(map(fiber_profile, canonical_coords(4, 3)))).encode()
).hexdigest()


def sha256_of(value) -> str:
    """SHA-256 of the repr of value, as the checks take it."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


FERMAT_ORBIT = [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]

#: positive smooth fibers: one probe per shape of swap folding, a
#: self-join, and pairing 3's single pair point (0, 1, -1, 0) over 1:1:1:2
JOIN_CHECK_SHAPES = [(1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (1, 2, 1, 2), (1, 2, 3, 5)]

#: cones whose curve has a point with a multiple of height <= 20
CONE_CHECK_SHAPES = [(0, 1, 1, 1), (0, 1, 1, -2), (0, 1, 2, 3)]

#: SHA-256 of the sorted points off every pair locus by the one-table
#: oracles: over 1:1:1:1 at Y = 32, over each x of FERMAT_ORBIT at Y = 24,
#: and over each x of JOIN_CHECK_SHAPES at Y = 12; and of the cone fibers
#: of CONE_CHECK_SHAPES at Y = 20 by the meet in the middle over the box
FERMAT_32_SHA256 = sha256_of(sorted(_fermat_collisions(32)))
FERMAT_ORBIT_24_SHA256 = sha256_of([sorted(_surface_scan(xs, 24)) for xs in FERMAT_ORBIT])
JOINS_12_SHA256 = sha256_of([sorted(_surface_scan(xs, 12)) for xs in JOIN_CHECK_SHAPES])
CONES_20_SHA256 = sha256_of([surface_oracle(xs, 20) for xs in CONE_CHECK_SHAPES])

#: the CSV of count_series((1, 2, 4, 8, 16, 32))
COUNT_32_ROWS = [
    "B,ALL,IN_Z,NOT_IN_Z,IN_SOME_V,LIFTABLE_ONLY,SINGULAR_FIBER",
    "1,440,440,0,440,0,368",
    "2,1304,1304,0,1304,0,1136",
    "4,6296,6296,0,6296,0,5744",
    "8,39944,39848,96,39416,432,37088",
    "16,260840,260744,96,259544,1200,251648",
    "32,1928872,1927976,896,1924376,3600,1892288",
]

CHECKS = {
    # (galois order, rank over Q) of one surface of each of the 28 relation
    # lattices, and the group and line orbits that the lines command shows
    "lattice ranks": f"""
        from cubicbundle.picard import DiagonalCubic, galois_group, orbits, picard_rank
        surfaces = [DiagonalCubic(c) for c in {LATTICE_COEFFICIENTS!r}]
        reports = list(map(picard_rank, surfaces))
        assert [(report.galois_order, report.rank_over_Q) for report in reports] == [
            (54, 1), (18, 1), (6, 1), (2, 4), (6, 1), (6, 2), (6, 3), (18, 1), (6, 1), (6, 2),
            (6, 3), (18, 1), (6, 2), (6, 2), (6, 2), (18, 1), (6, 3), (6, 2), (6, 1), (18, 1),
            (18, 1), (18, 1), (18, 1), (18, 1), (18, 2), (18, 1), (18, 2), (18, 2),
        ]
        for s, report in zip(surfaces, reports):
            group = galois_group(s)
            assert len(group) == report.galois_order
            assert tuple(sorted(map(len, orbits(group)))) == report.orbit_sizes
    """,
    # Segre's criterion against the lattice rank on one surface of each of the
    # 28 lattices and on three where one pairing ratio alone is a cube, each
    # also with a0 times 820: 820 = 1 mod 819 is no cube, so a product with it
    # passes the residue test and only the cube root turns it away
    "segre and residues": f"""
        from cubicbundle.picard import DiagonalCubic, picard_rank
        surfaces = {LATTICE_COEFFICIENTS!r} + [(2, 3, 1, 6), (2, 1, 3, 6), (1, 2, 3, 6)]
        surfaces += [(820 * a0, a1, a2, a3) for a0, a1, a2, a3 in surfaces]
        reports = [picard_rank(DiagonalCubic(c)) for c in surfaces]
        assert all(report.agreement for report in reports)
        assert [report.rank_over_Q for report in reports] == [
            1, 1, 1, 4, 1, 2, 3, 1, 1, 2, 3, 1, 2, 2, 2, 1, 3, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2, 2,
            2, 2, 2,
        ] + [1] * 31
    """,
    # the relation mask of one surface of each of the 28 lattices, all of
    # whose a0 are 1, against the same surfaces scaled by a non-cube
    "masks under scaling": f"""
        from cubicbundle.picard import DiagonalCubic, _relation_mask
        for c in {LATTICE_COEFFICIENTS!r}:
            mask = _relation_mask(DiagonalCubic(c))
            for scale in (2, 7, 12):
                assert _relation_mask(DiagonalCubic([scale * a for a in c])) == mask, (c, scale)
    """,
    # the relation lattice of one surface of each of the 28 subgroups
    "relation lattices": f"""
        from cubicbundle.picard import DiagonalCubic, relation_lattice
        lattices = [tuple(relation_lattice(DiagonalCubic(c))) for c in {LATTICE_COEFFICIENTS!r}]
        assert lattices == {subgroups_of_z3_cubed()!r}
    """,
    # smooth fibers whose pair-locus lines have multipliers other than +-1
    "smooth meet": """
        import hashlib
        from cubicbundle.arith import ProjectivePoint
        from cubicbundle.enumeration import enumerate_fiber
        xs = [(1, 8, 27, 64), (1, -8, 27, -64), (1, 1, 8, 8), (1, 8, -27, 1)]
        try:
            points = [[y.coords for y in enumerate_fiber(ProjectivePoint(x), 14)] for x in xs]
        except TypeError as error:
            raise AssertionError(error) from error
        assert list(map(len, points)) == [110, 110, 433, 187]
        assert hashlib.sha256(repr(points).encode()).hexdigest() == (
            "0e7fc2310b3a9c106467e626485311d51208e1afdd13614d44e3e344d75ea683"
        )
    """,
    # the one pair point (1, 2) of pairing 1 over 1:3:-8:1 has height 2
    "pair point height": """
        from cubicbundle.arith import ProjectivePoint
        from cubicbundle.enumeration import enumerate_fiber
        x = ProjectivePoint((1, 3, -8, 1))
        assert [y.coords for y in enumerate_fiber(x, 1)] == [(1, 0, 0, -1)]
        assert [y.coords for y in enumerate_fiber(x, 2)] == [
            (0, 0, 1, 2), (1, 0, 0, -1), (2, -2, -1, 2), (2, 0, 1, 0),
        ]
    """,
    # the Fermat fiber's points off every pair locus, by its self-join
    "fermat collisions": f"""
        import hashlib
        from cubicbundle.enumeration import _cube_sum_join
        points = sorted(_cube_sum_join((1, 1, 1, 1), 32))
        assert len(points) == 240
        assert hashlib.sha256(repr(points).encode()).hexdigest() == {FERMAT_32_SHA256!r}
    """,
    # the fibers over 1:+-1:+-1:+-1, each from the one join over 1:1:1:1
    "fermat orbit": f"""
        import hashlib
        from cubicbundle import enumeration
        real = enumeration._cube_sum_join

        def join(xs, bound):
            assert xs == (1, 1, 1, 1), xs
            return real(xs, bound)

        enumeration._cube_sum_join = join
        points = [sorted(enumeration._smooth_locus(xs, 24)[1]) for xs in {FERMAT_ORBIT!r}]
        assert hashlib.sha256(repr(points).encode()).hexdigest() == {FERMAT_ORBIT_24_SHA256!r}
    """,
    # probes and a self-join over positive smooth x
    "smooth joins": f"""
        import hashlib
        from cubicbundle.enumeration import _cube_sum_join
        points = [sorted(_cube_sum_join(xs, 12)) for xs in {JOIN_CHECK_SHAPES!r}]
        assert hashlib.sha256(repr(points).encode()).hexdigest() == {JOINS_12_SHA256!r}
    """,
    # the join's (0, 1, 1, -1) over 1:1:1:2, mapped onto 1:-1:-1:2 and negated
    "signed join": """
        from cubicbundle.enumeration import _fiber_walk
        assert sorted(_fiber_walk((1, -1, -1, 2), 1)) == [
            (0, 1, -1, 0), (0, 1, 1, 1), (1, -1, 0, -1), (1, 0, -1, -1), (1, 0, 1, 0), (1, 1, 0, 0),
        ]
    """,
    # cones whose plane cubic has points of height up to 20
    "cone walks": f"""
        import hashlib
        from cubicbundle.enumeration import _fiber_walk
        walks = [sorted(_fiber_walk(xs, 20)) for xs in {CONE_CHECK_SHAPES!r}]
        assert hashlib.sha256(repr(walks).encode()).hexdigest() == {CONES_20_SHA256!r}
    """,
    # liftability, singularity and rank of every fiber over H(x) <= 3
    "fiber profiles": f"""
        import hashlib
        from cubicbundle.classify import _fiber_profile
        from cubicbundle.enumeration import canonical_coords
        try:
            profiles = list(map(_fiber_profile, canonical_coords(4, 3)))
        except (ValueError, RuntimeError) as error:
            raise AssertionError(error) from error
        assert hashlib.sha256(repr(profiles).encode()).hexdigest() == {PROFILES_SHA256!r}
    """,
    # each record's in_V against the pair sums, and in_Z against them and
    # liftability, over a rank-1, a singular liftable and a rank-2 fiber, each
    # with points off every pair locus, and the Fermat fiber, which meets
    # every pattern of pair loci but all three
    "classified points": """
        from cubicbundle.arith import ProjectivePoint
        from cubicbundle.classify import classify_point
        from cubicbundle.enumeration import enumerate_fiber
        from cubicbundle.geometry import BundlePoint
        fibers = [((1, 2, 3, 5), 6, False), ((0, 1, 2, 3), 3, True), ((1, 1, 2, 4), 10, True),
                  ((1, 1, 1, 1), 12, True)]
        for xs, bound, lifts in fibers:
            x = ProjectivePoint(xs)
            for y in enumerate_fiber(x, bound):
                record = classify_point(BundlePoint(x, y))
                t0, t1, t2, t3 = (a * b ** 3 for a, b in zip(xs, y.coords))
                in_v = {1: t0 + t1 == 0 == t2 + t3, 2: t0 + t2 == 0 == t1 + t3,
                        3: t0 + t3 == 0 == t1 + t2}
                assert record.in_V == in_v, (xs, y)
                assert record.in_Z == (any(in_v.values()) or lifts), (xs, y)
    """,
    # records over a liftable and a non-liftable fiber through pickle at every
    # protocol, deepcopy and copy: same values, reprs and map types
    "pickled records": """
        import copy, pickle
        from cubicbundle.arith import normalize
        from cubicbundle.classify import classify_point
        from cubicbundle.geometry import BundlePoint
        points = [((1, 1, 2, 4), (1, 1, -1, 0)), ((1, 2, 3, 5), (1, 1, -1, 0))]
        records = [classify_point(BundlePoint(normalize(x), normalize(y))) for x, y in points]
        try:
            copies = [pickle.loads(pickle.dumps(records, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.deepcopy(records), copy.copy(records)]
        except TypeError as error:
            raise AssertionError(error) from error
        for other in copies:
            assert other == records and repr(other) == repr(records)
            assert [list(map(type, r)) for r in other] == [list(map(type, r)) for r in records]
    """,
    # the count to B = 32; a point that fails its bundle check fails it, and
    # so does one counted past the last bound
    "count to 32": f"""
        from cubicbundle.enumeration import count_series
        try:
            csv = count_series((1, 2, 4, 8, 16, 32)).csv_text()
        except (ValueError, IndexError) as error:
            raise AssertionError(error) from error
        assert csv.splitlines() == {COUNT_32_ROWS!r}
    """,
    # the plane over 1:1:0:0, whose curve point (-1, 1) has a negative first entry
    "walk over 1:1:0:0": """
        from cubicbundle.arith import is_canonical
        from cubicbundle.enumeration import _fiber_walk
        assert all(map(is_canonical, _fiber_walk((1, 1, 0, 0), 3)))
    """,
    # the plane over 1:0:0:-1, whose curve piece holds the first coordinate
    "walk over 1:0:0:-1": """
        from cubicbundle.arith import is_canonical
        from cubicbundle.enumeration import _fiber_walk
        assert all(map(is_canonical, _fiber_walk((1, 0, 0, -1), 3)))
    """,
    # the dump of `enumerate --bound 8`; a writer that refuses a base point fails it
    "enumerate 8 bytes": f"""
        import hashlib
        from cubicbundle.dump import point_rows
        try:
            rows = "".join(point_rows(8))
        except RuntimeError as error:
            raise AssertionError(error) from error
        assert hashlib.sha256(rows.encode()).hexdigest() == {ENUMERATE_8_SHA256!r}
    """,
    # the plane over 1:-8:0:0, whose curve point (2, 1) is checked by its cubes
    "box over 1:-8:0:0": """
        from cubicbundle.enumeration import _fiber_locus
        from cubicbundle.geometry import NotOnVariety
        try:
            boxes, points = _fiber_locus((1, -8, 0, 0), 1)
        except NotOnVariety as error:
            raise AssertionError(error) from error
        assert boxes == [(((0, 2), (0, 1), (1, 1), (2, 1)), (2, 1, 1), (), True)]
        assert points == []
    """,
}

MUTANTS = {
    "a wrong rank in the lattice table": (
        "picard.py",
        "0x0200: (2, (3, 3, 6, 6, 9), 18),",
        "0x0200: (1, (3, 3, 6, 6, 9), 18),",
        "lattice ranks",
    ),
    "the line action without conjugation": (
        "picard.py",
        "eps = -1 if g.conj else 1",
        "eps = 1",
        "lattice ranks",
    ),
    "the twist filter testing one relation": (
        "picard.py",
        "for e1, e2, e3 in relations)",
        "for e1, e2, e3 in relations[-1:])",
        "lattice ranks",
    ),
    "a cube test of n*d for n*d^2": (
        "arith.py",
        "exact_cube_root(numerator * denominator * denominator)",
        "exact_cube_root(numerator * denominator)",
        "fiber profiles",
    ),
    "a relation mask on the residue alone": (
        "picard.py",
        "if m % 819 in _CUBE_RESIDUES and _root_of_cube(m) is not None:\n            mask |=",
        "if m % 819 in _CUBE_RESIDUES:\n            mask |=",
        "segre and residues",
    ),
    "a Segre check that stops before its third pairing": (
        "picard.py",
        "for m in (a0 * a1 * b1 * b1, a0 * a2 * b2 * b2, a0 * a3 * b3 * b3):",
        "for m in (a0 * a1 * b1 * b1, a0 * a2 * b2 * b2):",
        "segre and residues",
    ),
    "a lattice product with a wrong exponent of a0": (
        "picard.py",
        "a12 * q3 * q0,  # (1, 1, 2)",
        "a12 * q3 * a0,  # (1, 1, 2)",
        "masks under scaling",
    ),
    "two lattice products swapped": (
        "picard.py",
        "a3 * q0,  # (0, 0, 1)\n        a2 * q0,  # (0, 1, 0)",
        "a2 * q0,  # (0, 0, 1)\n        a3 * q0,  # (0, 1, 0)",
        "relation lattices",
    ),
    "a relation lattice without the doubled exponent": (
        "picard.py",
        "found += (e, double)",
        "found += (e,)",
        "relation lattices",
    ),
    "the smooth meet of m for m^3": (
        "enumeration.py",
        "_cube_pair(xs[0] * m0 ** 3, xs[b] * mb ** 3)",
        "_cube_pair(xs[0] * m0, xs[b] * mb)",
        "smooth meet",
    ),
    "a pair point's height from a signed d": (
        "enumeration.py",
        "if max(abs(c), abs(d)) <= bound:",
        "if max(abs(c), d) <= bound:",
        "pair point height",
    ),
    "a Fermat collision without the swapped ordering": (
        "enumeration.py",
        "for y0, y1 in {(a, b), (b, a)} if x0 == x1",
        "for y0, y1 in {(a, b)} if x0 == x1",
        "fermat collisions",
    ),
    # a representative paired with itself is on a pair locus, so the join
    # drops it; this one takes the row's representative as the first as well
    "a Fermat representative paired with itself": (
        "enumeration.py",
        "collided.setdefault(key, [first(key)])",
        "collided.setdefault(key, [(a, row[key])])",
        "fermat collisions",
    ),
    "the Fermat collisions over 1:1:1:1 alone": (
        "enumeration.py",
        "_cube_sum_join(positive, bound)",
        "_cube_sum_join(xs, bound)",
        "fermat orbit",
    ),
    "the Fermat orbit map dropped": (
        "enumeration.py",
        "(y0, e1 * y1, e2 * y2, e3 * y3) if y0",
        "(y0, y1, y2, y3) if y0",
        "fermat orbit",
    ),
    "a row that keeps key 0": (
        "enumeration.py",
        "low = bisect_right(q_cubes, -t)",
        "low = bisect_left(q_cubes, -t)",
        "fermat collisions",
    ),
    "the swap dropped on the right side": (
        "enumeration.py",
        "for y2, y3 in {(c, d), (d, c)} if x2 == x3",
        "for y2, y3 in {(c, d)} if x2 == x3",
        "fermat collisions",
    ),
    "the pairing-3 locus test dropped": (
        "enumeration.py",
        "if t0 != t2 and t0 != t3:",
        "if t0 != t2:",
        "smooth joins",
    ),
    "the sign flip dropped": (
        "enumeration.py",
        "else (0, y1, e1 * e2 * y2, e1 * e3 * y3)",
        "else (0, e1 * y1, e2 * y2, e3 * y3)",
        "signed join",
    ),
    "a plane cubic point without its gcd test": (
        "enumeration.py",
        "if math.gcd(u, v, w) == 1:",
        "if True:",
        "cone walks",
    ),
    "a point counted at the bound above its height": (
        "enumeration.py",
        "bisect_left(bounds, hx3 * (key >> 3))",
        "bisect_right(bounds, hx3 * (key >> 3))",
        "count to 32",
    ),
    "a profile lifting only when both pair products vanish": (
        "classify.py",
        "not (a and b)",
        "not (a or b)",
        "fiber profiles",
    ),
    "the in_V table with the bits of pairings 2 and 3 swapped": (
        "classify.py",
        "bool(k >> p - 1 & 1)",
        "bool(k >> (1 - p) % 3 & 1)",
        "classified points",
    ),
    "in_Z without liftability": (
        "classify.py",
        "in_z = k != 0 or any(lifts.values())",
        "in_z = k != 0",
        "classified points",
    ),
    "the flag map without __reduce__": (
        "classify.py",
        "\n    def __reduce__(self):\n        return type(self), (dict(self),)\n",
        "\n",
        "pickled records",
    ),
    "a checked point with y0^2 for y0^3": (
        "enumeration.py",
        "t0, t1, t2, t3 = x0 * y0 * y0 * y0,",
        "t0, t1, t2, t3 = x0 * y0 * y0,",
        "count to 32",
    ),
    "a Moebius sum one divisor short": (
        "enumeration.py",
        "for d in range(1, bound + 1):",
        "for d in range(1, bound):",
        "count to 32",
    ),
    "LIFTABLE_ONLY from the points on a pair locus": (
        "enumeration.py",
        '"LIFTABLE_ONLY": off_loci if liftable else zeros,',
        '"LIFTABLE_ONLY": on_loci if liftable else zeros,',
        "count to 32",
    ),
    "an orbit weight without its signs": (
        "enumeration.py",
        "perms * 2 ** (4 - rep.count(0) - 1)",
        "perms",
        "count to 32",
    ),
    "a join without its sign flip": (
        "enumeration.py",
        "sign = 1 if first > 0 else -1",
        "sign = 1",
        "walk over 1:1:0:0",
    ),
    "a join without its sort": (
        "enumeration.py",
        "sorted(zip(firsts, pieces))",
        "zip(firsts, pieces)",
        "walk over 1:0:0:-1",
    ),
    "the box writer at one zero": (
        "dump.py",
        "if x.count(0) >= 2:",
        "if x.count(0) >= 1:",
        "enumerate 8 bytes",
    ),
    "a sign pattern with y0's sign reversed": (
        "dump.py",
        "(y0 > 0) - (y0 < 0)",
        "(y0 < 0) - (y0 > 0)",
        "enumerate 8 bytes",
    ),
    "a trailing run with y2's text for y3's": (
        "dump.py",
        "str(y[3]).join",
        "str(y[2]).join",
        "enumerate 8 bytes",
    ),
    "parameter sums of m for m^3": (
        "enumeration.py",
        "sums[p] += xs[k] * m ** 3",
        "sums[p] += xs[k] * m",
        "box over 1:-8:0:0",
    ),
}


def run_check(root: Path, check: str) -> subprocess.CompletedProcess:
    """Run the named check against the package copy under root."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(CHECKS[check])],
        env=dict(os.environ, PYTHONPATH=str(root)),
        capture_output=True,
        text=True,
        timeout=60,
    )


def package_copy(root: Path) -> Path:
    """A copy of the package, without bytecode, under root."""
    return Path(shutil.copytree(PACKAGE, root / "cubicbundle",
                                ignore=shutil.ignore_patterns("__pycache__")))


@pytest.mark.parametrize("check", CHECKS)
def test_check_passes_on_the_program(tmp_path, check):
    package_copy(tmp_path)
    result = run_check(tmp_path, check)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module, old, new, check", MUTANTS.values(), ids=MUTANTS)
def test_mutant_fails_its_check(tmp_path, module, old, new, check):
    path = package_copy(tmp_path) / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    result = run_check(tmp_path, check)
    assert result.returncode != 0
    assert result.stderr.rstrip().splitlines()[-1].startswith("AssertionError"), result.stderr
