import hashlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from concurrent import futures
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicbundle
from cubicbundle import classify, cli, dump, enumeration
from cubicbundle.arith import (
    InvalidArgument,
    InvalidPoint,
    ProjectivePoint,
    exact_cube_root,
    is_canonical,
    naive_height,
    normalize,
)
from cubicbundle.classify import classify_point
from cubicbundle.dump import (
    _box_rows,
    _fiber_rows,
    _orbit_map,
    _pair_locus_map,
    _rep_walk,
    _run_segments,
    _signed,
    _sort_by,
    point_rows,
)
from cubicbundle.enumeration import (
    CLASS_LABELS,
    POOL_MIN_BOUND,
    CountSeries,
    _base_height,
    _base_orbits,
    _box_coords,
    _checked_points,
    _classify_fiber,
    _cube_sum_join,
    _fiber_locus,
    _fiber_walk,
    _flag_fields,
    _half_box,
    _join,
    _smooth_locus,
    base_points,
    canonical_coords,
    count_series,
    enumerate_fiber,
    point_row,
    primitive_count,
)
from cubicbundle.geometry import PAIRINGS, BundlePoint, NotOnVariety, on_bundle
from oracles import (
    _fermat_collisions,
    _surface_scan,
    box_coords,
    brute_force_bundle,
    enumerate_bundle,
    fiber_rows,
    flag_field,
    orbit_members,
)

#: planes x = e_i, cube-ratio planes with t-side 1 and 2, and non-cube lines
LINEAR_SHAPES = [
    (1, 0, 0, 0),
    (0, 0, 1, 0),
    (1, -1, 0, 0),
    (1, 1, 0, 0),
    (1, -8, 0, 0),
    (8, -1, 0, 0),
    (1, -2, 0, 0),
    (0, 3, 0, 5),
]

#: the base points of the Fermat orbit, 1:+-1:+-1:+-1, whose points off
#: every pair locus are the collisions of one table of a^3 + b^3
FERMAT_ORBIT = [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]

#: SHA-256 of the repr of the list of enumerate_fiber walks, as coordinate
#: tuples, over each x of FERMAT_ORBIT at Y = 16 and then at Y = 64, taken
#: when only 1:1:1:1 was found from the collisions and the rest by the scan
FERMAT_ORBIT_WALKS_SHA256 = "db5c4eeefb307cfdb66ae2bf220647fb03ab9e9f3836f82d7e4d4272e00d9490"

#: cone and smooth fibers: a cone whose curve has only trivial points, cones
#: with a curve point off every pair locus (zero at index 0 and at index 2),
#: three lines, no line but an isolated pair-locus point for each pairing,
#: exactly one line, no rational pair-locus point, three lines of side 2
SURFACE_SHAPES = [
    (0, 1, 1, 1),
    (0, 1, 1, -2),
    (1, 1, 0, -2),
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, -1, 2, -2),
    (1, 2, 3, 4),
    (1, -8, 1, -1),
]

#: smooth fibers whose join meets one side's table with itself, (1, 1, 8, 8)
#: with both sides swap-folded, and base points with multipliers other than
#: 1, three of them cones or a plane, which the join does not see
JOIN_SHAPES = [
    (1, 2, 1, 2),
    (1, 8, 1, 8),
    (1, 1, 8, 8),
    (1, 8, 27, 64),
    (1, -8, 27, -64),
    (8, 27, 1, -125),
    (2, 16, 27, 128),
    (0, 1, 8, 27),
    (0, 2, 16, -27),
    (0, 0, 8, 27),
    (1, 27, 2, 54),
    (1, 8, -27, 1),
]

#: dump-row fibers: every linear and surface shape, and the smooth fiber over
#: 1:2:3:5, which does not lift
ROW_SHAPES = [*LINEAR_SHAPES, (0, 1, 1, 1), (1, 1, 1, 1), (1, 2, 3, 5)]
ROW_SHAPES += [xs for xs in SURFACE_SHAPES if xs not in ROW_SHAPES]


def surface_oracle(xs, bound):
    """The fiber above a cone or smooth x by meet in the middle over the whole
    box, sorted: hash x0*ya^3 + x1*yb^3 over the half plane (ya, yb) > (0, 0),
    scan (yc, yd) over the whole square, add the solutions with ya = yb = 0
    and (yc, yd) in the half plane, and keep the canonical hits."""
    cubes = {k: k ** 3 for k in range(-bound, bound + 1)}
    rng = range(-bound, bound + 1)
    x0, x1, x2, x3 = xs
    half_plane = list(_half_box((bound, bound)))
    table = {}
    for ya, yb in half_plane:
        table.setdefault(x0 * cubes[ya] + x1 * cubes[yb], []).append((ya, yb))
    hits = [
        (ya, yb, yc, yd)
        for yc, yd in itertools.product(rng, repeat=2)
        for ya, yb in table.get(-(x2 * cubes[yc] + x3 * cubes[yd]), ())
    ]
    hits += [(0, 0, yc, yd) for yc, yd in half_plane if x2 * cubes[yc] + x3 * cubes[yd] == 0]
    return sorted(filter(is_canonical, hits))


def classified_tally(points, grid):
    """CSV columns on the grid from classify_point on each given point: the
    per-point oracle of count_series."""
    expected = {label: [0] * len(grid) for label in CLASS_LABELS}
    for point in points:
        record = classify_point(point)
        labels = ["ALL", "IN_Z" if record.in_Z else "NOT_IN_Z"]
        if any(record.in_V.values()):
            labels.append("IN_SOME_V")
        elif record.in_Z:
            labels.append("LIFTABLE_ONLY")
        if record.singular_fiber:
            labels.append("SINGULAR_FIBER")
        height = naive_height(point.x) ** 3 * naive_height(point.y)
        for idx, b in enumerate(grid):
            if height <= b:
                for label in labels:
                    expected[label][idx] += 1
    return expected


def classified_rows(height_bound):
    """Dump rows from enumerate_bundle and classify_point, in numeric order."""
    return [
        point_row(classify_point(p), naive_height(p.x) ** 3 * naive_height(p.y))
        for p in enumerate_bundle(height_bound)
    ]


def dump_text(rows):
    """The dump of the given rows: each row and a newline."""
    return "".join(row + "\n" for row in rows)


def member_rows(xs, height_bound, as_text):
    """The dump rows of the fiber above xs, built from its representative's
    walk, with the walk cache empty before and after."""
    _rep_walk.cache_clear()
    try:
        return _fiber_rows(xs, height_bound, as_text)
    finally:
        _rep_walk.cache_clear()


def first_row_difference(got: str, want: str):
    """None when the two dumps are equal, else (index, got, wanted) for the
    first row where they differ, a missing row read as None: a short report
    where pytest would diff strings of several hundred kB."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next((k, g, w) for k, (g, w) in enumerate(pairs) if g != w)


def member_point(perm, signs, y):
    """The point of the member's fiber that the signed permutation makes
    of the representative's point y: z_k = signs[k] * y[perm[k]], made
    canonical."""
    z = tuple(s * y[p] for s, p in zip(signs, perm))
    return z if z > (0, 0, 0, 0) else tuple(-v for v in z)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the process pool by one that records its sizes and map calls
    and runs the tasks in-process."""
    record = {"sizes": [], "maps": []}

    class RecordingPool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            record["maps"].append((tasks, chunksize))
            return map(fn, tasks)

    # enumeration imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    return record


class TestFiber:
    def test_unit_fiber_bound_one(self):
        fiber = enumerate_fiber(normalize([1, 1, 1, 1]), 1)
        assert len(fiber) == 9  # frozen via the box brute force
        coords = {y.coords for y in fiber}
        assert (1, -1, 0, 0) in coords
        assert (0, 1, 0, -1) in coords
        assert (1, -1, 1, -1) in coords

    def test_plane_fiber(self):
        fiber = enumerate_fiber(normalize([1, 0, 0, 0]), 1)
        assert all(y.coords[0] == 0 for y in fiber)
        # all 13 canonical points of P^2 with height <= 1 appear
        assert len(fiber) == 13

    def test_bound_zero_empty(self):
        # below bound 1 every part of a fiber's description is empty: planes,
        # a line, curve and vertex-only cones, the Fermat fiber's collisions,
        # a single pair point (over 1:3:-8:1) and the scan
        for xs in [(1, 2, 3, 4), (1, 0, 0, 0), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, 2),
                   (0, 1, 1, 1), (0, 3, 4, 5), (1, 1, 1, 1), (1, 3, -8, 1), (1, 1, 2, 2)]:
            for bound in (0, -1, -10**30):
                assert enumerate_fiber(normalize(xs), bound) == [], (xs, bound)

    def test_two_term_cube_fiber(self):
        fiber = enumerate_fiber(normalize([1, -8, 0, 0]), 4)
        for y in fiber:
            assert y.coords[0] ** 3 == 8 * y.coords[1] ** 3
        assert any(y.coords[:2] == (2, 1) for y in fiber)

    def test_two_term_noncube_fiber(self):
        fiber = enumerate_fiber(normalize([1, -2, 0, 0]), 3)
        assert all(y.coords[0] == y.coords[1] == 0 for y in fiber)

    # the five after LINEAR_SHAPES: y's first nonzero coordinate comes from a
    # parameter other than the first or from a negative multiplier, or x is a
    # cone; over 1:3:-8:1 the one pair point (1, 2) of pairing 1 has height 2
    @pytest.mark.parametrize("xs", [
        (1, 1, 1, 1), (1, 0, 0, 2), (0, 1, -1, 3), (1, 2, 3, 4), *LINEAR_SHAPES,
        (0, 1, 1, 1), (0, 0, 1, -1), (0, 1, -8, 0), (0, 1, 8, 0), (8, 1, 0, 0),
        (1, 3, -8, 1),
    ])
    def test_matches_box_scan(self, xs):
        x = normalize(xs)
        x0, x1, x2, x3 = x.coords
        for bound in (1, 2, 3, 5, 8):
            expected = set()
            for ys in itertools.product(range(-bound, bound + 1), repeat=4):
                if not any(ys):
                    continue
                y0, y1, y2, y3 = ys
                if x0 * y0 ** 3 + x1 * y1 ** 3 + x2 * y2 ** 3 + x3 * y3 ** 3 == 0:
                    expected.add(normalize(ys).coords)
            assert {y.coords for y in enumerate_fiber(x, bound)} == expected, bound

    @pytest.mark.parametrize("xs", [(1, 1, 1, 1), (0, 1, 1, 1), *LINEAR_SHAPES])
    def test_walk_offers_no_tuple_with_its_negative(self, monkeypatch, xs):
        offered = []

        def recording(coords):
            offered.append(coords)
            return is_canonical(coords)

        monkeypatch.setattr(enumeration, "is_canonical", recording)
        ys = sorted(enumeration._fiber_walk(xs, 10))
        assert ys and all(map(is_canonical, ys))
        assert len(set(offered)) == len(offered)
        assert not set(offered) & {tuple(-c for c in t) for t in offered}

    @pytest.mark.parametrize(
        "xs", [(1, 1, 1, 1), (0, 1, -1, 3), (1, 0, 2, -2), (1, 2, 3, 4), (1, -8, 1, -1)]
    )
    def test_sorted_and_duplicate_free(self, xs):
        fiber = enumerate_fiber(normalize(xs), 5)
        coords = [y.coords for y in fiber]
        assert coords == sorted(set(coords))

    def test_points_are_checked_point_objects(self):
        fiber = enumerate_fiber(normalize([1, 1, 1, 1]), 3)
        assert fiber and all(type(y) is ProjectivePoint for y in fiber)
        assert fiber == [ProjectivePoint(y.coords) for y in fiber]

    # a negative first nonzero coordinate, a common factor, the zero tuple
    @pytest.mark.parametrize("bad", [(0, -1, 1, 0), (2, -2, 0, 0), (0, 0, 0, 0)])
    def test_non_canonical_walk_raises(self, monkeypatch, bad):
        monkeypatch.setattr(enumeration, "_fiber_walk", lambda xs, bound: [(1, -1, 0, 0), bad])
        with pytest.raises(InvalidPoint, match=rf"coordinates \({bad[0]}, .* are not canonical"):
            enumerate_fiber(normalize([1, 1, 1, 1]), 3)

    def test_non_canonical_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import enumeration
            from cubicbundle.arith import normalize
            assert False, "asserts must be off"
            enumeration._fiber_walk = lambda xs, bound: [(1, -1, 0, 0), (0, -1, 1, 0)]
            enumeration.enumerate_fiber(normalize([1, 1, 1, 1]), 3)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.arith.InvalidPoint: coordinates (0, -1, 1, 0) are not canonical"


class TestBoxWalk:
    """The walk of each box against the per-vector walk in tests/oracles.py."""

    def test_matches_the_per_vector_walk_on_every_small_fiber(self):
        walked = 0
        for xs in canonical_coords(4, 3):
            for bound in (1, 2, 7, 20):
                boxes, _ = _fiber_locus(xs, bound)
                for params, sides, _, _ in boxes:
                    ys = _box_coords(params, sides, bound)
                    assert len(ys) == len(set(ys)), (xs, params, bound)
                    assert set(ys) == set(box_coords(params, sides, bound)), (xs, params, bound)
                    assert all(map(is_canonical, ys)), (xs, params, bound)
                    assert all(max(map(abs, y)) <= bound for y in ys), (xs, params, bound)
                    walked += len(ys)
        assert walked > 0

    def test_pair_locus_flag_matches_the_points(self):
        # every fiber kind over the 1,120 base points of height <= 3
        bases = walked = 0
        for xs in canonical_coords(4, 3):
            bases += 1
            boxes, _ = _fiber_locus(xs, 6)
            for params, sides, shared, on in boxes:
                for y in box_coords(params, sides, 6):
                    if y in shared:
                        continue
                    terms = [x * c ** 3 for x, c in zip(xs, y)]
                    on_locus = any(
                        terms[i] + terms[j] == 0 and terms[k] + terms[l] == 0
                        for (i, j), (k, l) in PAIRINGS.values()
                    )
                    assert on_locus == on, (xs, params, y)
                    walked += 1
        assert bases == 1120 and walked > 0

    @pytest.mark.parametrize("params, sides", [
        # a negative first multiplier; a parameter first used after the other
        (((0, -1), (0, 2), (1, 1), (1, 0)), (2, 1)),
        (((1, 0), (1, 3), (0, -1), (1, -2)), (1, 3)),
        # three parameters, the first one used last
        (((1, 1), (2, -1), (0, 1), (0, 0)), (1, 1, 1)),
    ])
    @pytest.mark.parametrize("bound", [0, 1, 2, 5, 9])
    def test_renumbered_and_negated_parameters(self, params, sides, bound):
        # the box joined from its parameters' pieces, in first-use form
        pieces = []
        for p in range(len(sides)):
            indices = [k for k in range(4) if params[k][0] == p]
            pieces.append((indices, [params[k][1] for k in indices]))
        joined, joined_sides = _join(*pieces)
        firsts = {}
        for p, m in joined:
            if m:
                firsts.setdefault(p, m)
        assert list(firsts) == list(range(len(sides))), joined
        assert all(m > 0 for m in firsts.values()), joined
        ys = _box_coords(joined, joined_sides, bound)
        assert len(ys) == len(set(ys))
        assert set(ys) == set(box_coords(joined, joined_sides, bound))
        assert set(ys) == set(box_coords(params, sides, bound))
        assert all(map(is_canonical, ys))


class TestBundleEnumeration:
    def test_b1_pin(self):
        assert sum(1 for _ in enumerate_bundle(1)) == 440

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_oracle_equivalence(self, bound):
        mine = {(p.x.coords, p.y.coords) for p in enumerate_bundle(bound)}
        assert mine == brute_force_bundle(bound)

    def test_no_duplicates(self):
        points = [(p.x.coords, p.y.coords) for p in enumerate_bundle(4)]
        assert len(points) == len(set(points))

    def test_deterministic_stream(self):
        first = [(p.x.coords, p.y.coords) for p in enumerate_bundle(3)]
        second = [(p.x.coords, p.y.coords) for p in enumerate_bundle(3)]
        assert first == second

    def test_heights_respect_bound(self):
        for p in enumerate_bundle(8):
            assert naive_height(p.x) ** 3 * naive_height(p.y) <= 8

    def test_height_split(self):
        # base points of height 2 appear exactly when 8 <= B
        assert all(naive_height(x) == 1 for x in base_points(7))
        assert any(naive_height(x) == 2 for x in base_points(8))

    @pytest.mark.parametrize("bound", [0, -5])
    def test_no_base_point_below_bound_one(self, bound):
        # H(x) >= 1 for every x, so no base point has H(x)^3 <= bound < 1
        assert base_points(bound) == []
        assert enumerate_fiber(normalize([1, 1, 1, 1]), bound) == []

    def test_rejects_zero_bound(self):
        with pytest.raises(InvalidArgument):
            list(enumerate_bundle(0))

    @pytest.mark.parametrize("bound", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_bound(self, bound):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            next(enumerate_bundle(bound))
        with pytest.raises(InvalidArgument, match="must be an integer"):
            enumerate_fiber(normalize([1, 1, 1, 1]), bound)
        with pytest.raises(InvalidArgument, match="must be an integer"):
            base_points(bound)


class TestCountSeries:
    def test_b1_consistency(self):
        series = count_series([1])
        assert series.counts["ALL"][0] == 440

    def test_partition_and_monotonicity(self):
        series = count_series([1, 2, 4, 8])
        for idx in range(4):
            total = series.counts["ALL"][idx]
            assert total == series.counts["IN_Z"][idx] + series.counts["NOT_IN_Z"][idx]
            assert series.counts["IN_SOME_V"][idx] <= series.counts["IN_Z"][idx]
            assert series.counts["LIFTABLE_ONLY"][idx] <= series.counts["IN_Z"][idx]
        for label in CLASS_LABELS:
            counts = series.counts[label]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_worker_counts_agree(self):
        solo = count_series([1, 2, 4], workers=1)
        duo = count_series([1, 2, 4], workers=2)
        trio = count_series([1, 2, 4], workers=3)
        assert solo.counts == duo.counts == trio.counts

    def test_point_rows_sorted(self):
        rows = "".join(point_rows(2, as_text=True)).splitlines()
        assert rows == sorted(rows)
        assert all(len(row.split("|")) == 4 for row in rows)

    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidArgument):
            count_series([])
        with pytest.raises(InvalidArgument):
            count_series([2, 2])
        with pytest.raises(InvalidArgument):
            count_series([4, 2])
        with pytest.raises(InvalidArgument):
            count_series([2], workers=0)
        with pytest.raises(InvalidArgument):
            count_series([1.9, 2.5])

    @pytest.mark.parametrize("workers", [1.5, "2", None])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(InvalidArgument, match="workers must be an integer"):
            count_series([1, 2, 4, 8, 16], workers=workers)

    def test_off_bundle_point_raises(self, monkeypatch):
        # (0:0:0:1) is not on the fiber over the first orbit's (0:0:0:1)
        monkeypatch.setattr(enumeration, "_fiber_locus", lambda xs, bound: ([], [(0, 0, 0, 1)]))
        with pytest.raises(NotOnVariety, match=r"\(0:0:0:1, 0:0:0:1\) is not on the bundle"):
            count_series([1])

    def test_off_bundle_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import enumeration
            assert False, "asserts must be off"
            enumeration._fiber_locus = lambda xs, bound: ([], [(0, 0, 0, 1)])
            enumeration.count_series([1])
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.geometry.NotOnVariety: (0:0:0:1, 0:0:0:1) is not on the bundle"

    def test_csv_shape(self):
        series = count_series([1, 2])
        lines = series.csv_text().strip().split("\n")
        assert lines[0] == "B," + ",".join(CLASS_LABELS)
        assert len(lines) == 3

    def test_matches_enumerate_then_classify_oracle(self):
        grid = [1, 2, 4, 8]
        assert count_series(grid).counts == classified_tally(enumerate_bundle(grid[-1]), grid)

    def test_pool_size_is_bounded(self, monkeypatch, recording_pool):
        expected = count_series([POOL_MIN_BOUND])
        tasks = len(_base_orbits(_base_height(POOL_MIN_BOUND)))
        for cpus, workers, size in (
            (2, 10_000, 2),
            (1_000, 10_000, tasks),
            (1_000, 3, 3),
            (None, 10_000, None),  # unknown CPU count: one process, no pool
        ):
            recording_pool["sizes"].clear()
            monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
            series = count_series([POOL_MIN_BOUND], workers=workers)
            assert series.counts == expected.counts
            assert recording_pool["sizes"] == ([] if size is None else [size])

    def test_pool_runs_largest_fibers_first_one_at_a_time(self, monkeypatch, recording_pool):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        count_series([1, 8, 64, POOL_MIN_BOUND], workers=2)
        [(tasks, chunksize)] = recording_pool["maps"]
        assert chunksize == 1
        fiber_bounds = [POOL_MIN_BOUND // max(xs) ** 3 for xs, _ in tasks]
        assert fiber_bounds == sorted(fiber_bounds, reverse=True)
        orbits = _base_orbits(_base_height(POOL_MIN_BOUND))
        assert sorted(xs for xs, _ in tasks) == [rep for rep, _ in orbits]

    def test_no_pool_below_the_cut(self, monkeypatch, recording_pool):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        count_series([1, 8, POOL_MIN_BOUND - 1], workers=2)
        assert recording_pool["sizes"] == []

    def test_two_processes_at_the_cut_count_as_one(self, monkeypatch):
        sizes = []

        class CountedPool(futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        grid = [16, 64, POOL_MIN_BOUND]
        assert count_series(grid, workers=2).counts == count_series(grid).counts
        assert sizes == [2]

    def test_frontier_rows(self):
        series = count_series([64, 128, 256, 512, 1024])
        assert series.csv_text().splitlines()[1:] == [
            "64,14641288,14638568,2720,14627480,11088,14504192",
            "128,114481432,114473144,8288,114433496,39648,113947472",
            "256,903726136,903706808,19328,903566168,140640,901649936",
            "512,7190321080,7190266904,54176,7189804376,462528,7182145904",
            "1024,57338870112,57338733344,136768,57337068512,1664832,57306521192",
        ]


class TestPointRows:
    @pytest.fixture(scope="class")
    def oracle_rows(self):
        # B = 10 puts two-digit y coordinates in the fiber over (0, 0, 0, 1)
        return classified_rows(10)

    def test_numeric_order_matches_enumerate_then_classify(self, oracle_rows):
        assert "".join(point_rows(10)) == dump_text(oracle_rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_text_order_is_the_sorted_dump(self, oracle_rows, tmp_path, workers):
        # the stream, and the count's .points file whatever its --workers
        expected = dump_text(sorted(oracle_rows))
        assert "".join(point_rows(10, as_text=True)) == expected
        out = tmp_path / "counts.csv"
        argv = ["count", "--bounds", "10", "--emit-points", "--workers", str(workers),
                "--out", str(out)]
        assert cli.main(argv) == 0
        assert (tmp_path / "counts.csv.points").read_text() == expected

    def test_first_row_comes_before_the_second_fiber_task(self, monkeypatch):
        calls = []
        for module, name in ((dump, "_fiber_rows"), (dump, "_box_rows")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real, name=name: calls.append((name, args))
                                or real(*args))
        stream = point_rows(8, as_text=True)
        first = next(stream)
        assert first.startswith("0:0:0:1|")
        # one fiber built, the stream's first: the plane over 0:0:0:1, from its box
        assert calls == [("_box_rows", ((0, 0, 0, 1), 8, True))]
        # the unit holds whole rows of that fiber, each newline-terminated
        rows = first.splitlines(keepends=True)
        assert len(rows) > 1
        assert all(row.startswith("0:0:0:1|") and row.endswith("\n") for row in rows)
        stream.close()
        assert len(calls) == 1

    def test_no_dump_starts_a_pool(self, monkeypatch, recording_pool, tmp_path, capsys):
        # with the cut lowered the count of B = 8 takes a pool, its dump none
        monkeypatch.setattr(enumeration, "POOL_MIN_BOUND", 1)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        dumps = []
        for workers in ("1", "2"):
            out = tmp_path / f"counts_{workers}.csv"
            argv = ["count", "--bounds", "8", "--emit-points", "--workers", workers, "--out", str(out)]
            assert cli.main(argv) == 0
            dumps.append((tmp_path / f"counts_{workers}.csv.points").read_bytes())
        assert recording_pool["sizes"] == [2]
        [(tasks, _)] = recording_pool["maps"]
        orbits = sorted(_base_orbits(_base_height(8)), key=lambda xw: max(xw[0]))
        assert tasks == [(xs, (8,)) for xs, _ in orbits]
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("as_text", [False, True])
    def test_one_walk_per_orbit_per_stream(self, monkeypatch, as_text):
        # _rep_walk is _fiber_walk's only caller, so each call is one cache miss
        _rep_walk.cache_clear()
        walked = []
        real = dump._fiber_walk
        monkeypatch.setattr(dump, "_fiber_walk",
                            lambda xs, bound: walked.append((xs, bound)) or real(xs, bound))
        "".join(point_rows(12, as_text=as_text))
        orbits = [rep for rep, _ in _base_orbits(_base_height(12)) if rep.count(0) < 2]
        assert sorted(xs for xs, _ in walked) == sorted(orbits)
        # no dump walks a plane: every walked box has at most two parameters
        for xs, bound in walked:
            boxes, _ = _fiber_locus(xs, bound)
            assert all(len(sides) <= 2 for _, sides, _, _ in boxes), (xs, bound)

    @pytest.mark.parametrize("as_text", [False, True])
    def test_walk_cache_is_empty_when_a_stream_ends(self, as_text):
        caches = (_rep_walk, _run_segments)
        # a stream empties them only when it ends; calls outside one may fill them
        for cache in caches:
            cache.cache_clear()
        stream = point_rows(12, as_text=as_text)
        # the first fiber, over 0:0:0:1, is a plane: no walk, one box shape
        next(stream)
        assert [cache.cache_info().currsize for cache in caches] == [0, 1]
        # the first x with fewer than two zeros walks its representative
        next(unit for unit in stream if _rep_walk.cache_info().currsize)
        assert _rep_walk.cache_info().currsize == 1
        stream.close()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]
        units = list(point_rows(12, as_text=as_text))
        assert sum(unit.count("\n") for unit in units) == 116_360
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]

    def test_rejects_zero_bound(self):
        with pytest.raises(InvalidArgument):
            next(point_rows(0))

    @pytest.mark.parametrize("bound", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_bound(self, bound):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            next(point_rows(bound))

    def test_off_bundle_point_raises(self, monkeypatch):
        # (0:0:0:1) is not on the fiber over 0:1:1:1, the representative of
        # 0:1:-1:-1, the first base point in both orders with fewer than two
        # zero coordinates, and whose walk both orders check
        monkeypatch.setattr(dump, "_fiber_walk", lambda xs, bound: [(0, 0, 0, 1)])
        for as_text in (False, True):
            with pytest.raises(NotOnVariety, match=r"\(0:1:1:1, 0:0:0:1\) is not on the bundle"):
                list(point_rows(1, as_text=as_text))

    def test_off_bundle_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import dump
            assert False, "asserts must be off"
            dump._fiber_walk = lambda xs, bound: [(0, 0, 0, 1)]
            list(dump.point_rows(1))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.geometry.NotOnVariety: (0:1:1:1, 0:0:0:1) is not on the bundle"

    def test_inconsistent_rank_still_raises(self, monkeypatch):
        real = classify.picard_rank

        def flipped(surface):
            result = real(surface)
            return result._replace(rank_over_Q=1 if result.rank_over_Q >= 2 else 3)

        classify._fiber_profile.cache_clear()
        monkeypatch.setattr(classify, "picard_rank", flipped)
        try:
            with pytest.raises(RuntimeError, match="disagrees with Picard rank"):
                list(point_rows(1))
        finally:
            classify._fiber_profile.cache_clear()


class TestBoxRows:
    """The rows of a fiber that is one box, from the writer point_rows
    picks, equal those of the representative walk and of the per-base-point
    walk; planes and lines come straight from the box."""

    @pytest.mark.parametrize("as_text", [False, True])
    def test_match_both_walks_on_every_small_one_box_fiber(self, as_text):
        fibers = 0
        # and planes whose curve point is not +-1: a fixed lambda, a last one, trailing coordinates
        cubes = [(1, -8, 0, 0), (8, -1, 0, 0), (1, 0, 0, -27), (0, 8, 0, 1), (27, 0, 0, 1),
                 (0, 0, 27, -8)]
        for xs in itertools.chain(canonical_coords(4, 4), cubes):
            hx3 = max(map(abs, xs)) ** 3
            for y_bound in (1, 7, 13):
                # one box, no points, nothing shared; a smooth fiber's scan is not run
                boxes, points = _fiber_locus(xs, y_bound) if 0 in xs else ([], [])
                if len(boxes) != 1 or points or boxes[0][2]:
                    continue
                # the writer point_rows picks: a vertex-only cone goes to _fiber_rows
                write = _box_rows if xs.count(0) >= 2 else _fiber_rows
                rows = "".join(write(xs, hx3 * y_bound, as_text))
                for walk in (member_rows, fiber_rows):
                    difference = first_row_difference(rows, walk(xs, hx3 * y_bound, as_text))
                    assert difference is None, (xs, y_bound, walk.__name__, difference)
                fibers += 1
        # planes over x with one or two nonzero coordinates, lines and points
        assert fibers > 900

    def test_only_y3_trails_the_last_parameter(self):
        # _box_rows writes one trailing coordinate, y3, after a last parameter
        # that starts at y2: over (a, 0, 0, b) and (0, a, 0, b) with -b/a a cube
        xss = [xs for xs in canonical_coords(4, 6) if xs.count(0) >= 2]
        for i, j in itertools.combinations(range(4), 2):
            for a, b in [(1, 8), (1, -8), (8, 1), (8, -1), (1, 27), (1, -27), (2, 16), (2, -16)]:
                xs = [0] * 4
                xs[i], xs[j] = a, b
                xss.append(tuple(xs))
        trailing = []
        for xs in xss:
            [(params, sides, _, _)], _ = _fiber_locus(xs, 5)
            last = len(sides) - 1
            start = next(k for k, (p, m) in enumerate(params) if p == last and m)
            fixed = [k for k in range(start + 1, 4) if params[k][1] and params[k][0] != last]
            assert fixed in ([], [3]), xs
            if fixed:
                assert start == 2, xs
                trailing.append(xs)
        # -b/a is a cube when -b*a^2 is
        assert trailing == [xs for xs in xss if xs[2] == 0 and xs[3] and xs[:2].count(0) == 1
                            and exact_cube_root(-xs[3] * max(xs[:2]) ** 2) is not None]
        assert len(trailing) == 4 + 2 * 8

    def test_smooth_and_curve_cones_are_not_one_box(self):
        # the writer goes by the zeros of x: smooth, a cone with curve points,
        # and a cone whose curve has no point of height <= 5, the vertex alone
        vertex = (((0, 1), (0, 0), (0, 0), (0, 0)), (1,), (), True)
        assert _fiber_locus((0, 3, 4, 5), 5) == ([vertex], [])
        for xs in ((1, 1, 1, 1), (0, 1, 1, 1), (0, 3, 4, 5)):
            with pytest.raises(RuntimeError) as error:
                next(_box_rows(xs, 5 * max(xs) ** 3, False))
            assert str(error.value) == f"the base point {xs} has fewer than two zero coordinates"
        # the line over 0:0:1:2, whose ratio is no cube
        line = (((0, 1), (1, 1), (0, 0), (0, 0)), (1, 1), (), True)
        assert _fiber_locus((0, 0, 1, 2), 5) == ([line], [])
        rows = "".join(_box_rows((0, 0, 1, 2), 8 * 5, False))
        assert rows.count("\n") == primitive_count((1, 1), 5)

    def test_no_scan_beyond_one_per_smooth_representative(self, monkeypatch):
        scanned = []
        real = enumeration._cube_sum_join
        monkeypatch.setattr(enumeration, "_cube_sum_join",
                            lambda xs, bound: scanned.append(xs) or real(xs, bound))
        for as_text in (False, True):
            scanned.clear()
            "".join(point_rows(12, as_text=as_text))
            smooth = [rep for rep, _ in _base_orbits(_base_height(12)) if 0 not in rep]
            assert sorted(scanned) == smooth

    @staticmethod
    def off_fiber_cone_locus(real):
        """The cone locus with the box over 0:0:1:1 given to 0:0:1:-1, where
        y_2 = t, y_3 = -t gives x_2*y_2^3 + x_3*y_3^3 = 2*t^3."""
        return lambda xs, bound: real((0, 0, 1, 1) if xs == (0, 0, 1, -1) else xs, bound)

    def test_off_fiber_box_raises(self, monkeypatch):
        # 0:0:1:-1 is not its orbit's representative, so only its own box check sees it
        monkeypatch.setattr(enumeration, "_cone_locus",
                            self.off_fiber_cone_locus(enumeration._cone_locus))
        for as_text in (False, True):
            with pytest.raises(NotOnVariety, match=r"is not on the fiber over 0:0:1:-1"):
                list(point_rows(1, as_text=as_text))

    def test_off_fiber_box_raises_under_optimize(self):
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, {tests!r})
            from test_enumeration import TestBoxRows
            from cubicbundle import dump, enumeration
            assert False, "asserts must be off"
            enumeration._cone_locus = TestBoxRows.off_fiber_cone_locus(enumeration._cone_locus)
            list(dump.point_rows(1))
        """).format(tests=str(Path(__file__).parent))
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == ("cubicbundle.geometry.NotOnVariety: the box ((0, 1), (1, 1), (2, 1), "
                        "(2, -1)) is not on the fiber over 0:0:1:-1")


class TestFiberRows:
    """Rows built from the fiber profile equal point_row of classify_point."""

    @staticmethod
    def oracle(x, y_bound):
        hx3 = naive_height(x) ** 3
        return [point_row(classify_point(BundlePoint(x, y)), hx3 * naive_height(y))
                for y in enumerate_fiber(x, y_bound)]

    @pytest.mark.parametrize("y_bound", [1, 7, 20])
    @pytest.mark.parametrize("xs", ROW_SHAPES)
    def test_matches_classify_point(self, xs, y_bound):
        x = normalize(xs)
        hx3 = naive_height(x) ** 3
        expected = self.oracle(x, y_bound)
        # a bound between multiples of H(x)^3 gives the same fiber
        for height_bound in (hx3 * y_bound, hx3 * y_bound + hx3 - 1):
            assert member_rows(x.coords, height_bound, False) == dump_text(expected)
            assert member_rows(x.coords, height_bound, True) == dump_text(sorted(expected))

    @pytest.mark.parametrize("xs", ROW_SHAPES)
    def test_keys_decode_to_height_and_pair_loci(self, xs):
        x = normalize(xs)
        ys = sorted(_fiber_walk(x.coords, 12))
        keys = _checked_points(x.coords, ys)
        assert len(keys) == len(ys)
        for y, key in zip(map(ProjectivePoint, ys), keys):
            assert key >> 3 == naive_height(y)
            in_v = classify_point(BundlePoint(x, y)).in_V
            assert {p: key >> p - 1 & 1 == 1 for p in PAIRINGS} == in_v, y

    def test_point_beyond_the_fiber_bound_gets_the_oracle_row(self, monkeypatch):
        # H(y) = 18 and 37 above the fiber bound 2 over 1:1:1:2: coordinate
        # texts and heights beyond those of the points within the bound
        ys = [(1, -1, 0, 0), (6, -37, -35, 36), (1, -18, 7, 14)]
        monkeypatch.setattr(dump, "_fiber_walk", lambda xs, bound: list(ys))
        x = ProjectivePoint((1, 1, 1, 2))
        expected = [
            point_row(classify_point(BundlePoint(x, y)), naive_height(x) ** 3 * naive_height(y))
            for y in map(ProjectivePoint, sorted(ys))
        ]
        assert member_rows((1, 1, 1, 2), 16, False) == dump_text(expected)
        # a member of its orbit gets the rows of the mapped points, the
        # representative's walk being x's own only at the identity
        member = ProjectivePoint((2, -1, 1, 1))
        _, perm, signs = _orbit_map(member.coords)
        expected = [
            point_row(classify_point(BundlePoint(member, z)), 8 * naive_height(z))
            for z in map(ProjectivePoint, sorted(member_point(perm, signs, y) for y in ys))
        ]
        assert member_rows(member.coords, 16, False) == dump_text(expected)

    @pytest.mark.parametrize("top", range(6))
    def test_signed_table_reads_each_value_at_its_own_index(self, top):
        table = list(_signed(top))
        assert len(table) == 2 * top + 1
        assert [table[v] for v in range(-top, top + 1)] == list(range(-top, top + 1))

    def test_signed_tables_give_exact_keys_at_and_beyond_the_bound(self):
        # over 1:1:1:1 at the fiber bound 3: coordinates +-3 at the bound,
        # then heights beyond it (5, then 12), each key exact
        ys = [(1, -1, 0, 0), (3, -3, 1, -1), (1, -1, 3, -3), (5, -5, -3, 3),
              (12, -12, 1, -1), (2, 1, -1, -2), (0, 1, -1, 0)]
        xs = (1, 1, 1, 1)
        keys = _checked_points(xs, ys)
        for y, key in zip(ys, keys):
            t = [x * c ** 3 for x, c in zip(xs, y)]
            bits = sum(1 << p - 1 for p in (1, 2, 3) if t[0] + t[p] == 0)
            assert key == max(map(abs, y)) << 3 | bits, y

    @pytest.mark.parametrize("as_text", [False, True])
    def test_rows_at_and_beyond_the_bound_get_their_own_texts(self, monkeypatch, as_text):
        # fiber bound 3 over 1:1:1:1: coordinates +-3 at the bound, and a
        # point of height 12 beyond it whose -12 and -1 must not share a text
        ys = [(1, -1, 0, 0), (3, -3, 1, -1), (1, -3, 3, -1), (12, -12, 1, -1), (1, -1, 12, -12)]
        monkeypatch.setattr(dump, "_fiber_walk", lambda xs, bound: list(ys))
        x = ProjectivePoint((1, 1, 1, 1))
        # numeric order sorts the walk, text order the rows
        expected = [
            point_row(classify_point(BundlePoint(x, y)), naive_height(y))
            for y in map(ProjectivePoint, sorted(ys))
        ]
        if as_text:
            expected.sort()
        assert member_rows((1, 1, 1, 1), 3, as_text) == dump_text(expected)

    def test_fermat_fiber_flags(self):
        rows = member_rows((1, 1, 1, 1), 20, False).splitlines()
        assert all(row.endswith("L1,L2,L3") for row in rows)
        # (1, -1, 1, -1) lies on V1 and V3 but not on V2
        assert "1:1:1:1|1:-1:1:-1|1|Z,V1,V3,L1,L2,L3" in rows

    def test_non_liftable_fiber_flags(self):
        rows = member_rows((1, 2, 3, 5), 125 * 20, False).splitlines()
        assert not any("L" in row for row in rows)
        assert "1:2:3:5|1:1:-1:0|125|-" in rows

    def test_cone_fiber_flags(self):
        rows = member_rows((0, 1, 1, 1), 20, False).splitlines()
        assert rows and all(row.split("|")[3].startswith("Z,") for row in rows)
        assert all(row.endswith("SING") for row in rows)

    @pytest.mark.parametrize("as_text", [False, True])
    def test_fiber_without_points_gives_no_text(self, monkeypatch, as_text):
        # no rows, so no head either
        monkeypatch.setattr(dump, "_fiber_walk", lambda xs, bound: [])
        assert member_rows((1, 1, 1, 2), 16, as_text) == ""

    def test_point_row_writes_the_flag_format(self):
        # point_row reads the flag tables of the dumps; flag_field is written
        # from the format's definition alone
        points = 0
        for p in enumerate_bundle(8):
            record = classify_point(p)
            height = naive_height(p.x) ** 3 * naive_height(p.y)
            flags = flag_field(record.in_Z, record.in_V, record.liftable, record.singular_fiber)
            assert point_row(record, height) == f"{p.x}|{p.y}|{height}|{flags}"
            points += 1
        assert points > 10_000


class TestOrbitRows:
    """Each base point's rows, built from its orbit representative's walk,
    equal those of its own walk."""

    @staticmethod
    def orbit_tasks(x_max, y_bound, as_text):
        """The tasks of every canonical base point with H(x) <= x_max at the
        fiber bound y_bound, orbit by orbit."""
        return [
            (xs, max(rep) ** 3 * y_bound, as_text)
            for rep, _ in _base_orbits(x_max)
            for xs in orbit_members(rep)
        ]

    @pytest.mark.parametrize("as_text", [False, True])
    def test_match_the_per_base_point_walk(self, as_text):
        # fiber bound 10: two-digit and negative coordinates in most fibers
        tasks = self.orbit_tasks(3, 10, as_text)
        assert sorted(task[0] for task in tasks) == list(canonical_coords(4, 3))
        _rep_walk.cache_clear()
        try:
            for task in tasks:
                assert _fiber_rows(*task) == fiber_rows(*task), task[0]
            # one walk per orbit
            assert _rep_walk.cache_info().misses == len(_base_orbits(3))
        finally:
            _rep_walk.cache_clear()

    def test_remapped_pair_loci_are_the_members_own(self):
        checked = 0
        for rep, _ in _base_orbits(3):
            ys = _fiber_walk(rep, 4)
            keys = _checked_points(rep, ys)
            for xs in orbit_members(rep):
                _, perm, signs = _orbit_map(xs)
                x = ProjectivePoint(xs)
                remap = _pair_locus_map(perm)
                for y, key in zip(ys, keys):
                    z = ProjectivePoint(member_point(perm, signs, y))
                    assert naive_height(z) == key >> 3
                    bits = remap[key & 7]
                    in_v = classify_point(BundlePoint(x, z)).in_V
                    assert {p: bits >> p - 1 & 1 == 1 for p in PAIRINGS} == in_v, (xs, z)
                    checked += 1
        assert checked > 10_000
        # one table per permutation
        assert _pair_locus_map.cache_info().currsize <= 24

    def test_wrong_signed_permutation_raises(self, monkeypatch):
        # the identity sends 0:0:1:1 to itself, not to 0:0:1:-1
        monkeypatch.setattr(dump, "_orbit_map",
                            lambda xs: ((0, 0, 1, 1), (0, 1, 2, 3), (1, 1, 1, 1)))
        with pytest.raises(RuntimeError, match=r"does not send \(0, 0, 1, 1\) to \(0, 0, 1, -1\)"):
            _fiber_rows((0, 0, 1, -1), 1, False)

    def test_wrong_signed_permutation_raises_under_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import dump
            assert False, "asserts must be off"
            dump._orbit_map = lambda xs: ((0, 0, 1, 1), (0, 1, 2, 3), (1, 1, 1, 1))
            dump._fiber_rows((0, 0, 1, -1), 1, False)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == ("RuntimeError: the signed permutation (0, 1, 2, 3), (1, 1, 1, 1) "
                        "does not send (0, 0, 1, 1) to (0, 0, 1, -1)")

    def test_flag_fields_are_built_once_per_profile(self):
        _flag_fields.cache_clear()
        "".join(point_rows(12, as_text=True))
        profiles = {
            (tuple(lifts.values()), singular)
            for lifts, singular, _ in map(classify._fiber_profile, canonical_coords(4, 2))
        }
        info = _flag_fields.cache_info()
        assert info.currsize == len(profiles) <= 16
        assert info.hits + info.misses == 272
        for lifts, singular in profiles:
            lift_of = dict(zip(PAIRINGS, lifts))
            assert _flag_fields(lifts, singular) == tuple(
                flag_field(any(lifts) or k > 0, {p: k >> p - 1 & 1 == 1 for p in PAIRINGS},
                           lift_of, singular) + "\n"
                for k in range(8)
            )

    def test_sort_by_takes_the_keys_in_list_order(self):
        items = ["d", "c", "b", "a"]
        _sort_by(items, iter([2, 1, 2, 0]))
        # stable: d before b, which share the key 2
        assert items == ["a", "c", "d", "b"]


class TestBaseOrbits:
    """Signed permutations of (x, y) map fibers onto fibers with equal tallies."""

    @staticmethod
    def representative(xs):
        return tuple(sorted(map(abs, xs)))

    @pytest.mark.parametrize("x_max", range(1, 7))
    def test_weights_count_canonical_base_points(self, x_max):
        # every base point has one representative, so the weights sum to
        # the number of canonical base points
        members = Counter(map(self.representative, canonical_coords(4, x_max)))
        assert dict(_base_orbits(x_max)) == members

    @pytest.mark.parametrize("x_max", range(1, 6))
    def test_orbit_members_are_the_canonical_base_points(self, x_max):
        seen = []
        for rep, weight in _base_orbits(x_max):
            members = orbit_members(rep)
            assert len(members) == weight
            for xs, (perm, signs) in members.items():
                assert sorted(perm) == [0, 1, 2, 3]
                assert xs == tuple(s * rep[p] for s, p in zip(signs, perm))
                assert all(s == 1 for s, v in zip(signs, xs) if v == 0)
            seen += members
        assert sorted(seen) == list(canonical_coords(4, x_max))

    def test_orbit_map_sends_the_representative_to_each_base_point(self):
        weights = dict(_base_orbits(4))
        # ties and zero entries: several signed permutations send rep to x
        assert _orbit_map((0, 1, -1, 1)) == ((0, 1, 1, 1), (0, 1, 2, 3), (1, 1, -1, 1))
        assert _orbit_map((1, -1, 1, -1)) == ((1, 1, 1, 1), (0, 1, 2, 3), (1, -1, 1, -1))
        assert _orbit_map((2, 0, -1, 0)) == ((0, 0, 1, 2), (3, 0, 2, 1), (1, 1, -1, 1))
        for xs in canonical_coords(4, 4):
            rep, perm, signs = _orbit_map(xs)
            assert rep in weights and rep == self.representative(xs)
            assert sorted(perm) == [0, 1, 2, 3]
            assert xs == tuple(s * rep[p] for s, p in zip(signs, perm))
            assert all(s == 1 for s, v in zip(signs, xs) if v == 0)

    def test_orbit_members_share_the_representative_tally(self):
        bounds = (1, 2, 4, 8, 16, 32, 64)
        tallies = {rep: _classify_fiber((rep, bounds)) for rep, _ in _base_orbits(4)}
        for xs in canonical_coords(4, 4):
            assert _classify_fiber((xs, bounds)) == tallies[self.representative(xs)]

    def test_one_profile_miss_per_representative(self):
        classify._fiber_profile.cache_clear()
        try:
            count_series([1, 2, 4, 8, 16])
            assert classify._fiber_profile.cache_info().misses == len(_base_orbits(2)) == 10
        finally:
            classify._fiber_profile.cache_clear()

    def test_inconsistent_rank_still_raises(self, monkeypatch):
        real = classify.picard_rank

        def flipped(surface):
            result = real(surface)
            return result._replace(rank_over_Q=1 if result.rank_over_Q >= 2 else 3)

        classify._fiber_profile.cache_clear()
        monkeypatch.setattr(classify, "picard_rank", flipped)
        try:
            with pytest.raises(RuntimeError, match="disagrees with Picard rank"):
                count_series([1, 2, 4, 8, 16])
        finally:
            classify._fiber_profile.cache_clear()


class TestLinearFibers:
    @pytest.mark.parametrize("xs", LINEAR_SHAPES)
    def test_closed_form_matches_enumeration(self, xs):
        x = normalize(xs)
        heights = [naive_height(y) for y in enumerate_fiber(x, 20)]
        [(_, sides, _, _)], _ = _fiber_locus(x.coords, 20)
        for bound in range(21):
            assert primitive_count(sides, bound) == sum(h <= bound for h in heights)

    @pytest.mark.parametrize("xs", LINEAR_SHAPES)
    def test_tallies_match_classified_points(self, xs):
        x = normalize(xs)
        hx3 = naive_height(x) ** 3
        bounds = tuple(hx3 * y for y in (1, 2, 3, 5, 8))
        points = (BundlePoint(x, y) for y in enumerate_fiber(x, 8))
        assert _classify_fiber((x.coords, bounds)) == classified_tally(points, bounds)

    def test_linear_points_are_exceptional(self):
        checked = counted = 0
        for xs in canonical_coords(4, 3):
            x = normalize(xs)
            if x.coords.count(0) < 2:
                continue
            [(_, sides, _, _)], _ = _fiber_locus(x.coords, 3)
            counted += primitive_count(sides, 3)
            for y in enumerate_fiber(x, 3):
                record = classify_point(BundlePoint(x, y))
                assert record.in_Z and record.singular_fiber
                assert any(record.in_V.values())
                checked += 1
        assert checked == counted > 0

    def test_csv_matches_enumerating_path(self):
        grid = [1, 2, 4, 8, 16]
        reference = CountSeries(tuple(grid), classified_tally(enumerate_bundle(grid[-1]), grid))
        assert count_series(grid).csv_text() == reference.csv_text()

    @settings(max_examples=6, deadline=None)
    @given(st.sets(st.integers(1, 12), min_size=1).map(sorted))
    def test_csv_matches_enumerating_path_on_random_grids(self, grid):
        reference = CountSeries(tuple(grid), classified_tally(enumerate_bundle(grid[-1]), grid))
        for workers in (1, 2):
            assert count_series(grid, workers=workers).csv_text() == reference.csv_text()


class TestSurfaceFibers:
    """Cone and smooth fibers: lines and curve points in closed form, the
    rest by the scan, against the meet in the middle over the whole box."""

    @staticmethod
    def tally_of(xs, ys, y_bounds):
        x = ProjectivePoint(xs)
        hx3 = naive_height(x) ** 3
        points = (BundlePoint(x, ProjectivePoint(y)) for y in ys)
        return classified_tally(points, tuple(hx3 * y for y in y_bounds))

    def test_walk_and_tally_match_the_oracle_on_small_base_points(self):
        # ALL and IN_SOME_V fix the other columns, given the fiber profile
        y_bounds = tuple(range(1, 41))
        checked = 0
        for xs in canonical_coords(4, 3):
            if xs.count(0) > 1:
                continue
            expected = surface_oracle(xs, y_bounds[-1])
            assert sorted(_fiber_walk(xs, y_bounds[-1])) == expected, xs
            heights = Counter()
            on_locus = Counter()
            off_loci = []
            x0, x1, x2, x3 = xs
            for y0, y1, y2, y3 in expected:
                t0, t1, t2, t3 = x0 * y0 ** 3, x1 * y1 ** 3, x2 * y2 ** 3, x3 * y3 ** 3
                height = max(abs(y0), abs(y1), abs(y2), abs(y3))
                heights[height] += 1
                # both pair sums of each pairing, as classify_point tests them
                on = (
                    t0 + t1 == 0 and t2 + t3 == 0
                    or t0 + t2 == 0 and t1 + t3 == 0
                    or t0 + t3 == 0 and t1 + t2 == 0
                )
                on_locus[height] += on
                if not on:
                    off_loci.append((y0, y1, y2, y3))
            hx3 = max(map(abs, xs)) ** 3
            tally = _classify_fiber((xs, tuple(hx3 * y for y in y_bounds)))
            assert tally["ALL"] == list(itertools.accumulate(heights[b] for b in y_bounds)), xs
            assert tally["IN_SOME_V"] == list(
                itertools.accumulate(on_locus[b] for b in y_bounds)
            ), xs
            if 0 not in xs:
                assert sorted(_surface_scan(xs, y_bounds[-1])) == off_loci, xs
                if min(xs) > 0:
                    assert sorted(_cube_sum_join(xs, y_bounds[-1])) == off_loci, xs
            checked += 1
        assert checked == 1032

    @pytest.mark.parametrize("xs", SURFACE_SHAPES)
    def test_walk_matches_the_oracle_at_every_bound(self, xs):
        expected = surface_oracle(xs, 40)
        for bound in range(41):
            assert sorted(_fiber_walk(xs, bound)) == [
                y for y in expected if max(map(abs, y)) <= bound
            ]

    @pytest.mark.parametrize("xs", SURFACE_SHAPES)
    def test_closed_form_matches_enumeration(self, xs):
        ys = sorted(_fiber_walk(xs, 20))
        hx3 = max(map(abs, xs)) ** 3
        y_bounds = tuple(range(1, 21))
        tally = _classify_fiber((xs, tuple(hx3 * y for y in y_bounds)))
        assert tally["ALL"] == [sum(max(map(abs, y)) <= b for y in ys) for b in y_bounds]
        assert tally == self.tally_of(xs, ys, y_bounds)

    def test_fermat_fiber_has_three_lines(self):
        boxes, points = _fiber_locus((1, 1, 1, 1), 40)
        assert [sides for _, sides, _, _ in boxes] == [(1, 1)] * 3
        # the lines meet pairwise, at height 1; the earlier line counts each meet
        meets = {(1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)}
        assert meets.isdisjoint(points)
        shared = [set(shared) for _, _, shared, _ in boxes]
        assert shared[0] == set() and len(shared[1]) == 1 and len(shared[2]) == 2
        assert shared[1] | shared[2] == meets
        y_bounds = tuple(range(1, 41))
        on_lines = [3 * primitive_count((1, 1), b) - 3 for b in y_bounds]
        assert _classify_fiber(((1, 1, 1, 1), y_bounds))["IN_SOME_V"] == on_lines

    def test_isolated_pair_locus_points(self):
        # -x1/x0, -x2/x0 and -x2/x1 are cubes, -2 is not: no line, but one
        # pair-locus point for each pairing, its one pair point
        boxes, points = _fiber_locus((1, 1, 1, 2), 10)
        assert boxes == []
        assert {(1, -1, 0, 0), (1, 0, -1, 0), (0, 1, -1, 0)} <= set(points)
        tally = _classify_fiber(((1, 1, 1, 2), tuple(8 * b for b in range(1, 11))))
        assert tally["IN_SOME_V"] == [3] * 10

    def test_single_line(self):
        boxes, _ = _fiber_locus((1, -1, 2, -2), 30)
        [(params, sides, shared, on)] = boxes
        assert params == ((0, 1), (0, 1), (1, 1), (1, 1)) and sides == (1, 1)
        assert shared == () and on
        tally = _classify_fiber(((1, -1, 2, -2), tuple(8 * b for b in range(1, 31))))
        assert tally["IN_SOME_V"] == [primitive_count((1, 1), b) for b in range(1, 31)]

    def test_cone_over_trivial_curve_points(self):
        # the curve y1^3 + y2^3 + y3^3 = 0 has only its three trivial points
        boxes, points = _fiber_locus((0, 1, 1, 1), 40)
        assert points == [(1, 0, 0, 0)]
        assert sorted(sides for _, sides, _, _ in boxes) == [(1, 1)] * 3
        y_bounds = tuple(range(1, 41))
        tally = _classify_fiber(((0, 1, 1, 1), y_bounds))
        expected = [1 + 3 * (primitive_count((1, 1), b) - 1) for b in y_bounds]
        assert tally["ALL"] == tally["IN_SOME_V"] == expected

    def test_cone_over_a_curve_without_points(self):
        # Selmer: 3u^3 + 4v^3 + 5w^3 = 0 has no rational point, so the fiber
        # is its vertex alone, one box on every pair locus
        xs = (0, 3, 4, 5)
        assert sorted(_fiber_walk(xs, 40)) == surface_oracle(xs, 40) == [(1, 0, 0, 0)]
        y_bounds = tuple(range(1, 41))
        tally = _classify_fiber((xs, tuple(125 * y for y in y_bounds)))
        assert tally["ALL"] == tally["IN_SOME_V"] == [1] * 40
        boxes, points = _fiber_locus(xs, 40)
        assert [on for _, _, _, on in boxes] == [True] and points == []

    def test_cone_line_off_the_pair_loci(self):
        # (1, 1, 1) on y1^3 + y2^3 = 2*y3^3 has no zero coordinate
        boxes, _ = _fiber_locus((0, 1, 1, -2), 5)
        assert {(params[1:], on) for params, _, _, on in boxes} == {
            (((1, 1), (1, -1), (1, 0)), True),
            (((1, 1), (1, 1), (1, 1)), False),
        }

    @pytest.mark.parametrize("xs", [(1, 1, 1, 1), (1, -1, 2, -2), (1, -8, 1, -1)])
    def test_scan_leaves_every_pair_locus_out(self, xs):
        # three lines or one, and no single pair point: every point is off the loci
        _, hits = _smooth_locus(xs, 20)
        assert sorted(hits) == sorted(_surface_scan(xs, 20))
        assert hits and all(map(is_canonical, hits))
        for y in hits:
            t0, t1, t2, t3 = (x * c ** 3 for x, c in zip(xs, y))
            assert t0 + t1 + t2 + t3 == 0
            # both pair sums of all three pairings
            assert all((t0 + t1, t2 + t3, t0 + t2, t1 + t3, t0 + t3, t1 + t2))

    def test_fermat_collisions_match_the_scan(self):
        for bound in [*range(41), 64, 128, 256]:
            collisions = sorted(_cube_sum_join((1, 1, 1, 1), bound))
            assert collisions == sorted(_fermat_collisions(bound))
            assert collisions == sorted(_surface_scan((1, 1, 1, 1), bound))

    def test_fermat_collisions_match_the_oracle(self):
        off_loci = [y for y in surface_oracle((1, 1, 1, 1), 40)
                    if all(y[0] ** 3 + y[k] ** 3 for k in (1, 2, 3))]
        for bound in range(41):
            assert sorted(_cube_sum_join((1, 1, 1, 1), bound)) == [
                y for y in off_loci if max(map(abs, y)) <= bound
            ]

    def test_fermat_collision_counts(self):
        counts = [len(_cube_sum_join((1, 1, 1, 1), bound)) for bound in (16, 32, 64, 128, 256)]
        assert counts == [96, 240, 648, 2064, 5664]

    @pytest.mark.parametrize("xs", FERMAT_ORBIT, ids=str)
    def test_fermat_orbit_off_loci_match_the_scan(self, xs):
        for bound in [*range(41), 64, 128]:
            boxes, points = _smooth_locus(xs, bound)
            # three lines, so no single pair point: every point is off the loci
            assert len(boxes) == 3
            assert sorted(points) == sorted(_surface_scan(xs, bound)), bound

    def test_fermat_orbit_walks(self):
        walks = [[y.coords for y in enumerate_fiber(ProjectivePoint(xs), bound)]
                 for bound in (16, 64) for xs in FERMAT_ORBIT]
        assert list(map(len, walks)) == [1053] * 8 + [15765] * 8
        assert hashlib.sha256(repr(walks).encode()).hexdigest() == FERMAT_ORBIT_WALKS_SHA256

    def test_fermat_orbit_walks_without_a_scan(self, monkeypatch):
        # every signed fiber is found from the one join over 1:1:1:1
        real = enumeration._cube_sum_join

        def join(xs, bound):
            assert xs == (1, 1, 1, 1), f"joined {xs}"
            return real(xs, bound)

        monkeypatch.setattr(enumeration, "_cube_sum_join", join)
        for xs in FERMAT_ORBIT:
            assert len(enumerate_fiber(ProjectivePoint(xs), 16)) == 1053

    def test_scan_over_1_1_2_2_is_the_collisions_of_one_table(self):
        # pairing 2 has (x1, x3) = (x0, x2), so y is off every pair locus
        # exactly when (y0, y2) and (-y1, -y3) are distinct pairs of one
        # nonzero key a^3 + 2*b^3; the join probes the keys of pairing 1
        # instead, and a self-join over pairing 2 would need this table alone
        side = range(-64, 65)
        pairs_of = {}
        for a, b in itertools.product(side, side):
            pairs_of.setdefault(a ** 3 + 2 * b ** 3, []).append((a, b))
        collisions = {
            (a, -c, b, -d)
            for key, pairs in pairs_of.items() if key
            for (a, b), (c, d) in itertools.permutations(pairs, 2)
        }
        off_loci = sorted(filter(is_canonical, collisions))
        assert len(off_loci) == 370
        assert sorted(_surface_scan((1, 1, 2, 2), 64)) == off_loci
        assert sorted(_cube_sum_join((1, 1, 2, 2), 64)) == off_loci

    @staticmethod
    def off_every_pair_locus(xs, points):
        """The points of the fiber over xs on no pair locus, sorted: on the
        fiber, pairing k's pair sums vanish when x0*y0^3 + xk*yk^3 does."""
        return sorted(y for y in points
                      if all(xs[0] * y[0] ** 3 + xs[k] * y[k] ** 3 for k in (1, 2, 3)))

    def test_smooth_locus_matches_the_scan_on_small_base_points(self):
        # the join over |x| mapped by the signs of x, against the scan of the
        # signed box, on every smooth x with H(x) <= 4
        checked = 0
        for xs in canonical_coords(4, 4):
            if 0 not in xs:
                for bound in (0, 1, 2, 3, 6, 11, 17):
                    _, points = _smooth_locus(xs, bound)
                    off_loci = self.off_every_pair_locus(xs, points)
                    assert off_loci == sorted(_surface_scan(xs, bound)), (xs, bound)
                    assert len(points) - len(off_loci) <= 3  # the single pair points
                    checked += 1
        assert checked == 13384

    @pytest.mark.parametrize("xs", JOIN_SHAPES, ids=str)
    def test_join_shapes_match_the_oracles(self, xs):
        expected = surface_oracle(xs, 64)
        heights = [max(map(abs, y)) for y in expected]
        for bound in [*range(9), 16, 32, 64]:
            assert sorted(_fiber_walk(xs, bound)) == [
                y for y, height in zip(expected, heights) if height <= bound
            ]
            if 0 not in xs:
                scan = sorted(_surface_scan(xs, bound))
                assert self.off_every_pair_locus(xs, _smooth_locus(xs, bound)[1]) == scan
                if min(xs) > 0:
                    assert sorted(_cube_sum_join(xs, bound)) == scan

    def test_signed_join_points_are_canonical(self):
        # the join's (0, 1, 1, -1) over 1:1:1:2 maps to (0, -1, -1, -1) over
        # 1:-1:-1:2, which is negated; of the other five points (1, 0, -1, -1)
        # and (1, -1, 0, -1) are the join's, the rest single pair points.  The
        # count and the dumps pass positive x only, so only a walk sees this
        assert [y.coords for y in enumerate_fiber(ProjectivePoint((1, -1, -1, 2)), 1)] == [
            (0, 1, -1, 0), (0, 1, 1, 1), (1, -1, 0, -1), (1, 0, -1, -1), (1, 0, 1, 0), (1, 1, 0, 0),
        ]

    def test_box_off_the_fiber_raises(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cube_pair", lambda alpha, beta: (1, 1))
        with pytest.raises(NotOnVariety, match="is not on the fiber over 1:1:1:1"):
            sorted(_fiber_walk((1, 1, 1, 1), 3))

    def test_box_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import enumeration
            assert False, "asserts must be off"
            enumeration._plane_cubic_points = lambda a, b, c, bound: [(1, 1, 1)]
            enumeration.count_series([1])
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == (
            "cubicbundle.geometry.NotOnVariety: the box ((0, 1), (1, 1), (1, 1), (1, 1))"
            " is not on the fiber over 0:1:1:1"
        )


class TestBaseHeight:
    def test_matches_counting_up_to_1e5(self):
        h = 0
        for bound in range(-3, 10 ** 5 + 1):
            while (h + 1) ** 3 <= bound:
                h += 1
            assert _base_height(bound) == h, bound

    def test_around_cubes(self):
        for k in [*range(2, 1001), *(10 ** j for j in range(1, 14))]:
            assert [_base_height(k ** 3 + d) for d in (-1, 0, 1)] == [k - 1, k, k], k

    def test_huge_bound_returns_at_once(self):
        started = time.perf_counter()
        assert _base_height(10 ** 30) == 10 ** 10
        assert time.perf_counter() - started < 1.0


class TestLineCount:
    """Points of P^1(Q) of height <= B, primitive_count((1, 1), B): also the
    count on each rational line of a pair locus."""

    def test_p1_pins(self):
        assert primitive_count((1, 1), 1) == 4
        assert primitive_count((1, 1), 2) == 8

    def test_off_fermat_spec_brute_force(self):
        # y0 = y1, y2 = y3 above x = (1, -1, 2, -2), a smooth fiber
        x = normalize([1, -1, 2, -2])
        for bound in range(7):
            on_line = [
                ys
                for ys in canonical_coords(4, bound)
                if ys[0] == ys[1] and ys[2] == ys[3]
            ]
            assert all(on_bundle(x, normalize(ys)) for ys in on_line)
            assert len(on_line) == primitive_count((1, 1), bound)

    def test_counts_match_enumeration(self):
        # points on the line y0 = -y1, y2 = -y3 inside the Fermat fiber
        for bound in (1, 2, 5, 9):
            on_line = [
                y
                for y in enumerate_fiber(normalize([1, 1, 1, 1]), bound)
                if y.coords[0] == -y.coords[1] and y.coords[2] == -y.coords[3]
            ]
            assert len(on_line) == primitive_count((1, 1), bound)

    def test_growth_exponent(self):
        bounds = [50, 100, 200, 400, 800]
        counts = [primitive_count((1, 1), b) for b in bounds]
        logs = [(math.log(b), math.log(n)) for b, n in zip(bounds, counts)]
        mean_x = sum(x for x, _ in logs) / len(logs)
        mean_y = sum(y for _, y in logs) / len(logs)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in logs) / sum(
            (x - mean_x) ** 2 for x, _ in logs
        )
        assert 1.85 <= slope <= 2.15

    def test_asymptotic_band(self):
        # N(B) / ((2/zeta(2)) B^2) -> 1
        b = 800
        expected = 12 / math.pi ** 2 * b ** 2
        assert abs(primitive_count((1, 1), b) / expected - 1) < 0.01


class TestCanonicalPoints:
    def test_projective_plane_height_one(self):
        assert len(list(canonical_coords(3, 1))) == 13

    @pytest.mark.parametrize("sides", [(), (0,), (2,), (1, 0), (0, 3), (2, 1, 0, 3), (1, 1, 1, 1)])
    def test_half_box_is_the_positive_half_in_order(self, sides):
        box = itertools.product(*(range(-s, s + 1) for s in sides))
        zero = (0,) * len(sides)
        assert list(_half_box(sides)) == [t for t in box if t > zero]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("bound", [0, 1, 3])
    def test_canonical_coords_filter_the_box(self, dim, bound):
        box = itertools.product(range(-bound, bound + 1), repeat=dim)
        assert list(canonical_coords(dim, bound)) == list(filter(is_canonical, box))

    def test_all_canonical(self):
        for coords in canonical_coords(4, 2):
            assert math.gcd(*(abs(c) for c in coords)) == 1
            assert next(c for c in coords if c) > 0
