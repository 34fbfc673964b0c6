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
from cubicbundle import classify, enumeration
from cubicbundle.arith import (
    InvalidArgument,
    ProjectivePoint,
    is_canonical,
    naive_height,
    normalize,
)
from cubicbundle.classify import classify_point
from cubicbundle.enumeration import (
    CLASS_LABELS,
    POOL_MIN_BOUND,
    CountSeries,
    _base_height,
    _base_orbits,
    _checked_points,
    _classify_fiber,
    _fiber_coords,
    _fiber_locus,
    _fiber_rows,
    _half_box,
    _linear_locus,
    _surface_scan,
    base_points,
    canonical_coords,
    count_series,
    enumerate_fiber,
    point_row,
    point_rows,
    primitive_count,
)
from cubicbundle.geometry import PAIRINGS, BundlePoint, NotOnVariety, on_bundle
from oracles import enumerate_bundle

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


def brute_force_bundle(height_bound):
    """Quadruple-nested scan of the integer height box, then normalize."""
    found = set()
    x_max = 1
    while (x_max + 1) ** 3 <= height_bound:
        x_max += 1
    for xs in itertools.product(range(-x_max, x_max + 1), repeat=4):
        if not any(xs):
            continue
        hx = max(abs(c) for c in xs)
        y_cap = height_bound // hx ** 3
        for ys in itertools.product(range(-y_cap, y_cap + 1), repeat=4):
            if not any(ys):
                continue
            if sum(a * b ** 3 for a, b in zip(xs, ys)) != 0:
                continue
            found.add((normalize(xs).coords, normalize(ys).coords))
    return found


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
        assert enumerate_fiber(normalize([1, 2, 3, 4]), 0) == []

    def test_two_term_cube_fiber(self):
        fiber = enumerate_fiber(normalize([1, -8, 0, 0]), 4)
        for y in fiber:
            assert y.coords[0] ** 3 == 8 * y.coords[1] ** 3
        assert any(y.coords[:2] == (2, 1) for y in fiber)

    def test_two_term_noncube_fiber(self):
        fiber = enumerate_fiber(normalize([1, -2, 0, 0]), 3)
        assert all(y.coords[0] == y.coords[1] == 0 for y in fiber)

    # the last five: y's first nonzero coordinate comes from a parameter
    # other than the first or from a negative multiplier, or x is a cone
    @pytest.mark.parametrize("xs", [
        (1, 1, 1, 1), (1, 0, 0, 2), (0, 1, -1, 3), (1, 2, 3, 4), *LINEAR_SHAPES,
        (0, 1, 1, 1), (0, 0, 1, -1), (0, 1, -8, 0), (0, 1, 8, 0), (8, 1, 0, 0),
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
        ys = enumeration._fiber_coords(xs, 10)
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
        rows = list(point_rows(2, as_text=True))
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
        series = count_series([64, 128, 256])
        assert series.csv_text().splitlines()[1:] == [
            "64,14641288,14638568,2720,14627480,11088,14504192",
            "128,114481432,114473144,8288,114433496,39648,113947472",
            "256,903726136,903706808,19328,903566168,140640,901649936",
        ]


class TestPointRows:
    @pytest.fixture(scope="class")
    def oracle_rows(self):
        # B = 10 puts two-digit y coordinates in the fiber over (0, 0, 0, 1)
        return classified_rows(10)

    def test_numeric_order_matches_enumerate_then_classify(self, oracle_rows):
        assert list(point_rows(10)) == oracle_rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_text_order_is_the_sorted_dump(self, oracle_rows, workers):
        assert list(point_rows(10, workers, as_text=True)) == sorted(oracle_rows)

    def test_first_row_comes_before_the_second_fiber_task(self, monkeypatch):
        calls = []
        real = enumeration._fiber_rows

        def counted(args):
            calls.append(args)
            return real(args)

        monkeypatch.setattr(enumeration, "_fiber_rows", counted)
        stream = point_rows(8, as_text=True)
        assert next(stream).startswith("0:0:0:1|")
        assert len(calls) == 1
        assert next(stream)
        stream.close()
        assert len(calls) == 1

    def test_pool_takes_one_fiber_at_a_time(self, monkeypatch, recording_pool):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        assert list(point_rows(1, workers=2)) == list(point_rows(1))
        assert recording_pool["sizes"] == [2]
        [(tasks, chunksize)] = recording_pool["maps"]
        assert chunksize == 1
        assert tasks == [(xs, 1) for xs in canonical_coords(4, 1)]

    def test_rejects_zero_bound(self):
        with pytest.raises(InvalidArgument):
            next(point_rows(0))

    def test_rejects_zero_workers(self):
        with pytest.raises(InvalidArgument):
            next(point_rows(2, workers=0))

    @pytest.mark.parametrize("bound", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_bound(self, bound):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            next(point_rows(bound))

    @pytest.mark.parametrize("workers", [1.5, "2", None])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(InvalidArgument, match="workers must be an integer"):
            next(point_rows(2, workers=workers))

    def test_off_bundle_point_raises(self, monkeypatch):
        # (0:0:0:1) is not on the fiber over the first base point (0:0:0:1)
        monkeypatch.setattr(enumeration, "_fiber_coords", lambda xs, bound: [(0, 0, 0, 1)])
        with pytest.raises(NotOnVariety, match=r"\(0:0:0:1, 0:0:0:1\) is not on the bundle"):
            next(point_rows(1))

    def test_off_bundle_check_survives_optimize(self):
        code = textwrap.dedent("""
            from cubicbundle import enumeration
            assert False, "asserts must be off"
            enumeration._fiber_coords = lambda xs, bound: [(0, 0, 0, 1)]
            next(enumeration.point_rows(1))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode != 0
        last = result.stderr.strip().splitlines()[-1]
        assert last == "cubicbundle.geometry.NotOnVariety: (0:0:0:1, 0:0:0:1) is not on the bundle"

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
            assert _fiber_rows((x.coords, height_bound)) == expected

    @pytest.mark.parametrize("xs", ROW_SHAPES)
    def test_keys_decode_to_height_and_pair_loci(self, xs):
        x = normalize(xs)
        ys = _fiber_coords(x.coords, 12)
        keys = _checked_points(x.coords, ys)
        assert len(keys) == len(ys)
        for y, key in zip(map(ProjectivePoint, ys), keys):
            assert key >> 3 == naive_height(y)
            in_v = classify_point(BundlePoint(x, y)).in_V
            assert {p: key >> p - 1 & 1 == 1 for p in PAIRINGS} == in_v, y

    def test_point_beyond_the_fiber_bound_gets_the_oracle_row(self, monkeypatch):
        # H(y) = 18 and 37 above the fiber bound 2 over 1:1:1:2: coordinate
        # texts and heights beyond those of the points within the bound
        ys = [(1, -1, 0, 0), (1, -18, 7, 14), (6, -37, -35, 36)]
        monkeypatch.setattr(enumeration, "_fiber_coords", lambda xs, bound: ys)
        x = ProjectivePoint((1, 1, 1, 2))
        expected = [
            point_row(classify_point(BundlePoint(x, y)), naive_height(x) ** 3 * naive_height(y))
            for y in map(ProjectivePoint, ys)
        ]
        assert _fiber_rows(((1, 1, 1, 2), 16)) == expected

    def test_fermat_fiber_flags(self):
        rows = _fiber_rows(((1, 1, 1, 1), 20))
        assert all(row.endswith("L1,L2,L3") for row in rows)
        # (1, -1, 1, -1) lies on V1 and V3 but not on V2
        assert "1:1:1:1|1:-1:1:-1|1|Z,V1,V3,L1,L2,L3" in rows

    def test_non_liftable_fiber_flags(self):
        rows = _fiber_rows(((1, 2, 3, 5), 125 * 20))
        assert not any("L" in row for row in rows)
        assert "1:2:3:5|1:1:-1:0|125|-" in rows

    def test_cone_fiber_flags(self):
        rows = _fiber_rows(((0, 1, 1, 1), 20))
        assert rows and all(row.split("|")[3].startswith("Z,") for row in rows)
        assert all(row.endswith("SING") for row in rows)


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
        _, sides = _linear_locus(x.coords)
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
            locus = _linear_locus(x.coords)
            if locus is None:
                continue
            counted += primitive_count(locus[1], 3)
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
            assert _fiber_coords(xs, y_bounds[-1]) == expected, xs
            heights = Counter()
            on_locus = Counter()
            x0, x1, x2, x3 = xs
            for y0, y1, y2, y3 in expected:
                t0, t1, t2, t3 = x0 * y0 ** 3, x1 * y1 ** 3, x2 * y2 ** 3, x3 * y3 ** 3
                height = max(abs(y0), abs(y1), abs(y2), abs(y3))
                heights[height] += 1
                # both pair sums of each pairing, as classify_point tests them
                on_locus[height] += (
                    t0 + t1 == 0 and t2 + t3 == 0
                    or t0 + t2 == 0 and t1 + t3 == 0
                    or t0 + t3 == 0 and t1 + t2 == 0
                )
            hx3 = max(map(abs, xs)) ** 3
            tally = _classify_fiber((xs, tuple(hx3 * y for y in y_bounds)))
            assert tally["ALL"] == list(itertools.accumulate(heights[b] for b in y_bounds)), xs
            assert tally["IN_SOME_V"] == list(
                itertools.accumulate(on_locus[b] for b in y_bounds)
            ), xs
            checked += 1
        assert checked == 1032

    @pytest.mark.parametrize("xs", SURFACE_SHAPES)
    def test_walk_matches_the_oracle_at_every_bound(self, xs):
        expected = surface_oracle(xs, 40)
        for bound in range(41):
            assert _fiber_coords(xs, bound) == [y for y in expected if max(map(abs, y)) <= bound]

    @pytest.mark.parametrize("xs", SURFACE_SHAPES)
    def test_closed_form_matches_enumeration(self, xs):
        ys = _fiber_coords(xs, 20)
        hx3 = max(map(abs, xs)) ** 3
        y_bounds = tuple(range(1, 21))
        tally = _classify_fiber((xs, tuple(hx3 * y for y in y_bounds)))
        assert tally["ALL"] == [sum(max(map(abs, y)) <= b for y in ys) for b in y_bounds]
        assert tally == self.tally_of(xs, ys, y_bounds)

    def test_fermat_fiber_has_three_lines(self):
        boxes, points = _fiber_locus((1, 1, 1, 1), 40)
        assert [sides for _, sides, _, _ in boxes] == [(1, 1)] * 3
        # the lines meet pairwise, at height 1
        assert {(1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)} <= set(points)
        y_bounds = tuple(range(1, 41))
        on_lines = [3 * primitive_count((1, 1), b) - 3 for b in y_bounds]
        assert _classify_fiber(((1, 1, 1, 1), y_bounds))["IN_SOME_V"] == on_lines

    def test_isolated_pair_locus_points(self):
        # -x1/x0, -x2/x0 and -x2/x1 are cubes, -2 is not: no line, but one
        # pair-locus point for each pairing, found by the scan
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

    def test_cone_line_off_the_pair_loci(self):
        # (1, 1, 1) on y1^3 + y2^3 = 2*y3^3 has no zero coordinate
        boxes, _ = _fiber_locus((0, 1, 1, -2), 5)
        assert {(params[1:], on) for params, _, _, on in boxes} == {
            (((1, 1), (1, -1), (1, 0)), True),
            (((1, 1), (1, 1), (1, 1)), False),
        }

    @pytest.mark.parametrize("xs", [(1, 1, 1, 1), (1, -1, 2, -2), (1, -8, 1, -1)])
    def test_scan_leaves_the_lines_out(self, xs):
        lines = {1, 2, 3} if xs != (1, -1, 2, -2) else {1}
        hits = _surface_scan(xs, 20, lines)
        assert hits and all(map(is_canonical, hits))
        for y in hits:
            terms = [x * c ** 3 for x, c in zip(xs, y)]
            assert sum(terms) == 0
            assert all(terms[0] + terms[p] for p in lines)

    def test_box_off_the_fiber_raises(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cube_pair", lambda alpha, beta: (1, 1))
        with pytest.raises(NotOnVariety, match="is not on the fiber over 1:1:1:1"):
            _fiber_coords((1, 1, 1, 1), 3)

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
