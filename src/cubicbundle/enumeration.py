"""Bounded-height enumeration of rational points on the bundle.

The anticanonical height H(x)^3 * H(y) splits the search: the outer loop
runs over the few normalized x with H(x)^3 <= B, the inner loop enumerates
the cubic-surface fiber above x up to the shrunken bound floor(B/H(x)^3).

Fiber enumeration is exact and case-split on the number of nonzero
coordinates of x:

* one or two nonzero coordinates: a linear fiber, whose rational locus is
  a plane or a line with a box-shaped parametrization
  (:func:`_linear_locus`): each y_k is a fixed multiple of one parameter
  t_p, or 0, and the height bound caps each |t_p| by its box side.  Only
  the half of the box whose first nonzero entry is positive is walked
  (:func:`_half_box`), its primitive vectors kept, and each image y negated
  when its first nonzero coordinate is negative;
* three or four nonzero coordinates: a genuine cubic surface, enumerated
  by a meet-in-the-middle split of the quadruple box — hash the values of
  x_0*y_0^3 + x_1*y_1^3 over the half plane (y_0, y_1) > (0, 0), scan the
  complementary pairs, and add the solutions with y_0 = y_1 = 0 from the
  half plane of (y_2, y_3).  The walk meets one of each pair y, -y of
  integer solutions in the box, so its primitive hits
  (:func:`~cubicbundle.arith.is_canonical`) are each projective point once.

Points are canonical int tuples inside; :func:`enumerate_fiber` wraps them
into point objects.  Output is always sorted lexicographically, so runs are
reproducible byte for byte and the outer loop parallelizes freely.

Counting and the dumps read the fiber profile (liftability, singularity,
rank) once per fiber; per point only the bundle check, the height and the
pair-locus test remain, in one walk (:func:`_fiber_points`).
Counting takes one fiber per orbit of base points under the
signed permutations (x_i, y_i) -> (e_i*x_s(i), e_i*y_s(i)), e_i = +-1.
They preserve the equation, the heights, the set of pair loci,
liftability (-1 is a cube) and singularity, so a fiber's tally depends
only on the sorted |x_i|: the representative 0 <= a <= b <= c <= d is
counted once and weighted by the number of canonical base points in its
orbit (:func:`_base_orbits`).  It also skips enumeration on the linear
fibers: a Moebius sum over the same box counts their points
(:func:`primitive_count`), and every one lies on the pair locus of the
pairing that groups the nonzero indices.  Dumps walk the fiber of every
canonical base point, one fiber at a time (:func:`point_rows`), and build
each row from the point's coordinates, its height and one of the fiber's
eight flag fields, one per pair-locus pattern; enumerate_bundle with
classify_point and point_row stays the oracle for the orbit weights, the
closed form and the dumps.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import InvalidArgument, ProjectivePoint, exact_cube_root, is_canonical, naive_height
from .classify import _fiber_profile
from .geometry import PAIRINGS, BundlePoint, NotOnVariety, _p3_coords

#: CSV column order for count series
CLASS_LABELS = ("ALL", "IN_Z", "NOT_IN_Z", "IN_SOME_V", "LIFTABLE_ONLY", "SINGULAR_FIBER")


@dataclass
class CountSeries:
    """Counting-function values N(class, B) on an ascending grid of bounds."""

    bounds: tuple[int, ...]
    counts: dict[str, list[int]] = field(default_factory=dict)

    def csv_text(self) -> str:
        lines = ["B," + ",".join(CLASS_LABELS)]
        for idx, b in enumerate(self.bounds):
            lines.append(
                str(b) + "," + ",".join(str(self.counts[label][idx]) for label in CLASS_LABELS)
            )
        return "\n".join(lines) + "\n"


def _half_box(sides):
    """The nonzero integer vectors t with |t_k| <= sides[k] whose first
    nonzero entry is positive, one of each pair t, -t, in lexicographic
    order: those with the most leading zeros come first."""
    return itertools.chain.from_iterable(
        itertools.product(
            *([(0,)] * k), range(1, sides[k] + 1), *(range(-s, s + 1) for s in sides[k + 1:])
        )
        for k in reversed(range(len(sides)))
    )


def canonical_coords(dim: int, bound: int):
    """Canonical coordinate tuples of P^(dim-1) points with naive height
    <= bound, in lexicographic order: the primitive vectors of the half box."""
    return (t for t in _half_box((bound,) * dim) if math.gcd(*t) == 1)


def _linear_locus(xs):
    """The rational locus of a linear fiber as a parametrized box, or None
    for a cone or smooth fiber.

    Returns (params, sides): y_k = m_k * t[p_k] for params[k] = (p_k, m_k),
    where m_k = 0 pins y_k to 0, and H(y) <= bound exactly when
    |t_p| <= floor(bound/sides[p]).  Primitive t up to sign map one to one
    onto the fiber's points.  Every y_k with x_k = 0 is a free parameter of
    side 1; besides those, two nonzero coordinates x_i, x_j whose ratio
    -x_j/x_i is the cube of the reduced c/d give (y_i, y_j) = (c*t, d*t)
    with side max(|c|, |d|), and otherwise y_i = y_j = 0.  So x = e_i gives
    the plane y_i = 0, and two nonzero coordinates a plane or a line.
    """
    nz = [k for k, xk in enumerate(xs) if xk]
    if len(nz) > 2:
        return None
    params = [(0, 0)] * 4
    sides = []
    if len(nz) == 2:
        i, j = nz
        ratio = Fraction(-xs[j], xs[i])
        c, d = exact_cube_root(ratio.numerator), exact_cube_root(ratio.denominator)
        if c is not None and d is not None:
            params[i], params[j] = (0, c), (0, d)
            sides.append(max(abs(c), abs(d)))
    for k, xk in enumerate(xs):
        if not xk:
            params[k] = (len(sides), 1)
            sides.append(1)
    return tuple(params), tuple(sides)


def _fiber_coords_surface(xs, bound):
    """Meet-in-the-middle over the box, one of each solution pair y, -y:
    hash x0*ya^3 + x1*yb^3 over the half plane (ya, yb) > (0, 0) in
    lexicographic order and scan (yc, yd) over the whole square, then add
    the solutions with ya = yb = 0 and (yc, yd) in the half plane.  Each
    hit has its first nonzero coordinate positive; is_canonical keeps the
    primitive ones."""
    cubes = {k: k ** 3 for k in range(-bound, bound + 1)}
    rng = range(-bound, bound + 1)
    x0, x1, x2, x3 = xs
    half_plane = list(_half_box((bound, bound)))
    table: dict[int, list[tuple[int, int]]] = {}
    for ya, yb in half_plane:
        table.setdefault(x0 * cubes[ya] + x1 * cubes[yb], []).append((ya, yb))
    hits = [
        (ya, yb, yc, yd)
        for yc, yd in itertools.product(rng, repeat=2)
        for ya, yb in table.get(-(x2 * cubes[yc] + x3 * cubes[yd]), ())
    ]
    hits += [(0, 0, yc, yd) for yc, yd in half_plane if x2 * cubes[yc] + x3 * cubes[yd] == 0]
    return list(filter(is_canonical, hits))


def _fiber_coords(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the cubic surface above the
    canonical x, each exactly once, sorted."""
    if bound < 1:
        return []
    locus = _linear_locus(xs)
    if locus is None:
        return sorted(_fiber_coords_surface(xs, bound))
    params, sides = locus
    (p0, m0), (p1, m1), (p2, m2), (p3, m3) = params
    ys = []
    # primitive t up to sign: y is primitive with t, and is negated when
    # its first nonzero coordinate is negative, that is when y < 0 as tuples
    for t in _half_box([bound // s for s in sides]):
        if math.gcd(*t) == 1:
            # spelled out: a generic tuple(m * t[p] for ...) per point is much slower
            y = (m0 * t[p0], m1 * t[p1], m2 * t[p2], m3 * t[p3])
            ys.append(y if y > (0, 0, 0, 0) else (-y[0], -y[1], -y[2], -y[3]))
    return sorted(ys)


def enumerate_fiber(x: ProjectivePoint, y_height_bound: int) -> list[ProjectivePoint]:
    """All normalized y with H(y) <= bound on the cubic surface above x,
    each exactly once, sorted by coordinates.

    Raises InvalidPoint unless x has four coordinates, and InvalidArgument
    unless the bound is an integer.
    """
    bound = _integer(y_height_bound, "height bound")
    return [ProjectivePoint(c) for c in _fiber_coords(_p3_coords(x), bound)]


def _base_height(height_bound: int) -> int:
    """The largest h >= 1 with h^3 <= height_bound (1 below 8)."""
    x_max = 1
    while (x_max + 1) ** 3 <= height_bound:
        x_max += 1
    return x_max


def base_points(height_bound: int) -> list[ProjectivePoint]:
    """Normalized x with H(x)^3 <= height_bound, in lexicographic order."""
    return [ProjectivePoint(c) for c in canonical_coords(4, _base_height(height_bound))]


def _base_orbits(x_max: int) -> list[tuple[tuple[int, ...], int]]:
    """The orbits of canonical base points with H(x) <= x_max under signed
    permutations: each representative 0 <= a <= b <= c <= d with gcd 1, in
    lexicographic order, with its orbit's size.

    The orbit holds every distinct permutation of the representative with
    every sign on its nonzero entries; canonical form keeps half of those
    signed vectors, one of each pair v, -v.
    """
    orbits = []
    for rep in itertools.combinations_with_replacement(range(x_max + 1), 4):
        if math.gcd(*rep) == 1:
            perms = 24 // math.prod(math.factorial(m) for m in Counter(rep).values())
            orbits.append((rep, perms * 2 ** (4 - rep.count(0) - 1)))
    return orbits


def _integer(value, name: str, least: int | None = None) -> int:
    """The named argument as an int, or InvalidArgument unless it is an
    integer, and one >= least when least is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer") from None
    if least is not None and value < least:
        raise InvalidArgument(f"{name} must be >= {least}")
    return value


def enumerate_bundle(height_bound: int):
    """Stream every bundle point with anticanonical height <= height_bound
    exactly once, lexicographically in normalized x then y."""
    height_bound = _integer(height_bound, "height bound", 1)
    for x in base_points(height_bound):
        for y in enumerate_fiber(x, height_bound // naive_height(x) ** 3):
            yield BundlePoint(x, y)


def _mobius(n: int) -> list[int]:
    """mu(0..n) by a sieve; mu[0] is unused."""
    mu = [1] * (n + 1)
    sieved = [False] * (n + 1)
    for p in range(2, n + 1):
        if sieved[p]:
            continue  # a smaller prime divides p
        for k in range(p, n + 1, p):
            sieved[k] = True
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return mu


def primitive_count(sides, bound: int) -> int:
    """Primitive integer vectors up to sign with |v_k| <= floor(bound/m_k)
    for the box sides m_k.

    The nonzero vectors of the box whose coordinates are all divisible by
    d number prod_k(2*floor(bound/(m_k*d)) + 1) - 1; Moebius inversion over
    d <= bound keeps the primitive ones, and halving removes the sign.
    """
    mu = _mobius(bound)
    total = 0
    for d in range(1, bound + 1):
        if mu[d]:
            total += mu[d] * (math.prod(2 * (bound // (m * d)) + 1 for m in sides) - 1)
    return total // 2


def _tally(on_loci, off_loci, liftable: bool, singular: bool) -> dict[str, list[int]]:
    """The six CSV columns of one fiber, from its per-bound counts of points
    on some pair locus and off every pair locus.

    Liftability and singularity belong to the base point, so they are the
    same for every point of the fiber: a point is in Z when it is on a pair
    locus or its base point lifts.
    """
    total = [a + b for a, b in zip(on_loci, off_loci)]
    zeros = [0] * len(total)
    return {
        "ALL": total,
        "IN_Z": total if liftable else on_loci,
        "NOT_IN_Z": zeros if liftable else off_loci,
        "IN_SOME_V": on_loci,
        "LIFTABLE_ONLY": off_loci if liftable else zeros,
        "SINGULAR_FIBER": total if singular else zeros,
    }


def _classify_fiber(args):
    """Worker task: per-bound, per-class counts for the fiber above x."""
    x_coords, bounds = args
    lifts, singular, _ = _fiber_profile(x_coords)
    liftable = any(lifts.values())
    locus = _linear_locus(x_coords)
    if locus is not None:
        # the pairing grouping the nonzero indices of x has both pair sums 0
        hx3 = max(map(abs, x_coords)) ** 3
        on_loci = [primitive_count(locus[1], b // hx3) for b in bounds]
        return _tally(on_loci, [0] * len(bounds), liftable, singular)
    # points first counted at each bound; every height is at most bounds[-1]
    new_on = [0] * len(bounds)
    new_off = [0] * len(bounds)
    for _, height, in_v in _fiber_points(x_coords, bounds[-1]):
        (new_on if any(in_v) else new_off)[bisect_left(bounds, height)] += 1
    on_loci = list(itertools.accumulate(new_on))
    off_loci = list(itertools.accumulate(new_off))
    return _tally(on_loci, off_loci, liftable, singular)


def _flag_field(in_z: bool, in_v, lifts, singular: bool) -> str:
    """The class-flags field of a dump row: Z, the pair loci V and the
    liftable pairings L in pairing order, SING, or - when none hold.  in_v
    and lifts map each pairing to a bool."""
    flags = ["Z"] if in_z else []
    flags.extend(f"V{p}" for p in sorted(in_v) if in_v[p])
    flags.extend(f"L{p}" for p in sorted(lifts) if lifts[p])
    if singular:
        flags.append("SING")
    return ",".join(flags) or "-"


def point_row(record, height: int) -> str:
    """One dump line: x|y|height|class-flags."""
    flags = _flag_field(record.in_Z, record.in_V, record.liftable, record.singular_fiber)
    return f"{record.point.x}|{record.point.y}|{height}|{flags}"


def _fiber_points(x_coords, height_bound: int):
    """Each canonical y over the canonical x with H(x)^3 * H(y) <= height_bound,
    in numeric order, as (y, H(x)^3 * H(y), (in V1, in V2, in V3)).

    Raises NotOnVariety for a y off the bundle, also under python -O.  On the
    bundle the four terms x_k*y_k^3 sum to 0, so both pair sums of a pairing
    vanish as soon as the one holding index 0 does.
    """
    x0, x1, x2, x3 = x_coords
    hx3 = max(map(abs, x_coords)) ** 3
    for ys in _fiber_coords(x_coords, height_bound // hx3):
        y0, y1, y2, y3 = ys
        t0, t1, t2, t3 = x0 * y0 ** 3, x1 * y1 ** 3, x2 * y2 ** 3, x3 * y3 ** 3
        if t0 + t1 + t2 + t3:
            x, y = (":".join(map(str, c)) for c in (x_coords, ys))
            raise NotOnVariety(f"({x}, {y}) is not on the bundle")
        height = hx3 * max(abs(y0), abs(y1), abs(y2), abs(y3))
        # pairings 1, 2, 3 pair index 0 with 1, 2, 3 (geometry.PAIRINGS)
        yield ys, height, (t0 + t1 == 0, t0 + t2 == 0, t0 + t3 == 0)


def _fiber_rows(args) -> list[str]:
    """Worker task: the dump rows of the fiber above x, in numeric order of y.

    The fiber profile, the row head x| and the flag field of each of the
    eight pair-locus patterns are built once per fiber; per point only the
    bundle check, the pair-locus test, the height and y's text remain.
    """
    x_coords, height_bound = args
    lifts, singular, _ = _fiber_profile(x_coords)
    liftable = any(lifts.values())
    head = f"{ProjectivePoint(x_coords)}|"
    fields = {
        in_v: _flag_field(liftable or any(in_v), dict(zip(PAIRINGS, in_v)), lifts, singular)
        for in_v in itertools.product((False, True), repeat=3)
    }
    return [f"{head}{':'.join(map(str, ys))}|{height}|{fields[in_v]}"
            for ys, height, in_v in _fiber_points(x_coords, height_bound)]


def _pool_map(fn, tasks: list, workers: int):
    """Stream fn over tasks in order, one task at a time on each of min(workers,
    number of tasks, CPU count) processes, or in this process when that is 1."""
    workers = _integer(workers, "workers", 1)
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def point_rows(height_bound: int, workers: int = 1, as_text: bool = False):
    """Stream the dump rows of all points of anticanonical height <=
    height_bound, one fiber at a time, in the order of enumerate_bundle:
    the rows point_row(classify_point(p), height) would give, built from
    each fiber's profile (:func:`_fiber_rows`).

    as_text sorts the rows as strings instead: base points by str(x) + "|",
    then each fiber's rows.  Every row starts with str(x) + "|", and "|"
    sorts after the digits, ":" and "-", so that is the whole dump sorted.
    """
    height_bound = _integer(height_bound, "height bound", 1)
    xs = list(canonical_coords(4, _base_height(height_bound)))
    if as_text:
        xs.sort(key=lambda c: str(ProjectivePoint(c)) + "|")
    for rows in _pool_map(_fiber_rows, [(c, height_bound) for c in xs], workers):
        yield from sorted(rows) if as_text else rows


def count_series(height_bounds, workers: int = 1) -> CountSeries:
    """Classified counting functions on an ascending grid of bounds: the
    series only, as :func:`point_rows` dumps the points.

    One fiber per signed-permutation orbit of base points is counted, for
    the largest bound, thresholded into each bound and added with the
    orbit's size as weight: linear fibers in closed form, cone and smooth
    fibers point by point.  IN_SOME_V and LIFTABLE_ONLY partition IN_Z:
    points on some pair locus versus points swept in only through
    liftability of their base point.  Orbit tasks run largest fiber bound
    bounds[-1] // H(x)^3 first, so the few huge fibers over height-1 base
    points start at once; the merge is a weighted sum, so any worker count
    produces identical output.
    """
    bounds = tuple(_integer(b, "bound") for b in height_bounds)
    if not bounds:
        raise InvalidArgument("empty bounds grid")
    if any(b < 1 for b in bounds) or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise InvalidArgument("bounds must be positive and strictly ascending")
    weighted = sorted(_base_orbits(_base_height(bounds[-1])), key=lambda xw: max(xw[0]))
    tallies = _pool_map(_classify_fiber, [(xs, bounds) for xs, _ in weighted], workers)
    totals = {label: [0] * len(bounds) for label in CLASS_LABELS}
    for (_, weight), tally in zip(weighted, tallies):
        for label, counts in tally.items():
            totals[label] = [a + weight * b for a, b in zip(totals[label], counts)]
    return CountSeries(bounds, totals)


def projective_line_count(height_bound: int) -> int:
    """Number of normalized points of P^1(Q) with naive height <= bound.

    It is also the count on each line (s1*a, a, s2*b, b), in a pairing's
    index order, of a pair locus: such a point has height max(|a|, |b|).
    """
    return primitive_count((1, 1), height_bound)

