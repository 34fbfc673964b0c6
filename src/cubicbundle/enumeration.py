"""Bounded-height enumeration of rational points on the bundle.

The anticanonical height H(x)^3 * H(y) splits the search: the outer loop
runs over the few normalized x with H(x)^3 <= B, the inner loop enumerates
the cubic-surface fiber above x up to the shrunken bound floor(B/H(x)^3).

Fiber enumeration is exact and case-split on the number of nonzero
coordinates of x:

* one nonzero coordinate: the rational locus is the coordinate plane
  y_i = 0, generated directly in canonical form;
* two nonzero coordinates x_i, x_j: solutions have y_i*d = y_j*c for the
  reduced rational cube root c/d of -x_j/x_i when it exists (a plane,
  parametrized directly), else y_i = y_j = 0 (a line);
* three or four nonzero coordinates: a genuine cubic surface, enumerated
  by a meet-in-the-middle split of the quadruple box — hash the values of
  x_0*y_0^3 + x_1*y_1^3, scan the complementary pairs.  The scan meets each
  integer solution in the box once, so its canonical hits
  (:func:`~cubicbundle.arith.is_canonical`) are each projective point once.

Points are canonical int tuples inside; :func:`enumerate_fiber` wraps them
into point objects.  Output is always sorted lexicographically, so runs are
reproducible byte for byte and the outer loop parallelizes freely.

Counting reads the fiber profile (liftability, singularity, rank) once per
fiber; per point only the height and the pair-locus test remain.
It counts one fiber per orbit of base points under the
signed permutations (x_i, y_i) -> (e_i*x_s(i), e_i*y_s(i)), e_i = +-1.
They preserve the equation, the heights, the set of pair loci,
liftability (-1 is a cube) and singularity, so a fiber's tally depends
only on the sorted |x_i|: the representative 0 <= a <= b <= c <= d is
counted once and weighted by the number of canonical base points in its
orbit (:func:`_base_orbits`).  It also skips enumeration on the linear
fibers (one or two nonzero coordinates of x): their points fill a plane or
a line with a box-shaped parametrization, so a Moebius sum over the box
counts them (:func:`primitive_count`), and every one lies on the pair
locus of the pairing that groups the nonzero indices.  Dumps classify
every point, one fiber at a time (:func:`point_rows`); enumerate_bundle
with classify_point stays the oracle for the orbit weights, the closed
form and the dumps.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import InvalidArgument, ProjectivePoint, exact_cube_root, is_canonical, naive_height
from .classify import _fiber_profile, classify_point
from .geometry import PAIRINGS, BundlePoint, pair_sums, pairing_pairs

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


def canonical_coords(dim: int, bound: int):
    """Canonical coordinate tuples of P^(dim-1) points with naive height
    <= bound, in lexicographic order."""
    return filter(is_canonical, itertools.product(range(-bound, bound + 1), repeat=dim))


def canonical_points(dim: int, bound: int) -> list[ProjectivePoint]:
    return [ProjectivePoint(c) for c in canonical_coords(dim, bound)]


def _embed(positions, values) -> tuple[int, ...]:
    coords = [0, 0, 0, 0]
    for pos, v in zip(positions, values):
        coords[pos] = v
    return tuple(coords)


def _fiber_coords_plane(zero_positions, bound):
    """Fibers whose rational points fill the plane y_i = 0 (x = h*e_i)."""
    free = [i for i in range(4) if i not in zero_positions]
    return [_embed(free, triple) for triple in canonical_coords(3, bound)]


def _two_term_root(xs, nz):
    """The reduced (c, d) with -x_j/x_i = (c/d)^3, or None when that ratio
    is not a rational cube."""
    i, j = nz
    ratio = Fraction(-xs[j], xs[i])
    c = exact_cube_root(ratio.numerator)
    d = exact_cube_root(ratio.denominator)
    if c is None or d is None:
        return None
    return c, d


def _fiber_coords_two_terms(xs, nz, bound):
    """Fibers x_i*y_i^3 + x_j*y_j^3 = 0 with the other two y free."""
    i, j = nz
    free = [k for k in range(4) if k not in nz]
    root = _two_term_root(xs, nz)
    if root is None:
        # only y_i = y_j = 0: a line in the two free coordinates
        return [_embed(free, pair) for pair in canonical_coords(2, bound)]
    # plane (y_i, y_j) = (c*t, d*t); t = 0 recovers the line above
    c, d = root
    t_max = bound // max(abs(c), abs(d))
    rng = range(-bound, bound + 1)
    box = itertools.product(range(-t_max, t_max + 1), rng, rng)
    plane = (_embed((i, j, *free), (c * t, d * t, u, v)) for t, u, v in box)
    return list(filter(is_canonical, plane))


def _fiber_coords_surface(xs, bound):
    """Meet-in-the-middle over the box: hash one half of the cubic form,
    scan the other, keep the canonical hits."""
    cubes = {k: k ** 3 for k in range(-bound, bound + 1)}
    rng = range(-bound, bound + 1)
    x0, x1, x2, x3 = xs
    table: dict[int, list[tuple[int, int]]] = {}
    for ya, yb in itertools.product(rng, repeat=2):
        table.setdefault(x0 * cubes[ya] + x1 * cubes[yb], []).append((ya, yb))
    hits = (
        (ya, yb, yc, yd)
        for yc, yd in itertools.product(rng, repeat=2)
        for ya, yb in table.get(-(x2 * cubes[yc] + x3 * cubes[yd]), ())
    )
    return list(filter(is_canonical, hits))


def _fiber_coords(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the cubic surface above the
    canonical x, each exactly once, sorted."""
    if bound < 1:
        return []
    nz = [i for i, c in enumerate(xs) if c]
    if len(nz) == 1:
        coords = _fiber_coords_plane(nz, bound)
    elif len(nz) == 2:
        coords = _fiber_coords_two_terms(xs, nz, bound)
    else:
        coords = _fiber_coords_surface(xs, bound)
    return sorted(coords)


def enumerate_fiber(x: ProjectivePoint, y_height_bound: int) -> list[ProjectivePoint]:
    """All normalized y with H(y) <= bound on the cubic surface above x,
    each exactly once, sorted by coordinates."""
    return [ProjectivePoint(c) for c in _fiber_coords(x.coords, y_height_bound)]


def _base_height(height_bound: int) -> int:
    """The largest h >= 1 with h^3 <= height_bound (1 below 8)."""
    x_max = 1
    while (x_max + 1) ** 3 <= height_bound:
        x_max += 1
    return x_max


def base_points(height_bound: int) -> list[ProjectivePoint]:
    """Normalized x with H(x)^3 <= height_bound, in lexicographic order."""
    return canonical_points(4, _base_height(height_bound))


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


def enumerate_bundle(height_bound: int):
    """Stream every bundle point with anticanonical height <= height_bound
    exactly once, lexicographically in normalized x then y."""
    if height_bound < 1:
        raise InvalidArgument("height bound must be >= 1")
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


def _linear_sides(xs):
    """Box sides of the parametrized rational locus of a linear fiber, or
    None for a cone or smooth fiber.

    x = e_i gives the plane y_i = 0 with three free coordinates; two
    nonzero coordinates give the plane (c*t, d*t, u, v), where the height
    caps |t| at floor(bound/max(|c|, |d|)), or else the line in (u, v).
    """
    nz = [i for i, c in enumerate(xs) if c]
    if len(nz) == 1:
        return (1, 1, 1)
    if len(nz) == 2:
        root = _two_term_root(xs, nz)
        if root is None:
            return (1, 1)
        return (max(abs(root[0]), abs(root[1])), 1, 1)
    return None


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
    hx3 = max(map(abs, x_coords)) ** 3
    sides = _linear_sides(x_coords)
    if sides is not None:
        # the pairing grouping the nonzero indices of x has both pair sums 0
        on_loci = [primitive_count(sides, b // hx3) for b in bounds]
        return _tally(on_loci, [0] * len(bounds), liftable, singular)
    # points first counted at each bound; every height is at most bounds[-1]
    new_on = [0] * len(bounds)
    new_off = [0] * len(bounds)
    for ys in _fiber_coords(x_coords, bounds[-1] // hx3):
        height = hx3 * max(map(abs, ys))
        on = any(pair_sums(x_coords, ys, p) == (0, 0) for p in PAIRINGS)
        (new_on if on else new_off)[bisect_left(bounds, height)] += 1
    on_loci = list(itertools.accumulate(new_on))
    off_loci = list(itertools.accumulate(new_off))
    return _tally(on_loci, off_loci, liftable, singular)


def point_row(record, height: int) -> str:
    """One dump line: x|y|height|class-flags."""
    flags = []
    if record.in_Z:
        flags.append("Z")
    flags.extend(f"V{p}" for p in sorted(record.in_V) if record.in_V[p])
    flags.extend(f"L{p}" for p in sorted(record.liftable) if record.liftable[p])
    if record.singular_fiber:
        flags.append("SING")
    return f"{record.point.x}|{record.point.y}|{height}|{','.join(flags) or '-'}"


def _fiber_rows(args) -> list[str]:
    """Worker task: the dump rows of the fiber above x, in numeric order of y."""
    x_coords, height_bound = args
    x = ProjectivePoint(x_coords)
    hx3 = naive_height(x) ** 3
    return [point_row(classify_point(BundlePoint(x, y)), hx3 * naive_height(y))
            for y in map(ProjectivePoint, _fiber_coords(x_coords, height_bound // hx3))]


def _pool_map(fn, tasks: list, workers: int):
    """Stream fn over tasks in order, one task at a time on each of min(workers,
    number of tasks, CPU count) processes, or in this process when that is 1."""
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def point_rows(height_bound: int, workers: int = 1, as_text: bool = False):
    """Stream the dump rows of all points of anticanonical height <=
    height_bound, one fiber at a time, in the order of enumerate_bundle.

    as_text sorts the rows as strings instead: base points by str(x) + "|",
    then each fiber's rows.  Every row starts with str(x) + "|", and "|"
    sorts after the digits, ":" and "-", so that is the whole dump sorted.
    """
    if height_bound < 1:
        raise InvalidArgument("height bound must be >= 1")
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
    bounds = tuple(int(b) for b in height_bounds)
    if not bounds:
        raise InvalidArgument("empty bounds grid")
    if any(b < 1 for b in bounds) or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise InvalidArgument("bounds must be positive and strictly ascending")
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    weighted = sorted(_base_orbits(_base_height(bounds[-1])), key=lambda xw: max(xw[0]))
    tallies = _pool_map(_classify_fiber, [(xs, bounds) for xs, _ in weighted], workers)
    totals = {label: [0] * len(bounds) for label in CLASS_LABELS}
    for (_, weight), tally in zip(weighted, tallies):
        for label, counts in tally.items():
            totals[label] = [a + weight * b for a, b in zip(totals[label], counts)]
    return CountSeries(bounds, totals)


@dataclass(frozen=True)
class LineSpec:
    """A line on the bundle above a fixed base point: pairing plus the two
    signs (s1, s2) of the relations y_i = s1*y_j, y_k = s2*y_l."""

    x: ProjectivePoint
    pairing: int
    first_sign: int
    second_sign: int

    def __post_init__(self) -> None:
        if self.first_sign not in (-1, 1) or self.second_sign not in (-1, 1):
            raise InvalidArgument("line signs must be +1 or -1")
        (i, j), (k, l) = pairing_pairs(self.pairing)
        c = self.x.coords
        # substituting y_i = s1*y_j kills the pair-sum iff s1*x_i + x_j = 0
        if self.first_sign * c[i] + c[j] != 0 or self.second_sign * c[k] + c[l] != 0:
            raise InvalidArgument(f"line is not on the bundle above {self.x}")


def projective_line_count(height_bound: int) -> int:
    """Number of normalized points of P^1(Q) with naive height <= bound."""
    return primitive_count((1, 1), height_bound)


def line_count(spec: LineSpec, height_bound: int) -> int:
    """Points of naive height <= bound on the line of the spec.

    In the pairing's index order the line is (s1*a, a, s2*b, b) for
    primitive (a, b) up to sign, so a point's height is max(|a|, |b|)
    whatever x and the signs are, and the count is that of normalized
    points of P^1.
    """
    return projective_line_count(height_bound)
