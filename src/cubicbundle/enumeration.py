"""Bounded-height enumeration of rational points on the bundle.

The anticanonical height H(x)^3 * H(y) splits the search: the outer loop
runs over the few normalized x with H(x)^3 <= B, the inner loop enumerates
the cubic-surface fiber above x up to the shrunken bound floor(B/H(x)^3).

Each fiber is described once, up to a height bound, as boxes plus a few
points (:func:`_fiber_locus`); the walk enumerates that description and the
count reads it in closed form.  A box is a parametrized line or plane: each
y_k is a fixed multiple of one parameter t_p, or 0, and the height bound
caps each |t_p| by its box side.  Its points are the primitive t up to sign,
so a Moebius sum counts them (:func:`primitive_count`), and the walk visits
the half of the box whose first nonzero entry is positive
(:func:`_half_box`), keeps the primitive vectors and negates each image y
whose first nonzero coordinate is negative.  The description is
case-split on the number of nonzero coordinates of x:

* one or two: a linear fiber, one box, a plane or a line
  (:func:`_linear_locus`), every point on the pair locus of the pairing
  that groups the nonzero indices;
* three: a cone over a plane cubic curve, the vertex plus one line through
  it for each curve point, found with O(bound) memory
  (:func:`_cone_locus`);
* four: a smooth cubic surface, the rational lines of its pair loci
  (none, one or three; lines meet pairwise in one point) and the points off
  them, found by a meet-in-the-middle scan of the quadruple box that drops
  each hit on a line before building it (:func:`_smooth_locus`,
  :func:`_surface_scan`), in the style of Bernstein, Enumerating solutions
  to p(a) + q(b) = r(c) + s(d), Math. Comp. 70 (2001).

Every box is checked against the fiber equation once, every remaining
point one by one, also under python -O.

Points are canonical int tuples inside; :func:`enumerate_fiber` wraps them
into point objects.  Output is always sorted lexicographically, so runs are
reproducible byte for byte and the outer loop parallelizes freely.

Counting and the dumps read the fiber profile (liftability, singularity,
rank) once per fiber; per walked point only the bundle check, the height
and the pair-locus test remain, one walk that reads the terms x_k*y_k^3
from per-fiber memo tables and gives each point one int key, its height
H(y) and its pair-locus pattern (:func:`_checked_points`).  Counting takes
one fiber per orbit of base points under the signed permutations
(x_i, y_i) -> (e_i*x_s(i), e_i*y_s(i)), e_i = +-1.  They preserve the
equation, the heights, the set of pair loci, liftability (-1 is a cube)
and singularity, so a fiber's tally depends only on the sorted |x_i|: the
representative 0 <= a <= b <= c <= d is counted once and weighted by the
number of canonical base points in its orbit (:func:`_base_orbits`).  It
counts the boxes in closed form and checks only the remaining points.
Dumps walk the fiber of every canonical base point, one fiber at a time
(:func:`point_rows`), and build each row from two per-fiber tables: the
text of each coordinate value, and the tail |height|flags of each key.
The oracle for the orbit weights, the closed form and the dumps is
enumerate_bundle in tests/oracles.py: enumerate_fiber over every base
point, each point through classify_point and point_row.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left
from collections import Counter, namedtuple

from .arith import (
    InvalidArgument,
    ProjectivePoint,
    _integer,
    exact_cube_root,
    floor_cube_root,
    is_canonical,
)
from .classify import _fiber_profile
from .geometry import PAIRINGS, NotOnVariety, _p3_coords

#: CSV column order for count series
CLASS_LABELS = ("ALL", "IN_Z", "NOT_IN_Z", "IN_SOME_V", "LIFTABLE_ONLY", "SINGULAR_FIBER")

#: the least top bound at which count_series starts a process pool; below it
#: one process counts faster than a pool starts (1- vs 2-worker sweep in
#: BENCH_19.json)
POOL_MIN_BOUND = 256


class CountSeries(namedtuple("CountSeries", "bounds counts")):
    """Counting-function values N(class, B) on an ascending grid of bounds:
    bounds, a tuple of ints, and counts, each label of CLASS_LABELS mapped
    to its list of values."""

    __slots__ = ()

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


def _cube_pair(alpha: int, beta: int):
    """The coprime (c, d), d > 0, with alpha*c^3 + beta*d^3 = 0, or None when
    -beta/alpha is not the cube of a rational; alpha is nonzero."""
    g = math.gcd(alpha, beta) if alpha > 0 else -math.gcd(alpha, beta)
    c = exact_cube_root(-beta // g)
    d = None if c is None else exact_cube_root(alpha // g)
    return None if d is None else (c, d)


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
        pair = _cube_pair(xs[i], xs[j])
        if pair is not None:
            c, d = pair
            params[i], params[j] = (0, c), (0, d)
            sides.append(max(abs(c), abs(d)))
    for k, xk in enumerate(xs):
        if not xk:
            params[k] = (len(sides), 1)
            sides.append(1)
    return tuple(params), tuple(sides)


def _plane_cubic_points(a: int, b: int, c: int, bound: int) -> list[tuple[int, int, int]]:
    """The primitive (u, v, w) with a*u^3 + b*v^3 + c*w^3 = 0 and
    max(|u|, |v|, |w|) <= bound, for nonzero a, b, c, one of each pair p, -p:
    the one whose first nonzero entry of (u, v) is positive (u = v = 0 forces
    w = 0).  A dict of c*w^3 over |w| <= bound, O(bound) memory, answers the
    scan of (u, v) over the half box, a row at a time."""
    rng = range(-bound, bound + 1)
    w_of = {c * w ** 3: w for w in rng}
    bv3 = [b * v ** 3 for v in rng]
    points = []
    for u in range(bound + 1):
        target = -a * u ** 3  # c*w^3 = target - b*v^3
        vs = rng if u else range(1, bound + 1)
        row = bv3 if u else bv3[bound + 1:]
        for v in itertools.compress(vs, map(w_of.__contains__, map(target.__sub__, row))):
            w = w_of[target - b * v ** 3]
            if math.gcd(u, v, w) == 1:
                points.append((u, v, w))
    return points


def _cone_locus(xs, bound: int):
    """The fiber over a cone x (one zero coordinate x_i) as boxes and points,
    see :func:`_fiber_locus`.

    With p = (y_j, y_k, y_l) for the other indices, x_i*y_i^3 = 0 leaves
    a*y_j^3 + b*y_k^3 + c*y_l^3 = 0, a smooth plane cubic.  The fiber is the
    vertex e_i (p = 0) and, for each primitive curve point p up to sign, the
    line (s, lambda*p): the box t = (s, lambda) of sides (1, H(p)), whose
    point t = (1, 0) is the vertex.  A point is on a pair locus exactly when
    its pairing's pair sum x_m*y_m^3 vanishes for the partner m of i, that is
    when p has a zero coordinate; the vertex is on all three.
    """
    i = xs.index(0)
    others = [m for m in range(4) if m != i]
    vertex = tuple(int(m == i) for m in range(4))
    boxes = []
    for p in _plane_cubic_points(*(xs[m] for m in others), bound):
        params = [(0, 1)] * 4
        for m, pm in zip(others, p):
            params[m] = (1, pm)
        boxes.append((tuple(params), (1, max(map(abs, p))), (vertex,), 0 in p))
    return boxes, [vertex]


def _smooth_locus(xs, bound: int):
    """The fiber over a smooth x (no zero coordinate) as boxes and points,
    see :func:`_fiber_locus`.

    A pairing {i, j}|{k, l} has a rational line in its pair locus exactly
    when -x_j/x_i and -x_l/x_k are both cubes, of c/d and c'/d': the box
    (c*t, d*t, c'*s, d'*s) of sides (max(|c|, |d|), max(|c'|, |d'|)).  Two
    such lines meet in one rational point, where every y_k is nonzero, and
    no point is on all three; each line leaves its meets to the points.
    The other points come from the scan (:func:`_surface_scan`).
    """
    lines = {}
    for pairing, ((i, j), (k, l)) in PAIRINGS.items():
        first = _cube_pair(xs[i], xs[j])
        second = first and _cube_pair(xs[k], xs[l])
        if second:
            params = [None] * 4
            params[i], params[j] = (0, first[0]), (0, first[1])
            params[k], params[l] = (1, second[0]), (1, second[1])
            lines[pairing] = tuple(params), (max(map(abs, first)), max(map(abs, second)))
    meets = {pairing: () for pairing in lines}
    for a, b in itertools.combinations(lines, 2):
        # on line a, the pair sum of b holding index 0 (with index b) vanishes
        params = lines[a][0]
        (p0, m0), (pb, mb) = params[0], params[b]
        t = [0, 0]
        t[p0], t[pb] = _cube_pair(xs[0] * m0 ** 3, xs[b] * mb ** 3)
        meet = tuple(m * t[p] for p, m in params)
        if max(map(abs, meet)) <= bound:
            meet = meet if meet[0] > 0 else tuple(-y for y in meet)
            meets[a] += (meet,)
            meets[b] += (meet,)
    points = _surface_scan(xs, bound, lines)
    points += set(itertools.chain(*meets.values()))
    return [(params, sides, meets[p], True) for p, (params, sides) in lines.items()], points


def _surface_scan(xs, bound: int, lines) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the smooth fiber over xs, off the
    rational lines of the pairings in lines, in no particular order.

    Meet in the middle over the box, one of each solution pair y, -y: hash
    x0*ya^3 + x1*yb^3 over the half plane (ya, yb) > (0, 0) and scan
    (yc, yd) over the whole square, a row at a time.  The table maps a key
    to the code ya*width + yb + bound of one pair, and keys of several pairs
    also to the list of their codes; plain ints keep it small.  Hits on a
    line are dropped before a tuple is built: the key 0 for pairing 1 (then
    every hit with ya = yb = 0 is on that line too), t0 + t2 == 0 for
    pairing 2 and t0 + t3 == 0 for pairing 3.  Without a line, a pairing's
    pair locus holds at most one point, (c, d, 0, 0) or (0, 0, c, d) up to
    order, and that point stays a hit.  is_canonical keeps the primitive
    hits.
    """
    x0, x1, x2, x3 = xs
    rng = range(-bound, bound + 1)
    width = len(rng)
    cubes = [y ** 3 for y in rng]
    x1_cubes = [x1 * c for c in cubes]
    x0_cubes = [x0 * ya ** 3 for ya in range(bound + 1)]
    table: dict[int, int] = {}
    collided: dict[int, list[int]] = {}
    for ya, t0 in enumerate(x0_cubes):
        low = 0 if ya else bound + 1
        codes = range(ya * width + low, (ya + 1) * width)
        row = dict(zip(map(t0.__add__, x1_cubes[low:]), codes))
        for key in row.keys() & table.keys():
            collided.setdefault(key, [table[key]]).append(row[key])
        table.update(row)
    if 1 in lines:
        table.pop(0, None)
        collided.pop(0, None)
    on2, on3 = 2 in lines, 3 in lines
    x3_cubes = [x3 * c for c in cubes]
    hits = []
    for yc in rng:
        t2 = x2 * yc ** 3
        keys = [-t2 - t3 for t3 in x3_cubes]
        for idx in itertools.compress(range(width), map(table.__contains__, keys)):
            key, t3 = keys[idx], x3_cubes[idx]
            for code in collided.get(key) or (table[key],):
                t0 = x0_cubes[code // width]
                if not (on2 and t0 + t2 == 0 or on3 and t0 + t3 == 0):
                    ya, yb = divmod(code, width)
                    hits.append((ya, yb - bound, yc, idx - bound))
    pair = None if 1 in lines else _cube_pair(x2, x3)
    if pair is not None and max(map(abs, pair)) <= bound:
        c, d = pair
        hits.append((0, 0, c, d) if c > 0 else (0, 0, -c, -d))
    return list(filter(is_canonical, hits))


def _check_box(xs, params) -> None:
    """Raise NotOnVariety, also under python -O, unless every point of the
    box lies on the fiber over xs.  The sum of x_k*(m_k*t[p_k])^3 vanishes
    for all t exactly when, for each parameter p, the x_k*m_k^3 with p_k = p
    sum to 0: for a cone that is the curve point, for a line its direction."""
    sums = Counter()
    for xk, (p, m) in zip(xs, params):
        sums[p] += xk * m ** 3
    if any(sums.values()):
        raise NotOnVariety(f"the box {params} is not on the fiber over {':'.join(map(str, xs))}")


def _fiber_locus(xs, bound: int):
    """The canonical fiber over the canonical x, up to height bound, as
    (boxes, points), each point of the fiber exactly once.

    Each box is (params, sides, shared, on): the points of the box
    (:func:`_linear_locus`) other than those in shared, all on a pair locus
    when on holds and all off every pair locus otherwise.  The points are
    the rest, with H(y) <= bound, each to be tested one by one: the cone
    vertex, the meets of smooth lines, and the smooth scan hits off the
    lines.  Every box is checked against the fiber equation once.
    """
    locus = _linear_locus(xs)
    if locus is not None:
        boxes, points = [(*locus, (), True)], []
    elif 0 in xs:
        boxes, points = _cone_locus(xs, bound)
    else:
        boxes, points = _smooth_locus(xs, bound)
    for params, *_ in boxes:
        _check_box(xs, params)
    return boxes, points


def _box_coords(params, sides, bound: int) -> list[tuple[int, ...]]:
    """The canonical points of a box with H(y) <= bound."""
    (p0, m0), (p1, m1), (p2, m2), (p3, m3) = params
    ys = []
    # primitive t up to sign: y is primitive with t, and is negated when
    # its first nonzero coordinate is negative, that is when y < 0 as tuples
    for t in _half_box([bound // s for s in sides]):
        if math.gcd(*t) == 1:
            # spelled out: a generic tuple(m * t[p] for ...) per point is much slower
            y = (m0 * t[p0], m1 * t[p1], m2 * t[p2], m3 * t[p3])
            ys.append(y if y > (0, 0, 0, 0) else (-y[0], -y[1], -y[2], -y[3]))
    return ys


def _fiber_coords(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the cubic surface above the
    canonical x, each exactly once, sorted."""
    if bound < 1:
        return []
    boxes, ys = _fiber_locus(xs, bound)
    for params, sides, shared, _ in boxes:
        coords = _box_coords(params, sides, bound)
        ys += [y for y in coords if y not in shared] if shared else coords
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
    """The largest h >= 0 with h^3 <= height_bound (0 below 1)."""
    return floor_cube_root(height_bound) if height_bound > 0 else 0


def base_points(height_bound: int) -> list[ProjectivePoint]:
    """Normalized x with H(x)^3 <= height_bound, in lexicographic order."""
    height_bound = _integer(height_bound, "height bound")
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
    """Worker task: per-bound, per-class counts for the fiber above x, from
    its description (:func:`_fiber_locus`): each box in closed form, each
    remaining point by the per-point checks."""
    x_coords, bounds = args
    lifts, singular, _ = _fiber_profile(x_coords)
    hx3 = max(map(abs, x_coords)) ** 3
    boxes, points = _fiber_locus(x_coords, bounds[-1] // hx3)
    # points first counted at each bound; every height is at most bounds[-1]
    new = {True: [0] * len(bounds), False: [0] * len(bounds)}
    for key in _checked_points(x_coords, points):
        new[key & 7 > 0][bisect_left(bounds, hx3 * (key >> 3))] += 1
    on_loci = list(itertools.accumulate(new[True]))
    off_loci = list(itertools.accumulate(new[False]))
    for _, sides, shared, on in boxes:
        counts = on_loci if on else off_loci
        for idx, bound in enumerate(bounds):
            y_bound = bound // hx3
            counts[idx] += primitive_count(sides, y_bound) - sum(
                max(map(abs, y)) <= y_bound for y in shared
            )
    return _tally(on_loci, off_loci, any(lifts.values()), singular)


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


class _Cubes(dict):
    """x * v^3 for each v looked up, computed on first lookup: a fiber's
    coordinate values repeat thousands of times among its points."""

    __slots__ = ("x",)

    def __init__(self, x: int):
        super().__init__()
        self.x = x

    def __missing__(self, v: int) -> int:
        term = self[v] = self.x * v ** 3
        return term


def _checked_points(x_coords, ys) -> list[int]:
    """One key per canonical y of ys over the canonical x, in order:
    H(y) << 3 | V1 | V2 << 1 | V3 << 2, where Vp is 1 when y is on the pair
    locus of pairing p.

    Raises NotOnVariety for a y off the bundle, also under python -O.  The
    terms x_k*y_k^3 come from one memo table per k (:class:`_Cubes`).  On
    the bundle the four terms sum to 0, so both pair sums of a pairing
    vanish as soon as the one holding index 0 does.
    """
    c0, c1, c2, c3 = map(_Cubes, x_coords)
    keys = []
    append = keys.append
    for y0, y1, y2, y3 in ys:
        t0, t1, t2, t3 = c0[y0], c1[y1], c2[y2], c3[y3]
        if t0 + t1 + t2 + t3:
            x, y = (":".join(map(str, c)) for c in (x_coords, (y0, y1, y2, y3)))
            raise NotOnVariety(f"({x}, {y}) is not on the bundle")
        # H(y) by comparisons, which cost less than calls of max and abs
        h = y0 if y0 > 0 else -y0
        h = y1 if y1 > h else -y1 if -y1 > h else h
        h = y2 if y2 > h else -y2 if -y2 > h else h
        h = y3 if y3 > h else -y3 if -y3 > h else h
        # pairings 1, 2, 3 pair index 0 with 1, 2, 3 (geometry.PAIRINGS)
        append(h << 3 | (t0 + t1 == 0) | (t0 + t2 == 0) << 1 | (t0 + t3 == 0) << 2)
    return keys


def _fiber_rows(args) -> list[str]:
    """Worker task: the dump rows of the fiber above x, in numeric order of y.

    The fiber profile, the row head x| and the flag field of each of the
    eight pair-locus patterns are built once per fiber, and so are the text
    of each coordinate value and the row tail |height|flags of each key of
    :func:`_checked_points`, up to the largest height present: a row is the
    head, four looked-up texts and the tail of its key.
    """
    x_coords, height_bound = args
    lifts, singular, _ = _fiber_profile(x_coords)
    liftable = any(lifts.values())
    hx3 = max(map(abs, x_coords)) ** 3
    head = f"{ProjectivePoint(x_coords)}|"
    # the flag field of each pair-locus pattern k = key & 7, V_p in bit p - 1
    fields = [
        _flag_field(liftable or k > 0, {p: k >> p - 1 & 1 == 1 for p in PAIRINGS}, lifts, singular)
        for k in range(8)
    ]
    ys = _fiber_coords(x_coords, height_bound // hx3)
    keys = _checked_points(x_coords, ys)
    top = max(keys, default=0) >> 3
    text = {v: str(v) for v in range(-top, top + 1)}
    tails = [f"|{hx3 * h}|{field}" for h in range(top + 1) for field in fields]
    return [f"{head}{text[y0]}:{text[y1]}:{text[y2]}:{text[y3]}{tails[key]}"
            for (y0, y1, y2, y3), key in zip(ys, keys)]


def _pool_map(fn, tasks: list, workers: int):
    """Stream fn over tasks in order, one task at a time on each of min(workers,
    number of tasks, CPU count) processes, or in this process when that is 1."""
    workers = _integer(workers, "workers", 1)
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size <= 1:
        yield from map(fn, tasks)
        return
    # imported here: it loads multiprocessing and logging, over a third of
    # the package's import time, and only a pool needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def point_rows(height_bound: int, workers: int = 1, as_text: bool = False):
    """Stream the dump rows of all points of anticanonical height <=
    height_bound, one fiber at a time, in lexicographic order of the
    normalized x, then y: the rows point_row(classify_point(p), height)
    would give, built from each fiber's profile (:func:`_fiber_rows`).

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
    orbit's size as weight: the boxes of each fiber's description in closed
    form, the few other points (a cone's vertex, the meets of smooth lines
    and the smooth points off the lines) one by one.  IN_SOME_V and
    LIFTABLE_ONLY partition IN_Z: points on some pair locus versus points
    swept in only through liftability of their base point.  Orbit tasks run
    largest fiber bound bounds[-1] // H(x)^3 first, so the few huge fibers
    over height-1 base points start at once; the merge is a weighted sum,
    so any worker count produces identical output.  workers is a maximum:
    below a top bound of POOL_MIN_BOUND the count runs in this process.
    """
    workers = _integer(workers, "workers", 1)
    bounds = tuple(_integer(b, "bound") for b in height_bounds)
    if not bounds:
        raise InvalidArgument("empty bounds grid")
    if any(b < 1 for b in bounds) or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise InvalidArgument("bounds must be positive and strictly ascending")
    if bounds[-1] < POOL_MIN_BOUND:
        workers = 1
    weighted = sorted(_base_orbits(_base_height(bounds[-1])), key=lambda xw: max(xw[0]))
    tallies = _pool_map(_classify_fiber, [(xs, bounds) for xs, _ in weighted], workers)
    totals = {label: [0] * len(bounds) for label in CLASS_LABELS}
    for (_, weight), tally in zip(weighted, tallies):
        for label, counts in tally.items():
            totals[label] = [a + weight * b for a, b in zip(totals[label], counts)]
    return CountSeries(bounds, totals)

