"""Bounded-height enumeration of rational points on the bundle.

The anticanonical height H(x)^3 * H(y) splits the search: the outer loop
runs over the few normalized x with H(x)^3 <= B, the inner loop enumerates
the cubic-surface fiber above x up to the shrunken bound floor(B/H(x)^3).

Each fiber is described once, up to a height bound, as boxes plus a few
points (:func:`_fiber_locus`); the walk enumerates that description and the
count reads it in closed form.  A box is a parametrized point, line or
plane: each y_k is a fixed multiple of one parameter t_p, or 0, and the
height bound caps each |t_p| by its box side.  Its points are the primitive
t up to sign, so a Moebius sum counts them (:func:`primitive_count`), and
the walk visits the half of the box whose first nonzero entry is positive
(:func:`_half_box`).  Each box is built with its parameters numbered by
first use and each first multiplier positive (:func:`_join`), so every
image is canonical (:func:`_box_coords`).  The description is split in two
kinds of fiber:

* x with a zero coordinate: a cone, the join of its vertex, spanned by
  the free y_k with x_k = 0, with each point of the curve sum x_k*y_k^3 = 0
  in the nonzero coordinates, one box per curve point or the vertex alone
  when the curve has none; a plane cubic's points are found with O(bound)
  memory (:func:`_cone_locus`);
* no zero coordinate: a smooth cubic surface, each pair locus the join of
  its two pair points (a line, one point or nothing; lines meet pairwise
  in one point), and the points off every pair locus (:func:`_smooth_locus`):
  those over |x|, mapped by the signs of x, from one join of the
  representatives of each positive key |x_0|*a^3 + |x_1|*b^3 with those
  of |x_2|*c^3 + |x_3|*d^3 (:func:`_cube_sum_join`), after Bernstein,
  Enumerating solutions to p(a) + q(b) = r(c) + s(d), Math. Comp. 70
  (2001).

Every box is checked against the fiber equation once, which also tells
whether it lies in a pair locus, every remaining point one by one, also
under python -O.

Points are canonical int tuples inside, walked in no particular order;
:func:`enumerate_fiber` sorts them and wraps them into point objects.

Counting and the dumps read the fiber profile (liftability, singularity,
rank) once per fiber; per walked point only the bundle check, the height
and the pair-locus test remain, one pass over the terms x_k*y_k^3 that
gives each point one int key, its height H(y) and its pair-locus pattern
(:func:`_checked_points`).  Counting takes
one fiber per orbit of base points under the signed permutations
(x_i, y_i) -> (e_i*x_s(i), e_i*y_s(i)), e_i = +-1.  They preserve the
equation, the heights, the set of pair loci, liftability (-1 is a cube)
and singularity, so a fiber's tally depends only on the sorted |x_i|: the
representative 0 <= a <= b <= c <= d is counted once and weighted by the
number of canonical base points in its orbit (:func:`_base_orbits`).  It
counts the boxes in closed form and checks only the remaining points.
The dumps live in :mod:`.dump`, which reads the description, the walk and
the checks from here; this module never imports it.
The oracle for the orbit weights, the closed form and the dumps is
enumerate_bundle in tests/oracles.py: enumerate_fiber over every base
point, each point through classify_point and point_row.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from functools import lru_cache

from .arith import (
    InvalidArgument,
    InvalidPoint,
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
    """A coprime (c, d) with alpha*c^3 + beta*d^3 = 0, or None when
    -beta/alpha is not the cube of a rational; alpha is nonzero.  Either
    sign may come back: each caller makes its points canonical."""
    g = math.gcd(alpha, beta)
    c = exact_cube_root(-beta // g)
    d = None if c is None else exact_cube_root(alpha // g)
    return None if d is None else (c, d)


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


def _join(*pieces):
    """The box (params, sides) of the join of points in disjoint coordinates
    (:func:`_fiber_locus`): each piece (indices, point), indices ascending,
    is one parameter t_p of side max|point|, y_k = point[n] * t_p for k =
    indices[n], the point negated where its first nonzero entry is negative;
    every other y_k is pinned to 0.  The pieces are numbered in the order of
    that entry's coordinate, so each parameter's number follows its first
    use and its first multiplier is positive.
    """
    params = [(0, 0)] * 4
    sides = []
    firsts = [next((k, m) for k, m in zip(*piece) if m) for piece in pieces]
    for (_, first), (indices, point) in sorted(zip(firsts, pieces)):
        sign = 1 if first > 0 else -1
        for k, m in zip(indices, point):
            params[k] = (len(sides), sign * m)
        sides.append(max(map(abs, point)))
    return tuple(params), tuple(sides)


def _cone_locus(xs, bound: int):
    """The fiber over an x with a zero coordinate as boxes (params, sides,
    shared) and points, see :func:`_fiber_locus`.

    The fiber is a cone: its vertex V is spanned by the e_k with x_k = 0,
    each y_k free, and its base is the curve sum x_k*y_k^3 = 0 in the
    nonzero coordinates.  With one of them the curve has no point, with two
    it has at most one (:func:`_cube_pair`), with three it is a smooth plane
    cubic (:func:`_plane_cubic_points`, the points of height <= bound).  The
    fiber is V joined with each curve point p, the box of the free y_k and
    lambda*p, or V alone when the curve has no point.  The joins meet only
    in V, which matters only when V is the single point e_i: then e_i is
    left to the points and shared by every box.
    """
    nonzero = [k for k in range(4) if xs[k]]
    coeffs = [xs[k] for k in nonzero]
    if len(nonzero) == 1:
        curve = []
    elif len(nonzero) == 2:
        pair = _cube_pair(*coeffs)
        curve = [pair] if pair else []
    else:
        curve = _plane_cubic_points(*coeffs, bound)
    free = [((k,), (1,)) for k in range(4) if not xs[k]]
    boxes = [_join(*free, (nonzero, p)) for p in curve] or [_join(*free)]
    shared = (tuple(int(not xk) for xk in xs),) if len(free) == 1 and curve else ()
    return [(*box, shared) for box in boxes], list(shared)


def _smooth_locus(xs, bound: int):
    """The fiber over a smooth x (no zero coordinate) as boxes (params,
    sides, shared) and points, see :func:`_fiber_locus`.

    The pair locus of a pairing {i, j}|{k, l} is the join of its pair
    points (:func:`_cube_pair`), (c, d) in (y_i, y_j) and (c', d') in
    (y_k, y_l): with both, the line (c*t, d*t, c'*s, d'*s) (:func:`_join`);
    with one, that point alone, on no other pair locus; with none, nothing.
    Two lines meet in one rational point, where every y_k is nonzero, and
    no point is on all three: the earlier line in pairing order counts the
    meet, the later one shares it.  The points off every pair locus are
    those of :func:`_cube_sum_join` over |x|, mapped by z_k = e_k*y_k with
    e_k the sign of x_k: a bijection, as x_k*(e_k*y_k)^3 = |x_k|*y_k^3,
    that keeps every pair sum, primitivity and height.  z_0 = y_0 (x_0 >
    0), so z is negated only when y_0 = 0 and z_1 < 0.
    """
    lines, points = {}, []
    for pairing, pairs in PAIRINGS.items():
        pieces = [((i, j), _cube_pair(xs[i], xs[j])) for i, j in pairs]
        pieces = [piece for piece in pieces if piece[1]]
        if len(pieces) == 2:
            lines[pairing] = _join(*pieces)
        elif pieces:
            [((i, j), (c, d))] = pieces
            if max(abs(c), abs(d)) <= bound:
                y = [0] * 4
                y[i], y[j] = (c, d) if c > 0 else (-c, -d)
                points.append(tuple(y))
    shared = {pairing: () for pairing in lines}
    for a, b in itertools.combinations(lines, 2):
        # on line a, the pair sum of b holding index 0 (with index b) vanishes
        params = lines[a][0]
        (p0, m0), (pb, mb) = params[0], params[b]
        t = [0, 0]
        t[p0], t[pb] = _cube_pair(xs[0] * m0 ** 3, xs[b] * mb ** 3)
        meet = tuple(m * t[p] for p, m in params)
        shared[b] += (meet if meet[0] > 0 else tuple(-y for y in meet),)
    positive = tuple(map(abs, xs))
    off_loci = _cube_sum_join(positive, bound)
    if xs != positive:
        _, e1, e2, e3 = (1 if x > 0 else -1 for x in xs)
        # when y0 = 0, y1 > 0, and e1*z is canonical
        off_loci = [(y0, e1 * y1, e2 * y2, e3 * y3) if y0 else (0, y1, e1 * e2 * y2, e1 * e3 * y3)
                    for y0, y1, y2, y3 in off_loci]
    return [(*line, shared[p]) for p, line in lines.items()], points + off_loci


def _cube_sum_rows(p: int, q: int, bound: int):
    """The representatives (a, b) of the positive keys p*a^3 + q*b^3 with
    |a|, |b| <= bound, for p, q > 0, a row (a, {key: b}) per a; each b is
    an int of one shared list.  When p == q only b <= a are kept, one of
    each swap: a >= 1 and -a < b <= a.  A row's b are one slice of the
    increasing q*b^3, from the first above -p*a^3."""
    bs = list(range(-bound, bound + 1))
    q_cubes = [q * b ** 3 for b in bs]
    for a in bs[bound + 1:] if p == q else bs:
        t = p * a ** 3
        low = bisect_right(q_cubes, -t)
        high = bound + a + 1 if p == q else None
        yield a, {t + c: b for c, b in zip(q_cubes[low:high], bs[low:high])}


def _cube_sum_join(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the smooth fiber over the positive
    xs, off every pair locus, in no particular order (Bernstein 2001).

    Off line 1, y or -y has x0*y0^3 + x1*y1^3 = k = -(x2*y2^3 + x3*y3^3)
    > 0, so (y0, y1) is a representative (a, b) of k on the rows of (x0, x1)
    (:func:`_cube_sum_rows`) and (-y2, -y3) one (c, d) on those of (x2, x3).
    One table of the first rows maps each key to b; keys met in several
    rows collect their representatives, the first one's a read back from
    x0*a^3 = k - x1*b^3.  The matches are the ordered pairs of distinct
    representatives of a collided key when (x0, x1) == (x2, x3), else each
    row of (x2, x3) meets the table.  A side with equal coefficients holds
    one of each swap, so a match takes both orders of its pair there.  Each
    y = (a, b, -c, -d) of a match at gcd 1 off the loci of pairings 2 and 3
    (x0*a^3 = x2*c^3, x0*a^3 = x3*d^3) is a point, negated when a < 0
    (a = 0 gives k = x1*b^3, so b > 0).
    """
    x0, x1, x2, x3 = xs
    a_of = {x0 * a ** 3: a for a in range(-bound, bound + 1)}
    table: dict[int, int] = {}
    collided: dict[int, list[tuple[int, int]]] = {}

    def first(key):
        """The representative (a, b) of key whose b the table holds."""
        b = table[key]
        return a_of[key - x1 * b ** 3], b

    for a, row in _cube_sum_rows(x0, x1, bound):
        for key in filter(table.__contains__, row):
            collided.setdefault(key, [first(key)]).append((a, row[key]))
        table.update(row)
    if (x0, x1) == (x2, x3):
        matches = [m for reps in collided.values() for m in itertools.permutations(reps, 2)]
    else:
        matches = [(rep, (c, row[key])) for c, row in _cube_sum_rows(x2, x3, bound)
                   for key in filter(table.__contains__, row)
                   for rep in collided.get(key) or [first(key)]]
    points = []
    for (a, b), (c, d) in matches:
        if math.gcd(a, b, c, d) == 1:
            # x2*y2^3 and x3*y3^3, which both orders of (c, d) share when x2 == x3
            t2, t3 = x2 * c ** 3, x3 * d ** 3
            for y0, y1 in {(a, b), (b, a)} if x0 == x1 else ((a, b),):
                t0 = x0 * y0 ** 3
                if t0 != t2 and t0 != t3:
                    for y2, y3 in {(c, d), (d, c)} if x2 == x3 else ((c, d),):
                        points.append((y0, y1, -y2, -y3) if y0 >= 0 else (-y0, -y1, y2, y3))
    return points


def _param_sums(xs, params, indices) -> list[int]:
    """The coefficient of each t_p^3 in the sum of x_k*y_k^3 over the k in
    indices on the box params: the sum of p's terms x_k*m_k^3."""
    sums = [0] * len(params)  # parameters are numbered 0, 1, ..., at most one per y_k
    for k in indices:
        p, m = params[k]
        sums[p] += xs[k] * m ** 3
    return sums


def _check_box(xs, params) -> bool:
    """Whether the box lies in a pair locus; raise NotOnVariety, also under
    python -O, unless every point of the box lies on the fiber over xs.

    A sum of x_k*(m_k*t[p_k])^3 vanishes for all t exactly when, for each
    parameter p, its terms x_k*m_k^3 with p_k = p sum to 0.  For the sum
    over all k, the fiber equation, that is the curve point of a cone join
    or the direction of a line.  For the pair sum x_0*y_0^3 + x_b*y_b^3 of
    pairing b, which groups index 0 with b, it puts every point of the box
    on that pair locus: on the fiber the other pair sum vanishes too.
    """
    if any(_param_sums(xs, params, range(4))):
        raise NotOnVariety(f"the box {params} is not on the fiber over {':'.join(map(str, xs))}")
    return any(not any(_param_sums(xs, params, (0, b))) for b in PAIRINGS)


def _fiber_locus(xs, bound: int):
    """The canonical fiber over the canonical x, up to height bound, as
    (boxes, points), each point of the fiber exactly once: a cone when x
    has a zero coordinate (:func:`_cone_locus`), else a smooth surface
    (:func:`_smooth_locus`).

    Each box is (params, sides, shared, on), a parametrized point, line or
    plane: y_k = m_k * t[p_k] for params[k] = (p_k, m_k), where m_k = 0
    pins y_k to 0, and H(y) <= bound exactly when |t_p| <= floor(bound /
    sides[p]); primitive t up to sign map one to one onto its points.  The
    parameters are numbered in the order of their first use, the least k
    with p_k = p and m_k nonzero, and each first multiplier is positive
    (:func:`_join`): so every t whose first nonzero entry is positive maps to
    a canonical point (:func:`_box_coords`), and t in dump order to rows in
    dump order (:func:`.dump._box_rows`).  Those
    in shared another part of the description counts: the cone vertex, or a
    meet with an earlier smooth line.  The others are all on a pair locus
    when on holds and all off every pair locus otherwise; on comes from the
    check of the box against the fiber equation, once per box
    (:func:`_check_box`).  The points are the rest, with H(y) <= bound, each
    to be tested one by one: the cone vertex, the single pair points of
    smooth pairings, and the smooth join's points off every pair locus.
    """
    boxes, points = (_cone_locus if 0 in xs else _smooth_locus)(xs, bound)
    boxes = [(params, sides, shared, _check_box(xs, params)) for params, sides, shared in boxes]
    return boxes, points


def _box_coords(params, sides, bound: int) -> list[tuple[int, ...]]:
    """The canonical points of a box with H(y) <= bound, in no particular
    order: the image of each primitive t of the half box (:func:`_half_box`).
    The box's parameters are numbered by first use, each first multiplier
    positive (:func:`_join`), so every image is canonical.

    A box of three parameters, a plane, lies only over an x with at most
    two nonzero coordinates, whose fiber is that one box: the count reads it
    in closed form and the dumps write it from its parameters
    (:func:`.dump._box_rows`), so only :func:`enumerate_fiber` walks a plane.
    """
    (p0, m0), (p1, m1), (p2, m2), (p3, m3) = params
    return [(m0 * t[p0], m1 * t[p1], m2 * t[p2], m3 * t[p3])
            for t in _half_box([bound // side for side in sides]) if math.gcd(*t) == 1]


def _fiber_walk(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the cubic surface above the
    canonical x, each once, in no particular order; none below bound 1."""
    boxes, ys = _fiber_locus(xs, bound)
    for params, sides, shared, _ in boxes:
        coords = _box_coords(params, sides, bound)
        ys += [y for y in coords if y not in shared] if shared else coords
    return ys


def enumerate_fiber(x: ProjectivePoint, y_height_bound: int) -> list[ProjectivePoint]:
    """All normalized y with H(y) <= bound on the cubic surface above x,
    each exactly once, sorted by coordinates.

    Raises InvalidPoint unless x has four coordinates, and InvalidArgument
    unless the bound is an integer; below 1 the fiber is empty.  The walk
    (:func:`_fiber_walk`) yields canonical tuples; they are sorted, checked
    (the sign on the least, the gcd on each), also under python -O, and
    wrapped unchecked.
    """
    bound = _integer(y_height_bound, "height bound")
    ys = sorted(_fiber_walk(_p3_coords(x), bound))
    # (0, 0, 0, 0) < y: the first nonzero coordinate is positive, and after
    # the sort the least y decides that for all
    if not ((not ys or (0, 0, 0, 0) < ys[0])
            and all(map((1).__eq__, itertools.starmap(math.gcd, ys)))):
        bad = next(y for y in ys if not is_canonical(y))
        raise InvalidPoint(f"coordinates {bad} are not canonical")
    return list(map(tuple.__new__, itertools.repeat(ProjectivePoint), zip(ys)))


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


@lru_cache(maxsize=None)
def _mobius(n: int) -> tuple[int, ...]:
    """mu(0..n) by a sieve, once per n: the boxes of a count sum over the
    same few bounds; mu[0] is unused."""
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
    return tuple(mu)


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


def point_row(record, height: int) -> str:
    """One dump line: x|y|height|class-flags (:func:`_flag_fields`)."""
    fields = _flag_fields(tuple(record.liftable.values()), record.singular_fiber)
    bits = sum(v << p - 1 for p, v in record.in_V.items())
    return f"{record.point.x}|{record.point.y}|{height}|{fields[bits][:-1]}"


def _checked_points(x_coords, ys) -> list[int]:
    """One key per canonical y of ys over the canonical x, in order:
    H(y) << 3 | V1 | V2 << 1 | V3 << 2, where Vp is 1 when y is on the pair
    locus of pairing p.

    Raises NotOnVariety for a y off the bundle, also under python -O.  On
    the bundle the four terms x_k*y_k^3 sum to 0, so both pair sums of a
    pairing vanish as soon as the one holding index 0 does.
    """
    x0, x1, x2, x3 = x_coords
    keys = []
    for y in ys:
        y0, y1, y2, y3 = y
        t0, t1, t2, t3 = x0 * y0 * y0 * y0, x1 * y1 * y1 * y1, x2 * y2 * y2 * y2, x3 * y3 * y3 * y3
        if t0 + t1 + t2 + t3:
            x, y = (":".join(map(str, c)) for c in (x_coords, y))
            raise NotOnVariety(f"({x}, {y}) is not on the bundle")
        # pairings 1, 2, 3 pair index 0 with 1, 2, 3 (geometry.PAIRINGS)
        keys.append(max(map(abs, y)) << 3
                    | (t0 + t1 == 0) | (t0 + t2 == 0) << 1 | (t0 + t3 == 0) << 2)
    return keys


@lru_cache(maxsize=None)
def _flag_fields(lifts: tuple[bool, ...], singular: bool) -> tuple[str, ...]:
    """The class-flags field of each pair-locus pattern k = key & 7 (V_p in
    bit p - 1), each ending in a newline, over a fiber whose pairings 1, 2,
    3 lift as lifts says: Z (on a pair locus, or over a lifting fiber), the
    V_p, the liftable L_p, SING, or - when none hold.  Built once per
    profile, of which there are at most 16."""
    tail = [f"L{p}" for p, lift in zip(PAIRINGS, lifts) if lift] + ["SING"] * singular
    fields = []
    for k in range(8):
        flags = ["Z"] * (any(lifts) or k > 0) + [f"V{p}" for p in PAIRINGS if k >> p - 1 & 1]
        fields.append((",".join(flags + tail) or "-") + "\n")
    return tuple(fields)


def count_series(height_bounds, workers: int = 1) -> CountSeries:
    """Classified counting functions on an ascending grid of bounds: the
    series only, as :func:`.dump.point_rows` dumps the points.

    One fiber per signed-permutation orbit of base points is counted, for
    the largest bound, thresholded into each bound and added with the
    orbit's size as weight: the boxes of each fiber's description in closed
    form, the few other points (a cone's vertex, the single pair points of
    smooth pairings and the smooth points off every pair locus) one by
    one.  IN_SOME_V and LIFTABLE_ONLY partition IN_Z: points on some pair
    locus versus points swept in only through liftability of their base
    point.  Orbit tasks run largest fiber bound bounds[-1] // H(x)^3 first,
    so the few huge fibers over height-1 base points start at once; the
    merge is a weighted sum, so any worker count produces identical output.
    workers is a maximum: the count runs in this process below a top bound
    of POOL_MIN_BOUND, else on min(workers, tasks, CPU count) processes.
    """
    workers = _integer(workers, "workers", 1)
    bounds = tuple(_integer(b, "bound") for b in height_bounds)
    if not bounds:
        raise InvalidArgument("empty bounds grid")
    if any(b < 1 for b in bounds) or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise InvalidArgument("bounds must be positive and strictly ascending")
    weighted = sorted(_base_orbits(_base_height(bounds[-1])), key=lambda xw: max(xw[0]))
    tasks = [(xs, bounds) for xs, _ in weighted]
    pool_size = 1 if bounds[-1] < POOL_MIN_BOUND else min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size > 1:
        # imported here: it loads multiprocessing and logging, over a third of
        # the package's import time, and only a pool needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            tallies = list(pool.map(_classify_fiber, tasks, chunksize=1))
    else:
        tallies = map(_classify_fiber, tasks)
    totals = {label: [0] * len(bounds) for label in CLASS_LABELS}
    for (_, weight), tally in zip(weighted, tallies):
        for label, counts in tally.items():
            totals[label] = [a + weight * b for a, b in zip(totals[label], counts)]
    return CountSeries(bounds, totals)

