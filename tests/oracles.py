"""Slow reference implementations that more than one test module compares the
program against.  The program never calls them.
"""

import functools
import itertools
import math
import random
from collections import namedtuple
from decimal import Decimal, localcontext

from cubicbundle.arith import (
    InvalidArgument, ProjectivePoint, _integer, exact_cube_root, is_canonical, is_cube, naive_height,
    normalize,
)
from cubicbundle.classify import _fiber_profile
from cubicbundle.cli import random_surface
from cubicbundle.dump import _signed
from cubicbundle.enumeration import (
    _checked_points,
    _fiber_walk,
    _half_box,
    base_points,
    enumerate_fiber,
)
from cubicbundle.geometry import PAIRINGS, BundlePoint, _p3_coords, pairing_pairs
from cubicbundle.picard import (
    ALL_LINE_LABELS,
    DiagonalCubic,
    GaloisElement,
    PicardReport,
    _line_orbits,
    incidence,
    picard_rank,
    relation_lattice,
    segre_rank_one,
)


def random_surfaces(count, seed):
    """count surfaces drawn as `cubicbundle rank-survey --seed seed` draws them."""
    rng = random.Random(seed)
    return [random_surface(rng) for _ in range(count)]


def enumerate_bundle(height_bound: int):
    """Stream every bundle point with anticanonical height <= height_bound
    exactly once, lexicographically in normalized x then y: the fiber walk
    over every base point, which the orbit-weighted count and the dumps
    are compared against."""
    height_bound = _integer(height_bound, "height bound", 1)
    for x in base_points(height_bound):
        for y in enumerate_fiber(x, height_bound // naive_height(x) ** 3):
            yield BundlePoint(x, y)


def box_coords(params, sides, bound: int) -> list[tuple[int, ...]]:
    """The canonical points of a box of enumeration._fiber_locus with
    H(y) <= bound, one parameter vector at a time, each image negated when
    it is not canonical, for a box in any parameter order and signs:
    enumeration._box_coords, which relies on the first-use form that
    enumeration._join gives every box, so that no image needs it, is
    compared against it."""
    (p0, m0), (p1, m1), (p2, m2), (p3, m3) = params
    ys = []
    # primitive t up to sign: y is primitive with t, and is negated when
    # its first nonzero coordinate is negative, that is when y < 0 as tuples
    for t in _half_box([bound // s for s in sides]):
        if math.gcd(*t) == 1:
            y = (m0 * t[p0], m1 * t[p1], m2 * t[p2], m3 * t[p3])
            ys.append(y if y > (0, 0, 0, 0) else (-y[0], -y[1], -y[2], -y[3]))
    return ys


def brute_force_bundle(height_bound):
    """Every bundle point (x, y) with anticanonical height <= height_bound
    as a set of normalized coordinate pairs: a quadruple-nested scan of the
    integer height box, then normalize."""
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


def _fermat_collisions(bound: int) -> list[tuple[int, ...]]:
    """The points of _surface_scan over (1, 1, 1, 1), from the collisions
    a^3 + b^3 = c^3 + d^3 (Bernstein 2001): the one-table Fermat path that
    enumeration._cube_sum_join replaced, and is compared against.

    Off line 1, y or -y has y0^3 + y1^3 = k = -(y2^3 + y3^3) > 0, and
    (y0, y1) and (-y2, -y3) order representatives a >= 1, -a < b <= a of
    the key k = a^3 + b^3 (b = -a is key 0, line 1).  A row dict per a maps
    keys to b, ints of one shared list; keys met in earlier rows collect
    their representatives.  Two orderings of one representative put y on
    line 2 or 3, so the points are the orderings of each ordered pair of
    distinct representatives of a key, kept at gcd 1 and signed; y0 is
    never 0, as no cube is a sum of two nonzero cubes.
    """
    bs = list(range(-bound, bound + 1))
    cubes = [b ** 3 for b in bs]
    table: dict[int, int] = {}
    collided: dict[int, list[tuple[int, int]]] = {}
    for a in range(1, bound + 1):
        low, high = bound - a + 1, bound + a + 1
        row = dict(zip(map(cubes[bound + a].__add__, cubes[low:high]), bs[low:high]))
        for key in row.keys() & table.keys():
            b = table[key]  # an earlier representative, whose a^3 is key - b^3
            collided.setdefault(key, [(exact_cube_root(key - b ** 3), b)]).append((a, row[key]))
        table.update(row)
    points = []
    for reps in collided.values():
        for (a, b), (c, d) in itertools.permutations(reps, 2):
            if math.gcd(a, b, c, d) == 1:
                for y0, y1 in {(a, b), (b, a)}:
                    for y2, y3 in {(c, d), (d, c)}:
                        points.append((y0, y1, -y2, -y3) if y0 > 0 else (-y0, -y1, y2, y3))
    return points


def _surface_scan(xs, bound: int) -> list[tuple[int, ...]]:
    """Canonical y with H(y) <= bound on the smooth fiber over xs, off
    every pair locus, in no particular order: the scan of the signed box
    that enumeration._cube_sum_join, mapped by the signs of x in
    enumeration._smooth_locus, replaced, and is compared against.

    Meet in the middle over the box, one of each solution pair y, -y: hash
    x0*ya^3 + x1*yb^3 over the half plane (ya, yb) > (0, 0) and scan
    (yc, yd) over the whole square, a row at a time.  The table maps a key
    to the code ya*width + yb + bound of one pair, and keys of several pairs
    also to the list of their codes; plain ints keep it small.  Hits on a
    pair locus are dropped before a tuple is built: the key 0 for pairing
    1, t0 + t2 == 0 for pairing 2 and t0 + t3 == 0 for pairing 3 (on the
    fiber the other pair sum vanishes too).  Every point with ya = yb = 0
    lies on pairing 1's locus, so the half plane misses none off the loci.
    is_canonical keeps the primitive hits.
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
    table.pop(0, None)
    x3_cubes = [x3 * c for c in cubes]
    hits = []
    for yc in rng:
        t2 = x2 * yc ** 3
        keys = [-t2 - t3 for t3 in x3_cubes]
        for idx in itertools.compress(range(width), map(table.__contains__, keys)):
            key, t3 = keys[idx], x3_cubes[idx]
            for code in collided.get(key) or (table[key],):
                t0 = x0_cubes[code // width]
                if t0 + t2 and t0 + t3:
                    ya, yb = divmod(code, width)
                    hits.append((ya, yb - bound, yc, idx - bound))
    return list(filter(is_canonical, hits))


def flag_field(in_z: bool, in_v, lifts, singular: bool) -> str:
    """The class-flags field of a dump row, from the definition of the
    format: Z, the pair loci V and the liftable pairings L in pairing
    order, SING, or - when none hold.  in_v and lifts map each pairing to
    a bool.  The flag tables of enumeration._flag_fields are compared
    against it."""
    flags = ["Z"] if in_z else []
    flags.extend(f"V{p}" for p in sorted(in_v) if in_v[p])
    flags.extend(f"L{p}" for p in sorted(lifts) if lifts[p])
    if singular:
        flags.append("SING")
    return ",".join(flags) or "-"


def fiber_rows(x_coords, height_bound: int, as_text: bool) -> str:
    """The dump rows of the fiber above the canonical x, each ending in a
    newline, as one str, in numeric order of y or sorted as strings: the
    walk and the per-point checks of x's own fiber, which the rows that
    dump._fiber_rows builds from the orbit representative's walk are
    compared against.  A row is four texts from signed tables of the
    coordinate values, the first with the head x|, and the tail
    |height|flags plus newline of the point's key."""
    lifts, singular, _ = _fiber_profile(x_coords)
    hx3 = max(map(abs, x_coords)) ** 3
    head = f"{ProjectivePoint(x_coords)}|"
    # the flag field of each pair-locus pattern k = key & 7, V_p in bit p - 1
    fields = [
        flag_field(any(lifts.values()) or k > 0, {p: k >> p - 1 & 1 == 1 for p in PAIRINGS},
                   lifts, singular)
        for k in range(8)
    ]
    ys = _fiber_walk(x_coords, height_bound // hx3)
    if not as_text:
        ys.sort()
    keys = _checked_points(x_coords, ys)
    top = max(keys, default=0) >> 3
    text = list(map(str, _signed(top)))
    firsts = [f"{head}{v}:" for v in text]
    inner = [f"{v}:" for v in text]
    tails = [f"|{hx3 * h}|{field}\n" for h in range(top + 1) for field in fields]
    rows = [f"{firsts[y0]}{inner[y1]}{inner[y2]}{text[y3]}{tails[key]}"
            for (y0, y1, y2, y3), key in zip(ys, keys)]
    if as_text:
        rows.sort()
    return "".join(rows)


def orbit_members(rep) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
    """The canonical base points x in the orbit of the representative rep
    (enumeration._base_orbits), each with one signed permutation
    (perm, signs) that sends rep to it: x_k = signs[k] * rep[perm[k]], and
    signs[k] = 1 where x_k = 0.  Every permutation and sign is tried: the
    orbit weights and dump._orbit_map are compared against it."""
    members = {}
    for perm in itertools.permutations(range(4)):
        values = [rep[p] for p in perm]
        nonzero = [k for k, v in enumerate(values) if v]
        # the first nonzero entry of a canonical x is positive
        for tail in itertools.product((1, -1), repeat=len(nonzero) - 1):
            signs = [1] * 4
            for k, s in zip(nonzero[1:], tail):
                signs[k] = s
            members.setdefault(tuple(s * v for s, v in zip(signs, values)), (perm, tuple(signs)))
    return members


def in_pair_locus(p, pairing: int) -> bool:
    """True iff both pair-sums x_i*y_i^3 + x_j*y_j^3 of the bundle point p
    vanish (membership in V_tau)."""
    (i, j), (k, l) = pairing_pairs(pairing)
    x, y = p.x.coords, p.y.coords
    return (x[i] * y[i] ** 3 + x[j] * y[j] ** 3 == 0
            and x[k] * y[k] ** 3 + x[l] * y[l] ** 3 == 0)


def pair_products(x: ProjectivePoint, pairing: int) -> tuple[int, int]:
    """(A, B) = (x_i*x_j, x_k*x_l) for the pairing."""
    (i, j), (k, l) = pairing_pairs(pairing)
    c = _p3_coords(x)
    return c[i] * c[j], c[k] * c[l]


def liftable(x: ProjectivePoint, pairing: int) -> bool:
    """Does the cube cover for this pairing have a rational point above x?

    With A = x_i*x_j and B = x_k*x_l the fiber is {(s:t) : s^3*A = t^3*B}.
    When A*B != 0 that is rational iff A/B is a cube in Q; when A or B
    vanishes, (0:1) or (1:0) is an explicit rational point.
    """
    a, b = pair_products(x, pairing)
    if a == 0 or b == 0:
        return True
    return is_cube(a, b)


def over_singular_fiber(x: ProjectivePoint) -> bool:
    """True iff the cubic surface fiber above x is singular, i.e. some
    coordinate of x vanishes."""
    return any(c == 0 for c in _p3_coords(x))


def fiber_profile(x_coords):
    """classify._fiber_profile by the definitions, through a point object:
    liftable for each pairing, over_singular_fiber, and the Picard rank of a
    smooth fiber or None."""
    x = ProjectivePoint(x_coords)
    singular = over_singular_fiber(x)
    rank = None if singular else picard_rank(DiagonalCubic(x_coords)).rank_over_Q
    return {p: liftable(x, p) for p in PAIRINGS}, singular, rank


def search_lift(a: int, b: int, cap: int = 100) -> bool:
    """Is there (s:t) with height <= cap and s^3*a == t^3*b?"""
    if b == 0:
        return True  # (0:1)
    for s in range(1, cap + 1):
        val = s ** 3 * a
        if val % b:
            continue
        t = exact_cube_root(val // b)
        if t is not None and abs(t) <= cap:
            return True
    return False


def incidence_numeric(s, l1, l2) -> int:
    """Do two distinct lines of the surface s meet?  Decided numerically,
    without the mod-3 rules of picard.incidence: the four linear forms have a
    common projective zero iff their 4x4 determinant vanishes.

    The arithmetic is ``decimal`` at 50 digits; the real cube root of
    x = a_i/a_0 is exp(ln|x| / 3) with the sign of x.  A complex entry is the
    real pair (p, q) for p + q*w in the basis (1, w), with w^2 = -1 - w, so
    w^m is (1, 0), (0, 1) or (-1, -1).  Each row has two nonzero entries;
    the Leibniz sum runs over the permutations that pick one in every row.
    The lines meet when both coordinates of the determinant are below 1e-20,
    which separates exact zeros from honest nonzeros for desk-scale
    coefficients.
    """
    assert l1 != l2, "numeric incidence is for distinct lines"
    with localcontext() as ctx:
        ctx.prec = 50
        a0 = Decimal(s.coefficients[0])
        roots = [Decimal(1)]
        for ai in s.coefficients[1:]:
            x = Decimal(ai) / a0
            roots.append((abs(x).ln() / 3).exp().copy_sign(x))
        rows = []  # each row as {column: (p, q)}
        for label in (l1, l2):
            (i, j), (k, l) = pairing_pairs(label.pairing)
            for u, v, twist in ((i, j, label.m), (k, l, label.n)):
                r = roots[v] / roots[u]
                rows.append({u: (1, 0), v: ((r, 0), (0, r), (-r, -r))[twist]})
        det_p = det_q = Decimal(0)
        for cols in itertools.product(*rows):
            if len(set(cols)) == 4:
                p, q = (-1) ** sum(a > b for a, b in itertools.combinations(cols, 2)), 0
                for row, c in zip(rows, cols):
                    e, f = row[c]
                    p, q = p * e - q * f, p * f + q * e - q * f
                det_p += p
                det_q += q
        tiny = Decimal("1e-20")
        return 1 if abs(det_p) < tiny and abs(det_q) < tiny else 0


def rational_matrix_rank(rows) -> int:
    """Rank of a matrix whose entries are anything Fraction() accepts, by
    fraction-free elimination over Z.

    A row of ints is taken as it is; any other row is scaled once by the
    lcm of its denominators into an integer row of the same span.
    Eliminating below a pivot p replaces a row r by p*r - r[col]*pivot_row,
    divided by the gcd of its entries, so the entries stay small and the
    rank stays exact.  Rows of unequal length raise InvalidArgument.
    """
    m = []
    for row in rows:
        values = list(row)
        if not all(isinstance(v, int) for v in values):
            from fractions import Fraction

            values = [Fraction(v) for v in values]
            scale = math.lcm(*(v.denominator for v in values))
            values = [v.numerator * (scale // v.denominator) for v in values]
        if m and len(values) != len(m[0]):
            raise InvalidArgument("matrix rows must have equal length")
        m.append(values)
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                row = [p * x - f * y for x, y in zip(m[r], top)]
                g = math.gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(m):
            break
    return rank


#: the first seven independent lines, by index; the 27 classes span a space
#: of dimension 7, the rank of incidence_gram(), so these seven span it
_SPANNING_LINES = (0, 1, 2, 3, 4, 9, 10)


@functools.lru_cache(maxsize=None)
def _spanning_incidences() -> tuple[tuple[int, ...], ...]:
    """The intersection numbers of each of the 27 lines, by index, with the
    seven _SPANNING_LINES, built on first use, not at import."""
    spanning = [ALL_LINE_LABELS[i] for i in _SPANNING_LINES]
    return tuple(tuple(incidence(label, line) for line in spanning) for label in ALL_LINE_LABELS)


#: what the Galois route derives from one relation lattice: the group, a tuple
#: of GaloisElement; the rank; the sorted sizes of the line orbits
LatticeOrbits = namedtuple("LatticeOrbits", "group rank orbit_sizes")


@functools.lru_cache(maxsize=28)
def _lattice_orbits(relations: tuple[tuple[int, int, int], ...]) -> LatticeOrbits:
    """Galois group, rank over Q and line-orbit sizes of a relation lattice.

    The key is ``tuple(relation_lattice(s))``, a subgroup of (Z/3)^3 in
    lexicographic order; there are 28 such subgroups, so the cache never
    evicts.  Valid twists form the annihilator of the lattice.  The
    invariant part of the Neron-Severi space is spanned by the orbit sums of
    the 27 line classes; D -> (D.l) over the seven :data:`_SPANNING_LINES`
    is injective, as they span and the intersection form is nondegenerate,
    so the rank is that of the orbit sums' rows of seven incidences.
    """
    twists = [
        (k1, k2, k3)
        for k1, k2, k3 in itertools.product(range(3), repeat=3)
        if not any((e1 * k1 + e2 * k2 + e3 * k3) % 3 for e1, e2, e3 in relations)
    ]
    group = tuple(GaloisElement(c, k) for c in (0, 1) for k in twists)
    parts = _line_orbits(group)
    table = _spanning_incidences()
    sums = [list(map(sum, zip(*(table[i] for i in o)))) for o in parts]
    return LatticeOrbits(
        group=group,
        rank=rational_matrix_rank(sums),
        orbit_sizes=tuple(sorted(map(len, parts))),
    )


def orbit_report(s) -> PicardReport:
    """picard_rank by the Galois-orbit route: the group, the line orbits and
    the rank of s's relation lattice from _lattice_orbits, and the Segre
    check afresh.  picard.picard_rank, which reads them from its table, is
    compared against it."""
    lattice = _lattice_orbits(tuple(relation_lattice(s)))
    segre = segre_rank_one(s)
    return PicardReport(
        rank_over_Q=lattice.rank,
        segre_rank_one=segre,
        orbit_sizes=lattice.orbit_sizes,
        agreement=segre == (lattice.rank == 1),
        galois_order=len(lattice.group),
    )
