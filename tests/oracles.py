"""Slow reference implementations that more than one test module compares the
program against.  The program never calls them.
"""

import itertools
import math
import random
from decimal import Decimal, localcontext

from cubicbundle.arith import ProjectivePoint, _integer, exact_cube_root, naive_height, normalize
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
from cubicbundle.geometry import PAIRINGS, BundlePoint, pairing_pairs


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
