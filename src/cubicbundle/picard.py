"""Picard rank of smooth diagonal cubic surfaces over Q, two ways.

A diagonal cubic  a0*y0^3 + a1*y1^3 + a2*y2^3 + a3*y3^3 = 0  (all ai != 0)
carries 27 lines.  For the index pairing {i,j}|{k,l} and twists m, n in Z/3
the line is cut out by

    a_i^(1/3)*y_i + w^m * a_j^(1/3)*y_j = 0,
    a_k^(1/3)*y_k + w^n * a_l^(1/3)*y_l = 0,

with w a primitive cube root of unity and real cube roots fixed once and
for all.  That gives the combinatorial labels (pairing, m, n).

Two independent rank computations:

* Segre's criterion: rank 1 iff no pairing ratio (a_i*a_j)/(a_k*a_l) is a
  rational cube.
* Galois orbits: the splitting field is Q(w, u1, u2, u3) with
  u_i = (a_i/a_0)^(1/3); its Galois group is cut out of
  Z/2 x (Z/3)^3 by Kummer duality (a twist must kill every multiplicative
  relation among the cube classes of the ratios a_i/a_0).  The rank over Q
  is the dimension of the span of the orbit sums of the 27 line classes.

A cube test over Q suffices for Kummer duality over Q(w): a rational is a
cube in Q(w) iff it is a cube in Q, because [Q(w):Q] = 2 is prime to 3.

The Galois route depends on the coefficients only through the relation
lattice, one of the 28 subgroups of (Z/3)^3: the twist group, the orbits of
the 27 lines and the rank of their sums are all functions of it.  So the
rank, the orbit sizes and the group order of each lattice are a table
(:data:`_LATTICE_TYPES`), keyed by the mask of 13 integer cube tests
(:func:`_relation_mask`); the tests derive every entry from the Galois
orbits of the 27 lines (tests/oracles.py) and hold the table to them.  A
rank costs those 13 cube tests, a lookup and the Segre check (3 more, run
on every surface to keep the routes independent), each on a plain int
written out over shared powers: a residue mod 819 that no cube has, tested
inline, turns most away with no call, and the rest take the root step.

The incidence rules of the 27 lines (:func:`incidence`) are mod-3 rules on
the labels; the tests check them against a 50-digit numeric oracle that
uses none of them.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .arith import _CUBE_RESIDUES, InvalidArgument, _checked_tuple, _root_of_cube
from .geometry import PAIRINGS, pairing_pairs


class DiagonalCubic(_checked_tuple("DiagonalCubic", "coefficients")):
    """Coefficients of a smooth diagonal cubic surface, up to scaling.

    Raises InvalidArgument unless given four nonzero integers, which it
    stores as a tuple of ints.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        try:
            indexed = map(operator.index, coefficients)
        except TypeError:
            raise InvalidArgument("the coefficients must be a sequence of integers") from None
        try:
            ints = tuple(indexed)
        except TypeError:
            raise InvalidArgument("a coefficient must be an integer") from None
        if len(ints) != 4:
            raise InvalidArgument("a diagonal cubic needs exactly 4 coefficients")
        if 0 in ints:
            raise InvalidArgument("zero coefficient: the surface is singular")
        return tuple.__new__(cls, (ints,))

    def pairing_ratio(self, pairing: int):
        """(a_i*a_j)/(a_k*a_l) for the pairing's two index pairs, as a
        fractions.Fraction."""
        from fractions import Fraction

        (i, j), (k, l) = pairing_pairs(pairing)
        a = self.coefficients
        return Fraction(a[i] * a[j], a[k] * a[l])


class LineLabel(namedtuple("LineLabel", "pairing m n")):
    """One of the 27 lines: a pairing and two Z/3 twist exponents, ordered
    as tuples."""

    __slots__ = ()


class GaloisElement(namedtuple("GaloisElement", "conj twist")):
    """Field automorphism of the splitting field Q(w, u1, u2, u3).

    conj = 1 conjugates w (and fixes the real cube roots u_i); the twist
    (k1, k2, k3) sends u_i to w^(k_i) * u_i.
    """

    __slots__ = ()


#: rank_over_Q and galois_order: ints; segre_rank_one and agreement: bools;
#: orbit_sizes: the sorted sizes of the line orbits
PicardReport = namedtuple(
    "PicardReport", "rank_over_Q segre_rank_one orbit_sizes agreement galois_order"
)


ALL_LINE_LABELS: tuple[LineLabel, ...] = tuple(
    LineLabel(p, m, n) for p in (1, 2, 3) for m in range(3) for n in range(3)
)


def segre_rank_one(s: DiagonalCubic) -> bool:
    """Rank 1 over Q iff no pairing ratio is a rational cube.

    Three ratios suffice: inverting a ratio or swapping within a pair does
    not change cube-ness.  With A = a_i*a_j and B = a_k*a_l, A/B is a cube
    iff the integer A*B^2 is (:func:`~cubicbundle.arith.is_cube`).
    """
    a0, a1, a2, a3 = s.coefficients
    b1, b2, b3 = a2 * a3, a1 * a3, a1 * a2
    # the pairings of geometry.PAIRINGS: {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2}
    for m in (a0 * a1 * b1 * b1, a0 * a2 * b2 * b2, a0 * a3 * b3 * b3):
        if m % 819 in _CUBE_RESIDUES and _root_of_cube(m) is not None:
            return False
    return True


# The 13 nonzero e in (Z/3)^3 whose first nonzero entry is 1, each with 2e
# and the exponent (-e1-e2-e3) mod 3 of a0.
_RELATION_TESTS = tuple(
    (e, tuple(2 * ei % 3 for ei in e), -sum(e) % 3)
    for e in itertools.product(range(3), repeat=3)
    if any(e) and next(ei for ei in e if ei) == 1
)


def _relation_mask(s: DiagonalCubic) -> int:
    """The relation lattice as 13 bits: bit i is set when the first triple e
    of _RELATION_TESTS[i] is a relation (:func:`relation_lattice`).

    The 13 integers a1^e1 * a2^e2 * a3^e3 * a0^f of _RELATION_TESTS are
    written out over shared powers, in its order, each commented with its
    (e1, e2, e3).  Each residue mod 819 is tested once; only the products
    that pass it take the root step.
    """
    a0, a1, a2, a3 = s.coefficients
    q0, q3, a12 = a0 * a0, a3 * a3, a1 * a2
    a122 = a12 * a2
    mask = 0
    for bit, m in enumerate((
        a3 * q0,  # (0, 0, 1)
        a2 * q0,  # (0, 1, 0)
        a2 * a3 * a0,  # (0, 1, 1)
        a2 * q3,  # (0, 1, 2)
        a1 * q0,  # (1, 0, 0)
        a1 * a3 * a0,  # (1, 0, 1)
        a1 * q3,  # (1, 0, 2)
        a12 * a0,  # (1, 1, 0)
        a12 * a3,  # (1, 1, 1)
        a12 * q3 * q0,  # (1, 1, 2)
        a122,  # (1, 2, 0)
        a122 * a3 * q0,  # (1, 2, 1)
        a122 * q3 * a0,  # (1, 2, 2)
    )):
        if m % 819 in _CUBE_RESIDUES and _root_of_cube(m) is not None:
            mask |= 1 << bit
    return mask


def relation_lattice(s: DiagonalCubic) -> list[tuple[int, int, int]]:
    """Exponent triples (e1, e2, e3) in (Z/3)^3 with
    (a1/a0)^e1 * (a2/a0)^e2 * (a3/a0)^e3 a cube in Q, in lexicographic order.

    Multiplying by a0^(3k) does not change cube-ness, so the product is a
    cube iff the integer a1^e1 * a2^e2 * a3^e3 * a0^((-e1-e2-e3) mod 3) is
    an integer cube (-1 is a cube, so signs need no care).  The integer for
    2e is a cube exactly when the one for e is (x is a cube iff x^2 is), so
    13 tests decide all 27 triples (:func:`_relation_mask`).
    """
    mask = _relation_mask(s)
    found = [(0, 0, 0)]
    for bit, (e, double, _) in enumerate(_RELATION_TESTS):
        if mask >> bit & 1:
            found += (e, double)
    return sorted(found)


#: (rank over Q, sorted line-orbit sizes, Galois group order) of each of the
#: 28 relation lattices, keyed by :func:`_relation_mask`; each comment gives
#: the lattice's order.  tests/oracles.py derives every entry from the
#: Galois orbits of the 27 lines and their intersection numbers.
_LATTICE_TYPES = {
    0x0000: (1, (9, 9, 9), 54),  # 1
    0x0001: (1, (3, 6, 9, 9), 18),  # 3
    0x0002: (1, (3, 6, 9, 9), 18),  # 3
    0x0004: (1, (9, 9, 9), 18),  # 3
    0x0008: (1, (3, 6, 9, 9), 18),  # 3
    0x0010: (1, (3, 6, 9, 9), 18),  # 3
    0x0020: (1, (9, 9, 9), 18),  # 3
    0x0040: (1, (3, 6, 9, 9), 18),  # 3
    0x0080: (1, (9, 9, 9), 18),  # 3
    0x0100: (1, (9, 9, 9), 18),  # 3
    0x0200: (2, (3, 3, 6, 6, 9), 18),  # 3
    0x0400: (1, (3, 6, 9, 9), 18),  # 3
    0x0800: (2, (3, 3, 6, 6, 9), 18),  # 3
    0x1000: (2, (3, 3, 6, 6, 9), 18),  # 3
    0x000f: (1, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0071: (1, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0381: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0492: (1, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0548: (1, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0624: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x08c4: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0922: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x0a18: (3, (1, 2, 2, 2, 2, 3, 3, 6, 6), 6),  # 9
    0x10a8: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x1114: (2, (3, 3, 3, 6, 6, 6), 6),  # 9
    0x1242: (3, (1, 2, 2, 2, 2, 3, 3, 6, 6), 6),  # 9
    0x1c01: (3, (1, 2, 2, 2, 2, 3, 3, 6, 6), 6),  # 9
    0x1fff: (4, (1, 1, 1) + (2,) * 12, 2),  # 27
}


def galois_group(s: DiagonalCubic) -> list[GaloisElement]:
    """All automorphisms of the splitting field, as (conj, twist) pairs.

    Valid twists form the annihilator of the relation lattice, so the group
    order is 2 * 3^d with d the rank of the subgroup of Q*/(Q*)^3 generated
    by the three coefficient ratios.
    """
    relations = relation_lattice(s)
    twists = [
        (k1, k2, k3)
        for k1, k2, k3 in itertools.product(range(3), repeat=3)
        if not any((e1 * k1 + e2 * k2 + e3 * k3) % 3 for e1, e2, e3 in relations)
    ]
    return [GaloisElement(c, k) for c in (0, 1) for k in twists]


def _image(g: GaloisElement, line: int) -> int:
    """Index of the image of the line ALL_LINE_LABELS[line] under g.

    A line's index 9*(pairing - 1) + 3*m + n is its place in
    ALL_LINE_LABELS.  The pairing is preserved; with eps = (-1)^conj and
    k0 = 0 the twist exponents transform affinely,

        m -> eps*m + k_j,   n -> eps*n + (k_l - k_k),

    where j is the partner of index 0 and (k, l) the remaining pair: apply
    the automorphism to the two defining linear forms and read off the new
    w-exponents.
    """
    p, mn = divmod(line, 9)
    m, n = divmod(mn, 3)
    (_, j), (k, l) = PAIRINGS[p + 1]
    t = (0, *g.twist)
    eps = -1 if g.conj else 1
    return 9 * p + 3 * ((eps * m + t[j]) % 3) + (eps * n + t[l] - t[k]) % 3


# Cross-pairing meet conditions, derived by eliminating y0..y3 from the four
# linear forms (the cube-root factors cancel, only w-exponents survive):
#   pairings (1,2): lines meet iff m1 - n1 == m2 - n2  (mod 3)
#   pairings (1,3): lines meet iff m1 + n1 == m3 - n3  (mod 3)
#   pairings (2,3): lines meet iff m2 + n2 == m3 + n3  (mod 3)
# Checked against the 50-digit numeric oracle incidence_numeric in
# tests/oracles.py and against the Schlaefli counts.
def incidence(l1: LineLabel, l2: LineLabel) -> int:
    """Intersection number of two of the 27 lines: -1, 0 or 1."""
    if l1 == l2:
        return -1
    if l1.pairing == l2.pairing:
        return 1 if (l1.m == l2.m or l1.n == l2.n) else 0
    a, b = (l1, l2) if l1.pairing < l2.pairing else (l2, l1)
    pair = (a.pairing, b.pairing)
    if pair == (1, 2):
        meet = (a.m - a.n - b.m + b.n) % 3 == 0
    elif pair == (1, 3):
        meet = (a.m + a.n - b.m + b.n) % 3 == 0
    else:  # (2, 3)
        meet = (a.m + a.n - b.m - b.n) % 3 == 0
    return 1 if meet else 0


def incidence_gram() -> list[list[int]]:
    """Gram matrix of the 27 line classes under the intersection form."""
    return [[incidence(l1, l2) for l2 in ALL_LINE_LABELS] for l1 in ALL_LINE_LABELS]


def _line_orbits(group) -> list[tuple[int, ...]]:
    """Orbit partition of the 27 line indices, each orbit sorted, orbits
    ordered by their least element.

    group must be a whole group, as galois_group returns it (the annihilator
    twists times {1, conj}): then the orbit of a line is its set of images,
    one pass over the group.
    """
    seen: set[int] = set()
    out = []
    for line in range(27):
        if line not in seen:
            orbit = {_image(g, line) for g in group}
            seen |= orbit
            out.append(tuple(sorted(orbit)))
    return out


def orbits(group) -> list[tuple[LineLabel, ...]]:
    """Orbit partition of the 27 line labels under a whole group, each orbit
    sorted, orbits ordered by their least element (:func:`_line_orbits`)."""
    return [tuple(ALL_LINE_LABELS[i] for i in o) for o in _line_orbits(group)]


def picard_rank(s: DiagonalCubic) -> PicardReport:
    """Rank over Q by the Galois-orbit route, cross-checked against Segre.

    The orbit rank is looked up per relation lattice (:data:`_LATTICE_TYPES`);
    the Segre criterion is evaluated afresh for every surface.
    """
    rank, orbit_sizes, order = _LATTICE_TYPES[_relation_mask(s)]
    segre = segre_rank_one(s)
    # what PicardReport(...) does, without the Python-level __new__ of a namedtuple
    return tuple.__new__(PicardReport, (rank, segre, orbit_sizes, segre == (rank == 1), order))
