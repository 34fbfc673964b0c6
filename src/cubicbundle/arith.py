"""Exact rational and projective-point arithmetic.

Everything here is integer exact: canonical representatives of points in
P^n(Q), naive heights, the cube test in Q and integer cube roots.  No
floats anywhere; height comparisons H <= B are exact.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

#: the 45 residues of integer cubes modulo 819 = 7 * 9 * 13 (3 * 3 * 5 per factor)
_CUBE_RESIDUES = frozenset(x ** 3 % 819 for x in range(819))


class InvalidPoint(ValueError):
    """Raised when coordinates cannot represent a projective point."""


class InvalidArgument(ValueError):
    """Raised when an operation is called outside its domain."""


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


def _checked_tuple(typename: str, field_names: str):
    """A namedtuple base for a type whose __new__ checks its fields: its
    _make, and so _replace, build through the subclass, not tuple.__new__."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class ProjectivePoint(_checked_tuple("ProjectivePoint", "coords")):
    """Canonical integer representative of a point in P^n(Q).

    Invariant: the coordinates are a tuple of ints that passes
    :func:`is_canonical`; anything else raises InvalidPoint.  Build via
    :func:`normalize`.
    """

    __slots__ = ()

    def __new__(cls, coords):
        try:
            ints = tuple(map(operator.index, coords))
        except TypeError:
            raise InvalidPoint(f"coordinates {coords!r} are not all integers") from None
        if not is_canonical(ints):
            raise InvalidPoint(f"coordinates {coords} are not canonical")
        return tuple.__new__(cls, (ints,))

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)


def is_canonical(coords) -> bool:
    """True iff the integer tuple is the canonical representative of a
    point in P^n(Q): not all zero, primitive, first nonzero coordinate
    positive.  The sign is read at the first nonzero entry; only a tuple
    that passes it pays for the gcd."""
    for c in coords:
        if c:
            return c > 0 and math.gcd(*coords) == 1
    return False


def normalize(raw_coords) -> ProjectivePoint:
    """Canonical representative: divide by the gcd, make the first nonzero
    coordinate positive.  Two integer tuples represent the same projective
    point iff their normalizations are equal.  Raises InvalidPoint unless
    every coordinate is an integer."""
    try:
        coords = tuple(map(operator.index, raw_coords))
    except TypeError:
        raise InvalidPoint(f"coordinates {raw_coords!r} are not all integers") from None
    if not any(coords):
        raise InvalidPoint("all coordinates are zero")
    g = math.gcd(*coords)
    if next(c for c in coords if c) < 0:
        g = -g
    return ProjectivePoint(tuple(c // g for c in coords))


def naive_height(p: ProjectivePoint) -> int:
    """max |c_i| over the canonical coordinates."""
    return max(map(abs, p.coords))


def is_cube(numerator: int, denominator: int) -> bool:
    """True iff numerator/denominator is the cube of a rational.

    n/d = n*d^2 / d^3, so it is a rational cube exactly when the integer
    n*d^2 is an integer cube: one test, no gcd and no factoring.
    """
    if numerator == 0 or denominator == 0:
        raise InvalidArgument("is_cube needs a nonzero rational")
    return exact_cube_root(numerator * denominator * denominator) is not None


def floor_cube_root(n: int) -> int:
    """The largest r >= 0 with r^3 <= n, for an int n >= 0, by integer
    Newton iteration from a power of two above the root: it decreases
    strictly until it reaches floor(n^(1/3)), so it is exact at any size."""
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def exact_cube_root(n: int) -> int | None:
    """The integer m with m^3 == n, or None when no such integer exists.

    Sign-preserving: exact_cube_root(-64) == -4.  An n whose residue modulo
    819 = 7 * 9 * 13 is not one of the 45 cube residues is no cube; that one
    test turns away about 94% of non-cubes.  The rest take
    :func:`_root_of_cube`.
    """
    if n % 819 not in _CUBE_RESIDUES:
        return None
    return _root_of_cube(n)


def _root_of_cube(n: int) -> int | None:
    """The root step of :func:`exact_cube_root`, with no residue test:
    :func:`floor_cube_root` of |n|, kept with n's sign when it cubes back to
    |n|, else None.  For callers that have tested the residue already."""
    m = abs(n)
    r = floor_cube_root(m)
    if r * r * r != m:
        return None
    return r if n > 0 else -r
