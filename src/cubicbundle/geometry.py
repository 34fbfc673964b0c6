"""Defining equations of the cubic surface bundle and its distinguished loci.

The ambient variety is the hypersurface

    x0*y0^3 + x1*y1^3 + x2*y2^3 + x3*y3^3 = 0   in P^3_x x P^3_y.

A *pairing* splits the four indices into two unordered pairs; there are
exactly three.  Each pairing tau carries two loci used by the point
classifier:

* the pair locus V_tau, where both pair-sums x_i*y_i^3 + x_j*y_j^3 vanish
  separately, and
* the cube cover T_tau over P^3_x with equation s^3*A = t^3*B for
  A = x_i*x_j, B = x_k*x_l; a rational point of T_tau above x exists iff
  A = 0, B = 0, or A/B is a rational cube ("liftability").

The classifier reads liftability and the singular flag (some x_k = 0) off
the plain coordinates of a base point, once per fiber
(``classify._fiber_profile``); the one-pairing definitions it is checked
against live in the tests' oracles.
"""

from __future__ import annotations

from .arith import InvalidArgument, InvalidPoint, ProjectivePoint, _checked_tuple


class NotOnVariety(ValueError):
    """Raised for (x, y) pairs that do not satisfy the bundle equation."""


#: pairing index -> ((i, j), (k, l)), the two pairs of coordinate indices
PAIRINGS: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    1: ((0, 1), (2, 3)),
    2: ((0, 2), (1, 3)),
    3: ((0, 3), (1, 2)),
}


def pairing_pairs(pairing: int) -> tuple[tuple[int, int], tuple[int, int]]:
    try:
        return PAIRINGS[pairing]
    except KeyError:
        raise InvalidArgument(f"pairing must be 1, 2 or 3, got {pairing!r}") from None


class BundlePoint(_checked_tuple("BundlePoint", "x y")):
    """A rational point of the bundle: normalized (x, y) in P^3 x P^3 with
    the defining equation holding exactly in integer arithmetic."""

    __slots__ = ()

    def __new__(cls, x: ProjectivePoint, y: ProjectivePoint):
        if not on_bundle(x, y):
            raise NotOnVariety(f"({x}, {y}) is not on the bundle")
        return tuple.__new__(cls, (x, y))


def on_bundle(x: ProjectivePoint, y: ProjectivePoint) -> bool:
    """True iff x0*y0^3 + x1*y1^3 + x2*y2^3 + x3*y3^3 == 0.

    Raises InvalidPoint unless both points have four coordinates.
    """
    try:
        (x0, x1, x2, x3), (y0, y1, y2, y3) = x.coords, y.coords
    except ValueError:
        raise InvalidPoint(f"({x}, {y}) is not a point of P^3 x P^3") from None
    return x0 * y0 * y0 * y0 + x1 * y1 * y1 * y1 + x2 * y2 * y2 * y2 + x3 * y3 * y3 * y3 == 0


def _p3_coords(x: ProjectivePoint) -> tuple[int, ...]:
    """The coordinates of the base point x, or InvalidPoint unless it has
    four: the one dimension check of the functions that take a base point."""
    if len(x.coords) != 4:
        raise InvalidPoint(f"{x} is not a point of P^3")
    return x.coords

