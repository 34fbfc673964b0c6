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
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import InvalidArgument, InvalidPoint, ProjectivePoint, is_cube


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


@dataclass(frozen=True)
class BundlePoint:
    """A rational point of the bundle: normalized (x, y) in P^3 x P^3 with
    the defining equation holding exactly in integer arithmetic."""

    x: ProjectivePoint
    y: ProjectivePoint

    def __post_init__(self) -> None:
        if not on_bundle(self.x, self.y):
            raise NotOnVariety(f"({self.x}, {self.y}) is not on the bundle")


def on_bundle(x: ProjectivePoint, y: ProjectivePoint) -> bool:
    """True iff x0*y0^3 + x1*y1^3 + x2*y2^3 + x3*y3^3 == 0.

    Raises InvalidPoint unless both points have four coordinates.
    """
    try:
        (x0, x1, x2, x3), (y0, y1, y2, y3) = x.coords, y.coords
    except ValueError:
        raise InvalidPoint(f"({x}, {y}) is not a point of P^3 x P^3") from None
    return x0 * y0 ** 3 + x1 * y1 ** 3 + x2 * y2 ** 3 + x3 * y3 ** 3 == 0


def in_pair_locus(p: BundlePoint, pairing: int) -> bool:
    """True iff both pair-sums x_i*y_i^3 + x_j*y_j^3 vanish (membership in
    V_tau)."""
    (i, j), (k, l) = pairing_pairs(pairing)
    x, y = p.x.coords, p.y.coords
    return (x[i] * y[i] ** 3 + x[j] * y[j] ** 3 == 0
            and x[k] * y[k] ** 3 + x[l] * y[l] ** 3 == 0)


def _p3_coords(x: ProjectivePoint) -> tuple[int, ...]:
    """The coordinates of the base point x, or InvalidPoint unless it has
    four: the one dimension check of the functions that take a base point."""
    if len(x.coords) != 4:
        raise InvalidPoint(f"{x} is not a point of P^3")
    return x.coords


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
