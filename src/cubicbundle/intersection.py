"""Exact divisor-class calculus on P^3 x P^3 and on the bundle hypersurface.

Classes live in Q[h1, h2] / (h1^4, h2^4) where h1, h2 are the hyperplane
pullbacks from the two P^3 factors.  The top monomial h1^3*h2^3 pairs with
the fundamental class of the ambient space, so intersection numbers on the
hypersurface (class h1 + 3*h2) are coefficients of h1^3*h2^3 after one
extra multiplication.

Also houses the lookup table of (a-invariant, adjoint rigidity, b-invariant)
for the subvariety types relevant to the exceptional-set computation.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from .arith import InvalidArgument, _checked_tuple

_MAX_EXP = 3  # h1^4 = h2^4 = 0


class DegreeMismatch(ValueError):
    """Raised when intersection factors do not have total degree 5."""


class DivisorClass:
    """Element of Q[h1,h2]/(h1^4,h2^4), as a sparse (i,j) -> coeff map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in (coeffs or {}).items():
            v = Fraction(v)
            if v and i <= _MAX_EXP and j <= _MAX_EXP:
                self.coeffs[(i, j)] = v

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + v
        return DivisorClass(out)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, DivisorClass):
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), v1 in self.coeffs.items():
                for (i2, j2), v2 in other.coeffs.items():
                    i, j = i1 + i2, j1 + j2
                    if i <= _MAX_EXP and j <= _MAX_EXP:
                        key = (i, j)
                        out[key] = out.get(key, Fraction(0)) + v1 * v2
            return DivisorClass(out)
        return DivisorClass({k: v * Fraction(other) for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DivisorClass":
        out = DivisorClass({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorClass) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for (i, j), v in sorted(self.coeffs.items(), reverse=True):
            mono = ""
            for sym, e in (("h1", i), ("h2", j)):
                if e:
                    mono += sym if e == 1 else f"{sym}^{e}"
            terms.append(f"{v}*{mono}" if mono else str(v))
        return " + ".join(terms)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Common total degree of the monomials, or None if inhomogeneous
        or zero."""
        degs = {i + j for i, j in self.coeffs}
        return degs.pop() if len(degs) == 1 else None


H1 = DivisorClass({(1, 0): 1})
H2 = DivisorClass({(0, 1): 1})
#: anticanonical class of the bundle hypersurface
ANTICANONICAL = 3 * H1 + H2
#: class of the hypersurface itself inside P^3 x P^3
HYPERSURFACE_CLASS = H1 + 3 * H2


def multiply(classes) -> DivisorClass:
    """Product of divisor classes in the truncated ring."""
    out = DivisorClass({(0, 0): 1})
    for c in classes:
        out = out * c
    return out


def ambient_degree(c: DivisorClass) -> Fraction:
    """Coefficient of h1^3*h2^3, the top intersection number on P^3 x P^3."""
    return c.coeffs.get((3, 3), Fraction(0))


def intersect_on_bundle(classes) -> Fraction:
    """Intersection number of classes of total degree 5 on the hypersurface.

    Each nonzero factor must be homogeneous of degree >= 1 and the degrees
    must sum to 5 (the hypersurface dimension); a zero factor short-circuits
    to 0.  The result is ambient_degree(product * (h1 + 3*h2)).
    """
    classes = list(classes)
    total = 0
    for c in classes:
        if c.is_zero:
            return Fraction(0)
        d = c.degree()
        if d is None or d < 1:
            raise DegreeMismatch(f"factor {c!r} is not homogeneous of degree >= 1")
        total += d
    if total != 5:
        raise DegreeMismatch(f"total degree {total} != 5")
    return ambient_degree(multiply(classes) * HYPERSURFACE_CLASS)


def curve_a_value(h1_degree: int, h2_degree: int) -> Fraction:
    """a-invariant 2/(3*d1 + d2) of a rational curve of bidegree (d1, d2)
    against the anticanonical polarization."""
    if h1_degree == 0 and h2_degree == 0:
        raise InvalidArgument("curve bidegree (0, 0) is not a curve")
    if h1_degree < 0 or h2_degree < 0:
        raise InvalidArgument("curve bidegrees must be non-negative")
    return Fraction(2, 3 * h1_degree + h2_degree)


class SubvarietyKind(enum.Enum):
    WHOLE_SPACE = "whole-space"
    SMOOTH_SURFACE_FIBER = "smooth-surface-fiber"
    CONE_FIBER = "cone-fiber"
    PLANE_COMPONENT_FIBER = "plane-component-fiber"
    SECOND_PROJECTION_FIBER = "second-projection-fiber"
    LINE_IN_FIBER = "line-in-fiber"
    CONIC_IN_FIBER = "conic-in-fiber"
    LINE_PREIMAGE = "line-preimage"
    PLANE_PREIMAGE = "plane-preimage"


class SubvarietyDescriptor(_checked_tuple("SubvarietyDescriptor", "kind rank_over_ground_field")):
    """A SubvarietyKind and the Picard rank over the ground field, which a
    smooth surface fiber carries (1..7) and no other kind does."""

    __slots__ = ()

    def __new__(cls, kind: SubvarietyKind, rank_over_ground_field: int | None = None):
        rank = rank_over_ground_field
        if kind is SubvarietyKind.SMOOTH_SURFACE_FIBER:
            if rank is None or not 1 <= rank <= 7:
                raise InvalidArgument("smooth surface fibers need a Picard rank in 1..7")
        elif rank is not None:
            raise InvalidArgument(f"{kind.value} does not carry a Picard rank")
        return tuple.__new__(cls, (kind, rank))


#: a_value: Fraction; adjoint_rigid: bool; b_value: int, or None where the
#: table does not determine b
InvariantReport = namedtuple("InvariantReport", "a_value adjoint_rigid b_value")


# kind -> (a, adjoint rigid, b); b = None marks non-Fano cases where only
# the a-value and rigidity are tabulated.
_INVARIANTS: dict[SubvarietyKind, tuple[Fraction, bool, int | None]] = {
    SubvarietyKind.WHOLE_SPACE: (Fraction(1), True, 2),
    SubvarietyKind.CONE_FIBER: (Fraction(2), False, None),
    SubvarietyKind.PLANE_COMPONENT_FIBER: (Fraction(3), True, None),
    SubvarietyKind.SECOND_PROJECTION_FIBER: (Fraction(1), True, 1),
    SubvarietyKind.LINE_IN_FIBER: (Fraction(2), True, 1),
    SubvarietyKind.CONIC_IN_FIBER: (Fraction(1), True, 1),
    SubvarietyKind.LINE_PREIMAGE: (Fraction(1), False, None),
    SubvarietyKind.PLANE_PREIMAGE: (Fraction(1), False, None),
}


def lookup_invariants(d: SubvarietyDescriptor) -> InvariantReport:
    """Tabulated (a-invariant, adjoint rigidity, b-invariant).

    Smooth surface fibers are Fano with anticanonical polarization, so their
    b-invariant is the Picard rank carried by the descriptor.
    """
    if not isinstance(d, SubvarietyDescriptor):
        raise InvalidArgument(f"expected a SubvarietyDescriptor, got {d!r}")
    if d.kind is SubvarietyKind.SMOOTH_SURFACE_FIBER:
        return InvariantReport(Fraction(1), True, d.rank_over_ground_field)
    a, rigid, b = _INVARIANTS[d.kind]
    return InvariantReport(a, rigid, b)
