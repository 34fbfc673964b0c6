"""Exact divisor-class calculus on P^3 x P^3 and on the bundle hypersurface.

Classes live in Q[h1, h2] / (h1^4, h2^4) where h1, h2 are the hyperplane
pullbacks from the two P^3 factors.  The top monomial h1^3*h2^3 pairs with
the fundamental class of the ambient space, so intersection numbers on the
hypersurface (class h1 + 3*h2) are coefficients of h1^3*h2^3 after one
extra multiplication.

The anticanonical class 3*h1 + h2 that the intersection tests pair curves
with lives in tests/test_intersection.py, since the program never reads it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .arith import InvalidArgument

_MAX_EXP = 3  # h1^4 = h2^4 = 0


class DegreeMismatch(ValueError):
    """Raised when intersection factors do not have total degree 5."""


class DivisorClass:
    """Element of Q[h1,h2]/(h1^4,h2^4), as a sparse (i,j) -> coeff map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        """Raises InvalidArgument unless every key is a pair (i, j) of
        non-negative integer exponents; exponents above 3 give zero."""
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        for key, v in (coeffs or {}).items():
            try:
                i, j = map(operator.index, key)
            except (TypeError, ValueError):
                raise InvalidArgument(f"exponents {key!r} are not a pair of integers") from None
            if i < 0 or j < 0:
                raise InvalidArgument(f"exponents {key!r} are negative")
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
