import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicbundle.arith import InvalidArgument
from cubicbundle.intersection import (
    H1,
    H2,
    HYPERSURFACE_CLASS,
    DegreeMismatch,
    DivisorClass,
    ambient_degree,
    intersect_on_bundle,
    multiply,
)

#: anticanonical class of the bundle hypersurface
ANTICANONICAL = 3 * H1 + H2


def poly_mul(p, q):
    """Untruncated polynomial product in Z[h1, h2] as (i, j) -> coeff."""
    out = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def oracle_top_coefficient(factors):
    """Brute-force oracle: multiply in the full polynomial ring, then read
    the h1^3*h2^3 coefficient (truncation cannot affect that monomial)."""
    prod = {(0, 0): 1}
    for f in factors:
        prod = poly_mul(prod, f)
    return prod.get((3, 3), 0)


small_classes = st.builds(
    lambda c00, c10, c01, c20, c11, c02: DivisorClass(
        {(0, 0): c00, (1, 0): c10, (0, 1): c01, (2, 0): c20, (1, 1): c11, (0, 2): c02}
    ),
    *(st.integers(-6, 6) for _ in range(6)),
)


class TestRingStructure:
    def test_nilpotency(self):
        assert multiply([H1, H1, H1, H1]).is_zero
        assert multiply([H2] * 4).is_zero

    def test_anticanonical_square(self):
        expected = DivisorClass({(2, 0): 9, (1, 1): 6, (0, 2): 1})
        assert ANTICANONICAL * ANTICANONICAL == expected

    def test_binomial_square(self):
        assert (H1 + H2) ** 2 == DivisorClass({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    @given(small_classes, small_classes)
    @settings(max_examples=100)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(small_classes, small_classes, small_classes)
    @settings(max_examples=100)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_classes, small_classes, small_classes)
    @settings(max_examples=100)
    def test_ambient_degree_multilinear(self, a, b, c):
        lhs = ambient_degree(multiply([a + b, c]))
        assert lhs == ambient_degree(multiply([a, c])) + ambient_degree(multiply([b, c]))


class TestAmbientDegree:
    def test_fundamental_pairing(self):
        assert ambient_degree(DivisorClass({(3, 3): 1})) == 1

    def test_against_oracle_small(self):
        got = ambient_degree(multiply([H1 ** 2 * H2 ** 3, HYPERSURFACE_CLASS]))
        expected = oracle_top_coefficient([{(2, 3): 1}, {(1, 0): 1, (0, 1): 3}])
        assert got == expected == 1

    def test_anticanonical_quintic(self):
        # top self-intersection of the anticanonical class on the bundle
        got = ambient_degree(multiply([ANTICANONICAL] * 5 + [HYPERSURFACE_CLASS]))
        expected = oracle_top_coefficient(
            [{(1, 0): 3, (0, 1): 1}] * 5 + [{(1, 0): 1, (0, 1): 3}]
        )
        assert got == expected == 900

    @given(st.lists(small_classes, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_matches_polynomial_oracle(self, factors):
        got = ambient_degree(multiply(factors))
        expected = oracle_top_coefficient([f.coeffs for f in factors])
        assert got == expected


class TestBundleIntersections:
    def test_identity_3a_7b(self):
        rng = random.Random(1)
        for _ in range(20):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            got = intersect_on_bundle([H1 + H2, H1 + H2, H1, H1, a * H1 + b * H2])
            assert got == 3 * a + 7 * b
        assert intersect_on_bundle([H1 + H2, H1 + H2, H1, H1, H1 + H2]) == 10

    def test_identity_3a_13b(self):
        rng = random.Random(2)
        for _ in range(20):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            quad = DivisorClass({(2, 0): a, (1, 1): b})
            got = intersect_on_bundle([2 * H1 + H2, 2 * H1 + H2, quad, H1])
            assert got == 3 * a + 13 * b
        sample = DivisorClass({(2, 0): 0, (1, 1): 1})
        assert intersect_on_bundle([2 * H1 + H2, 2 * H1 + H2, sample, H1]) == 13

    def test_identity_3b_4c(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (rng.randint(-40, 40) for _ in range(3))
            curve = DivisorClass({(2, 0): a, (1, 1): b, (0, 2): c})
            got = intersect_on_bundle([H1 + H2, H1, H1, curve])
            assert got == 3 * b + 4 * c

    def test_regression_pin(self):
        # L^2 . h1^2 . h2 on the bundle, frozen from the polynomial oracle
        assert intersect_on_bundle([ANTICANONICAL, ANTICANONICAL, H1, H1, H2]) == 19

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            intersect_on_bundle([H1, H1, H1, H1])
        with pytest.raises(DegreeMismatch):
            intersect_on_bundle([H1 + H2 + DivisorClass({(0, 0): 1}), H1, H1, H1, H1])

    def test_zero_factor_short_circuits(self):
        assert intersect_on_bundle([DivisorClass({}), H1, H1]) == 0


class TestCurveAValue:
    """The a-invariant 2/(-K . C) of a rational curve C on the bundle, the
    a-values of Lehmann-Sengupta-Tanimoto, from the calculus: in each P^3 a
    point is the cube of the hyperplane class and a curve of degree d is d
    times its square."""

    @staticmethod
    def a_value(curve):
        return 2 / ambient_degree(ANTICANONICAL * curve)

    def test_line_in_fiber(self):
        assert self.a_value(H1 ** 3 * H2 ** 2) == 2

    def test_conic_in_fiber(self):
        assert self.a_value(2 * H1 ** 3 * H2 ** 2) == 1

    def test_other_bidegree(self):
        assert self.a_value(H1 ** 2 * H2 ** 3) == Fraction(2, 3)


class TestExponentKeys:
    @pytest.mark.parametrize(
        "key", [(-1, 0), (0, -2), (0.5, 0), (1, "1"), (1,), (1, 2, 3), 5, None],
        ids=repr,
    )
    def test_rejects_keys_that_are_not_exponent_pairs(self, key):
        with pytest.raises(InvalidArgument):
            DivisorClass({key: 1})

    def test_negative_exponent_never_reaches_a_product(self):
        # h1^-1 * h1 would be 1, and this pairing would be 4
        with pytest.raises(InvalidArgument, match="negative"):
            intersect_on_bundle([DivisorClass({(-1, 2): 1}), H1 + H2, H1, H1, H1])

    def test_exponents_above_three_truncate_to_zero(self):
        assert DivisorClass({(4, 0): 1, (0, 7): 2}).is_zero
        assert DivisorClass({(4, 0): 1, (1, 0): 2}) == 2 * H1


class TestPower:
    @pytest.mark.parametrize("n", [-1, -3])
    def test_rejects_negative_exponents(self, n):
        # the repeated product would be empty, which is the class 1
        with pytest.raises(InvalidArgument, match="exponent must be >= 0"):
            H1 ** n

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_exponents(self, n):
        with pytest.raises(InvalidArgument, match="exponent must be an integer"):
            H1 ** n

    def test_powers_are_repeated_products(self):
        assert H1 ** 0 == DivisorClass({(0, 0): 1})
        assert (H1 + H2) ** 3 == multiply([H1 + H2] * 3)
        assert H2 ** 4 == DivisorClass()
