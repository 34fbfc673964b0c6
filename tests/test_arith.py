import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicbundle.arith import (
    InvalidArgument,
    InvalidPoint,
    ProjectivePoint,
    _root_of_cube,
    exact_cube_root,
    is_canonical,
    is_cube,
    naive_height,
    normalize,
)
from cubicbundle.classify import classify_point
from cubicbundle.dump import point_rows
from cubicbundle.geometry import BundlePoint
from oracles import rational_matrix_rank

coord_lists = st.lists(st.integers(-1000, 1000), min_size=2, max_size=4).filter(any)


def newton_cube_root(n: int):
    """Integer Newton iteration alone, without the residue filter: the
    oracle of exact_cube_root."""
    if n == 0:
        return 0
    m = abs(n)
    r = 1 << -(-m.bit_length() // 3)
    while True:
        s = (2 * r + m // (r * r)) // 3
        if s >= r:
            break
        r = s
    if r * r * r != m:
        return None
    return r if n > 0 else -r


def fraction_matrix_rank(rows) -> int:
    """Gaussian elimination over Q in Fraction arithmetic: the oracle of the
    fraction-free rational_matrix_rank."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def cube_free_exponents(numerator: int, denominator: int) -> dict[int, int]:
    """The class of numerator/denominator in Q*/(Q*)^3 by trial division:
    prime -> exponent mod 3, nonzero exponents only, sign discarded.  It is
    empty exactly when the rational is a cube: the oracle of is_cube."""
    exps: dict[int, int] = {}
    for n, sign in ((abs(numerator), 1), (abs(denominator), -1)):
        p = 2
        while p * p <= n:
            while n % p == 0:
                n //= p
                exps[p] = exps.get(p, 0) + sign
            p += 1 if p == 2 else 2
        if n > 1:
            exps[n] = exps.get(n, 0) + sign
    return {p: e % 3 for p, e in sorted(exps.items()) if e % 3}


def brute_is_cube(p: int, q: int, search_bound: int = 8) -> bool:
    """Independent oracle: search numerator/denominator pairs directly."""
    for d in range(1, search_bound + 1):
        for n in range(-search_bound, search_bound + 1):
            if n ** 3 * q == p * d ** 3:
                return True
    return False


class TestNormalize:
    def test_divides_by_gcd(self):
        assert normalize([2, 4, 6, 0]).coords == (1, 2, 3, 0)

    def test_sign_convention(self):
        assert normalize([-1, 2, 0, 0]).coords == (1, -2, 0, 0)

    def test_gcd_then_sign(self):
        assert normalize([0, -3, 9, 3]).coords == (0, 1, -3, -1)

    def test_zero_rejected(self):
        with pytest.raises(InvalidPoint):
            normalize([0, 0, 0, 0])

    def test_direct_construction_validates(self):
        with pytest.raises(InvalidPoint):
            ProjectivePoint((2, 4, 0, 0))
        with pytest.raises(InvalidPoint):
            ProjectivePoint((-1, 1, 0, 0))

    @pytest.mark.parametrize(
        "coords", [[1.5, 2, 0, 0], ["3", 1, 0, 0], [Fraction(3), 1, 0, 0], "3"], ids=repr
    )
    def test_non_integer_coordinates_rejected(self, coords):
        with pytest.raises(InvalidPoint):
            normalize(coords)

    def test_direct_construction_stores_a_tuple_of_ints(self):
        point = ProjectivePoint([1, 0, 0, 0])
        assert type(point.coords) is tuple and point.coords == (1, 0, 0, 0)
        assert hash(point) == hash(ProjectivePoint((1, 0, 0, 0)))
        x, y = ProjectivePoint([1, -1, 0, 0]), ProjectivePoint([1, 1, 0, 0])
        assert classify_point(BundlePoint(x, y)).in_V == {1: True, 2: False, 3: False}

    @pytest.mark.parametrize("coords", [(1.0, 0, 0, 0), "1", (Fraction(1), 0, 0, 0)], ids=repr)
    def test_direct_construction_rejects_non_integers(self, coords):
        with pytest.raises(InvalidPoint, match="are not all integers"):
            ProjectivePoint(coords)

    def test_direct_construction_reads_bools_as_ints(self):
        point = ProjectivePoint((True, 0, 0, 0))
        assert str(point) == "1:0:0:0"
        assert [type(c) for c in point.coords] == [int] * 4

    def test_bool_coordinates_read_as_ints(self):
        assert str(normalize([True, 2, 0, 0])) == "1:2:0:0"

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(tuple))
    def test_is_canonical_iff_fixed_by_normalize(self, coords):
        expected = any(coords) and normalize(coords).coords == coords
        assert is_canonical(coords) == expected

    @given(coord_lists)
    def test_idempotent(self, coords):
        once = normalize(coords)
        assert normalize(once.coords) == once

    @given(coord_lists, st.integers(-50, 50).filter(bool))
    def test_scale_invariant(self, coords, scale):
        assert normalize([scale * c for c in coords]) == normalize(coords)

class TestHeights:
    def test_naive(self):
        assert naive_height(normalize([1, 2, 3, 0])) == 3
        assert naive_height(normalize([1, 0])) == 1
        assert naive_height(normalize([1, -7, 2, 5])) == 7

    def test_anticanonical(self):
        # the height field of every dump row is H(x)^3 * H(y)
        heights = {}
        for row in "".join(point_rows(8)).splitlines():
            xs, ys, height, _ = row.split("|")
            x, y = (normalize(map(int, c.split(":"))) for c in (xs, ys))
            assert int(height) == naive_height(x) ** 3 * naive_height(y), row
            heights[xs, ys] = int(height)
        assert heights["1:1:1:1", "1:-1:0:0"] == 1
        assert heights["1:0:0:2", "0:1:-1:0"] == 8
        assert heights["1:1:1:1", "3:-3:1:-1"] == 3


class TestCubeClass:
    def test_trivial_cubes(self):
        for p, q in ((8, 27), (-8, 1), (1, 1)):
            assert is_cube(p, q)
            assert cube_free_exponents(p, q) == {}

    def test_cube_free_part(self):
        assert cube_free_exponents(2, 15) == {2: 1, 3: 2, 5: 2}
        assert not is_cube(2, 15)

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            is_cube(0, 5)
        with pytest.raises(InvalidArgument):
            is_cube(5, 0)

    def test_is_cube_examples(self):
        assert is_cube(1, 1)
        assert not is_cube(2, 1)
        assert is_cube(216, 125)

    @given(
        st.integers(-200, 200).filter(bool),
        st.integers(1, 200),
        st.integers(-20, 20).filter(bool),
        st.integers(1, 20),
    )
    @settings(max_examples=300)
    def test_invariant_under_cube_multiples(self, p, q, a, b):
        r = Fraction(p, q)
        scaled = r * Fraction(a, b) ** 3
        assert cube_free_exponents(r.numerator, r.denominator) == cube_free_exponents(
            scaled.numerator, scaled.denominator
        )
        assert is_cube(r.numerator, r.denominator) == is_cube(scaled.numerator, scaled.denominator)

    def test_exponents_lie_in_1_2(self):
        for p in range(-60, 61):
            for q in range(1, 40):
                if p == 0:
                    continue
                assert all(e in (1, 2) for e in cube_free_exponents(p, q).values())

    def test_agrees_with_brute_force_oracle(self):
        # all reduced fractions with small numerator and denominator
        for p in range(-200, 201):
            for q in range(1, 201):
                if p == 0 or math.gcd(abs(p), q) != 1:
                    continue
                assert is_cube(p, q) == brute_is_cube(p, q), (p, q)
                assert is_cube(p, q) == (cube_free_exponents(p, q) == {}), (p, q)

    def test_large_prime_cofactors(self):
        # semiprime and prime-square cofactors beyond the trial bound
        p1, p2 = 1009, 1013
        cases = [
            ((p1 * p2, 1), {p1: 1, p2: 1}),
            ((p1 ** 2, 1), {p1: 2}),
            ((p1 ** 3, 1), {}),
            ((2 * p1 ** 2, p2), {2: 1, p1: 2, p2: 2}),
            ((999999999989, 1), {999999999989: 1}),
            ((10 ** 12, -(10 ** 12)), {}),
        ]
        for (p, q), exponents in cases:
            assert cube_free_exponents(p, q) == exponents
            assert is_cube(p, q) == (exponents == {})

    def test_is_cube_beyond_the_limit(self):
        # beyond what trial division factors in a test's time
        q = 1000000000000037
        assert is_cube(-(q ** 3), 8 * 10 ** 300)
        assert not is_cube(q ** 3, 2 * q ** 6)
        with pytest.raises(InvalidArgument):
            is_cube(0, q)


class TestExactCubeRoot:
    def test_examples(self):
        assert exact_cube_root(27) == 3
        assert exact_cube_root(-64) == -4
        assert exact_cube_root(10) is None
        assert exact_cube_root(0) == 0

    def test_exhaustive_roundtrip(self):
        for m in range(-(10 ** 6), 10 ** 6 + 1):
            assert exact_cube_root(m ** 3) == m

    def test_near_misses(self):
        for m in range(1, 2000):
            assert exact_cube_root(m ** 3 + 1) in (None, 1)
            assert exact_cube_root(m ** 3 - 1) in (None, 0, -1)

    def test_matches_newton_on_every_small_integer(self):
        # non-cubes too: the residue filter must turn away only non-cubes,
        # and the root step alone must turn away the rest
        for n in range(-(10 ** 5), 10 ** 5 + 1):
            assert exact_cube_root(n) == _root_of_cube(n) == newton_cube_root(n), n

    @given(st.integers(10 ** 29, 10 ** 300 - 1), st.sampled_from([1, -1]))
    @settings(max_examples=300)
    def test_large_roundtrip(self, m, sign):
        m *= sign
        assert exact_cube_root(m ** 3) == m
        assert exact_cube_root(m ** 3 + 1) is None
        assert exact_cube_root(m ** 3 - 1) is None


class TestRationalRank:
    def test_identity(self):
        assert rational_matrix_rank([[1, 0], [0, 1]]) == 2

    def test_dependent_rows(self):
        assert rational_matrix_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2

    def test_fractions(self):
        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert rational_matrix_rank(singular) == 1
        regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
        assert rational_matrix_rank(regular) == 2

    def test_zero_matrix(self):
        assert rational_matrix_rank([[0, 0], [0, 0]]) == 0

    def test_floats_and_strings_are_read_exactly(self):
        assert rational_matrix_rank([[0.5, 0.25], [1.0, 0.5]]) == 1
        assert rational_matrix_rank([[0.1, 1], [0.2, 2]]) == 1
        assert rational_matrix_rank([["1/3", 1], [1, 3.0]]) == 1
        assert rational_matrix_rank([[0.1, 1], [0.2, 2.0000001]]) == 2

    def test_empty_and_non_square(self):
        assert rational_matrix_rank([]) == 0
        assert rational_matrix_rank([[], []]) == 0
        assert rational_matrix_rank([[0, 0, 3]]) == 1
        assert rational_matrix_rank([[1, 2], [2, 4], [3, 7]]) == 2

    def test_ragged_rows_rejected(self):
        for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 0, 0], [0, 1, 0], [0, 1]]):
            with pytest.raises(InvalidArgument):
                rational_matrix_rank(rows)

    @given(
        st.integers(0, 7).flatmap(
            lambda n_cols: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(-6, 6),
                        st.fractions(min_value=-6, max_value=6, max_denominator=12),
                    ),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                max_size=7,
            )
        )
    )
    @settings(max_examples=300)
    def test_matches_fraction_elimination(self, rows):
        assert rational_matrix_rank(rows) == fraction_matrix_rank(rows)

    @given(
        st.integers(1, 7),
        st.integers(0, 3),
        st.integers(1, 7),
        st.data(),
    )
    @settings(max_examples=300)
    def test_matches_fraction_elimination_below_full_rank(self, n_rows, inner, n_cols, data):
        # a product of n_rows x inner and inner x n_cols factors has rank <= inner
        entry = st.one_of(
            st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 4)
        )
        left = [data.draw(st.lists(entry, min_size=inner, max_size=inner)) for _ in range(n_rows)]
        right = [data.draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(inner)]
        rows = [
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            if inner
            else [0] * n_cols
            for row in left
        ]
        rank = rational_matrix_rank(rows)
        assert rank == fraction_matrix_rank(rows)
        assert rank <= inner
