import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicbundle import picard
from cubicbundle.arith import InvalidArgument, exact_cube_root, is_cube
from cubicbundle.picard import (
    ALL_LINE_LABELS,
    DiagonalCubic,
    GaloisElement,
    LineLabel,
    galois_group,
    incidence,
    incidence_gram,
    orbits,
    picard_rank,
    relation_lattice,
    segre_rank_one,
)
from oracles import (
    _SPANNING_LINES,
    _lattice_orbits,
    _spanning_incidences,
    incidence_numeric,
    orbit_report,
    random_surfaces,
    rational_matrix_rank,
)
from test_arith import fraction_matrix_rank

nonzero_small = st.integers(-20, 20).filter(bool)
surfaces = st.builds(
    DiagonalCubic, st.tuples(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
)


# Large coefficients of both signs, and products of a small cube class with a
# cube, so that nontrivial relation lattices occur too.
large_coefficient = st.one_of(
    st.integers(-10**9, 10**9).filter(bool),
    st.builds(
        lambda unit, root, sign: sign * unit * root ** 3,
        st.sampled_from([1, 2, 3, 4, 6, 9, 12, 18, 36]),
        st.integers(1, 300),
        st.sampled_from([1, -1]),
    ),
)


def line_action(g: GaloisElement, label: LineLabel) -> LineLabel:
    """Image of a line under an automorphism: the index rule picard._image
    on labels, the form the action tests and searched_orbits use."""
    return ALL_LINE_LABELS[picard._image(g, ALL_LINE_LABELS.index(label))]


def compose(g: GaloisElement, h: GaloisElement) -> GaloisElement:
    """Composite automorphism g∘h (apply h first): the group law that the
    closure and action tests check galois_group and line_action against."""
    eps = -1 if g.conj else 1
    twist = tuple((gk + eps * hk) % 3 for gk, hk in zip(g.twist, h.twist))
    return GaloisElement((g.conj + h.conj) % 2, twist)


NOT_AN_INTEGER = "a coefficient must be an integer"
NOT_A_SEQUENCE = "the coefficients must be a sequence of integers"


class TestSurfaceValidation:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(InvalidArgument) as error:
            DiagonalCubic((1, 0, 1, 1))
        assert str(error.value) == "zero coefficient: the surface is singular"

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            pytest.param(coefficients, message, id=repr(coefficients))
            for coefficients, message in [
                ((1, 1, 1, 1.0), NOT_AN_INTEGER),
                ((1, 2, 3, "4"), NOT_AN_INTEGER),
                ((1, 2, 3, None), NOT_AN_INTEGER),
                ((1, 2, 3, Fraction(4)), NOT_AN_INTEGER),
                (5, NOT_A_SEQUENCE),
                (None, NOT_A_SEQUENCE),
                ((1, 2, 3), "a diagonal cubic needs exactly 4 coefficients"),
            ]
        ],
    )
    def test_non_integer_coefficients_rejected(self, coefficients, message):
        with pytest.raises(InvalidArgument) as error:
            picard_rank(DiagonalCubic(coefficients))
        assert str(error.value) == message

    def test_coefficients_stored_as_an_int_tuple(self):
        s = DiagonalCubic([True, 2, 3, 5])
        assert s.coefficients == (1, 2, 3, 5)
        assert all(type(c) is int for c in s.coefficients)
        assert s == DiagonalCubic((1, 2, 3, 5))


# Large coefficients of both signs, or +-2^(0, 1 or 2) times a cube: then each
# pairing ratio is a cube one time in three, so every pairing is reached alone.
segre_coefficient = st.one_of(
    large_coefficient,
    st.builds(
        lambda unit, root, sign: sign * unit * root ** 3,
        st.sampled_from([1, 2, 4]),
        st.integers(1, 1000),
        st.sampled_from([1, -1]),
    ),
)


class TestSegre:
    @given(st.tuples(segre_coefficient, segre_coefficient, segre_coefficient, segre_coefficient))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairing_ratio_oracle(self, coeffs):
        s = DiagonalCubic(coeffs)
        ratios = [s.pairing_ratio(p) for p in (1, 2, 3)]
        assert segre_rank_one(s) == all(not is_cube(r.numerator, r.denominator) for r in ratios)

    def test_fermat_not_rank_one(self):
        assert not segre_rank_one(DiagonalCubic((1, 1, 1, 1)))

    def test_generic_rank_one(self):
        assert segre_rank_one(DiagonalCubic((1, 2, 3, 5)))

    def test_paired_coefficients(self):
        assert not segre_rank_one(DiagonalCubic((1, 1, 2, 2)))

    def test_each_pairing_alone(self):
        # exactly one of the ratios a0*a1/(a2*a3), a0*a2/(a1*a3), a0*a3/(a1*a2) is a cube
        for coeffs in [(2, 3, 1, 6), (2, 1, 3, 6), (1, 2, 3, 6)]:
            assert not segre_rank_one(DiagonalCubic(coeffs)), coeffs


class TestGaloisGroup:
    def test_split_surface_order_two(self):
        assert len(galois_group(DiagonalCubic((1, 1, 1, 1)))) == 2

    def test_generic_order_54(self):
        assert len(galois_group(DiagonalCubic((1, 2, 3, 5)))) == 54

    def test_dependent_ratios_order_six(self):
        assert len(galois_group(DiagonalCubic((1, 2, 4, 1)))) == 6

    def test_scaling_invariance(self):
        for coeffs in [(1, 2, 3, 5), (1, 1, 2, 2), (-1, 4, -9, 10)]:
            base = len(galois_group(DiagonalCubic(coeffs)))
            scaled = len(galois_group(DiagonalCubic(tuple(7 * c for c in coeffs))))
            assert base == scaled

    @given(surfaces)
    @settings(max_examples=60, deadline=None)
    def test_order_is_2_times_power_of_3(self, s):
        order = len(galois_group(s))
        assert order % 2 == 0
        half = order // 2
        assert half in (1, 3, 9, 27)

    @given(surfaces)
    @settings(max_examples=30, deadline=None)
    def test_twists_annihilate_relations(self, s):
        relations = relation_lattice(s)
        for g in galois_group(s):
            for e in relations:
                assert sum(ei * ki for ei, ki in zip(e, g.twist)) % 3 == 0

    @given(surfaces)
    @settings(max_examples=20, deadline=None)
    def test_group_closure(self, s):
        group = set(galois_group(s))
        sample = sorted(group, key=lambda g: (g.conj, g.twist))[:6]
        for g in sample:
            for h in sample:
                assert compose(g, h) in group


def fraction_relation_lattice(s):
    """The relation lattice from Fraction products of the ratios a_i/a_0."""
    a = s.coefficients
    ratios = [Fraction(a[i], a[0]) for i in (1, 2, 3)]
    relations = []
    for e in itertools.product(range(3), repeat=3):
        prod = Fraction(1)
        for r, ei in zip(ratios, e):
            prod *= r ** ei
        if is_cube(prod.numerator, prod.denominator):
            relations.append(e)
    return relations


def subgroups_of_z3_cubed():
    """Every subgroup of (Z/3)^3, as the closure of up to three generators."""
    elements = list(itertools.product(range(3), repeat=3))
    found = set()
    for gens in itertools.combinations_with_replacement(elements, 3):
        span = {
            tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % 3 for i in range(3))
            for coeffs in itertools.product(range(3), repeat=3)
        }
        found.add(tuple(sorted(span)))
    return sorted(found)


def lattice_surface(relations) -> DiagonalCubic:
    """A surface whose relation lattice is the subgroup relations of
    (Z/3)^3: a_0 = 1 and a_i = 2^k_i * 3^k'_i * 5^k''_i over a basis k, k',
    k'' of the twists that annihilate it, so that e is a relation iff it is
    orthogonal to that basis, that is iff e lies in relations."""
    twists = [
        k for k in itertools.product(range(3), repeat=3)
        if all(sum(ei * ki for ei, ki in zip(e, k)) % 3 == 0 for e in relations)
    ]
    basis, span = [], {(0, 0, 0)}
    for k in twists:
        if k not in span:
            basis.append(k)
            span = {tuple((v + c * ki) % 3 for v, ki in zip(u, k)) for u in span for c in range(3)}
    coefficients = [1, 1, 1]
    for prime, k in zip((2, 3, 5), basis):
        coefficients = [a * prime ** ki for a, ki in zip(coefficients, k)]
    return DiagonalCubic((1, *coefficients))


#: one surface for each of the 28 relation lattices, in the order of
#: subgroups_of_z3_cubed()
LATTICE_SURFACES = [lattice_surface(relations) for relations in subgroups_of_z3_cubed()]


def searched_orbits(group):
    """Orbit partition of the 27 line labels by breadth-first search under
    the generators in group, each orbit sorted, orbits ordered by their least
    element: the oracle of picard.orbits, which needs the whole group."""
    seen = set()
    out = []
    for label in ALL_LINE_LABELS:
        if label in seen:
            continue
        orbit = {label}
        frontier = [label]
        while frontier:
            current = frontier.pop()
            for g in group:
                image = line_action(g, current)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


class TestRelationLattice:
    @given(st.tuples(large_coefficient, large_coefficient, large_coefficient, large_coefficient))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, coeffs):
        s = DiagonalCubic(coeffs)
        assert relation_lattice(s) == fraction_relation_lattice(s)

    @given(st.tuples(large_coefficient, large_coefficient, large_coefficient, large_coefficient))
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_unfiltered_cube_roots(self, coeffs):
        # every product of _RELATION_TESTS through exact_cube_root, with no
        # residue test in front of it
        a0, a1, a2, a3 = coeffs
        mask = sum(
            1 << bit
            for bit, ((e1, e2, e3), _, f) in enumerate(picard._RELATION_TESTS)
            if exact_cube_root(a1 ** e1 * a2 ** e2 * a3 ** e3 * a0 ** f) is not None
        )
        assert picard._relation_mask(DiagonalCubic(coeffs)) == mask

    @pytest.mark.parametrize("scale", [2, 7, 12])
    def test_mask_is_blind_to_a_common_scale(self, scale):
        # every lattice surface has a0 = 1, so only a common non-cube scale
        # reaches the exponents of a0: each product has degree
        # e1 + e2 + e3 + f = 0 mod 3 and gains a cube, while a wrong
        # exponent of a0 would leave it a non-cube power of the scale
        for s in LATTICE_SURFACES:
            scaled = DiagonalCubic(tuple(scale * a for a in s.coefficients))
            assert picard._relation_mask(scaled) == picard._relation_mask(s), s

    def test_examples(self):
        assert relation_lattice(DiagonalCubic((1, 2, 3, 5))) == [(0, 0, 0)]
        assert len(relation_lattice(DiagonalCubic((1, 1, 1, 1)))) == 27
        # 2^e1 * 4^e2 is a cube iff e1 == e2; the third ratio is 1
        assert relation_lattice(DiagonalCubic((1, 2, 4, 1))) == [
            (e, e, e3) for e in range(3) for e3 in range(3)
        ]
        assert relation_lattice(DiagonalCubic((-1, 2, -4, 1))) == [
            (e, e, e3) for e in range(3) for e3 in range(3)
        ]

    def test_there_are_28_subgroups(self):
        subgroups = subgroups_of_z3_cubed()
        assert len(subgroups) == 28
        assert sorted(len(g) for g in subgroups) == [1] + [3] * 13 + [9] * 13 + [27]

    def test_each_lattice_surface_has_its_lattice(self):
        for relations, s in zip(subgroups_of_z3_cubed(), LATTICE_SURFACES):
            assert relation_lattice(s) == fraction_relation_lattice(s) == list(relations)


class TestLatticeCache:
    """The table of the 28 relation lattices against the cached orbit route
    of tests/oracles.py that derives it."""

    @pytest.mark.parametrize("relations", subgroups_of_z3_cubed(), ids=len)
    def test_cached_equals_unmemoized(self, relations):
        assert _lattice_orbits(relations) == _lattice_orbits.__wrapped__(relations)

    @pytest.mark.parametrize("relations", subgroups_of_z3_cubed(), ids=len)
    def test_matches_orbit_search_and_incidence_oracle(self, relations):
        lattice = _lattice_orbits(relations)
        parts = searched_orbits(lattice.group)
        gram = [
            [sum(incidence(l1, l2) for l1 in o1 for l2 in o2) for o2 in parts]
            for o1 in parts
        ]
        assert orbits(lattice.group) == parts
        assert lattice.rank == rational_matrix_rank(gram) == fraction_matrix_rank(gram)
        assert lattice.orbit_sizes == tuple(sorted(len(o) for o in parts))

    def test_table_matches_the_orbit_route(self):
        masks = []
        for relations, s in zip(subgroups_of_z3_cubed(), LATTICE_SURFACES):
            mask = sum(1 << bit for bit, (e, _, _) in enumerate(picard._RELATION_TESTS)
                       if e in relations)
            lattice = _lattice_orbits(relations)
            assert picard._relation_mask(s) == mask
            assert picard._LATTICE_TYPES[mask] == (
                lattice.rank, lattice.orbit_sizes, len(lattice.group)
            )
            assert galois_group(s) == list(lattice.group)
            masks.append(mask)
        assert sorted(masks) == sorted(picard._LATTICE_TYPES)

    def test_picard_rank_matches_the_orbit_route(self):
        for s in random_surfaces(1000, seed=2024):
            assert picard_rank(s) == orbit_report(s), s

    def test_no_orbit_code_runs_when_a_surface_is_ranked(self):
        # _image is the line action that every orbit computation goes through
        code = textwrap.dedent(f"""
            import contextlib, io
            from cubicbundle import cli, picard

            def refuse(g, line):
                raise RuntimeError("the line action ran")

            picard._image = refuse
            surfaces = [picard.DiagonalCubic(c) for c in {[s.coefficients for s in LATTICE_SURFACES]!r}]
            try:
                picard.orbits(picard.galois_group(surfaces[0]))
            except RuntimeError:
                pass
            else:
                raise SystemExit("the patch did not reach the orbits")
            reports = list(map(picard.picard_rank, surfaces))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["count", "--bounds", "16"])
            print(len(reports), code)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(picard.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "28 0\n"

    def test_galois_group_is_a_fresh_list(self):
        s = DiagonalCubic((1, 2, 4, 1))
        galois_group(s).clear()
        assert len(galois_group(s)) == 6


class TestLineAction:
    def test_identity_fixes_everything(self):
        identity = GaloisElement(0, (0, 0, 0))
        for label in ALL_LINE_LABELS:
            assert line_action(identity, label) == label

    def test_single_twist(self):
        g = GaloisElement(0, (1, 0, 0))
        assert line_action(g, LineLabel(1, 0, 0)) == LineLabel(1, 1, 0)

    def test_conjugation_negates(self):
        g = GaloisElement(1, (0, 0, 0))
        assert line_action(g, LineLabel(1, 1, 2)) == LineLabel(1, 2, 1)

    @given(surfaces)
    @settings(max_examples=20, deadline=None)
    def test_is_group_action(self, s):
        group = galois_group(s)
        sample = group[:8]
        labels = ALL_LINE_LABELS[::5]
        for g in sample:
            for h in sample:
                gh = compose(g, h)
                for label in labels:
                    assert line_action(gh, label) == line_action(g, line_action(h, label))

    @given(surfaces)
    @settings(max_examples=10, deadline=None)
    def test_preserves_incidence(self, s):
        group = galois_group(s)
        pairs = list(itertools.combinations(ALL_LINE_LABELS[::3], 2))
        for g in group[: min(len(group), 6)]:
            for l1, l2 in pairs:
                assert incidence(line_action(g, l1), line_action(g, l2)) == incidence(l1, l2)


class TestIncidence:
    def test_exactly_27_labels(self):
        assert len(ALL_LINE_LABELS) == 27
        assert len(set(ALL_LINE_LABELS)) == 27

    def test_self_intersection(self):
        for label in ALL_LINE_LABELS:
            assert incidence(label, label) == -1

    def test_same_pairing_shared_twist(self):
        assert incidence(LineLabel(1, 0, 0), LineLabel(1, 0, 2)) == 1

    def test_same_pairing_disjoint(self):
        assert incidence(LineLabel(1, 1, 0), LineLabel(1, 2, 2)) == 0

    def test_symmetric(self):
        for l1, l2 in itertools.combinations(ALL_LINE_LABELS, 2):
            assert incidence(l1, l2) == incidence(l2, l1)

    def test_every_line_meets_ten_others(self):
        for label in ALL_LINE_LABELS:
            meets = sum(
                1 for other in ALL_LINE_LABELS if other != label and incidence(label, other) == 1
            )
            assert meets == 10

    def test_gram_rank_seven(self):
        assert rational_matrix_rank(incidence_gram()) == 7

    def test_seven_lines_span(self):
        # the lattice ranks cannot catch a wrong basis: with any one of lines
        # 0, 1, 2, 3, 9 or 10 dropped, all 28 ranks stay the same
        gram = incidence_gram()
        table = _spanning_incidences()
        assert table == tuple(tuple(row[i] for i in _SPANNING_LINES) for row in gram)
        assert rational_matrix_rank(table) == rational_matrix_rank(gram) == 7

    def test_matches_numeric_oracle(self):
        # a prime above 10^12, coefficients of 10^9 of both signs, all signs mixed
        wide = [(1, 1, 1, 1000000000000037), (10**9, -10**9 + 7, 3, 1), (-3, 5, -7, 11)]
        for s in random_surfaces(3, seed=11) + [DiagonalCubic(a) for a in wide]:
            for l1, l2 in itertools.combinations(ALL_LINE_LABELS, 2):
                assert incidence(l1, l2) == incidence_numeric(s, l1, l2), (s, l1, l2)


class TestPicardRank:
    def test_generic_surface_rank_one(self):
        report = picard_rank(DiagonalCubic((1, 2, 3, 5)))
        assert report.rank_over_Q == 1
        assert report.segre_rank_one
        assert report.agreement

    def test_fermat_rank_four(self):
        report = picard_rank(DiagonalCubic((1, 1, 1, 1)))
        assert type(report) is picard.PicardReport
        assert report.rank_over_Q == 4
        assert report == (4, False, (1, 1, 1) + (2,) * 12, True, 2)

    def test_same_report_under_permutations_and_sign_flips(self):
        # permuting the coefficients or negating one is an isomorphism of
        # the surface over Q (y_i <-> y_j, y_i -> -y_i)
        for s in LATTICE_SURFACES:
            report = picard_rank(s)
            for order in itertools.permutations(s.coefficients):
                for signs in itertools.product((1, -1), repeat=4):
                    twin = DiagonalCubic(tuple(map(int.__mul__, signs, order)))
                    assert picard_rank(twin) == report, twin

    def test_orbit_sizes_partition_the_lines(self):
        for s in random_surfaces(20, seed=5):
            report = picard_rank(s)
            assert sum(report.orbit_sizes) == 27

    def test_orbits_partition(self):
        s = DiagonalCubic((1, 1, 2, 2))
        parts = orbits(galois_group(s))
        flat = [label for orbit in parts for label in orbit]
        assert sorted(flat) == sorted(ALL_LINE_LABELS)

    @given(surfaces)
    @settings(max_examples=60, deadline=None)
    def test_rank_in_expected_range_and_agreement(self, s):
        report = picard_rank(s)
        assert report.rank_over_Q in (1, 2, 3, 4)
        assert report.agreement
