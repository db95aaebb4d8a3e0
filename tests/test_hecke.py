from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import (
    AlgebraElement,
    HeckeElement,
    LaurentPoly1,
    T1,
    T2,
    TRHO,
    TRHO_INV,
    WeylElement,
    hecke_embed,
    hecke_preimage,
    laurent_lift,
    multiply,
    pair_to_matrix,
    quotient_image,
)
from affschur.core import Composition, diag_matrix
from affschur.hecke import WEIGHT_11, group_quotient_image
from affschur.sampling import random_element, random_hecke, random_poly1

from conftest import algebra_elements, assert_canonical_exact, basis, weyl_elements

ONE = HeckeElement.group(WeylElement((1, 2), (0, 0)))
H_T1 = HeckeElement.group(T1)
H_T2 = HeckeElement.group(T2)
H_TRHO = HeckeElement.group(TRHO)
H_TRHO_INV = HeckeElement.group(TRHO_INV)


@st.composite
def hecke_elements(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        terms[draw(weyl_elements(r=2))] = Fraction(
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    return HeckeElement(terms)


class TestRelations:
    def test_reflections_square_to_one(self):
        assert H_T1 * H_T1 == ONE
        assert H_T2 * H_T2 == ONE

    def test_rotation_invertible(self):
        assert H_TRHO * H_TRHO_INV == ONE
        assert H_TRHO_INV * H_TRHO == ONE

    def test_rotation_conjugates_reflections(self):
        assert H_TRHO * H_T1 * H_TRHO_INV == H_T2
        assert H_TRHO * H_T2 * H_TRHO_INV == H_T1

    def test_unit(self, rng):
        for _ in range(10):
            a = random_hecke(rng)
            assert ONE * a == a
            assert a * ONE == a

    @given(hecke_elements(), hecke_elements(), st.integers(-2, 2))
    @settings(max_examples=50)
    def test_results_store_only_nonzero_fractions(self, a, b, k):
        assert_canonical_exact(a + b, a - b, a - a, -a, a.scaled(k), k * a, a * b)

    def test_rejects_rank_three_group_elements(self):
        with pytest.raises(ValueError):
            HeckeElement({WeylElement((1, 2, 3), (0, 0, 0)): 1})


class TestEmbedding:
    def test_generator_images(self, e_nu):
        assert hecke_embed(H_T1) == basis(2, (1, 2, 1), (2, 1, 1))
        assert hecke_embed(H_T2) == basis(2, (2, 3, 1), (3, 2, 1))
        assert hecke_embed(H_TRHO) == basis(2, (1, 2, 1), (2, 3, 1))
        assert hecke_embed(H_TRHO_INV) == basis(2, (2, 1, 1), (3, 2, 1))
        assert hecke_embed(ONE) == e_nu

    def test_reflection_square_lands_on_unit(self, e_nu):
        assert hecke_embed(H_T1 * H_T1) == e_nu

    def test_image_lies_in_corner(self, rng, e_nu):
        for _ in range(10):
            x = hecke_embed(random_hecke(rng))
            assert multiply(multiply(e_nu, x), e_nu) == x

    def test_multiplicative(self, rng):
        for _ in range(100):
            a, b = random_hecke(rng), random_hecke(rng)
            assert hecke_embed(a * b) == multiply(
                hecke_embed(a), hecke_embed(b)
            )


class TestPreimage:
    def test_corner_unit(self, e_nu):
        assert hecke_preimage(e_nu) == ONE

    def test_rotation_image(self):
        assert hecke_preimage(basis(2, (1, 2, 1), (2, 3, 1))) == H_TRHO

    def test_sum(self, e_nu):
        x = basis(2, (1, 2, 1), (2, 1, 1)) + e_nu
        assert hecke_preimage(x) == H_T1 + ONE

    def test_round_trip_on_group_basis(self, rng):
        for _ in range(50):
            sigma = rng.choice([(1, 2), (2, 1)])
            eps = (rng.randint(-3, 3), rng.randint(-3, 3))
            h = HeckeElement.group(WeylElement(sigma, eps))
            assert hecke_preimage(hecke_embed(h)) == h

    def test_rejects_non_corner(self, e_lam):
        with pytest.raises(ValueError):
            hecke_preimage(e_lam)


class TestQuotient:
    def test_corner_unit_maps_to_one(self, e_nu):
        assert quotient_image(e_nu) == LaurentPoly1({0: 1})

    def test_reflection_plus_unit_dies(self, e_nu):
        assert quotient_image(hecke_embed(H_T1) + e_nu).is_zero()

    def test_diagonal_idempotents_die(self, e_lam, e_mu):
        assert quotient_image(e_lam).is_zero()
        assert quotient_image(e_mu).is_zero()

    def test_rotation_maps_to_x(self):
        assert quotient_image(hecke_embed(H_TRHO)) == LaurentPoly1({1: 1})
        assert quotient_image(hecke_embed(H_TRHO_INV)) == LaurentPoly1({-1: 1})

    def test_multiplicative(self, rng):
        for _ in range(100):
            x = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            y = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            assert quotient_image(multiply(x, y)) == quotient_image(
                x
            ) * quotient_image(y)

    def test_kills_ideal_elements(self, rng, e_lam):
        for _ in range(50):
            u = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            v = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            assert quotient_image(multiply(multiply(u, e_lam), v)).is_zero()

    @given(algebra_elements(col_lo=-8, col_hi=9))
    @settings(max_examples=60)
    def test_filter_is_the_compression_by_products(self, x):
        """The second route of phi: compress by the two products with the
        corner idempotent, which is the weight filter quotient_image
        takes, and send the corner words to signed powers of x."""
        e_nu = AlgebraElement.basis(diag_matrix(Composition(2, (1, 1))))
        compressed = multiply(multiply(e_nu, x), e_nu)
        assert quotient_image(x) == group_quotient_image(compressed)

    def test_transpose_inverts_variable_on_group_images(self, rng):
        for _ in range(50):
            x = hecke_embed(random_hecke(rng))
            assert quotient_image(x.transpose()) == quotient_image(
                x
            ).invert_variable()


@st.composite
def corner_matrices(draw, lo=-10**4, hi=10**4):
    """A basis matrix of the corner: the orbit of ((1, 2), (j1, j2)) with
    j1 and j2 of opposite parity."""
    j1 = draw(st.integers(min_value=lo, max_value=hi - 1))
    j2 = draw(st.integers(min_value=lo, max_value=hi - 1))
    return pair_to_matrix((1, 2), (j1, j2 + (j2 - j1 + 1) % 2), 2)


class TestQuotientRoutes:
    """The exponent arithmetic of quotient_image against the group route,
    which finds each corner term's group word by a transporter."""

    @given(
        st.lists(corner_matrices(), min_size=1, max_size=4),
        algebra_elements(col_lo=-10**4, col_hi=10**4),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_arithmetic_equals_group_route(self, corners, rest, coeffs):
        x = AlgebraElement(2, 2, dict(zip(corners, coeffs))) + rest
        kept = {
            matrix: coeff
            for matrix, coeff in x.terms.items()
            if matrix.row_vector() == WEIGHT_11 == matrix.col_vector()
        }
        assert quotient_image(x) == group_quotient_image(AlgebraElement(2, 2, kept))

    @given(st.integers(min_value=-300, max_value=300))
    @settings(max_examples=100)
    def test_lift_is_the_rotation_power(self, a):
        power = WeylElement((1, 2), (0, 0))
        step = TRHO if a >= 0 else TRHO_INV
        for _ in range(abs(a)):
            power = power * step
        assert laurent_lift(LaurentPoly1({a: Fraction(3, 2)})) == hecke_embed(
            HeckeElement.group(power, Fraction(3, 2))
        )


class TestLift:
    def test_section_of_quotient(self, rng):
        for _ in range(50):
            p = random_poly1(rng)
            assert quotient_image(laurent_lift(p)) == p

    def test_monomial_lift_is_rotation_power(self):
        assert laurent_lift(LaurentPoly1({1: 1})) == hecke_embed(H_TRHO)
        assert laurent_lift(LaurentPoly1({-2: 1})) == hecke_embed(
            H_TRHO_INV * H_TRHO_INV
        )


class TestHeckeJson:
    def test_round_trip(self):
        h = H_T1.scaled(Fraction(3, 2)) + H_TRHO.scaled(-1)
        assert HeckeElement.from_json(h.to_json()) == h

    def test_merges_duplicate_terms(self):
        data = [
            {"coeff": "1", "sigma": [2, 1], "eps": [0, 0]},
            {"coeff": "1/2", "sigma": [2, 1], "eps": [0, 0]},
        ]
        assert HeckeElement.from_json(data) == H_T1.scaled(Fraction(3, 2))
