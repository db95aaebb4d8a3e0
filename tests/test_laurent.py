from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import LaurentPoly1, LaurentPoly2, corner_involution

from conftest import assert_canonical_exact


@st.composite
def poly1(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        terms[draw(st.integers(min_value=-4, max_value=4))] = Fraction(
            draw(st.integers(min_value=-5, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    return LaurentPoly1(terms)


@st.composite
def poly2(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        key = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
        )
        terms[key] = Fraction(
            draw(st.integers(min_value=-5, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    return LaurentPoly2(terms)


class TestPoly1:
    def test_basic_arithmetic(self):
        x = LaurentPoly1({1: 1})
        xinv = LaurentPoly1({-1: 1})
        assert x * xinv == LaurentPoly1({0: 1})
        assert (x + xinv) * x == x * x + LaurentPoly1({0: 1})

    def test_zero_coefficients_dropped(self):
        p = LaurentPoly1({2: 1})
        assert (p - p).is_zero()

    def test_invert_variable(self):
        p = LaurentPoly1({2: 3, -1: Fraction(1, 2)})
        q = p.invert_variable()
        assert q == LaurentPoly1({-2: 3, 1: Fraction(1, 2)})
        assert q.invert_variable() == p

    def test_json_round_trip(self):
        p = LaurentPoly1({1: 1, -3: Fraction(-2, 3)})
        assert LaurentPoly1.from_json(p.to_json()) == p

    @given(poly1(), poly1(), poly1())
    @settings(max_examples=50)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(poly1(), poly1(), st.integers(-2, 2))
    @settings(max_examples=50)
    def test_results_store_only_nonzero_fractions(self, a, b, k):
        assert_canonical_exact(
            a + b, a - b, a - a, -a, a.scaled(k), k * a, a * b, a.invert_variable()
        )

    @pytest.mark.parametrize("exponent", [2.9, 2.0, True, Fraction(2)])
    def test_rejects_non_int_exponents(self, exponent):
        with pytest.raises(ValueError):
            LaurentPoly1({exponent: 1})

    @pytest.mark.parametrize("key", ["1_0", " 3", "3 ", "+3", "03", "-0"])
    def test_json_rejects_sloppy_keys(self, key):
        with pytest.raises(ValueError):
            LaurentPoly1.from_json({"poly": {key: "1"}})

    def test_does_not_mix_with_poly2(self):
        with pytest.raises(TypeError):
            LaurentPoly1({0: 1}) + LaurentPoly2.one()
        with pytest.raises(TypeError):
            LaurentPoly2.one() + LaurentPoly1({0: 1})
        assert LaurentPoly1({0: 1}) != LaurentPoly2.one()


class TestPoly2:
    def test_generators(self):
        x1, x2 = LaurentPoly2.x1(), LaurentPoly2.x2()
        assert x2 * LaurentPoly2.x2(-1) == LaurentPoly2.one()
        assert x1 * x2 == LaurentPoly2.monomial(1, 1)

    def test_rejects_negative_first_exponent(self):
        with pytest.raises(ValueError):
            LaurentPoly2.monomial(-1, 0)

    @pytest.mark.parametrize(
        "key", [(1.5, 0.2), (1.0, 0), (1, 0.0), (True, 0), (0, False)]
    )
    def test_rejects_non_int_exponents(self, key):
        with pytest.raises(ValueError):
            LaurentPoly2({key: 1})

    @pytest.mark.parametrize("key", ["1_0,2", "1,2_0", "1, 2", " 1,2", "1,+2", "01,2"])
    def test_json_rejects_sloppy_keys(self, key):
        with pytest.raises(ValueError):
            LaurentPoly2.from_json({"poly": {key: "1"}})

    def test_json_round_trip(self):
        p = LaurentPoly2({(2, -1): Fraction(5, 2), (0, 3): -1})
        assert LaurentPoly2.from_json(p.to_json()) == p

    @given(poly2(), poly2(), poly2())
    @settings(max_examples=50)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(poly2(), poly2(), st.integers(-2, 2))
    @settings(max_examples=50)
    def test_results_store_only_nonzero_fractions(self, a, b, k):
        assert_canonical_exact(
            a + b, a - b, a - a, -a, a.scaled(k), k * a, a * b, corner_involution(a)
        )
