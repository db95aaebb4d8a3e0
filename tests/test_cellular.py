import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affschur
from affschur import (
    AlgebraElement,
    CellTensor,
    CellVector,
    GEN_X1,
    GEN_X2,
    GEN_X2_INV,
    LEFT_BASIS,
    LaurentPoly2,
    MembershipResult,
    RIGHT_BASIS,
    UndecidedError,
    batch_ideal_membership,
    corner_involution,
    corner_to_laurent,
    decompose_left,
    decompose_right,
    grade,
    hecke_embed,
    ideal_membership,
    idempotent_02,
    idempotent_11,
    idempotent_20,
    laurent_to_corner,
    monomial_image,
    multiply,
    tensor_involution,
    tensor_to_ideal,
)
from affschur import cellular, core
from affschur.cellular import (
    SIGNATURE_BLOCKS,
    WEIGHT_11,
    WEIGHT_20,
    WindowBlocks,
    _base_coords,
    module_element,
    omega_candidates,
    omega_element,
    stem_system,
)
from affschur.hecke import HeckeElement, T1, T2
from affschur.sampling import random_element, random_poly2, random_tensor_cells

from conftest import basis, mat

ONE = LaurentPoly2.one()
X1 = LaurentPoly2.x1()
X2 = LaurentPoly2.x2()
X2I = LaurentPoly2.x2(-1)


def tensor(*cells):
    """The tensor whose cell (l, m) is the sum of the polynomials p given
    as (l, m, p)."""
    grid = [[LaurentPoly2.zero()] * 4 for _ in range(4)]
    for l, m, p in cells:
        grid[l][m] = grid[l][m] + p
    return CellTensor(tuple(map(tuple, grid)))


class TestCornerRing:
    def test_generator_images(self, e_lam):
        assert laurent_to_corner(X1) == AlgebraElement.basis(GEN_X1)
        assert laurent_to_corner(X2) == AlgebraElement.basis(GEN_X2)
        assert laurent_to_corner(X2I) == AlgebraElement.basis(GEN_X2_INV)
        assert laurent_to_corner(ONE) == e_lam

    def test_inverse_pair_collapses(self, e_lam):
        assert laurent_to_corner(X2 * X2I) == e_lam

    def test_first_generator_square(self):
        # golden value computed with the orbit-counting product
        assert laurent_to_corner(X1 * X1) == basis(2, (1, 3, 2)).scaled(
            2
        ) + basis(2, (1, 1, 1), (1, 5, 1))

    def test_commutative_on_samples(self, rng):
        for _ in range(30):
            p = random_poly2(rng)
            q = random_poly2(rng)
            assert multiply(laurent_to_corner(p), laurent_to_corner(q)) == (
                laurent_to_corner(p * q)
            )

    def test_polynomial_of_unit(self, e_lam):
        assert corner_to_laurent(e_lam) == ONE

    def test_polynomial_of_negative_loop(self):
        assert corner_to_laurent(basis(2, (3, 1, 2))) == X2I

    def test_polynomial_of_mixed_pair(self):
        assert corner_to_laurent(
            basis(2, (1, 1, 1), (3, 1, 1))
        ) == LaurentPoly2.monomial(1, -1)

    def test_round_trip_on_samples(self, rng):
        for _ in range(25):
            p = random_poly2(rng)
            assert corner_to_laurent(laurent_to_corner(p)) == p

    def test_rejects_non_corner(self, e_nu):
        with pytest.raises(ValueError):
            corner_to_laurent(e_nu)

    def test_undecided_when_window_capped(self):
        x = basis(2, (1, 7, 2))  # needs window 7
        with pytest.raises(UndecidedError):
            corner_to_laurent(x, max_window=2)

    def test_polynomial_equals_the_solver_route(self):
        """The polynomial read off the left-module closed forms is the one
        the windowed solve over the monomial block gives, on random corner
        elements that fit the window, which is also the cap."""
        rng = random.Random(11)
        compared = 0
        for window in [*range(1, 25), 48, 64]:
            odd = [j for j in range(-window, window + 1) if j % 2]
            elements = []
            for _ in range(10 if window <= 24 else 5):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    i, j = sorted(rng.choice(odd) for _ in range(2))
                    terms[mat(2, (1, i, 1), (1, j, 1))] = Fraction(
                        rng.choice([-7, -2, -1, 1, 3, 12]), rng.randint(1, 3)
                    )
                elements.append(AlgebraElement(2, 2, terms))
            if window in (24, 48):
                # every corner matrix of the window at once
                elements.append(
                    AlgebraElement(
                        2,
                        2,
                        {
                            mat(2, (1, i, 1), (1, j, 1)): rng.randint(1, 9)
                            for i in odd
                            for j in odd
                            if i <= j
                        },
                    )
                )
            solved = WindowBlocks(window).coordinates(elements)
            for x, coords in zip(elements, solved):
                assert coords is not None, (window, x)
                expected = LaurentPoly2(
                    {(a, b): value for (_, _, a, b), value in coords.items()}
                )
                assert corner_to_laurent(x, max_window=window) == expected, x
                compared += 1
        assert compared >= 200

    def test_polynomial_needs_no_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("corner_to_laurent built a Factorization")

        monkeypatch.setattr(cellular.Factorization, "__init__", refuse)
        p = LaurentPoly2({(3, -2): 5, (0, 4): Fraction(1, 2), (1, -9): -1})
        assert corner_to_laurent(laurent_to_corner(p)) == p
        wide = basis(2, (1, -63, 1), (1, 63, 1))
        assert laurent_to_corner(corner_to_laurent(wide)) == wide


    def test_monomial_images_need_no_recursion(self):
        """monomial_image fills its cache bottom-up: exponents far above a
        recursion limit of 120 are built, and agree with products of
        smaller powers."""
        src = str(Path(affschur.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "from affschur import idempotent_20, monomial_image, multiply\n"
            "sys.setrecursionlimit(120)\n"
            "assert multiply(monomial_image(0, 200), monomial_image(0, -200))"
            " == idempotent_20()\n"
            "assert monomial_image(130, 0)"
            " == multiply(monomial_image(65, 0), monomial_image(65, 0))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-300:]


class TestCornerInvolution:
    def test_on_generators(self):
        assert corner_involution(X2) == X2I
        assert corner_involution(X1) == LaurentPoly2.monomial(1, -1)

    def test_involution(self, rng):
        for _ in range(25):
            p = random_poly2(rng)
            assert corner_involution(corner_involution(p)) == p

    def test_matches_transpose_transport(self, rng):
        for _ in range(25):
            p = random_poly2(rng)
            via_matrices = corner_to_laurent(laurent_to_corner(p).transpose())
            assert corner_involution(p) == via_matrices

    def test_ring_map(self, rng):
        for _ in range(25):
            p, q = random_poly2(rng), random_poly2(rng)
            assert corner_involution(p * q) == corner_involution(
                p
            ) * corner_involution(q)


class TestDecomposeLeft:
    def test_spread_two(self):
        vector = decompose_left(basis(2, (1, 1, 1), (1, 3, 1)))
        assert vector.coords == (
            LaurentPoly2.zero(),
            LaurentPoly2.zero(),
            X1,
            LaurentPoly2.zero(),
        )

    def test_spread_three(self):
        vector = decompose_left(basis(2, (1, 1, 1), (1, 4, 1)))
        assert vector.coords[0] == X1
        assert vector.coords[1] == ONE.scaled(-1)
        assert vector.coords[2].is_zero() and vector.coords[3].is_zero()

    def test_spread_four(self):
        vector = decompose_left(basis(2, (1, 1, 1), (1, 5, 1)))
        assert vector.coords[2] == X1 * X1 - 2 * X2

    def test_basis_member_is_itself(self):
        vector = decompose_left(basis(2, (1, 2, 2)))
        assert vector.coords == (
            LaurentPoly2.zero(),
            LaurentPoly2.zero(),
            LaurentPoly2.zero(),
            ONE,
        )

    def test_rejects_wrong_row(self, e_nu):
        with pytest.raises(ValueError):
            decompose_left(e_nu)

    def test_round_trips(self):
        for i in range(-9, 10):
            for j in range(i, 10):
                x = (
                    basis(2, (1, i, 2))
                    if i == j
                    else basis(2, (1, i, 1), (1, j, 1))
                )
                assert decompose_left(x).to_element() == x

    def test_linear_combination(self, rng):
        for _ in range(15):
            x = AlgebraElement.zero(2, 2)
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(-5, 5)
                j = rng.randint(i, 6)
                term = (
                    basis(2, (1, i, 2))
                    if i == j
                    else basis(2, (1, i, 1), (1, j, 1))
                )
                x = x + term.scaled(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            assert decompose_left(x).to_element() == x


class TestDecomposeRight:
    def test_transposed_spread_two(self):
        x = basis(2, (1, 1, 1), (1, 3, 1)).transpose()
        vector = decompose_right(x)
        # the transpose transports x1 to x1 * x2^-1 on the third slot
        assert vector.coords[2] == LaurentPoly2.monomial(1, -1)
        assert vector.to_element() == x

    def test_basis_member_is_itself(self):
        x = basis(2, (2, 1, 2))
        vector = decompose_right(x)
        assert vector.coords[3] == ONE
        assert vector.to_element() == x

    def test_unit(self, e_lam):
        vector = decompose_right(e_lam)
        assert vector.coords[2] == ONE
        assert vector.to_element() == e_lam

    def test_rejects_wrong_col(self, e_nu):
        with pytest.raises(ValueError):
            decompose_right(e_nu)

    def test_round_trips(self):
        for i in range(-7, 8):
            for j in range(i, 8):
                x = (
                    basis(2, (1, i, 2))
                    if i == j
                    else basis(2, (1, i, 1), (1, j, 1))
                ).transpose()
                assert decompose_right(x).to_element() == x


def _coord_unit(index, poly):
    zero = LaurentPoly2.zero()
    coords = [zero, zero, zero, zero]
    coords[index] = poly
    return tuple(coords)


def _combine(left, right, factor, shift):
    """factor * left - shift * right, coordinatewise."""
    return tuple(factor * lc - shift * rc for lc, rc in zip(left, right))


# The oracle of the closed forms: the x1-action recurrence
# c_l = x1 c_(l-2) - x2 c_(l-4) for the left-basis coordinates of the pairs
# {1, l} (x) and {2, l} (y), l >= 1, from hand-set seeds, filled bottom-up.
_X_COORDS = {
    1: _coord_unit(2, ONE),
    2: _coord_unit(0, ONE),
    3: _coord_unit(2, X1),
    # the l-2 recurrence lands on the pair {0, 1}, which renormalizes to
    # x2^-1 times the second basis element
    4: _combine(_coord_unit(0, ONE), _coord_unit(1, X2I), X1, X2),
    5: _coord_unit(2, X1 * X1 - 2 * X2),
}
_Y_COORDS = {
    1: _coord_unit(0, ONE),
    2: _coord_unit(3, ONE),
    3: _coord_unit(1, ONE),
    4: _coord_unit(3, X1),
}
_Y_COORDS[6] = _combine(_Y_COORDS[4], _Y_COORDS[2], X1, 2 * X2)


def _recurrence(cache, l):
    if l not in cache:
        for k in range(2 - l % 2, l + 1, 2):
            if k not in cache:
                cache[k] = _combine(cache[k - 2], cache[k - 4], X1, X2)
    return cache[l]


def _oracle_coords(column, width):
    """The recurrence's coordinates of the base pair {column, column + width}."""
    if column == 1:
        return _recurrence(_X_COORDS, width + 1)
    return _recurrence(_Y_COORDS, width + 2)


def _product_pair_coords(i, j):
    """The x2^s-product formula for the left coordinates of the pair
    {i, j}: the oracle's coordinates of its base pair multiplied by x2^s."""
    if i > j:
        i, j = j, i
    column = 2 - i % 2
    shift = LaurentPoly2.x2((i - column) // 2)
    return tuple(shift * c for c in _oracle_coords(column, j - i))


class TestClosedForms:
    def test_closed_forms_equal_the_recurrence(self):
        for width in range(160):
            for column in (1, 2):
                assert _base_coords(column, width) == _oracle_coords(
                    column, width
                ), (column, width)

    def test_wide_pair_is_a_power_sum(self):
        """The pair {1, 4001} is p_2000 times the corner unit: Waring's
        formula has 1,001 terms, ending in 2 x2^1000.  Only the widths
        asked for are computed, so this takes a fraction of a second."""
        coords = decompose_left(pairelt(1, 4001)).coords
        assert [p.is_zero() for p in coords] == [True, True, False, True]
        power = coords[2].terms
        assert len(power) == 1001
        assert power[(2000, 0)] == 1
        assert power[(1998, 1)] == -2000
        assert power[(0, 1000)] == 2


@st.composite
def wide_pair_elements(draw):
    """A row-(2,0) element of one to four pairs {i, j}, each up to 200
    columns wide, with the pairs and their coefficients."""
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=-10**4, max_value=10**4))
        j = i + draw(st.integers(min_value=0, max_value=200))
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms.append((i, j, coeff))
    x = AlgebraElement.zero(2, 2)
    for i, j, coeff in terms:
        x = x + pairelt(i, j).scaled(coeff)
    return x, terms


class TestDecompositionRoutes:
    """decompose_left adds each base coefficient at its shifted key; the
    product by x2^s that it replaces is the reference."""

    @staticmethod
    def product_coords(terms):
        coords = [LaurentPoly2.zero()] * 4
        for i, j, coeff in terms:
            coords = [
                c + poly.scaled(coeff)
                for c, poly in zip(coords, _product_pair_coords(i, j))
            ]
        return tuple(coords)

    @given(wide_pair_elements())
    @settings(max_examples=100)
    def test_left_equals_product_formula(self, drawn):
        x, terms = drawn
        assert decompose_left(x).coords == self.product_coords(terms)

    @given(wide_pair_elements())
    @settings(max_examples=100)
    def test_right_equals_product_formula(self, drawn):
        x, terms = drawn
        assert decompose_right(x.transpose()).coords == tuple(
            corner_involution(p) for p in self.product_coords(terms)
        )


def pairelt(i, j):
    return basis(2, (1, i, 2)) if i == j else basis(2, (1, i, 1), (1, j, 1))


class TestGeneratorActionTables:
    """Case structure of the generator actions on the row-(2,0) span,
    validated against the orbit-counting product across the special
    cases (equal columns, spread two) as well as the generic one."""

    def test_first_generator_cases(self):
        x1 = laurent_to_corner(X1)
        for i in range(-4, 5):
            for j in range(i, 6):
                got = multiply(x1, pairelt(i, j))
                if i == j:
                    expected = pairelt(i + 2, j)
                elif i == j - 2:
                    expected = pairelt(i + 2, j).scaled(2) + pairelt(i, j + 2)
                else:
                    expected = pairelt(i + 2, j) + pairelt(i, j + 2)
                assert got == expected, (i, j)

    def test_invertible_generator_shifts(self):
        x2 = laurent_to_corner(X2)
        x2i = laurent_to_corner(X2I)
        for i in range(-4, 5):
            for j in range(i, 6):
                assert multiply(x2, pairelt(i, j)) == pairelt(i + 2, j + 2)
                assert multiply(x2i, pairelt(i, j)) == pairelt(i - 2, j - 2)

    def test_spread_recurrence_table(self):
        x1 = laurent_to_corner(X1)
        x2 = laurent_to_corner(X2)

        def span1(l):
            return pairelt(min(1, l), max(1, l))

        for l in range(-6, 9):
            got = multiply(x1, span1(l))
            if l == 1:
                expected = span1(3)
            elif l == 3:
                expected = span1(5) + multiply(x2, span1(1)).scaled(2)
            elif l == -1:
                expected = span1(1).scaled(2) + multiply(x2, span1(-3))
            else:
                expected = span1(l + 2) + multiply(x2, span1(l - 2))
            assert got == expected, l

    def test_shifted_spread_recurrence_table(self):
        x1 = laurent_to_corner(X1)
        x2 = laurent_to_corner(X2)

        def span2(l):
            return pairelt(min(2, l), max(2, l))

        for l in range(-6, 9):
            got = multiply(x1, span2(l))
            if l == 2:
                expected = span2(4)
            elif l == 4:
                expected = span2(6) + multiply(x2, span2(2)).scaled(2)
            elif l == 0:
                expected = span2(2).scaled(2) + multiply(x2, span2(-2))
            else:
                expected = span2(l + 2) + multiply(x2, span2(l - 2))
            assert got == expected, l


class TestRecurrenceGrading:
    def test_x_series_degrees(self):
        # spreads grow by two in degree under the first generator
        for l in range(1, 10):
            target = mat(2, (1, 1, 2)) if l == 1 else mat(2, (1, 1, 1), (1, l, 1))
            assert grade(target) == l - 1

    def test_coordinates_match_degrees(self):
        # every coordinate monomial of the pair {1, l} satisfies
        # 2a + 4b + grade(basis element) = l - 1
        for l in range(2, 13):
            coords = _oracle_coords(1, l - 1)
            for idx, poly in enumerate(coords):
                for (a, b), _ in poly.terms.items():
                    assert 2 * a + 4 * b + grade(LEFT_BASIS[idx]) == l - 1

    def test_y_coordinates_match_degrees(self):
        for l in range(3, 13):
            coords = _oracle_coords(2, l - 2)
            for idx, poly in enumerate(coords):
                for (a, b), _ in poly.terms.items():
                    assert 2 * a + 4 * b + grade(LEFT_BASIS[idx]) == l


class TestTranslation:
    def test_translated_elements_equal_direct_products(self, e_lam):
        """Elements with an x2^b factor are built by moving the columns of
        their b = 0 member; they must equal the products of generators."""
        x1 = AlgebraElement.basis(GEN_X1)
        for b in range(-6, 7):
            x2_step = AlgebraElement.basis(GEN_X2 if b > 0 else GEN_X2_INV)
            mono = e_lam
            for _ in range(abs(b)):
                mono = multiply(mono, x2_step)
            for a in range(7):
                assert monomial_image(a, b) == mono, (a, b)
                rights = []
                for k in range(4):
                    left = multiply(mono, AlgebraElement.basis(LEFT_BASIS[k]))
                    right = multiply(AlgebraElement.basis(RIGHT_BASIS[k]), mono)
                    assert module_element("left", k, a, b) == left, (k, a, b)
                    assert module_element("right", k, a, b) == right, (k, a, b)
                    rights.append(right)
                for l in range(4):
                    for m in range(4):
                        direct = multiply(
                            rights[l], AlgebraElement.basis(LEFT_BASIS[m])
                        )
                        assert omega_element(l, m, a, b) == direct, (l, m, a, b)
                mono = multiply(mono, x1)

    def test_translated_matrices_are_interned(self):
        # omega(0,0,2,1) meets omega(0,0,0,2) in two matrices; equal
        # translated matrices must be one object
        first = omega_element(0, 0, 2, 1)
        second = omega_element(0, 0, 0, 2)
        shared = set(first.terms) & set(second.terms)
        assert len(shared) == 2
        objects = {id(m) for m in first.terms} & {id(m) for m in second.terms}
        assert len(objects) == 2

    def test_transposed_matrices_are_interned(self):
        # every matrix of a spanning element and of its transpose is the
        # interned object, so transposing back returns the matrix itself
        for l, m, a, b in [(0, 0, 2, 1), (1, 3, 0, -2), (2, 1, 3, 0)]:
            element = omega_element(l, m, a, b)
            transposed = element.transpose()
            assert transposed == omega_element(m, l, a, -a - b)
            for matrix in [*element.terms, *transposed.terms]:
                assert core._MATRICES[(matrix.n, matrix.entries)] is matrix
                assert matrix.transpose().transpose() is matrix

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            module_element("middle", 0, 0, 0)


def _fits(element, window):
    """Whether the element is nonzero with its column support inside
    [-window, window]: the test each reference candidate passes."""
    support = cellular._column_support(element)
    return bool(support) and all(-window <= j <= window for j in support)


def _reference_omega_candidates(window):
    """Every omega element on the enumeration grid, kept when it fits:
    the loop that built each candidate before testing it."""
    out = []
    for l in range(4):
        for m in range(4):
            b = -(window + 3) // 2 - 1
            while 2 * b + 1 <= window + 2:
                if 2 * b + 1 >= -window - 2:
                    a = 0
                    while 2 * a + 2 * b + 1 <= window + 2:
                        element = omega_element(l, m, a, b)
                        if _fits(element, window):
                            out.append(((l, m, a, b), element))
                        a += 1
                b += 1
    return out


def _reference_module_candidates(window):
    return [
        ((k, a, b), element)
        for k in range(4)
        for b in range(-(window + 1) // 2 - 1, (window - 1) // 2 + 1)
        for a in range((window - 2 * b - 1) // 2 + 1)
        for element in [module_element("left", k, a, b)]
        if _fits(element, window)
    ]


def _reference_corner_grid(window):
    """The monomial grid that corner_to_laurent once solved against at
    one window, unfiltered."""
    return [
        ((a, b), monomial_image(a, b))
        for b in range(-((window - 1) // 2) - 1, (window - 1) // 2 + 1)
        if 2 * b + 1 >= -window
        for a in range((window - 2 * b - 1) // 2 + 1)
    ]


class TestX2Families:
    """Members with b != 0 are filled by one move of their b = 0 member,
    in any order."""

    FAMILIES = [
        ("monomial", lambda a, b: monomial_image(a, b)),
        *[
            (f"{side}-{k}", lambda a, b, side=side, k=k: module_element(side, k, a, b))
            for side in ("left", "right")
            for k in range(4)
        ],
        *[
            (f"omega-{l}{m}", lambda a, b, l=l, m=m: omega_element(l, m, a, b))
            for l in range(4)
            for m in range(4)
        ],
    ]

    def test_fill_order_does_not_matter(self, monkeypatch, e_lam):
        bs = list(range(-12, 13))
        shuffled = bs[:]
        random.Random(5).shuffle(shuffled)
        filled = []
        for order in (bs, bs[::-1], shuffled):
            monkeypatch.setattr(cellular, "_OMEGA_CACHE", {})
            filled.append(
                {
                    (name, a, b): family(a, b)
                    for a in (0, 3)
                    for b in order
                    for name, family in self.FAMILIES
                }
            )
        first = filled[0]
        for other in filled[1:]:
            assert other.keys() == first.keys()
            for key, element in first.items():
                assert other[key] == element, key
                # the same interned matrices, whichever way they were reached
                assert [id(m) for m in other[key].terms] == [
                    id(m) for m in element.terms
                ], key
        for (name, a, b), element in first.items():
            assert element == first[(name, a, 0)].translated(b), (name, a, b)
            for matrix in element.terms:
                assert core._MATRICES[(matrix.n, matrix.entries)] is matrix

        # the direct generator products
        x1_cubed = multiply(
            multiply(AlgebraElement.basis(GEN_X1), AlgebraElement.basis(GEN_X1)),
            AlgebraElement.basis(GEN_X1),
        )
        for b in bs:
            x2_step = AlgebraElement.basis(GEN_X2 if b > 0 else GEN_X2_INV)
            mono = e_lam
            for _ in range(abs(b)):
                mono = multiply(mono, x2_step)
            for a, x1_power in ((0, e_lam), (3, x1_cubed)):
                corner = multiply(mono, x1_power)
                assert first[("monomial", a, b)] == corner
                for k in range(4):
                    left = AlgebraElement.basis(LEFT_BASIS[k])
                    right = AlgebraElement.basis(RIGHT_BASIS[k])
                    assert first[(f"left-{k}", a, b)] == multiply(corner, left)
                    assert first[(f"right-{k}", a, b)] == multiply(right, corner)
                    for m in range(4):
                        assert first[(f"omega-{k}{m}", a, b)] == multiply(
                            multiply(right, corner), AlgebraElement.basis(LEFT_BASIS[m])
                        )

    def test_window_candidates_equal_the_filtered_grid(self):
        for window in range(1, 31):
            candidates = omega_candidates(window)
            assert candidates == _reference_omega_candidates(window), window
            # the left module and the corner monomials are cells of the family
            module = [
                ((m, a, b), element)
                for (l, m, a, b), element in candidates
                if l == 2
            ]
            assert module == _reference_module_candidates(window), window
            corner = [
                ((a, b), element)
                for (l, m, a, b), element in candidates
                if (l, m) == (2, 2)
            ]
            assert corner == _reference_corner_grid(window), window

    def test_views_are_the_omega_cells(self):
        for a in range(9):
            for b in range(-8, 9):
                assert monomial_image(a, b) is omega_element(2, 2, a, b)
                for k in range(4):
                    assert module_element("left", k, a, b) is omega_element(2, k, a, b)
                    assert module_element("right", k, a, b) is omega_element(k, 2, a, b)

    def test_width_grows_by_two_per_x1_step(self):
        # the premise of the a-range stop in omega_candidates
        def width(l, m, a):
            support = cellular._column_support(omega_element(l, m, a, 0))
            return max(support) - min(support)

        for l in range(4):
            for m in range(4):
                base = width(l, m, 0)
                for a in range(41):
                    assert width(l, m, a) == base + 2 * a, (l, m, a)


class TestStems:
    def test_stems_are_the_classes_of_the_product_chain(self):
        """Each stem's triples are the classes of the chain of element
        products it replaces: x1 steps for cell (2, 2), right basis l
        times x1^a for the cells (l, 2), and that times left basis m for
        the rest.  A stem names each class once."""
        x1 = AlgebraElement.basis(GEN_X1)
        power = AlgebraElement.basis(cellular.IDEM_20_MAT)
        for a in range(31):
            rights = [
                multiply(AlgebraElement.basis(RIGHT_BASIS[l]), power) for l in range(4)
            ]
            rights[2] = power
            for l in range(4):
                for m in range(4):
                    if m == 2:
                        product = rights[l]
                    else:
                        left = AlgebraElement.basis(LEFT_BASIS[m])
                        product = multiply(rights[l], left)
                    stem = cellular._stem_classes(l, m, a)
                    classes = {(shape, k): value for shape, k, value in stem}
                    assert len(classes) == len(stem), (l, m, a)
                    assert classes == {
                        matrix.translation_class(): c
                        for matrix, c in product.terms.items()
                    }, (l, m, a)
            power = multiply(power, x1)


class TestFreenessShortcut:
    """The premise of the base-pair round trips of module-basis-freeness:
    the pair {i, j} is its base pair, smaller column in {1, 2}, moved by
    k = (i - 1) // 2 periods, and both decomposition and contraction
    commute with that move."""

    PAIRS = [(i, j) for i in range(-9, 10) for j in range(i, 10)]

    @staticmethod
    def base(i, j):
        k = (i - 1) // 2
        return (i - 2 * k, j - 2 * k), k

    def test_base_pair_moved_is_the_pair(self):
        for i, j in self.PAIRS:
            (i0, j0), k = self.base(i, j)
            assert i0 in (1, 2)
            assert pairelt(i0, j0).translated(k) == pairelt(i, j)

    def test_left_coordinates_move_by_x2_power(self):
        for i, j in self.PAIRS:
            (i0, j0), k = self.base(i, j)
            base = decompose_left(pairelt(i0, j0))
            moved = decompose_left(pairelt(i, j))
            assert moved.coords == tuple(
                c * LaurentPoly2.x2(k) for c in base.coords
            ), (i, j)
            assert moved.to_element() == base.to_element().translated(k)

    def test_right_coordinates_move_by_inverse_x2_power(self):
        for i, j in self.PAIRS:
            (i0, j0), k = self.base(i, j)
            base = decompose_right(pairelt(i0, j0).transpose())
            moved = decompose_right(pairelt(i, j).transpose())
            assert moved.coords == tuple(
                c * LaurentPoly2.x2(-k) for c in base.coords
            ), (i, j)
            assert moved.to_element() == base.to_element().translated(-k)

    def test_contraction_commutes_with_translation(self):
        # x2 is central: on either side, coordinates times x2^k contract to
        # the element moved by k periods
        for side in ("left", "right"):
            for i, j in self.PAIRS:
                vector = decompose_left(pairelt(i, j))
                for k in (-3, 1, 4):
                    moved = CellVector(
                        side,
                        tuple(c * LaurentPoly2.x2(k) for c in vector.coords),
                    )
                    plain = CellVector(side, vector.coords)
                    assert moved.to_element() == plain.to_element().translated(
                        k
                    ), (side, i, j, k)


def _integral(element):
    return all(type(c) is int for c in element.terms.values())


class TestIntegrality:
    """The spanning elements and decomposition coordinates lie in the
    Z-form: every stored coefficient is an int, not a Fraction."""

    def test_spanning_elements(self):
        for a in range(7):
            for b in range(-6, 7):
                assert _integral(monomial_image(a, b)), (a, b)
                for k in range(4):
                    assert _integral(module_element("left", k, a, b)), (k, a, b)
                    assert _integral(module_element("right", k, a, b)), (k, a, b)
                for l in range(4):
                    for m in range(4):
                        assert _integral(omega_element(l, m, a, b)), (l, m, a, b)

    def test_recurrence_coordinates(self):
        """The closed forms, like the recurrence they replace, stay in
        ints: n/(n-k) C(n-k, k) is an integer."""
        for width in range(40):
            for poly in _base_coords(1, width) + _base_coords(2, width):
                assert _integral(poly), width


class TestTensorToIdeal:
    def test_unit_cell_is_idempotent(self, e_lam):
        t = tensor((2, 2, ONE))
        assert tensor_to_ideal(t) == e_lam

    def test_corner_product_cell(self, e_nu):
        t = tensor((0, 0, ONE))
        expected = hecke_embed(HeckeElement.group(T1)) + e_nu
        assert tensor_to_ideal(t) == expected

    def test_coefficient_absorbed(self):
        t = tensor((2, 2, X2))
        assert tensor_to_ideal(t) == basis(2, (1, 3, 2))

    def test_linear(self, rng):
        for _ in range(10):
            cells_a = random_tensor_cells(rng)
            cells_b = random_tensor_cells(rng)
            assert tensor_to_ideal(tensor(*cells_a, *cells_b)) == tensor_to_ideal(
                tensor(*cells_a)
            ) + tensor_to_ideal(tensor(*cells_b))


class TestTensorJson:
    def test_round_trip(self):
        t = tensor((1, 3, X2), (2, 2, ONE))
        assert CellTensor.from_json(t.to_json()) == t

    @pytest.mark.parametrize("key", ["1_0,2", "0, 1", "0,+1", "00,1"])
    def test_rejects_sloppy_exponent_keys(self, key):
        data = tensor((1, 3, X2)).to_json()
        data["coords"][1][3] = {"poly": {key: "1"}}
        with pytest.raises(ValueError):
            CellTensor.from_json(data)


class TestTensorInvolution:
    def test_unit_cell_fixed(self):
        t = tensor((2, 2, ONE))
        assert tensor_involution(t) == t

    def test_swaps_and_inverts(self):
        t = tensor((1, 3, X2))
        swapped = tensor_involution(t)
        assert swapped.cell(3, 1) == X2I
        assert swapped.cell(1, 3).is_zero()

    def test_involution(self, rng):
        for _ in range(20):
            t = tensor(*random_tensor_cells(rng))
            assert tensor_involution(tensor_involution(t)) == t

    def test_json_round_trip(self):
        t = tensor((0, 3, X1 - 2 * X2I))
        assert CellTensor.from_json(t.to_json()) == t


class TestIdealToTensor:
    """An ideal element's tensor coordinates are the certificate of
    ``ideal_membership``.  Its verdicts for a non-member and for support
    beyond the cap are tested in ``TestMembership``."""

    def test_idempotent(self, e_lam):
        t = ideal_membership(e_lam, window=6, max_window=6).tensor
        assert t.cell(2, 2) == ONE
        assert sum(1 for row in t.coords for p in row if not p.is_zero()) == 1

    def test_corner_product(self, e_nu):
        x = hecke_embed(HeckeElement.group(T1)) + e_nu
        t = ideal_membership(x, window=6, max_window=6).tensor
        assert t.cell(0, 0) == ONE

    def test_scaled_idempotent_matches_triple_product(self, e_lam, e_nu):
        t1 = hecke_embed(HeckeElement.group(T1))
        triple = multiply(
            multiply(basis(2, (1, 1, 1), (1, 2, 1)), t1 + e_nu),
            basis(2, (1, 1, 1), (2, 1, 1)),
        )
        assert triple == e_lam.scaled(4)
        via_product = ideal_membership(triple, window=6, max_window=6).tensor
        via_scaling = ideal_membership(e_lam.scaled(4), window=6, max_window=6).tensor
        assert via_product == via_scaling
        assert via_product.cell(2, 2) == ONE.scaled(4)

    def test_round_trip_on_random_ideal_elements(self, rng, e_lam):
        for _ in range(12):
            u = random_element(rng, 2, 2, terms=2, col_lo=-2, col_hi=3)
            v = random_element(rng, 2, 2, terms=2, col_lo=-2, col_hi=3)
            x = multiply(multiply(u, e_lam), v)
            if x.is_zero():
                continue
            t = ideal_membership(x, window=10, max_window=10).tensor
            assert tensor_to_ideal(t) == x

    def test_window_growth_finds_answer(self, e_mu):
        # starting window too small, cap large enough: growth succeeds
        t = ideal_membership(e_mu, window=1, max_window=8).tensor
        assert tensor_to_ideal(t) == e_mu


@pytest.fixture
def solve_calls(monkeypatch):
    """The argument tuples (factorization, rhs list) of every block solve
    made by cellular."""
    calls = []
    solve = cellular.Factorization.solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cellular.Factorization, "solve", counting)
    return calls


def _columns(placements):
    """Each column of a block system as the [(row index, value)] list its
    placement generates: its stem's values at the stem's rows plus the
    shift."""
    return [
        [(row + shift, value) for row, value in stem] for stem, shift in placements
    ]


def _row_classes(shape_rows, nrows):
    """The translation class (shape, k) of each row of a block system, in
    row order; the shapes' ranges must tile the rows without overlap."""
    rows = [None] * nrows
    for shape, (offset, k_lo, k_hi) in shape_rows.items():
        for k in range(k_lo, k_hi + 1):
            assert rows[offset + k] is None
            rows[offset + k] = (shape, k)
    assert None not in rows
    return rows


class TestMembership:
    def test_column_idempotent_member(self, e_mu):
        result = ideal_membership(e_mu, window=6, max_window=6)
        assert result.is_member
        assert result.tensor.cell(3, 3) == ONE

    def test_corner_unit_not_member(self, e_nu):
        result = ideal_membership(e_nu, window=10, max_window=10)
        assert result.status == MembershipResult.NOT_MEMBER

    def test_conjugated_reflection_member(self, e_nu):
        x = hecke_embed(HeckeElement.group(T2)) + e_nu
        result = ideal_membership(x, window=8, max_window=8)
        assert result.is_member

    def test_starved_window_undecided(self, e_mu):
        result = ideal_membership(e_mu, window=1, max_window=1)
        assert result.status == MembershipResult.UNDECIDED

    def test_member_reports_deciding_window(self, e_lam, e_mu, e_nu):
        result = ideal_membership(e_lam, window=2, max_window=24)
        assert result.is_member
        assert result.window == 2
        # a member found only after the ladder doubled reports that window
        grown = ideal_membership(e_mu, window=1, max_window=24)
        assert grown.is_member
        assert grown.window == 2
        # a non-member has tried every window up to the cap
        assert ideal_membership(e_nu, window=2, max_window=8).window == 8

    def test_batch_matches_single(self, rng, e_lam, e_nu, e_mu):
        elements = [e_mu, e_nu, e_lam + e_nu.scaled(2)]
        for _ in range(5):
            u = random_element(rng, 2, 2, terms=2, col_lo=-2, col_hi=3)
            elements.append(multiply(multiply(u, e_lam), u))
        batch = batch_ideal_membership(elements, 8)
        for x, got in zip(elements, batch):
            single = ideal_membership(x, window=8, max_window=8)
            assert got.status == single.status
            if got.is_member:
                assert tensor_to_ideal(got.tensor) == x


    def test_refuted_block_stops_the_ladder_rung(self, solve_calls, e_lam, e_nu):
        # e_nu (block (1,1)/(1,1)) refutes the element before its e_lam
        # block is reached, so each rung of the ladder 2, 4, 8 costs one solve
        result = ideal_membership(e_nu + e_lam, window=2, max_window=8)
        assert result.status == MembershipResult.NOT_MEMBER
        assert result.window == 8
        assert len(solve_calls) == 3

    def test_batch_with_refuted_element_sharing_blocks(self, solve_calls, e_lam, e_nu):
        t1 = hecke_embed(HeckeElement.group(T1))
        elements = [e_nu + e_lam, t1 + e_nu + e_lam.scaled(2), e_lam]
        refuted, member, corner = batch_ideal_membership(elements, 8)
        # one solve per block; the refuted element leaves the (2,0) block
        assert [len(rhs_list) for *_, rhs_list in solve_calls] == [2, 2]
        assert refuted.status == MembershipResult.NOT_MEMBER
        assert refuted.tensor is None
        for x, result in ((elements[1], member), (elements[2], corner)):
            assert result.is_member and result.window == 8
            assert tensor_to_ideal(result.tensor) == x
            assert ideal_membership(x, window=8, max_window=8) == result

    def test_window_blocks_factor_each_block_once(self, monkeypatch, e_lam, e_mu, e_nu):
        factored = []
        init = cellular.Factorization.__init__

        def recording(self, cols, nrows, placements):
            factored.append(tuple(cols))
            init(self, cols, nrows, placements)

        monkeypatch.setattr(cellular.Factorization, "__init__", recording)
        blocks = WindowBlocks(8)
        t1 = hecke_embed(HeckeElement.group(T1))
        first = blocks.membership([e_lam, t1 + e_nu])
        second = blocks.membership([e_mu, e_nu, e_lam.scaled(3)])
        assert len(factored) == len(set(factored))
        for signature in ((WEIGHT_20, WEIGHT_20), (WEIGHT_11, WEIGHT_11)):
            cols = tuple(blocks.factorization(signature).cols)
            assert cols in factored
            assert blocks.factorization(signature).rank == len(cols)
        elements = [e_lam, t1 + e_nu, e_mu, e_nu, e_lam.scaled(3)]
        assert first + second == batch_ideal_membership(elements, 8)

    def test_stem_system_matches_the_translates(self):
        """Each block built from its stems is the system of its built
        translates: the same columns in the same order, and per column
        the translate's terms, each in the row of its translation class."""
        for window in range(1, 13):
            for pairs in SIGNATURE_BLOCKS.values():
                candidates = omega_candidates(window, pairs)
                cols, shape_rows, nrows, placements = stem_system(window, pairs)
                columns = _columns(placements)
                assert cols == [label for label, _ in candidates], window
                rows = _row_classes(shape_rows, nrows)
                # each row is met by some column
                met = {rid for column in columns for rid, _ in column}
                assert met == set(range(nrows))
                by_column = []
                for column in columns:
                    got = {rows[rid]: value for rid, value in column}
                    assert len(got) == len(column), window
                    by_column.append(got)
                for (label, element), got in zip(candidates, by_column, strict=True):
                    expected = {
                        matrix.translation_class(): coeff
                        for matrix, coeff in element.terms.items()
                    }
                    assert got == expected, (window, label)

    def test_moved_rows_stay_in_their_shape(self, monkeypatch):
        """Whatever shift a translate's rows get, each lands in the range
        of its own shape: the ranges are derived from the same shifts, so
        no row falls off the system or onto another shape's row."""
        moves = {
            "one period too far": lambda b: b + 1 if abs(b) >= 4 else b,
            "reversed": lambda b: -b,
            "far out": lambda b: 3 * b + 7,
        }
        for name, move in moves.items():
            monkeypatch.setattr(cellular, "_translate_shift", move)
            for pairs in SIGNATURE_BLOCKS.values():
                cols, shape_rows, nrows, placements = stem_system(12, pairs)
                rows = _row_classes(shape_rows, nrows)
                columns = _columns(placements)
                for (l, m, a, b), column in zip(cols, columns, strict=True):
                    expected = set()
                    for matrix in omega_element(l, m, a, 0).terms:
                        shape, k = matrix.translation_class()
                        expected.add((shape, k + move(b)))
                    assert {rows[rid] for rid, _ in column} == expected, name

    def test_production_blocks_peel_whole(self):
        """Every signature block is triangular: peeling takes all of its
        columns, which decides its rank as the column count.  A block
        that stopped being triangular would leave the coordinate checks
        undecided."""
        for window in [*range(1, 25), 48]:
            blocks = WindowBlocks(window)
            for signature in SIGNATURE_BLOCKS:
                factorization = blocks.factorization(signature)
                assert factorization.rank == len(factorization.cols), (
                    window,
                    signature,
                )

    def test_blocks_build_no_translate(self, monkeypatch):
        """Factoring every block of a window reads its stems as classes
        only: it fills the stem memo and builds no omega element, not
        even a stem."""
        monkeypatch.setattr(cellular, "_OMEGA_CACHE", {})
        monkeypatch.setattr(cellular, "_STEMS", {})
        blocks = WindowBlocks(24)
        for signature in SIGNATURE_BLOCKS:
            assert blocks.factorization(signature).rank == len(
                blocks.factorization(signature).cols
            )
        assert cellular._STEMS
        assert not cellular._OMEGA_CACHE

    def test_blocks_hold_each_stem_once(self):
        """A block keeps one row list per stem, shared by all of the
        stem's translates, and per column nothing but its (stem, shift)
        placement: the entries it stores total its stems' term counts,
        not its columns'."""
        for window in (24, 48):
            blocks = WindowBlocks(window)
            for signature in SIGNATURE_BLOCKS:
                factorization = blocks.factorization(signature)
                placements = [placement for *_, placement in factorization._steps]
                assert len(placements) == len(factorization.cols)
                assert all(type(shift) is int for _, shift in placements)
                stored = {id(stem): stem for stem, _ in placements}
                stems = {(l, m, a) for l, m, a, _ in factorization.cols}
                assert len(stored) == len(stems), (window, signature)
                assert sum(map(len, stored.values())) == sum(
                    len(omega_element(*stem, 0).terms) for stem in stems
                )

    def test_solve_of_one_column_sweeps_few_steps(self):
        """A right-hand side that is one column of a block reaches only
        the steps of that column's rows: the sweep visits at most as many
        steps as the column has entries, far fewer than the block logs."""

        class CountingSteps(list):
            visits = 0

            def __getitem__(self, index):
                self.visits += 1
                return super().__getitem__(index)

        blocks = WindowBlocks(24)
        factorization = blocks.factorization((WEIGHT_20, WEIGHT_20))
        steps = factorization._steps = CountingSteps(factorization._steps)
        # a translate of the widest stem, the column with the most entries
        label = max(factorization.cols, key=lambda label: label[2])
        column = omega_element(*label)
        assert blocks.coordinates([column]) == [{label: 1}]
        assert 0 < steps.visits <= len(column.terms)
        assert 20 * steps.visits < len(steps)

    def test_coordinates_split_in_two_match_the_whole(self, rng, e_lam, e_mu, e_nu):
        """Solving a list in two parts, at any cut, gives the coordinates
        of solving it whole: each batch sweeps from its own values."""
        t1 = hecke_embed(HeckeElement.group(T1))
        elements = [e_mu, e_nu, e_lam + e_nu.scaled(2), t1 + e_nu, e_lam]
        for _ in range(5):
            u = random_element(rng, 2, 2, terms=2, col_lo=-2, col_hi=3)
            elements.append(multiply(multiply(u, e_lam), u))
        whole = WindowBlocks(8).coordinates(elements)
        assert any(coords is None for coords in whole)
        assert sum(coords is not None for coords in whole) >= 7
        blocks = WindowBlocks(8)
        for cut in range(len(elements) + 1):
            parts = blocks.coordinates(elements[:cut]) + blocks.coordinates(
                elements[cut:]
            )
            assert parts == whole, cut

    def test_shape_the_block_lacks_refutes(self, e_lam):
        """A right-hand side meeting a shape no member of the block has is
        refuted, not dropped."""
        blocks = WindowBlocks(4)
        shape_ids, _ = blocks._block((WEIGHT_20, WEIGHT_20))
        lacking = basis(2, (1, 1, 1), (1, 13, 1))
        shape, _ = next(iter(lacking.terms)).translation_class()
        assert shape not in shape_ids
        assert blocks.coordinates([e_lam + lacking, e_lam]) == [
            None,
            {(2, 2, 0, 0): 1},
        ]


def tensor_left_action(s: AlgebraElement, t: CellTensor) -> CellTensor:
    """Module action on the first leg, through the right-basis coordinates."""
    cells = []
    for l in range(4):
        carrier = multiply(s, AlgebraElement.basis(RIGHT_BASIS[l]))
        if carrier.is_zero():
            continue
        coords = decompose_right(carrier).coords
        for k in range(4):
            if coords[k].is_zero():
                continue
            for m in range(4):
                cell = t.cell(l, m)
                if not cell.is_zero():
                    cells.append((k, m, coords[k] * cell))
    return tensor(*cells)


def tensor_right_action(t: CellTensor, s: AlgebraElement) -> CellTensor:
    """Module action on the second leg, through the left-basis coordinates."""
    cells = []
    for m in range(4):
        carrier = multiply(AlgebraElement.basis(LEFT_BASIS[m]), s)
        if carrier.is_zero():
            continue
        coords = decompose_left(carrier).coords
        for k in range(4):
            if coords[k].is_zero():
                continue
            for l in range(4):
                cell = t.cell(l, m)
                if not cell.is_zero():
                    cells.append((l, k, cell * coords[k]))
    return tensor(*cells)


class TestBimoduleStructure:
    def test_left_action_commutes_with_contraction(self, rng):
        from affschur.sampling import random_basis_matrix

        for _ in range(15):
            s = AlgebraElement.basis(
                random_basis_matrix(rng, 2, 2, col_lo=-2, col_hi=3)
            )
            t = tensor(*random_tensor_cells(rng, cells=2, a_max=1, b_span=1))
            assert tensor_to_ideal(tensor_left_action(s, t)) == multiply(
                s, tensor_to_ideal(t)
            )

    def test_right_action_commutes_with_contraction(self, rng):
        from affschur.sampling import random_basis_matrix

        for _ in range(15):
            s = AlgebraElement.basis(
                random_basis_matrix(rng, 2, 2, col_lo=-2, col_hi=3)
            )
            t = tensor(*random_tensor_cells(rng, cells=2, a_max=1, b_span=1))
            assert tensor_to_ideal(tensor_right_action(t, s)) == multiply(
                tensor_to_ideal(t), s
            )
