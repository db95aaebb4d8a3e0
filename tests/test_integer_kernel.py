"""The integer kernel of the exact sums against the loops it replaced.

``multiply``, the contraction behind ``tensor_to_ideal`` and
``CellVector.to_element``, ``decompose_left`` and ``decompose_right``
clear their rational input of its denominators once
(``core._cleared``), sum in ``int`` and divide each result term once
(``core._divided``); ``Factorization.solve`` clears its right-hand sides
the same way.  The references below are the ``Fraction``-accumulating
loops that summed every product as it came: results must agree with
them value for value, in the same term order, in canonical form (an
``int`` when integral), and an all-``int`` input must take the path
that copies nothing and divides nothing.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import cellular, core, linalg, multiplication
from affschur.cellular import (
    CellTensor,
    CellVector,
    corner_involution,
    decompose_left,
    decompose_right,
    tensor_to_ideal,
)
from affschur.core import AlgebraElement, _cleared, _divided
from affschur.laurent import LaurentPoly2
from affschur.linalg import SolveResult, factorize
from affschur.multiplication import multiply, structure_table
from affschur.weyl import pair_to_matrix

from conftest import assert_canonical_exact, mat

# the (n, r) of the benchmark's products
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4)]
# a prime above 10^6
LARGE = 1_000_003


# ---------------------------------------------------------------------------
# the Fraction-accumulating references


def reference_multiply(x, y):
    acc = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            product = structure_table.product(a, b)
            if product.is_zero():
                continue
            scale = ca * cb
            for matrix, coeff in product.terms.items():
                acc[matrix] = acc.get(matrix, 0) + scale * coeff
    return x._like(acc)


def reference_contract(terms):
    """{class: nonzero value} of the sum of coeff * omega(label) over
    (coeff, label) pairs."""
    acc = {}
    for coeff, (l, m, a, b) in terms:
        shift = cellular._translate_shift(b)
        for (shape, k), value in cellular._stem_classes(l, m, a).items():
            key = (shape, k + shift)
            acc[key] = acc.get(key, 0) + coeff * value
    return {key: value for key, value in acc.items() if value}


def reference_tensor_to_ideal(t):
    return cellular._element(
        reference_contract(
            (coeff, (l, m, a, b))
            for l in range(4)
            for m in range(4)
            for (a, b), coeff in t.cell(l, m).terms.items()
        )
    )


def reference_to_element(vector):
    left = vector.side == "left"
    return cellular._element(
        reference_contract(
            (coeff, (2, idx, a, b) if left else (idx, 2, a, b))
            for idx, poly in enumerate(vector.coords)
            for (a, b), coeff in poly.terms.items()
        )
    )


def reference_decompose_left(x):
    acc = [{}, {}, {}, {}]
    for matrix, coeff in x.terms.items():
        base, s = cellular._pair_coords(matrix.entries[0][1], matrix.entries[-1][1])
        for terms, poly in zip(acc, base):
            for (a, b), c in poly.terms.items():
                key = (a, b + s)
                terms[key] = terms.get(key, 0) + coeff * c
    zero = LaurentPoly2.zero()
    return CellVector("left", tuple(zero._like(terms) for terms in acc))


def reference_decompose_right(x):
    left = reference_decompose_left(x.transpose())
    return CellVector("right", tuple(corner_involution(p) for p in left.coords))


def reference_solve(matrix, rhs_list):
    """Per right-hand side the unique solution {column: value} of a square
    matrix with nonzero diagonal below which it is triangular, by forward
    substitution in ``Fraction``."""
    size = len(matrix)
    solutions = []
    for rhs in rhs_list:
        x = []
        for i in range(size):
            rest = sum((matrix[i][j] * x[j] for j in range(i)), Fraction(0))
            x.append((Fraction(rhs.get(i, 0)) - rest) / matrix[i][i])
        solutions.append({j: v for j, v in enumerate(x) if v})
    return solutions


# ---------------------------------------------------------------------------
# inputs


def coefficients(large=False):
    """Nonzero rationals with denominators 1-7, so coprime mixes arise,
    or, with ``large``, some over a prime above 10^6."""
    dens = st.integers(min_value=1, max_value=7)
    if large:
        dens = st.one_of(dens, st.just(LARGE))
    nums = st.integers(min_value=-9, max_value=9).filter(bool)
    return st.builds(Fraction, nums, dens)


def integral():
    return st.integers(min_value=-9, max_value=9).filter(bool)


@st.composite
def product_pairs(draw, shape, coeffs):
    """Factors x, y at (n, r) = shape whose terms mostly multiply to
    nonzero products: y's rows are x's columns mod n."""
    n, r = shape
    residues = [draw(st.integers(min_value=1, max_value=n)) for _ in range(r)]
    x_terms, y_terms = {}, {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = sorted(draw(st.integers(min_value=1, max_value=n)) for _ in range(r))
        cols = [c + n * draw(st.integers(min_value=-1, max_value=1)) for c in residues]
        x_terms[pair_to_matrix(rows, draw(st.permutations(cols)), n)] = draw(coeffs)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cols = [draw(st.integers(min_value=-n, max_value=2 * n)) for _ in range(r)]
        y_terms[pair_to_matrix(residues, cols, n)] = draw(coeffs)
    return AlgebraElement(n, r, x_terms), AlgebraElement(n, r, y_terms)


def polys(coeffs, max_terms=3):
    exponents = st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=-3, max_value=3)
    )
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(LaurentPoly2)


@st.composite
def row20_elements(draw, coeffs):
    """Elements of the row-(2,0) span: pairs {i, j} in row 1, columns -6..6."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i, j = sorted(draw(st.integers(min_value=-6, max_value=6)) for _ in range(2))
        entries = [(1, i, 2)] if i == j else [(1, i, 1), (1, j, 1)]
        terms[mat(2, *entries)] = draw(coeffs)
    return AlgebraElement(2, 2, terms)


@st.composite
def triangular_systems(draw, coeffs):
    """A square matrix, triangular below a nonzero diagonal, with integral
    or rational entries, and 1-3 right-hand sides {row index: value}."""
    size = draw(st.integers(min_value=1, max_value=7))
    scalar = st.one_of(integral(), coefficients())
    matrix = [
        [draw(scalar) if j < i and draw(st.booleans()) else 0 for j in range(i)]
        + [draw(scalar)]
        + [0] * (size - i - 1)
        for i in range(size)
    ]
    rhs_list = draw(
        st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=size - 1), coeffs),
            min_size=1,
            max_size=3,
        )
    )
    return matrix, rhs_list


def assert_same(got, expected):
    """Equal values in the same term order, in canonical form."""
    assert list(got.terms.items()) == list(expected.terms.items())
    assert_canonical_exact(got)


def assert_same_coords(got, expected):
    assert got.side == expected.side
    for p, q in zip(got.coords, expected.coords, strict=True):
        assert_same(p, q)


def solve_system(matrix, rhs_list):
    size = len(matrix)
    entries = {
        (i, j): value
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
        if value
    }
    return factorize(list(range(size)), list(range(size)), entries).solve(rhs_list)


# ---------------------------------------------------------------------------
# differential tests


class TestAgainstFractionLoops:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @given(data=st.data())
    @settings(max_examples=25)
    def test_multiply(self, shape, data):
        x, y = data.draw(product_pairs(shape, coefficients(large=True)))
        assert_same(multiply(x, y), reference_multiply(x, y))

    @given(cells=st.lists(polys(coefficients(large=True), 2), min_size=16, max_size=16))
    @settings(max_examples=40)
    def test_tensor_to_ideal(self, cells):
        t = CellTensor(tuple(tuple(cells[4 * l : 4 * l + 4]) for l in range(4)))
        assert_same(tensor_to_ideal(t), reference_tensor_to_ideal(t))

    @given(
        side=st.sampled_from(["left", "right"]),
        coords=st.lists(polys(coefficients(large=True)), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_to_element(self, side, coords):
        vector = CellVector(side, tuple(coords))
        assert_same(vector.to_element(), reference_to_element(vector))

    @given(x=row20_elements(coefficients(large=True)))
    @settings(max_examples=60)
    def test_decompose_left(self, x):
        assert_same_coords(decompose_left(x), reference_decompose_left(x))

    @given(x=row20_elements(coefficients(large=True)))
    @settings(max_examples=60)
    def test_decompose_right(self, x):
        tx = x.transpose()
        assert_same_coords(decompose_right(tx), reference_decompose_right(tx))

    @given(drawn=triangular_systems(coefficients(large=True)))
    @settings(max_examples=80)
    def test_solve(self, drawn):
        matrix, rhs_list = drawn
        results = solve_system(matrix, rhs_list)
        for result, expected in zip(results, reference_solve(matrix, rhs_list), strict=True):
            assert result.status == SolveResult.UNIQUE
            assert list(result.solution.items()) == list(expected.items())
            assert all(type(v) is int or v.denominator > 1 for v in result.solution.values())


class TestLargeDenominator:
    """One input per entry point whose coefficients have a denominator
    above 10^6, mixed with small coprime ones."""

    COEFFS = (Fraction(5, LARGE), Fraction(-2, 3), Fraction(7, 2), 4)

    def test_multiply(self):
        x = AlgebraElement(2, 2, {mat(2, (1, 1, 1), (1, 3, 1)): self.COEFFS[0],
                                  mat(2, (1, 1, 2)): self.COEFFS[1]})
        y = AlgebraElement(2, 2, {mat(2, (1, 1, 1), (1, 3, 1)): self.COEFFS[2],
                                  mat(2, (1, 1, 2)): self.COEFFS[3]})
        got = multiply(x, y)
        assert_same(got, reference_multiply(x, y))
        assert any(type(v) is Fraction and v.denominator % LARGE == 0
                   for v in got.terms.values())

    def test_contractions(self):
        poly = LaurentPoly2(dict(zip([(0, 0), (1, -1), (3, 2), (2, 0)], self.COEFFS)))
        zero = LaurentPoly2.zero()
        t = CellTensor(tuple(
            tuple(poly if (l + m) % 3 == 0 else zero for m in range(4)) for l in range(4)
        ))
        assert_same(tensor_to_ideal(t), reference_tensor_to_ideal(t))
        for side in ("left", "right"):
            vector = CellVector(side, (poly, zero, poly, poly))
            assert_same(vector.to_element(), reference_to_element(vector))

    def test_decompositions(self):
        x = AlgebraElement(2, 2, {
            mat(2, (1, -3, 1), (1, 4, 1)): self.COEFFS[0],
            mat(2, (1, 2, 2)): self.COEFFS[1],
            mat(2, (1, 1, 1), (1, 6, 1)): self.COEFFS[2],
            mat(2, (1, 0, 1), (1, 2, 1)): self.COEFFS[3],
        })
        assert_same_coords(decompose_left(x), reference_decompose_left(x))
        tx = x.transpose()
        assert_same_coords(decompose_right(tx), reference_decompose_right(tx))

    def test_solve(self):
        matrix = [[2, 0, 0], [1, -3, 0], [0, 5, 7]]
        rhs_list = [dict(enumerate(self.COEFFS[:3])), {2: self.COEFFS[3]}]
        results = solve_system(matrix, rhs_list)
        expected = reference_solve(matrix, rhs_list)
        assert [list(r.solution.items()) for r in results] == [
            list(e.items()) for e in expected
        ]


class TestIntegralInputCopiesNothing:
    """An all-int input is handed back by ``_cleared`` as it is, with
    denominator 1, and nothing is divided."""

    @staticmethod
    @contextmanager
    def spied():
        """Record every ``_cleared`` call of the kernel's modules and fail
        any ``_divided`` call of the element sums; on exit, every call must
        have handed its input back with denominator 1.  A solve divides
        each value by 1 all the same: that makes a value of a rational
        matrix's sweep canonical."""
        calls = []

        def cleared(terms):
            found = _cleared(terms)
            calls.append((terms, found))
            return found

        def divided(value, den):
            raise AssertionError("an integral sum was divided")

        with pytest.MonkeyPatch.context() as patch:
            for module in (multiplication, cellular, linalg):
                patch.setattr(module, "_cleared", cleared)
            for module in (multiplication, cellular):
                patch.setattr(module, "_divided", divided)
            yield
        assert calls
        for terms, (ints, den) in calls:
            assert ints is terms and den == 1

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @given(data=st.data())
    @settings(max_examples=10)
    def test_multiply(self, shape, data):
        x, y = data.draw(product_pairs(shape, integral()))
        with self.spied():
            got = multiply(x, y)
        assert_same(got, reference_multiply(x, y))

    @given(coords=st.lists(polys(integral()), min_size=4, max_size=4))
    @settings(max_examples=20)
    def test_contraction(self, coords):
        vector = CellVector("left", tuple(coords))
        t = CellTensor(tuple(tuple(coords) for _ in range(4)))
        with self.spied():
            got = vector.to_element(), tensor_to_ideal(t)
        assert_same(got[0], reference_to_element(vector))
        assert_same(got[1], reference_tensor_to_ideal(t))

    @given(x=row20_elements(integral()))
    @settings(max_examples=20)
    def test_decompositions(self, x):
        tx = x.transpose()
        with self.spied():
            got = decompose_left(x), decompose_right(tx)
        assert_same_coords(got[0], reference_decompose_left(x))
        assert_same_coords(got[1], reference_decompose_right(tx))

    def test_solve(self):
        with self.spied():
            results = solve_system([[1, 0], [3, 1]], [{0: 2, 1: 5}])
        assert results[0].solution == {0: 2, 1: -1}


def test_cleared_and_divided():
    terms = {"a": 3, "b": -4}
    assert _cleared(terms)[0] is terms
    ints, den = _cleared({"a": Fraction(1, 6), "b": Fraction(3, 4), "c": 2, "d": Fraction(4)})
    assert (ints, den) == ({"a": 2, "b": 9, "c": 24, "d": 48}, 12)
    assert all(type(v) is int for v in ints.values())
    assert type(_divided(12, 4)) is int and _divided(12, 8) == Fraction(3, 2)
    assert type(_divided(Fraction(6), 3)) is int
    assert core._divided is linalg._divided
