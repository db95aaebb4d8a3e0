import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import (
    AlgebraElement,
    Composition,
    PeriodicMatrix,
    diag_matrix,
    element_from_json,
    element_to_json,
    grade,
    matrix_to_pair,
    multiply,
    multiply_oracle,
    pair_to_matrix,
)
from affschur.cellular import _element
from affschur.core import _of_class, parse_fraction
from affschur.multiplication import StructureTable

from closed_forms import entry, part, row
from conftest import (
    algebra_elements,
    assert_canonical_exact,
    basis,
    basis_matrices,
    mat,
    moved,
)


class TestComposition:
    def test_valid(self):
        comp = Composition(2, (2, 0))
        assert comp.n == 2 and comp.parts == (2, 0)

    def test_periodic_parts(self):
        # the closed forms' periodic read of a composition
        comp = Composition(2, (2, 0))
        assert part(comp, 1) == 2 and part(comp, 2) == 0
        assert part(comp, 3) == 2
        assert part(comp, 0) == 0
        assert part(comp, -1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Composition(2, (3, -1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Composition(2, (1, 1, 0))


class TestMatrixCanonicalization:
    def test_rows_shifted_into_period(self):
        assert mat(2, (3, 2, 1)) == mat(2, (1, 0, 1))
        assert mat(2, (0, 5, 2)) == mat(2, (2, 7, 2))

    def test_merges_duplicates(self):
        assert mat(2, (1, 2, 1), (1, 2, 1)) == mat(2, (1, 2, 2))

    def test_drops_zero_entries(self):
        assert mat(2, (1, 2, 0), (2, 1, 1)) == mat(2, (2, 1, 1))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            mat(2, (1, 2, -1))

    def test_entry_lookup_is_periodic(self):
        # the closed forms' periodic reads of a matrix
        a = mat(2, (1, 3, 2))
        assert entry(a, 1, 3) == 2
        assert entry(a, 3, 5) == 2
        assert entry(a, -1, 1) == 2
        assert entry(a, 1, 4) == 0

    def test_row_and_col_entries_at_arbitrary_indices(self):
        a = mat(2, (1, 3, 2), (2, 1, 1))
        assert row(a, 3) == {5: 2}

    def test_direct_build_hashes_like_interned(self):
        interned = mat(2, (1, 3, 2), (2, 1, 1))
        direct = PeriodicMatrix(2, interned.entries)
        assert direct is not interned
        assert direct == interned and hash(direct) == hash(interned)
        assert {interned: "found"}[direct] == "found"
        assert not hasattr(direct, "__dict__")
        assert not hasattr(interned, "__dict__")
        shape, k = direct.translation_class()
        assert _of_class(2, shape, k) is interned
        assert _of_class(2, shape, k + 1) is moved(interned, 1)
        assert direct.transpose() is interned.transpose()
        assert direct.transpose().transpose() is interned


class TestTrustedInterning:
    """Interned matrices are built without validation, so every route that
    interns one must give the matrix a validated direct build gives."""

    @staticmethod
    def assert_like_direct(got):
        direct = PeriodicMatrix(got.n, got.entries)
        assert got == direct and hash(got) == hash(direct)
        assert got.r == direct.r
        n = got.n
        row_sums, col_sums = [0] * n, [0] * n
        for i, j, value in got.entries:
            row_sums[i - 1] += value
            col_sums[(j - 1) % n] += value
        assert got.row_vector() == direct.row_vector() == Composition(n, tuple(row_sums))
        assert got.col_vector() == direct.col_vector() == Composition(n, tuple(col_sums))

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=6),
                st.integers(min_value=-6, max_value=6),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=5,
        ),
        st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=80)
    def test_every_route_gives_the_validated_matrix(self, n, triples, shift):
        a = PeriodicMatrix.from_entries(n, triples)
        routes = [a, a.transpose()]
        if a.entries:  # the empty matrix has class ((), 0) and no move
            for matrix in (a, a.transpose()):
                shape, k = matrix.translation_class()
                routes.append(_of_class(n, shape, k + shift))
        for got in routes:
            self.assert_like_direct(got)

    def test_direct_build_validates(self):
        with pytest.raises(ValueError):
            PeriodicMatrix(2, ((3, 1, 1),))
        with pytest.raises(ValueError):
            PeriodicMatrix(2, ((0, 1, 1),))
        with pytest.raises(ValueError):
            PeriodicMatrix(2, ((1, 1, 0),))
        with pytest.raises(ValueError):
            PeriodicMatrix(2, ((1, 1, 1), (1, 1, 2)))


class TestRowCol:
    def test_row_antidiagonal(self):
        # the weight-(1,1) reflection matrix
        assert mat(2, (1, 2, 1), (2, 1, 1)).row_vector() == Composition(2, (1, 1))

    def test_row_diag(self):
        for parts in [(2, 0), (1, 1), (0, 2)]:
            comp = Composition(2, parts)
            assert diag_matrix(comp).row_vector() == comp
            assert diag_matrix(comp).col_vector() == comp

    def test_row_concentrated(self):
        assert mat(2, (1, 3, 2)).row_vector() == Composition(2, (2, 0))

    def test_col_concentrated(self):
        assert mat(2, (2, 1, 2)).col_vector() == Composition(2, (2, 0))

    def test_col_reduces_mod_period(self):
        assert mat(2, (1, 1, 1), (1, 3, 1)).col_vector() == Composition(2, (2, 0))

    def test_col_rotation_matrix(self):
        # the image of the rotation generator has column weight (1,1)
        assert mat(2, (1, 2, 1), (2, 3, 1)).col_vector() == Composition(2, (1, 1))


class TestUnitAndDiag:
    def test_diag_examples(self):
        assert diag_matrix(Composition(2, (2, 0))) == mat(2, (1, 1, 2))
        assert diag_matrix(Composition(2, (1, 1))) == mat(2, (1, 1, 1), (2, 2, 1))
        assert diag_matrix(Composition(2, (0, 2))) == mat(2, (2, 2, 2))


class TestTranspose:
    def test_symmetric_fixed(self):
        x = basis(2, (1, 2, 1), (2, 1, 1))
        assert x.transpose() == x

    def test_rotation_generator(self):
        x = basis(2, (1, 2, 1), (2, 3, 1))
        assert x.transpose() == basis(2, (2, 1, 1), (3, 2, 1))

    def test_double_mass(self):
        assert basis(2, (1, 3, 2)).transpose() == basis(2, (3, 1, 2))

    @given(algebra_elements())
    def test_involution(self, x):
        assert x.transpose().transpose() == x

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=6),
                st.integers(min_value=-6, max_value=6),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=5,
        ),
    )
    @settings(max_examples=80)
    def test_matrix_transpose_matches_swapped_entries(self, n, triples):
        a = PeriodicMatrix.from_entries(n, triples)
        # the reference: rebuild from the swapped triples
        expected = PeriodicMatrix.from_entries(n, ((j, i, v) for i, j, v in a.entries))
        got = a.transpose()
        assert got == expected and got.r == expected.r
        # every stored entry reappears mirrored, and nothing else
        assert len(got.entries) == len(a.entries)
        assert all(entry(got, j, i) == v for i, j, v in a.entries)
        assert got.transpose() is a

    def test_matrix_transpose_is_canonical_object(self):
        a = mat(2, (1, 2, 1), (2, 3, 1))
        b = mat(2, (1, 2, 1), (2, 3, 1))
        assert a.transpose() is b.transpose()
        assert a.transpose().transpose() is a

    @given(basis_matrices())
    @settings(max_examples=40)
    def test_swaps_row_and_col(self, a):
        assert a.transpose().row_vector() == a.col_vector()
        assert a.transpose().col_vector() == a.row_vector()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_antihomomorphism(self, data):
        a = data.draw(basis_matrices(nr=(2, 2)))
        # build b with row(b) = col(a) so the product is nonzero
        rows = []
        for idx, p in enumerate(a.col_vector().parts, start=1):
            rows.extend([idx] * p)
        cols = tuple(
            data.draw(st.integers(min_value=-4, max_value=5))
            for _ in range(len(rows))
        )
        b = pair_to_matrix(tuple(rows), cols, 2)
        ea, eb = AlgebraElement.basis(a), AlgebraElement.basis(b)
        assert multiply(ea, eb).transpose() == multiply(
            eb.transpose(), ea.transpose()
        )


class TestGrade:
    def test_left_module_basis_grades(self):
        assert grade(mat(2, (1, 1, 1), (1, 2, 1))) == 1
        assert grade(mat(2, (1, 2, 1), (1, 3, 1))) == 3
        assert grade(mat(2, (1, 1, 2))) == 0
        assert grade(mat(2, (1, 2, 2))) == 2

    def test_corner_generator_grades(self):
        assert grade(mat(2, (1, 1, 1), (1, 3, 1))) == 2
        assert grade(mat(2, (1, 3, 2))) == 4
        assert grade(mat(2, (3, 1, 2))) == -4

    def test_diagonal_is_zero(self):
        for parts in [(2, 0), (1, 1), (0, 2)]:
            assert grade(diag_matrix(Composition(2, parts))) == 0

    def test_mixed_rejected(self):
        with pytest.raises(ValueError):
            grade(mat(2, (1, 2, 1), (2, 1, 1)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_graded_additivity_on_triangular_products(self, data):
        n = 2
        upper = data.draw(st.booleans())
        r = data.draw(st.integers(min_value=1, max_value=3))
        rows = tuple(
            sorted(data.draw(st.integers(min_value=1, max_value=n)) for _ in range(r))
        )
        if upper:
            cols_a = tuple(
                row + data.draw(st.integers(min_value=0, max_value=4))
                for row in rows
            )
        else:
            cols_a = tuple(
                row - data.draw(st.integers(min_value=0, max_value=4))
                for row in rows
            )
        a = pair_to_matrix(rows, cols_a, n)
        rows_b = []
        for idx, p in enumerate(a.col_vector().parts, start=1):
            rows_b.extend([idx] * p)
        if upper:
            cols_b = tuple(
                row + data.draw(st.integers(min_value=0, max_value=4))
                for row in rows_b
            )
        else:
            cols_b = tuple(
                row - data.draw(st.integers(min_value=0, max_value=4))
                for row in rows_b
            )
        b = pair_to_matrix(tuple(rows_b), cols_b, n)
        product = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
        total = grade(a) + grade(b)
        for matrix in product.terms:
            if upper:
                assert matrix.is_upper_triangular()
            else:
                assert matrix.is_lower_triangular()
            assert grade(matrix) == total


class TestCanonicality:
    @given(basis_matrices())
    def test_pair_round_trip(self, a):
        assert pair_to_matrix(*matrix_to_pair(a), a.n) == a


class TestElementArithmetic:
    def test_zero_coefficients_dropped(self):
        x = basis(2, (1, 1, 2))
        assert (x - x).is_zero()
        assert not (x - x).terms

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError):
            basis(2, (1, 1, 2)) + basis(2, (1, 1, 1), (2, 2, 1), (1, 2, 1))
        with pytest.raises(ValueError):
            AlgebraElement(2, 2, {mat(3, (1, 1, 2)): Fraction(1)})

    def test_scaling(self):
        x = basis(2, (1, 1, 2))
        assert (3 * x).terms == {mat(2, (1, 1, 2)): 3}
        assert (x * Fraction(1, 2)).terms == {mat(2, (1, 1, 2)): Fraction(1, 2)}

    @given(algebra_elements(), algebra_elements(), st.integers(-2, 2))
    @settings(max_examples=40)
    def test_results_store_only_nonzero_fractions(self, x, y, k):
        # k x + y - y summed by translation class, read back as an element
        classes = {}
        for coeff, element in [(Fraction(k), x), (Fraction(1), y), (Fraction(-1), y)]:
            for matrix, c in element.terms.items():
                key = matrix.translation_class()
                classes[key] = classes.get(key, 0) + coeff * c
        assert_canonical_exact(
            x + y, x - y, x - x, -x, x.scaled(k), k * x, x * y, x.transpose(),
            _element(classes),
        )


class TestTranslationClass:
    @given(basis_matrices(), st.integers(-(10**6), 10**6))
    def test_moved_matrix_keeps_its_shape(self, a, s):
        shape, k = a.translation_class()
        assert moved(a, s).translation_class() == (shape, k + s)
        assert _of_class(a.n, shape, k + s) is moved(a, s)
        # the shape's smallest column lies in 1..n
        assert 1 <= min(shape[1::3]) <= a.n
        assert moved(mat(a.n, *zip(shape[::3], shape[1::3], shape[2::3])), k) is a

    def test_examples(self):
        assert mat(2, (1, 5, 1), (2, 8, 1)).translation_class() == (
            (1, 1, 1, 2, 4, 1),
            2,
        )
        assert mat(3, (2, 0, 2)).translation_class() == ((2, 3, 2), -1)
        assert PeriodicMatrix.from_entries(2, []).translation_class() == ((), 0)


class TestTransposeOfATranslate:
    """tau(T^k x) = T^-k tau(x), T the move by one period: the premise of
    the stem route of the transpose check."""

    PERIODS = [-7, -4, -1, 1, 4, 9]

    @given(basis_matrices())
    @settings(max_examples=60)
    def test_matrices(self, a):
        for k in self.PERIODS:
            assert moved(a, k).transpose() is moved(a.transpose(), -k)

    @given(algebra_elements())
    @settings(max_examples=40)
    def test_elements(self, x):
        for k in self.PERIODS:
            assert moved(x, k).transpose() == moved(x.transpose(), -k)


@st.composite
def product_pairs_n2_to_4(draw):
    """Basis matrices a, b at n = 2..4 with col(a) = row(b)."""
    n = draw(st.integers(min_value=2, max_value=4))
    a = draw(basis_matrices(nr=(n, 2)))
    rows = tuple(
        idx for idx, p in enumerate(a.col_vector().parts, start=1) for _ in range(p)
    )
    cols = tuple(draw(st.integers(min_value=-4, max_value=5)) for _ in range(2))
    return a, pair_to_matrix(rows, cols, n)


class TestClassRoutes:
    """Moves and transposes read the class index; each must give the
    interned matrix that the entry-built formula it replaced gives."""

    shifts = st.one_of(
        st.integers(min_value=-13, max_value=13),
        st.integers(min_value=10**6 - 5, max_value=10**6 + 5),
    )

    @given(st.integers(min_value=2, max_value=4), st.data(), shifts, shifts)
    @settings(max_examples=200)
    def test_move_and_transpose_match_the_entries(self, n, data, s, t):
        a = data.draw(basis_matrices(nr=(n, data.draw(st.integers(1, 3)))))
        shape, k = a.translation_class()
        for periods in (s, t, -s):
            got = _of_class(n, shape, k + periods)
            # the move and the transpose before the class index
            assert got is moved(a, periods)
            assert got.transpose() is mat(n, *((j, i, v) for i, j, v in got.entries))

    def test_empty_matrix_moves_onto_itself(self):
        # the empty matrix has class ((), 0) and no column to move
        empty = mat(3)
        assert moved(empty, 2) is empty and empty.transpose() is empty
        assert empty.translation_class() == ((), 0)

    @given(product_pairs_n2_to_4(), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=100)
    def test_moved_table_products_match_the_oracle(self, pair, s, t):
        a, b = pair
        table = StructureTable()
        table.product(a, b)
        moved_a, moved_b = moved(a, s), moved(b, t)
        product = table.product(moved_a, moved_b)
        assert product == multiply_oracle(
            matrix_to_pair(moved_a), matrix_to_pair(moved_b), a.n
        )
        assert len(table) == 1
        for matrix in product.terms:
            assert matrix is mat(matrix.n, *matrix.entries)


class TestJson:
    def test_round_trip(self):
        x = basis(2, (1, 1, 1), (1, 2, 1)) + basis(2, (1, 3, 2)).scaled(
            Fraction(-3, 2)
        )
        data = element_to_json(x)
        assert element_from_json(data) == x
        # serialization is deterministic
        assert json.dumps(data, sort_keys=True) == json.dumps(
            element_to_json(x), sort_keys=True
        )

    def test_normalizes_sloppy_input(self):
        data = {
            "n": 2,
            "r": 2,
            "terms": [
                {"coeff": "1", "entries": [[3, 2, 1], [2, 1, 1]]},
                {"coeff": "1/2", "entries": [[1, 0, 1], [2, 1, 1]]},
            ],
        }
        x = element_from_json(data)
        assert x == basis(2, (1, 0, 1), (2, 1, 1)).scaled(Fraction(3, 2))

    def test_rejects_decimal_coefficients(self):
        with pytest.raises(ValueError):
            parse_fraction("1.5")
        with pytest.raises(ValueError):
            parse_fraction("1/0")

    def test_rejects_weight_mismatch(self):
        data = {"n": 2, "r": 3, "terms": [{"coeff": "1", "entries": [[1, 1, 2]]}]}
        with pytest.raises(ValueError):
            element_from_json(data)
