import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import (
    AlgebraElement,
    Composition,
    diag_matrix,
    doublecoset_product,
    matrix_to_pair,
    multiply,
    multiply_oracle,
    StructureTable,
    pair_to_matrix,
    structure_table,
)

from affschur import multiplication
from affschur.multiplication import multiply_classes
from affschur.sampling import random_element

from closed_forms import (
    bounded,
    chevalley_left,
    chevalley_right,
    generator,
    loop_left,
    part,
    shifted,
    unit,
)
from conftest import algebra_elements, basis, basis_matrices, mat, moved


def with_row(rng, comp, n, lo=-4, hi=5):
    """A random basis matrix with the given row weight."""
    rows = []
    for idx, p in enumerate(comp.parts, start=1):
        rows.extend([idx] * p)
    cols = tuple(rng.randint(lo, hi) for _ in range(len(rows)))
    return pair_to_matrix(tuple(rows), cols, n)


def random_basis(rng, n, r, lo=-4, hi=5):
    rows = tuple(sorted(rng.randint(1, n) for _ in range(r)))
    cols = tuple(rng.randint(lo, hi) for _ in range(r))
    return pair_to_matrix(rows, cols, n)


class TestOracleGoldens:
    def test_reflection_square_is_corner_idempotent(self, e_nu):
        t1 = mat(2, (1, 2, 1), (2, 1, 1))
        assert multiply_oracle(matrix_to_pair(t1), matrix_to_pair(t1), 2) == e_nu

    def test_two_term_product(self, e_nu):
        a = matrix_to_pair(mat(2, (1, 1, 1), (2, 1, 1)))
        b = matrix_to_pair(mat(2, (1, 1, 1), (1, 2, 1)))
        expected = basis(2, (1, 2, 1), (2, 1, 1)) + e_nu
        assert multiply_oracle(a, b, 2) == expected

    def test_mismatch_vanishes(self):
        a = matrix_to_pair(mat(2, (1, 1, 2)))
        b = matrix_to_pair(mat(2, (2, 2, 2)))
        assert multiply_oracle(a, b, 2).is_zero()

    def test_reverse_order_doubles_idempotent(self, e_lam):
        a = matrix_to_pair(mat(2, (1, 1, 1), (1, 2, 1)))
        b = matrix_to_pair(mat(2, (1, 1, 1), (2, 1, 1)))
        assert multiply_oracle(a, b, 2) == e_lam.scaled(2)


class TestMultiply:
    def test_identity_is_neutral(self, rng):
        one = unit(2, 2)
        for _ in range(10):
            x = AlgebraElement.basis(random_basis(rng, 2, 2))
            assert multiply(one, x) == x
            assert multiply(x, one) == x

    def test_idempotent(self, e_lam):
        assert multiply(e_lam, e_lam) == e_lam

    def test_column_idempotent_golden(self, e_mu):
        assert multiply(basis(2, (2, 1, 2)), basis(2, (1, 2, 2))) == e_mu

    def test_orthogonality(self, e_lam, e_mu):
        assert multiply(e_lam, e_mu).is_zero()

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            multiply(unit(2, 2), unit(2, 3))


class TestIdentityElement:
    def test_2_2(self, e_lam, e_mu, e_nu):
        assert unit(2, 2) == e_lam + e_mu + e_nu

    def test_1_r(self):
        assert unit(1, 3) == AlgebraElement.basis(
            diag_matrix(Composition(1, (3,)))
        )

    def test_left_right_unit_of_diagonals(self, rng):
        # the diagonal idempotent matching the row (resp. column) weight
        # acts as the identity; any other diagonal kills the element
        for _ in range(10):
            a = random_basis(rng, 2, 2)
            ea = AlgebraElement.basis(a)
            e_row = AlgebraElement.basis(diag_matrix(a.row_vector()))
            e_col = AlgebraElement.basis(diag_matrix(a.col_vector()))
            assert multiply(e_row, ea) == ea
            assert multiply(ea, e_col) == ea


class TestChevalleyGoldens:
    def test_left_down_two_units(self, e_mu):
        assert chevalley_left(1, 2, "down", mat(2, (1, 2, 2))) == e_mu

    def test_left_down_one_unit(self, e_nu):
        got = chevalley_left(1, 1, "down", mat(2, (1, 1, 1), (1, 2, 1)))
        assert got == basis(2, (1, 2, 1), (2, 1, 1)) + e_nu

    def test_left_zero_transfer(self):
        a = mat(2, (1, 1, 1), (1, 2, 1))
        assert chevalley_left(1, 0, "down", a) == AlgebraElement.basis(a)
        assert chevalley_left(1, 0, "up", a) == AlgebraElement.basis(a)

    def test_right_up_two_units(self, e_mu):
        assert chevalley_right(1, 2, "up", mat(2, (2, 1, 2))) == e_mu

    def test_right_up_one_unit(self, e_nu):
        got = chevalley_right(1, 1, "up", mat(2, (1, 1, 1), (2, 1, 1)))
        assert got == basis(2, (1, 2, 1), (2, 1, 1)) + e_nu

    def test_right_zero_transfer(self):
        a = mat(2, (1, 1, 1), (2, 1, 1))
        assert chevalley_right(1, 0, "up", a) == AlgebraElement.basis(a)


class TestLoopGoldens:
    def test_on_doubled_idempotent(self):
        assert loop_left(1, 1, mat(2, (1, 1, 2))) == basis(
            2, (1, 1, 1), (1, 3, 1)
        )

    def test_on_spread_pair(self):
        got = loop_left(1, 1, mat(2, (1, 1, 1), (1, 3, 1)))
        assert got == basis(2, (1, 3, 2)).scaled(2) + basis(
            2, (1, 1, 1), (1, 5, 1)
        )

    def test_generic_spread(self):
        got = loop_left(1, 1, mat(2, (1, 1, 1), (1, 4, 1)))
        assert got == basis(2, (1, 3, 1), (1, 4, 1)) + basis(
            2, (1, 1, 1), (1, 6, 1)
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            loop_left(1, 0, mat(2, (1, 1, 2)))


class TestDoubleCosetGoldens:
    def test_single_coset(self, e_nu):
        p = (
            ((1, 2), (2, 1)),
            ((2, 1), (1, 2)),
        )
        assert doublecoset_product(*p, 2) == e_nu

    def test_left_unit(self):
        got = doublecoset_product(((1, 2), (1, 2)), ((1, 2), (2, 3)), 2)
        assert got == basis(2, (1, 2, 1), (2, 3, 1))

    def test_index_two(self, e_lam):
        got = doublecoset_product(((1, 1), (1, 2)), ((1, 2), (1, 1)), 2)
        assert got == e_lam.scaled(2)


class TestEnginesAgree:
    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 3)])
    def test_closed_forms_match_oracle(self, n, r):
        rng = random.Random(1000 + 10 * n + r)
        checked = 0
        while checked < 60:
            a = random_basis(rng, n, r)
            h = rng.randint(1, n)
            m = rng.randint(1, 2)
            sign = rng.choice(["up", "down"])
            lam = a.row_vector()
            need = part(lam, h + 1) if sign == "up" else part(lam, h)
            if need >= m:
                gen = generator("left", sign, lam, h, m)
                assert chevalley_left(h, m, sign, a) == multiply_oracle(
                    matrix_to_pair(gen), matrix_to_pair(a), n
                )
                checked += 1
            mu = a.col_vector()
            need = part(mu, h) if sign == "up" else part(mu, h + 1)
            if need >= m:
                gen = generator("right", sign, mu, h, m)
                assert chevalley_right(h, m, sign, a) == multiply_oracle(
                    matrix_to_pair(a), matrix_to_pair(gen), n
                )
                checked += 1
            if part(lam, h) >= 1:
                loop_m = rng.choice([-2, -1, 1, 2])
                gen = shifted(diag_matrix(lam), [(h, h, -1), (h, h + loop_m * n, 1)])
                assert loop_left(h, loop_m, a) == multiply_oracle(
                    matrix_to_pair(gen), matrix_to_pair(a), n
                )
                checked += 1

    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 3)])
    def test_doublecoset_matches_oracle(self, n, r):
        rng = random.Random(2000 + 10 * n + r)
        for _ in range(60):
            a = random_basis(rng, n, r)
            b = with_row(rng, a.col_vector(), n)
            p1, p2 = matrix_to_pair(a), matrix_to_pair(b)
            assert doublecoset_product(p1, p2, n) == multiply_oracle(p1, p2, n)


class TestAlgebraLaws:
    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3)])
    def test_associativity(self, n, r):
        rng = random.Random(3000 + 10 * n + r)
        for _ in range(40):
            a = random_basis(rng, n, r)
            b = with_row(rng, a.col_vector(), n)
            c = with_row(rng, b.col_vector(), n)
            ea, eb, ec = map(AlgebraElement.basis, (a, b, c))
            assert multiply(multiply(ea, eb), ec) == multiply(
                ea, multiply(eb, ec)
            )

    def test_representative_independence(self, rng):
        from affschur import WeylElement, act

        for _ in range(60):
            n = rng.choice([1, 2, 3])
            r = rng.randint(1, 3)
            a, b = random_basis(rng, n, r), random_basis(rng, n, r)
            p1, p2 = matrix_to_pair(a), matrix_to_pair(b)
            sigma = list(range(1, r + 1))
            rng.shuffle(sigma)
            w1 = WeylElement(
                tuple(sigma), tuple(rng.randint(-2, 2) for _ in range(r))
            )
            rng.shuffle(sigma)
            w2 = WeylElement(
                tuple(sigma), tuple(rng.randint(-2, 2) for _ in range(r))
            )
            q1 = (act(p1[0], w1, n), act(p1[1], w1, n))
            q2 = (act(p2[0], w2, n), act(p2[1], w2, n))
            assert multiply_oracle(p1, p2, n) == multiply_oracle(q1, q2, n)

    def test_period_one_commutes(self, rng):
        for _ in range(60):
            r = rng.randint(1, 3)
            a, b = random_basis(rng, 1, r), random_basis(rng, 1, r)
            ea, eb = AlgebraElement.basis(a), AlgebraElement.basis(b)
            assert multiply(ea, eb) == multiply(eb, ea)


class TestStructureTable:
    def test_cache_matches_fresh_recomputation(self, rng):
        for _ in range(20):
            a = random_basis(rng, 2, 2)
            b = with_row(rng, a.col_vector(), 2)
            cached = structure_table.product(a, b)
            assert cached == multiply_oracle(matrix_to_pair(a), matrix_to_pair(b), 2)
            # a second lookup runs no oracle and gives the same value
            classes = len(structure_table)
            assert structure_table.product(a, b) == cached
            assert len(structure_table) == classes


    @pytest.mark.parametrize("n, r", [(2, 2), (2, 3)])
    def test_products_are_integral(self, n, r):
        # at q = 1 every structure constant is an orbit count
        matrices = {
            pair_to_matrix(rows, cols, n)
            for rows in itertools.combinations_with_replacement(range(1, n + 1), r)
            for cols in itertools.product(range(-1, 3), repeat=r)
        }
        products = 0
        for a in matrices:
            for b in matrices:
                if a.col_vector() == b.row_vector():
                    product = structure_table.product(a, b)
                    assert all(type(c) is int for c in product.terms.values())
                    products += 1
        assert products > 100


TABLE_SHAPES = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]

# period shifts near 0 and near +-10^6
period_shifts = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=10**6 - 3, max_value=10**6 + 3),
    st.integers(min_value=-(10**6) - 3, max_value=-(10**6) + 3),
)


@st.composite
def product_pairs(draw):
    """Basis matrices a, b with col(a) = row(b), so the product is
    looked up in the table."""
    n, r = draw(st.sampled_from(TABLE_SHAPES))
    a = draw(basis_matrices(nr=(n, r)))
    rows = tuple(
        idx for idx, p in enumerate(a.col_vector().parts, start=1) for _ in range(p)
    )
    cols = tuple(draw(st.integers(min_value=-4, max_value=5)) for _ in range(r))
    return a, pair_to_matrix(rows, cols, n)


class TestTranslationClasses:
    @settings(max_examples=200)
    @given(product_pairs(), period_shifts, period_shifts)
    def test_moved_pair_matches_fresh_oracle(self, pair, s, t):
        a, b = pair
        structure_table.product(a, b)
        moved_a = moved(a, s)
        moved_b = moved(b, t)
        product = structure_table.product(moved_a, moved_b)
        assert product == multiply_oracle(
            matrix_to_pair(moved_a), matrix_to_pair(moved_b), a.n
        )
        assert structure_table.product(moved_a, moved_b) == product
        # the moved terms are the interned matrices
        for matrix in product.terms:
            assert matrix is mat(matrix.n, *matrix.entries)

    def test_moved_pairs_share_one_oracle_run(self):
        a = mat(2, (1, 1, 1), (2, 4, 1))
        b = mat(2, (1, 2, 1), (2, 0, 1))
        table = StructureTable()
        first = table.product(a, b)
        for s, t in [(1, 0), (0, -3), (5, 5), (-2, 2)]:
            product = table.product(moved(a, s), moved(b, t))
            assert product == moved(first, s + t)
        assert len(table) == 1

    def test_period_is_part_of_the_class_key(self):
        # identical entries with smallest column 1 at n = 2 and n = 3: one
        # shape at both periods, but different matrices with different
        # products
        entries_a = [(1, 1, 1), (1, 4, 1), (1, 5, 1)]
        entries_b = [(1, 1, 2), (2, 1, 1)]
        a2, b2 = mat(2, *entries_a), mat(2, *entries_b)
        a3, b3 = mat(3, *entries_a), mat(3, *entries_b)
        assert a2.translation_class() == a3.translation_class()
        assert b2.translation_class() == b3.translation_class()
        table = StructureTable()
        assert table.product(a2, b2) == basis(2, (1, 1, 1), (1, 3, 1), (1, 5, 1))
        assert table.product(a3, b3) == basis(3, (1, 1, 1), (1, 4, 2)).scaled(2)
        assert len(table) == 2


def class_terms(x):
    """An element in class space, {(shape, k): coeff}."""
    return {matrix.translation_class(): c for matrix, c in x.terms.items()}


def moved_element_pairs(nr):
    """Two elements of S(n, r), each moved by up to 10^4 periods: their
    terms' weights match in some pairs and not in others."""
    offsets = st.integers(min_value=-(10**4), max_value=10**4)
    element = st.builds(
        moved,
        algebra_elements(nr=nr, col_lo=-3, col_hi=4),
        offsets,
    )
    return st.tuples(element, element)


class TestClassProduct:
    """``multiply_classes`` reads the structure table by class and moves
    only k; ``multiply`` reads it by matrix and moves matrices.  The two
    routes must agree, from an empty table and from a warm one."""

    @settings(max_examples=150)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 3)]).flatmap(moved_element_pairs),
        st.integers(min_value=-(10**4), max_value=10**4),
        st.booleans(),
    )
    def test_equals_the_classes_of_multiply(self, pair, warm_offset, warm):
        x, y = pair
        n = x.n
        saved = multiplication.structure_table
        try:
            multiplication.structure_table = StructureTable()
            product = multiply(x, y)
            expected = class_terms(product)
            multiplication.structure_table = table = StructureTable()
            if warm:
                # every class filled at another offset than the one read
                multiply(moved(x, warm_offset), y)
            filled = len(table)
            got = multiply_classes(n, class_terms(x), class_terms(y))
            assert got == expected
            assert all(got.values())
            # one oracle run per class of pairs whose weights match; a
            # mismatched pair is zero and is not stored
            matched = {
                (n, a.translation_class()[0], b.translation_class()[0])
                for a in x.terms
                for b in y.terms
                if a.col_vector() == b.row_vector()
            }
            assert len(table) == len(matched)
            if warm:
                assert len(table) == filled
        finally:
            multiplication.structure_table = saved

    def test_mismatched_weights_are_zero_and_not_stored(self):
        a = basis(2, (1, 1, 2))  # column weight (2, 0)
        b = basis(2, (2, 2, 2))  # row weight (0, 2)
        table = StructureTable()
        saved = multiplication.structure_table
        try:
            multiplication.structure_table = table
            assert multiply_classes(2, class_terms(a), class_terms(b)) == {}
            assert len(table) == 0
        finally:
            multiplication.structure_table = saved


class TestPeriodShiftIsCentral:
    """z_k, the sum of e(diag(lam)) moved by k periods over the weights lam,
    is x2^k, the move by k periods, and is central: multiplying by it on
    either side moves x as the entry-built reference does.  Every
    translation class rests on this."""

    @pytest.mark.parametrize("n, r", [(2, 2), (2, 3), (3, 3), (2, 4)])
    @pytest.mark.parametrize("k", [1, -2, 3])
    def test_z_k_times_x_is_x_moved(self, monkeypatch, n, r, k):
        # a table of its own, so the products come from the oracle here
        monkeypatch.setattr(multiplication, "structure_table", StructureTable())
        z = moved(unit(n, r), k)
        rng = random.Random(1000 * n + 10 * r + k)
        for _ in range(15):
            x = random_element(rng, n, r, col_lo=-3, col_hi=4)
            assert multiply(z, x) == moved(x, k) == multiply(x, z), x


class TestInfiniteComposition:
    """The bounded transfer patterns that the closed forms sum over."""

    def test_bounded_enumeration(self):
        assert set(bounded({1: 2, 3: 1}, 2)) == {((1, 2),), ((1, 1), (3, 1))}

    def test_zero_total(self):
        assert list(bounded({1: 2}, 0)) == [()]
