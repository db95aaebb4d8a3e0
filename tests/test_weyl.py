import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import (
    WeylElement,
    act,
    matrix_to_pair,
    pair_orbit_equal,
    pair_to_matrix,
    stabilizer,
    transporter,
)

from conftest import index_tuples, mat, weyl_elements

IDENT = WeylElement((1, 2), (0, 0))
SWAP = WeylElement((2, 1), (0, 0))


class TestAction:
    def test_pure_shift(self):
        w = WeylElement((1, 2), (1, 0))
        assert act((1, 2), w, 2) == (3, 2)

    def test_place_permutation(self):
        assert act((1, 2), SWAP, 2) == (2, 1)

    def test_composite(self):
        w = WeylElement((2, 1), (0, 1))
        assert act((1, 2), w, 2) == (2, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            act((1, 2, 3), SWAP, 2)

    @given(st.data())
    @settings(max_examples=80)
    def test_right_action_law(self, data):
        r = data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=3))
        i = data.draw(index_tuples(r=r))
        w1 = data.draw(weyl_elements(r=r))
        w2 = data.draw(weyl_elements(r=r))
        assert act(i, w1 * w2, n) == act(act(i, w1, n), w2, n)

    @given(weyl_elements())
    def test_inverse(self, w):
        assert w * w.inverse() == WeylElement(tuple(range(1, w.r + 1)), (0,) * w.r)
        assert w.inverse() * w == WeylElement(tuple(range(1, w.r + 1)), (0,) * w.r)


class TestPairToMatrix:
    def test_reflection_orbit(self):
        assert pair_to_matrix((1, 2), (2, 1), 2) == mat(2, (1, 2, 1), (2, 1, 1))

    def test_double_loop_orbit(self):
        assert pair_to_matrix((1, 1), (3, 3), 2) == mat(2, (1, 3, 2))

    def test_identity_orbit(self):
        assert pair_to_matrix((1, 2), (1, 2), 2) == mat(
            2, (1, 1, 1), (2, 2, 1)
        )

    @given(st.data())
    @settings(max_examples=80)
    def test_constant_on_orbits(self, data):
        r = data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=3))
        i = data.draw(index_tuples(r=r))
        j = data.draw(index_tuples(r=r))
        w = data.draw(weyl_elements(r=r))
        assert pair_to_matrix(act(i, w, n), act(j, w, n), n) == pair_to_matrix(
            i, j, n
        )


class TestMatrixToPair:
    def test_round_trips(self):
        for matrix in [
            mat(2, (1, 2, 1), (2, 1, 1)),
            mat(2, (1, 3, 2)),
            mat(2, (1, 1, 2)),
        ]:
            i, j = matrix_to_pair(matrix)
            assert pair_to_matrix(i, j, matrix.n) == matrix

    def test_canonical_listing(self):
        assert matrix_to_pair(mat(2, (1, 2, 1), (2, 1, 1))) == ((1, 2), (2, 1))
        assert matrix_to_pair(mat(2, (1, 3, 2))) == ((1, 1), (3, 3))
        assert matrix_to_pair(mat(2, (1, 1, 2))) == ((1, 1), (1, 1))


class TestStabilizer:
    def test_distinct_residues(self):
        assert stabilizer((1, 2), 2) == [IDENT]

    def test_equal_entries(self):
        stab = stabilizer((1, 1), 2)
        assert len(stab) == 2
        assert IDENT in stab and SWAP in stab

    def test_same_residue_distinct_values(self):
        stab = stabilizer((1, 3), 2)
        assert len(stab) == 2
        assert IDENT in stab
        # brute force: the swap needs shifts (-1, 1) to fix (1, 3)
        assert WeylElement((2, 1), (-1, 1)) in stab
        assert act((1, 3), WeylElement((2, 1), (-1, 1)), 2) == (1, 3)

    @given(st.data())
    @settings(max_examples=60)
    def test_group_closure_and_lagrange(self, data):
        import math

        r = data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=3))
        i = data.draw(index_tuples(r=r))
        stab = stabilizer(i, n)
        members = set(stab)
        assert WeylElement(tuple(range(1, r + 1)), (0,) * r) in members
        for w1 in stab:
            assert w1.inverse() in members
            for w2 in stab:
                assert w1 * w2 in members
        assert math.factorial(r) % len(stab) == 0


class TestTransporter:
    def test_single_element(self):
        assert transporter((1, 2), (2, 1), 2) == [SWAP]

    def test_empty_on_distinct_orbits(self):
        assert transporter((1, 2), (1, 3), 2) == []

    def test_two_elements(self):
        trans = transporter((1, 1), (3, 3), 2)
        assert len(trans) == 2
        for w in trans:
            assert act((1, 1), w, 2) == (3, 3)

    @given(st.data())
    @settings(max_examples=60)
    def test_coset_of_stabilizer(self, data):
        r = data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=3))
        k = data.draw(index_tuples(r=r))
        w = data.draw(weyl_elements(r=r))
        s = act(k, w, n)
        trans = transporter(k, s, n)
        assert set(trans) == {u * w for u in stabilizer(k, n)}


class TestPairOrbitEqual:
    def test_swap_diagonally(self):
        assert pair_orbit_equal(((1, 2), (2, 1)), ((2, 1), (1, 2)), 2)

    def test_sorted_representative(self):
        assert pair_orbit_equal(((2, 1), (1, 1)), ((1, 2), (1, 1)), 2)

    def test_distinct_orbits(self):
        assert not pair_orbit_equal(((1, 2), (1, 2)), ((1, 2), (2, 1)), 2)
