import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# exact big-integer arithmetic has uneven per-example cost; wall-clock
# deadlines would only add flakiness to tests of exact identities
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from affschur import (
    AlgebraElement,
    Composition,
    PeriodicMatrix,
    WeylElement,
    cellular,
    diag_matrix,
    pair_to_matrix,
)


def mat(n, *entries):
    return PeriodicMatrix.from_entries(n, entries)


def basis(n, *entries):
    return AlgebraElement.basis(mat(n, *entries))


def moved(x, k):
    """A matrix, or every matrix of an element, with each column moved by
    k periods: built from its entries through ``from_entries``, not read
    from the class index, so it is an independent reference for moves by
    translation class."""
    if isinstance(x, PeriodicMatrix):
        return mat(x.n, *((i, j + k * x.n, v) for i, j, v in x.entries))
    return AlgebraElement(x.n, x.r, {moved(m, k): c for m, c in x.terms.items()})


def tangle_block(monkeypatch, signature):
    """Build the block of this signature with its first and last columns,
    which must meet disjoint rows, replaced by their sum and their
    difference.  That is an invertible column operation, so the block
    keeps full column rank, but every row meeting either new column meets
    both, so neither ever peels, and the peeling's bound cannot prove the
    block deficient: its rank is undecided."""
    stem_system = cellular.stem_system

    def tangled(window, pairs):
        cols, shape_rows, nrows, placements = stem_system(window, pairs)
        if pairs is cellular.SIGNATURE_BLOCKS[signature]:
            first, last = (
                {base + shift: value for base, value in stem}
                for stem, shift in (placements[0], placements[-1])
            )
            assert not first.keys() & last.keys()
            total = [*first.items(), *last.items()]
            difference = [*first.items(), *((r, -value) for r, value in last.items())]
            placements = [(total, 0), *placements[1:-1], (difference, 0)]
        return cols, shape_rows, nrows, placements

    monkeypatch.setattr(cellular, "stem_system", tangled)


def assert_canonical_exact(*elements):
    """Every stored coefficient is a nonzero canonical exact scalar: an int
    (never a bool) when integral, else a Fraction with denominator above 1
    (the invariant that the trusted constructor of internal arithmetic must
    keep)."""
    for element in elements:
        for coeff in element.terms.values():
            assert coeff != 0, element.terms
            assert type(coeff) is int or (
                type(coeff) is Fraction and coeff.denominator > 1
            ), element.terms


@pytest.fixture
def e_lam():
    return AlgebraElement.basis(diag_matrix(Composition(2, (2, 0))))


@pytest.fixture
def e_mu():
    return AlgebraElement.basis(diag_matrix(Composition(2, (0, 2))))


@pytest.fixture
def e_nu():
    return AlgebraElement.basis(diag_matrix(Composition(2, (1, 1))))


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- hypothesis strategies -------------------------------------------------

small_nr = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])


@st.composite
def weyl_elements(draw, r=None):
    if r is None:
        r = draw(st.integers(min_value=1, max_value=3))
    sigma = draw(st.permutations(list(range(1, r + 1))))
    eps = tuple(
        draw(st.integers(min_value=-2, max_value=2)) for _ in range(r)
    )
    return WeylElement(tuple(sigma), eps)


@st.composite
def index_tuples(draw, r=None, lo=-5, hi=6):
    if r is None:
        r = draw(st.integers(min_value=1, max_value=3))
    return tuple(
        draw(st.integers(min_value=lo, max_value=hi)) for _ in range(r)
    )


@st.composite
def basis_matrices(draw, nr=None, col_lo=-4, col_hi=5):
    if nr is None:
        n, r = draw(small_nr)
    else:
        n, r = nr
    rows = tuple(
        sorted(draw(st.integers(min_value=1, max_value=n)) for _ in range(r))
    )
    cols = tuple(
        draw(st.integers(min_value=col_lo, max_value=col_hi)) for _ in range(r)
    )
    return pair_to_matrix(rows, cols, n)


@st.composite
def algebra_elements(draw, nr=(2, 2), col_lo=-4, col_hi=5):
    n, r = nr
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        matrix = draw(basis_matrices(nr=nr, col_lo=col_lo, col_hi=col_hi))
        coeff = Fraction(
            draw(st.integers(min_value=-4, max_value=4)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        if coeff:
            terms[matrix] = terms.get(matrix, Fraction(0)) + coeff
    return AlgebraElement(n, r, terms)
