"""
The product of the q=1 affine Schur algebra.

``multiply_oracle`` counts middle tuples in the orbit model directly.  It
is the one production engine and the source of truth.  Its basis
products are memoized in a fill-once structure table with one oracle run
per translation class of pairs: the period shift is central, so moving
the columns of either factor by whole periods moves the product by as
many.  Concurrent duplicate fills are harmless because every fill
computes the identical value.  ``multiply`` reads the table with
matrices; ``multiply_classes`` reads the same table with elements in
class space, ``{(shape, k): value}``, and builds no matrix on a hit.
The structure constants are integers, so ``multiply`` sums in ``int``.

``doublecoset_product`` (stabilizer double cosets with index
multiplicities) is an independent route to one basis product, which the
benchmark's algebra workload uses to spot-check the table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import (
    AlgebraElement,
    Class,
    PeriodicMatrix,
    Scalar,
    _cleared, _divided,
    _of_class,
)
from .weyl import (
    IndexTuple,
    WeylElement,
    act,
    matrix_to_pair,
    pair_orbit_equal,
    pair_to_matrix,
    stabilizer,
    transporter,
)

__all__ = [
    "multiply_oracle",
    "multiply",
    "multiply_classes",
    "doublecoset_product",
    "StructureTable",
    "structure_table",
]


def multiply_oracle(
    pair1: tuple[Sequence[int], Sequence[int]],
    pair2: tuple[Sequence[int], Sequence[int]],
    n: int,
) -> AlgebraElement:
    """Orbit-counting product of two basis elements given as tuple pairs.

    The result is the sum over result orbits of the number of middle
    tuples joining the factors, returned as an algebra element.
    """
    (i, j), (k, l) = (tuple(pair1[0]), tuple(pair1[1])), (
        tuple(pair2[0]),
        tuple(pair2[1]),
    )
    r = len(i)
    if not (len(j) == len(k) == len(l) == r):
        raise ValueError("all tuples must share one length")
    zero = AlgebraElement.zero(n, r)

    # Align the middle: rewrite the second factor on representative (j, .).
    bridges = transporter(k, j, n)
    if not bridges:
        return zero
    l_aligned = act(l, bridges[0], n)

    # Candidate middle tuples and result orbits, first component fixed at i.
    middles = sorted({act(j, w, n) for w in stabilizer(i, n)})
    orbit_reps: dict[PeriodicMatrix, IndexTuple] = {}
    for s in middles:
        for w in transporter(j, s, n):
            q = act(l_aligned, w, n)
            matrix = pair_to_matrix(i, q, n)
            orbit_reps.setdefault(matrix, q)

    terms: dict[PeriodicMatrix, int] = {}
    for matrix, q in orbit_reps.items():
        count = sum(
            1
            for s in middles
            if pair_orbit_equal((s, q), (j, l_aligned), n)
        )
        if count:
            terms[matrix] = count
    return AlgebraElement(n, r, terms)


# (n, shape_a, shape_b): one translation class of basis pairs
_ClassKey = tuple[int, tuple[int, ...], tuple[int, ...]]


class StructureTable:
    """Fill-once cache of basis products, one oracle run per translation
    class of pairs.

    With ``a = shape_a`` moved by s periods and ``b = shape_b`` moved by t
    (:meth:`PeriodicMatrix.translation_class`), the class key is
    ``(n, shape_a, shape_b)``; ``n`` is part of it because equal shapes
    at different periods are different matrices.  The translation tau by
    (n, ..., n) lies in the affine Weyl group and commutes with its
    action, so e_a e_b = (e_shape_a e_shape_b) x2^(s+t).  A class keeps
    ``(k0, product)``: the total offset k0 = s + t of the pair that filled
    it and the oracle's product there.  The product at any other offset
    is that product moved by its difference d to k0: each stored term of
    class (shape, k) becomes the matrix of class (shape, k + d), one
    lookup in the class index, so no moved product is kept;
    :func:`multiply_classes` reads the stored product as classes and
    moves only their k, so it builds no moved product at all.  ``len``
    counts classes, that is oracle runs.
    """

    def __init__(self) -> None:
        self._classes: dict[_ClassKey, tuple[int, AlgebraElement]] = {}

    def __len__(self) -> int:
        return len(self._classes)

    def product(
        self, a: PeriodicMatrix, b: PeriodicMatrix
    ) -> AlgebraElement:
        if a.n != b.n or a.r != b.r:
            raise ValueError("matrices index different algebras")
        if a.col_vector() != b.row_vector():
            return AlgebraElement.zero(a.n, a.r)
        shape_a, s = a.translation_class()
        shape_b, t = b.translation_class()
        key = (a.n, shape_a, shape_b)
        found = self._classes.get(key)
        if found is None:
            product = multiply_oracle(
                matrix_to_pair(a), matrix_to_pair(b), a.n
            )
            self._classes[key] = (s + t, product)
            return product
        k0, product = found
        shift = s + t - k0
        if not shift:
            return product
        terms = {}
        for matrix, coeff in product.terms.items():
            shape, k = matrix.translation_class()
            terms[_of_class(a.n, shape, k + shift)] = coeff
        # moving columns changes no coefficient, so the term dict is built
        # once and taken as it is
        moved = object.__new__(AlgebraElement)
        moved.n, moved.r, moved.terms = a.n, a.r, terms
        return moved


structure_table = StructureTable()


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis product, summed in ``int`` over the
    cleared factors (``core._cleared``) and divided once per term."""
    if x.n != y.n or x.r != y.r:
        raise ValueError("elements live in different algebras")
    (xs, dx), (ys, dy) = _cleared(x.terms), _cleared(y.terms)
    den = dx * dy
    acc: dict[PeriodicMatrix, int] = {}
    for a, ca in xs.items():
        for b, cb in ys.items():
            product = structure_table.product(a, b)
            if product.is_zero():
                continue
            scale = ca * cb
            for matrix, coeff in product.terms.items():
                acc[matrix] = acc.get(matrix, 0) + scale * coeff
    return x._like(acc if den == 1 else {m: _divided(v, den) for m, v in acc.items()})


def multiply_classes(
    n: int,
    xs: Mapping[Class, Scalar],
    ys: Mapping[Class, Scalar],
) -> dict[Class, Scalar]:
    """The product of two elements of period n in class space,
    {(shape, k): coeff}, in the same form, every coeff nonzero.

    The pair of classes (shape_a, s) and (shape_b, t) reads the structure
    table's class (n, shape_a, shape_b): its stored product, filled at
    offset k0, moved by s + t - k0 periods, so each stored term of class
    (shape, k) lands at (shape, k + s + t - k0), the class cached on the
    stored matrix.  No moved product is built.  A miss fills the class
    through :meth:`StructureTable.product` on the matrices of the two
    classes, so the oracle runs on the matrices :func:`multiply` would
    give it; a pair whose weights do not match is zero and is not stored.
    """
    table = structure_table
    acc: dict[Class, Scalar] = {}
    for (shape_a, s), ca in xs.items():
        for (shape_b, t), cb in ys.items():
            key = (n, shape_a, shape_b)
            found = table._classes.get(key)
            if found is None:
                table.product(_of_class(n, shape_a, s), _of_class(n, shape_b, t))
                found = table._classes.get(key)
                if found is None:  # the weights do not match
                    continue
            k0, product = found
            shift = s + t - k0
            scale = ca * cb
            for matrix, coeff in product.terms.items():
                shape, k = matrix.translation_class()
                term = (shape, k + shift)
                acc[term] = acc.get(term, 0) + scale * coeff
    return {term: value for term, value in acc.items() if value}


def _double_cosets(
    group: list[WeylElement],
    left: list[WeylElement],
    right: list[WeylElement],
) -> list[WeylElement]:
    """Representatives of left\\group/right for finite subgroups."""
    remaining = set(group)
    reps = []
    for delta in group:
        if delta not in remaining:
            continue
        reps.append(delta)
        for a in left:
            ad = a * delta
            for b in right:
                remaining.discard(ad * b)
    return reps


def doublecoset_product(
    pair1: tuple[Sequence[int], Sequence[int]],
    pair2: tuple[Sequence[int], Sequence[int]],
    n: int,
) -> AlgebraElement:
    """Basis product via stabilizer double cosets.

    After aligning the factors on a shared middle tuple j, the product is
    the sum over double cosets of the middle stabilizer of the basis
    element at (i, l.delta), with multiplicity the index of the triple
    stabilizer inside the stabilizer of (i, l.delta).
    """
    (i, j) = (tuple(pair1[0]), tuple(pair1[1]))
    (k, l) = (tuple(pair2[0]), tuple(pair2[1]))
    r = len(i)
    if not (len(j) == len(k) == len(l) == r):
        raise ValueError("all tuples must share one length")
    zero = AlgebraElement.zero(n, r)

    bridges = transporter(k, j, n)
    if not bridges:
        return zero
    l = act(l, bridges[0], n)

    middle_stab = stabilizer(j, n)
    stab_jl = [w for w in middle_stab if act(l, w, n) == l]
    stab_i = stabilizer(i, n)
    stab_ij = [w for w in middle_stab if act(i, w, n) == i]

    terms: dict[PeriodicMatrix, int] = {}
    for delta in _double_cosets(middle_stab, stab_jl, stab_ij):
        target = act(l, delta, n)
        pair_stab = [w for w in stab_i if act(target, w, n) == target]
        triple_stab = [w for w in pair_stab if act(j, w, n) == j]
        index, remainder = divmod(len(pair_stab), len(triple_stab))
        if remainder:
            raise ArithmeticError("subgroup index is not integral")
        matrix = pair_to_matrix(i, target, n)
        terms[matrix] = terms.get(matrix, 0) + index
    return AlgebraElement(n, r, terms)
