"""
Product engines for the q=1 affine Schur algebra.

Two independent routes are implemented:

* ``multiply_oracle`` counts middle tuples in the orbit model directly.
  It is the source of truth; everything else is validated against it.

* closed-form routes: ``chevalley_left`` (row-shift generators),
  ``chevalley_right`` (column-shift generators, the transpose of
  ``chevalley_left`` with the sign flipped), ``loop_left`` (loop
  generators) and ``doublecoset_product`` (stabilizer double cosets with
  index multiplicities).  These are fast paths whose outputs must agree
  with the oracle exactly.

Basis products are memoized in a fill-once structure table with one
oracle run per translation class of pairs: the period shift is central,
so moving the columns of either factor by whole periods moves the
product by as many.  Concurrent duplicate fills are harmless because
every fill computes the identical value.  ``multiply`` reads the table
with matrices; ``multiply_classes`` reads the same table with
translation classes (shape, k) and builds no matrix on a hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    AlgebraElement,
    Class,
    ClassTerm,
    PeriodicMatrix,
    Scalar,
    _of_class,
    compositions,
    diag_matrix,
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
    "identity_element",
    "chevalley_left",
    "chevalley_right",
    "loop_left",
    "doublecoset_product",
    "StructureTable",
    "structure_table",
    "InfiniteComposition",
]


@dataclass(frozen=True)
class InfiniteComposition:
    """Finitely supported assignment Z -> N with a fixed total."""

    support: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if any(t < 0 for _, t in self.support):
            raise ValueError("parts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(t for _, t in self.support)

    def part(self, u: int) -> int:
        for pos, t in self.support:
            if pos == u:
                return t
        return 0

    @classmethod
    def bounded(
        cls, caps: dict[int, int], total: int
    ) -> Iterator["InfiniteComposition"]:
        """All assignments t with sum total and t_u <= caps[u]."""
        positions = sorted(caps)

        def rec(idx: int, remaining: int, acc: list[tuple[int, int]]):
            if idx == len(positions):
                if remaining == 0:
                    yield cls(tuple(acc))
                return
            u = positions[idx]
            for t in range(min(remaining, caps[u]) + 1):
                if t:
                    acc.append((u, t))
                    yield from rec(idx + 1, remaining - t, acc)
                    acc.pop()
                else:
                    yield from rec(idx + 1, remaining, acc)

        yield from rec(0, total, [])


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
    is that product moved by its difference to k0, one lookup in the
    class index per term (:meth:`PeriodicMatrix.columns_moved`), so no
    moved product is kept; :func:`multiply_classes` reads the stored
    product as classes and moves only their k, so it builds no moved
    product at all.  ``len`` counts classes, that is oracle runs.
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
        return product.translated(s + t - k0)


structure_table = StructureTable()


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis product."""
    if x.n != y.n or x.r != y.r:
        raise ValueError("elements live in different algebras")
    acc: dict[PeriodicMatrix, Scalar] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            product = structure_table.product(a, b)
            if product.is_zero():
                continue
            scale = ca * cb
            for matrix, coeff in product.terms.items():
                acc[matrix] = acc.get(matrix, 0) + scale * coeff
    return x._like(acc)


def multiply_classes(
    n: int,
    xs: Iterable[ClassTerm],
    ys: Sequence[ClassTerm],
) -> dict[Class, Scalar]:
    """The product of two elements of period n given as (shape, k, coeff)
    triples, as {(shape, k): nonzero coeff}.

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
    for shape_a, s, ca in xs:
        for shape_b, t, cb in ys:
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


def identity_element(n: int, r: int) -> AlgebraElement:
    """Sum of the diagonal idempotents, the unity of the algebra."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return AlgebraElement(
        n,
        r,
        {diag_matrix(comp): 1 for comp in compositions(n, r)},
    )


def chevalley_left(
    h: int, m: int, sign: str, a: PeriodicMatrix
) -> AlgebraElement:
    """Left multiplication by the m-fold row-shift generator at slot h.

    ``sign="up"`` moves m units from row h+1 up to row h (the generator
    diag(row A) + m E_{h,h+1} - m E_{h+1,h+1}); ``sign="down"`` moves
    them from row h down to row h+1.  The result is the exact binomial
    sum over bounded transfer patterns.
    """
    n = a.n
    if not 1 <= h <= n:
        raise ValueError("slot must lie in 1..n")
    if m < 0:
        raise ValueError("transfer amount must be nonnegative")
    if sign not in ("up", "down"):
        raise ValueError("sign must be 'up' or 'down'")
    source, dest = (h + 1, h) if sign == "up" else (h, h + 1)
    terms: dict[PeriodicMatrix, int] = {}
    for t in InfiniteComposition.bounded(a.row_entries(source), m):
        coeff = 1
        deltas = []
        for u, tu in t.support:
            coeff *= math.comb(a.entry(dest, u) + tu, tu)
            deltas.append((dest, u, tu))
            deltas.append((source, u, -tu))
        matrix = a.shifted_by(deltas)
        terms[matrix] = terms.get(matrix, 0) + coeff
    return AlgebraElement(n, a.r, terms)


def chevalley_right(
    h: int, m: int, sign: str, a: PeriodicMatrix
) -> AlgebraElement:
    """Right multiplication by the m-fold column-shift generator at slot h.

    ``sign="up"`` moves m units from column h to column h+1;
    ``sign="down"`` moves them from column h+1 back to column h.  The
    transpose anti-involution turns this into :func:`chevalley_left` on
    the transposed matrix with the opposite sign.
    """
    flipped = {"up": "down", "down": "up"}.get(sign, sign)
    return chevalley_left(h, m, flipped, a.transpose()).transpose()


def loop_left(h: int, m: int, a: PeriodicMatrix) -> AlgebraElement:
    """Left multiplication by the loop generator moving row-h mass by m*n.

    The generator is diag(row A) - E_{h,h} + E_{h,h+m*n} with m nonzero;
    each occupied slot u of row h contributes one term shifted to u+m*n
    with multiplicity a_{h,u+m*n} + 1.
    """
    n = a.n
    if not 1 <= h <= n:
        raise ValueError("slot must lie in 1..n")
    if m == 0:
        raise ValueError("loop amount must be nonzero")
    terms: dict[PeriodicMatrix, int] = {}
    for u, value in a.row_entries(h).items():
        if value < 1:
            continue
        coeff = a.entry(h, u + m * n) + 1
        matrix = a.shifted_by([(h, u + m * n, 1), (h, u, -1)])
        terms[matrix] = terms.get(matrix, 0) + coeff
    return AlgebraElement(n, a.r, terms)


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
