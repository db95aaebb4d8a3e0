"""
The cellular structure of the n = r = 2 algebra.

Fixed data (all at n = r = 2):

* weights (2,0), (0,2), (1,1) and their diagonal idempotents;
* the corner algebra B cut out by the (2,0) idempotent, identified with
  Q[x1, x2, x2^-1] via  x1 <-> E_{1,1}+E_{1,3},  x2 <-> 2E_{1,3},
  x2^-1 <-> 2E_{3,1};
* the four-element bases of the row-(2,0) span as a left B-module and of
  the column-(2,0) span as a right B-module (the second is the entrywise
  transpose of the first);
* the two-sided ideal generated by the (2,0) idempotent, coordinatized
  by 4 x 4 tensors of Laurent polynomials.

Decompositions over the free bases read closed forms, power sums and
complete sums (Newton's identity is the x1 action), so they are exact
and need no linear algebra.  The corner is a summand of the left module
(index 2 of its basis is the corner unit), so the same closed forms
write a corner element as a polynomial.  The linear solver is used where
no closed form exists, finding tensor coordinates of ideal members, and
as an independent cross-check.

One family spans everything: the omega element (l, m, a, b) is
(right basis l) * x1^a x2^b * (left basis m).  Index 2 of both bases is
the (2,0) idempotent, the corner unit, so cell (2, 2) holds the corner
monomials (:func:`monomial_image`), the cells (2, m) the left module and
the cells (l, 2) the right module.  x2 is the shift by one period, which
is central, so a member with b != 0 is its b = 0 member, its *stem*,
with every column moved by 2b.  The only products the family needs are
those of its stems, and they are taken in class space: each stem is kept
once as {(shape, k): value} with its column extent
(:func:`_stem_classes`), multiplied out through the structure table's
classes (:func:`multiply_classes`), with no matrix built.  An element is
built only when one is asked for: a member is its stem's classes moved by
b, read from the class index, and is not kept; a contraction (a
certificate, module coordinates) is summed in ``int`` as classes and each
matrix of the result built once.

All membership and inversion problems are truncated by a *window*: a
bound W restricting the column support of every matrix involved to
[-W, W].  Every windowed question is "is x in the span of the family
members that fit", and one class answers it: the spanning set at one
window splits into signature blocks, and :class:`WindowBlocks` turns
each block into one sparse system and factors it once, on first use,
for every question asked of it.  The system is built from the b = 0
members, the *stems* (:func:`stem_system`): a member's columns are its
stem's plus 2b, so the stem's column extent says which translates fit,
and a matrix is read as its translation class (shape, k), so a stem
term moved by b periods has class (shape, k + b).  The rows of one
shape are numbered consecutively in k, so the column of translate b is
its stem's integer rows plus b, and a block holds each stem's rows once
and each column as that list and its shift.  No translate is built to
assemble a system; a right-hand side reaches the rows through its
matrices' classes.  Its
:meth:`~WindowBlocks.coordinates` solves; its
:meth:`~WindowBlocks.membership` adds the certificate tensor, re-verified
by contraction.  :func:`ideal_membership` is the window ladder, growing
geometrically up to a cap, over a fresh :class:`WindowBlocks` per rung.
It and :func:`corner_to_laurent` answer a question that does not fit
the cap "undecided" rather than guess.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    AlgebraElement,
    Class,
    Composition,
    PeriodicMatrix,
    Scalar,
    _cleared, _divided,
    _of_class,
    diag_matrix,
)
from .laurent import LaurentPoly2
from .linalg import Factorization, Placement, SolveResult
from .multiplication import multiply_classes

__all__ = [
    "CellVector",
    "CellTensor",
    "MembershipResult",
    "UndecidedError",
    "WEIGHT_20",
    "WEIGHT_02",
    "WEIGHT_11",
    "idempotent_20",
    "idempotent_02",
    "idempotent_11",
    "LEFT_BASIS",
    "RIGHT_BASIS",
    "GEN_X1",
    "GEN_X2",
    "GEN_X2_INV",
    "monomial_image",
    "laurent_to_corner",
    "corner_to_laurent",
    "corner_involution",
    "decompose_left",
    "decompose_right",
    "tensor_to_ideal",
    "ideal_membership",
    "batch_ideal_membership",
    "WindowBlocks",
    "omega_element",
    "omega_candidates",
    "max_window_cap",
    "stem_system",
]

N = 2
R = 2

WEIGHT_20 = Composition(2, (2, 0))
WEIGHT_02 = Composition(2, (0, 2))
WEIGHT_11 = Composition(2, (1, 1))


def _mat(*entries: tuple[int, int, int]) -> PeriodicMatrix:
    return PeriodicMatrix.from_entries(N, entries)


IDEM_20_MAT = diag_matrix(WEIGHT_20)
IDEM_02_MAT = diag_matrix(WEIGHT_02)
IDEM_11_MAT = diag_matrix(WEIGHT_11)

# Free basis of the row-(2,0) span as a left module over the corner ring,
# in the fixed coordinate order used by CellVector and CellTensor.
LEFT_BASIS: tuple[PeriodicMatrix, ...] = (
    _mat((1, 1, 1), (1, 2, 1)),
    _mat((1, 2, 1), (1, 3, 1)),
    _mat((1, 1, 2)),
    _mat((1, 2, 2)),
)
# Free basis of the column-(2,0) span as a right module: the transposes.
RIGHT_BASIS: tuple[PeriodicMatrix, ...] = tuple(
    m.transpose() for m in LEFT_BASIS
)

GEN_X1 = _mat((1, 1, 1), (1, 3, 1))
GEN_X2 = _mat((1, 3, 2))
GEN_X2_INV = _mat((3, 1, 2))


def idempotent_20() -> AlgebraElement:
    return AlgebraElement.basis(IDEM_20_MAT)


def idempotent_02() -> AlgebraElement:
    return AlgebraElement.basis(IDEM_02_MAT)


def idempotent_11() -> AlgebraElement:
    return AlgebraElement.basis(IDEM_11_MAT)


def max_window_cap() -> int:
    """Global cap on window growth, from AFFSCHUR_MAX_WINDOW (default 64),
    which must be spelled in ASCII digits only."""
    raw = os.environ.get("AFFSCHUR_MAX_WINDOW", "64")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError("AFFSCHUR_MAX_WINDOW must be an integer")
    cap = int(raw)
    if cap < 1:
        raise ValueError("AFFSCHUR_MAX_WINDOW must be positive")
    return cap


class UndecidedError(RuntimeError):
    """The question does not fit inside the allowed window."""


# ---------------------------------------------------------------------------
# windowed systems


def _column_reach(x: AlgebraElement) -> int:
    """The largest |column| of x's matrices (0 for zero): the least window x fits."""
    return max((abs(j) for matrix in x.terms for _, j, _ in matrix.entries), default=0)


_ZERO = AlgebraElement.zero(N, R)


# ---------------------------------------------------------------------------
# the spanning family


# (l, m, a) -> the stem, member (l, m, a, 0), as {class: value}, and its
# column extent (lo, hi)
_STEMS: dict[tuple[int, int, int], tuple[dict[Class, Scalar], tuple[int, int]]] = {}


def _extent(classes: Mapping[Class, Scalar]) -> tuple[int, int] | None:
    """The column extent (lo, hi) of the element {class: value}, None when it
    is zero: class (shape, k) has the shape's columns moved by k periods."""
    support = [j + N * k for shape, k in classes for j in shape[1::3]]
    return (min(support), max(support)) if support else None


def _stem_classes(l: int, m: int, a: int) -> dict[Class, Scalar]:
    """The stem (l, m, a, 0) as {class: value}, kept once in ``_STEMS``
    with its extent (:func:`_extent`).

    Index 2 of both bases is the corner unit, so the stem of cell (2, 2)
    is x1^a, filled by x1 steps from the unit (no exponent costs
    recursion depth); that of cell (l, 2) is right basis l times x1^a,
    and that of any other cell its (l, 2) stem times left basis m.  Every
    product is taken in class space (:func:`multiply_classes`), so no
    stem is built as an element.
    """
    key = (l, m, a)
    found = _STEMS.get(key)
    if found is not None:
        return found[0]
    if a < 0:
        raise ValueError("x1-exponent must be nonnegative")
    if l == m == 2:
        power = {IDEM_20_MAT.translation_class(): 1}
        x1 = {GEN_X1.translation_class(): 1}
        for k in range(a + 1):
            found = _STEMS.get((2, 2, k))
            if found is None:
                terms = multiply_classes(N, power, x1) if k else power
                found = _STEMS[(2, 2, k)] = (terms, _extent(terms))
            power = found[0]
        return power
    if m == 2:
        xs, ys = {RIGHT_BASIS[l].translation_class(): 1}, _stem_classes(2, 2, a)
    else:
        xs, ys = _stem_classes(l, 2, a), {LEFT_BASIS[m].translation_class(): 1}
    terms = multiply_classes(N, xs, ys)
    _STEMS[key] = (terms, _extent(terms))
    return terms


def _element(classes: dict[Class, Scalar]) -> AlgebraElement:
    """The element {class: value}, each matrix read from the class index."""
    return _ZERO._like(
        {_of_class(N, shape, k): value for (shape, k), value in classes.items()}
    )


def omega_element(l: int, m: int, a: int, b: int) -> AlgebraElement:
    """The ideal element (right basis l) * x1^a x2^b * (left basis m).

    x2 is the central shift by one period, so the member is its stem
    (:func:`_stem_classes`) moved by b periods: each stem term of class
    (shape, k) is the matrix of class (shape, k + b).  The stem is kept;
    the member is built on each call.
    """
    stem = _stem_classes(l, m, a)
    return _element({(shape, k + b): value for (shape, k), value in stem.items()})


def monomial_image(a: int, b: int) -> AlgebraElement:
    """The corner element representing x1^a x2^b: omega cell (2, 2)."""
    return omega_element(2, 2, a, b)


def _cell_stems(l: int, m: int, window: int) -> list[tuple[int, int, int]]:
    """``(a, b_lo, b_hi)`` for each stem, b = 0 member, of cell (l, m)
    with a translate that fits the window: the members (l, m, a, b) with
    b_lo <= b <= b_hi are those that fit.

    A member's columns are those of its stem plus 2b, so the column
    extent [lo, hi] of each stem, kept with it (:func:`_stem_classes`), says
    which b fit: those with -window <= lo + 2b and hi + 2b <= window.
    The width hi - lo grows with a (by 2 per step), so the a-range stops
    at the first a wider than 2 * window.
    """
    stems = []
    for a in count():
        _stem_classes(l, m, a)
        lo, hi = _STEMS[(l, m, a)][1]
        if hi - lo > 2 * window:
            break
        b_lo, b_hi = -((window + lo) // 2), (window - hi) // 2
        if b_lo <= b_hi:
            stems.append((a, b_lo, b_hi))
    return stems


Label = tuple[int, int, int, int]


def _window_labels(
    window: int, pairs: Iterable[tuple[int, int]]
) -> Iterator[Label]:
    """The labels (l, m, a, b) of the members of the cells in ``pairs``
    that fit the window, by (l, m), then b, then a: the one enumeration
    of a window's spanning set."""
    for l, m in sorted(pairs):
        stems = _cell_stems(l, m, window)
        first = min((b_lo for _, b_lo, _ in stems), default=0)
        last = max((b_hi for _, _, b_hi in stems), default=-1)
        for b in range(first, last + 1):
            for a, b_lo, b_hi in stems:
                if b_lo <= b <= b_hi:
                    yield l, m, a, b


def omega_candidates(
    window: int, pairs: Iterable[tuple[int, int]] | None = None
) -> list[tuple[Label, AlgebraElement]]:
    """The members of the cells (l, m) in ``pairs`` (default: all 16)
    whose element fits inside the window.

    Returned in a fixed deterministic order as (label, element) pairs,
    label = (l, m, a, b): by (l, m), then b, then a, the columns of
    :func:`stem_system`.  Only the elements that fit are built.
    """
    if pairs is None:
        pairs = [(l, m) for l in range(4) for m in range(4)]
    return [(label, omega_element(*label)) for label in _window_labels(window, pairs)]


def _translate_shift(b: int) -> int:
    """How far the block rows of translate b lie past its stem's.

    A matrix of class (shape, k) moved by b periods has class
    (shape, k + b), moving columns keeps every coefficient, and the rows
    of one shape are numbered consecutively in k: so the column of
    translate b is its stem's rows, each moved by b, with the stem's
    values.  :func:`stem_system` derives each shape's k-range from this
    map too, so every moved row lies in its own shape's range, and
    :func:`_contract` moves each stem term by it.
    """
    return b


def _contract(coeffs: Mapping[Label, Scalar]) -> dict:
    """The sum of coeff * omega_element(label) over {label: coeff} as {class:
    nonzero value}, in ``int`` over the cleared coefficients (``_cleared``):
    a stem term (shape, k): value lands at (shape, k + _translate_shift(b))."""
    ints, den = _cleared(coeffs)
    acc: dict[tuple, int] = {}
    for (l, m, a, b), coeff in ints.items():
        shift = _translate_shift(b)
        for (shape, k), value in _stem_classes(l, m, a).items():
            key = (shape, k + shift)
            acc[key] = acc.get(key, 0) + coeff * value
    return {key: v if den == 1 else _divided(v, den) for key, v in acc.items() if v}


# shape -> (offset, k_lo, k_hi): the matrix of class (shape, k) is block
# row offset + k, for k_lo <= k <= k_hi
ShapeRows = dict[tuple[int, ...], tuple[int, int, int]]


def stem_system(
    window: int, pairs: Iterable[tuple[int, int]]
) -> tuple[list[Label], ShapeRows, int, list[Placement]]:
    """The system of the members of the cells in ``pairs`` that fit the
    window, built from their stems: no translate is built.

    Returns the column labels, in the order of :func:`omega_candidates`;
    the rows of each translation-class shape (``ShapeRows``), the shapes
    numbered in the order met; the number of rows; and per column its
    placement (stem rows, shift), the columns :class:`Factorization`
    takes.

    Each stem's terms are read as classes (:func:`_stem_classes`) and
    kept once, as its integer rows [(offset + k, value)]: the column of
    translate b is that list, shared by every translate of the stem, and
    the shift :func:`_translate_shift` gives b, so the block holds
    Theta(W^2) entries for its Theta(W^3) nonzeros.  A shape's k-range
    spans its stem terms' classes moved by the shifts of the translates
    that fit, so every moved row is a row of the system, and distinct
    matrices have distinct classes, so the rows of one column are
    distinct.
    """
    labels = list(_window_labels(window, pairs))
    shifts = [_translate_shift(b) for *_, b in labels]
    # stem (l, m, a) -> the least and greatest shift of its translates
    reach: dict[tuple[int, int, int], list[int]] = {}
    for (l, m, a, _), shift in zip(labels, shifts):
        extent = reach.setdefault((l, m, a), [shift, shift])
        extent[0], extent[1] = min(extent[0], shift), max(extent[1], shift)
    # stem -> its terms as {(shape, k): value}
    stem_terms = {stem: _stem_classes(*stem) for stem in reach}
    k_range: dict[tuple[int, ...], list[int]] = {}
    for stem, terms in stem_terms.items():
        low, high = reach[stem]
        for shape, k in terms:
            found = k_range.setdefault(shape, [k + low, k + high])
            found[0], found[1] = min(found[0], k + low), max(found[1], k + high)
    shape_rows: ShapeRows = {}
    nrows = 0
    for shape, (k_lo, k_hi) in k_range.items():
        shape_rows[shape] = (nrows - k_lo, k_lo, k_hi)
        nrows += k_hi - k_lo + 1
    stem_rows = {
        stem: [(shape_rows[shape][0] + k, coeff) for (shape, k), coeff in terms.items()]
        for stem, terms in stem_terms.items()
    }
    placements = [
        (stem_rows[(l, m, a)], shift) for (l, m, a, _), shift in zip(labels, shifts)
    ]
    return labels, shape_rows, nrows, placements


# ---------------------------------------------------------------------------
# corner ring <-> Laurent polynomials


def laurent_to_corner(p: LaurentPoly2) -> AlgebraElement:
    """Ring map sending x1, x2, x2^-1 to their corner generators: the
    contraction of the coefficients with the corner monomials, cell (2, 2)."""
    return _element(
        _contract({(2, 2, a, b): coeff for (a, b), coeff in p.terms.items()})
    )


def corner_to_laurent(x: AlgebraElement) -> LaurentPoly2:
    """The unique Laurent polynomial mapping onto a corner element.

    The corner element p(x1, x2) * e is p times the left basis element
    of index 2, the corner unit e, so p is its index-2 coordinate in
    :func:`decompose_left`, read off the closed forms with no solve, so
    no window is grown.  Support beyond the cap (:func:`max_window_cap`,
    as for :func:`ideal_membership`) raises :class:`UndecidedError`.
    """
    if not x.supported_on(WEIGHT_20, WEIGHT_20):
        raise ValueError("element does not lie in the corner algebra")
    cap = max_window_cap()
    if _column_reach(x) > cap:
        raise UndecidedError(f"no polynomial preimage within window {cap}")
    return decompose_left(x).coords[2]


def corner_involution(p: LaurentPoly2) -> LaurentPoly2:
    """Transpose involution transported to the Laurent model.

    On generators x1 -> x1 x2^-1 and x2 -> x2^-1, hence monomial
    exponents map (a, b) -> (a, -a-b).
    """
    return p._like({(a, -a - b): c for (a, b), c in p.terms.items()})


# ---------------------------------------------------------------------------
# free-module decompositions


@dataclass(frozen=True)
class CellVector:
    """Coordinates over the four-element module basis; side is the module
    ("left": row-(2,0) span, "right": column-(2,0) span)."""

    side: str
    coords: tuple[LaurentPoly2, LaurentPoly2, LaurentPoly2, LaurentPoly2]

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if len(self.coords) != 4:
            raise ValueError("need exactly four coordinates")

    def classes(self) -> dict:
        """The element of these coordinates as {class: value} (:func:`_contract`)."""
        left = self.side == "left"
        return _contract({
            (2, idx, a, b) if left else (idx, 2, a, b): coeff
            for idx, poly in enumerate(self.coords)
            for (a, b), coeff in poly.terms.items()
        })

    def to_element(self) -> AlgebraElement:
        """The element of these coordinates, each matrix built once."""
        return _element(self.classes())

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "coords": [p.to_json() for p in self.coords],
        }


_ONE = LaurentPoly2.one()
_X2 = LaurentPoly2.x2()


def _domino_counts(n: int) -> list[int]:
    """C(n-k, k) for 0 <= k <= n/2, each from the one before: the tilings
    of a row of n cells by k dominoes and n - 2k monominoes."""
    counts = [1] if n >= 0 else []
    for k in range(n // 2):
        rest = n - 2 * k
        counts.append(counts[-1] * rest * (rest - 1) // ((k + 1) * (n - k)))
    return counts


def _power_sum(n: int) -> LaurentPoly2:
    """p_n by Waring's formula (n >= 1): the sum over k of
    (-1)^k n/(n-k) C(n-k, k) x1^(n-2k) x2^k."""
    counts = enumerate(_domino_counts(n))
    return _ONE._like({(n - 2 * k, k): (-1) ** k * n * c // (n - k) for k, c in counts})


def _complete_sum(n: int) -> LaurentPoly2:
    """h_n: the sum over k of (-1)^k C(n-k, k) x1^(n-2k) x2^k; h_-1 = 0."""
    counts = enumerate(_domino_counts(n))
    return _ONE._like({(n - 2 * k, k): (-1) ** k * c for k, c in counts})


# (base column, width) -> left-basis coordinates of that base pair
_BASE_COORDS: dict[tuple[int, int], tuple[LaurentPoly2, ...]] = {}


def _base_coords(column: int, width: int) -> tuple[LaurentPoly2, ...]:
    """Left-basis coordinates of the base pair {column, column + width},
    column 1 or 2, in closed form (see :func:`decompose_left`)."""
    found = _BASE_COORDS.get((column, width))
    if found is None:
        zero = LaurentPoly2.zero()
        n, odd = divmod(width, 2)
        if not odd:
            p = _power_sum(n) if n else _ONE
            found = (zero, zero, p, zero) if column == 1 else (zero, zero, zero, p)
        elif column == 1:
            found = (_complete_sum(n), -_complete_sum(n - 1), zero, zero)
        else:
            found = (-(_X2 * _complete_sum(n - 1)), _complete_sum(n), zero, zero)
        _BASE_COORDS[(column, width)] = found
    return found


def _pair_coords(i: int, j: int) -> tuple[tuple[LaurentPoly2, ...], int]:
    """Left-basis coordinates of the row-(2,0) pair matrix {i, j}, i <= j:
    those of its base pair, whose smaller column is in {1, 2}, and the
    exponent s of the x2^s that moves the base pair by s periods onto it."""
    column = 2 - i % 2
    return _base_coords(column, j - i), (i - column) // 2


def decompose_left(x: AlgebraElement) -> CellVector:
    """Coordinates of a row-(2,0) element over the left module basis,
    each summed in ``int`` in one term dict and divided once per term: a
    base monomial x1^a x2^b of a pair moved by x2^s adds at (a, b + s).

    The base pairs have closed forms.  Read the corner ring as the
    symmetric Laurent polynomials in X1, X2, with x1 = e1 and x2 = e2,
    and write P_n, Q_n, R_n, S_n for the pairs {1, 1+2n}, {1, 2+2n},
    {2, 2+2n}, {2, 3+2n}; the basis is (Q_0, S_0, P_0, R_0).  x1 sends
    {i, l} to {i, l+2} + x2 {i, l-2}, except x1 P_0 = P_1 and
    x1 P_1 = P_2 + 2 x2 P_0, likewise for R; and {1, 0} = x2^-1 S_0,
    {2, 1} = Q_0.  So from n = 1 on each family obeys Newton's identity
    c_(n+1) = e1 c_n - e2 c_(n-1) (Macdonald, Symmetric Functions and
    Hall Polynomials, ch. I §2), with 2 P_0 and 2 R_0 as c_0.  The power
    sums p_n obey it from p_0 = 2, p_1 = e1, so P_n = p_n P_0 and
    R_n = p_n R_0 for n >= 1 (P_0, R_0 have coordinate 1, not p_0).  The
    complete sums h_n obey it from h_-1 = 0, h_0 = 1, so
    Q_n = h_n Q_0 - h_(n-1) S_0 and S_n = h_n S_0 - x2 h_(n-1) Q_0, as
    Q_1 = x1 Q_0 - S_0 and S_1 = x1 S_0 - x2 Q_0.  Tile n cells by
    monominoes, weight e1, and dominoes, weight -e2: C(n-k, k) tilings of
    a row and n/(n-k) C(n-k, k) of a cycle have k dominoes, so h_n, the
    row, and p_n, the cycle, have these closed forms (Waring's formula
    for p_n); the last tile of a row, or a domino over a cycle's seam
    (p_n = h_n - e2 h_(n-2)), gives the recurrence.
    """
    if not x.supported_on(WEIGHT_20, None):
        raise ValueError("element does not lie in the row-(2,0) span")
    ints, den = _cleared(x.terms)
    acc: list[dict[tuple[int, int], int]] = [{}, {}, {}, {}]
    for matrix, coeff in ints.items():
        # row 1 holds one entry of value 2 or two of value 1
        base, s = _pair_coords(matrix.entries[0][1], matrix.entries[-1][1])
        for terms, poly in zip(acc, base):
            for (a, b), c in poly.terms.items():
                key = (a, b + s)
                terms[key] = terms.get(key, 0) + coeff * c
    if den != 1:
        acc = [{key: _divided(v, den) for key, v in terms.items()} for terms in acc]
    zero = LaurentPoly2.zero()
    return CellVector("left", tuple(zero._like(terms) for terms in acc))


def decompose_right(x: AlgebraElement) -> CellVector:
    """Coordinates of a column-(2,0) element over the right module basis.

    Computed by transposing into the left module and twisting the
    coordinates with the corner involution.
    """
    if not x.supported_on(None, WEIGHT_20):
        raise ValueError("element does not lie in the column-(2,0) span")
    left = decompose_left(x.transpose())
    return CellVector(
        "right", tuple(corner_involution(p) for p in left.coords)
    )


# ---------------------------------------------------------------------------
# ideal tensors


@dataclass(frozen=True)
class CellTensor:
    """4 x 4 Laurent-polynomial coordinates of an ideal element.

    Cell (l, m) multiplies the l-th right-basis element, the coefficient
    ring element, and the m-th left-basis element, in that order.
    """

    coords: tuple[tuple[LaurentPoly2, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coords) != 4 or any(len(row) != 4 for row in self.coords):
            raise ValueError("tensor coordinates must form a 4 x 4 grid")

    def cell(self, l: int, m: int) -> LaurentPoly2:
        return self.coords[l][m]

    def to_json(self) -> dict:
        return {
            "coords": [[p.to_json() for p in row] for row in self.coords]
        }

    @classmethod
    def from_json(cls, data: dict) -> "CellTensor":
        if not isinstance(data, dict) or "coords" not in data:
            raise ValueError("tensor JSON must hold a 'coords' grid")
        grid = data["coords"]
        if not isinstance(grid, list) or len(grid) != 4:
            raise ValueError("tensor grid must have four rows")
        rows = []
        for row in grid:
            if not isinstance(row, list) or len(row) != 4:
                raise ValueError("tensor grid must have four columns")
            rows.append(tuple(LaurentPoly2.from_json(p) for p in row))
        return cls(tuple(rows))


def tensor_to_ideal(t: CellTensor) -> AlgebraElement:
    """Contract a coordinate tensor to the ideal element it represents:
    one contraction in class space (:func:`_contract`), then each matrix
    of the result built once."""
    return _element(_contract({
        (l, m, a, b): coeff
        for l in range(4)
        for m in range(4)
        for (a, b), coeff in t.cell(l, m).terms.items()
    }))


# weight of module basis index i, for the rows (l) and the columns (m) alike
_SIGNATURE = (WEIGHT_11, WEIGHT_11, WEIGHT_20, WEIGHT_02)


def _signature_blocks() -> dict[
    tuple[Composition, Composition], list[tuple[int, int]]
]:
    blocks: dict[tuple[Composition, Composition], list[tuple[int, int]]] = {}
    for l in range(4):
        for m in range(4):
            key = (_SIGNATURE[l], _SIGNATURE[m])
            blocks.setdefault(key, []).append((l, m))
    return blocks


SIGNATURE_BLOCKS = _signature_blocks()


def _split_by_signature(
    x: AlgebraElement,
) -> dict[tuple[Composition, Composition], dict[PeriodicMatrix, Scalar]]:
    parts: dict = {}
    for matrix, coeff in x.terms.items():
        key = (matrix.row_vector(), matrix.col_vector())
        parts.setdefault(key, {})[matrix] = coeff
    return parts


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of an ideal membership test at bounded window."""

    status: str
    tensor: CellTensor | None
    window: int

    MEMBER = "member"
    NOT_MEMBER = "not-member-within-window"
    UNDECIDED = "undecided"

    @property
    def is_member(self) -> bool:
        return self.status == self.MEMBER


def _rhs_rows(
    part: dict[PeriodicMatrix, Scalar], shape_rows: ShapeRows
) -> dict[int | tuple, Scalar]:
    """A right-hand side {matrix: value} on the rows of a block system.

    A matrix of class (shape, k) is row offset + k when the block's rows
    of that shape cover k.  A class the block has no row for keeps the
    class itself in place of a row: that is no row of the system, so its
    value is an equation 0 = value that refutes the right-hand side, and
    distinct matrices still stay apart.
    """
    rhs: dict[int | tuple, Scalar] = {}
    for matrix, value in part.items():
        shape, k = matrix.translation_class()
        offset, k_lo, k_hi = shape_rows.get(shape, (None, 0, -1))
        rhs[offset + k if k_lo <= k <= k_hi else (shape, k)] = value
    return rhs


class WindowBlocks:
    """The signature blocks of the ideal's spanning set at one window.

    Each block's system is built from the stems of its cells
    (:func:`stem_system`; its columns are the labels of
    :func:`omega_candidates`, each held as its stem's rows and a shift)
    and factored on first use, and kept as long as this object, so
    every question asked of one object eliminates a block at most once.
    The three row-(2,0) blocks are the left module's span, so the same
    blocks answer module coordinates.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        # signature -> (rows of each shape, factorization)
        self._blocks: dict[tuple, tuple[ShapeRows, Factorization]] = {}

    def _block(
        self, signature: tuple[Composition, Composition]
    ) -> tuple[ShapeRows, Factorization]:
        found = self._blocks.get(signature)
        if found is None:
            cols, shape_rows, nrows, placements = stem_system(
                self.window, SIGNATURE_BLOCKS[signature]
            )
            found = (shape_rows, Factorization(cols, nrows, placements))
            self._blocks[signature] = found
        return found

    def factorization(
        self, signature: tuple[Composition, Composition]
    ) -> Factorization:
        """The block's factorization; its ``cols`` are the block's labels."""
        return self._block(signature)[1]

    def coordinates(
        self, elements: Sequence[AlgebraElement]
    ) -> list[dict[tuple[int, int, int, int], Scalar] | None]:
        """Coordinates of many elements over the members that fit this
        window: per element its nonzero values as {(l, m, a, b): value},
        or None when some block refutes it.

        Each signature block is solved once for all inputs, in order of
        first use; an element refuted by one block takes no part in
        later ones, and a block left with no element is not solved.  A
        block that does not peel whole decides no element it does not
        refute: that raises ``ArithmeticError`` when its rank bound
        proves it deficient, else :class:`UndecidedError`.
        """
        solved: list[dict | None] = [{} for _ in elements]
        # signature -> {element index: its part in that block}
        blocks: dict[tuple, dict[int, dict]] = {}
        for idx, x in enumerate(elements):
            for signature, rhs in _split_by_signature(x).items():
                blocks.setdefault(signature, {})[idx] = rhs
        for signature, parts in blocks.items():
            owners = [idx for idx in parts if solved[idx] is not None]
            if not owners:
                continue
            shape_rows, factorization = self._block(signature)
            block_results = factorization.solve(
                [_rhs_rows(parts[idx], shape_rows) for idx in owners]
            )
            for idx, result in zip(owners, block_results):
                if result.status == SolveResult.UNDECIDED:
                    if factorization.max_rank < len(factorization.cols):
                        raise ArithmeticError(
                            "window tensor system is rank deficient; "
                            "independence broken"
                        )
                    raise UndecidedError(
                        "window tensor system does not peel whole; "
                        "its rank is undecided"
                    )
                if result.status == SolveResult.INCONSISTENT:
                    solved[idx] = None
                else:
                    solved[idx].update(result.solution)
        return solved

    def membership(
        self, elements: Sequence[AlgebraElement]
    ) -> list[MembershipResult]:
        """Membership tests for many elements at this window: the
        :meth:`coordinates` of those that fit it, and for each member its
        certificate tensor, re-verified by contracting it back to the
        element."""
        window = self.window
        results: list[MembershipResult | None] = []
        fitting: list[int] = []
        for idx, x in enumerate(elements):
            if x.n != N or x.r != R:
                raise ValueError("ideal elements live at n = r = 2")
            if _column_reach(x) > window:
                results.append(
                    MembershipResult(MembershipResult.UNDECIDED, None, window)
                )
            else:
                results.append(None)
                fitting.append(idx)
        found = self.coordinates([elements[idx] for idx in fitting])
        for idx, coords in zip(fitting, found):
            if coords is None:
                results[idx] = MembershipResult(
                    MembershipResult.NOT_MEMBER, None, window
                )
                continue
            cells: list[list[dict]] = [[{} for _ in range(4)] for _ in range(4)]
            for (l, m, a, b), value in coords.items():
                cells[l][m][(a, b)] = value
            tensor = CellTensor(
                tuple(tuple(LaurentPoly2(cell) for cell in row) for row in cells)
            )
            if tensor_to_ideal(tensor) != elements[idx]:
                raise ArithmeticError("solved tensor fails to reproduce its element")
            results[idx] = MembershipResult(MembershipResult.MEMBER, tensor, window)
        return results  # type: ignore[return-value]


def batch_ideal_membership(
    elements: Sequence[AlgebraElement], window: int
) -> list[MembershipResult]:
    """Membership tests for many elements at one fixed window, sharing
    the elimination of each signature block across all inputs."""
    return WindowBlocks(window).membership(elements)


def ideal_membership(
    x: AlgebraElement, window: int | None = None
) -> MembershipResult:
    """Windowed membership test for the two-sided ideal: the window
    ladder over :func:`batch_ideal_membership`.

    The ladder starts at the given window (at least 1), else at the
    extent of the support, lowered to the cap (:func:`max_window_cap`), and
    doubles up to the cap, trying each window the support fits.  A member
    verdict carries the certificate tensor, already re-verified by
    contracting it back to the element, and the window that decided it;
    the other verdicts, undecided when the support exceeds the cap, carry
    the cap.
    """
    if x.n != N or x.r != R:
        raise ValueError("ideal elements live at n = r = 2")
    cap = max_window_cap()
    if window is not None and window < 1:
        raise ValueError("window must be positive")
    needed = _column_reach(x)
    if needed > cap:
        return MembershipResult(MembershipResult.UNDECIDED, None, cap)
    w = min(window if window is not None else max(needed, 1), cap)
    while True:
        if needed <= w:
            result = batch_ideal_membership([x], w)[0]
            if result.is_member:
                return result
        if w >= cap:
            return MembershipResult(MembershipResult.NOT_MEMBER, None, cap)
        w = min(2 * w, cap)
