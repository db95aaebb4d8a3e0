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

Decompositions over the free bases follow the explicit recurrences for
the x1 action, filled bottom-up, so they are exact and terminate without
linear algebra.  The corner is a summand of the left module (index 2 of
its basis is the corner unit), so the same recurrences write a corner
element as a polynomial.  The linear solver is used where no recurrence
exists, finding tensor coordinates of ideal members, and as an
independent cross-check.

One family spans everything: the omega element (l, m, a, b) is
(right basis l) * x1^a x2^b * (left basis m).  Index 2 of both bases is
the (2,0) idempotent, the corner unit, so cell (2, 2) holds the corner
monomials, the cells (2, m) the left module and the cells (l, 2) the
right module; :func:`monomial_image` and :func:`module_element` are
views of the one cache.  x2 is the shift by one period, which is
central, so a member with b != 0 is its b = 0 member with every column
moved by 2b.  Only the b = 0 members are multiplied out; each other
member is one move of its b = 0 member by b periods, and is cached.

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
by contraction.  :func:`ideal_membership` is the window ladder
(:func:`_window_ladder`, growing geometrically up to a cap) over a
fresh :class:`WindowBlocks` per rung.  It and :func:`corner_to_laurent`
answer a question that does not fit the cap "undecided" rather than
guess.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .core import AlgebraElement, Composition, PeriodicMatrix, Scalar, diag_matrix
from .laurent import LaurentPoly2
from .linalg import Factorization, Placement, SolveResult
from .multiplication import multiply

__all__ = [
    "CellVector",
    "CellTensor",
    "MembershipResult",
    "UndecidedError",
    "NotInWindowError",
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
    "tensor_involution",
    "ideal_to_tensor",
    "ideal_membership",
    "batch_ideal_membership",
    "WindowBlocks",
    "module_element",
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


class NotInWindowError(RuntimeError):
    """No solution exists within the maximal window tried."""


# ---------------------------------------------------------------------------
# windowed systems


def _column_support(x: AlgebraElement) -> list[int]:
    return [j for matrix in x.terms for _, j, _ in matrix.entries]


def _window_ladder(x: AlgebraElement, window: int | None, cap: int) -> list[int]:
    """The windows to try for x, in order: those its support fits.

    The ladder starts at the given window, else at the extent of the
    support, lowered to the cap, and doubles up to the cap; it is empty
    when the support exceeds the cap.  It never grows from a window
    below 1, which is rejected.
    """
    if window is not None and window < 1:
        raise ValueError("window must be positive")
    needed = max((abs(j) for j in _column_support(x)), default=0)
    w = min(window if window is not None else max(needed, 1), cap)
    rungs = []
    while True:
        if needed <= w:
            rungs.append(w)
        if w >= cap:
            return rungs
        w = min(2 * w, cap)


_ZERO = AlgebraElement.zero(N, R)


def _combination(
    terms: Iterable[tuple[Scalar, AlgebraElement]]
) -> AlgebraElement:
    """The sum of coeff * element, accumulated in one term dict."""
    acc: dict[PeriodicMatrix, Scalar] = {}
    for coeff, element in terms:
        for matrix, c in element.terms.items():
            acc[matrix] = acc.get(matrix, 0) + coeff * c
    return _ZERO._like(acc)


# ---------------------------------------------------------------------------
# the spanning family


# (l, m, a, b) -> omega_element(l, m, a, b), the only cache of the family
_OMEGA_CACHE: dict[tuple[int, int, int, int], AlgebraElement] = {}


def omega_element(l: int, m: int, a: int, b: int) -> AlgebraElement:
    """The ideal element (right basis l) * x1^a x2^b * (left basis m).

    Index 2 of both bases is the corner unit, so the b = 0 member of
    cell (2, 2) is x1^a, filled by x1 steps from the unit (no exponent
    costs recursion depth); that of cell (2, m) or (l, 2) is one product
    with x1^a, and that of any other cell one product with its (l, 2)
    member.  Any other member is x2^b times, that is b periods from, its
    b = 0 member: one move of that member's columns by 2b.
    """
    key = (l, m, a, b)
    found = _OMEGA_CACHE.get(key)
    if found is not None:
        return found
    if a < 0:
        raise ValueError("x1-exponent must be nonnegative")
    if b:
        found = omega_element(l, m, a, 0).translated(b)
    elif l == m == 2:
        x1 = AlgebraElement.basis(GEN_X1)
        found = _OMEGA_CACHE.setdefault((2, 2, 0, 0), idempotent_20())
        for k in range(1, a + 1):
            power = _OMEGA_CACHE.get((2, 2, k, 0))
            if power is None:
                power = _OMEGA_CACHE[(2, 2, k, 0)] = multiply(found, x1)
            found = power
    elif m == 2:
        found = multiply(
            AlgebraElement.basis(RIGHT_BASIS[l]), omega_element(2, 2, a, 0)
        )
    else:
        found = multiply(
            omega_element(l, 2, a, 0), AlgebraElement.basis(LEFT_BASIS[m])
        )
    _OMEGA_CACHE[key] = found
    return found


def monomial_image(a: int, b: int) -> AlgebraElement:
    """The corner element representing x1^a x2^b: omega cell (2, 2)."""
    return omega_element(2, 2, a, b)


def module_element(side: str, index: int, a: int, b: int) -> AlgebraElement:
    """A spanning element of a free module: x1^a x2^b * (left basis index),
    omega cell (2, index), on side "left"; (right basis index) * x1^a x2^b,
    omega cell (index, 2), on side "right"."""
    if side == "left":
        return omega_element(2, index, a, b)
    if side == "right":
        return omega_element(index, 2, a, b)
    raise ValueError("side must be 'left' or 'right'")


def _cell_stems(l: int, m: int, window: int) -> list[tuple[int, int, int]]:
    """``(a, b_lo, b_hi)`` for each stem, b = 0 member, of cell (l, m)
    with a translate that fits the window: the members (l, m, a, b) with
    b_lo <= b <= b_hi are those that fit.

    A member's columns are those of its stem plus 2b, so the column
    extent [lo, hi] of each stem is read once, and the b with
    -window <= lo + 2b and hi + 2b <= window fit.  The width hi - lo
    grows with a (by 2 per step), so the a-range stops at the first a
    wider than 2 * window.
    """
    stems = []
    for a in count():
        support = _column_support(omega_element(l, m, a, 0))
        lo, hi = min(support), max(support)
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
    map too, so every moved row lies in its own shape's range.
    """
    return b


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

    Each stem's terms are read through ``translation_class`` once and
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
    # stem -> its terms as (shape, k, value)
    stem_terms = {
        stem: [
            (*matrix.translation_class(), coeff)
            for matrix, coeff in omega_element(*stem, 0).terms.items()
        ]
        for stem in reach
    }
    k_range: dict[tuple[int, ...], list[int]] = {}
    for stem, terms in stem_terms.items():
        low, high = reach[stem]
        for shape, k, _ in terms:
            found = k_range.setdefault(shape, [k + low, k + high])
            found[0], found[1] = min(found[0], k + low), max(found[1], k + high)
    shape_rows: ShapeRows = {}
    nrows = 0
    for shape, (k_lo, k_hi) in k_range.items():
        shape_rows[shape] = (nrows - k_lo, k_lo, k_hi)
        nrows += k_hi - k_lo + 1
    stem_rows = {
        stem: [(shape_rows[shape][0] + k, coeff) for shape, k, coeff in terms]
        for stem, terms in stem_terms.items()
    }
    placements = [
        (stem_rows[(l, m, a)], shift) for (l, m, a, _), shift in zip(labels, shifts)
    ]
    return labels, shape_rows, nrows, placements


# ---------------------------------------------------------------------------
# corner ring <-> Laurent polynomials


def laurent_to_corner(p: LaurentPoly2) -> AlgebraElement:
    """Ring map sending x1, x2, x2^-1 to their corner generators."""
    return _combination(
        (coeff, monomial_image(a, b)) for (a, b), coeff in p.terms.items()
    )


def corner_to_laurent(
    x: AlgebraElement,
    window: int | None = None,
    max_window: int | None = None,
) -> LaurentPoly2:
    """The unique Laurent polynomial mapping onto a corner element.

    The corner element p(x1, x2) * e is p times the left basis element
    of index 2, the corner unit e, so p is its index-2 coordinate in
    :func:`decompose_left`, read off the recurrences with no solve.  The
    window rules are those of the ladder: a window below 1 is rejected,
    and support beyond the cap raises :class:`UndecidedError`.
    """
    if not x.supported_on(WEIGHT_20, WEIGHT_20):
        raise ValueError("element does not lie in the corner algebra")
    cap = max_window if max_window is not None else max_window_cap()
    if not _window_ladder(x, window, cap):
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

    def to_element(self) -> AlgebraElement:
        return _combination(
            (coeff, module_element(self.side, idx, a, b))
            for idx, poly in enumerate(self.coords)
            for (a, b), coeff in poly.terms.items()
        )

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "coords": [p.to_json() for p in self.coords],
        }


def _coord_unit(index: int, poly: LaurentPoly2) -> tuple[LaurentPoly2, ...]:
    zero = LaurentPoly2.zero()
    coords = [zero, zero, zero, zero]
    coords[index] = poly
    return tuple(coords)


def _combine(
    left: tuple[LaurentPoly2, ...],
    right: tuple[LaurentPoly2, ...],
    factor: LaurentPoly2,
    shift: LaurentPoly2,
) -> tuple[LaurentPoly2, ...]:
    """factor * left - shift * right, coordinatewise."""
    return tuple(
        factor * lc - shift * rc for lc, rc in zip(left, right)
    )


_ONE = LaurentPoly2.one()
_X1 = LaurentPoly2.x1()
_X2 = LaurentPoly2.x2()

# Left-basis coordinates of the pairs {1, l} (x) and {2, l} (y), keyed by
# l >= 1: the initial values of the x1-action recurrence below.
_X_COORDS: dict[int, tuple[LaurentPoly2, ...]] = {
    1: _coord_unit(2, _ONE),
    2: _coord_unit(0, _ONE),
    3: _coord_unit(2, _X1),
    # the l-2 recurrence lands on the pair {0, 1}, which renormalizes to
    # x2^-1 times the second basis element
    4: _combine(
        _coord_unit(0, _ONE), _coord_unit(1, LaurentPoly2.x2(-1)), _X1, _X2
    ),
    5: _coord_unit(2, _X1 * _X1 - 2 * _X2),
}
_Y_COORDS: dict[int, tuple[LaurentPoly2, ...]] = {
    1: _coord_unit(0, _ONE),
    2: _coord_unit(3, _ONE),
    3: _coord_unit(1, _ONE),
    4: _coord_unit(3, _X1),
}
_Y_COORDS[6] = _combine(_Y_COORDS[4], _Y_COORDS[2], _X1, 2 * _X2)


def _recurrence(cache: dict, l: int) -> tuple[LaurentPoly2, ...]:
    """cache[l] by c_l = x1 c_{l-2} - x2 c_{l-4}, filled bottom-up so that
    a wide pair costs no recursion depth."""
    if l not in cache:
        for k in range(2 - l % 2, l + 1, 2):
            if k not in cache:
                cache[k] = _combine(cache[k - 2], cache[k - 4], _X1, _X2)
    return cache[l]


def _x_coords(l: int) -> tuple[LaurentPoly2, ...]:
    """Coordinates of the pair {1, l} over the left basis, l >= 1."""
    return _recurrence(_X_COORDS, l)


def _y_coords(l: int) -> tuple[LaurentPoly2, ...]:
    """Coordinates of the pair {2, l} over the left basis, l >= 1."""
    return _recurrence(_Y_COORDS, l)


def _pair_coords(i: int, j: int) -> tuple[LaurentPoly2, ...]:
    """Left-basis coordinates of the row-(2,0) pair matrix {i, j}.

    The smaller column is normalized into {1, 2} by a power of x2, then
    the recurrences above finish the job.
    """
    if i > j:
        i, j = j, i
    if i == j:
        if i % 2:
            return _coord_unit(2, LaurentPoly2.x2((i - 1) // 2))
        return _coord_unit(3, LaurentPoly2.x2(i // 2 - 1))
    if i % 2:
        shift = LaurentPoly2.x2((i - 1) // 2)
        base = _x_coords(j - i + 1)
    else:
        shift = LaurentPoly2.x2(i // 2 - 1)
        base = _y_coords(j - i + 2)
    return tuple(shift * c for c in base)


def decompose_left(x: AlgebraElement) -> CellVector:
    """Coordinates of a row-(2,0) element over the left module basis,
    each accumulated in one term dict."""
    if not x.supported_on(WEIGHT_20, None):
        raise ValueError("element does not lie in the row-(2,0) span")
    acc: list[dict[tuple[int, int], Scalar]] = [{}, {}, {}, {}]
    for matrix, coeff in x.terms.items():
        cols: list[int] = []
        for _, j, a in matrix.entries:
            cols.extend([j] * a)
        i, j = cols
        for terms, poly in zip(acc, _pair_coords(i, j)):
            for key, c in poly.terms.items():
                terms[key] = terms.get(key, 0) + coeff * c
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

    @classmethod
    def zero(cls) -> "CellTensor":
        z = LaurentPoly2.zero()
        return cls(tuple((z, z, z, z) for _ in range(4)))

    @classmethod
    def unit(cls, l: int, m: int, poly: LaurentPoly2) -> "CellTensor":
        rows = []
        for li in range(4):
            row = []
            for mi in range(4):
                row.append(poly if (li, mi) == (l, m) else LaurentPoly2.zero())
            rows.append(tuple(row))
        return cls(tuple(rows))

    def cell(self, l: int, m: int) -> LaurentPoly2:
        return self.coords[l][m]

    def __add__(self, other: "CellTensor") -> "CellTensor":
        return CellTensor(
            tuple(
                tuple(a + b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.coords, other.coords)
            )
        )

    def scaled(self, coeff) -> "CellTensor":
        return CellTensor(
            tuple(tuple(p.scaled(coeff) for p in row) for row in self.coords)
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.coords for p in row)

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
    """Contract a coordinate tensor to the ideal element it represents."""
    return _combination(
        (coeff, omega_element(l, m, a, b))
        for l in range(4)
        for m in range(4)
        for (a, b), coeff in t.cell(l, m).terms.items()
    )


def tensor_involution(t: CellTensor) -> CellTensor:
    """Swap the two tensor legs, twisting coefficients by the involution."""
    return CellTensor(
        tuple(
            tuple(corner_involution(t.cell(m, l)) for m in range(4))
            for l in range(4)
        )
    )


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
            if max(map(abs, _column_support(x)), default=0) > window:
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
    x: AlgebraElement,
    window: int | None = None,
    max_window: int | None = None,
) -> MembershipResult:
    """Windowed membership test for the two-sided ideal: the window
    ladder over :func:`batch_ideal_membership`.

    A member verdict carries the certificate tensor, already re-verified
    by contracting it back to the element, and the window that decided
    it; the other verdicts carry the cap, the last window tried.
    """
    if x.n != N or x.r != R:
        raise ValueError("ideal elements live at n = r = 2")
    cap = max_window if max_window is not None else max_window_cap()
    rungs = _window_ladder(x, window, cap)
    for w in rungs:
        result = batch_ideal_membership([x], w)[0]
        if result.is_member:
            return result
    status = MembershipResult.NOT_MEMBER if rungs else MembershipResult.UNDECIDED
    return MembershipResult(status, None, cap)


def ideal_to_tensor(
    x: AlgebraElement,
    window: int | None = None,
    max_window: int | None = None,
) -> CellTensor:
    """Tensor coordinates of an ideal element: the certificate of
    :func:`ideal_membership`.

    Raises :class:`NotInWindowError` when the element is not an ideal
    member at the final window and :class:`UndecidedError` when the
    question never fit the window.
    """
    result = ideal_membership(x, window, max_window)
    if result.status == MembershipResult.NOT_MEMBER:
        raise NotInWindowError(f"not an ideal member within window {result.window}")
    if result.status == MembershipResult.UNDECIDED:
        raise UndecidedError(f"element support exceeds the window cap {result.window}")
    return result.tensor
