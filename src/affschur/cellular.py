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
linear algebra; the linear solver is used where no recurrence exists
(writing a corner element as a polynomial, and finding tensor
coordinates of ideal members) and as an independent cross-check.

x2 is the shift by one period, which is central, so every spanning
element with an x2^b factor (corner monomials, module elements, the
ideal's omega elements) is its b = 0 member with every column moved by
2b.  Only the b = 0 members are multiplied out.  Each family fills its
other members by single steps from a cached neighbour b - 1 or b + 1,
which reads the neighbour slots of the interned matrices of
:mod:`affschur.core`, and jumps once from b = 0 when no neighbour is
cached.  The support of a member is the support of its b = 0 member
plus 2b, so the spanning sets of a window build only the members that
fit it.

All membership and inversion problems are truncated by a *window*: a
bound W restricting the column support of every matrix involved to
[-W, W].  Every windowed question is "is x in the span of these labelled
elements": :func:`span_system` turns the labelled elements into one
sparse system, and :func:`_window_ladder` lists the windows to try,
growing geometrically up to a cap.  The ideal's spanning set at one
window splits into signature blocks; :class:`WindowBlocks` builds and
factors each block once, on first use, for every question asked of it.
Membership is the window ladder over :func:`batch_ideal_membership`, a
fresh :class:`WindowBlocks` per rung; a question that does not fit the
cap is answered "undecided" rather than guessed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import AlgebraElement, Composition, PeriodicMatrix, Scalar, diag_matrix
from .laurent import LaurentPoly2
from .linalg import Factorization, SolveResult, SparseSystem, solve_many
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
    "module_candidates",
    "max_window_cap",
    "fits_window",
    "span_system",
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
    """Global cap on window growth, from AFFSCHUR_MAX_WINDOW (default 64)."""
    raw = os.environ.get("AFFSCHUR_MAX_WINDOW", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("AFFSCHUR_MAX_WINDOW must be an integer") from None
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


def fits_window(x: AlgebraElement, window: int) -> bool:
    """Whether x is nonzero with its column support inside [-window, window]."""
    support = _column_support(x)
    return bool(support) and all(-window <= j <= window for j in support)


def span_system(
    candidates: Iterable[tuple[Hashable, AlgebraElement]]
) -> SparseSystem:
    """The system whose columns are the labelled candidates.

    One column per label, one row per basis matrix some candidate meets
    (sorted by ``PeriodicMatrix.sort_key``); a right-hand side may hold
    other rows, which the solver treats as unsatisfiable equations.
    """
    cols: list[Hashable] = []
    entries: dict[tuple, Scalar] = {}
    rows: set[PeriodicMatrix] = set()
    for label, element in candidates:
        cols.append(label)
        for matrix, coeff in element.terms.items():
            entries[(matrix, label)] = coeff
            rows.add(matrix)
    return SparseSystem(cols, sorted(rows, key=PeriodicMatrix.sort_key), entries)


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
# corner ring <-> Laurent polynomials


_MONO_CACHE: dict[tuple[int, int], AlgebraElement] = {}


def _x2_member(
    cache: dict, stem: tuple, b: int, build_base: Callable[[], AlgebraElement]
) -> AlgebraElement:
    """``cache[stem + (b,)]``: the family member ``cache[stem + (0,)]``
    times x2^b, that is moved by b periods.

    The b = 0 member comes from ``build_base()``.  Any other member is
    one step from a cached neighbour b - 1 or b + 1, else one jump from
    b = 0, so it costs no recursion and, filled in order, one slot read
    per matrix.
    """
    key = stem + (b,)
    found = cache.get(key)
    if found is None:
        if not b:
            found = build_base()
        else:
            for source, periods in ((b - 1, 1), (b + 1, -1), (0, b)):
                near = cache.get(stem + (source,))
                if near is not None:
                    found = near.translated(periods)
                    break
            else:
                base = cache[stem + (0,)] = build_base()
                found = base.translated(b)
        cache[key] = found
    return found


def monomial_image(a: int, b: int) -> AlgebraElement:
    """The corner element representing x1^a x2^b.

    x1^a is filled bottom-up along x1 from 1, so no exponent costs
    recursion depth; x2^b translates it.
    """
    if a < 0:
        raise ValueError("x1-exponent must be nonnegative")
    return _x2_member(_MONO_CACHE, (a,), b, lambda: _x1_power(a))


def _x1_power(a: int) -> AlgebraElement:
    """x1^a in the corner, with every lower power filled on the way."""
    x1 = AlgebraElement.basis(GEN_X1)
    _MONO_CACHE.setdefault((0, 0), idempotent_20())
    for k in range(1, a + 1):
        if (k, 0) not in _MONO_CACHE:
            _MONO_CACHE[(k, 0)] = multiply(_MONO_CACHE[(k - 1, 0)], x1)
    return _MONO_CACHE[(a, 0)]


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

    Computed by an exact linear solve against the monomial images whose
    support fits the current window; the window grows geometrically up
    to the cap before giving up with :class:`UndecidedError`.
    """
    if not x.supported_on(WEIGHT_20, WEIGHT_20):
        raise ValueError("element does not lie in the corner algebra")
    cap = max_window if max_window is not None else max_window_cap()
    rungs = _window_ladder(x, window, cap)
    if x.is_zero():
        return LaurentPoly2.zero()
    for w in rungs:
        result = _corner_solve(x, w)
        if result is not None:
            return result
    raise UndecidedError(f"no polynomial preimage within window {cap}")


def _corner_solve(x: AlgebraElement, w: int) -> LaurentPoly2 | None:
    system = span_system(
        ((a, b), monomial_image(a, b))
        for b in range(-((w - 1) // 2) - 1, (w - 1) // 2 + 1)
        if 2 * b + 1 >= -w
        for a in range((w - 2 * b - 1) // 2 + 1)
    )
    result = solve_many(system.cols, system.rows, system.entries, [x.terms])[0]
    if result.status == SolveResult.UNIQUE:
        return LaurentPoly2(
            {key: value for key, value in result.solution.items() if value}
        )
    if result.status == SolveResult.UNDERDETERMINED:
        raise ArithmeticError(
            "monomial images are dependent; corner ring model is broken"
        )
    return None


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
    """Coordinates of a row-(2,0) element over the left module basis."""
    if not x.supported_on(WEIGHT_20, None):
        raise ValueError("element does not lie in the row-(2,0) span")
    zero = LaurentPoly2.zero()
    acc = [zero, zero, zero, zero]
    for matrix, coeff in x.terms.items():
        cols: list[int] = []
        for _, j, a in matrix.entries:
            cols.extend([j] * a)
        i, j = cols
        for idx, poly in enumerate(_pair_coords(i, j)):
            if not poly.is_zero():
                acc[idx] = acc[idx] + poly.scaled(coeff)
    return CellVector("left", tuple(acc))


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


_MODULE_CACHE: dict[tuple[str, int, int, int], AlgebraElement] = {}
_OMEGA_CACHE: dict[tuple[int, int, int, int], AlgebraElement] = {}


def module_element(side: str, index: int, a: int, b: int) -> AlgebraElement:
    """A spanning element of a free module: x1^a x2^b * (left basis index)
    on side "left", (right basis index) * x1^a x2^b on side "right".

    Only b = 0 is multiplied out; x2^b translates it.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def build() -> AlgebraElement:
        if side == "left":
            return multiply(
                monomial_image(a, 0), AlgebraElement.basis(LEFT_BASIS[index])
            )
        return multiply(
            AlgebraElement.basis(RIGHT_BASIS[index]), monomial_image(a, 0)
        )

    return _x2_member(_MODULE_CACHE, (side, index, a), b, build)


def omega_element(l: int, m: int, a: int, b: int) -> AlgebraElement:
    """The ideal element (right basis l) * x1^a x2^b * (left basis m).

    Only b = 0 is multiplied out; x2^b translates it.
    """
    return _x2_member(
        _OMEGA_CACHE,
        (l, m, a),
        b,
        lambda: multiply(
            module_element("right", l, a, 0),
            AlgebraElement.basis(LEFT_BASIS[m]),
        ),
    )


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


_ROW_SIGNATURE = (WEIGHT_11, WEIGHT_11, WEIGHT_20, WEIGHT_02)
_COL_SIGNATURE = (WEIGHT_11, WEIGHT_11, WEIGHT_20, WEIGHT_02)


def _signature_blocks() -> dict[
    tuple[Composition, Composition], list[tuple[int, int]]
]:
    blocks: dict[tuple[Composition, Composition], list[tuple[int, int]]] = {}
    for l in range(4):
        for m in range(4):
            key = (_ROW_SIGNATURE[l], _COL_SIGNATURE[m])
            blocks.setdefault(key, []).append((l, m))
    return blocks


SIGNATURE_BLOCKS = _signature_blocks()


def _window_members(
    member: Callable[[int, int], AlgebraElement],
    grid: Iterable[tuple[int, int]],
    window: int,
) -> Iterator[tuple[int, int, AlgebraElement]]:
    """``(a, b, member(a, b))`` for the ``(b, a)`` of ``grid``, in its
    order, whose element fits the window.

    ``member(a, b)`` is ``member(a, 0)`` moved by b periods, so its
    columns are those of ``member(a, 0)`` plus 2b: the column extent of
    each b = 0 member is read once, and only members that fit are built.
    """
    extents: dict[int, tuple[int, int] | None] = {}
    for b, a in grid:
        if a not in extents:
            support = _column_support(member(a, 0))
            extents[a] = (min(support), max(support)) if support else None
        extent = extents[a]
        if extent and -window <= extent[0] + 2 * b and extent[1] + 2 * b <= window:
            yield a, b, member(a, b)


def omega_candidates(
    window: int, pairs: Iterable[tuple[int, int]] | None = None
) -> list[tuple[tuple[int, int, int, int], AlgebraElement]]:
    """All coordinate cells whose ideal element fits inside the window.

    Returned in a fixed deterministic order as (label, element) pairs,
    label = (l, m, a, b): by (l, m), then b, then a, over the cells with
    -window - 2 <= 2b + 1 and 2a + 2b + 1 <= window + 2.  Only the
    elements that fit are built (see :func:`_window_members`).
    """
    if pairs is None:
        pairs = [(l, m) for l in range(4) for m in range(4)]
    grid = [
        (b, a)
        for b in range(-((window + 3) // 2), (window + 1) // 2 + 1)
        for a in range((window + 1 - 2 * b) // 2 + 1)
    ]
    return [
        ((l, m, a, b), element)
        for l, m in sorted(pairs)
        for a, b, element in _window_members(
            partial(omega_element, l, m), grid, window
        )
    ]


def module_candidates(
    window: int,
) -> list[tuple[tuple[int, int, int], AlgebraElement]]:
    """The left module elements that fit inside the window, as
    ((index, a, b), element) pairs: by index, then b, then a, over the
    cells with b >= -((window + 2) // 2) - 1 and 2a + 2b + 1 <= window.
    Only the elements that fit are built (see :func:`_window_members`).
    """
    grid = [
        (b, a)
        for b in range(-(window + 1) // 2 - 1, (window - 1) // 2 + 1)
        for a in range((window - 2 * b - 1) // 2 + 1)
    ]
    return [
        ((index, a, b), element)
        for index in range(4)
        for a, b, element in _window_members(
            partial(module_element, "left", index), grid, window
        )
    ]


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


class WindowBlocks:
    """The signature blocks of the ideal's spanning set at one window.

    Each block's candidates (the omega elements of its cells that fit the
    window, as from :func:`omega_candidates`) and the factorization of
    its system are built on first use and kept as long as this object,
    so every question asked of one object eliminates a block at most
    once.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self._candidates: dict[tuple, list] = {}
        self._factorizations: dict[tuple, Factorization] = {}

    def candidates(
        self, signature: tuple[Composition, Composition]
    ) -> list[tuple[tuple[int, int, int, int], AlgebraElement]]:
        found = self._candidates.get(signature)
        if found is None:
            found = omega_candidates(self.window, SIGNATURE_BLOCKS[signature])
            self._candidates[signature] = found
        return found

    def factorization(
        self, signature: tuple[Composition, Composition]
    ) -> Factorization:
        found = self._factorizations.get(signature)
        if found is None:
            system = span_system(self.candidates(signature))
            found = Factorization(system.cols, system.rows, system.entries)
            self._factorizations[signature] = found
        return found

    def membership(
        self, elements: Sequence[AlgebraElement]
    ) -> list[MembershipResult]:
        """Membership tests for many elements at this window.

        Each signature block is solved once for all inputs, in order of
        first use; an element refuted by one block takes no part in
        later ones, and a block left with no element is not solved.
        """
        window = self.window
        results: list[MembershipResult | None] = []
        # signature -> {element index: its part in that block}
        blocks: dict[tuple, dict[int, dict]] = {}
        for idx, x in enumerate(elements):
            if x.n != N or x.r != R:
                raise ValueError("ideal elements live at n = r = 2")
            if x.is_zero():
                results.append(
                    MembershipResult(MembershipResult.MEMBER, CellTensor.zero(), window)
                )
            elif max(abs(j) for j in _column_support(x)) > window:
                results.append(
                    MembershipResult(MembershipResult.UNDECIDED, None, window)
                )
            else:
                results.append(None)
                for signature, rhs in _split_by_signature(x).items():
                    blocks.setdefault(signature, {})[idx] = rhs

        # element index -> its tensor cells, as {(a, b): value} per (l, m)
        cells: dict[int, list[list[dict]]] = {
            idx: [[{} for _ in range(4)] for _ in range(4)]
            for idx, result in enumerate(results)
            if result is None
        }
        refuted: set[int] = set()
        for signature, parts in blocks.items():
            owners = [idx for idx in parts if idx not in refuted]
            if not owners:
                continue
            block_results = self.factorization(signature).solve(
                [parts[idx] for idx in owners]
            )
            for idx, result in zip(owners, block_results):
                if result.status == SolveResult.UNDERDETERMINED:
                    raise ArithmeticError(
                        "window tensor system is underdetermined; independence broken"
                    )
                if result.status == SolveResult.INCONSISTENT:
                    refuted.add(idx)
                    continue
                for (l, m, a, b), value in result.solution.items():
                    cells[idx][l][m][(a, b)] = value

        for idx, grid in cells.items():
            if idx in refuted:
                results[idx] = MembershipResult(
                    MembershipResult.NOT_MEMBER, None, window
                )
                continue
            tensor = CellTensor(
                tuple(tuple(LaurentPoly2(cell) for cell in row) for row in grid)
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
