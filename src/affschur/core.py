"""
Canonical data types for the q=1 affine Schur algebra.

Conventions used throughout the package:

* A periodic matrix is a Z x Z matrix A = (a_{i,j}) of nonnegative integers
  with a_{i,j} = a_{i+n,j+n} and finitely many nonzero entries in each row.
  We store one period: every stored entry has row index in 1..n, while the
  column index ranges over all of Z.  Any input entry (i, j) with i outside
  1..n is shifted by a multiple of n on both indices, so equality of
  matrices is plain equality of the stored entry sets.

* The weight r of a matrix is the total of its stored entries; the row and
  column sums (reduced mod n into 1..n) are compositions of r with n parts.

* Algebra elements are finite linear combinations of basis matrices with
  exact rational coefficients.  All arithmetic in this package is exact;
  no floating point is used anywhere.

* Every stored coefficient is a canonical exact scalar: an ``int`` when
  it is integral, else a ``Fraction`` with denominator above 1.  At q = 1
  the structure constants are orbit counts, so products, module and
  ideal spanning elements and the decomposition closed forms stay in
  ``int``; a ``Fraction`` enters only with input that brings a
  denominator.  Python compares, hashes and prints ``2`` and
  ``Fraction(2)`` alike, so the choice never shows in results.

* ``LinearCombination`` is the one representation of a rational linear
  combination (a dict from key to nonzero canonical scalar) and owns its
  arithmetic; ``AlgebraElement`` here, ``HeckeElement`` and the Laurent
  rings build on it.  Public constructors check every term; internal
  arithmetic on checked elements builds through the trusted ``_like``.

* Matrices are interned: every matrix that ``from_entries``,
  ``shifted_by``, ``columns_moved`` or ``transpose`` returns is the one
  canonical object with its entries, built once and unvalidated, since
  those methods produce canonical entries; a lookup by entries builds
  nothing.  A matrix built directly, ``PeriodicMatrix(n, entries)``, is
  validated.

* The shift by one period is central: moving every column of a matrix
  by k*n multiplies its basis element by the k-th power x2^k of that
  shift.  ``PeriodicMatrix.translation_class`` splits a matrix into the
  shape it shares with all its moves and the number of periods it is
  moved by.  An index keyed by class (n, shape, k), filled only with
  the classes that moves and transposes reach, makes a move by whole
  periods one lookup; entries are built on a miss.  Transposing reverses
  a move, so entries are transposed once per shape, by one class rule.
  ``AlgebraElement.translated`` moves an element, every matrix through
  ``columns_moved``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = [
    "Composition",
    "PeriodicMatrix",
    "AlgebraElement",
    "compositions",
    "diag_matrix",
    "unit_matrix",
    "row_vector",
    "col_vector",
    "grade",
    "transpose",
    "element_to_json",
    "element_from_json",
]


Scalar = int | Fraction
Class = tuple[tuple[int, ...], int]  # (shape, k), a translation class
ClassTerm = tuple[tuple[int, ...], int, Scalar]  # (shape, k, coefficient)

_FRACTION_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_fraction(text: str) -> Fraction:
    """Parse an exact fraction string like ``"3/2"`` or ``"-4"``.

    Decimal notation is rejected: coefficients must stay exact.
    """
    if not isinstance(text, str) or not _FRACTION_RE.match(text):
        raise ValueError(f"not an exact fraction string: {text!r}")
    return Fraction(text)


def format_fraction(value: Scalar) -> str:
    return str(value)


def _exact(value: Scalar) -> Scalar:
    """The canonical exact form of a scalar: an ``int`` when the value is
    integral (never a ``bool``), else a ``Fraction``.

    >>> _exact(Fraction(6, 3)), _exact(True), _exact(Fraction(1, 2))
    (2, 1, Fraction(1, 2))
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class Composition:
    """One period of an n-periodic sequence of nonnegative integers."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("period must be positive")
        if len(self.parts) != self.n:
            raise ValueError("composition must list exactly one period")
        if any(p < 0 for p in self.parts):
            raise ValueError("composition parts must be nonnegative")

    @property
    def r(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part for any integer i, via periodicity."""
        return self.parts[(i - 1) % self.n]

    def __repr__(self) -> str:
        return f"Composition(n={self.n}, {self.parts})"


def compositions(n: int, r: int) -> Iterator[Composition]:
    """All compositions of r into n nonnegative parts, lexicographically."""
    if n < 1:
        raise ValueError("period must be positive")

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            yield Composition(n, prefix + (remaining,))
            return
        for head in range(remaining + 1):
            yield from rec(prefix + (head,), remaining - head, slots - 1)

    yield from rec((), r, n)


def _normalize_row(n: int, i: int, j: int) -> tuple[int, int]:
    """Shift (i, j) by a multiple of n so the row index lands in 1..n."""
    s = (i - 1) // n
    return i - s * n, j - s * n


def canonical_entries(
    n: int, entries: Iterable[tuple[int, int, int]]
) -> tuple[tuple[int, int, int], ...]:
    """The stored entries of the matrix with these (row, column, value)
    triples: rows shifted into 1..n, coinciding positions merged, zero
    values dropped, sorted.  Two triple lists give the same matrix exactly
    when their canonical entries agree, which needs no matrix built."""
    if n < 1:
        raise ValueError("period must be positive")
    acc: dict[tuple[int, int], int] = {}
    for i, j, a in entries:
        if a < 0:
            raise ValueError("matrix entries must be nonnegative")
        if a == 0:
            continue
        key = _normalize_row(n, i, j)
        acc[key] = acc.get(key, 0) + a
    return tuple(sorted((i, j, a) for (i, j), a in acc.items()))


@dataclass(frozen=True, slots=True)
class PeriodicMatrix:
    """Canonical representative of an n-periodic nonnegative matrix.

    ``entries`` is a sorted tuple of (row, column, value) triples with row
    in 1..n, column in Z and value >= 1; ``r`` is the weight, the total of
    the stored entries.  Build matrices with ``from_entries`` (or the
    methods below that return one), which hand out the interned object.

    Instances are slotted and compute their hash once, when built;
    equality stays by value, so a matrix built directly equals and
    hashes like the interned one with its entries.  The position dict,
    the row and column weights and the translation class are computed on
    first use and kept in slots.
    """

    n: int
    entries: tuple[tuple[int, int, int], ...]
    _lookup: "dict[tuple[int, int], int] | None" = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    r: int = field(init=False, repr=False, compare=False, hash=False, default=0)
    _hash: int = field(init=False, repr=False, compare=False, hash=False, default=0)
    _translation: "tuple[tuple[int, ...], int] | None" = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _row_vector: "Composition | None" = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _col_vector: "Composition | None" = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("period must be positive")
        lookup: dict[tuple[int, int], int] = {}
        for i, j, a in self.entries:
            if not 1 <= i <= self.n:
                raise ValueError("stored rows must lie in 1..n")
            if a < 1:
                raise ValueError("stored entries must be positive")
            if (i, j) in lookup:
                raise ValueError("duplicate entry position")
            lookup[(i, j)] = a
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "r", sum(lookup.values()))
        object.__setattr__(self, "_hash", hash((self.n, self.entries)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_entries(
        cls, n: int, entries: Iterable[tuple[int, int, int]]
    ) -> "PeriodicMatrix":
        """Build a matrix from arbitrary (row, column, value) triples.

        Rows are shifted into 1..n, coinciding positions are merged and
        zero values dropped, so the result is canonical.

        >>> PeriodicMatrix.from_entries(2, [(3, 2, 1), (1, 0, 1)])
        Mat(n=2;(1,0):2)
        """
        return _interned(n, canonical_entries(n, entries))

    def _positions(self) -> dict[tuple[int, int], int]:
        """{(row, column): value} of the stored entries, built once."""
        if self._lookup is None:
            object.__setattr__(
                self, "_lookup", {(i, j): a for i, j, a in self.entries}
            )
        return self._lookup

    def entry(self, i: int, j: int) -> int:
        """The matrix entry a_{i,j} for arbitrary integers i, j."""
        return self._positions().get(_normalize_row(self.n, i, j), 0)

    def row_entries(self, i: int) -> dict[int, int]:
        """Nonzero entries {j: a_{i,j}} of row i, for any integer i."""
        s = (i - 1) // self.n
        base = i - s * self.n
        return {
            j + s * self.n: a for (k, j, a) in self.entries if k == base
        }

    def row_vector(self) -> Composition:
        """The row sums, computed once."""
        if self._row_vector is None:
            parts = [0] * self.n
            for i, _, a in self.entries:
                parts[i - 1] += a
            object.__setattr__(self, "_row_vector", Composition(self.n, tuple(parts)))
        return self._row_vector

    def col_vector(self) -> Composition:
        """The column sums, reduced mod n into 1..n, computed once."""
        if self._col_vector is None:
            parts = [0] * self.n
            for _, j, a in self.entries:
                parts[(j - 1) % self.n] += a
            object.__setattr__(self, "_col_vector", Composition(self.n, tuple(parts)))
        return self._col_vector

    def transpose(self) -> "PeriodicMatrix":
        """The transposed matrix, of the class :func:`_transposed_class` gives."""
        return _of_class(self.n, *_transposed_class(self.n, *self.translation_class()))

    def translation_class(self) -> tuple[tuple[int, ...], int]:
        """``(shape, k)``: this matrix is ``shape`` with every column
        moved by k periods.

        k is the number of whole periods by which the smallest column lies
        outside 1..n; ``shape`` is the entries with their columns moved back
        by k*n, flattened to (row, column, value, row, column, value, ...).
        Two matrices with one ``n`` and one shape differ by a power of the
        central period shift.  Computed once; builds no matrix.

        >>> PeriodicMatrix.from_entries(2, [(1, 5, 1), (2, 8, 1)]).translation_class()
        ((1, 1, 1, 2, 4, 1), 2)
        """
        if self._translation is None:
            object.__setattr__(self, "_translation", _class_of(self.n, self.entries))
        return self._translation

    def columns_moved(self, shift: int) -> "PeriodicMatrix":
        """The matrix with every column index moved by ``shift``: by
        whole periods, the matrix of class (shape, k + periods)."""
        periods, rest = divmod(shift, self.n)
        if rest or not self.entries:
            return _interned(
                self.n, tuple((i, j + shift, a) for i, j, a in self.entries)
            )
        shape, k = self.translation_class()
        return _of_class(self.n, shape, k + periods)

    def shifted_by(
        self, deltas: Iterable[tuple[int, int, int]]
    ) -> "PeriodicMatrix":
        """The matrix A + sum of delta*E_{i,j} unit shifts.

        Raises if any resulting entry would be negative.
        """
        acc: dict[tuple[int, int], int] = dict(self._positions())
        for i, j, d in deltas:
            key = _normalize_row(self.n, i, j)
            acc[key] = acc.get(key, 0) + d
        for value in acc.values():
            if value < 0:
                raise ValueError("matrix entry driven negative")
        return _interned(
            self.n, tuple(sorted((i, j, a) for (i, j), a in acc.items() if a != 0))
        )

    def is_upper_triangular(self) -> bool:
        return all(i <= j for i, j, _ in self.entries)

    def is_lower_triangular(self) -> bool:
        return all(i >= j for i, j, _ in self.entries)

    def sort_key(self) -> tuple:
        return self.entries

    def __repr__(self) -> str:
        body = ",".join(f"({i},{j}):{a}" for i, j, a in self.entries)
        return f"Mat(n={self.n};{body})"


# The canonical object of every matrix the methods above return, keyed by
# (n, entries) so that a lookup builds nothing.
_MATRICES: dict[tuple[int, tuple[tuple[int, int, int], ...]], PeriodicMatrix] = {}

# (n, shape, k) -> the interned matrix of that class, and (n, shape) ->
# the class of the transpose of (shape, 0); filled on first use only
_CLASSES: dict[tuple[int, tuple[int, ...], int], PeriodicMatrix] = {}
_SHAPE_TRANSPOSES: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], int]] = {}

# the slots of a matrix that are filled on first use, empty when it is built
_ON_FIRST_USE = ("_lookup", "_translation", "_row_vector", "_col_vector")


def _class_of(n: int, entries: tuple[tuple[int, int, int], ...]) -> Class:
    """The translation class of the matrix with these canonical entries."""
    k = (min((j for _, j, _ in entries), default=1) - 1) // n
    shift = k * n
    return tuple(v for i, j, a in entries for v in (i, j - shift, a)), k


def _transposed_class(n: int, shape: tuple[int, ...], k: int) -> Class:
    """The class of the transpose of (shape, k).  T, the move by one period,
    sends (i, j) to (i, j + n), stored as (i - n, j), whose transpose is
    (j, i - n): so it is the transpose of (shape, 0) moved by -k periods."""
    found = _SHAPE_TRANSPOSES.get((n, shape))
    if found is None:
        flipped = canonical_entries(n, zip(shape[1::3], shape[::3], shape[2::3]))
        found = _SHAPE_TRANSPOSES[(n, shape)] = _class_of(n, flipped)
    return found[0], found[1] - k


def _interned(
    n: int, entries: tuple[tuple[int, int, int], ...]
) -> PeriodicMatrix:
    """The interned matrix with these canonical entries.

    Every caller passes entries that are canonical by construction (rows
    in 1..n, values at least 1, positions distinct and sorted), so a new
    matrix is built without ``__post_init__``: nothing is validated, its
    hash is the hash of the table key, which is the hash ``__post_init__``
    would give, and the slots computed on first use start empty.
    """
    key = (n, entries)
    found = _MATRICES.get(key)
    if found is None:
        found = _MATRICES[key] = object.__new__(PeriodicMatrix)
        put = object.__setattr__
        put(found, "n", n)
        put(found, "entries", entries)
        put(found, "r", sum([a for _, _, a in entries]))
        put(found, "_hash", hash(key))
        for name in _ON_FIRST_USE:
            put(found, name, None)
    return found


def _of_class(n: int, shape: tuple[int, ...], k: int) -> PeriodicMatrix:
    """The interned matrix of class (shape, k), from the class index; its
    entries, the shape's moved by k periods, are built only on a miss."""
    found = _CLASSES.get((n, shape, k))
    if found is None:
        columns = [j + k * n for j in shape[1::3]]
        found = _interned(n, tuple(zip(shape[::3], columns, shape[2::3])))
        _CLASSES[(n, shape, k)] = found
        object.__setattr__(found, "_translation", (shape, k))
    return found


def diag_matrix(comp: Composition) -> PeriodicMatrix:
    """The diagonal matrix with the given composition on the diagonal."""
    return PeriodicMatrix.from_entries(
        comp.n, ((i + 1, i + 1, p) for i, p in enumerate(comp.parts))
    )


def unit_matrix(n: int, i: int, j: int) -> PeriodicMatrix:
    """The weight-one matrix supported on the periodic orbit of (i, j).

    >>> unit_matrix(2, 1, -1) == PeriodicMatrix.from_entries(2, [(3, 1, 1)])
    True
    """
    if not 1 <= i <= n:
        raise ValueError("row index must lie in 1..n")
    return PeriodicMatrix.from_entries(n, [(i, j, 1)])


def row_vector(matrix: PeriodicMatrix) -> Composition:
    return matrix.row_vector()


def col_vector(matrix: PeriodicMatrix) -> Composition:
    return matrix.col_vector()


def grade(matrix: PeriodicMatrix) -> int:
    """Degree of a triangular basis matrix.

    Upper-triangular matrices get sum a_{i,j} (j - i) over stored entries,
    lower-triangular ones the negated mirror sum; diagonal matrices get 0
    under both readings.  Mixed-triangular input is rejected since no
    single formula covers it.

    >>> grade(PeriodicMatrix.from_entries(2, [(1, 3, 2)]))
    4
    >>> grade(PeriodicMatrix.from_entries(2, [(3, 1, 2)]))
    -4
    """
    if matrix.is_upper_triangular():
        return sum(a * (j - i) for i, j, a in matrix.entries)
    if matrix.is_lower_triangular():
        return -sum(a * (i - j) for i, j, a in matrix.entries)
    raise ValueError("grade is defined only for triangular matrices")


class LinearCombination:
    """Finite rational linear combination of hashable keys.

    ``terms`` maps each key to its coefficient, always a nonzero canonical
    exact scalar (an ``int`` when integral, else a ``Fraction``).
    Instances are treated as immutable: every operation returns a fresh
    element.  A subclass lists the parameters that fix its module in
    ``_params`` (elements with different parameters never mix), checks
    each key in ``_checked_key`` (or in its own ``__init__``) and
    multiplies two keys in ``_key_product``.
    """

    __slots__ = ("terms",)
    _params: tuple[str, ...] = ()

    def __init__(self, terms: Mapping[Hashable, Scalar] | None = None) -> None:
        clean: dict[Hashable, Scalar] = {}
        for key, coeff in (terms or {}).items():
            key = self._checked_key(key)
            value = _exact(coeff)
            if value:
                clean[key] = value
        self.terms = clean

    def _like(self, terms: Mapping[Hashable, Scalar]):
        """An element with this one's parameters and the given terms.

        The trusted constructor of internal arithmetic: keys must come from
        validated elements of the same module and values must be ``int``s
        or ``Fraction``s, so nothing is checked; zero values are dropped
        and the rest made canonical.
        """
        new = object.__new__(type(self))
        for name in self._params:
            setattr(new, name, getattr(self, name))
        new.terms = {
            key: value if type(value) is int else _exact(value)
            for key, value in terms.items()
            if value
        }
        return new

    def _parameters(self) -> tuple:
        return tuple(getattr(self, name) for name in self._params)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._parameters() != other._parameters():
            raise ValueError("elements live in different algebras")
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return self._like(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, coeff: Scalar):
        value = _exact(coeff)
        return self._like({key: c * value for key, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            return self._product(other)
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def _product(self, other):
        """The bilinear extension of ``_key_product``."""
        acc: dict[Hashable, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = self._key_product(k1, k2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return self._like(acc)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.terms == other.terms
            and self._parameters() == other._parameters()
        )

    __hash__ = None  # type: ignore[assignment]


class AlgebraElement(LinearCombination):
    """Finite rational linear combination of basis matrices of one S(n, r).

    Products are the bilinear extension of the basis product of
    :func:`affschur.multiplication.multiply`.
    """

    __slots__ = ("n", "r")
    _params = ("n", "r")

    def __init__(
        self,
        n: int,
        r: int,
        terms: Mapping[PeriodicMatrix, Scalar] | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("period must be positive")
        if r < 0:
            raise ValueError("weight must be nonnegative")
        self.n = n
        self.r = r
        clean: dict[PeriodicMatrix, Scalar] = {}
        for matrix, coeff in (terms or {}).items():
            value = coeff if type(coeff) is int else _exact(coeff)
            if not value:
                continue
            if matrix.n != n or matrix.r != r:
                raise ValueError("term matrix has mismatched parameters")
            clean[matrix] = value
        self.terms = clean

    @classmethod
    def zero(cls, n: int, r: int) -> "AlgebraElement":
        return cls(n, r, {})

    @classmethod
    def basis(
        cls, matrix: PeriodicMatrix, coeff: Scalar = 1
    ) -> "AlgebraElement":
        return cls(matrix.n, matrix.r, {matrix: coeff})

    def coefficient(self, matrix: PeriodicMatrix) -> Scalar:
        return self.terms.get(matrix, 0)

    def sorted_terms(self) -> list[tuple[PeriodicMatrix, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        from .multiplication import multiply

        return multiply(self, other)

    def transpose(self) -> "AlgebraElement":
        return self._like({m.transpose(): c for m, c in self.terms.items()})

    def translated(self, periods: int) -> "AlgebraElement":
        """This element times the central x2^periods: every column moved
        by periods * n, onto interned matrices.

        Moving columns changes no coefficient, so the term dict is built
        once and taken as it is.
        """
        if not periods:
            return self
        shift = periods * self.n
        moved = object.__new__(type(self))
        moved.n = self.n
        moved.r = self.r
        moved.terms = {m.columns_moved(shift): c for m, c in self.terms.items()}
        return moved

    def supported_on(self, row: Composition | None, col: Composition | None) -> bool:
        """True when every term matches the given row/column weights."""
        for matrix in self.terms:
            if row is not None and matrix.row_vector() != row:
                return False
            if col is not None and matrix.col_vector() != col:
                return False
        return True

    def __repr__(self) -> str:
        if not self.terms:
            return f"0<S({self.n},{self.r})>"
        parts = [
            f"{c}*{m!r}" for m, c in self.sorted_terms()
        ]
        return " + ".join(parts)


def transpose(x: AlgebraElement) -> AlgebraElement:
    """The anti-involution flipping every basis matrix across the diagonal."""
    return x.transpose()


def element_to_json(x: AlgebraElement) -> dict:
    """Serialize an element in the shared JSON exchange format."""
    return {
        "n": x.n,
        "r": x.r,
        "terms": [
            {
                "coeff": format_fraction(coeff),
                "entries": [[i, j, a] for i, j, a in matrix.entries],
            }
            for matrix, coeff in x.sorted_terms()
        ],
    }


def element_from_json(data: dict) -> AlgebraElement:
    """Parse the JSON exchange format, normalizing sloppy input.

    ``n``, ``r`` and every entry must be JSON integers (not floats,
    booleans or strings).  Entries with rows outside 1..n are shifted
    into range, duplicate matrices have their coefficients merged, zero
    terms are dropped.
    """
    if not isinstance(data, dict):
        raise ValueError("element JSON must be an object")
    try:
        n, r, raw_terms = data["n"], data["r"], data["terms"]
    except KeyError as exc:
        raise ValueError(f"malformed element JSON: {exc}") from None
    if type(n) is not int or type(r) is not int:
        raise ValueError("element n and r must be integers")
    if not isinstance(raw_terms, list):
        raise ValueError("element terms must be a list")
    acc: dict[PeriodicMatrix, Scalar] = {}
    for item in raw_terms:
        if not isinstance(item, dict):
            raise ValueError("each term must be an object")
        coeff = parse_fraction(item.get("coeff", ""))
        entries = item.get("entries")
        if not isinstance(entries, list):
            raise ValueError("term entries must be a list")
        triples = []
        for triple in entries:
            if (
                not isinstance(triple, (list, tuple))
                or len(triple) != 3
                or not all(type(v) is int for v in triple)
            ):
                raise ValueError("entries must be integer triples")
            triples.append((triple[0], triple[1], triple[2]))
        matrix = PeriodicMatrix.from_entries(n, triples)
        if matrix.r != r:
            raise ValueError("term weight disagrees with declared r")
        acc[matrix] = acc.get(matrix, 0) + coeff
    return AlgebraElement(n, r, acc)
