"""
Exact sparse rational linear algebra for triangular systems.

A :class:`Factorization` peels one coefficient matrix once and is then
asked about any number of right-hand sides, in any number of batches.
It takes its matrix by columns, each a placement: a stem
[(row index, value)], which any number of columns may share, and the
shift that moves the stem's rows to the column's.  ``factorize`` builds
one from {(row, column): value} entries over arbitrary hashable row and
column labels, each column its own stem at shift 0, and ``solve_many``
and ``rank`` are thin calls to that.

Values are exact scalars: an ``int`` when integral, else a ``Fraction``.
A solve clears each right-hand side of its denominators once (``_cleared``).
The one elimination is the peeling of row singletons, as sparse direct
solvers treat the triangular blocks they detect (Davis & Palamadai
Natarajan, "Algorithm 907: KLU", ACM TOMS 2010); the certifier's systems
are triangular and peel whole.  A whole peel proves full column rank,
and a solve is one forward sweep over the logged steps, in the style of
a Gilbert–Peierls triangular solve, after which every solution value is
final.  A matrix that does not peel whole carries a count bound on its
rank, which proves it deficient when below the column count; otherwise
its rank, and every solve that no key refutes, is undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import heapq
from typing import Hashable, Sequence

from .core import _cleared, _divided

__all__ = [
    "SparseSystem",
    "SolveResult",
    "Factorization",
    "factorize",
    "solve_many",
    "rank",
]


@dataclass
class SparseSystem:
    """A labelled exact linear system  M x = rhs, with ``int`` or
    ``Fraction`` values."""

    cols: list[Hashable]
    rows: list[Hashable]
    entries: dict[tuple[Hashable, Hashable], int | Fraction]
    rhs: dict[Hashable, int | Fraction] = field(default_factory=dict)


@dataclass
class SolveResult:
    """Outcome of an exact solve: unique / inconsistent / undecided.

    A solution value is an ``int`` when integral, else a ``Fraction``."""

    status: str
    solution: dict[Hashable, int | Fraction] | None = None

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDECIDED = "undecided"


# A column as a placement: a stem, [(row index, value)] that any number
# of columns share, and the shift that moves the stem's rows to the
# column's.
Placement = tuple[list[tuple[int, int | Fraction]], int]

# one peeling step: the pivot row, its pivot value and the pivot
# column's placement, which holds the pivot row and the rows it clears
_Step = tuple[int, int | Fraction, Placement]


def _peel(
    placements: Sequence[Placement], nrows: int
) -> tuple[list[int], list[_Step], int]:
    """Peel the row singletons off a matrix given by placements.

    Each row keeps the number of its live columns and the sum of their
    indices.  A row whose count is 1 holds a single live entry, in the
    column that sum names: it becomes that column's pivot row, and the
    column leaves every row it meets, with no arithmetic on the matrix.
    The lowest-numbered singleton goes first (a heap of row numbers).  A
    column's entries are generated from its placement as they are
    walked; none is stored per column.

    Returns the pivot columns in order, their steps, and the number of
    live rows, those left meeting a column left over.
    """
    count = [0] * nrows
    colsum = [0] * nrows
    for col, (stem, shift) in enumerate(placements):
        for base, _ in stem:
            rid = base + shift
            count[rid] += 1
            colsum[rid] += col
    # in increasing order, so already a heap
    singles = [rid for rid, k in enumerate(count) if k == 1]
    pivot_cols: list[int] = []
    steps: list[_Step] = []
    while singles:
        rid = heapq.heappop(singles)
        if count[rid] != 1:
            continue
        col = colsum[rid]
        placement = placements[col]
        stem, shift = placement
        for base, value in stem:
            other = base + shift
            if other == rid:
                pivot_val = value
                continue
            k = count[other] - 1
            count[other] = k
            colsum[other] -= col
            if k == 1:
                heapq.heappush(singles, other)
        count[rid] = 0
        pivot_cols.append(col)
        steps.append((rid, pivot_val, placement))
    return pivot_cols, steps, sum(1 for k in count if k)


class Factorization:
    """The peeling of one coefficient matrix, solvable many times.

    The matrix has ``nrows`` rows, numbered from 0, and comes by columns
    as placements: per label of ``cols``, in that order, a stem
    [(row index, value)] and a shift, the column holding each value of
    the stem at its row plus the shift, each row at most once.  Values
    are ``int``s or ``Fraction``s.  Columns may share a stem, which is
    kept, not copied: a step logs only its pivot row, its pivot value and
    its column's placement.

    What peeling proves.  A pivot row holds one live entry when it is
    chosen: every other column meeting it was peeled at an earlier step.
    So in step order the pivot rows and columns form a triangular matrix
    with nonzero diagonal, and the pivot columns are independent.  No
    column left over meets a pivot row, since it was live when that row
    was chosen; so the rank is the pivot count plus the rank of the live
    rows (no pivot row, meeting a column left over) on the columns left.
    Hence, when every column is peeled, ``rank`` is the column count and
    the sweep solves the triangular system, each solution value final
    after it.  Otherwise ``max_rank = min(pivots + live rows, columns)``
    bounds the rank, and ``rank`` is the pivot count when no row is live
    (the columns left are zero) and None, undecided, while one is.

    :meth:`solve` takes a batch of right-hand sides ({row index:
    value}); a key that is not a row index is an equation 0 = value of
    its own.
    """

    def __init__(
        self, cols: Sequence[Hashable], nrows: int, placements: Sequence[Placement]
    ) -> None:
        self.cols = list(cols)
        self.nrows = nrows
        self._pivot_cols, self._steps, live = _peel(placements, nrows)
        pivots = len(self._steps)
        self.max_rank = min(pivots + live, len(self.cols))
        self.rank = None if live else pivots
        # row -> the index of the step pivoting on it, None for no pivot row
        self._step_of: list[int | None] = [None] * nrows
        for s, (rid, _, _) in enumerate(self._steps):
            self._step_of[rid] = s

    def solve(
        self, rhs_list: Sequence[dict[Hashable, int | Fraction]]
    ) -> list[SolveResult]:
        """One verdict per right-hand side.  A unique solution lists only
        its nonzero values, in column order.

        A value the sweep leaves on a row that is no pivot row is a failed
        equation only when the matrix peels whole: else a column left over
        may reach that row and cancel it.  So a matrix that does not peel
        whole refutes a right-hand side only by a key that is no row
        index, and leaves every other one undecided.
        """
        cleared = [_cleared(rhs) for rhs in rhs_list]
        inconsistent: set[int] = set()
        # row -> {rhs: value}, each rhs cleared of its denominators
        values: dict[int, dict[int, int | Fraction]] = {}
        nrows = self.nrows
        for k, (rhs, _) in enumerate(cleared):
            for rid, value in rhs.items():
                if not value:
                    continue
                if type(rid) is int and 0 <= rid < nrows:
                    values.setdefault(rid, {})[k] = value
                else:
                    inconsistent.add(k)
        whole = self.rank == len(self.cols)
        solutions: list[dict[int, int | Fraction]] = [{} for _ in rhs_list]
        if whole:
            self._sweep(values)
            for rid, row_values in values.items():
                s = self._step_of[rid]
                for k, value in row_values.items():
                    if s is None:
                        inconsistent.add(k)
                    else:
                        solutions[k][self._pivot_cols[s]] = value
        return [
            SolveResult(SolveResult.INCONSISTENT)
            if k in inconsistent
            else SolveResult(
                SolveResult.UNIQUE,
                {self.cols[c]: _divided(solution[c], scale) for c in sorted(solution)},
            )
            if whole
            else SolveResult(SolveResult.UNDECIDED)
            for k, (solution, (_, scale)) in enumerate(zip(solutions, cleared))
        ]

    def _sweep(self, values: dict[int, dict[int, int | Fraction]]) -> None:
        """Apply the logged steps to the rhs values in place, visiting only
        the steps whose pivot rows the values reach, in step order.

        A heap holds the steps of the pivot rows that hold values.  At its
        step a pivot row's values are divided by the pivot value, which
        makes them its column's solution values, and every other row the
        column meets drops its entry times them; a row that gains values
        puts its step on the heap.  The order is sound because a column
        was live in every row it meets when its pivot row was chosen, so
        it clears only the pivot rows of later steps and rows that are no
        pivot row.  A step is pushed twice only when its row lost its
        values and gained new ones; its copies come off the heap one
        after the other, and the second is passed over.
        """
        steps = self._steps
        step_of = self._step_of
        get = values.get
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [s for rid in values if (s := step_of[rid]) is not None]
        heapq.heapify(heap)
        last = -1
        while heap:
            s = heappop(heap)
            if s == last:
                continue
            last = s
            pid, pivot_val, (stem, shift) = steps[s]
            source = get(pid)
            if source is None:
                continue
            if pivot_val != 1:
                source = values[pid] = {
                    k: _divided(v, pivot_val) for k, v in source.items()
                }
            items = source.items()
            for base, factor in stem:
                other = base + shift
                if other == pid:
                    continue
                target = get(other)
                if target is None:
                    values[other] = {k: -factor * v for k, v in items}
                    t = step_of[other]
                    if t is not None:
                        heappush(heap, t)
                    continue
                for k, v in items:
                    value = target.get(k, 0) - factor * v
                    if value:
                        target[k] = value
                    else:
                        del target[k]
                if not target:
                    del values[other]


def factorize(
    cols: Sequence[Hashable],
    rows: Sequence[Hashable],
    entries: dict[tuple[Hashable, Hashable], int | Fraction],
) -> Factorization:
    """The factorization of a system given by {(row, column): value},
    each column its own stem at shift 0.  Its right-hand sides are keyed
    by row index, a label's position in ``rows``."""
    row_index = {label: rid for rid, label in enumerate(rows)}
    col_index = {label: idx for idx, label in enumerate(cols)}
    columns: list[list[tuple[int, int | Fraction]]] = [[] for _ in cols]
    for (row_label, col_label), value in entries.items():
        if value:
            columns[col_index[col_label]].append((row_index[row_label], value))
    return Factorization(cols, len(rows), [(column, 0) for column in columns])


# No production path calls ``solve_many`` or ``rank``.  The benchmark's
# tracer looks them up by name, with cellular's ``omega_candidates`` and
# ``batch_ideal_membership``, and its self-test fails without them, so
# all four keep their signatures, and ``rank`` its ``SparseSystem``.


def solve_many(
    cols: Sequence[Hashable],
    rows: Sequence[Hashable],
    entries: dict[tuple[Hashable, Hashable], int | Fraction],
    rhs_list: Sequence[dict[Hashable, int | Fraction]],
) -> list[SolveResult]:
    """Solve one coefficient matrix against many right-hand sides.

    One factorization serves every rhs, and each gets its own verdict.  A
    unique solution lists every column, zeros included.  A rhs label not
    in ``rows`` is an equation 0 = value of its own.
    """
    row_index = {label: rid for rid, label in enumerate(rows)}
    # (label,) is no row index, so a label not in rows keys no row
    indexed = [
        {row_index.get(label, (label,)): value for label, value in rhs.items()}
        for rhs in rhs_list
    ]
    results = factorize(cols, rows, entries).solve(indexed)
    for result in results:
        if result.status == SolveResult.UNIQUE:
            solution = dict.fromkeys(cols, 0)
            solution.update(result.solution)
            result.solution = solution
    return results


def rank(system: SparseSystem) -> int | None:
    """Exact rank of the coefficient matrix (rhs ignored) when peeling
    decides it, else None."""
    return factorize(system.cols, system.rows, system.entries).rank
