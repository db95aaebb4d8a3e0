"""
Exact sparse rational linear algebra.

A :class:`Factorization` eliminates one coefficient matrix once and is
then asked about any number of right-hand sides, in any number of
batches.  It takes its matrix by columns, each a placement: a stem
[(row index, value)], which any number of columns may share, and the
shift that moves the stem's rows to the column's.  ``factorize`` builds
one from {(row, column): value} entries over arbitrary hashable row and
column labels, each column its own stem at shift 0, and ``solve_many``,
``solve_unique`` and ``rank`` are thin calls to that.

Values are exact scalars: an ``int`` when integral, else a ``Fraction``.
Elimination runs over Q with unit pivots, in two phases, as sparse
direct solvers do (Davis & Palamadai Natarajan, "Algorithm 907: KLU",
ACM TOMS 2010).  First the row singletons are peeled: each row keeps
the count and the sum of the indices of its live columns, so a row
whose count reaches 1 names its column and becomes its pivot with no
search, and the column leaves every other row with no arithmetic on the
matrix.  The certifier's systems are triangular and peel whole.  What
peeling leaves is built as row dicts and eliminated with Markowitz-style
pivots (sparsest row, then its smallest coefficient): a chosen pivot
row is divided by its pivot value and every other row meeting the pivot
column drops ``factor`` times it, in place.  The right-hand sides stay
out of the elimination: every step is logged, a peeled one as its pivot
row, pivot value and column placement, so the log holds no entry of its
own.  A solve is a forward sweep over that log driven by a heap of step
indices, in the style of a Gilbert–Peierls triangular solve: it visits
only the steps whose pivot rows its values reach, in step order, since
a step clears only the rows of later steps and rows that are no pivot
row.  Back-substitution is sparse in the same style: each right-hand
side visits only the pivots its nonzero entries reach, in decreasing
pivot order, so work is done only for nonzero solution values.
Everything is exact; verdicts distinguish a unique solution from
inconsistent and underdetermined systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import heapq
from math import lcm
from typing import Hashable, Sequence

__all__ = [
    "SparseSystem",
    "SolveResult",
    "Factorization",
    "factorize",
    "solve_unique",
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
    """Outcome of an exact solve: unique / inconsistent / underdetermined.

    A solution value is an ``int`` when integral, else a ``Fraction``."""

    status: str
    solution: dict[Hashable, int | Fraction] | None = None

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"


def _divided(value: int | Fraction, divisor: int | Fraction) -> int | Fraction:
    """value / divisor, an ``int`` when the quotient is integral, else a
    ``Fraction``."""
    if type(value) is int and type(divisor) is int:
        return Fraction(value, divisor) if value % divisor else value // divisor
    quotient = value / divisor
    return quotient.numerator if quotient.denominator == 1 else quotient


# A column as a placement: a stem, [(row index, value)] that any number
# of columns share, and the shift that moves the stem's rows to the
# column's.
Placement = tuple[list[tuple[int, int | Fraction]], int]

# one elimination step: the pivot row, its pivot value (the row was
# divided by it) and the rows it cleared with their factors, as a
# placement.  A peeled step logs its pivot column's placement, which
# holds the pivot row too; a Markowitz step the rows it cleared, at
# shift 0.
_Step = tuple[int, int | Fraction, Placement]


def _peel(
    placements: Sequence[Placement], nrows: int
) -> tuple[list[int], list[_Step], dict[int, dict[int, int | Fraction]]]:
    """Peel the row singletons off a matrix given by placements.

    Each row keeps the number of its live columns and the sum of their
    indices.  A row whose count is 1 holds a single live entry, in the
    column that sum names: it becomes that column's pivot row, and the
    column leaves every row it meets.  So a peeled pivot row holds only
    its pivot column, the rows it clears lose only that entry, and no
    value of the matrix changes.  Rows whose count reaches 0 without a
    pivot are zero rows.  The lowest-numbered singleton goes first (a
    heap of row numbers), the row a Markowitz order would take, so a
    triangular matrix gets the pivots that :func:`_eliminate` would give.
    A column's entries are generated from its placement as they are
    walked; none is stored per column.

    Returns the pivot columns in order, their steps, and the rows left
    over the columns left, {row: {column: value}}, for
    :func:`_eliminate`; empty when the matrix peels whole.
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
    rest: dict[int, dict[int, int | Fraction]] = {}
    if len(steps) < len(placements):
        peeled = set(pivot_cols)
        for col, (stem, shift) in enumerate(placements):
            if col not in peeled:
                for base, value in stem:
                    rest.setdefault(base + shift, {})[col] = value
    return pivot_cols, steps, rest


def _eliminate(
    rows: dict[int, dict[int, int | Fraction]],
) -> tuple[list[tuple[int, int, list[tuple[int, int | Fraction]]]], list[_Step]]:
    """Forward elimination over Q of the rows peeling leaves (they are
    consumed).

    Returns the (row, pivot column, rest of the pivot row) triples in
    pivot order, each pivot row divided by its pivot value so that it
    holds 1 in its pivot column, and the log of every row operation.
    Pivots take the sparsest available row (lazy heap, stale entries
    skipped) and its smallest coefficient; a column index limits each
    step to the rows actually meeting the pivot column.  Rows that end
    up zero take no part any more.

    A cleared row is updated in place, ``row -= factor * pivot_row``, at
    the cost of its arithmetic: only the pivot row's columns are
    touched.  The pivot column leaves the column index in one step, and
    only fill entries are added to it.
    """
    colmap: dict[int, set[int]] = {}
    for rid, row in rows.items():
        for c in row:
            colmap.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in rows.items()]
    heapq.heapify(heap)
    pivots: list[tuple[int, int, list[tuple[int, int | Fraction]]]] = []
    steps: list[_Step] = []
    while heap:
        count, rid = heapq.heappop(heap)
        if len(rows.get(rid, ())) != count:
            continue
        pivot_row = rows.pop(rid)
        col = min(pivot_row, key=lambda c: (abs(pivot_row[c]), c))
        pivot_val = pivot_row[col]
        if pivot_val != 1:
            for c, v in pivot_row.items():
                pivot_row[c] = _divided(v, pivot_val)
        rest = [(c, v) for c, v in pivot_row.items() if c != col]
        pivots.append((rid, col, rest))
        for c, _ in rest:
            colmap[c].discard(rid)
        targets = colmap.pop(col)
        targets.discard(rid)
        cleared: list[tuple[int, int | Fraction]] = []
        for other in targets:
            row = rows[other]
            factor = row.pop(col)
            for c, v in rest:
                old = row.get(c)
                if old is None:
                    row[c] = -factor * v
                    colmap[c].add(other)
                    continue
                value = old - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
                    colmap[c].discard(other)
            cleared.append((other, factor))
            if row:
                heapq.heappush(heap, (len(row), other))
            else:
                del rows[other]
        steps.append((rid, pivot_val, (cleared, 0)))
    return pivots, steps


class Factorization:
    """The elimination of one coefficient matrix, solvable many times.

    The matrix has ``nrows`` rows, numbered from 0, and comes by columns
    as placements: per label of ``cols``, in that order, a stem
    [(row index, value)] and a shift, the column holding each value of
    the stem at its row plus the shift, each row at most once.  Columns
    may share a stem, which is kept, not copied: a peeled step logs only
    its pivot row, its pivot value and its column's placement, so the
    factorization holds no entry per column.  Values are ``int``s or
    ``Fraction``s, and the matrix is eliminated over Q with unit pivots,
    the row singletons peeled first and the rest by Markowitz pivots.
    ``rank`` is the pivot count.  :meth:`solve` takes a batch of
    right-hand sides ({row index: value}), clears each of its
    denominators, sweeps the logged steps its values reach and
    back-substitutes each one; a rhs key that is not a row index is an
    equation 0 = value of its own.
    """

    def __init__(
        self, cols: Sequence[Hashable], nrows: int, placements: Sequence[Placement]
    ) -> None:
        self.cols = list(cols)
        self.nrows = nrows
        self._pivot_cols, self._steps, rest = _peel(placements, nrows)
        self._peeled = len(self._steps)
        # column -> [(pivot, coefficient)] over the pivot rows meeting it
        # off their own pivot column; a peeled pivot row meets none
        self._col_users: dict[int, list[tuple[int, int | Fraction]]] = {}
        if rest:
            more, steps = _eliminate(rest)
            self._steps += steps
            for rid, col, row_rest in more:
                for c, value in row_rest:
                    self._col_users.setdefault(c, []).append(
                        (len(self._pivot_cols), value)
                    )
                self._pivot_cols.append(col)
        self.rank = len(self._steps)
        # row -> the index of the step pivoting on it, None for no pivot row
        self._step_of: list[int | None] = [None] * nrows
        for s, (rid, _, _) in enumerate(self._steps):
            self._step_of[rid] = s

    def solve(
        self, rhs_list: Sequence[dict[Hashable, int | Fraction]]
    ) -> list[SolveResult]:
        """One verdict per right-hand side.  A unique solution lists only
        its nonzero values, in column order."""
        scales = [lcm(*(v.denominator for v in rhs.values())) for rhs in rhs_list]
        inconsistent: set[int] = set()
        # row -> {rhs: value}, each rhs cleared of its denominators
        values: dict[int, dict[int, int | Fraction]] = {}
        nrows = self.nrows
        for k, (rhs, scale) in enumerate(zip(rhs_list, scales)):
            for rid, value in rhs.items():
                if not value:
                    continue
                if type(rid) is int and 0 <= rid < nrows:
                    values.setdefault(rid, {})[k] = value.numerator * (
                        scale // value.denominator
                    )
                else:
                    inconsistent.add(k)
        self._sweep(values)
        # a value left on a row that is not a pivot row is a failed equation
        starts: dict[int, list[tuple[int, int | Fraction]]] = {}
        for rid, row_values in values.items():
            p = self._step_of[rid]
            for k, value in row_values.items():
                if p is None:
                    inconsistent.add(k)
                else:
                    starts.setdefault(k, []).append((p, value))
        full = self.rank == len(self.cols)
        return [
            SolveResult(SolveResult.INCONSISTENT)
            if k in inconsistent
            else SolveResult(
                SolveResult.UNIQUE, self._back_substitute(starts.get(k, ()), scale)
            )
            if full
            else SolveResult(SolveResult.UNDERDETERMINED)
            for k, scale in enumerate(scales)
        ]

    def _sweep(self, values: dict[int, dict[int, int | Fraction]]) -> None:
        """Apply the logged steps to the rhs values in place, visiting only
        the steps whose pivot rows the values reach, in step order.

        A heap holds the steps of the pivot rows that hold values.  At its
        step a pivot row's values are divided by the pivot value, as the
        row was, and each row the step cleared drops its factor times
        them; a peeled step's placement holds the pivot row itself, which
        is passed over.  A row that gains values puts its step on the
        heap.  The order is sound because a step clears only the pivot
        rows of later steps and rows that are no pivot row: a peeled
        column was live in every row it meets when its pivot row was
        chosen, so none of them had been a singleton before, and a
        Markowitz step clears only rows not yet pivoted.  So every step
        that changes a row comes off the heap before that row's own step.
        A step is pushed twice only when its row lost its values and
        gained new ones; its copies come off the heap one after the
        other, and the second is passed over.
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

    def _back_substitute(
        self, starts: Sequence[tuple[int, int | Fraction]], scale: int
    ) -> dict[Hashable, int | Fraction]:
        """The nonzero solution values of one rhs, divided by its scale,
        in column order.

        A peeled pivot row meets no other column, so its value is final
        after the sweep.  A Markowitz pivot row p holds 1 in its own
        column and otherwise only columns of later pivots, so the value
        at pivot p depends only on values at pivots q > p.  The rhs
        starts from the Markowitz pivot rows it meets and pushes every
        nonzero value it finds into the rows of earlier pivots that meet
        its column; a heap hands out the reached pivots in decreasing
        order, so each is settled after everything it depends on.
        """
        col_users = self._col_users
        pivot_cols = self._pivot_cols
        solution: dict[int, int | Fraction] = {}
        residual: dict[int, int | Fraction] = {}
        for p, value in starts:
            if p < self._peeled:
                solution[pivot_cols[p]] = value
            else:
                residual[p] = value
        heap = [-p for p in residual]
        heapq.heapify(heap)
        while heap:
            p = -heapq.heappop(heap)
            total = residual[p]
            if not total:
                continue
            col = pivot_cols[p]
            solution[col] = total
            for q, coef in col_users.get(col, ()):
                if q in residual:
                    residual[q] -= coef * total
                else:
                    residual[q] = -coef * total
                    heapq.heappush(heap, -q)
        return {self.cols[c]: _divided(solution[c], scale) for c in sorted(solution)}


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


def solve_unique(system: SparseSystem) -> SolveResult:
    """Solve for the unique solution of the system, if there is one."""
    return solve_many(
        system.cols, system.rows, system.entries, [system.rhs]
    )[0]


def rank(system: SparseSystem) -> int:
    """Exact rank of the coefficient matrix (rhs ignored)."""
    return factorize(system.cols, system.rows, system.entries).rank
