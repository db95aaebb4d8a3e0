"""
Exact sparse rational linear algebra.

Systems are kept sparse as dict-of-dict rows over arbitrary hashable row
and column labels.  A :class:`Factorization` eliminates one coefficient
matrix once and is then asked about any number of right-hand sides, in
any number of batches; ``solve_many``, ``solve_unique`` and ``rank`` are
thin calls to it.

Values are exact scalars: an ``int`` when integral, else a ``Fraction``.
Elimination is division-free: rows are combined by integer
cross-multiplication (after clearing denominators).  Each cleared row is
updated in place, touching only the pivot row's columns, so a step costs
its arithmetic; a row is scaled only by a pivot value other than 1, and
only a scaled row has its content divided out again.  Pivots are chosen
by a Markowitz-style sparsity count, and each pivot row is kept as a
compact copy.  The right-hand sides stay out of the elimination: every
row operation is logged and replayed on a batch of right-hand sides when
it is solved.  Back-substitution is sparse, in the style of a
Gilbert–Peierls triangular solve: each right-hand side visits only the
pivots its nonzero entries reach, in decreasing pivot order, so a
division is made only for a nonzero solution value; an exact quotient
stays an ``int``.  Everything is exact; verdicts distinguish a unique
solution from inconsistent and underdetermined systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
import heapq
from math import gcd
from typing import Hashable, Sequence

__all__ = [
    "SparseSystem",
    "SolveResult",
    "Factorization",
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


def _lcm_denominator(values) -> int:
    denom = 1
    for value in values:
        denom = denom * value.denominator // gcd(denom, value.denominator)
    return denom


def _reduce_content(row: dict[int, int]) -> int:
    """Divide out the gcd of the row's values; returns that gcd (1 if
    nothing was divided)."""
    content = 0
    for value in row.values():
        content = gcd(content, value)
        if content == 1:
            return 1
    if content > 1:
        for key in row:
            row[key] //= content
        return content
    return 1


def _divided(value: int | Fraction, divisor: int) -> int | Fraction:
    """value / divisor, an ``int`` when the quotient is integral, else a
    ``Fraction``."""
    if type(value) is int:
        return Fraction(value, divisor) if value % divisor else value // divisor
    quotient = value / divisor
    return quotient.numerator if quotient.denominator == 1 else quotient


# one elimination step: the pivot row, its pivot value and the rows it
# cleared, each with its own factor and the content divided out after
# (1 for a row the step did not scale)
_Step = tuple[int, int, list[tuple[int, int, int]]]


def _eliminate(
    int_rows: list[dict[int, int]],
) -> tuple[list[tuple[int, int, dict[int, int]]], list[_Step]]:
    """Forward elimination of the integer rows (the input is consumed).

    Returns the (row, pivot column, pivot row) triples in pivot order
    and the log of every row operation.  Pivots take the sparsest
    available row (lazy heap, stale entries skipped) and its smallest
    coefficient; a column index limits each step to the rows actually
    meeting the pivot column.  Rows that end up zero take no part any
    more.

    A cleared row is updated in place, at the cost of its arithmetic:
    only the pivot row's columns are touched, and the row is scaled by
    the pivot value only when that is not 1.  Only a scaled row has its
    content divided out (an unscaled one logs content 1: there is no
    growth to undo), so a row differs from its fully reduced form by a
    nonzero factor at most, which changes no row length, pivot choice
    or solution.  The pivot column leaves the column index in one step,
    only fill entries are added to it, and each pivot row is kept as a
    compact copy.
    """
    rows: dict[int, dict[int, int]] = {}
    colmap: dict[int, set[int]] = {}
    heap: list[tuple[int, int]] = []
    for rid, row in enumerate(int_rows):
        if row:
            rows[rid] = row
            for c in row:
                colmap.setdefault(c, set()).add(rid)
            heap.append((len(row), rid))
    heapq.heapify(heap)
    pivots: list[tuple[int, int, dict[int, int]]] = []
    steps: list[_Step] = []
    while heap:
        count, rid = heapq.heappop(heap)
        if len(rows.get(rid, ())) != count:
            continue
        pivot_row = rows.pop(rid)
        col = min(pivot_row, key=lambda c: (abs(pivot_row[c]), c))
        pivot_val = pivot_row[col]
        pivots.append((rid, col, dict(pivot_row)))
        rest = [(c, v) for c, v in pivot_row.items() if c != col]
        for c, _ in rest:
            colmap[c].discard(rid)
        targets = colmap.pop(col)
        targets.discard(rid)
        cleared: list[tuple[int, int, int]] = []
        for other in targets:
            row = rows[other]
            factor = row.pop(col)
            if pivot_val != 1:
                for c in row:
                    row[c] *= pivot_val
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
            cleared.append(
                (other, factor, 1 if pivot_val == 1 else _reduce_content(row))
            )
            if row:
                heapq.heappush(heap, (len(row), other))
            else:
                del rows[other]
        steps.append((rid, pivot_val, cleared))
    return pivots, steps


class Factorization:
    """The elimination of one coefficient matrix, solvable many times.

    Entries and right-hand side values are ``int``s or ``Fraction``s.
    ``rank`` is the pivot count.  :meth:`solve` takes a batch of
    right-hand sides ({row label: value}), replays the logged row
    operations on them and back-substitutes each one; a rhs entry on a
    row not in ``rows`` is an equation 0 = value of its own.
    """

    def __init__(
        self,
        cols: Sequence[Hashable],
        rows: Sequence[Hashable],
        entries: dict[tuple[Hashable, Hashable], int | Fraction],
    ) -> None:
        self.cols = list(cols)
        self._row_index = {label: rid for rid, label in enumerate(rows)}
        col_index = {label: idx for idx, label in enumerate(self.cols)}
        sparse: list[dict[int, int | Fraction]] = [{} for _ in rows]
        for (row_label, col_label), value in entries.items():
            if value:
                sparse[self._row_index[row_label]][col_index[col_label]] = value
        # clearing a row's denominators scales its rhs entries alike
        self._row_scales: list[int] = []
        int_rows: list[dict[int, int]] = []
        for raw in sparse:
            denom = _lcm_denominator(raw.values())
            self._row_scales.append(denom)
            int_rows.append(
                {c: v.numerator * (denom // v.denominator) for c, v in raw.items()}
            )
        self._pivots, self._steps = _eliminate(int_rows)
        self.rank = len(self._pivots)
        self._pivot_of = {rid: p for p, (rid, _, _) in enumerate(self._pivots)}

    def solve(
        self, rhs_list: Sequence[dict[Hashable, int | Fraction]]
    ) -> list[SolveResult]:
        """One verdict per right-hand side.  A unique solution lists only
        its nonzero values, in column order."""
        scales = [_lcm_denominator(rhs.values()) for rhs in rhs_list]
        inconsistent: set[int] = set()
        # row -> {rhs: value}: each rhs cleared of its denominators, then
        # scaled like the row it sits on
        values: dict[int, dict[int, int | Fraction]] = {}
        for k, (rhs, scale) in enumerate(zip(rhs_list, scales)):
            for row_label, value in rhs.items():
                if not value:
                    continue
                rid = self._row_index.get(row_label)
                if rid is None:
                    inconsistent.add(k)
                else:
                    values.setdefault(rid, {})[k] = (
                        value.numerator
                        * (scale // value.denominator)
                        * self._row_scales[rid]
                    )
        self._replay(values)
        # a value left on a row that is not a pivot row is a failed equation
        starts: dict[int, list[tuple[int, int | Fraction]]] = {}
        for rid, row_values in values.items():
            p = self._pivot_of.get(rid)
            for k, value in row_values.items():
                if p is None:
                    inconsistent.add(k)
                else:
                    starts.setdefault(k, []).append((p, value))
        if self.rank < len(self.cols):
            return [
                SolveResult(
                    SolveResult.INCONSISTENT
                    if k in inconsistent
                    else SolveResult.UNDERDETERMINED
                )
                for k in range(len(rhs_list))
            ]
        return [
            SolveResult(SolveResult.INCONSISTENT)
            if k in inconsistent
            else SolveResult(
                SolveResult.UNIQUE,
                self._back_substitute(starts.get(k, ()), scale),
            )
            for k, scale in enumerate(scales)
        ]

    def _replay(self, values: dict[int, dict[int, int | Fraction]]) -> None:
        """Apply the logged row operations to the rhs values in place.

        A step whose pivot row holds no rhs value and whose pivot value
        is 1 changes nothing: it scaled no row, so every content it
        logged is 1 and each target keeps its values.  Such a step is
        skipped whole, so a solve pays only for the steps its values
        reach or that scaled rows.
        """
        empty: dict[int, int | Fraction] = {}
        for pid, pivot_val, cleared in self._steps:
            source = values.get(pid)
            if source is None:
                if pivot_val == 1:
                    continue
                source = empty
            for other, factor, content in cleared:
                target = values.get(other, empty)
                if not source and not target:
                    continue
                merged = {}
                for k in target.keys() | source.keys():
                    value = pivot_val * target.get(k, 0) - factor * source.get(k, 0)
                    if value:
                        merged[k] = (
                            value if content == 1 else _divided(value, content)
                        )
                if merged:
                    values[other] = merged
                else:
                    values.pop(other, None)

    @cached_property
    def _col_users(self) -> dict[int, list[tuple[int, int]]]:
        """Column -> [(pivot, coefficient)] over the pivot rows meeting it
        off their own pivot column."""
        users: dict[int, list[tuple[int, int]]] = {}
        for p, (_, col, row) in enumerate(self._pivots):
            for c, value in row.items():
                if c != col:
                    users.setdefault(c, []).append((p, value))
        return users

    def _back_substitute(
        self, starts: Sequence[tuple[int, int | Fraction]], scale: int
    ) -> dict[Hashable, int | Fraction]:
        """The nonzero solution values of one rhs, divided by its scale,
        in column order.

        Pivot row p holds its own column and otherwise only columns of
        later pivots, so the value at pivot p depends only on values at
        pivots q > p.  The rhs starts from the pivot rows it meets and
        pushes every nonzero value it finds into the rows of earlier
        pivots that meet its column; a heap hands out the reached pivots
        in decreasing order, so each is settled after everything it
        depends on.
        """
        col_users = self._col_users
        residual: dict[int, int | Fraction] = dict(starts)
        heap = [-p for p in residual]
        heapq.heapify(heap)
        solution: dict[int, int | Fraction] = {}
        while heap:
            p = -heapq.heappop(heap)
            total = residual[p]
            if not total:
                continue
            _, col, row = self._pivots[p]
            value = _divided(total, row[col])
            solution[col] = value
            for q, coef in col_users.get(col, ()):
                if q in residual:
                    residual[q] -= coef * value
                else:
                    residual[q] = -coef * value
                    heapq.heappush(heap, -q)
        return {self.cols[c]: _divided(solution[c], scale) for c in sorted(solution)}


def solve_many(
    cols: Sequence[Hashable],
    rows: Sequence[Hashable],
    entries: dict[tuple[Hashable, Hashable], int | Fraction],
    rhs_list: Sequence[dict[Hashable, int | Fraction]],
) -> list[SolveResult]:
    """Solve one coefficient matrix against many right-hand sides.

    One factorization serves every rhs, and each gets its own verdict.  A
    unique solution lists every column, zeros included.
    """
    results = Factorization(cols, rows, entries).solve(rhs_list)
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
    return Factorization(system.cols, system.rows, system.entries).rank
