"""
Exact sparse rational linear algebra.

Systems are kept sparse as dict-of-dict rows over arbitrary hashable row
and column labels.  Elimination is division-free: rows are combined by
integer cross-multiplication (after clearing denominators) and kept small
by dividing out the row content.  Pivots are chosen by a Markowitz-style
sparsity count.  Back-substitution is sparse, in the style of a
Gilbert–Peierls triangular solve: one pass over the factorization serves
every right-hand side, each of which visits only the pivots its nonzero
entries reach, in decreasing pivot order, so a rational number is made
only for a nonzero solution value.  Everything is exact; verdicts
distinguish a unique solution from inconsistent and underdetermined
systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import heapq
from math import gcd
from typing import Hashable, Sequence

__all__ = ["SparseSystem", "SolveResult", "solve_unique", "solve_many", "rank"]


@dataclass
class SparseSystem:
    """A labelled exact linear system  M x = rhs."""

    cols: list[Hashable]
    rows: list[Hashable]
    entries: dict[tuple[Hashable, Hashable], Fraction]
    rhs: dict[Hashable, Fraction] = field(default_factory=dict)


@dataclass
class SolveResult:
    """Outcome of an exact solve: unique / inconsistent / underdetermined."""

    status: str
    solution: dict[Hashable, Fraction] | None = None

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"


def _lcm_denominator(values) -> int:
    denom = 1
    for value in values:
        denom = denom * value.denominator // gcd(denom, value.denominator)
    return denom


def _scaled_integer_rows(
    cols: Sequence[Hashable],
    rows: Sequence[Hashable],
    entries: dict[tuple[Hashable, Hashable], Fraction],
    rhs_list: Sequence[dict[Hashable, Fraction]],
) -> tuple[list[dict[int, int]], list[int]]:
    """Clear denominators row-wise; rhs columns get indices -1, -2, ...

    Returns the integer rows plus one overall scale per rhs column (the
    rhs columns are pre-multiplied by these, so solutions must be divided
    by them afterwards).  Denominators are cleared in integers.  An rhs
    entry on a row not in ``rows`` becomes an equation 0 = value of its
    own, placed after the listed rows so that their pivot order stays put.
    """
    col_index = {label: idx for idx, label in enumerate(cols)}
    # Common denominator per rhs column keeps the row scaling uniform.
    rhs_scales = [_lcm_denominator(rhs.values()) for rhs in rhs_list]
    sparse: dict[Hashable, dict[int, Fraction]] = {label: {} for label in rows}
    for (row_label, col_label), value in entries.items():
        if value:
            sparse[row_label][col_index[col_label]] = value
    row_order = list(rows)
    rhs_rows: dict[Hashable, list[tuple[int, int]]] = {}
    for k, (rhs, scale) in enumerate(zip(rhs_list, rhs_scales)):
        for row_label, value in rhs.items():
            if value:
                if row_label not in sparse:
                    sparse[row_label] = {}
                    row_order.append(row_label)
                rhs_rows.setdefault(row_label, []).append(
                    (-1 - k, value.numerator * (scale // value.denominator))
                )
    int_rows: list[dict[int, int]] = []
    for row_label in row_order:
        raw = sparse[row_label]
        denom = _lcm_denominator(raw.values())
        row = {
            c: v.numerator * (denom // v.denominator) for c, v in raw.items()
        }
        for key, value in rhs_rows.get(row_label, ()):
            row[key] = value * denom
        int_rows.append(row)
    return int_rows, rhs_scales


def _reduce_content(row: dict[int, int]) -> None:
    content = 0
    for value in row.values():
        content = gcd(content, value)
        if content == 1:
            return
    if content > 1:
        for key in row:
            row[key] //= content


def _coef_nnz(row: dict[int, int]) -> int:
    return sum(1 for c in row if c >= 0)


def _eliminate(
    int_rows: list[dict[int, int]],
) -> tuple[list[tuple[int, dict[int, int]]], list[dict[int, int]]]:
    """Forward elimination; returns (pivot column, pivot row) pairs and the
    leftover rows (whose coefficient parts are all zero).

    Pivots take the sparsest available row (lazy heap, stale entries
    skipped) and its smallest coefficient; a column index limits each
    step to the rows actually meeting the pivot column.
    """
    rows: dict[int, dict[int, int]] = {}
    colmap: dict[int, set[int]] = {}
    nnz_of: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for rid, row in enumerate(r for r in int_rows if r):
        row = dict(row)
        rows[rid] = row
        count = 0
        for c in row:
            if c >= 0:
                colmap.setdefault(c, set()).add(rid)
                count += 1
        nnz_of[rid] = count
        if count:
            heap.append((count, rid))
    heapq.heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap:
        count, rid = heapq.heappop(heap)
        if rid not in rows or nnz_of[rid] != count:
            continue
        pivot_row = rows.pop(rid)
        for c in pivot_row:
            if c >= 0:
                colmap[c].discard(rid)
        col = min(
            (c for c in pivot_row if c >= 0),
            key=lambda c: (abs(pivot_row[c]), c),
        )
        pivot_val = pivot_row[col]
        pivots.append((col, pivot_row))
        for other in list(colmap.get(col, ())):
            row = rows[other]
            factor = row[col]
            merged: dict[int, int] = {}
            for c in row.keys() | pivot_row.keys():
                value = pivot_val * row.get(c, 0) - factor * pivot_row.get(c, 0)
                if value:
                    merged[c] = value
            _reduce_content(merged)
            for c in row:
                if c >= 0:
                    colmap[c].discard(other)
            if merged:
                rows[other] = merged
                count = 0
                for c in merged:
                    if c >= 0:
                        colmap.setdefault(c, set()).add(other)
                        count += 1
                nnz_of[other] = count
                if count:
                    heapq.heappush(heap, (count, other))
            else:
                del rows[other]
                nnz_of[other] = 0
    return pivots, list(rows.values())


def _back_substitute(
    pivots: list[tuple[int, dict[int, int]]], rhs_keys: Sequence[int]
) -> list[dict[int, Fraction]]:
    """Sparse solutions {column index: nonzero value}, one per rhs column.

    Pivot row p holds its own column and otherwise only columns of later
    pivots, so the solution value at pivot p depends only on values at
    pivots q > p.  Each rhs starts from the pivots whose rows meet it and
    pushes every nonzero value it finds into the rows of earlier pivots
    that meet its column; a heap hands out the reached pivots in
    decreasing order, so each is settled after everything it depends on.
    """
    col_users: dict[int, list[tuple[int, int]]] = {}
    rhs_users: dict[int, list[tuple[int, int]]] = {}
    for p, (col, row) in enumerate(pivots):
        for c, value in row.items():
            if c < 0:
                rhs_users.setdefault(c, []).append((p, value))
            elif c != col:
                col_users.setdefault(c, []).append((p, value))
    solutions = []
    for rhs_key in rhs_keys:
        residual: dict[int, int | Fraction] = {}
        heap: list[int] = []
        for p, value in rhs_users.get(rhs_key, ()):
            residual[p] = value
            heap.append(-p)
        heapq.heapify(heap)
        solution: dict[int, Fraction] = {}
        while heap:
            p = -heapq.heappop(heap)
            total = residual[p]
            if not total:
                continue
            col, row = pivots[p]
            value = Fraction(total, row[col])
            solution[col] = value
            for q, coef in col_users.get(col, ()):
                if q in residual:
                    residual[q] -= coef * value
                else:
                    residual[q] = -coef * value
                    heapq.heappush(heap, -q)
        solutions.append(solution)
    return solutions


def solve_many(
    cols: Sequence[Hashable],
    rows: Sequence[Hashable],
    entries: dict[tuple[Hashable, Hashable], Fraction],
    rhs_list: Sequence[dict[Hashable, Fraction]],
) -> list[SolveResult]:
    """Solve one coefficient matrix against many right-hand sides.

    The elimination and the back-substitution pass are shared; each rhs
    gets its own verdict.  A unique solution lists every column, zeros
    included.
    """
    int_rows, rhs_scales = _scaled_integer_rows(cols, rows, entries, rhs_list)
    pivots, leftovers = _eliminate(int_rows)
    # leftover rows carry rhs entries only: each one is a failed equation
    inconsistent = {c for row in leftovers for c in row}
    if len(pivots) < len(cols):
        return [
            SolveResult(
                SolveResult.INCONSISTENT
                if -1 - k in inconsistent
                else SolveResult.UNDERDETERMINED
            )
            for k in range(len(rhs_list))
        ]
    consistent = [k for k in range(len(rhs_list)) if -1 - k not in inconsistent]
    indexed = _back_substitute(pivots, [-1 - k for k in consistent])
    results = [SolveResult(SolveResult.INCONSISTENT) for _ in rhs_list]
    for k, sparse in zip(consistent, indexed):
        solution = dict.fromkeys(cols, Fraction(0))
        for idx, value in sparse.items():
            solution[cols[idx]] = value / rhs_scales[k]
        results[k] = SolveResult(SolveResult.UNIQUE, solution)
    return results


def solve_unique(system: SparseSystem) -> SolveResult:
    """Solve for the unique solution of the system, if there is one."""
    return solve_many(
        system.cols, system.rows, system.entries, [system.rhs]
    )[0]


def rank(system: SparseSystem) -> int:
    """Exact rank of the coefficient matrix (rhs ignored)."""
    int_rows, _ = _scaled_integer_rows(
        system.cols, system.rows, system.entries, []
    )
    pivots, _ = _eliminate(int_rows)
    return len(pivots)
