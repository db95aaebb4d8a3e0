"""Closed-form products by generators, which acceptance criterion 2 checks
the orbit-counting product against: Du and Fu's formulas at q = 1 ("A
modified BLM approach to quantum affine gl_n", Math. Z. 2010), with the
periodic reads they need, the generators and the unit of S(n, r)."""

import itertools
import math

from affschur import AlgebraElement, Composition, PeriodicMatrix, diag_matrix
from affschur.core import _normalize_row


def part(comp, i):
    """The i-th part of a composition, for any integer i."""
    return comp.parts[(i - 1) % comp.n]


def entry(a, i, j):
    """The entry a_{i,j} of a periodic matrix, for any integers i, j."""
    return {(k, l): v for k, l, v in a.entries}.get(_normalize_row(a.n, i, j), 0)


def row(a, i):
    """The nonzero entries {j: a_{i,j}} of row i, for any integer i."""
    s = (i - 1) // a.n
    return {j + s * a.n: v for k, j, v in a.entries if k == i - s * a.n}


def shifted(a, deltas):
    """A plus d * E_{i,j} for each (i, j, d) of the deltas."""
    acc = {}
    for i, j, d in (*a.entries, *deltas):
        key = _normalize_row(a.n, i, j)
        acc[key] = acc.get(key, 0) + d
    if min(acc.values(), default=0) < 0:
        raise ValueError("matrix entry driven negative")
    return PeriodicMatrix.from_entries(a.n, ((i, j, v) for (i, j), v in acc.items()))


def generator(side, sign, comp, h, m):
    """The m-fold row-shift (side "left") or column-shift (side "right")
    generator at slot h with diagonal weight comp."""
    up = sign == "up"
    d = h + 1 if (side == "left") == up else h
    return shifted(diag_matrix(comp), [(h, h + 1, m) if up else (h + 1, h, m), (d, d, -m)])


def compositions(n, r):
    """All compositions of r into n parts."""
    for cuts in itertools.combinations_with_replacement(range(r + 1), n - 1):
        bounds = (0, *cuts, r)
        yield Composition(n, tuple(b - a for a, b in zip(bounds, bounds[1:])))


def unit(n, r):
    """The unit of S(n, r): the sum of its diagonal idempotents."""
    return AlgebraElement(n, r, {diag_matrix(comp): 1 for comp in compositions(n, r)})


def bounded(caps, total):
    """Every ((u, t_u), ...), u increasing, 0 < t_u <= caps[u], sum total."""
    us = sorted(caps)
    for ts in itertools.product(*(range(caps[u] + 1) for u in us)):
        if sum(ts) == total:
            yield tuple((u, t) for u, t in zip(us, ts) if t)


def chevalley_left(h, m, sign, a):
    """Left multiplication by the m-fold row-shift generator at slot h:
    "up" moves m units from row h+1 to row h, "down" from row h to h+1."""
    source, dest = (h + 1, h) if sign == "up" else (h, h + 1)
    terms = {}
    for t in bounded(row(a, source), m):
        coeff = math.prod(math.comb(entry(a, dest, u) + tu, tu) for u, tu in t)
        matrix = shifted(a, [d for u, tu in t for d in ((dest, u, tu), (source, u, -tu))])
        terms[matrix] = terms.get(matrix, 0) + coeff
    return AlgebraElement(a.n, a.r, terms)


def chevalley_right(h, m, sign, a):
    """Right multiplication by the m-fold column-shift generator at slot h:
    the transpose of :func:`chevalley_left` with the sign flipped."""
    flipped = {"up": "down", "down": "up"}[sign]
    return chevalley_left(h, m, flipped, a.transpose()).transpose()


def loop_left(h, m, a):
    """Left multiplication by the loop generator moving row-h mass by m*n,
    m nonzero: a unit at (h, u) moves to u + m*n, times a_{h,u+m*n} + 1."""
    if m == 0:
        raise ValueError("loop amount must be nonzero")
    terms = {}
    for u in row(a, h):
        matrix = shifted(a, [(h, u + m * a.n, 1), (h, u, -1)])
        terms[matrix] = terms.get(matrix, 0) + entry(a, h, u + m * a.n) + 1
    return AlgebraElement(a.n, a.r, terms)
