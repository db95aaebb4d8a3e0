"""
The extended affine Weyl group S_r x Z^r and its right action on integer
r-tuples.

An element is a pair w = (sigma, eps) of a permutation of {1..r} and an
integer shift vector.  The action on a tuple i depends on the period n:

    (i . w)_t = i_{sigma(t)} + n * eps_t

with composition law (sigma, eps)(sigma', eps') =
(sigma o sigma', eps o sigma' + eps'), which makes the action a right
action: i . (w w') = (i . w) . w'.

Stabilizers and transporters are finite (the permutation determines the
shift vector), so they are enumerated exhaustively over S_r; this is
exact and fast for the small ranks used here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import PeriodicMatrix, canonical_entries

__all__ = [
    "WeylElement",
    "act",
    "stabilizer",
    "transporter",
    "pair_to_matrix",
    "matrix_to_pair",
    "pair_orbit_equal",
]

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class WeylElement:
    """A permutation-with-shifts pair; sigma[t-1] is the image of t."""

    sigma: tuple[int, ...]
    eps: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.sigma)
        if len(self.eps) != r:
            raise ValueError("permutation and shift lengths differ")
        if sorted(self.sigma) != list(range(1, r + 1)):
            raise ValueError("sigma is not a permutation of 1..r")

    @property
    def r(self) -> int:
        return len(self.sigma)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition w * w' with act(i, w * w') = act(act(i, w), w')."""
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.r != other.r:
            raise ValueError("rank mismatch")
        sigma = tuple(self.sigma[s - 1] for s in other.sigma)
        eps = tuple(
            self.eps[other.sigma[t] - 1] + other.eps[t]
            for t in range(self.r)
        )
        return WeylElement(sigma, eps)

    def inverse(self) -> "WeylElement":
        inv = [0] * self.r
        for t, s in enumerate(self.sigma, start=1):
            inv[s - 1] = t
        eps = tuple(-self.eps[inv[t] - 1] for t in range(self.r))
        return WeylElement(tuple(inv), eps)

    def sign(self) -> int:
        """Sign of the permutation part."""
        seen = [False] * self.r
        sign = 1
        for start in range(self.r):
            if seen[start]:
                continue
            length = 0
            t = start
            while not seen[t]:
                seen[t] = True
                t = self.sigma[t] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def shift_total(self) -> int:
        return sum(self.eps)

    def to_json(self) -> dict:
        return {"sigma": list(self.sigma), "eps": list(self.eps)}

    @classmethod
    def from_json(cls, data: dict) -> "WeylElement":
        if not isinstance(data, dict):
            raise ValueError("Weyl element JSON must be an object")
        sigma = data.get("sigma")
        eps = data.get("eps")
        if not isinstance(sigma, list) or not isinstance(eps, list):
            raise ValueError("Weyl element needs sigma and eps arrays")
        if not all(type(v) is int for v in sigma + eps):
            raise ValueError("sigma and eps must be integer arrays")
        return cls(tuple(sigma), tuple(eps))


def act(values: Sequence[int], w: WeylElement, n: int) -> IndexTuple:
    """Right action of w on an index tuple, relative to period n."""
    if len(values) != w.r:
        raise ValueError("tuple length does not match group rank")
    return tuple(
        values[w.sigma[t] - 1] + n * w.eps[t] for t in range(w.r)
    )


def _solved_shift(
    source: Sequence[int], target: Sequence[int], sigma: tuple[int, ...], n: int
) -> tuple[int, ...] | None:
    """Shift vector with act(source, (sigma, eps)) == target, if integral."""
    eps = []
    for t in range(len(sigma)):
        diff = target[t] - source[sigma[t] - 1]
        if diff % n != 0:
            return None
        eps.append(diff // n)
    return tuple(eps)


def stabilizer(values: Sequence[int], n: int) -> list[WeylElement]:
    """All group elements fixing the tuple; at most r! of them."""
    return transporter(values, values, n)


def transporter(
    source: Sequence[int], target: Sequence[int], n: int
) -> list[WeylElement]:
    """All w with act(source, w) == target; empty iff different orbits."""
    if len(source) != len(target):
        raise ValueError("tuple lengths differ")
    out = []
    r = len(source)
    for sigma in itertools.permutations(range(1, r + 1)):
        eps = _solved_shift(source, target, sigma, n)
        if eps is not None:
            out.append(WeylElement(sigma, eps))
    return out


def pair_to_matrix(
    i: Sequence[int], j: Sequence[int], n: int
) -> PeriodicMatrix:
    """The entry-counting matrix of a tuple pair; constant on orbits.

    The pair is first shifted diagonally so every first-tuple value lands
    in 1..n, then position s contributes 1 to entry (i_s, j_s).

    >>> pair_to_matrix((1, 2), (2, 1), 2)
    Mat(n=2;(1,2):1,(2,1):1)
    >>> pair_to_matrix((1, 1), (3, 3), 2)
    Mat(n=2;(1,3):2)
    """
    return PeriodicMatrix.from_entries(n, _pair_triples(i, j))


def _pair_triples(
    i: Sequence[int], j: Sequence[int]
) -> list[tuple[int, int, int]]:
    """(i_s, j_s, 1) per position s; ``canonical_entries`` shifts the rows."""
    if len(i) != len(j):
        raise ValueError("tuple lengths differ")
    return [(a, b, 1) for a, b in zip(i, j)]


def matrix_to_pair(
    matrix: PeriodicMatrix,
) -> tuple[IndexTuple, IndexTuple]:
    """Canonical tuple pair of a matrix: rows listed weakly increasing."""
    i: list[int] = []
    j: list[int] = []
    for row, col, mult in matrix.entries:
        i.extend([row] * mult)
        j.extend([col] * mult)
    return tuple(i), tuple(j)


def pair_orbit_equal(
    pair1: tuple[Sequence[int], Sequence[int]],
    pair2: tuple[Sequence[int], Sequence[int]],
    n: int,
) -> bool:
    """Whether two tuple pairs lie in the same diagonal orbit, that is,
    have the same matrix (compared by entries, building none)."""
    return canonical_entries(n, _pair_triples(*pair1)) == canonical_entries(
        n, _pair_triples(*pair2)
    )
