"""
The rank-two affine Hecke algebra at parameter one, realized as the group
algebra of the extended affine Weyl group on two letters, together with
its embedding onto the corner of the Schur algebra cut out by the weight
(1, 1) idempotent, and the induced map onto the Laurent quotient ring.

Generator dictionary (n = 2, reference tuple (1, 2)):

    T1   <-> (swap, ( 0, 0))      reflection
    T2   <-> (swap, (-1, 1))      the other reflection
    Trho <-> (swap, ( 0, 1))      rotation, with Trho T1 Trho^-1 = T2

A group element w corresponds to the basis matrix of the tuple pair
((1, 2), (1, 2).w).  Under the right-action convention used by
:mod:`affschur.weyl`, those basis matrices multiply contravariantly in w,
so the group algebra here composes words in reverse; the embedding is
then a genuine algebra homomorphism, which the tests check against the
orbit-counting product.

The quotient map compresses an element into the corner by keeping its
terms of row and column weight (1, 1), with no product.
"""

from __future__ import annotations

from .core import (
    AlgebraElement,
    Composition,
    LinearCombination,
    Scalar,
    format_fraction,
    parse_fraction,
)
from .laurent import LaurentPoly1
from .weyl import WeylElement, act, matrix_to_pair, pair_to_matrix, transporter

__all__ = [
    "HeckeElement",
    "hecke_multiply",
    "hecke_embed",
    "hecke_preimage",
    "quotient_image",
    "laurent_lift",
    "T1",
    "T2",
    "TRHO",
    "TRHO_INV",
    "REFERENCE_TUPLE",
]

N = 2
R = 2

REFERENCE_TUPLE = (1, 2)

T1 = WeylElement((2, 1), (0, 0))
T2 = WeylElement((2, 1), (-1, 1))
TRHO = WeylElement((2, 1), (0, 1))
TRHO_INV = TRHO.inverse()

# the weight of the corner idempotent, the unity of the quotient
WEIGHT_11 = Composition(2, (1, 1))


class HeckeElement(LinearCombination):
    """Rational linear combination of group elements of rank two."""

    __slots__ = ()

    @staticmethod
    def _checked_key(w: WeylElement) -> WeylElement:
        if w.r != R:
            raise ValueError("group elements must have rank two")
        return w

    @classmethod
    def zero(cls) -> "HeckeElement":
        return cls()

    @classmethod
    def one(cls) -> "HeckeElement":
        return cls({WeylElement.identity(R): 1})

    @classmethod
    def group(cls, w: WeylElement, coeff: Scalar = 1) -> "HeckeElement":
        return cls({w: coeff})

    @staticmethod
    def _key_product(wa: WeylElement, wb: WeylElement) -> WeylElement:
        # words compose in reverse; see hecke_multiply
        return wb * wa

    def sorted_terms(self) -> list[tuple[WeylElement, Scalar]]:
        return sorted(
            self.terms.items(), key=lambda kv: (kv[0].sigma, kv[0].eps)
        )

    def to_json(self) -> list:
        return [
            {
                "coeff": format_fraction(coeff),
                "sigma": list(w.sigma),
                "eps": list(w.eps),
            }
            for w, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: list) -> "HeckeElement":
        if not isinstance(data, list):
            raise ValueError("Hecke element JSON must be a list")
        acc: dict[WeylElement, Scalar] = {}
        for item in data:
            if not isinstance(item, dict):
                raise ValueError("each Hecke term must be an object")
            w = WeylElement.from_json(item)
            coeff = parse_fraction(item.get("coeff", ""))
            acc[w] = acc.get(w, 0) + coeff
        return cls(acc)

    def __repr__(self) -> str:
        if not self.terms:
            return "0<H>"
        return " + ".join(
            f"{c}*T{w.sigma}{w.eps}" for w, c in self.sorted_terms()
        )


def hecke_multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Convolution product of the group algebra, ``a * b``.

    Basis words compose in reverse of the Weyl composition so that the
    embedding into the Schur algebra is multiplicative.
    """
    return a * b


def _group_to_matrix(w: WeylElement):
    return pair_to_matrix(REFERENCE_TUPLE, act(REFERENCE_TUPLE, w, N), N)


def hecke_embed(h: HeckeElement) -> AlgebraElement:
    """Algebra embedding onto the corner cut out by the (1,1) idempotent."""
    acc = {}
    for w, coeff in h.terms.items():
        matrix = _group_to_matrix(w)
        acc[matrix] = acc.get(matrix, 0) + coeff
    return AlgebraElement(N, R, acc)


def hecke_preimage(x: AlgebraElement) -> HeckeElement:
    """Inverse of the embedding on elements of the corner.

    Each corner basis matrix is the orbit of ((1,2), (1,2).w) for a
    unique group element w, because (1, 2) has trivial stabilizer.
    """
    if x.n != N or x.r != R:
        raise ValueError("corner elements live at n = r = 2")
    acc: dict[WeylElement, Scalar] = {}
    for matrix, coeff in x.terms.items():
        i, j = matrix_to_pair(matrix)
        if i != REFERENCE_TUPLE:
            raise ValueError("element does not lie in the corner algebra")
        bridges = transporter(REFERENCE_TUPLE, j, N)
        if not bridges:
            raise ValueError("element does not lie in the corner algebra")
        acc[bridges[0]] = acc.get(bridges[0], 0) + coeff
    return HeckeElement(acc)


def _monomial_image(w: WeylElement) -> tuple[int, int]:
    """Exponent and sign of the quotient image of a group element.

    Rotation powers map to powers of x; both reflections map to -1.  The
    sign works out to sign(sigma) * (-1)^(total shift).
    """
    a = w.shift_total()
    sign = w.sign() * (-1) ** (a % 2)
    return a, sign


def quotient_image(x: AlgebraElement) -> LaurentPoly1:
    """Image of an element in the Laurent quotient ring.

    The quotient has the corner idempotent e_nu, nu = (1, 1), as its
    unity, so an arbitrary element x is first compressed into the corner,
    e_nu x e_nu, then each group word is sent to a signed power of x.

    The compression is a filter on the terms, with no product.  The
    diagonal idempotents e_lam are orthogonal, and for a basis matrix M
    the product e_lam M is M when lam = ro(M) and 0 otherwise; likewise
    M e_mu is M when mu = co(M) and 0 otherwise.  So e_nu M e_nu is M
    when ro(M) = co(M) = nu and 0 otherwise, and e_nu x e_nu keeps the
    terms of x of row and column weight nu.  The products are defined
    only for x in S(2, 2), where e_nu lies, so the filter refuses any
    other element as they did.
    """
    if x.n != N or x.r != R:
        raise ValueError("elements live in different algebras")
    h = hecke_preimage(
        x._like(
            {
                matrix: coeff
                for matrix, coeff in x.terms.items()
                if matrix.row_vector() == WEIGHT_11 == matrix.col_vector()
            }
        )
    )
    acc: dict[int, Scalar] = {}
    for w, coeff in h.terms.items():
        a, sign = _monomial_image(w)
        acc[a] = acc.get(a, 0) + sign * coeff
    return LaurentPoly1(acc)


def laurent_lift(p: LaurentPoly1) -> AlgebraElement:
    """Section of the quotient map sending x^a to the a-th rotation power."""
    acc: dict = {}
    for a, coeff in p.terms.items():
        power = WeylElement.identity(R)
        step = TRHO if a >= 0 else TRHO_INV
        for _ in range(abs(a)):
            power = power * step
        matrix = _group_to_matrix(power)
        acc[matrix] = acc.get(matrix, 0) + coeff
    return AlgebraElement(N, R, acc)
