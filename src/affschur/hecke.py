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

The quotient map keeps the terms of row and column weight (1, 1), with
no product, and reads each kept matrix by exponent arithmetic.  Such a
matrix stores (1, j1, 1) and (2, j2, 1), j1 and j2 of opposite parity,
and is the orbit of ((1, 2), (1, 2).w) for the w = (sigma, eps) with
sigma(t) + 2 eps_t = j_t: sigma is the identity when j1 is odd and the
swap otherwise, and either way a = eps_1 + eps_2 = (j1 + j2 - 3)/2, so
w goes to sign(sigma) (-1)^a x^a with no group element built.  The
lift runs the arithmetic backwards: rho = Trho sends (i1, i2) to
(i2, i1 + 2), so (1, 2).rho^a = (1 + a, 2 + a) for every integer a
(rho^-1 sends (1 + a, 2 + a) to (a, 1 + a)), and x^a lifts to the
matrix storing (1, 1 + a, 1) and (2, 2 + a, 1).  The group route,
:func:`group_quotient_image` through :func:`hecke_preimage`, is the
reference the certification battery compares the arithmetic with.
"""

from __future__ import annotations

from .core import (
    AlgebraElement,
    Composition,
    LinearCombination,
    PeriodicMatrix,
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
    "group_quotient_image",
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


def hecke_embed(h: HeckeElement) -> AlgebraElement:
    """Algebra embedding onto the corner cut out by the (1,1) idempotent;
    distinct words give distinct matrices (see :func:`hecke_preimage`)."""
    return AlgebraElement(N, R, {
        pair_to_matrix(REFERENCE_TUPLE, act(REFERENCE_TUPLE, w, N), N): coeff
        for w, coeff in h.terms.items()
    })


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
        bridges = transporter(REFERENCE_TUPLE, j, N) if i == REFERENCE_TUPLE else []
        if not bridges:
            raise ValueError("element does not lie in the corner algebra")
        acc[bridges[0]] = coeff
    return HeckeElement(acc)


def group_quotient_image(x: AlgebraElement) -> LaurentPoly1:
    """The quotient image of a corner element by the group route, the
    reference for :func:`quotient_image`: each term's word w, found by
    :func:`hecke_preimage`, goes to sign(sigma) (-1)^a x^a with a its
    total shift, so rotation powers map to powers of x and both
    reflections to -1."""
    acc: dict[int, Scalar] = {}
    for w, coeff in hecke_preimage(x).terms.items():
        a = w.shift_total()
        acc[a] = acc.get(a, 0) + w.sign() * (-1) ** (a % 2) * coeff
    return LaurentPoly1(acc)


def _corner_monomial(j1: int, j2: int) -> tuple[int, int]:
    """Exponent a = (j1 + j2 - 3)/2 and sign sign(sigma) (-1)^a, sigma the
    swap iff j1 is even, of the corner matrix storing (1, j1, 1) and
    (2, j2, 1) (the module docstring has the argument)."""
    a = (j1 + j2 - 3) // 2
    return a, -1 if (j1 + 1 + a) % 2 else 1


def quotient_image(x: AlgebraElement) -> LaurentPoly1:
    """Image of an element in the Laurent quotient ring.

    The quotient has the corner idempotent e_nu, nu = (1, 1), as its
    unity, so x is first compressed into the corner, e_nu x e_nu, then
    each corner matrix goes to a signed power of x by
    :func:`_corner_monomial`, in O(1) per term.

    The compression is a filter on the terms, with no product: the
    diagonal idempotents are orthogonal, and for a basis matrix M the
    product e_lam M e_mu is M when lam = ro(M) and mu = co(M), else 0.
    So e_nu x e_nu keeps the terms of x of row and column weight nu.  The
    products are defined only for x in S(2, 2), where e_nu lies, so the
    filter refuses any other element as they did.
    """
    if x.n != N or x.r != R:
        raise ValueError("elements live in different algebras")
    acc: dict[int, Scalar] = {}
    for matrix, coeff in x.terms.items():
        if matrix.row_vector() == WEIGHT_11 == matrix.col_vector():
            (_, j1, _), (_, j2, _) = matrix.entries
            a, sign = _corner_monomial(j1, j2)
            acc[a] = acc.get(a, 0) + sign * coeff
    return LaurentPoly1(acc)


def laurent_lift(p: LaurentPoly1) -> AlgebraElement:
    """Section of the quotient map sending x^a to the a-th rotation power,
    the matrix storing (1, 1 + a, 1) and (2, 2 + a, 1), in O(1) per term
    (the module docstring has the argument)."""
    return AlgebraElement(N, R, {
        PeriodicMatrix.from_entries(N, ((1, 1 + a, 1), (2, 2 + a, 1))): coeff
        for a, coeff in p.terms.items()
    })
