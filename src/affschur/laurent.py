"""
Exact-rational Laurent polynomial rings.

``LaurentPoly1`` is the one-variable ring Q[x, x^-1] used for the
quotient algebra; ``LaurentPoly2`` is Q[x1, x2, x2^-1] (the first
exponent nonnegative, the second any integer) used for the corner
algebra.  Both are :class:`~affschur.core.LinearCombination`s keyed by
exponents (an int, resp. a pair of ints), so they share its arithmetic
and add only their key check, the exponent product, JSON and repr.
"""

from __future__ import annotations

from .core import LinearCombination, Scalar, format_fraction, parse_fraction

__all__ = ["LaurentPoly1", "LaurentPoly2"]


class LaurentPoly1(LinearCombination):
    """A finitely supported map Z -> Q, written sum c_a x^a."""

    __slots__ = ()
    _checked_key = staticmethod(int)

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return cls({0: 1})

    @classmethod
    def x(cls, power: int = 1, coeff: Scalar = 1) -> "LaurentPoly1":
        return cls({power: coeff})

    @staticmethod
    def _key_product(e1: int, e2: int) -> int:
        return e1 + e2

    def invert_variable(self) -> "LaurentPoly1":
        """The substitution x -> x^-1."""
        return self._like({-e: c for e, c in self.terms.items()})

    def to_json(self) -> dict:
        return {
            "poly": {
                str(e): format_fraction(c)
                for e, c in sorted(self.terms.items())
            }
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly1":
        if not isinstance(data, dict) or not isinstance(data.get("poly"), dict):
            raise ValueError("Laurent polynomial JSON must hold a 'poly' map")
        return cls(
            {int(e): parse_fraction(c) for e, c in data["poly"].items()}
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*x^{e}" for e, c in sorted(self.terms.items())
        )


class LaurentPoly2(LinearCombination):
    """The ring Q[x1, x2, x2^-1]; keys are (x1-exponent, x2-exponent)."""

    __slots__ = ()

    @staticmethod
    def _checked_key(key: tuple[int, int]) -> tuple[int, int]:
        a, b = key
        if a < 0:
            raise ValueError("x1-exponent must be nonnegative")
        return (int(a), int(b))

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Scalar = 1) -> "LaurentPoly2":
        return cls({(a, b): coeff})

    @classmethod
    def x1(cls) -> "LaurentPoly2":
        return cls.monomial(1, 0)

    @classmethod
    def x2(cls, power: int = 1) -> "LaurentPoly2":
        return cls.monomial(0, power)

    @staticmethod
    def _key_product(
        k1: tuple[int, int], k2: tuple[int, int]
    ) -> tuple[int, int]:
        return (k1[0] + k2[0], k1[1] + k2[1])

    def to_json(self) -> dict:
        return {
            "poly": {
                f"{a},{b}": format_fraction(c)
                for (a, b), c in sorted(self.terms.items())
            }
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly2":
        if not isinstance(data, dict) or not isinstance(data.get("poly"), dict):
            raise ValueError("Laurent polynomial JSON must hold a 'poly' map")
        terms = {}
        for key, coeff in data["poly"].items():
            a_str, _, b_str = key.partition(",")
            terms[(int(a_str), int(b_str))] = parse_fraction(coeff)
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*x1^{a}*x2^{b}" for (a, b), c in sorted(self.terms.items())
        )
