"""
Exact-rational Laurent polynomial rings.

``LaurentPoly1`` is the one-variable ring Q[x, x^-1] used for the
quotient algebra; ``LaurentPoly2`` is Q[x1, x2, x2^-1] (the first
exponent nonnegative, the second any integer) used for the corner
algebra.  Both are :class:`~affschur.core.LinearCombination`s keyed by
exponents (an int, resp. a pair of ints), so they share its arithmetic
and add only their key check, the exponent product, JSON and repr.
Exponents must be ``int``s (a float or ``bool`` is refused, not
truncated), and a JSON key must be spelled exactly as ``to_json``
writes it.
"""

from __future__ import annotations

from .core import LinearCombination, Scalar, format_fraction, parse_fraction

__all__ = ["LaurentPoly1", "LaurentPoly2"]


def _exponent(value: object) -> int:
    """An exponent, which must be an ``int`` (not a ``bool``)."""
    if type(value) is not int:
        raise ValueError(f"exponent must be an integer, not {value!r}")
    return value


def _exponent_from_json(text: object) -> int:
    """The exponent a JSON key spells exactly as ``to_json`` writes it."""
    if isinstance(text, str):
        try:
            value = int(text)
        except ValueError:
            pass
        else:
            if str(value) == text:
                return value
    raise ValueError(f"bad exponent key {text!r}")


class LaurentPoly1(LinearCombination):
    """A finitely supported map Z -> Q, written sum c_a x^a."""

    __slots__ = ()
    _checked_key = staticmethod(_exponent)

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
            {
                _exponent_from_json(e): parse_fraction(c)
                for e, c in data["poly"].items()
            }
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
        if _exponent(a) < 0:
            raise ValueError("x1-exponent must be nonnegative")
        return (a, _exponent(b))

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
            if not isinstance(key, str):
                raise ValueError(f"bad exponent key {key!r}")
            a_str, _, b_str = key.partition(",")
            key = (_exponent_from_json(a_str), _exponent_from_json(b_str))
            terms[key] = parse_fraction(coeff)
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*x1^{a}*x2^{b}" for (a, b), c in sorted(self.terms.items())
        )
