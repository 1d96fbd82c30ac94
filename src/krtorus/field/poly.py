"""Exact multivariate polynomials over the root variables a1..an.

Terms are stored sparsely, as a dict from exponent tuple to nonzero
coefficient; exponents are non-negative ints and coefficients are exact
(int, promoted to Fraction only when needed).  The arithmetic core is
delegated to the ``kernel`` module.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvalidInputError
from . import kernel
from .kernel import integral_primitive

__all__ = [
    "MultiPoly",
    "canon_coeff",
    "check_exponents",
    "integral_primitive",
    "poly_str",
]


def canon_coeff(c):
    """Collapse Fractions with denominator 1 to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def check_exponents(terms, n):
    """Raise InvalidInputError unless every key is a tuple of n non-negative ints."""
    for e in terms:
        if not (
            isinstance(e, tuple)
            and len(e) == n
            and all(isinstance(d, int) and d >= 0 for d in e)
        ):
            raise InvalidInputError(f"exponent {e!r}: need {n} non-negative integers")


def _clean(terms):
    return {e: canon_coeff(c) for e, c in terms.items() if c}


class MultiPoly:
    """Polynomial in n variables with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        if terms:
            check_exponents(terms, n)
            self.terms = _clean(terms)
        else:
            self.terms = {}

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, c) -> "MultiPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultiPoly":
        """The variable a_i (1-based index)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        e = tuple(1 if k == i - 1 else 0 for k in range(n))
        return cls(n, {e: 1})

    @classmethod
    def linear_form(cls, coords) -> "MultiPoly":
        """The form c1*a1 + ... + cn*an for a coordinate vector."""
        n = len(coords)
        terms = {}
        for k, c in enumerate(coords):
            if c:
                e = tuple(1 if j == k else 0 for j in range(n))
                terms[e] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.n: 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.n, kernel.poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.n, kernel.poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not k:
            return MultiPoly.one(self.n)
        return MultiPoly(self.n, kernel.poly_pow(self.terms, k))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, point):
        """Exact evaluation at a point of rationals."""
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        return kernel.poly_eval(self.terms, point)

    def __repr__(self):
        return f"MultiPoly({poly_str(self.terms)})"

    def __str__(self):
        return poly_str(self.terms)


def _mono_str(e, coeff):
    parts = []
    for k, d in enumerate(e):
        if d == 1:
            parts.append(f"a{k + 1}")
        elif d:
            parts.append(f"a{k + 1}^{d}")
    body = "*".join(parts)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def poly_str(terms) -> str:
    if not terms:
        return "0"
    pieces = [_mono_str(e, terms[e]) for e in sorted(terms, reverse=True)]
    out = pieces[0]
    for p in pieces[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
