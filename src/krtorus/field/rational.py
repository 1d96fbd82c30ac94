"""Exact rational functions in the root variables, kept in factored form.

A value is  unit * prod(root form ^ exp) * num / den  where the root
forms are positive-root linear forms of a fixed root system, and num,
den are primitive integer polynomials carrying whatever does not factor
into root forms.  Normalization divides out every positive-root form by
trial division (the forms are irreducible, so the extracted multiset is
unique); no general multivariate gcd is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import kernel
from .poly import (
    MultiPoly,
    canon_coeff,
    integral_primitive,
    poly_str,
    support_mask,
)

__all__ = ["RootContext", "RootRational", "form_str"]


def form_str(coords) -> str:
    """Render a linear form, e.g. (1,2,0) -> 'a1+2*a2'."""
    parts = []
    for k, c in enumerate(coords):
        if c == 1:
            parts.append(f"a{k + 1}")
        elif c:
            parts.append(f"{c}*a{k + 1}")
    return "+".join(parts) if parts else "0"


def _form_terms(coords):
    n = len(coords)
    out = {}
    for k, c in enumerate(coords):
        if c:
            out[tuple(1 if j == k else 0 for j in range(n))] = c
    return out


class RootContext:
    """Variable count plus the positive-root forms used for factoring."""

    def __init__(self, roots):
        roots = tuple(tuple(r) for r in roots)
        if not roots:
            raise ValueError("need at least one positive root")
        self.n = len(roots[0])
        if any(len(r) != self.n for r in roots):
            raise ValueError("inconsistent root lengths")
        self.roots = tuple(sorted(roots, key=lambda r: (sum(r), r)))
        self.root_set = frozenset(self.roots)
        self._one = {(0,) * self.n: 1}
        self._pivot = {r: max(i for i, c in enumerate(r) if c) for r in self.roots}
        self._mask = {
            r: sum(1 << i for i, c in enumerate(r) if c) for r in self.roots
        }

    # -- value builders -------------------------------------------------

    def one(self) -> "RootRational":
        return RootRational(self, Fraction(1), {}, dict(self._one), dict(self._one))

    def zero(self) -> "RootRational":
        return RootRational(self, Fraction(0), {}, dict(self._one), dict(self._one))

    def rational(self, q) -> "RootRational":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return RootRational(self, q, {}, dict(self._one), dict(self._one))

    def from_root_factors(self, factors, unit=1) -> "RootRational":
        """Value  unit * prod(form ^ exp)  for (coords, exp) pairs.

        Coordinate vectors that are not positive roots (e.g. doubled
        forms) are expanded into the polynomial residuals instead.
        """
        fac = {}
        num = dict(self._one)
        den = dict(self._one)
        for coords, exp in factors:
            coords = tuple(coords)
            if exp == 0:
                continue
            if coords in self.root_set:
                fac[coords] = fac.get(coords, 0) + exp
            else:
                ft = _form_terms(coords)
                if not ft:
                    raise ValueError("zero linear form in factor list")
                for _ in range(abs(exp)):
                    if exp > 0:
                        num = kernel.poly_mul(num, ft)
                    else:
                        den = kernel.poly_mul(den, ft)
        return self.build(unit, fac, num, den)

    def from_fraction(self, num, den=None) -> "RootRational":
        nt = num.terms if isinstance(num, MultiPoly) else dict(num)
        if den is None:
            dt = dict(self._one)
        else:
            dt = den.terms if isinstance(den, MultiPoly) else dict(den)
        if not dt:
            raise ZeroDivisionError("zero denominator polynomial")
        return self.build(1, {}, nt, dt)

    # -- normalization --------------------------------------------------

    def _extract(self, terms, fac, sign):
        """Divide out every root form from integer term dict ``terms``.

        Updates ``fac`` with ``sign`` * multiplicity per extracted form and
        returns the residual.
        """
        if not terms:
            return terms
        zero_exp = (0,) * self.n
        # A lone monomial factors directly into simple-root powers.
        if len(terms) == 1:
            (e, c), = terms.items()
            if e != zero_exp:
                for k, d in enumerate(e):
                    if d:
                        r = tuple(1 if j == k else 0 for j in range(self.n))
                        fac[r] = fac.get(r, 0) + sign * d
                return {zero_exp: c}
            return terms
        # Root forms have no constant term, so neither has any multiple.
        if zero_exp in terms:
            return terms
        # A form can divide only if the residual involves all its variables.
        tmask = support_mask(terms)
        for root in self.roots:
            mask = self._mask[root]
            pivot = self._pivot[root]
            while not mask & ~tmask:
                q = kernel.poly_div_linear(terms, root, pivot)
                if q is None:
                    break
                fac[root] = fac.get(root, 0) + sign
                terms = q
                if zero_exp in terms or len(terms) == 1:
                    return self._extract(terms, fac, sign)
                tmask = support_mask(terms)
        return terms

    def build(self, unit, fac, num, den) -> "RootRational":
        """Normalize raw parts into a canonical RootRational."""
        if not num:
            return self.zero()
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, cn = integral_primitive(num)
        den, cd = integral_primitive(den)
        unit = Fraction(unit) * cn / cd
        if unit == 0:
            return self.zero()
        fac = dict(fac)
        num = self._extract(num, fac, +1)
        den = self._extract(den, fac, -1)
        fac = {r: e for r, e in fac.items() if e}
        num, den = self._cancel_residuals(num, den)
        return RootRational(self, unit, fac, num, den)

    def _cancel_residuals(self, num, den):
        """Collapse num/den when one residual exactly divides the other.

        Quotients of primitive integer polynomials with positive leading
        signs stay primitive with positive leading signs, so no content
        pass is needed afterwards.
        """
        if num == den:
            return dict(self._one), dict(self._one)
        if den != self._one and num != self._one:
            q = kernel.poly_div_exact(num, den)
            if q is not None:
                return q, dict(self._one)
            q = kernel.poly_div_exact(den, num)
            if q is not None:
                return dict(self._one), q
        return num, den


class RootRational:
    """Immutable element of the rational-function field; always normalized."""

    __slots__ = ("ctx", "unit", "fac", "num", "den")

    def __init__(self, ctx, unit, fac, num, den):
        self.ctx = ctx
        self.unit = unit
        self.fac = fac
        self.num = num
        self.den = den

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def is_one(self) -> bool:
        return (
            self.unit == 1
            and not self.fac
            and self.num == self.ctx._one
            and self.den == self.ctx._one
        )

    def is_factored(self) -> bool:
        """True when the value is unit * product of root forms."""
        return self.num == self.ctx._one and self.den == self.ctx._one

    @property
    def root_factors(self):
        return dict(self.fac)

    @property
    def numerator(self) -> MultiPoly:
        return MultiPoly(self.ctx.n, dict(self.num))

    @property
    def denominator(self) -> MultiPoly:
        return MultiPoly(self.ctx.n, dict(self.den))

    def multiplicity(self, root) -> int:
        """Algebraic multiplicity of a positive-root form in this value."""
        root = tuple(root)
        if root not in self.ctx.root_set:
            raise ValueError(f"{form_str(root)} is not a positive root here")
        if self.is_zero():
            raise ValueError("multiplicity of the zero function is undefined")
        return self.fac.get(root, 0)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RootRational):
            if other.ctx is not self.ctx and other.ctx.roots != self.ctx.roots:
                raise ValueError("values from different root systems")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        fac = dict(self.fac)
        for r, e in other.fac.items():
            s = fac.get(r, 0) + e
            if s:
                fac[r] = s
            else:
                del fac[r]
        # Cross-cancel identical residuals before multiplying them out.
        a_num, a_den = self.num, self.den
        b_num, b_den = other.num, other.den
        if a_num == b_den and a_num != self.ctx._one:
            a_num = b_den = self.ctx._one
        if b_num == a_den and b_num != self.ctx._one:
            b_num = a_den = self.ctx._one
        num = kernel.poly_mul(a_num, b_num)
        den = kernel.poly_mul(a_den, b_den)
        num, den = self.ctx._cancel_residuals(num, den)
        return RootRational(self.ctx, self.unit * other.unit, fac, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "RootRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        fac = {r: -e for r, e in self.fac.items()}
        return RootRational(self.ctx, 1 / self.unit, fac, dict(self.den), dict(self.num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        """Integer power in O(log |k|) products.

        The residuals stay normalized: powers of primitive polynomials
        are primitive (Gauss's lemma), and by unique factorization they
        gain no root factor and neither comes to divide the other.
        """
        if k == 0:
            return self.ctx.one()
        base = self.inverse() if k < 0 else self
        m = abs(k)
        if m == 1 or base.is_zero():
            return base
        n = self.ctx.n
        return RootRational(
            self.ctx,
            base.unit**m,
            {r: e * m for r, e in base.fac.items()},
            (MultiPoly(n, base.num) ** m).terms,
            (MultiPoly(n, base.den) ** m).terms,
        )

    def __neg__(self):
        if self.is_zero():
            return self
        return RootRational(self.ctx, -self.unit, dict(self.fac), dict(self.num), dict(self.den))

    def _expand_factors(self, positive: bool):
        """Expanded polynomial of the factored part (exp>0 or exp<0 side)."""
        out = dict(self.ctx._one)
        for r, e in self.fac.items():
            reps = e if positive else -e
            if reps > 0:
                ft = _form_terms(r)
                for _ in range(reps):
                    out = kernel.poly_mul(out, ft)
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        shared = {}
        for r in set(self.fac) | set(other.fac):
            g = min(self.fac.get(r, 0), other.fac.get(r, 0))
            if g:
                shared[r] = g
        # Cofactor exponents are >= 0 by construction, so they expand.
        cof_a = dict(self.ctx._one)
        cof_b = dict(self.ctx._one)
        for r in set(self.fac) | set(other.fac):
            g = shared.get(r, 0)
            ft = _form_terms(r)
            for _ in range(self.fac.get(r, 0) - g):
                cof_a = kernel.poly_mul(cof_a, ft)
            for _ in range(other.fac.get(r, 0) - g):
                cof_b = kernel.poly_mul(cof_b, ft)
        q = (self.unit.denominator * other.unit.denominator) // gcd(
            self.unit.denominator, other.unit.denominator
        )
        ca = {(0,) * self.ctx.n: int(self.unit * q)}
        cb = {(0,) * self.ctx.n: int(other.unit * q)}
        term_a = kernel.poly_mul(kernel.poly_mul(ca, cof_a), kernel.poly_mul(self.num, other.den))
        term_b = kernel.poly_mul(kernel.poly_mul(cb, cof_b), kernel.poly_mul(other.num, self.den))
        snum = kernel.poly_add(term_a, term_b)
        sden = kernel.poly_mul(self.den, other.den)
        return self.ctx.build(Fraction(1, q), shared, snum, sden)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- equality: cross-multiplication of fully expanded sides ----------

    def _cross_parts(self):
        npoly = kernel.poly_mul(
            {(0,) * self.ctx.n: self.unit.numerator},
            kernel.poly_mul(self._expand_factors(True), self.num),
        )
        dpoly = kernel.poly_mul(
            {(0,) * self.ctx.n: self.unit.denominator},
            kernel.poly_mul(self._expand_factors(False), self.den),
        )
        return npoly, dpoly

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, RootRational):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx.roots != other.ctx.roots:
            return False
        if (
            self.unit == other.unit
            and self.fac == other.fac
            and self.num == other.num
            and self.den == other.den
        ):
            return True
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        na, da = self._cross_parts()
        nb, db = other._cross_parts()
        return kernel.poly_mul(na, db) == kernel.poly_mul(nb, da)

    __hash__ = None

    # -- evaluation -------------------------------------------------------

    def evaluate(self, point):
        """Exact value at a rational point; fails at poles, naming the factor."""
        if self.is_zero():
            return Fraction(0)
        point = [Fraction(x) for x in point]
        if len(point) != self.ctx.n:
            raise ValueError("point has wrong length")
        values = {r: sum(Fraction(c) * x for c, x in zip(r, point)) for r in self.fac}
        for r, e in self.fac.items():
            if e < 0 and values[r] == 0:
                raise ZeroDivisionError(
                    f"pole: denominator factor {form_str(r)} vanishes at the point"
                )
        dv = MultiPoly(self.ctx.n, self.den).evaluate(point)
        if dv == 0:
            raise ZeroDivisionError("pole: residual denominator vanishes at the point")
        total = self.unit
        for r, e in self.fac.items():
            total *= values[r] ** e
        nv = MultiPoly(self.ctx.n, self.num).evaluate(point)
        return total * nv / dv

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "unit": str(self.unit),
            "root_factors": [
                {"root": list(r), "exp": e} for r, e in sorted(self.fac.items())
            ],
            "num_terms": [
                {"coeff": str(canon_coeff(c)), "exp": list(e)}
                for e, c in sorted(self.num.items(), reverse=True)
            ],
            "den_terms": [
                {"coeff": str(canon_coeff(c)), "exp": list(e)}
                for e, c in sorted(self.den.items(), reverse=True)
            ],
        }

    @classmethod
    def from_json_dict(cls, ctx, data):
        base = ctx.from_root_factors(
            ((tuple(f["root"]), f["exp"]) for f in data.get("root_factors", [])),
            unit=Fraction(data["unit"]),
        )
        num = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["num_terms"]}
        den = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["den_terms"]}
        return base * ctx.from_fraction(num, den)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        num_parts = []
        den_parts = []
        if self.unit.numerator != 1 or (
            not self.fac and self.num == self.ctx._one
        ):
            num_parts.append(str(self.unit.numerator))
        if self.unit.denominator != 1:
            den_parts.append(str(self.unit.denominator))
        for r, e in sorted(self.fac.items(), key=lambda it: (sum(it[0]), it[0][::-1])):
            simple = sum(r) == 1
            body = form_str(r) if simple else f"({form_str(r)})"
            if abs(e) != 1:
                body += f"^{abs(e)}"
            (num_parts if e > 0 else den_parts).append(body)
        if self.num != self.ctx._one:
            s = poly_str(self.num)
            num_parts.append(s if len(self.num) == 1 else f"({s})")
        if self.den != self.ctx._one:
            s = poly_str(self.den)
            den_parts.append(s if len(self.den) == 1 else f"({s})")
        num_str = "*".join(num_parts) if num_parts else "1"
        if not den_parts:
            return num_str
        den_str = "*".join(den_parts)
        if len(den_parts) > 1:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"RootRational({self})"
