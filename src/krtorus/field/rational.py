"""Exact rational functions in the root variables, kept in factored form.

A value is  unit * prod(root form ^ exp) * num / den  where the root
forms are positive-root linear forms of a fixed root system, and num,
den are primitive integer polynomials carrying whatever does not factor
into root forms.  A linear form is classified once, on input: it is a
positive root up to a scalar or it is not (engine values, root products
by construction, skip this in ``RootContext.root_product``).  Other
input is normalized once, by ``RootContext.build``: positive-root forms
are divided out, then the residuals are cancelled where one divides the
other (the forms are irreducible, so the extracted multiset is unique
and one cancel after the extraction does what one before it would).
Which forms to try comes from the residual's slices: its values modulo a
prime p along one line through a fixed point per variable, read at the
point where each form's hyperplane meets the line.  A nonzero value
proves that the form does not divide, while a zero is only a hint, which
an exact division certifies.  A residual of degree 1 is not screened:
primitive with a positive leading coefficient, it is divisible by a root
form only when it is that root, which one lookup in the root set
decides.  Every sum is a sum of products, formed by
``RootContext.sum_of_products``: an exchange step (prod A + prod B) / D
of the T-system or of a cluster mutation, a sum of values (``+``,
``sum_over``), a weight sum.  One pass per product (``_collect``)
multiplies the units, sums the root exponents and meets each residual
factor once, indexing it into one list for all products and counting its
signed multiplicity; the products share the least exponent of each root
and of each residual, and only the cofactors are expanded, by
``kernel.poly_form_product``.  D's residual cancels against a shared
factor, or against a factor of one product after dividing every other
product's residual product.  The factor lists, cofactor and residual
powers, go to ``kernel.poly_sum_div``, which forms their sum and divides
it by any other D: on big-integer encodings for a large step, on packed
monomials otherwise.  ``build`` screens a small step's quotient.  A
step on the encoding bounds each root's multiplicity b_r from the
quotient's slices, which the homomorphism gives from its factors'
slices, and divides the sum once by D * prod(r ^ b_r): a bound is never
below the multiplicity, so a division that succeeds proves them equal and
leaves no root form.  That divisor is never expanded: the kernel takes D
and the (root, b_r) pairs as they are and multiplies their encodings.
Values keep their residual's slices for the next
such step.  ``build`` multiplies the shared residuals, which hold no
root form, in last.
Products, quotients and powers are formed in one pass by
``RootContext.product_over``, where the residuals of values meet and
cancel.  No general multivariate gcd is ever needed, and equality is
decided by subtraction.  How monomials are packed is the kernel's
business alone: this module calls only its public functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from random import Random

from ..errors import InvalidInputError
from . import kernel
from .poly import (
    MultiPoly,
    canon_coeff,
    check_exponents,
    integral_primitive,
    poly_str,
)

__all__ = ["RootContext", "RootRational", "form_str"]

# The divisibility screen works in F_p, p = 2^61 - 1, at a point drawn
# from a fixed seed so that every run makes the same divisions.
_P = (1 << 61) - 1
_SEED = 2021


def form_str(coords) -> str:
    """Render a linear form, e.g. (1,2,0) -> 'a1+2*a2'."""
    parts = []
    for k, c in enumerate(coords):
        if c == 1:
            parts.append(f"a{k + 1}")
        elif c:
            parts.append(f"{c}*a{k + 1}")
    return "+".join(parts) if parts else "0"


def _power_product(pairs, one):
    """Product of p ^ m over the [p, m, ...] entries with m > 0; ``one`` if none."""
    powers = [kernel.poly_pow(p, m) for p, m, *_ in pairs if m]
    return reduce(kernel.poly_mul, powers) if powers else one


def _index(parts, part):
    """Index of ``part`` in the list ``parts``, compared by identity, then
    by equality; a new part is appended."""
    for k, p in enumerate(parts):
        if p is part or p == part:
            return k
    parts.append(part)
    return len(parts) - 1


def _least(exps):
    """(least, excess) over a list of {key: exponent} dicts: the least
    exponent of each key, a missing key counting 0, and each dict's excess
    over it, every entry >= 0.

    One pass per dict over its own keys, and one over the keys it lacks; a
    dict that lowers the running least raises the excess of every earlier
    dict by the difference, added to what that dict already holds.
    """
    least, excess = dict(exps[0]), [{}]
    for exp in exps[1:]:
        own = {}
        for r, e in exp.items():
            s = least.get(r, 0)
            if e > s:
                own[r] = e - s
            elif e < s:
                least[r] = e
                for earlier in excess:
                    earlier[r] = earlier.get(r, 0) + s - e
        for r in least.keys() - exp.keys():
            s = least[r]
            if s > 0:
                least[r] = 0
                for earlier in excess:
                    earlier[r] = earlier.get(r, 0) + s
            elif s < 0:
                own[r] = -s
        excess.append(own)
    return least, excess


def _vanishing_order(coeffs, s):
    """Order of vanishing at ``s`` of sum(coeffs[d] * t^d) over F_p.

    A polynomial that is zero mod p gets its degree bound len(coeffs) - 1.
    Each round evaluates by Horner first and stops at a nonzero value, so
    a candidate that is no root (nearly every one) costs one pass; only at
    a zero does synthetic division by (t - s) build the quotient.  Degree-1
    residuals never come here: ``_extract`` looks them up in the root set.
    """
    a = coeffs[::-1]
    order = 0
    while len(a) > 1:
        acc = 0
        for c in a:
            acc = (acc * s + c) % _P
        if acc:
            break
        out = []
        acc = 0
        for c in a[:-1]:
            acc = (acc * s + c) % _P
            out.append(acc)
        a = out
        order += 1
    return order


def _mul(a, b):
    """Product of two polynomials in t over F_p, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % _P for c in out]


def _div(a, b):
    """Quotient a / b of polynomials in t over F_p, or None unless both are
    nonzero and b divides a."""
    r = list(a)
    while r and not r[-1]:
        r.pop()
    while b and not b[-1]:
        b = b[:-1]
    if not b or len(r) < len(b):
        return None
    db, inv = len(b) - 1, pow(b[-1], -1, _P)
    q = [0] * (len(r) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] * inv % _P
        if c:
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % _P
    return None if any(r[:db]) else q


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
        # Screening point x, and for each root r with pivot j the value
        # s = t / x_j, where a_j = t puts x on the hyperplane r = 0.  Scaling
        # by x_j lets _screen group full monomial values by exponent.
        rng = Random(_SEED)
        self._point = tuple(rng.randrange(1, _P) for _ in range(self.n))
        self._meet = {}
        for r in self.roots:
            j = self._pivot[r]
            rest = sum(c * x for c, x in zip(r, self._point)) - r[j] * self._point[j]
            self._meet[r] = -rest * pow(r[j] * self._point[j], -1, _P) % _P

    # -- value builders -------------------------------------------------

    def one(self) -> "RootRational":
        return self.rational(1)

    def zero(self) -> "RootRational":
        return self.rational(0)

    def rational(self, q) -> "RootRational":
        return RootRational(self, Fraction(q), {}, dict(self._one), dict(self._one))

    def from_root_factors(self, factors, unit=1) -> "RootRational":
        """Value  unit * prod(form ^ exp)  for (coords, exp) pairs.

        Each form is made primitive with a positive leading coordinate; a
        positive root stays factored, any other form goes to the residuals.
        That is normal form: the residuals are primitive (Gauss), lead with
        a positive coefficient and hold no root factor (unique factorization).
        """
        unit = Fraction(unit)
        fac = {}
        rest = {}
        for coords, exp in factors:
            coords = tuple(coords)
            if len(coords) != self.n or not all(isinstance(c, int) for c in (*coords, exp)):
                raise InvalidInputError(
                    f"factor {coords}^{exp}: need {self.n} integer coordinates, integer exponent"
                )
            if exp == 0:
                continue
            if coords not in self.root_set:
                g = gcd(*coords)
                if not g:
                    raise ValueError("zero linear form in factor list")
                if next(c for c in coords if c) < 0:
                    g = -g
                unit *= Fraction(g) ** exp
                coords = tuple(c // g for c in coords)
            side = fac if coords in self.root_set else rest
            side[coords] = side.get(coords, 0) + exp
        if unit == 0:
            return self.zero()
        fac = {r: e for r, e in fac.items() if e}
        num = kernel.poly_form_product(self.n, rest.items())
        den = kernel.poly_form_product(self.n, ((f, -e) for f, e in rest.items()))
        return RootRational(self, unit, fac, num, den)

    def root_product(self, exps) -> "RootRational":
        """Value  prod(root ^ exp)  for a {positive root: int exponent} dict.

        For engine values, whose factors are roots by construction: only
        the keys are checked.  User input goes through ``from_root_factors``.
        """
        if not exps.keys() <= self.root_set:
            bad = next(r for r in exps if r not in self.root_set)
            raise ValueError(f"{bad} is not a positive root here")
        fac = {r: e for r, e in exps.items() if e}
        return RootRational(self, Fraction(1), fac, self._one, self._one)

    def from_fraction(self, num, den=None) -> "RootRational":
        nt = num.terms if isinstance(num, MultiPoly) else dict(num)
        dt = self._one if den is None else den.terms if isinstance(den, MultiPoly) else dict(den)
        if not dt:
            raise ZeroDivisionError("zero denominator polynomial")
        check_exponents(nt, self.n)
        check_exponents(dt, self.n)
        return self.build(1, {}, nt, dt)

    # -- normalization --------------------------------------------------

    def _screen(self, terms):
        """(root, bound) for each positive root whose form may divide
        ``terms``: the bounds that its slices give."""
        return self._bounds(self._slices(terms))

    def _slices(self, terms):
        """One coefficient list mod p per variable a_j: ``terms`` on the
        line through the screening point x along a_j, in t = a_j / x_j.

        One pass evaluates each monomial at x mod p and groups the values
        by each exponent.  Slicing is a ring homomorphism to F_p[t]: the
        slices of a product, sum or exact quotient are the product, sum or
        quotient of the slices.
        """
        slices = [{} for _ in range(self.n)]
        # One row of powers per coordinate of the point, up to the largest
        # exponent in the terms.
        top = max(map(max, terms))
        table = []
        for x in self._point:
            row = [1]
            for _ in range(top):
                row.append(row[-1] * x % _P)
            table.append(row)
        for e, c in terms.items():
            w = c
            for row, d in zip(table, e):
                if d:
                    w = w * row[d] % _P
            for sl, d in zip(slices, e):
                sl[d] = sl.get(d, 0) + w
        out = []
        for sl in slices:
            cs = [0] * (max(sl) + 1)
            for d, v in sl.items():
                cs[d] = v % _P
            out.append(cs)
        return out

    def _bounds(self, slices):
        """(root, bound) for each positive root whose form may divide the
        polynomial with these slices.

        A root r with pivot j can divide only if slice j vanishes at s_r,
        where the line meets r = 0, and its multiplicity is at most the
        order of vanishing there.  Every variable is the pivot of its simple
        root, so every slice is read.  A nonzero value proves that the form
        does not divide; a zero is only a hint.  So no root is filtered out
        beforehand: a residual that lacks one of r's variables, or has a
        constant term, is no multiple of r, and should its slice vanish at
        s_r mod p by chance, the exact division refuses the hint.  A slice
        that is zero mod p gives every root on its line its length less 1,
        which is no less than the degree in a_j.
        """
        out = []
        for r in self.roots:
            bound = _vanishing_order(slices[self._pivot[r]], self._meet[r])
            if bound:
                out.append((r, bound))
        return out

    def _form_slices(self, pairs, scale=1):
        """The slices of scale * prod(root ^ e) over (root, e >= 0) pairs:
        along a_k, a root r is r(x) - r_k x_k + r_k x_k t."""
        out = [[scale % _P] for _ in range(self.n)]
        for r, e in pairs:
            if e > 0:
                at = sum(c * x for c, x in zip(r, self._point))
                for k, x in enumerate(self._point):
                    line = [(at - r[k] * x) % _P, r[k] * x % _P]
                    for _ in range(e):
                        out[k] = _mul(out[k], line)
        return out

    def _extract(self, terms, fac, sign):
        """Divide out every root form from primitive int term dict ``terms``.

        Updates ``fac`` with ``sign`` * multiplicity per extracted form and
        returns the residual.  Each form ``_screen`` bounds is tried at most
        its bound times, stopping at the first failed division, and every
        factor is certified by that exact division.  The bound is never
        below the multiplicity: if r^m divides P, then P on the screen's
        line vanishes to order at least m where the line meets r = 0, also
        mod p; dividing out other forms leaves r's multiplicity as it is.
        Simple roots come first in ``self.roots``, so a monomial factors
        through its bounds (its order of vanishing at meeting point 0 is
        the exponent) before any other form is tried.

        A residual whose terms all have degree 1 is a linear form, primitive
        with a positive leading coefficient, as is every root form; another
        linear form divides it only with a constant quotient, which is then
        1.  So it is a root, extracted whole by one lookup, or it holds no
        root form; neither case is screened.
        """
        coords = [0] * self.n
        for e, c in terms.items():
            if sum(e) != 1:
                break
            coords[e.index(1)] = c
        else:
            root = tuple(coords)
            if root not in self.root_set:
                return terms
            fac[root] = fac.get(root, 0) + sign
            return self._one
        for root, bound in self._screen(terms):
            pivot = self._pivot[root]
            for _ in range(bound):
                q = kernel.poly_div_linear(terms, root, pivot)
                if q is None:
                    break
                fac[root] = fac.get(root, 0) + sign
                terms = q
        return terms

    def build(self, unit, fac, num, den, free=None, slices=None) -> "RootRational":
        """Normalize raw parts into a canonical RootRational.

        Root forms are divided out of each side first, then the residuals
        are cancelled where one exactly divides the other.  A cancel before
        the extraction would change nothing: root forms are irreducible, so
        by unique factorization N = R * N' and D = S * D' with R, S root
        products and N', D' free of root forms; if D divides N, then D'
        divides N' (and the same with N and D swapped), and if neither
        divides, that cancel does nothing.  The cancel after extraction also
        covers residuals that only root factors kept apart, as in a user
        fraction (a1+a2)*p / (a1*p).  Exchange steps come here already
        divided by their divisor (``sum_of_products``).

        ``slices``, when given, are those of a ``num`` that holds no root
        form: it is not screened, and the value keeps its residual's slices,
        divided by the content, for later steps add and multiply them.  A
        cancel or ``free`` that changes the residual drops them.

        ``free`` is an optional further factor of the numerator that holds
        no root form and is primitive with a positive leading term, such as
        a residual of a normalized value.  Root forms are screened and
        extracted from ``num`` alone and ``free`` is multiplied in after: by
        Gauss's lemma and unique factorization this is the residual that
        extraction from ``num * free`` leaves, part for part.  It joins
        after the cancel, because a numerator that divides the denominator
        does so only without it: a sum of user fractions p/(A*B) -
        p/(A*(A+B)) is p * A^2 / (A^2 * B * (A+B)) with ``free`` = p.  The
        sides are cancelled once more after it joins, for a ``free`` that
        divides the denominator or that it divides.  A residual denominator
        of 1, as every sum of engine values has, is not made primitive, and
        a residual of 1 on either side, as the quotient of most mutation
        steps is, is not screened.
        """
        if not num:
            return self.zero()
        if not den:
            raise ZeroDivisionError("zero denominator")
        one = self._one
        num, cn = integral_primitive(num)
        cd = 1
        if den != one:
            den, cd = integral_primitive(den)
        unit = Fraction(unit)
        if cn != cd:
            unit = unit * cn / cd
        if unit == 0:
            return self.zero()
        fac = dict(fac)
        if den != one:
            den = self._extract(den, fac, -1)
        if slices is None:
            if num != one:
                num = self._extract(num, fac, +1)
        elif cn.numerator % _P:
            scale = cn.denominator * pow(cn.numerator, -1, _P) % _P
            slices = [[c * scale % _P for c in line] for line in slices]
        else:
            slices = None
        fac = {r: e for r, e in fac.items() if e}
        kept = num
        if num != one and den != one:
            num, den = self._cancel_residuals(num, den)
        if free is not None:
            num = kernel.poly_mul(num, free)
            if den != one:
                num, den = self._cancel_residuals(num, den)
        if num is not kept:
            slices = None
        return RootRational(self, unit, fac, num, den, slices)

    def sum_over(self, values, divisor=None) -> "RootRational":
        """(sum of ``values``) / ``divisor``: one product per value."""
        return self.sum_of_products([((v, 1),) for v in values], divisor)

    def _collect(self, pairs, parts):
        """(unit, root exponents, residuals) of prod(value ^ exp) over the
        (value, exp) ``pairs``, or None when a value is zero and exp > 0.

        One pass multiplies the units, sums the root exponents and meets
        each residual other than 1 once: it is indexed into the list
        ``parts`` (``_index``), which the caller may share between
        products, and collected as {index: [signed multiplicity, k]}: a
        numerator counts exp, a denominator -exp, and k is the index of the
        value it came from, None once residuals of two values merged.  The
        exponents may be the dict of the first value; callers copy before
        they change it.
        """
        one = self._one
        unit, fac, first, residuals = 1, None, None, {}
        for k, (value, exp) in enumerate(pairs):
            if not value.unit:
                if exp > 0:
                    return None
                continue
            if value.unit != 1:
                unit *= value.unit**exp
            if fac is None and exp == 1:
                fac = first = value.fac
            else:
                if fac is None or fac is first:
                    fac = {} if fac is None else dict(fac)
                for r, e in value.fac.items():
                    fac[r] = fac.get(r, 0) + e * exp
            for part, e in ((value.num, exp), (value.den, -exp)):
                if part != one:
                    j = _index(parts, part)
                    entry = residuals.get(j)
                    if entry is None:
                        residuals[j] = [e, k]
                    else:
                        entry[0] += e
                        entry[1] = None
        return unit, {} if fac is None else fac, residuals

    def sum_of_products(self, products, divisor=None) -> "RootRational":
        """(sum over ``products`` of prod(value ^ exp)) / ``divisor``,
        normalized by one ``build``.

        Each product is a sequence of (value, exp >= 1) pairs, gathered by
        ``_collect`` into one list of residuals for all products, so each
        residual is scanned for once; a product holding a zero value is 0.
        The products share the least exponent of each root and of each
        residual, a missing one counting 0 (``_least``), and only each
        product's excess is multiplied out: its root forms, times its unit
        over the common unit denominator, into one cofactor
        (``kernel.poly_form_product``), its residuals kept as factors.  A
        shared residual with a positive exponent holds no root form, so
        ``build`` takes it into its root-free factor; the negative ones
        form the common denominator, each distinct residual once.  The
        divisor's residual D is cancelled where it stands: against a shared
        residual, or against a residual of one product when D exactly
        divides the residual product of every other one, as it does for an
        exchange step whose sum D divides (D holds no root form).  The
        factor lists go to ``kernel.poly_sum_div``, which forms their sum
        and divides it by any other D, on big-integer encodings for a large
        step and on packed monomials otherwise; only a sum that D does not
        divide is formed again and goes to ``build`` over D.  The divisor's
        residual denominator joins the root-free factor.  A lone (value, 1)
        over no divisor is the value itself.

        A step that the kernel's gate, asked once, sends to the encoding
        finds its root factors before its quotient Q exists: Q's slices
        (``_quotient_slices``) give bounds b_r >= the multiplicities, and
        the sum is divided once by D * prod(r ^ b_r), which the kernel gets
        factored, D and the bounds, and never expands.  If that succeeds,
        each r ^ b_r divides Q, so the bounds are the multiplicities and
        ``build`` takes the quotient unscreened.  A zero slice mod p or a
        division that refuses, in F_p[t] or of the sum, leaves the step to
        the screen.  Slices are carried on the values: slicing every
        factor's terms at each step would cost more than the screen.
        """
        if divisor is not None and divisor.is_zero():
            raise ZeroDivisionError("division by the zero function")
        one = self._one
        units, facs, residuals, parts, alive = [], [], [], [], []
        for pairs in products:
            collected = self._collect(pairs, parts)
            if collected is None:
                continue
            alive.append(pairs)
            live, (unit, fac, entries) = pairs, collected
            units.append(unit)
            facs.append(fac)
            residuals.append({j: e for j, (e, _) in entries.items() if e})
        if not units:
            return self.zero()
        if divisor is None and len(units) == 1 and len(live) == 1 and live[0][1] == 1:
            return live[0][0]
        shared, cofactors = _least(facs)
        common, excess = _least(residuals) if parts else ({}, residuals)
        sden = cut = one if divisor is None else divisor.num
        k = _index(parts, sden)  # an index no product holds if none holds D
        holder = next((own for own in excess if own.get(k, 0) > 0), None)
        owns = excess
        if common.get(k, 0) > 0:
            common[k] -= 1
            sden = cut = one
        elif holder is not None:
            others = [own for own in excess if own is not holder]
            quotients = []
            for own in others:
                residual = _power_product([(parts[j], m) for j, m in own.items()], one)
                quotients.append(kernel.poly_div_exact(residual, sden))
            if None not in quotients:
                owns = [dict(own) for own in excess]
                for own, quotient in zip(others, quotients):
                    own.clear()
                    own[_index(parts, quotient)] = 1
                holder[k] -= 1
                sden = one
        q = lcm(*(unit.denominator for unit in units))
        scales = [unit.numerator if q == 1 else int(unit * q) for unit in units]
        lists = []
        for scale, cof, own in zip(scales, cofactors, excess):
            cofactor = kernel.poly_form_product(self.n, cof.items(), scale)
            lists.append([(cofactor, 1), *((parts[j], m) for j, m in own.items() if m)])
        tops = [(parts[j], m) for j, m in common.items() if m > 0]
        if divisor is None:
            inv = Fraction(1, q)
        else:
            inv = 1 / (divisor.unit if q == 1 else divisor.unit * q)
            for r, e in divisor.fac.items():
                shared[r] = shared.get(r, 0) - e
            if divisor.den != one:
                tops.append((divisor.den, 1))
        free = _power_product(tops, None)
        den = _power_product([(parts[j], -m) for j, m in common.items() if m < 0], one)
        g = None if sden == one else sden
        degree = kernel.gate(lists, g)
        if degree is not None:
            summands = zip(scales, cofactors, owns)
            slices = self._quotient_slices(alive, divisor, parts, summands, cut)
            if slices is not None:
                bounds = self._bounds(slices)
                slices = [_div(s, f) for s, f in zip(slices, self._form_slices(bounds))]
            if slices is not None and None not in slices:
                quotient = kernel.poly_sum_div(lists, (g, bounds), degree - sum(b for _, b in bounds))
                if quotient is not None:
                    for r, b in bounds:
                        shared[r] = shared.get(r, 0) + b
                    return self.build(inv, shared, quotient, den, free, slices)
        quotient = kernel.poly_sum_div(lists, g, degree)
        if quotient is None:  # D does not divide the sum
            snum = kernel.poly_sum_div(lists)
            return self.build(inv, shared, snum, kernel.poly_mul(den, sden), free)
        return self.build(inv, shared, quotient, den, free)

    def _quotient_slices(self, products, divisor, parts, summands, cut):
        """Slices of (sum over (scale, cofactor, own) ``summands`` of
        scale * prod(root ^ e) * prod(parts[j] ^ m)) / ``cut``, or None when
        one is zero mod p or cut's does not divide.  A residual's slices
        are those kept on its value, made from its terms when missing.
        """
        owners = {id(v.num): v for pairs in products for v, _ in pairs}
        if divisor is not None:
            owners[id(divisor.num)] = divisor

        def sliced(terms):
            value = owners.get(id(terms))
            if value is None:
                return self._slices(terms)
            if value.slices is None:
                value.slices = self._slices(value.num)
            return value.slices

        total = [[] for _ in range(self.n)]
        for scale, cof, own in summands:
            out = self._form_slices(cof.items(), scale)
            for j, m in own.items():
                factor = sliced(parts[j])
                for _ in range(m):
                    out = list(map(_mul, out, factor))
            total = [[x + y for x, y in zip_longest(a, b, fillvalue=0)] for a, b in zip(total, out)]
        total = [[c % _P for c in line] for line in total]
        if cut != self._one:
            total = list(map(_div, total, sliced(cut)))
        return None if None in total or not all(map(any, total)) else total

    def product_over(self, pairs) -> "RootRational":
        """prod(value ^ exp) over (value, exp) pairs with int exponents.

        The one place where residuals of values meet: ``*``, ``/`` and
        ``**`` come here too.  ``_collect`` sums the root exponents,
        multiplies the units and meets each residual other than 1 once with
        its net exponent (equal residuals of different values cancel
        there); it goes to the numerator or the denominator by its sign.
        Before the sides are multiplied out, a residual that exactly divides
        one on the other side cancels into it, so a product of values whose
        residuals are irreducible, taken one factor at a time, comes out
        reduced whatever the order; the whole sides are cancelled once at
        the end.  When no residual turns up on both sides, as for values
        with residual denominator 1 and positive exponents, nothing cancels
        and the parts do not depend on how the product is grouped.  A lone
        (value, 1) is the value itself: values are immutable.
        """
        pairs = tuple(pairs)
        if len(pairs) == 1 and pairs[0][1] == 1:
            return pairs[0][0]
        if any(exp < 0 and value.is_zero() for value, exp in pairs):
            raise ZeroDivisionError("inverse of the zero function")
        parts = []
        collected = self._collect(pairs, parts)
        if collected is None:
            return self.zero()
        unit, fac, residuals = collected
        tops = [[parts[j], e, k] for j, (e, k) in residuals.items() if e > 0]
        bottoms = [[parts[j], -e, k] for j, (e, k) in residuals.items() if e < 0]
        # m copies of a residual B dividing m copies of A leave m copies of
        # A / B on A's side; the lists grow while they are walked.  The two
        # residuals of one value k are normalized: neither divides the other.
        for bottom in bottoms:
            for top in tops:
                if top[2] is not None and top[2] == bottom[2]:
                    continue
                for big, small, side in ((top, bottom, tops), (bottom, top, bottoms)):
                    if big[1] and small[1]:
                        q = kernel.poly_div_exact(big[0], small[0])
                        if q is not None:
                            m = min(big[1], small[1])
                            big[1] -= m
                            small[1] -= m
                            if q != self._one:
                                side.append([q, m, None])

        num, den = _power_product(tops, self._one), _power_product(bottoms, self._one)
        if num is not self._one and den is not self._one:
            num, den = self._cancel_residuals(num, den)
        fac = {r: e for r, e in fac.items() if e}
        return RootRational(self, Fraction(unit), fac, num, den)

    def _cancel_residuals(self, num, den):
        """Collapse num/den when one residual exactly divides the other.

        Quotients of primitive integer polynomials with positive leading
        signs stay primitive with positive leading signs.  No gcd is taken:
        engine values (sums of root products) have residual den 1 and a
        unique normal form, but a user fraction whose residuals share a
        non-root factor keeps it on both sides; it compares equal to its
        reduced form (by subtraction) but may render differently.
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

    __slots__ = ("ctx", "unit", "fac", "num", "den", "slices")

    def __init__(self, ctx, unit, fac, num, den, slices=None):
        self.ctx = ctx
        self.unit = unit
        self.fac = fac
        self.num = num
        self.den = den
        self.slices = slices  # of num, when a step has needed them

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        return not self.unit

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
        return self.ctx.product_over(((self, 1), (other, 1)))

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
        return self.ctx.product_over(((self, 1), (other, -1)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ctx.product_over(((other, 1), (self, -1)))

    def __pow__(self, k: int):
        # Only int exponents keep the value exact: a float or a fractional
        # exponent raises TypeError.
        if not isinstance(k, int):
            return NotImplemented
        return self.ctx.product_over(((self, k),))

    def __neg__(self):
        if self.is_zero():
            return self
        return RootRational(self.ctx, -self.unit, dict(self.fac), dict(self.num), dict(self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ctx.sum_over((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- equality: the difference is zero -------------------------------------

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
        return (self - other).is_zero()

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
        dv = kernel.poly_eval(self.den, point)
        if dv == 0:
            raise ZeroDivisionError("pole: residual denominator vanishes at the point")
        total = self.unit
        for r, e in self.fac.items():
            total *= values[r] ** e
        nv = kernel.poly_eval(self.num, point)
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
        try:
            base = ctx.from_root_factors(
                ((tuple(f["root"]), f["exp"]) for f in data.get("root_factors", [])),
                unit=Fraction(data["unit"]),
            )
            num = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["num_terms"]}
            den = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["den_terms"]}
            return base * ctx.from_fraction(num, den)
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"malformed value JSON: {exc!r}") from exc

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
