"""Sparse polynomial kernel.

Polynomials are plain dicts mapping exponent tuples (length = number of
variables) to nonzero exact coefficients (int or fractions.Fraction).
Callers reach these functions through the module (``kernel.poly_mul``)
so that a tracer can wrap them in one place.
"""

from fractions import Fraction


def poly_add(a, b):
    """Sum of two term dicts."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    """Product of two term dicts."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_div_exact(p, g):
    """Exact division of ``p`` by an arbitrary nonzero ``g``.

    Single-divisor reduction in lexicographic order: whenever p = q*g
    the remainder comes out zero, so None reliably means "not divisible".
    """
    lead_g = max(g)
    cg = g[lead_g]
    rest = [(e, c) for e, c in g.items() if e != lead_g]
    r = dict(p)
    q = {}
    while r:
        lead_r = max(r)
        qe = tuple(a - b for a, b in zip(lead_r, lead_g))
        if any(x < 0 for x in qe):
            return None
        coeff = r.pop(lead_r)
        if cg != 1:
            coeff = Fraction(coeff, cg) if isinstance(coeff, int) else coeff / cg
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = int(coeff)
        q[qe] = coeff
        for e, c in rest:
            te = tuple(a + b for a, b in zip(qe, e))
            s = r.get(te, 0) - coeff * c
            if s:
                r[te] = s
            else:
                r.pop(te, None)
    return q


def poly_div_linear(p, form, pivot):
    """Exact division of ``p`` by the linear form ``form`` (no constant term).

    ``pivot`` is an index with form[pivot] != 0.  Returns the quotient term
    dict, or None when the division leaves a remainder.  Works by eliminating
    the pivot variable degree by degree, from the top down.
    """
    cp = form[pivot]
    rest = [(i, c) for i, c in enumerate(form) if c and i != pivot]
    r = dict(p)
    q = {}
    maxd = 0
    for e in r:
        if e[pivot] > maxd:
            maxd = e[pivot]
    for d in range(maxd, 0, -1):
        level = [e for e in r if e[pivot] == d]
        for e in level:
            coeff = r.pop(e)
            if cp != 1:
                coeff = Fraction(coeff, cp) if isinstance(coeff, int) else coeff / cp
                if coeff.denominator == 1:
                    coeff = int(coeff)
            qe = e[:pivot] + (d - 1,) + e[pivot + 1 :]
            q[qe] = coeff
            for i, ci in rest:
                te = qe[:i] + (qe[i] + 1,) + qe[i + 1 :]
                s = r.get(te, 0) - coeff * ci
                if s:
                    r[te] = s
                else:
                    r.pop(te, None)
    if r:
        return None
    return q
