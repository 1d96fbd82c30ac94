"""Sparse polynomial kernel.

Polynomials are plain dicts mapping exponent tuples (length = number of
variables, at least one) to nonzero exact coefficients (int or
fractions.Fraction).  Every exponent is a non-negative int: ``MultiPoly``
and ``RootContext.from_fraction`` check this on input, and the packed
arithmetic below relies on it.  Callers reach these functions through the
module (``kernel.poly_mul``) so that a tracer can wrap them in one place.

``poly_mul`` and ``poly_div_exact`` work on packed monomials (Monagan &
Pearce, CASC 2007 and JSC 46, 2011); nothing outside this module sees
them.  On entry each exponent tuple becomes one int with one bit field
per variable, variable 1 in the most significant field, so integer order
is the lex order of the tuples (the order of ``max`` on tuples,
``integral_primitive`` and ``poly_str``).  Each call sizes its fields
from its inputs: enough bits for the largest exponent any intermediate
term can reach, plus one guard bit on top.  There is no fixed limit and
nothing overflows; only the result is unpacked.  A product of monomials
is one int add.  A difference of monomials borrows into some guard bit
exactly when one of its exponents is negative, which is the
divisibility test of the exact division.  That division keeps the
exponents of its pending remainder in a max-heap and pops the leading
term instead of scanning for it; a term that cancels stays in the heap
and is skipped when it comes up.
"""

import heapq
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _layout(n, width):
    """(shifts, field mask, guard mask) for n fields of ``width`` bits."""
    shifts = tuple(width * (n - 1 - k) for k in range(n))
    guard = sum(1 << (s + width - 1) for s in shifts)
    return shifts, (1 << (width - 1)) - 1, guard


def _width(top):
    """Field width for exponents up to ``top``: their bits plus a guard bit."""
    return top.bit_length() + 1


def _pack(terms, width):
    out = []
    for e, c in terms.items():
        k = 0
        for d in e:
            k = k << width | d
        out.append((k, c))
    return out


def _unpack(packed, shifts, mask):
    return {tuple([k >> s & mask for s in shifts]): c for k, c in packed.items() if c}


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
    if not a:
        return {}
    if len(a) == 1:
        (e, c), = a.items()
        if not any(e):
            return {eb: c * cb for eb, cb in b.items()}
    width = _width(max(map(max, a)) + max(map(max, b)))
    shifts, mask, _ = _layout(len(next(iter(a))), width)
    pb = _pack(b, width)
    out = {}
    get = out.get
    for ka, ca in _pack(a, width):
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _unpack(out, shifts, mask)


def poly_div_exact(p, g):
    """Exact division of ``p`` by an arbitrary nonzero ``g``.

    Single-divisor reduction in lexicographic order: whenever p = q*g the
    remainder comes out zero, so None reliably means "not divisible".  A
    true quotient has no exponent above p's degree in that variable, so a
    quotient term that does means None as well; this also bounds every
    intermediate exponent by the largest exponents of p and g.
    """
    if not p:
        return {}
    degs = [max(col) for col in zip(*p)]
    width = _width(max(degs) + max(map(max, g)))
    shifts, mask, guard = _layout(len(degs), width)
    limit = 0
    for d in degs:
        limit = limit << width | d
    limit |= guard
    pg = _pack(g, width)
    lead_g, cg = max(pg)
    rest = [(e, -c) for e, c in pg if e != lead_g]
    r = dict(_pack(p, width))
    heap = [-k for k in r]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    q = {}
    while heap:
        lead = -pop(heap)
        coeff = r.pop(lead, None)
        if coeff is None:
            continue
        qe = lead - lead_g
        if qe & guard or (limit - qe) & guard != guard:
            return None
        if cg != 1:
            coeff = Fraction(coeff, cg) if isinstance(coeff, int) else coeff / cg
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = int(coeff)
        q[qe] = coeff
        for e, c in rest:
            te = qe + e
            s = r.get(te)
            if s is None:
                r[te] = coeff * c
                push(heap, -te)
            else:
                s += coeff * c
                if s:
                    r[te] = s
                else:
                    del r[te]
    return _unpack(q, shifts, mask)


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
