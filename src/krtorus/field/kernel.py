"""Sparse polynomial kernel.

Polynomials are plain dicts mapping exponent tuples (length = number of
variables, at least one) to nonzero exact coefficients (int or
fractions.Fraction).  Every exponent is a non-negative int: ``MultiPoly``
and ``RootContext.from_fraction`` check this on input, and the packed
arithmetic below relies on it.  Callers reach these functions through the
module (``kernel.poly_mul``) so that a tracer can wrap them in one place.

There is one product loop, ``_packed_mul``, and one long-division loop,
``_packed_div_exact`` (Monagan & Pearce, CASC 2007 and JSC 46, 2011).  On
entry each exponent tuple becomes one int with one bit field per
variable, variable 1 in the most significant field, so integer order is
the lex order of the tuples (the order of ``max`` on tuples,
``integral_primitive`` and ``poly_str``).  Each call sizes its fields from
its inputs: enough bits for the largest exponent any intermediate term
can reach, plus one guard bit on top.  There is no fixed limit and
nothing overflows; only the result is unpacked.  A product of monomials
is one int add.  A difference of monomials borrows into some guard bit
exactly when one of its exponents is negative, which is the divisibility
test of the exact division.  That division keeps the exponents of its
pending remainder in a max-heap and pops the leading term instead of
scanning for it; a term that cancels stays in the heap and is skipped
when it comes up.  A product with a lone constant term only scales the
other operand.

Each division step is one integer ``divmod`` by the divisor's leading
coefficient, and a nonzero remainder proves that the divisor does not
divide: ``poly_div_exact`` makes the divisor primitive and the dividend
integral first, and by Gauss's lemma an int polynomial's quotient by a
primitive one, when it exists, has int coefficients.

Large operands that are homogeneous in at least three variables with int
coefficients and hold at least a quarter of the monomials of their
degree, the shape of T-system residuals, go through the same two loops
on big integers (Kronecker substitution on a dense tail: Fateman, "Can
you save time in multiplying polynomials by encoding them as
integers?", 2010; Harvey, JSC 44, 2009): a product whose smaller operand
has at least ``_MUL_MIN_TERMS`` terms and at least ``_MUL_MIN_PAIRS``
pairs of terms, and an exact division of at least ``_DIV_MIN_TERMS``
terms by a divisor of two or more terms.  Below these sizes, measured on
the E6 and D8 T-system operands, the plain loops are as fast or faster.
The terms are grouped by their first n-3 exponents (the head); a group's
tail becomes one int with one signed slot of B = 8*nb bits for each
(e[n-3], e[n-2]), at slot e[n-3]*stride + e[n-2], the last exponent
following from the degree.  An operand so encoded is a dict {head: tail
int}, which the two loops take as they take a polynomial.  Encoding is
evaluation at powers of two, a ring homomorphism, so the loops' product
of two coefficients is the product of two groups and their exact step
the division of two groups; decoding reads the balanced base-2^B digits.
The encoding is injective on polynomials whose coefficients satisfy
|c| < 2^(B-1) and whose e[n-2] stays below the stride.  A product's
slots are sized from its inputs: no coefficient exceeds
min(max|a| * sum|b|, sum|a| * max|b|).  A quotient is certified by the
same bound with max|q| and sum|q|, plus non-negative decoded exponents
and tail slots of q*g below the stride; a quotient is never returned
uncertified: when that check fails, the division runs again on the
packed path, on the polynomials themselves (see ``_kron_div_exact``).
"""

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm

_MUL_MIN_TERMS = 16
_MUL_MIN_PAIRS = 10000
_DIV_MIN_TERMS = 1000


@lru_cache(maxsize=None)
def _layout(n, width):
    """(shifts, field mask, guard mask) for n fields of ``width`` bits."""
    shifts = tuple(width * (n - 1 - k) for k in range(n))
    guard = sum(1 << (s + width - 1) for s in shifts)
    return shifts, (1 << (width - 1)) - 1, guard


def _width(top):
    """Field width for exponents up to ``top``: their bits plus a guard bit."""
    return top.bit_length() + 1


def _top(terms):
    """Largest exponent in ``terms``; 0 for empty exponent tuples, the
    heads of a three-variable operand on the big-integer path."""
    return max(chain.from_iterable(terms), default=0)


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
    if len(a) >= _MUL_MIN_TERMS and len(a) * len(b) >= _MUL_MIN_PAIRS:
        da, db = _degree(a), _degree(b)
        if da is not None and db is not None:
            return _kron_mul(a, b, da + db)
    return _packed_mul(a, b)


def poly_pow(a, e):
    """``a`` to the int power ``e`` >= 1, by squaring (``a`` itself for e = 1)."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else poly_mul(out, a)
        e >>= 1
        if not e:
            return out
        a = poly_mul(a, a)


def _packed_mul(a, b):
    """Product on packed monomials: one int add per pair of terms."""
    width = _width(_top(a) + _top(b))
    shifts, mask, _ = _layout(len(next(iter(a))), width)
    pb = _pack(b, width)
    out = {}
    get = out.get
    for ka, ca in _pack(a, width):
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _unpack(out, shifts, mask)


def integral_primitive(terms):
    """Rewrite terms as content * primitive-integer-poly.

    Returns (new_terms, content): int coefficients with gcd 1 and a
    positive one on the lex-largest exponent (``terms`` itself when it
    already is), and a Fraction carrying scale and sign; zero input
    gives ({}, 0).
    """
    if not terms:
        return {}, Fraction(0)
    den_lcm = 1
    if Fraction in map(type, terms.values()):
        den_lcm = lcm(*(c.denominator for c in terms.values()))
        terms = {e: int(c * den_lcm) for e, c in terms.items()}
    scale = gcd(*terms.values())
    if terms[max(terms)] < 0:
        scale = -scale
    if scale != 1:
        terms = {e: c // scale for e, c in terms.items()}
    return terms, Fraction(scale, den_lcm)


def poly_div_exact(p, g):
    """Exact division of ``p`` by an arbitrary nonzero ``g``.

    Returns the quotient term dict, or None when ``g`` does not divide
    ``p``.  The division itself runs on an int dividend and a primitive
    divisor; the quotient is scaled back by the ratio of the contents.
    """
    if not p:
        return {}
    g, content = integral_primitive(g)
    scale = 1 / content
    if Fraction in map(type, p.values()):
        p, content = integral_primitive(p)
        scale *= content
    dp = dg = None
    if len(p) >= _DIV_MIN_TERMS and len(g) >= 2:
        dp, dg = _degree(p), _degree(g)
    if dp is None or dg is None:
        q = _packed_div_exact(p, g)
    else:
        q = _kron_div_exact(p, g, dp - dg)
    if q is None or scale == 1:
        return q
    for e, c in q.items():
        c *= scale
        q[e] = c.numerator if c.denominator == 1 else c
    return q


def _packed_div_exact(p, g):
    """Single-divisor reduction in lexicographic order on packed monomials,
    for an int dividend and a primitive divisor (or their big-integer
    encodings).

    Whenever p = q*g the remainder comes out zero and every step divides
    exactly, so None reliably means "not divisible".  A true quotient has
    no exponent above p's degree in that variable, so a quotient term
    that does means None as well; this also bounds every intermediate
    exponent by the largest exponents of p and g.
    """
    degs = [max(col) for col in zip(*p)]
    width = _width(max(degs, default=0) + _top(g))
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
        coeff, rem = divmod(coeff, cg)
        if rem:
            return None
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


# -- the big-integer (Kronecker) encoding ---------------------------------------


def _degree(terms):
    """Total degree of ``terms`` if it is homogeneous with int coefficients
    in at least three variables and holds at least a quarter of all the
    monomials of its degree, else None.

    T-system residuals are nearly dense, and density keeps the encoding
    small: a group with tail degree t spans at most (t+1) * stride slots,
    at most stride times the number of monomials it could hold.  Sparse
    operands, with few pairs of terms meeting in one monomial, are faster
    on the packed path anyway.
    """
    degs = set(map(sum, terms))
    n = len(next(iter(terms)))
    if len(degs) != 1 or n < 3:
        return None
    d = degs.pop()
    if 4 * len(terms) < comb(d + n - 1, n - 1):
        return None
    for c in terms.values():
        if type(c) is not int:
            return None
    return d


def _norms(terms):
    """(max |c|, sum |c|) over the coefficients of ``terms``."""
    mags = list(map(abs, terms.values()))
    return max(mags), sum(mags)


def _groups(terms, nb, stride):
    """``terms`` encoded as {head: tail int}: the head is the first n-3
    exponents, and the tail holds each coefficient of the group at slot
    e[n-3] * stride + e[n-2], in slots of nb bytes."""
    m = len(next(iter(terms))) - 3
    by_head = {}
    for e, c in terms.items():
        head = e[:m]
        slot = e[m] * stride + e[m + 1]
        group = by_head.get(head)
        if group is None:
            by_head[head] = [(slot, c)]
        else:
            group.append((slot, c))
    return {head: _encode(group, nb) for head, group in by_head.items()}


def _offset(nb, count):
    """The int with 2^(8*nb - 1) in each of ``count`` slots of nb bytes."""
    return int.from_bytes(_half(nb) * count, "little")


@lru_cache(maxsize=None)
def _half(nb):
    return (1 << (8 * nb - 1)).to_bytes(nb, "little")


def _encode(group, nb):
    """sum c * 2^(8*nb*slot) over the (slot, c) pairs, for |c| < 2^(8*nb-1)."""
    count = max(s for s, _ in group) + 1
    buf = bytearray(_half(nb) * count)
    half = 1 << (8 * nb - 1)
    for s, c in group:
        buf[s * nb:(s + 1) * nb] = (c + half).to_bytes(nb, "little")
    return int.from_bytes(buf, "little") - _offset(nb, count)


def _decode(v, nb):
    """The base-2^B digits of ``v``, B = 8*nb, each plus 2^(B-1): for the
    one expansion of v with every digit in [-2^(B-1), 2^(B-1)).

    Adding 2^(B-1) to every slot makes all digits non-negative; that one
    addition carries every borrow of the negative digits, so each slot
    can then be read on its own.  A zero digit reads 2^(B-1).
    """
    size = ((v.bit_length() + 1) // (8 * nb) + 1) * nb
    raw = (v + _offset(nb, size // nb)).to_bytes(size, "little")
    return [int.from_bytes(raw[o:o + nb], "little") for o in range(0, size, nb)]


def _kron_mul(a, b, degree):
    """Product of homogeneous int polynomials of total degree summing to
    ``degree``: the packed product of their encodings."""
    m = len(next(iter(a))) - 3
    stride = max(e[m + 1] for e in a) + max(e[m + 1] for e in b) + 1
    (top_a, sum_a), (top_b, sum_b) = _norms(a), _norms(b)
    # Each product coefficient is at most min(top_a*sum_b, sum_a*top_b)
    # in absolute value; one more bit for the sign.
    nb = min(top_a * sum_b, sum_a * top_b).bit_length() // 8 + 1
    product = _packed_mul(_groups(a, nb, stride), _groups(b, nb, stride))
    return _ungroup(product, nb, stride, degree)


def _ungroup(groups, nb, stride, degree):
    """Decoded term dict of {head: tail int} groups, with the last
    exponent completing each term to total degree ``degree``."""
    half = 1 << (8 * nb - 1)
    terms = {}
    tails = {}
    for head, v in groups.items():
        rest = degree - sum(head)
        digits = _decode(v, nb)
        tail = tails.get(rest)
        if tail is None or len(tail) < len(digits):
            tail = tails[rest] = [
                (x, y, rest - x - y) for x in range(len(digits) // stride + 1) for y in range(stride)
            ]
        for s, u in enumerate(digits):
            if u != half:
                terms[head + tail[s]] = u - half
    return terms


def _kron_div_exact(p, g, degree):
    """Exact division of homogeneous int polynomials, ``g`` primitive, the
    quotient of total degree ``degree``: None or the certified quotient.

    The encodings, with slots sized from the coefficients of p and g, go
    through one packed long division.  If p = q*g, q has int coefficients
    (Gauss, as g is primitive), so enc(p) = enc(q)*enc(g): every step of
    the division, one ``divmod`` of the leading remainder group by the
    divisor's leading group, is exact, and no quotient key is negative or
    above p's degree in a head variable, so an inexact step or such a key
    proves failure.  These ``None`` proofs hold at every slot width, as
    encoding is a ring homomorphism.  A quotient that comes out of exact
    steps satisfies enc(p) = enc(q)*enc(g) group by group; it equals p's
    true quotient when the encoding is injective on q*g and on p: every
    tail exponent of q is non-negative, the tail slots of q*g stay below
    the stride (those of p do by the choice of stride), and each
    coefficient of q*g, at most min(max|q| * sum|g|, sum|q| * max|g|),
    fits a signed slot, as each coefficient of p and g does.  A quotient
    that fails this certificate is never returned: the division goes to
    the packed path on p and g themselves.
    """
    if degree < 0:
        return None
    m = len(next(iter(p))) - 3
    stride = max(e[m + 1] for e in p) + 1
    tail_g = max(e[m + 1] for e in g)
    if tail_g >= stride:
        return None  # q*g would exceed p's degree in variable n-1
    top = max(max(map(abs, p.values())), max(map(abs, g.values())))
    nb = (top.bit_length() + 4) // 8 + 1
    q = _packed_div_exact(_groups(p, nb, stride), _groups(g, nb, stride))
    if q is None:
        return None
    terms = _ungroup(q, nb, stride, degree)
    if all(e[-1] >= 0 for e in terms) and max(e[m + 1] for e in terms) + tail_g < stride:
        (top_q, sum_q), (top_g, sum_g) = _norms(terms), _norms(g)
        if min(top_q * sum_g, sum_q * top_g).bit_length() // 8 + 1 <= nb:
            return terms
    return _packed_div_exact(p, g)


def poly_div_linear(p, form, pivot):
    """Exact division of int polynomial ``p`` by the primitive linear form
    ``form`` (no constant term).

    ``pivot`` is an index with form[pivot] != 0.  Returns the quotient term
    dict, or None when the division leaves a remainder.  Works by eliminating
    the pivot variable degree by degree, from the top down.  By Gauss's
    lemma a quotient, when it exists, has int coefficients, so each step
    divides by form[pivot] exactly and a remainder proves failure.
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
                coeff, rem = divmod(coeff, cp)
                if rem:
                    return None
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
