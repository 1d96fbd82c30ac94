"""Sparse polynomial kernel.

Polynomials are plain dicts mapping exponent tuples (length = number of
variables, at least one) to nonzero exact coefficients (int or
fractions.Fraction).  Every exponent is a non-negative int: ``MultiPoly``
and ``RootContext.from_fraction`` check this on input, and the packed
arithmetic below relies on it.  Callers reach these functions through the
module (``kernel.poly_mul``) so that a tracer can wrap them in one place.

There is one product loop, ``_packed_mul``, and one long-division loop,
``_packed_div_exact`` (Monagan & Pearce, CASC 2007 and JSC 46, 2011),
and two loops for linear forms, ``poly_form_product`` and
``poly_div_linear`` (below).  On entry each exponent tuple becomes one
int with one bit field per variable, variable 1 in the most significant
field, so integer order is the lex order of the tuples (the order of
``max`` on tuples, ``integral_primitive`` and ``poly_str``).  Each call
sizes its fields from its inputs: enough bits for the largest exponent
any intermediate term can reach, plus one guard bit on top.  There is no
fixed limit and nothing overflows; only the result is unpacked.  A
product of monomials is one int add.  A difference of monomials borrows
into some guard bit exactly when one of its exponents is negative, which
is the divisibility test of the exact division.  That division keeps the
exponents of its pending remainder in a max-heap and pops the leading
term instead of scanning for it; a term that cancels stays in the heap
and is skipped when it comes up.  A product with a lone constant term
only scales the other operand.  A product of linear forms,
``poly_form_product``, is built on packed monomials as well, one
shift-and-add pass per factor, so no caller needs to know how monomials
are packed.  Division by one linear form, ``poly_div_linear``,
eliminates a pivot variable degree by degree on the exponent tuples.  It
stays beside ``_packed_div_exact`` because a linear divisor needs
neither packing nor a heap: on the root-form divisions of one seed-1
round of each benchmark workload (47, 145, 485 and 39 calls) it took
0.49-0.89 of the time that ``_packed_div_exact`` took on the same
inputs, with equal quotients (Python 3.11, 2-core x86-64 VM).

Each division step is one integer ``divmod`` by the divisor's leading
coefficient, and a nonzero remainder proves that the divisor does not
divide: ``poly_div_exact`` makes the divisor primitive and the dividend
integral first, and by Gauss's lemma an int polynomial's quotient by a
primitive one, when it exists, has int coefficients.

Every sum of products is formed in one place, ``poly_sum_div``, which
also divides it exactly when given a divisor; ``poly_mul`` and
``poly_div_exact`` are the plain loops.  One gate, ``gate``, sends a
large sum of homogeneous int products, the shape of T-system residuals,
through the same two loops on big integers (Kronecker substitution on a
dense tail: Fateman, "Can you save time in multiplying polynomials by
encoding them as integers?", 2010; Harvey, JSC 44, 2009).  Its largest
product must have at least ``_MUL_MIN_PAIRS`` pairs of terms and at
least ``_MUL_MIN_TERMS`` terms against its largest factor, or, for a sum
divided by a divisor of two or more terms, at least ``_DIV_MIN_TERMS``
terms; and it must be able to fill a quarter of the monomials of its
degree.  Below these sizes, measured on the E6 and D8 T-system operands,
the plain loops are as fast or faster.  On the encoding, ``_kron``
encodes every factor once, forms the products, their sum and the
quotient on the encodings, and decodes only the result.
The terms are grouped by their first n-3 exponents (the head); a group's
tail becomes one int with one signed slot of B = 8*nb bits for each
(e[n-3], e[n-2]), at slot e[n-3]*stride + e[n-2], the last exponent
following from the degree.  An operand so encoded is a dict {head: tail
int}, which the two loops take as they take a polynomial.  Encoding is
evaluation at powers of two, a ring homomorphism, so the loops' product
of two coefficients is the product of two groups and their exact step
the division of two groups; decoding reads the balanced base-2^B digits.
Each slot is written as nb little-endian bytes into a ``bytearray`` of
empty slots, whatever nb is, and the offset that keeps every slot
non-negative comes off the whole group at once.  Decoding widens slots
of up to 8 bytes to machine ints a byte plane at a time (slice
assignment) and reads them as an ``array`` in the host's byte order;
wider slots are read one by one.  The arrays stay because they pay: on
the 9 decodes of a seed-1 tsystem-e6 round, reading every slot on its
own took 11.8 ms against 8.1 ms (medians of 15 alternating replays,
Python 3.11, 2-core x86-64 VM).
The encoding is injective on polynomials whose coefficients satisfy
|c| < 2^(B-1) and whose e[n-2] stays below the stride.  Slots are sized
from the inputs: no coefficient of a product a*b exceeds
min(max|a| * sum|b|, sum|a| * max|b|), and a sum's coefficients are
bounded by the sum of its products' bounds.  A quotient is certified by
the same bound with max|q| and sum|q|, plus non-negative decoded
exponents and tail slots of q*g below the stride; a quotient is never
returned uncertified: when that check fails, the dividend is decoded and
divided again on the packed path.  A divisor may be given factored, as a
residual D times powers of linear forms (the root forms of an exchange
step): each factor is encoded once and the encodings are multiplied, so
the divisor is never multiplied out on packed monomials, and the slot
and certificate bounds are taken over its factors.
"""

import heapq
import sys
from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import comb, gcd, lcm, prod

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


def poly_eval(terms, point):
    """Exact value of ``terms`` at a point of rationals, as a Fraction.

    The point's denominators are cleared once, by their lcm d: each term
    c * x^e is c * X^e / d^deg(e) with X = d * x integral, so the terms
    scaled by d^(top - deg), top the largest degree, sum over ints (for
    int c) and the sum is divided by d^top once.
    """
    point = [Fraction(x) for x in point]
    d = lcm(*(x.denominator for x in point))
    xs = [x.numerator * (d // x.denominator) for x in point]
    top = max(map(sum, terms), default=0)
    total = 0
    for e, c in terms.items():
        v = c if d == 1 else c * d ** (top - sum(e))
        for x, k in zip(xs, e):
            if k:
                v *= x**k
        total += v
    return Fraction(total) / d**top


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


@lru_cache(maxsize=1 << 12)
def _form(coords, width):
    """The linear form ``coords`` packed at field ``width``: one
    (1 << field shift, coordinate) pair per nonzero coordinate."""
    shifts, _, _ = _layout(len(coords), width)
    return tuple((1 << s, c) for s, c in zip(shifts, coords) if c)


def poly_form_product(n, forms, scale=1):
    """``scale`` times the product of coords ^ e over the (coords, e)
    pairs of linear forms in n variables with e > 0.

    The product runs on packed monomials, fields sized from its degree,
    starting from the constant ``scale``: each factor adds every term
    shifted into each of the form's fields, times its coordinate.  Packed
    forms come from one table, ``_form``, kept per form and field width.
    """
    forms = [(coords, e) for coords, e in forms if e > 0]
    width = _width(sum(e for _, e in forms))
    out = {0: scale}
    for coords, e in forms:
        step = _form(coords, width)
        for _ in range(e):
            nxt = {}
            get = nxt.get
            for k, c in out.items():
                for shift, a in step:
                    nxt[k + shift] = get(k + shift, 0) + c * a
            out = nxt
    shifts, mask, _ = _layout(n, width)
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
    q = _packed_div_exact(p, g)
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
    in at least three variables, else None."""
    degs = set(map(sum, terms))
    if len(degs) != 1 or len(next(iter(terms))) < 3:
        return None
    for c in terms.values():
        if type(c) is not int:
            return None
    return degs.pop()


def _bound(factors):
    """Bound on |c| over the product of the (terms, exp) ``factors``: the
    least over one factor of its max |c| times the others' sums of |c|."""
    norms = []
    for f, k in factors:
        mags = list(map(abs, f.values()))
        norms += [(max(mags), sum(mags))] * k
    total = prod(s for _, s in norms)
    return min(top * (total // s) for top, s in norms)


def _divisor(g):
    """The (terms, exp) factors of a divisor: none for None, (g, 1) for a
    term dict, and for a factored (D, forms) (D, 1), unless D is None,
    and one per (coords, b >= 1) linear form."""
    if g is None:
        return []
    if type(g) is not tuple:
        return [(g, 1)]
    d, forms = g
    factors = [] if d is None else [(d, 1)]
    for coords, b in forms:
        n = len(coords)
        factors.append(({tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coords) if c}, b))
    return factors


def _expand(factors):
    """The product of the (terms, exp) ``factors`` on packed monomials."""
    return reduce(poly_mul, [poly_pow(f, k) for f, k in factors])


_ASK = object()


def poly_sum_div(products, g=None, degree=_ASK):
    """The sum over ``products`` of the product of each list of (terms,
    exp >= 1) factors, divided exactly by the primitive int ``g`` unless g
    is None: the result, or None when g does not divide.  A sum to be
    divided must have int coefficients.

    A sum that passes ``gate`` is formed and divided on the big-integer
    encoding.  Any other is folded with ``poly_mul`` and ``poly_add``; a
    sum equal to g gives 1 without a division, as do most mutation steps,
    and ``_packed_div_exact`` divides the rest.  A caller that has asked
    the gate already passes its answer as ``degree``, None or the
    quotient's total degree, so that no sum is gated twice; the encoding
    then divides by whatever homogeneous g the caller gives.

    The divisor may come factored, as a tuple (D, forms): a primitive int
    D, or None for none, times each linear form coords ^ b over the
    (coords, b >= 1) pairs ``forms``, the shape ``poly_form_product``
    takes.  The encoding never multiplies it out (see ``_kron``); the
    packed path does, as one product.  A factored divisor comes with the
    caller's ``degree``, as the gate reads term dicts only.
    """
    if degree is _ASK:
        degree = gate(products, g)
    if degree is not None:
        return _kron(products, g, degree)
    total = None
    for fs in products:
        term = _expand(fs)
        total = term if total is None else poly_add(total, term)
    divisor = _divisor(g)
    if not divisor or not total:
        return total
    g = _expand(divisor)
    if total == g:
        return {(0,) * len(next(iter(g))): 1}
    return _packed_div_exact(total, g)


def gate(products, g=None):
    """Total degree of ``poly_sum_div``'s result if its sum goes on the
    encoding, else None.

    The size of a product, read against the thresholds in the module
    docstring, is the product of its factors' term counts.  The density
    test keeps the encoding small: a group with tail degree t spans at
    most (t+1) * stride slots, at most stride times the number of
    monomials it could hold, and sparse operands, with few pairs of terms
    meeting in one monomial, are faster on the packed path anyway.  Every
    factor and g must be homogeneous int polynomials in at least three
    variables, one total degree for all products.
    """
    size = 0
    for fs in products:
        s = 1
        for f, k in fs:
            s *= len(f) ** k
        if s > size:
            size, largest = s, fs
    if g is None or len(g) < 2 or size < _DIV_MIN_TERMS:
        if size < _MUL_MIN_PAIRS or size // max(len(f) for f, _ in largest) < _MUL_MIN_TERMS:
            return None
    degrees = set()
    for fs in products:
        ds = [_degree(f) for f, _ in fs]
        if None in ds:
            return None
        degrees.add(sum(d * k for d, (_, k) in zip(ds, fs)))
    degree, n = max(degrees), len(next(iter(products[0][0][0])))
    if len(degrees) != 1 or 4 * size < comb(degree + n - 1, n - 1):
        return None
    if g is None:
        return degree
    dg = _degree(g)
    return None if dg is None else degree - dg


def _kron(products, g, degree):
    """The sum over ``products`` of the product of each list of (terms,
    exp) factors, all homogeneous int, divided exactly by the primitive
    ``g``, a term dict or factored (D, forms) as in ``poly_sum_div``,
    unless g is None: the result, of total degree ``degree``, or None when
    g does not divide.

    Each factor is encoded once, at the largest sum of tail exponents of a
    product plus 1 as stride.  If the sum is q*g, q has int coefficients
    (Gauss), so enc(sum) = enc(q)*enc(g) and every step of the packed
    division of the groups is exact, with no quotient key negative or
    above the sum's degree in a head variable; an inexact step or such a
    key proves failure at any slot width, as encoding is a ring
    homomorphism.  A quotient from exact steps is the true one when the
    encoding is injective on the sum (so the slots are sized) and on q*g:
    the certificate checks that q's exponents are non-negative, that the
    tail slots of q*g stay below the stride, and that q*g's coefficient
    bound fits a slot.  Failing it, the sum is decoded and divided on the
    packed path.

    A divisor is taken as its factors: D and each linear form are encoded
    once and their encodings multiplied, which is the encoding of their
    product, since encoding is a ring homomorphism; only the certificate's
    fallback multiplies the factors out.  The slots, q*g's tail degree
    (the sum of the factors' tail degrees, each times its exponent) and
    the certificate's bound are all read from the factors, and the bound
    over a product's factors is no less than the bound over the product.
    """
    m = len(next(iter(products[0][0][0]))) - 3
    stride = max(sum(max(e[m + 1] for e in f) * k for f, k in fs) for fs in products) + 1
    top = sum(map(_bound, products))
    divisor = _divisor(g)
    if not divisor:
        nb = top.bit_length() // 8 + 1
    else:
        tail_g = sum(max(e[m + 1] for e in f) * k for f, k in divisor)
        nb = (max(top, _bound(divisor)).bit_length() + 4) // 8 + 1
    total = {}
    for fs in products:
        total = poly_add(total, _encode(fs, nb, stride))
    if not divisor:
        return _ungroup(total, nb, stride, degree)
    if not total:
        return {}
    if degree < 0 or tail_g >= stride:
        return None  # q*g would exceed the sum's degree in variable n-1
    q = _packed_div_exact(total, _encode(divisor, nb, stride))
    if q is None:
        return None
    terms = _ungroup(q, nb, stride, degree)
    if all(e[-1] >= 0 for e in terms) and max(e[m + 1] for e in terms) + tail_g < stride:
        if _bound([(terms, 1), *divisor]).bit_length() // 8 + 1 <= nb:
            return terms
    g = _expand(divisor)
    return _packed_div_exact(_ungroup(total, nb, stride, degree + sum(next(iter(g)))), g)


def _encode(factors, nb, stride):
    """The product of the (terms, exp) ``factors``, each encoded once."""
    return reduce(_packed_mul, [x for f, k in factors for x in [_groups(f, nb, stride)] * k])


@lru_cache(maxsize=None)
def _machine(nb):
    """(typecode, size, native index of each little-endian byte) of the
    smallest unsigned ``array`` item of at least nb bytes, or None."""
    for code in "BHILQ":
        size = array(code).itemsize
        if size >= nb:
            order = range(nb) if sys.byteorder == "little" else range(size - 1, size - 1 - nb, -1)
            return code, size, list(enumerate(order))
    return None


def _groups(terms, nb, stride):
    """Homogeneous ``terms`` encoded as {head: tail int}: the head is the
    first n-3 exponents, and the tail holds each coefficient of the group
    at slot e[n-3] * stride + e[n-2], in slots of nb bytes; a group of
    tail degree t has t * stride + 1 slots.

    Each group starts as empty slots, 2^(B-1) each, B = 8*nb; a term
    writes its coefficient plus 2^(B-1) into its slot as nb little-endian
    bytes, and the offset comes off the whole group once.
    """
    first = next(iter(terms))
    m, degree, half = len(first) - 3, sum(first), 1 << (8 * nb - 1)
    by_head = {}
    for e, c in terms.items():
        head = e[:m]
        raw = by_head.get(head)
        if raw is None:
            raw = by_head[head] = bytearray(_half(nb) * ((degree - sum(head)) * stride + 1))
        k = (e[m] * stride + e[m + 1]) * nb
        raw[k:k + nb] = (c + half).to_bytes(nb, "little")
    return {
        head: int.from_bytes(raw, "little") - _offset(nb, len(raw) // nb)
        for head, raw in by_head.items()
    }


def _offset(nb, count):
    """The int with 2^(8*nb - 1) in each of ``count`` slots of nb bytes."""
    return int.from_bytes(_half(nb) * count, "little")


@lru_cache(maxsize=None)
def _half(nb):
    return (1 << (8 * nb - 1)).to_bytes(nb, "little")


def _decode(v, nb):
    """The base-2^B digits of ``v``, B = 8*nb, each plus 2^(B-1): for the
    one expansion of v with every digit in [-2^(B-1), 2^(B-1)).

    Adding 2^(B-1) to every slot makes all digits non-negative; that one
    addition carries every borrow of the negative digits, so each slot
    can then be read on its own: widened to machine items a byte plane
    at a time and read as an ``array``.  A zero digit reads 2^(B-1).
    """
    count = (v.bit_length() + 1) // (8 * nb) + 1
    raw = (v + _offset(nb, count)).to_bytes(count * nb, "little")
    machine = _machine(nb)
    if machine is None:
        return [int.from_bytes(raw[o:o + nb], "little") for o in range(0, count * nb, nb)]
    code, size, planes = machine
    wide = bytearray(size * count)
    for k, plane in planes:
        wide[plane::size] = raw[k::nb]
    return memoryview(wide).cast(code).tolist()


def _ungroup(groups, nb, stride, degree):
    """Decoded term dict of {head: tail int} groups, with the last
    exponent completing each term to total degree ``degree``: the digit
    of slot k, less 2^(B-1), is the coefficient of the tail (x, y) with
    x * stride + y = k."""
    half = 1 << (8 * nb - 1)
    terms = {}
    for head, v in groups.items():
        rest = degree - sum(head)
        for k, u in enumerate(_decode(v, nb)):
            if u != half:
                x, y = divmod(k, stride)
                terms[head + (x, y, rest - x - y)] = u - half
    return terms


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
