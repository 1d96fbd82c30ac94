import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, zip_longest
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krtorus.cartan import build_frame
from krtorus.cluster import initial_seed, mutate
from krtorus.errors import InvalidInputError
from krtorus.field import MultiPoly, kernel, rational
from krtorus.field.poly import integral_primitive
from krtorus.field.rational import RootContext, RootRational
from krtorus.suites import run_suite
from krtorus.torusmap import TorusMorphism

from oracles import (
    evaluate_terms,
    exchange_by_composition,
    sum_by_common_denominator,
    vanishing_order,
)


@pytest.fixture(scope="module")
def ctx():
    return build_frame("A", 3).root_context


def poly_dicts(n=3, max_terms=4, max_exp=3, max_coeff=5, min_size=0, exp=None, coeffs=None):
    exps = st.tuples(*[st.integers(0, max_exp) if exp is None else exp] * n)
    if coeffs is None:
        coeffs = st.integers(-max_coeff, max_coeff).filter(lambda c: c != 0)
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_terms)


# Coefficients with denominators; some are integral Fractions.
FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


# -- kernels -------------------------------------------------------------


def test_kernel_mul_hand_value():
    a = {(1, 0): 1, (0, 1): 1}  # x + y
    b = {(1, 0): 1, (0, 1): -1}  # x - y
    assert kernel.poly_mul(a, b) == {(2, 0): 1, (0, 2): -1}


def test_kernel_div_linear_exact_and_failing():
    form = (1, 1, 0)  # x + y
    p = kernel.poly_mul({(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 0, 2): 3, (1, 1, 1): -2})
    q = kernel.poly_div_linear(p, form, 1)
    assert q == {(0, 0, 2): 3, (1, 1, 1): -2}
    assert kernel.poly_div_linear({(1, 0, 0): 1}, form, 1) is None
    # Pivot coefficient 2: the first step, 1 / 2, is already inexact.
    assert kernel.poly_div_linear({(0, 0, 1): 1}, (0, 1, 2), 2) is None
    # A product plus a monomial, 2z * (y + 2z) + x: each step is exact,
    # and x is left over.
    p = kernel.poly_mul({(0, 0, 1): 2}, {(0, 1, 0): 1, (0, 0, 1): 2})
    p = kernel.poly_add(p, {(1, 0, 0): 1})
    assert kernel.poly_div_linear(p, (0, 1, 2), 2) is None


POINTS = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=3, max_size=3
)


@given(
    terms=st.one_of(poly_dicts(), poly_dicts(n=3, max_terms=6, coeffs=FRACTIONS)),
    point=st.lists(
        st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)),
        min_size=3,
        max_size=3,
    ),
)
@example(terms={(2, 0, 1): 3, (0, 1, 0): Fraction(-1, 2), (0, 0, 0): 5},
         point=[Fraction(1, 3), 0, Fraction(-5, 2)])
@settings(max_examples=150, deadline=None)
def test_poly_eval_matches_term_loop(terms, point):
    # Int and Fraction coefficients, terms of mixed degree, coordinates
    # negative, zero or with denominators.
    want = evaluate_terms(terms, point)
    got = kernel.poly_eval(terms, point)
    assert type(got) is Fraction and got == want
    assert MultiPoly(3, terms).evaluate(point) == want


@given(a=poly_dicts(), b=poly_dicts(), point=POINTS)
@settings(max_examples=60, deadline=None)
def test_kernel_mul_add_commute_with_evaluation(a, b, point):
    # Independent oracle: exact evaluation, term by term, at a rational point.
    va, vb = evaluate_terms(a, point), evaluate_terms(b, point)
    assert evaluate_terms(kernel.poly_mul(a, b), point) == va * vb
    assert evaluate_terms(kernel.poly_add(a, b), point) == va + vb
    assert all(kernel.poly_add(a, b).values())
    assert all(kernel.poly_mul(a, b).values())


FORMS3 = st.sampled_from(
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (1, 2, 0), (0, 1, 2)]
)


@given(p=poly_dicts(), form=FORMS3)
@settings(max_examples=60, deadline=None)
def test_kernel_div_linear_inverts_mul(p, form):
    pivot = max(i for i, c in enumerate(form) if c)
    product = kernel.poly_mul(p, {e: c for e, c in zip(
        [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)], form
    ) if c})
    got = kernel.poly_div_linear(product, form, pivot)
    if p:
        assert got == p
    else:
        assert got == {}


@given(
    p=poly_dicts() | poly_dicts(coeffs=FRACTIONS),
    g=poly_dicts(min_size=1) | poly_dicts(min_size=1, coeffs=FRACTIONS),
)
@settings(max_examples=60, deadline=None)
def test_kernel_div_exact_inverts_mul(p, g):
    product = kernel.poly_mul(p, g)
    got = kernel.poly_div_exact(product, g)
    if p:
        assert got == p
    else:
        assert got == {}


@given(p=poly_dicts(), g=poly_dicts(min_size=2), m=poly_dicts(min_size=1, max_terms=1))
@settings(max_examples=60, deadline=None)
def test_kernel_div_exact_refuses_product_plus_monomial(p, g, m):
    # p*g + m = q*g would make the monomial m = (q - p)*g, which has at
    # least two terms when q != p, since g has two.
    assert kernel.poly_div_exact(kernel.poly_add(kernel.poly_mul(p, g), m), g) is None


def tuple_product(a, b):
    """Reference product: one exponent tuple per pair of terms."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# Exponents at the edges of packed field widths, mixed with small ones.
EDGE_EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from(
        sorted({2**k - 1 for k in (1, 2, 3, 7, 8, 31, 32, 63, 64)}
               | {2**k for k in (1, 2, 3, 7, 8, 31, 32, 40, 63, 64, 70)})
    ),
)


@given(p=poly_dicts(exp=EDGE_EXPONENTS), g=poly_dicts(min_size=1, exp=EDGE_EXPONENTS))
@settings(max_examples=80, deadline=None)
def test_kernel_round_trips_at_width_edges(p, g):
    product = kernel.poly_mul(p, g)
    assert product == tuple_product(p, g)
    assert kernel.poly_div_exact(product, g) == p
    if len(g) >= 2:
        m = {max(g): 1}
        assert kernel.poly_div_exact(kernel.poly_add(product, m), g) is None


@given(
    p=poly_dicts(min_size=1, exp=EDGE_EXPONENTS)
    | poly_dicts(min_size=1, exp=EDGE_EXPONENTS, coeffs=FRACTIONS),
    g=poly_dicts(min_size=1, max_terms=1, exp=EDGE_EXPONENTS)
    | poly_dicts(min_size=1, max_terms=1, exp=EDGE_EXPONENTS, coeffs=FRACTIONS),
)
@example(p={(14, 0, 0): -1, (3, 0, 0): 3}, g={(4, 0, 0): 1})
@example(p={(2, 1, 0): Fraction(3, 4), (1, 0, 1): 2}, g={(1, 0, 0): Fraction(-2, 3)})
@settings(max_examples=80, deadline=None)
def test_kernel_div_exact_by_monomial(p, g):
    (eg, cg), = g.items()
    got = kernel.poly_div_exact(p, g)
    if all(x >= y for e in p for x, y in zip(e, eg)):
        assert got == {tuple(x - y for x, y in zip(e, eg)): Fraction(c, cg) for e, c in p.items()}
    else:
        assert got is None


@given(
    c=st.one_of(
        st.integers(-9, 9).filter(bool),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    ),
    b=poly_dicts(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_constant_operand_matches_general_product(c, b):
    const = {(0, 0, 0): c}
    assert kernel.poly_mul(const, b) == tuple_product(const, b)
    assert kernel.poly_mul(b, const) == tuple_product(b, const)
    if b:
        # One more term sends the same product through the general path.
        x = {(0, 0, 0): c, (5, 0, 0): 1}
        shifted = kernel.poly_mul({(5, 0, 0): 1}, b)
        assert kernel.poly_mul(x, b) == kernel.poly_add(kernel.poly_mul(const, b), shifted)


# -- the big-integer (Kronecker) path of the kernel -----------------------


def dense(rnd, n, degree, fill, coeff):
    """Each monomial of total degree ``degree`` in n variables with
    probability ``fill``, with coefficient ``coeff(rnd)``: homogeneous,
    and for fill >= 1/2 about as dense as T-system residuals, which the
    big-integer path needs; most dense tails still have empty slots."""
    terms = {}
    for picks in combinations_with_replacement(range(n), degree):
        if rnd.random() < fill:
            terms[tuple(picks.count(i) for i in range(n))] = coeff(rnd)
    return terms


KRON_COEFFS = {
    "unit": lambda r: r.choice([-1, 1]),
    "small": lambda r: r.choice([-1, 1]) * r.randint(1, 9),
    "wide": lambda r: r.choice([-1, 1]) * r.randint(1, 2**70),
    "negative": lambda r: -r.randint(1, 2**20),
}

# (degree of the small operand, degree of the large one) per number of
# variables: about 20 and 600 terms at the fills below, so that products
# cross the size thresholds of the big-integer path.  For n = 3 every
# operand is one group (no head variables); n = 4 has a one-variable head.
KRON_MUL_DEGREES = {3: (7, 50), 4: (4, 17), 5: (3, 11), 6: (3, 8)}


def on_kron_path(a, b):
    return kernel.gate([[(a, 1), (b, 1)]], None) is not None


@given(
    n=st.sampled_from(sorted(KRON_MUL_DEGREES)),
    mode=st.sampled_from(sorted(KRON_COEFFS)),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_kronecker_mul_matches_packed(n, mode, seed):
    rnd = random.Random(seed)
    da, db = KRON_MUL_DEGREES[n]
    a = dense(rnd, n, da, 0.7, KRON_COEFFS[mode])
    b = dense(rnd, n, db, 0.55, KRON_COEFFS[mode])
    assume(on_kron_path(a, b))
    with mock.patch.object(kernel, "_kron", wraps=kernel._kron) as spy:
        got = kernel.poly_sum_div([[(a, 1), (b, 1)]])
    assert spy.called
    assert got == kernel._packed_mul(a, b)


@given(
    n=st.sampled_from(sorted(KRON_MUL_DEGREES)),
    k=st.integers(3, 9),
    signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=20, deadline=None)
def test_kronecker_mul_at_slot_width_edges(n, k, signs, seed):
    # One term of each operand is large, T = 2^(4k) and T' = 2^(4k-1) + 1,
    # the others +-1.  The slots are sized from the bound
    # min(max|a| * sum|b|, sum|a| * max|b|), which then has a bit length
    # of 8k: k+1 bytes with the sign bit.  The product of the two large
    # terms, about T * T' >= 2^(8k-1), would not fit a k-byte slot, one
    # bit short of the bound.
    rnd = random.Random(seed)
    da, db = KRON_MUL_DEGREES[n]
    a = dense(rnd, n, da, 0.7, KRON_COEFFS["unit"])
    b = dense(rnd, n, db, 0.55, KRON_COEFFS["unit"])
    assume(on_kron_path(a, b))
    ea, eb = rnd.choice(sorted(a)), rnd.choice(sorted(b))
    a[ea], b[eb] = signs[0] * ((1 << (4 * k - 1)) + 1), signs[1] << (4 * k)
    bound = min(
        max(map(abs, a.values())) * sum(map(abs, b.values())),
        sum(map(abs, a.values())) * max(map(abs, b.values())),
    )
    assert bound.bit_length() == 8 * k
    with mock.patch.object(kernel, "_kron", wraps=kernel._kron) as spy:
        got = kernel.poly_sum_div([[(a, 1), (b, 1)]])
    assert spy.called
    assert abs(got[tuple(x + y for x, y in zip(ea, eb))]) >= 1 << (8 * k - 1)
    assert got == kernel._packed_mul(a, b)


# (degree of q, degree of g) per number of variables: p = q*g has at least
# a thousand terms.
KRON_DIV_DEGREES = {3: (25, 25), 4: (9, 9), 5: (6, 6), 6: (4, 5)}


@given(
    n=st.sampled_from(sorted(KRON_DIV_DEGREES)),
    mode=st.sampled_from(sorted(KRON_COEFFS)),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=15, deadline=None)
def test_kronecker_div_exact_matches_packed(n, mode, seed):
    rnd = random.Random(seed)
    dq, dg = KRON_DIV_DEGREES[n]
    q = dense(rnd, n, dq, 0.6, KRON_COEFFS[mode])
    g = dense(rnd, n, dg, 0.6, KRON_COEFFS[mode])
    g[min(g)] = 1  # primitive
    p = kernel._packed_mul(q, g)
    assume(len(p) >= kernel._DIV_MIN_TERMS and kernel.gate([[(p, 1)]], g) is not None)
    m = {min(p): 1}
    with mock.patch.object(kernel, "_kron", wraps=kernel._kron) as spy:
        assert kernel.poly_sum_div([[(p, 1)]], g) == q
        # q*g + m for a monomial m of the same degree stays on the
        # big-integer path; it is not divisible (m = (q' - q)*g would need
        # g to be a monomial).
        assert kernel.poly_sum_div([[(kernel.poly_add(p, m), 1)]], g) is None
        assert spy.call_count == 2
    assert kernel.poly_div_exact(p, g) == q
    assert kernel._packed_div_exact(kernel.poly_add(p, m), g) is None
    # Adding 1 at p's leading monomial changes only p's leading group by a
    # power of two.  When g's leading group has two or more terms, its
    # encoding is no power of two and cannot divide that change, so the
    # division fails at its first step.
    top = kernel.poly_add(p, {max(p): 1})
    assert kernel.poly_div_exact(top, g) is None
    with mock.patch.object(kernel, "divmod", create=True, wraps=divmod) as steps:
        assert kernel._kron([[(top, 1)]], g, dq) is None
    lead_head = max(e[:n - 3] for e in g)
    if sum(e[:n - 3] == lead_head for e in g) >= 2:
        assert steps.call_count == 1
    # A term of another degree makes the dividend inhomogeneous, which
    # the packed path divides (and refuses).
    inhomogeneous = kernel.poly_add(p, {(0,) * n: 1})
    assert kernel.gate([[(inhomogeneous, 1)]], g) is None
    assert kernel.poly_sum_div([[(inhomogeneous, 1)]], g) is None


def telescoping_division(K, r):
    """p = (x - z) * q in variables (w, x, y, z), with p's coefficients all
    +1 or -1 and q's up to K: q = Q(x, z) * R(w, y), where Q's
    coefficients are the partial sums 1, 2, .., K, .., 2, 1 of K ones
    followed by K minus ones, and R = sum w^i y^(r-i).  Far from dense,
    so poly_sum_div divides it on the packed path; the tests below call
    the big-integer division, _kron, directly."""
    Q = {(2 * K - 2 - i, i): min(i + 1, 2 * K - 1 - i) for i in range(2 * K - 1)}
    R = [(i, r - i) for i in range(r + 1)]
    q = {(w, x, y, z): c for (x, z), c in Q.items() for w, y in R}
    g = {(0, 1, 0, 0): 1, (0, 0, 0, 1): -1}
    return tuple_product(q, g), g, q


def kronecker_packed_calls(K):
    """Divide telescoping_division(K, 4) with _kron, spying on
    _packed_div_exact; its first call divides the one-byte encodings."""
    p, g, q = telescoping_division(K, 4)
    assert set(p.values()) == {1, -1}
    assert kernel.gate([[(p, 1)]], g) is None
    packed = kernel._packed_div_exact
    with mock.patch.object(kernel, "_packed_div_exact", wraps=packed) as spy:
        assert kernel._kron([[(p, 1)]], g, sum(next(iter(q)))) == q
    stride = max(e[2] for e in p) + 1
    encoded = (kernel._groups(p, 1, stride), kernel._groups(g, 1, stride))
    assert spy.call_args_list[0].args == encoded
    return p, g, [c.args for c in spy.call_args_list]


def test_kronecker_div_exact_certifies_before_returning():
    # p's coefficients are all +1 or -1, so the slots are one byte, and
    # q's coefficients up to 200 cannot be read back from them, though
    # every integer division in the encoding is exact.  The uncertified
    # quotient must not be returned: a second division follows.  Up to
    # 50, q is certified at one byte and returned.
    assert len(kronecker_packed_calls(200)[2]) == 2
    assert len(kronecker_packed_calls(50)[2]) == 1


def test_kronecker_div_exact_hands_over_to_packed_path():
    # A quotient that fails its certificate is divided again on the
    # packed path, on p and g themselves.
    for K in (150, 200):
        p, g, calls = kronecker_packed_calls(K)
        assert calls[1:] == [(p, g)]


def test_sparse_operands_stay_on_the_packed_path():
    # Homogeneous int operands far from dense in their degree would
    # encode to mostly empty slots (here 2^40 bytes for one group).  They
    # pass the size thresholds, and the gate refuses them on density.
    big = 2**40
    a = {(0, i, big - i): 1 + i for i in range(40)}
    b = {(i, big - i, 0): -1 - i for i in range(300)}
    assert len(a) >= kernel._MUL_MIN_TERMS and len(a) * len(b) >= kernel._MUL_MIN_PAIRS
    with mock.patch.object(kernel, "_groups", wraps=kernel._groups) as spy:
        product = kernel.poly_sum_div([[(a, 1), (b, 1)]])
        assert product == tuple_product(a, b)
        assert len(product) >= kernel._DIV_MIN_TERMS
        assert kernel.poly_sum_div([[(product, 1)]], b) == a
    assert not spy.called


def test_plain_loops_never_encode():
    # poly_mul and poly_div_exact are the packed loops alone, even on
    # operands that poly_sum_div would encode.
    rnd = random.Random(5)
    a = dense(rnd, 4, 4, 0.7, KRON_COEFFS["small"])
    b = dense(rnd, 4, 17, 0.55, KRON_COEFFS["small"])
    b[min(b)] = 1  # primitive
    assert on_kron_path(a, b)
    with mock.patch.object(kernel, "_groups", wraps=kernel._groups) as spy:
        p = kernel.poly_mul(a, b)
        assert kernel.gate([[(p, 1)]], b) is not None
        assert kernel.poly_div_exact(p, b) == a
        assert kernel.poly_div_exact(kernel.poly_add(p, {min(p): 1}), b) is None
    assert not spy.called
    assert p == tuple_product(a, b)


def test_gate_refuses_fraction_coefficients():
    # Operands that pass every size and density test stay on the packed
    # path once one coefficient is a Fraction: the encoding holds ints.
    rnd = random.Random(5)
    a = dense(rnd, 4, 4, 0.7, KRON_COEFFS["small"])
    b = dense(rnd, 4, 17, 0.55, KRON_COEFFS["small"])
    assert on_kron_path(a, b)
    a[min(a)] = Fraction(1, 3)
    assert kernel._degree(a) is None and kernel._degree(b) == 17
    assert not on_kron_path(a, b)
    with mock.patch.object(kernel, "_groups", wraps=kernel._groups) as spy:
        assert kernel.poly_sum_div([[(a, 1), (b, 1)]]) == kernel.poly_mul(a, b)
    assert not spy.called


def test_encoded_division_early_returns():
    rnd = random.Random(11)
    p = dense(rnd, 3, 4, 0.8, KRON_COEFFS["small"])
    g = dense(rnd, 3, 2, 0.8, KRON_COEFFS["small"])
    g[min(g)] = 1  # primitive
    minus_p = {e: -c for e, c in p.items()}
    # A sum that cancels to zero is divisible, with quotient 0.
    products = [[(p, 1), (g, 1)], [(minus_p, 1), (g, 1)]]
    assert kernel._kron(products, g, 4) == {} == kernel.poly_div_exact(fold_sum(products), g)
    # The next two return None before any division is tried.  A nonzero
    # sum of lower degree than g (g's tail exponent 1 stays below the
    # stride 2, so the degree alone decides):
    low = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): -1}
    wide = {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 3}
    # and a g that reaches a higher exponent of the second-to-last
    # variable than any term of the sum holds (its tail passes the stride):
    flat = {e: c for e, c in p.items() if e[1] <= 1}
    tall = {(0, 3, 0): 1, (1, 0, 2): -1, (2, 1, 0): 2}
    for total, divisor, degree in ((low, wide, -1), (flat, tall, 1)):
        with mock.patch.object(kernel, "_packed_div_exact") as divide:
            assert kernel._kron([[(total, 1)]], divisor, degree) is None
        assert not divide.called
        assert kernel.poly_div_exact(total, divisor) is None


def fold_sum(products):
    """Reference sum of products of (terms, exp) factors, by poly_mul and poly_add."""
    total = {}
    for factors in products:
        product = {(0,) * len(next(iter(factors[0][0]))): 1}
        for f, k in factors:
            for _ in range(k):
                product = kernel.poly_mul(product, f)
        total = kernel.poly_add(total, product)
    return total


@given(
    n=st.integers(3, 6),
    shape=st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), min_size=1, max_size=3),
                   min_size=1, max_size=2),
    mode=st.sampled_from(sorted(KRON_COEFFS)),
    divisible=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(n=3, shape=[[(0, 1)]], mode="negative", divisible=False, seed=77560)
@settings(max_examples=40, deadline=None)
def test_encoded_sum_division_matches_folded_division(n, shape, mode, divisible, seed):
    # One or two products of one to three dense homogeneous factors (each
    # of degree 0-2, to the power 1 or 2) over g, on the big-integer
    # encoding, against poly_div_exact of the sum that poly_mul and
    # poly_add fold.  The factors of a product are padded with linear
    # ones so that every product has one degree.  When ``divisible``, g is
    # a further factor of every product, so g divides the sum; otherwise a
    # monomial of the sum's degree is added to a multiple of g, which no g
    # of two or more terms divides.
    rnd = random.Random(seed)
    coeff = KRON_COEFFS[mode]
    g = dense(rnd, n, rnd.randint(1, 2), 0.7, coeff)
    assume(len(g) >= 2)
    g[min(g)] = 1  # primitive
    degree = max(sum(d * k for d, k in factors) for factors in shape)
    products = []
    for factors in shape:
        fs = [(dense(rnd, n, d, 0.7, coeff) or {(d,) + (0,) * (n - 1): 1}, k) for d, k in factors]
        fs += [(dense(rnd, n, 1, 1, coeff), 1)] * (degree - sum(d * k for d, k in factors))
        products.append(fs + [(g, 1)])
    if not divisible:
        products.append([({(degree + sum(next(iter(g))),) + (0,) * (n - 1): 1}, 1)])
    want = kernel.poly_div_exact(fold_sum(products), g)
    assert (want is not None) == divisible
    assert kernel._kron(products, g, degree) == want
    # poly_sum_div folds a sum this small on the packed path, or encodes it.
    assert kernel.poly_sum_div(products, g) == want


def test_encoded_sum_division_hands_over_to_packed_path():
    # p = (x - z) * q with p's coefficients +1 or -1, split into two
    # products: the slots are sized from the bound 2 on the sum's
    # coefficients, one byte, and q's coefficients up to K cannot be read
    # back from one byte for K = 200.  The uncertified quotient is not
    # returned: the sum is decoded and divided again on the packed path.
    for K, calls in ((50, 1), (200, 2)):
        p, g, q = telescoping_division(K, 4)
        keys = sorted(p)
        products = [[({e: p[e] for e in keys[::2]}, 1)], [({e: p[e] for e in keys[1::2]}, 1)]]
        packed = kernel._packed_div_exact
        with mock.patch.object(kernel, "_packed_div_exact", wraps=packed) as spy:
            assert kernel._kron(products, g, sum(next(iter(q)))) == q
        assert spy.call_count == calls
        if calls == 2:
            assert spy.call_args_list[1].args == (p, g)


def linear_terms(coords):
    """The linear form ``coords`` as a term dict."""
    n = len(coords)
    return {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coords) if c}


@given(
    n=st.integers(3, 6),
    d_degree=st.sampled_from([None, 1, 2]),
    forms=st.lists(st.tuples(st.integers(0, 2**32), st.integers(1, 3)), min_size=1, max_size=3),
    mode=st.sampled_from(sorted(KRON_COEFFS)),
    divisible=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(n=4, d_degree=None, forms=[(1, 2)], mode="small", divisible=True, seed=3)
@example(n=3, d_degree=2, forms=[(5, 3), (6, 1)], mode="wide", divisible=False, seed=8)
@settings(max_examples=40, deadline=None)
def test_factored_divisor_matches_expanded_division(n, d_degree, forms, mode, divisible, seed):
    # A divisor given as D (or no D) times linear forms to exponents 1-3,
    # on the big-integer encoding (the caller's degree) and on packed
    # monomials (degree None), against _packed_div_exact by the expanded
    # divisor.  The dividend is q times the divisor, split into two
    # products, plus a monomial of its degree when not ``divisible``,
    # which no divisor of two or more terms divides.
    rnd = random.Random(seed)
    coeff = KRON_COEFFS[mode]
    pairs = []
    for form_seed, b in forms:
        coords = [random.Random(form_seed).randint(0, 2) for _ in range(n)]
        coords[form_seed % n] = 1  # primitive
        pairs.append((tuple(coords), b))
    d = None
    if d_degree is not None:
        d = dense(rnd, n, d_degree, 0.7, coeff) or {(d_degree,) + (0,) * (n - 1): 1}
        d[min(d)] = 1  # primitive
    g = {(0,) * n: 1} if d is None else d
    for coords, b in pairs:
        for _ in range(b):
            g = tuple_product(g, linear_terms(coords))
    assume(len(g) >= 2)
    q = dense(rnd, n, 2, 0.7, coeff) or {(2,) + (0,) * (n - 1): 1}
    keys = sorted(q)
    products = [[({e: q[e] for e in keys[::2]}, 1), (g, 1)]]
    if keys[1::2]:
        products.append([({e: q[e] for e in keys[1::2]}, 1), (g, 1)])
    if not divisible:
        products.append([({(2 + sum(next(iter(g))),) + (0,) * (n - 1): 1}, 1)])
    want = kernel._packed_div_exact(fold_sum(products), g)
    assert want == (q if divisible else None)
    for degree in (2, None):
        assert kernel.poly_sum_div(products, (d, pairs), degree) == want


def test_factored_divisor_hands_over_to_packed_path():
    # The divisor x - z of telescoping_division, given as a linear form
    # with no D: a quotient that fails its certificate is divided again on
    # the packed path, on p and the divisor multiplied out; one that
    # passes is returned from the encoding, the divisor never expanded.
    for K, calls in ((50, 1), (150, 2), (200, 2)):
        p, g, q = telescoping_division(K, 4)
        packed = kernel._packed_div_exact
        with mock.patch.object(kernel, "_packed_div_exact", wraps=packed) as spy, \
                mock.patch.object(kernel, "_expand", wraps=kernel._expand) as expand:
            got = kernel.poly_sum_div([[(p, 1)]], (None, [((0, 1, 0, -1), 1)]), sum(next(iter(q))))
        assert got == q
        assert spy.call_count == calls == expand.call_count + 1
        if calls == 2:
            assert spy.call_args_list[1].args == (p, g)


@pytest.mark.parametrize("nb", range(1, 18))
def test_codec_round_trips_at_every_slot_width(nb):
    # Coefficients at +-(2^(8nb-1) - 1), the widest a slot of nb bytes
    # holds, on every monomial of degree 4 in 3-6 variables.  Three
    # variables make one group, whose int is checked against its
    # definition: each coefficient times 2^(8nb * (e[0] * stride + e[1])).
    # Every width is encoded the same way, as bytes.  The decoder widens
    # slots of up to 8 bytes to machine items; from 9 bytes on, up to two
    # machine words and past them, it reads each slot on its own.
    top = (1 << (8 * nb - 1)) - 1
    for n in range(3, 7):
        p = {}
        for k, picks in enumerate(combinations_with_replacement(range(n), 4)):
            p[tuple(picks.count(i) for i in range(n))] = top if k % 3 else -top
        stride = max(e[n - 2] for e in p) + 1 + nb % 2
        groups = kernel._groups(p, nb, stride)
        assert kernel._ungroup(groups, nb, stride, 4) == p
        if n == 3:
            assert groups == {(): sum(c << (8 * nb * (e[0] * stride + e[1])) for e, c in p.items())}
        assert kernel._kron([[(p, 1)]], None, 4) == p
        # A sum of two products is sized by the sum of their bounds: 2p
        # needs one byte more than p.
        assert kernel._kron([[(p, 1)], [(p, 1)]], None, 4) == {e: 2 * c for e, c in p.items()}


@given(a=poly_dicts(), b=poly_dicts(), c=poly_dicts())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    n = 3
    pa, pb, pc = MultiPoly(n, a), MultiPoly(n, b), MultiPoly(n, c)
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa - pa == MultiPoly.zero(n)


def test_poly_eval_and_pow():
    p = MultiPoly.linear_form((1, 2, 1))
    assert p.evaluate([1, 1, 1]) == 4
    assert (p**2).evaluate([1, 2, 3]) == 64
    with pytest.raises(ValueError):
        MultiPoly.variable(3, 5)


def test_integral_primitive_sign_and_content():
    terms = {(1, 0): Fraction(-2, 3), (0, 1): Fraction(-4, 3)}
    prim, content = integral_primitive(terms)
    assert prim == {(1, 0): 1, (0, 1): 2}
    assert content == Fraction(-2, 3)


@given(terms=poly_dicts(min_size=1, max_coeff=30))
@settings(max_examples=80, deadline=None)
def test_integral_primitive_same_on_int_and_integral_fraction_coeffs(terms):
    as_fractions = {e: Fraction(c, 1) for e, c in terms.items()}
    got_int, content_int = integral_primitive(terms)
    got_frac, content_frac = integral_primitive(as_fractions)
    assert got_int == got_frac and content_int == content_frac
    assert all(type(c) is int for c in got_int.values())
    assert all(type(c) is int for c in got_frac.values())
    assert type(content_int) is Fraction and type(content_frac) is Fraction
    scaled = {e: c * content_int for e, c in got_int.items()}
    assert scaled == terms


# -- root rationals -------------------------------------------------------


def test_root_form_eval_at_ones(ctx):
    v = ctx.from_root_factors([((1, 1, 0), 1)])
    assert v.evaluate([1, 1, 1]) == 2


def test_cancellation(ctx):
    a2, a12 = (0, 1, 0), (1, 1, 0)
    x = ctx.from_root_factors([(a2, -1)])
    y = ctx.from_root_factors([(a2, 1), (a12, 1)])
    prod = x * y
    assert prod.root_factors == {a12: 1}
    assert prod.is_factored() and prod.unit == 1


ROOTS3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
NON_ROOTS3 = [(1, 2, 1), (2, 1, 0), (0, 1, 2), (1, 0, 1), (1, -1, 0), (0, 1, -1)]


def scaled_forms(bases):
    """(coords, exp) pairs: a base form times 1, 2, -1 or -3."""
    return st.tuples(
        st.sampled_from(bases), st.sampled_from([1, 2, -1, -3]), st.integers(-2, 2)
    ).map(lambda t: (tuple(t[1] * c for c in t[0]), t[2]))


def expand_side(pairs, sign):
    out = MultiPoly.one(3)
    for coords, e in pairs:
        if e * sign > 0:
            out = out * MultiPoly.linear_form(coords) ** abs(e)
    return out.terms


@given(
    roots=st.lists(scaled_forms(ROOTS3), max_size=5),
    others=st.lists(scaled_forms(NON_ROOTS3), max_size=3),
    one_sided=st.booleans(),
    unit=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_from_root_factors_matches_build(ctx, roots, others, one_sided, unit, data):
    # Reference route: expand every form and let build trial-divide.
    if one_sided:
        sign = data.draw(st.sampled_from([1, -1]))
        others = [(f, sign * abs(e)) for f, e in others]
    pairs = data.draw(st.permutations(roots + others))
    got = ctx.from_root_factors(pairs, unit=unit)
    want = ctx.build(unit, {}, expand_side(pairs, 1), expand_side(pairs, -1))
    if one_sided:
        assert (got.unit, got.fac, got.num, got.den) == (
            want.unit, want.fac, want.num, want.den
        )
    assert got == want
    point = [Fraction(2), Fraction(7), Fraction(19)]  # no form vanishes here
    assert got.evaluate(point) == want.evaluate(point)


@lru_cache(maxsize=None)
def screen_context(cartan_type, rank):
    return build_frame(cartan_type, rank).root_context


def trial_divide_all(ctx, terms, fac, sign):
    """Divide by every positive-root form while it divides, unscreened."""
    for root in ctx.roots:
        pivot = max(i for i, c in enumerate(root) if c)
        while True:
            q = kernel.poly_div_linear(terms, root, pivot)
            if q is None:
                break
            fac[root] = fac.get(root, 0) + sign
            terms = q
    return terms


def reference_build(ctx, unit, num, den):
    num, cn = integral_primitive(num)
    den, cd = integral_primitive(den)
    fac = {}
    num = trial_divide_all(ctx, num, fac, +1)
    den = trial_divide_all(ctx, den, fac, -1)
    num, den = ctx._cancel_residuals(num, den)
    return Fraction(unit) * cn / cd, {r: e for r, e in fac.items() if e}, num, den


def every_root_is_a_candidate(self, terms):
    return [(r, max(sum(e) for e in terms)) for r in self.roots]


@given(kind=st.sampled_from([("A", 3), ("D", 4), ("E", 6)]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_screened_extraction_matches_trial_division(kind, data):
    ctx = screen_context(*kind)
    mults = st.dictionaries(st.sampled_from(ctx.roots), st.integers(1, 3), max_size=3)
    sides = []
    for _ in range(2):
        forms = data.draw(mults)
        terms = integral_primitive(data.draw(poly_dicts(ctx.n, max_exp=2, min_size=1)))[0]
        for root, m in forms.items():
            form = MultiPoly.linear_form(root).terms
            for _ in range(m):
                terms = kernel.poly_mul(terms, form)
        sides.append(terms)
    unit = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
    num, den = sides
    want = reference_build(ctx, unit, num, den)
    got = ctx.build(unit, {}, num, den)
    assert (got.unit, got.fac, got.num, got.den) == want
    # With the screen passing every root, exact division alone decides.
    with mock.patch.object(RootContext, "_screen", every_root_is_a_candidate):
        unscreened = ctx.build(unit, {}, num, den)
    assert (unscreened.unit, unscreened.fac, unscreened.num, unscreened.den) == want


def linear_residuals(ctx):
    """Term dicts of scale * form + constant: the form a root or another
    nonzero form, the scale nonzero and possibly negative, the constant
    mostly 0 (a linear form) and otherwise an affine shift; or a constant."""
    others = st.lists(st.integers(-3, 3), min_size=ctx.n, max_size=ctx.n).filter(any)
    affine = st.tuples(
        st.one_of(st.sampled_from(ctx.roots), others),
        st.sampled_from([1, 2, -1, -3]),
        st.sampled_from([0, 0, 0, 1, -2]),
    ).map(lambda t: _affine_terms(ctx.n, *t))
    return st.one_of(affine, st.sampled_from([1, -2]).map(lambda c: {(0,) * ctx.n: c}))


def _affine_terms(n, coords, scale, constant):
    terms = {e: scale * c for e, c in MultiPoly.linear_form(coords).terms.items()}
    if constant:
        terms[(0,) * n] = constant
    return terms


@given(kind=st.sampled_from([("A", 3), ("D", 4), ("E", 6)]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_linear_residuals_match_trial_division(kind, data):
    # A degree-1 residual is a root or holds none, decided by one lookup;
    # root-product multiples of it go through the screen.
    ctx = screen_context(*kind)
    mults = st.dictionaries(st.sampled_from(ctx.roots), st.integers(1, 2), max_size=2)
    sides = []
    for _ in range(2):
        terms = data.draw(linear_residuals(ctx))
        for root, m in data.draw(mults).items():
            form = MultiPoly.linear_form(root).terms
            for _ in range(m):
                terms = kernel.poly_mul(terms, form)
        sides.append(terms)
    unit = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
    num, den = sides
    got = ctx.build(unit, {}, num, den)
    assert (got.unit, got.fac, got.num, got.den) == reference_build(ctx, unit, num, den)


@given(
    s=st.integers(0, rational._P - 1),
    orders=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    cofactor=st.lists(st.integers(-(1 << 62), 1 << 62), max_size=5),
    zero_rows=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_vanishing_order_matches_synthetic_division(s, orders, cofactor, zero_rows):
    # Cofactor times (t - s)^m times (t - s')^m' ..., or the zero polynomial
    # of a few coefficients; the screen's slices are such lists mod p.
    p = rational._P
    coeffs = list(cofactor)
    for k, m in enumerate(orders):
        root = (s + k * 7919) % p
        for _ in range(m):
            shifted = [0] + coeffs
            coeffs = [(a - root * b) % p for a, b in zip(shifted, coeffs + [0])]
    for c in (coeffs, [0] * zero_rows, [0] * zero_rows + coeffs):
        if c:
            assert rational._vanishing_order(c, s) == vanishing_order(c, s, p)


def test_no_trial_division_fails(monkeypatch):
    calls = {"all": 0, "failed": 0}
    divide = kernel.poly_div_linear

    def counted(p, form, pivot):
        q = divide(p, form, pivot)
        calls["all"] += 1
        calls["failed"] += q is None
        return q

    monkeypatch.setattr(kernel, "poly_div_linear", counted)
    assert run_suite("tsystem", build_frame("D", 8)).ok
    value = TorusMorphism(build_frame("E", 6)).kr_value(3, -8, 1)
    assert len(value.num) > 1000
    assert calls["all"] > 0 and calls["failed"] == 0


def test_exchange_steps_screen_the_quotient(monkeypatch):
    # An exchange step (sum of root products) / divisor cancels the
    # divisor's residual before screening for root factors, so no screen
    # sees more terms than the largest residual of a value that is kept.
    from krtorus.cluster import initial_seed, mutate

    screened = []
    screen = RootContext._screen

    def counted_screen(self, terms):
        screened.append(len(terms))
        return screen(self, terms)

    failed = []

    def failing(name, fn):
        def wrapped(*args):
            q = fn(*args)
            if q is None:
                failed.append(name)
            return q
        return wrapped

    calcs = []
    kr_value = TorusMorphism.kr_value

    def recorded_kr_value(self, *label):
        calcs.append(self)
        return kr_value(self, *label)

    monkeypatch.setattr(RootContext, "_screen", counted_screen)
    monkeypatch.setattr(TorusMorphism, "kr_value", recorded_kr_value)
    for name in ("poly_div_linear", "poly_div_exact"):
        monkeypatch.setattr(kernel, name, failing(name, getattr(kernel, name)))

    e6 = TorusMorphism(build_frame("E", 6))
    assert len(e6.kr_value(3, -8, 1).num) > 1000
    assert run_suite("tsystem", build_frame("D", 8)).ok
    seeds = [initial_seed(e6, 72, specialize_frozen=True)]
    walk = (9, 3, 5, 11)
    for v in walk + walk[::-1]:
        seeds.append(mutate(seeds[-1], v))
    assert all(seeds[-1].values[v] == seeds[0].values[v] for v in walk)

    kept = [v for calc in calcs for v in calc._kr_cache.values()]
    kept += [v for seed in seeds for v in seed.values.values()]
    largest = max(max(len(v.num), len(v.den)) for v in kept)
    assert screened and max(screened) <= largest
    assert failed == []


def per_point_pairs(calc, i, p, lag):
    """(root, exponent) pairs of the window product behind y_value (lag 2)
    or initial_value (lag None), one coeff and one beta_eps call a point."""
    frame, coeff = calc.frame, calc.table.coeff
    pairs = []
    for j in frame.datum.vertices():
        for s in range(frame.xi[j], p - 1, -2):
            e = coeff(i, j, s - p + 1)
            if lag is not None:
                e -= coeff(i, j, s - p + 1 - lag)
            if e:
                pairs.append((frame.beta_eps(j, s)[0], -e))
    return pairs


@pytest.mark.parametrize("kind", [("A", 3), ("D", 4), ("E", 6)])
def test_root_product_matches_from_root_factors_on_windows(kind):
    frame = build_frame(*kind)
    calc = TorusMorphism(frame)
    ctx = frame.root_context

    def parts(v):
        return v.unit, v.fac, v.num, v.den

    for t in range(1, 2 * frame.N + 1):
        i, p = frame.phi_inv(t)
        for got, lag in ((calc.y_value(i, p), 2), (calc.initial_value(t), None)):
            pairs = per_point_pairs(calc, i, p, lag)
            exps = {}
            for root, e in pairs:
                exps[root] = exps.get(root, 0) + e
            want = parts(ctx.from_root_factors(pairs))
            assert parts(got) == want, (kind, t, lag)
            assert parts(ctx.root_product(exps)) == want, (kind, t, lag)


def test_root_product_takes_positive_roots_only(ctx):
    assert ctx.root_product({(1, 1, 0): -1, (0, 0, 1): 0}) == ctx.from_root_factors(
        [((1, 1, 0), -1)]
    )
    assert ctx.root_product({(0, 1, 0): 0}).is_one()
    for key in [(1, 0, 1), (2, 2, 0), (1, 1), (0, -1, 0)]:
        with pytest.raises(ValueError, match="not a positive root"):
            ctx.root_product({(1, 0, 0): 1, key: -1})


SUM_KINDS = [("A", 3), ("D", 4), ("E", 6)]
UNITS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@lru_cache(maxsize=None)
def squarefree_polys(n):
    """Polynomials of at most three squarefree terms (strategies built once)."""
    monomials = [tuple((k >> j) & 1 for j in range(n)) for k in range(2**n)]
    return st.dictionaries(
        st.sampled_from(monomials), st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3
    )


@lru_cache(maxsize=None)
def root_multisets(roots, min_exp, max_exp):
    return st.dictionaries(st.sampled_from(roots), st.integers(min_exp, max_exp), max_size=3)


def small_poly(ctx, data):
    """A nonzero primitive polynomial of at most three squarefree terms."""
    return MultiPoly(ctx.n, integral_primitive(data.draw(squarefree_polys(ctx.n)))[0])


def root_forms(ctx, data, min_exp, max_exp):
    return data.draw(root_multisets(ctx.roots, min_exp, max_exp))


def expanded(ctx, forms):
    out = MultiPoly.one(ctx.n)
    for r, e in forms.items():
        out = out * MultiPoly.linear_form(r) ** e
    return out


def summand(ctx, data, common):
    """unit * root factors * residual * common, sometimes as a user fraction
    whose numerator and denominator share root forms and a residual."""
    unit = data.draw(UNITS)
    residual = small_poly(ctx, data)
    if data.draw(st.booleans()):
        base = ctx.from_root_factors(root_forms(ctx, data, -2, 2).items(), unit=unit)
        return base * ctx.from_fraction(residual * common)
    top = expanded(ctx, root_forms(ctx, data, 0, 2))
    bottom = expanded(ctx, root_forms(ctx, data, 0, 2))
    extra = MultiPoly.linear_form(data.draw(st.sampled_from(ctx.roots))) * small_poly(ctx, data)
    num = top * extra * residual * common * unit
    return ctx.from_fraction(num, bottom * extra)


@given(kind=st.sampled_from(SUM_KINDS), count=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sum_over_matches_pairwise_arithmetic(kind, count, data):
    # Every summand and every result reduces to a residual denominator of
    # 1, where the normal form is unique; a sum of user fractions sharing a
    # non-root factor may keep that factor on both sides, by a path that
    # depends on the order of the additions.
    ctx = screen_context(*kind)
    # A residual shared by every summand and the divisor's numerator makes
    # the divisor divide the sum, as in an exchange step.
    common = small_poly(ctx, data) if data.draw(st.booleans()) else MultiPoly.one(ctx.n)
    values = [summand(ctx, data, common) for _ in range(count)]
    divisor = None
    if data.draw(st.booleans()):
        # a1 - a2 is no root form, so the divisor keeps a residual den.
        extra = small_poly(ctx, data)
        den = small_poly(ctx, data) * extra * MultiPoly.linear_form((1, -1) + (0,) * (ctx.n - 2))
        divisor = ctx.from_root_factors(root_forms(ctx, data, -2, 2).items(), unit=data.draw(UNITS))
        divisor = divisor * ctx.from_fraction(common * extra, den)
    got = ctx.sum_over(values, divisor)
    want = values[0]
    for v in values[1:]:
        want = want + v
    if divisor is not None:
        want = want / divisor
    assert (got.unit, got.fac, got.num, got.den) == (want.unit, want.fac, want.num, want.den)
    point = [2, 3, 5, 7, 11, 13][:ctx.n]  # no root form vanishes here
    try:
        expect = sum(v.evaluate(point) for v in values)
        if divisor is not None:
            expect /= divisor.evaluate(point)
    except ZeroDivisionError:
        return
    assert got.evaluate(point) == expect


def test_sum_over_multiplies_each_denominator_in_once(ctx):
    # Summands over one non-root residual L = a1 - a2 add over L, not over
    # a power of L: the sum is the fraction of the summed numerators.
    def form(*coords):
        return MultiPoly.linear_form(coords)

    L = form(1, -1, 0)
    p, q, r = form(1, 2, 1), form(0, 1, 2), form(1, 0, 1)
    cases = [
        [p, q],
        [p, q * L - p, r],
    ]
    for nums in cases:
        total = nums[0]
        for x in nums[1:]:
            total = total + x
        got = ctx.sum_over([ctx.from_fraction(x, L) for x in nums])
        want = ctx.from_fraction(total, L)
        assert (got.unit, got.fac, got.num, got.den) == (
            want.unit, want.fac, want.num, want.den
        )
    pair = ctx.from_fraction(p, L) + ctx.from_fraction(q, L)
    assert str(pair) == "(a1 + 3*a2 + 3*a3)/(a1 - a2)"


def test_sum_numerator_dividing_the_denominator_cancels(ctx):
    # R/(A*B) - R/(A*C) with C = A + B: the shared numerator R joins the
    # sum after it, and the sum R*A over A^2*B*C cancels to R/(B*C).  Were
    # R multiplied in before the sides were cancelled, R*A^2 would divide
    # no side and both would keep A^2.
    A = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 2): -1})
    B = MultiPoly(3, {(2, 0, 0): 1, (0, 1, 1): 3})
    C = A + B
    R = MultiPoly(3, {(0, 2, 0): 1, (1, 0, 1): 1, (0, 0, 2): 1})
    got = ctx.sum_over([ctx.from_fraction(R, A * B), ctx.from_fraction(-R, A * C)])
    want = ctx.from_fraction(R, B * C)
    assert (got.unit, got.fac, got.num, got.den) == (want.unit, want.fac, want.num, want.den)
    assert (len(got.num), len(got.den)) == (3, 7)


@lru_cache(maxsize=None)
def engine_values(kind):
    """KR values to depth 4 below each top, the initial values of the first
    two periods and zero, all from one calculator: most KR values carry a
    residual numerator and a residual denominator of 1."""
    frame = build_frame(*kind)
    calc = TorusMorphism(frame)
    values = [calc.ctx.zero()]
    for i in frame.datum.vertices():
        for r in range(1, 5):
            values += [calc.kr_value(i, frame.xi[i] - 2 * (r - 1), k) for k in range(1, r + 1)]
    values += [calc.initial_value(t) for t in range(1, 2 * frame.N + 1)]
    return calc.ctx, values


def fold(ctx, pairs):
    out = ctx.one()
    for value, exp in pairs:
        out = out * value**exp
    return out


def parts(value):
    return value.unit, value.fac, value.num, value.den


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-2, 3)), max_size=5),
)
@settings(max_examples=150, deadline=None)
@example(kind=("A", 3), picks=[])
@example(kind=("A", 3), picks=[(0, 2), (5, -1)])
@example(kind=("D", 4), picks=[(0, -1), (5, 1)])
def test_product_over_matches_fold(kind, picks):
    ctx, values = engine_values(kind)
    pairs = [(values[j % len(values)], e) for j, e in picks]
    try:
        want = fold(ctx, pairs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            ctx.product_over(pairs)
        return
    got = ctx.product_over(pairs)
    assert got == want
    # With every residual on one side nothing cancels, and the two agree
    # part for part.  When a residual meets its inverse the fold cancels
    # only what its order happens to line up, so the parts may differ.
    signs = {e > 0 for v, e in pairs if e and not v.is_factored()}
    if len(signs) <= 1:
        assert parts(got) == parts(want)


@given(kind=st.sampled_from(SUM_KINDS), count=st.integers(0, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_over_equals_fold_on_user_fractions(kind, count, data):
    ctx = screen_context(*kind)
    one = MultiPoly.one(ctx.n)
    pairs = [(summand(ctx, data, one), data.draw(st.integers(-2, 3))) for _ in range(count)]
    assert ctx.product_over(pairs) == fold(ctx, pairs)


@lru_cache(maxsize=None)
def one_residual_values(kind):
    """Values with at most one irreducible residual on each side.

    Each residual is a_j plus a polynomial in the other variables: of
    degree 1 in a_j with coefficient 1, so irreducible, and not linear, so
    free of root forms.
    """
    ctx = screen_context(*kind)
    n = ctx.n
    a = [MultiPoly.linear_form(tuple(int(k == j) for k in range(n))) for j in range(n)]
    one = MultiPoly.one(n)
    residuals = [
        one,
        a[0] + a[1] * a[2] + one,
        a[1] + a[0] * a[2] - one * 2,
        a[2] + a[0] ** 2 + a[1],
    ]
    rng = random.Random(7)
    values = []
    for top in residuals:
        for bottom in residuals:
            if top is bottom and top is not one:
                continue
            forms = {r: rng.randint(-2, 2) for r in rng.sample(ctx.roots, 2)}
            unit = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            base = ctx.from_root_factors(forms.items(), unit=unit)
            values.append(base * ctx.from_fraction(top, bottom))
    return ctx, values


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([1, -1])), min_size=1, max_size=6
    ),
    orders=st.lists(st.randoms(use_true_random=False), min_size=1, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_folds_in_any_order_give_identical_parts(kind, picks, orders):
    # Multiplied or divided in one value at a time, each step cancels every
    # residual that the value shares with the product so far, so each fold
    # ends reduced and, the reduced form being unique, in the same parts.
    ctx, values = one_residual_values(kind)
    pairs = [(values[j % len(values)], e) for j, e in picks]
    want = parts(ctx.product_over(pairs))
    for order in orders:
        order.shuffle(pairs)
        out = ctx.one()
        for value, e in pairs:
            out = out * value if e > 0 else out / value
        assert parts(out) == want


def multiplied_out(ctx, value):
    """(numerator, denominator) term dicts of a value, nothing factored."""
    top = kernel.poly_form_product(ctx.n, value.fac.items(), value.unit.numerator)
    bottom = kernel.poly_form_product(
        ctx.n, ((r, -e) for r, e in value.fac.items()), value.unit.denominator
    )
    return kernel.poly_mul(top, value.num), kernel.poly_mul(bottom, value.den)


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    divisor_kind=st.sampled_from(
        ["none", "factored", "divides", "equal", "does not divide", "over"]
    ),
    count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_sum_over_keeps_a_shared_residual_factored(kind, divisor_kind, count, data):
    # Summands share the residual R = R1 * R2 of two engine values; the
    # divisor's residual is 1, R1 (divides R), R itself, or a residual R3
    # that does not divide R, or it has a residual denominator.  The sum
    # has the parts of the fully multiplied-out fraction.
    ctx, values = engine_values(kind)
    residual = [v for v in values if not v.is_factored()]
    w1, w2, w3 = (data.draw(st.sampled_from(residual)) for _ in range(3))
    if divisor_kind == "does not divide":
        assume(w3.num not in (w1.num, w2.num))

    def factored():
        forms = root_forms(ctx, data, -1, 1)
        return ctx.from_root_factors(forms.items(), unit=data.draw(UNITS))

    shared = w1 * w2
    summands = [shared * factored() for _ in range(count)]
    assert all(v.num == shared.num for v in summands)
    divisor = {
        "none": None,
        "factored": factored(),
        "divides": w1 * factored(),
        "equal": shared * factored(),
        "does not divide": w3 * factored(),
        "over": factored() / w3,
    }[divisor_kind]
    got = ctx.sum_over(summands, divisor)
    top, bottom = multiplied_out(ctx, summands[0])
    for v in summands[1:]:
        p, q = multiplied_out(ctx, v)
        top = kernel.poly_add(kernel.poly_mul(top, q), kernel.poly_mul(p, bottom))
        bottom = kernel.poly_mul(bottom, q)
    if divisor is not None:
        p, q = multiplied_out(ctx, divisor)
        top, bottom = kernel.poly_mul(top, q), kernel.poly_mul(bottom, p)
    want = ctx.build(1, {}, top, bottom)
    assert parts(got) == parts(want)


def test_tsystem_steps_divide_no_expanded_sum(monkeypatch):
    # An exchange step divides the divisor's residual into the residual
    # product of one side, never into the expanded sum.
    steps = []
    divided = []

    def recorded_sum(self, products, divisor=None):
        sizes = []
        for pairs in products:
            product = self._one
            for value, e in pairs:
                product = kernel.poly_mul(product, kernel.poly_pow(value.num, e))
            sizes.append(len(product))
        steps.append(max(sizes))
        try:
            return sum_of_products(self, products, divisor)
        finally:
            steps.pop()

    def recorded_div_exact(p, g):
        if steps:
            divided.append((len(p), steps[-1]))
        return div_exact(p, g)

    sum_of_products, div_exact = RootContext.sum_of_products, kernel.poly_div_exact
    monkeypatch.setattr(RootContext, "sum_of_products", recorded_sum)
    monkeypatch.setattr(kernel, "poly_div_exact", recorded_div_exact)
    assert run_suite("tsystem", build_frame("D", 6)).ok
    assert divided and all(size <= largest for size, largest in divided)


def test_e6_exchange_steps_encode_before_they_decode(monkeypatch):
    # The E6 labels of the T-system benchmark: every fundamental label
    # down to depth 9 below the top of vertex 1.  Within one exchange step
    # no polynomial reaches _groups once _ungroup has decoded one, so
    # nothing decoded in the step, nor anything made from it, is encoded
    # again: the large steps encode their factors, divide, and decode the
    # quotient alone.  The encoding is entered only from poly_sum_div.
    encoded, decoded, entries = [], [], []

    def recorded_sum(self, *args):
        encoded.append(0)
        decoded.append(0)
        return sum_of_products(self, *args)

    def recorded_groups(terms, nb, stride):
        assert not decoded[-1], "a step encodes after it has decoded"
        encoded[-1] += 1
        return groups(terms, nb, stride)

    def recorded_ungroup(*args):
        decoded[-1] += 1
        return ungroup(*args)

    def recorded_kron(products, g, degree):
        entries.append(sys._getframe(1).f_code)
        return kron(products, g, degree)

    sum_of_products, groups, ungroup = RootContext.sum_of_products, kernel._groups, kernel._ungroup
    kron = kernel._kron
    monkeypatch.setattr(RootContext, "sum_of_products", recorded_sum)
    monkeypatch.setattr(kernel, "_kron", recorded_kron)
    monkeypatch.setattr(kernel, "_groups", recorded_groups)
    monkeypatch.setattr(kernel, "_ungroup", recorded_ungroup)
    frame = build_frame("E", 6)
    calc = TorusMorphism(frame)
    top = frame.xi[1]
    labels = [(i, p) for i in frame.xi for p in range(frame.xi[i], top - 10, -2)]
    assert len(labels) == 25
    for i, p in sorted(labels, key=lambda ip: (-ip[1], ip[0])):
        calc.kr_value(i, p, 1)
    # Steps that decode decode once: the quotient.  Nine steps divide
    # their sums of products on the encoding, each entered from
    # poly_sum_div.
    assert set(decoded) == {0, 1}
    assert len(entries) == 9
    assert set(entries) == {kernel.poly_sum_div.__code__}


def e6_benchmark_labels(frame):
    """The E6 labels of the T-system benchmark: every fundamental label
    down to depth 9 below the top of vertex 1, in the order it asks them."""
    top = frame.xi[1]
    labels = [(i, p) for i in frame.xi for p in range(frame.xi[i], top - 10, -2)]
    return sorted(labels, key=lambda ip: (-ip[1], ip[0]))


def trimmed(slices):
    """Slices as polynomials in t: trailing zero coefficients dropped."""
    out = []
    for line in slices:
        line = list(line)
        while line and not line[-1]:
            line.pop()
        out.append(line)
    return out


@given(kind=st.sampled_from([("A", 3), ("D", 4), ("E", 6)]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_slices_are_a_ring_homomorphism(kind, data):
    # The slices of a product, a sum, an exact quotient by a residual and
    # a quotient by a root form are the product, the sum and the quotients
    # of the slices in F_p[t]; a root product's slices are those of its
    # linear forms on each line.
    ctx = screen_context(*kind)
    p = rational._P
    a, b = (
        integral_primitive(data.draw(poly_dicts(ctx.n, max_exp=2, min_size=1)))[0]
        for _ in range(2)
    )
    sa, sb = ctx._slices(a), ctx._slices(b)
    ab = kernel.poly_mul(a, b)
    assert trimmed(ctx._slices(ab)) == trimmed(map(rational._mul, sa, sb))
    total = kernel.poly_add(a, b)
    if total:
        summed = [[(x + y) % p for x, y in zip_longest(u, v, fillvalue=0)] for u, v in zip(sa, sb)]
        assert trimmed(ctx._slices(total)) == trimmed(summed)
    assert trimmed(map(rational._div, ctx._slices(ab), sb)) == trimmed(sa)
    root = data.draw(st.sampled_from(ctx.roots))
    form = MultiPoly.linear_form(root).terms
    lines = ctx._form_slices([(root, 1)])
    assert trimmed(lines) == trimmed(ctx._slices(form))
    got = map(rational._div, ctx._slices(kernel.poly_mul(a, form)), lines)
    assert trimmed(got) == trimmed(sa)
    forms = data.draw(root_multisets(ctx.roots, 0, 3))
    scale = data.draw(st.sampled_from([1, -2, 3]))
    want = ctx._slices(kernel.poly_form_product(ctx.n, forms.items(), scale))
    assert trimmed(ctx._form_slices(forms.items(), scale)) == trimmed(want)


def test_slice_division_refuses():
    p = rational._P
    # (t + 1)(t + 2) over t + 1, over t + 3 (a remainder), over zero.
    assert rational._div([2, 3, 1], [1, 1]) == [2, 1]
    assert rational._div([2, 3, 1], [3, 1]) is None
    assert rational._div([2, 3, 1], [0, 0]) is None
    assert rational._div([0, 0], [1, 1]) is None
    assert rational._div([1, p - 1], [1]) == [1, p - 1]


def test_carried_slices_are_exact(monkeypatch):
    # A value that a large step makes keeps its residual's slices, and a
    # value that a large step reads gets them from its terms: either way
    # they must be the residual's slices exactly, not up to a scalar, as
    # later steps multiply and add them.
    carried = []
    build = RootContext.build

    def recorded_build(self, *args):
        value = build(self, *args)
        if len(args) > 5 and args[5] is not None:
            carried.append(value)
        return value

    monkeypatch.setattr(RootContext, "build", recorded_build)
    e6 = TorusMorphism(build_frame("E", 6))
    for i, p in e6_benchmark_labels(e6.frame):
        e6.kr_value(i, p, 1)
    # The D5 labels of the window and two levels below it.
    frame = build_frame("D", 5)
    d5 = TorusMorphism(frame)
    for i in frame.datum.vertices():
        for r in range(1, frame.n_letters[i] + 3):
            for k in range(1, r + 1):
                d5.kr_value(i, frame.xi[i] - 2 * (r - 1), k)
    assert carried and all(v.slices is not None for v in carried)
    kept = [v for calc in (e6, d5) for v in calc._kr_cache.values() if v.slices is not None]
    assert len(kept) > len(carried)
    for value in kept:
        assert value.slices == value.ctx._slices(value.num)


def solve_benchmark_labels():
    """The memo of a fresh E6 calculator after the benchmark's labels."""
    calc = TorusMorphism(build_frame("E", 6))
    for i, p in e6_benchmark_labels(calc.frame):
        calc.kr_value(i, p, 1)
    return {key: parts(value) for key, value in calc._kr_cache.items()}


def test_encoded_steps_match_the_screening_route(monkeypatch):
    # Each step that the gate sends to the encoding gives the same parts
    # when its quotient is found first and screened after, the route that
    # a _quotient_slices finding nothing forces.
    encoded = []
    gate, sum_of_products = kernel.gate, RootContext.sum_of_products
    quotient_slices = RootContext._quotient_slices

    def checked(self, products, divisor=None):
        products = [list(pairs) for pairs in products]
        answers = []

        def asked(*args):
            answers.append(gate(*args))
            return answers[-1]

        monkeypatch.setattr(kernel, "gate", asked)
        got = sum_of_products(self, products, divisor)
        monkeypatch.setattr(kernel, "gate", gate)
        if answers[0] is not None:
            monkeypatch.setattr(RootContext, "_quotient_slices", lambda *args: None)
            want = sum_of_products(self, products, divisor)
            monkeypatch.setattr(RootContext, "_quotient_slices", quotient_slices)
            assert parts(got) == parts(want)
            encoded.append(got)
        return got

    monkeypatch.setattr(RootContext, "sum_of_products", checked)
    solve_benchmark_labels()
    assert len(encoded) == 9


@pytest.mark.parametrize("refused", ["slice division", "encoded division"])
def test_one_bound_too_many_takes_the_screening_route(refused, monkeypatch):
    # A bound above the multiplicity makes the division by D * prod(r^b)
    # refuse: in F_p[t] already, or, with a slice division that never
    # refuses, on the encoding.  Either way the step takes the screening
    # route, and every value keeps its parts.
    want = solve_benchmark_labels()
    bounds, div, poly_sum_div = RootContext._bounds, rational._div, kernel.poly_sum_div
    refusals, carried = [], []

    def one_too_many(self, slices):
        out = bounds(self, slices)
        return [(out[0][0], out[0][1] + 1), *out[1:]] if out else [(self.roots[0], 1)]

    def never_refuses(a, b):
        q = div(a, b)
        return [1] if q is None else q

    def recorded_sum_div(products, g=None, degree=kernel._ASK):
        q = poly_sum_div(products, g, degree)
        if degree is not kernel._ASK and degree is not None and q is None:
            refusals.append(g)
        return q

    build = RootContext.build

    def recorded_build(self, *args):
        if len(args) > 5 and args[5] is not None:
            carried.append(args)
        return build(self, *args)

    monkeypatch.setattr(RootContext, "_bounds", one_too_many)
    monkeypatch.setattr(kernel, "poly_sum_div", recorded_sum_div)
    monkeypatch.setattr(RootContext, "build", recorded_build)
    if refused == "encoded division":
        monkeypatch.setattr(rational, "_div", never_refuses)
    assert solve_benchmark_labels() == want
    assert carried == []
    assert len(refusals) == (9 if refused == "encoded division" else 0)


def test_divisor_slice_zero_mod_p_takes_the_screening_route(monkeypatch):
    # A divisor whose slice on one line is zero mod p gives the quotient
    # no slices: the step takes the screening route with the same parts.
    want = solve_benchmark_labels()
    sum_of_products, build = RootContext.sum_of_products, RootContext.build
    carried = []

    def zero_line(self, products, divisor=None):
        if divisor is not None and not divisor.is_factored():
            lines = self._slices(divisor.num)
            lines[0] = [0] * len(lines[0])
            divisor = RootRational(
                self, divisor.unit, divisor.fac, divisor.num, divisor.den, lines
            )
        return sum_of_products(self, products, divisor)

    def recorded_build(self, *args):
        if len(args) > 5 and args[5] is not None:
            carried.append(args)
        return build(self, *args)

    monkeypatch.setattr(RootContext, "sum_of_products", zero_line)
    monkeypatch.setattr(RootContext, "build", recorded_build)
    assert solve_benchmark_labels() == want
    assert carried == []


def test_encoded_steps_screen_nothing(monkeypatch):
    # The large steps of E6 (3,-8) divide their root factors out on the
    # encoding: no screen and no division by one root form follows.
    steps = []
    sum_of_products = RootContext.sum_of_products

    def recorded_sum(self, *args):
        steps.append(set())
        return sum_of_products(self, *args)

    def noting(name, fn):
        def wrapped(*args):
            steps[-1].add(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(RootContext, "sum_of_products", recorded_sum)
    monkeypatch.setattr(RootContext, "_screen", noting("_screen", RootContext._screen))
    for name in ("_kron", "poly_div_linear"):
        monkeypatch.setattr(kernel, name, noting(name, getattr(kernel, name)))
    e6 = TorusMorphism(build_frame("E", 6))
    assert len(e6.kr_value(3, -8, 1).num) > 1000
    encoded = [names for names in steps if "_kron" in names]
    assert encoded and all(names == {"_kron"} for names in encoded)
    assert any("_screen" in names for names in steps)


def test_encoded_steps_keep_the_divisor_factored(monkeypatch):
    # The large steps of E6 (3,-8) divide their sums by D * prod(r^b)
    # with the divisor factored: no poly_mul call, and one
    # poly_form_product call per product, for its cofactor, none for the
    # divisor.
    steps = []
    sum_of_products = RootContext.sum_of_products

    def recorded_sum(self, products, divisor=None):
        products = [list(pairs) for pairs in products]
        steps.append({"products": len(products)})
        return sum_of_products(self, products, divisor)

    def counted(name, fn):
        def wrapped(*args):
            steps[-1][name] = steps[-1].get(name, 0) + 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(RootContext, "sum_of_products", recorded_sum)
    for name in ("_kron", "poly_mul", "poly_form_product"):
        monkeypatch.setattr(kernel, name, counted(name, getattr(kernel, name)))
    e6 = TorusMorphism(build_frame("E", 6))
    assert len(e6.kr_value(3, -8, 1).num) > 1000
    encoded = [step for step in steps if "_kron" in step]
    assert encoded and any("poly_mul" in step for step in steps)
    for step in encoded:
        assert "poly_mul" not in step
        assert step["poly_form_product"] == step["products"]


# -- exchange steps ----------------------------------------------------------


@lru_cache(maxsize=None)
def walk_start(kind, quotient):
    frame = build_frame(*kind)
    return initial_seed(TorusMorphism(frame), 2 * frame.N, specialize_frozen=quotient)


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    quotient=st.booleans(),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_exchange_matches_composition_on_mutation_walks(kind, quotient, picks):
    # Each step mutates a neighbour of the last mutated vertex when there
    # is a mutable one, so that values build up residuals as in a walk.
    seed = walk_start(kind, quotient)
    ctx = seed.calc.ctx
    mutable = [v for v in seed.quiver.vertices if v not in seed.quiver.frozen]
    v = None
    for j in picks:
        quiver = seed.quiver
        near = [] if v is None else [
            u for u, _ in (*quiver.arrows_in(v), *quiver.arrows_out(v)) if u not in quiver.frozen
        ]
        pool = near or mutable
        v = pool[j % len(pool)]
        left = [(seed.values[a], m) for a, m in quiver.arrows_in(v)]
        right = [(seed.values[b], m) for b, m in quiver.arrows_out(v)]
        want = exchange_by_composition(ctx, left, right, seed.values[v])
        seed = mutate(seed, v)
        assert parts(seed.values[v]) == parts(want)


@pytest.mark.parametrize("kind", [("A", 3), ("D", 4), ("D", 5)])
def test_exchange_matches_composition_on_tsystem_steps(kind, monkeypatch):
    steps = []
    sum_of_products = RootContext.sum_of_products

    def checked(self, products, divisor=None):
        got = sum_of_products(self, products, divisor)
        left, right = products
        assert parts(got) == parts(exchange_by_composition(self, left, right, divisor))
        steps.append(got)
        return got

    monkeypatch.setattr(RootContext, "sum_of_products", checked)
    # Every label of the window and two levels below it, where type A
    # values carry residuals too.
    frame = build_frame(*kind)
    calc = TorusMorphism(frame)
    for i in frame.datum.vertices():
        for r in range(1, frame.n_letters[i] + 3):
            for k in range(1, r + 1):
                calc.kr_value(i, frame.xi[i] - 2 * (r - 1), k)
    assert any(not v.is_factored() for v in steps)


@lru_cache(maxsize=None)
def exchange_pools(kind):
    """Engine values with a residual, and nonzero root products."""
    ctx, values = engine_values(kind)
    residual = [v for v in values if not v.is_factored()]
    factored = [v for v in values if v.is_factored() and not v.is_zero()]
    return ctx, residual, factored


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    case=st.sampled_from(["common", "one side", "neither", "zero"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_exchange_matches_composition_on_constructed_steps(kind, case, data):
    # Root products with exponents up to 3 on both sides, and engine
    # residuals w1 != w2 placed so that the divisor's residual divides the
    # sum: w1 on both sides, w1 on one side and w1 * w2 (one residual) on
    # the other, w1 and w2 on both sides against the divisor w1 * w2, or w1
    # on the side that does not hold zero.
    ctx, residual, factored = exchange_pools(kind)
    w1 = data.draw(st.sampled_from(residual))
    w2 = data.draw(st.sampled_from(residual))
    assume(w1.num != w2.num)
    exps = st.integers(1, 3)
    picks = st.tuples(st.sampled_from(factored), exps)

    def side():
        return [data.draw(picks) for _ in range(data.draw(st.integers(0, 3)))]

    left, right = side(), side()
    divisor = data.draw(st.sampled_from(factored))
    if case == "common":
        left.append((w1, data.draw(exps)))
        right.append((w1, data.draw(exps)))
        divisor = divisor * w1
    elif case == "one side":
        left.append((w1, data.draw(exps)))
        right.append((w1 * w2, 1))
        divisor = divisor * w1
    elif case == "neither":
        left += [(w1, data.draw(exps)), (w2, 1)]
        right += [(w1, 1), (w2, data.draw(exps))]
        divisor = divisor * w1 * w2
    else:
        left.append((ctx.zero(), 1))
        right.append((w1, data.draw(exps)))
        divisor = divisor * w1
    if data.draw(st.booleans()):
        left, right = right, left
    got = ctx.sum_of_products((left, right), divisor)
    assert parts(got) == parts(exchange_by_composition(ctx, left, right, divisor))
    assert got.den == ctx._one


@given(kind=st.sampled_from([("A", 3), ("D", 4)]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_exchange_equals_composition_on_random_factor_lists(kind, data):
    # Random values over residual denominator 1, some zero, drawn from a
    # small pool so that sides share residuals; the divisor need not divide
    # the sum, so the result need not be in normal form.
    ctx = screen_context(*kind)

    def value():
        if data.draw(st.integers(0, 7)) == 0:
            return ctx.zero()
        base = ctx.from_root_factors(root_forms(ctx, data, -1, 1).items(), unit=data.draw(UNITS))
        return base * ctx.from_fraction(small_poly(ctx, data))

    pool = [value() for _ in range(3)]
    picks = st.tuples(st.sampled_from(pool), st.integers(1, 2))

    def side():
        return [data.draw(picks) for _ in range(data.draw(st.integers(0, 3)))]

    left, right = side(), side()
    divisor = data.draw(st.sampled_from(pool)) if data.draw(st.booleans()) else value()
    assume(not divisor.is_zero())
    got = ctx.sum_of_products((left, right), divisor)
    assert got == exchange_by_composition(ctx, left, right, divisor)


@lru_cache(maxsize=None)
def mixed_pools(kind):
    """Engine values (zero among them), and quotients and inverses of
    engine residuals, which carry residual denominators."""
    ctx, values = engine_values(kind)
    residual = [v for v in values if not v.is_factored()]
    factored = [v for v in values if v.is_factored() and not v.is_zero()]
    rng = random.Random(11)
    over = [w.inverse() for w in residual[:4]]
    for _ in range(8):
        w1, w2 = rng.sample(residual, 2)
        over.append(rng.choice(factored) * w1 / w2)
    return ctx, values + over, residual, factored, over


@given(
    kind=st.sampled_from([("A", 3), ("D", 4)]),
    divisor_kind=st.sampled_from(["none", "engine", "over", "shared"]),
    count=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sum_of_products_matches_common_denominator(kind, divisor_kind, count, data):
    # Products of values with residual numerators and denominators, zeros
    # among them; the divisor is an engine value, a value with a residual
    # denominator, or a residual that every product holds.
    ctx, pool, residual, factored, over = mixed_pools(kind)
    picks = st.tuples(st.sampled_from(pool), st.integers(1, 3))
    products = [
        [data.draw(picks) for _ in range(data.draw(st.integers(0, 3)))] for _ in range(count)
    ]
    divisor = None
    if divisor_kind == "engine":
        divisor = data.draw(st.sampled_from(residual + factored))
    elif divisor_kind == "over":
        divisor = data.draw(st.sampled_from(over))
    elif divisor_kind == "shared":
        w = data.draw(st.sampled_from(residual))
        for pairs in products:
            pairs.append((w, data.draw(st.integers(1, 2))))
        divisor = w * data.draw(st.sampled_from(factored))
    got = ctx.sum_of_products(products, divisor)
    want = sum_by_common_denominator(ctx, [ctx.product_over(p) for p in products], divisor)
    # The parts agree up to one residual factor that the oracle leaves on
    # both sides: it cancels the divisor's residual only when the whole
    # denominator divides the sum, while sum_of_products cancels it against
    # a residual that every product holds.
    assert (got.unit, got.fac) == (want.unit, want.fac)
    extra = kernel.poly_div_exact(want.num, got.num)
    assert extra is not None and kernel.poly_div_exact(want.den, got.den) == extra
    point = [2, 3, 5, 7][:ctx.n]  # no root form vanishes here
    try:
        expect = sum(fold(ctx, p).evaluate(point) for p in products)
        if divisor is not None:
            expect /= divisor.evaluate(point)
    except ZeroDivisionError:
        return
    assert got.evaluate(point) == expect


def test_engines_exchange_without_products_or_sums(monkeypatch):
    # Mutation and the T-system reach the field through exchange alone.
    def forbidden(*args):
        raise AssertionError("an engine step called product_over or sum_over")

    monkeypatch.setattr(RootContext, "product_over", forbidden)
    monkeypatch.setattr(RootContext, "sum_over", forbidden)
    frame = build_frame("E", 6)
    start = initial_seed(TorusMorphism(frame), 72, specialize_frozen=True)
    walk = [9, 3, 5, 11]
    seeds = [start]
    for v in walk + walk[::-1]:
        seeds.append(mutate(seeds[-1], v))
    assert any(not seed.values[9].is_factored() for seed in seeds)
    assert seeds[-1].quiver == start.quiver
    assert all(parts(seeds[-1].values[t]) == parts(start.values[t]) for t in start.values)
    assert run_suite("tsystem", build_frame("D", 6)).ok


def test_product_order_does_not_change_the_parts(ctx):
    one = MultiPoly.one(3)

    def form(*coords):
        return MultiPoly.linear_form(coords)

    s = ctx.from_fraction(form(1, -1, 0) * form(1, 0, 1) + one)
    t = ctx.from_fraction(form(0, 1, -1) * form(1, 1, 0) + one)
    first = s**-2 * s**3 * t**-1
    second = s**3 * t**-1 * s**-2
    assert parts(first) == parts(second) == parts(s / t)
    assert (len(first.num), len(first.den)) == (5, 5)


def test_multiplicity_examples(ctx):
    a2, a12, a23 = (0, 1, 0), (1, 1, 0), (0, 1, 1)
    v = ctx.from_root_factors([(a2, -1), (a12, -1)])
    assert v.multiplicity(a2) == -1
    # a1+2a2+a3 is not divisible by a1+a2
    w = ctx.from_fraction(MultiPoly.linear_form((1, 2, 1)))
    assert w.multiplicity(a12) == 0
    with pytest.raises(ValueError):
        v.multiplicity((1, 2, 1))


def test_multiplicity_additive_under_mul(ctx):
    rng = random.Random(5)
    roots = list(ctx.roots)
    for _ in range(40):
        fa = {r: rng.randint(-2, 2) for r in rng.sample(roots, 3)}
        fb = {r: rng.randint(-2, 2) for r in rng.sample(roots, 3)}
        a = ctx.from_root_factors(fa.items())
        b = ctx.from_root_factors(fb.items())
        ab = a * b
        for r in roots:
            assert ab.multiplicity(r) == a.multiplicity(r) + b.multiplicity(r)


def test_field_axioms(ctx):
    rng = random.Random(11)
    roots = list(ctx.roots)
    # includes non-root forms so residual numerators and denominators
    # participate in the axioms, not just the factored fast paths
    lumps = [MultiPoly.linear_form(f) for f in ((1, 2, 1), (2, 1, 0), (0, 1, 2))]

    def rand_value():
        v = ctx.rational(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for r in rng.sample(roots, 2):
            v = v * ctx.from_root_factors([(r, rng.randint(-2, 2))])
        if rng.random() < 0.4:
            lump = ctx.from_fraction(rng.choice(lumps))
            v = v * lump if rng.random() < 0.5 else v / lump
        if rng.random() < 0.5:
            v = v + ctx.rational(rng.randint(-2, 2))
        return v

    for _ in range(25):
        a, b, c = rand_value(), rand_value(), rand_value()
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - b) + b == a
        if not b.is_zero():
            assert (a / b) * b == a
        assert a * ctx.one() == a
        assert (a + ctx.zero()) == a


def test_equality_matches_evaluation(ctx):
    # Probabilistic soundness: equality in the field iff equal at generic
    # rational points (500 random pairs, 3 points each).
    rng = random.Random(17)
    roots = list(ctx.roots)

    def rand_value():
        v = ctx.rational(rng.randint(1, 4))
        for r in rng.sample(roots, 2):
            v = v * ctx.from_root_factors([(r, rng.randint(-1, 1))])
        return v + ctx.rational(rng.randint(0, 2))

    def rand_point():
        # avoid hyperplanes: large distinct primes ratios
        return [Fraction(rng.randint(50, 500), rng.randint(1, 7)) for _ in range(3)]

    def check(a, b):
        eq = a == b
        same_everywhere = all(
            a.evaluate(pt) == b.evaluate(pt) for pt in (rand_point() for _ in range(3))
        )
        assert eq == same_everywhere
        return eq

    agree = 0
    for _ in range(500):
        agree += check(rand_value(), rand_value())
    assert agree > 0  # sanity: collisions do occur given the small pool

    # Residual-carrying values against values built another way: equal
    # ones need not share a representation (residuals with a common
    # factor stay uncancelled), so subtraction decides.
    lumps = [MultiPoly.linear_form(f) for f in ((1, 2, 1), (2, 1, 0), (0, 1, 2))]
    unlike = 0
    for _ in range(60):
        p, q, r = rng.sample(lumps, 3)
        x = rand_value()
        a = x * ctx.from_fraction(p, q)
        for b, want in (
            (x * ctx.from_fraction(p * r, q * r), True),
            (x * ctx.from_fraction(p * r, q * q), False),
        ):
            assert not (a.is_factored() or b.is_factored())
            assert check(a, b) == want
            unlike += want and (a.num, a.den) != (b.num, b.den)
    assert unlike > 0


def test_normalization_idempotent(ctx):
    v = ctx.from_fraction(
        MultiPoly.linear_form((0, 1, 0)) * MultiPoly.linear_form((1, 1, 0)) * 6,
        MultiPoly.linear_form((1, 1, 1)) * 4,
    )
    rebuilt = ctx.build(v.unit, v.fac, dict(v.num), dict(v.den))
    assert rebuilt.unit == v.unit
    assert rebuilt.fac == v.fac
    assert rebuilt.num == v.num and rebuilt.den == v.den


def test_pow_matches_repeated_multiplication(ctx):
    lump = ctx.from_fraction(
        MultiPoly.linear_form((1, 2, 1)), MultiPoly.linear_form((2, 1, 0))
    )
    factored = ctx.from_root_factors(
        [((0, 1, 0), -1), ((1, 1, 0), 2)], unit=Fraction(-2, 3)
    )
    values = [lump * factored, lump + factored]
    for x in values:
        assert not x.is_factored()
        for k in range(-4, 5):
            want = ctx.one()
            for _ in range(abs(k)):
                want = want * (x if k > 0 else x.inverse())
            got = x**k
            assert (got.unit, got.fac, got.num, got.den) == (
                want.unit, want.fac, want.num, want.den
            )


def test_pow_takes_only_int_exponents(ctx):
    v = ctx.from_fraction(
        MultiPoly.linear_form((1, 2, 1)), MultiPoly.linear_form((2, 1, 0))
    ) * ctx.from_root_factors([((0, 1, 0), -1)], unit=Fraction(-2, 3))
    assert v ** 2 == v * v
    # A float or fractional exponent would put floats into the unit and
    # the root exponents; it raises instead.
    for k in (2.0, Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            v ** k


def test_zero_and_pole_handling(ctx):
    zero = ctx.zero()
    one = ctx.one()
    assert (zero + one) == one
    assert (zero * one).is_zero()
    with pytest.raises(ZeroDivisionError):
        one / zero
    v = ctx.from_root_factors([((1, 0, 0), -1)])
    with pytest.raises(ZeroDivisionError) as err:
        v.evaluate([0, 1, 1])
    assert "a1" in str(err.value)


def test_json_round_trip(ctx):
    v = ctx.from_fraction(
        MultiPoly.linear_form((1, 2, 1)) * Fraction(3, 7)
    ) / ctx.from_root_factors([((1, 0, 0), 1), ((1, 1, 1), 2)])
    data = json.loads(json.dumps(v.to_json_dict()))
    back = v.__class__.from_json_dict(ctx, data)
    assert back == v
    assert back.to_json_dict() == v.to_json_dict()


GOOD_JSON = {
    "unit": "3/7",
    "root_factors": [{"root": [1, 0, 0], "exp": -1}],
    "num_terms": [{"coeff": "1", "exp": [1, 2, 1]}],
    "den_terms": [{"coeff": "1", "exp": [0, 0, 0]}],
}


def without(key):
    return {k: v for k, v in GOOD_JSON.items() if k != key}


MALFORMED = {
    "short-root": lambda ctx: ctx.from_root_factors([((1, 1), 1)]),
    "long-root": lambda ctx: ctx.from_root_factors([((1, 1, 0, 0), -1)]),
    "short-num-exponent": lambda ctx: ctx.from_fraction({(1, 0): 1}),
    "long-den-exponent": lambda ctx: ctx.from_fraction({(1, 0, 0): 1}, {(0, 0, 0, 1): 2}),
    "negative-num-exponent": lambda ctx: ctx.from_fraction({(-1, 0, 0): 1, (0, 1, 0): 1}),
    "fractional-num-exponent": lambda ctx: ctx.from_fraction({(Fraction(3, 2), 0, 0): 1}),
    "float-den-exponent": lambda ctx: ctx.from_fraction({(1, 0, 0): 1}, {(0, 1.0, 0): 1}),
    "poly-negative-exponent": lambda ctx: MultiPoly(3, {(0, -2, 0): 1}),
    "poly-fractional-exponent": lambda ctx: MultiPoly(3, {(0, 0, Fraction(1, 2)): 1}),
    "poly-float-exponent": lambda ctx: MultiPoly(3, {(1.5, 0, 0): 1}),
    "poly-short-exponent": lambda ctx: MultiPoly(3, {(1, 0): 1}),
    "json-not-a-dict": [GOOD_JSON],
    "json-text": "1/a1",
    "json-no-unit": without("unit"),
    "json-no-num-terms": without("num_terms"),
    "json-no-den-terms": without("den_terms"),
    "json-bad-fraction": {**GOOD_JSON, "unit": "1/x"},
    "json-zero-unit-denominator": {**GOOD_JSON, "unit": "1/0"},
    "json-empty-den-terms": {**GOOD_JSON, "den_terms": []},
    "json-factor-without-exp": {**GOOD_JSON, "root_factors": [{"root": [1, 0, 0]}]},
    "json-short-root": {**GOOD_JSON, "root_factors": [{"root": [1, 1], "exp": 1}]},
    "json-fractional-exp": {**GOOD_JSON, "root_factors": [{"root": [1, 0, 0], "exp": 1.5}]},
    "json-float-root": {**GOOD_JSON, "root_factors": [{"root": [1.0, 0, 0], "exp": 1}]},
    "json-short-exponent": {**GOOD_JSON, "num_terms": [{"coeff": "1", "exp": [1, 0]}]},
    "json-negative-exponent": {**GOOD_JSON, "num_terms": [
        {"coeff": "1", "exp": [-1, 0, 0]}, {"coeff": "1", "exp": [0, 1, 0]}
    ]},
    "json-fractional-exponent": {**GOOD_JSON, "num_terms": [{"coeff": "1", "exp": [1.5, 0, 0]}]},
    "json-float-exponent": {**GOOD_JSON, "den_terms": [{"coeff": "1", "exp": [0, 1.0, 0]}]},
    "json-coeff-not-text": {**GOOD_JSON, "num_terms": [{"coeff": None, "exp": [1, 0, 0]}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_values_raise_invalid_input(ctx, case):
    value_cls = type(ctx.one())
    assert value_cls.from_json_dict(ctx, GOOD_JSON).evaluate([1, 1, 1]) == Fraction(3, 7)
    bad = MALFORMED[case]
    with pytest.raises(InvalidInputError):
        if callable(bad):
            bad(ctx)
        else:
            value_cls.from_json_dict(ctx, bad)


def test_str_rendering(ctx):
    v = ctx.from_root_factors([((0, 1, 0), -1), ((1, 1, 0), -1)])
    assert str(1 / v) == "a2*(a1+a2)"
    assert str(ctx.one()) == "1"
    assert str(ctx.zero()) == "0"
