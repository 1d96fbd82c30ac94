import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.cartan import build_frame
from krtorus.field import MultiPoly, kernel
from krtorus.field.poly import integral_primitive


@pytest.fixture(scope="module")
def ctx():
    return build_frame("A", 3).root_context


def poly_dicts(n=3, max_terms=4, max_exp=3, max_coeff=5, min_size=0):
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    coeffs = st.integers(-max_coeff, max_coeff).filter(lambda c: c != 0)
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_terms)


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


def evaluate_terms(terms, point):
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= x**k
        total += v
    return total


POINTS = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=3, max_size=3
)


@given(a=poly_dicts(), b=poly_dicts(), point=POINTS)
@settings(max_examples=60, deadline=None)
def test_kernel_mul_add_commute_with_evaluation(a, b, point):
    # Independent oracle: exact evaluation, term by term, at a rational point.
    va, vb = evaluate_terms(a, point), evaluate_terms(b, point)
    assert evaluate_terms(kernel.poly_mul(a, b), point) == va * vb
    assert evaluate_terms(kernel.poly_add(a, b), point) == va + vb
    assert all(kernel.poly_add(a, b).values())
    assert all(kernel.poly_mul(a, b).values())


FORMS3 = st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)])


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


@given(p=poly_dicts(), g=poly_dicts(min_size=1))
@settings(max_examples=60, deadline=None)
def test_kernel_div_exact_inverts_mul(p, g):
    product = kernel.poly_mul(p, g)
    got = kernel.poly_div_exact(product, g)
    if p:
        assert got == p
    else:
        assert got == {}


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

    agree = 0
    for _ in range(500):
        a, b = rand_value(), rand_value()
        eq = a == b
        same_everywhere = all(
            a.evaluate(pt) == b.evaluate(pt) for pt in (rand_point() for _ in range(3))
        )
        assert eq == same_everywhere
        agree += eq
    assert agree > 0  # sanity: collisions do occur given the small pool


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


def test_str_rendering(ctx):
    v = ctx.from_root_factors([((0, 1, 0), -1), ((1, 1, 0), -1)])
    assert str(1 / v) == "a2*(a1+a2)"
    assert str(ctx.one()) == "1"
    assert str(ctx.zero()) == "0"
