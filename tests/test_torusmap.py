import inspect
import sys

import pytest

from krtorus.cartan import build_frame
from krtorus.cli import main
from krtorus.errors import InvalidInputError
from krtorus.qcartan import QuantumCartanInverse
from krtorus.torusmap import (
    TorusMorphism,
    check_kr_label,
    check_value_properties,
    closed_form_type_a,
    closed_form_type_d,
    parse_monomial,
    render_monomial,
)


@pytest.fixture(scope="module")
def ss(a3_sink_source):
    return TorusMorphism(a3_sink_source)


def rp(ctx, *roots):
    """Reciprocal product of root coordinate tuples."""
    return ctx.from_root_factors((r, -1) for r in roots)


A1, A2_, A3_ = (1, 0, 0), (0, 1, 0), (0, 0, 1)
A12, A23, A123 = (1, 1, 0), (0, 1, 1), (1, 1, 1)


# -- single variables ------------------------------------------------------


def test_y_value_top_of_column(ss):
    assert ss.y_value(2, 0) == rp(ss.ctx, A2_)


def test_y_value_depth_one(ss):
    assert ss.y_value(2, -2) == rp(ss.ctx, A12, A23, A123)


def test_y_value_matches_closed_ratio_type_a():
    for n in range(1, 7):
        frame = build_frame("A", n)
        calc = TorusMorphism(frame)
        for i in frame.datum.vertices():
            for r in range(1, frame.n_letters[i] + 1):
                s = frame.xi[i] - 2 * (r - 1)
                want = closed_form_type_a(frame, i, s, r)
                if r > 1:
                    want = want / closed_form_type_a(frame, i, s + 2, r - 1)
                assert calc.y_value(i, s) == want, (n, i, s)


def test_calculators_of_a_type_share_one_table(capsys):
    monotonic = build_frame("D", 5)
    oriented = build_frame("D", 5, "2>1,2>3,4>3,3>5", height_anchor=(4, 3))
    shared = monotonic.datum.qcartan
    assert TorusMorphism(monotonic).table is shared
    assert TorusMorphism(oriented).table is shared
    # ctilde rows come from the same table, which keeps one period of 2h rows
    assert main(["ctilde", "--type", "D", "--rank", "5", "1", "5", "10000"]) == 0
    capsys.readouterr()
    assert len(shared.rows) == 2 * monotonic.h
    # a table passed in is the one the calculator reads, fixed in size too
    own = QuantumCartanInverse(monotonic.datum)
    calc = TorusMorphism(monotonic, table=own)
    assert calc.table is own
    assert calc.y_value(1, -6) == TorusMorphism(monotonic).y_value(1, -6)
    calc.y_value(1, monotonic.xi[1] - 6 * monotonic.h)  # depth 3h
    assert len(own.rows) == 2 * monotonic.h


def test_y_value_requires_torus_point(ss):
    with pytest.raises(InvalidInputError):
        ss.y_value(2, 1)


# -- monomials ----------------------------------------------------------------


def test_empty_monomial_is_one(ss):
    assert ss.monomial_value({}).is_one()


def test_screening_variable_ratio(ss):
    # the inverse of the deformed-simple-root monomial at (i, p-1) maps to
    # beta at (i, p-2) divided by beta at (i, p)
    f = ss.frame
    for t in range(1, 2 * f.N + 1):
        i, p = f.phi_inv(t)
        if p - 2 < f.xi[i] - 6 * f.h:
            continue
        mono = {(i, p): -1, (i, p - 2): -1}
        for j in f.datum.adjacency[i]:
            mono[(j, p - 1)] = mono.get((j, p - 1), 0) + 1
        want = ss.ctx.from_root_factors(
            [(f.beta_eps(i, p - 2)[0], 1), (f.beta_eps(i, p)[0], -1)]
        )
        assert ss.monomial_value(mono) == want


def test_full_period_string_maps_to_one(ss, d4):
    for calc in (ss, TorusMorphism(d4)):
        f = calc.frame
        for i in f.datum.vertices():
            for extra in (0, 1, 2):
                p = f.xi[i] - 2 * f.h + 2 - 2 * extra
                mono = {(i, p + 2 * j): 1 for j in range(f.h)}
                assert calc.monomial_value(mono).is_one()


def test_monomial_grammar_round_trip():
    mono = parse_monomial("Y[1,-1]*Y[2,-2]^-1*Y[1,-1]")
    assert mono == {(1, -1): 2, (2, -2): -1}
    assert parse_monomial(render_monomial(mono)) == mono
    assert parse_monomial("1") == {}
    with pytest.raises(InvalidInputError):
        parse_monomial("Z[1,2]")
    with pytest.raises(InvalidInputError):
        parse_monomial("Y[1]")


# -- KR classes ------------------------------------------------------------------


def test_kr_label_validation(ss):
    f = ss.frame
    check_kr_label(f, 2, -2, 2)
    with pytest.raises(InvalidInputError):
        check_kr_label(f, 2, -2, 3)  # sticks out above the height
    with pytest.raises(InvalidInputError):
        check_kr_label(f, 2, -1, 1)  # wrong parity
    with pytest.raises(InvalidInputError):
        check_kr_label(f, 2, -2, -1)


def test_kr_zero_length_is_one(ss):
    assert ss.kr_value(2, -2, 0).is_one()


def test_kr_fundamental_at_top_is_gamma_product(d4, e6):
    # at the top of a column the fundamental value is 1 / prod(gamma_j)
    # over vertices j with a directed path to i
    for f in (d4, e6):
        calc = TorusMorphism(f)
        for i in f.datum.vertices():
            inflow = [j for j in f.datum.vertices() if f.gamma[i][j - 1]]
            want = calc.ctx.from_root_factors((f.gamma[j], -1) for j in inflow)
            assert calc.kr_value(i, f.xi[i], 1) == want


def test_sink_source_table(ss):
    f = ss.frame
    table = {
        (2, 0): [A2_],
        (1, -1): [A2_, A12],
        (3, -1): [A2_, A23],
        (2, -2): [A2_, A12, A23, A123],
        (1, -3): [A3_, A23, A123],
        (3, -3): [A1, A12, A123],
        (2, -4): [A1, A3_, A123],
        (1, -5): [A1],
        (3, -5): [A3_],
        (2, -6): [],
        (1, -7): [],
        (3, -7): [],
    }
    for (i, p), roots in table.items():
        k = 1 + (f.xi[i] - p) // 2
        assert ss.kr_value(i, p, k) == rp(ss.ctx, *roots), (i, p)


def test_kr_equals_initial_and_string_product(ss, d4):
    for calc in (ss, TorusMorphism(d4)):
        f = calc.frame
        for t in range(1, 2 * f.N + 1):
            i, p = f.phi_inv(t)
            k = 1 + (f.xi[i] - p) // 2
            v = calc.kr_value(i, p, k)
            assert v == calc.initial_value(t)
            mono = {(i, p + 2 * j): 1 for j in range(k)}
            assert v == calc.monomial_value(mono)


def test_t_system_plug_back(ss, d4):
    for calc in (ss, TorusMorphism(d4)):
        f = calc.frame
        for i in f.datum.vertices():
            for r in range(2, f.h):
                p = f.xi[i] - 2 * (r - 1)
                for k in range(1, r):
                    lhs = calc.kr_value(i, p + 2, k) * calc.kr_value(i, p, k)
                    rhs = calc.kr_value(i, p, k + 1) * calc.kr_value(i, p + 2, k - 1)
                    prod = calc.ctx.one()
                    for j in f.datum.adjacency[i]:
                        prod = prod * calc.kr_value(j, p + 1, k)
                    assert lhs == rhs + prod, (i, p, k)


def test_deep_kr_label_needs_no_recursion():
    # Labels far below the window used to recurse once per dependency; the
    # solve must fit in a stack only a little deeper than the caller's.
    frame = build_frame("A", 1)
    calc = TorusMorphism(frame)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        value = calc.kr_value(1, -200, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert value == frame.root_context.from_root_factors([((1,), -1)], unit=2)
    assert str(value) == "2/a1"


# -- closed forms ------------------------------------------------------------------


def test_closed_form_a_instances(a2):
    want = rp(a2.root_context, (0, 1), (1, 1))
    assert closed_form_type_a(a2, 1, -2, 2) == want
    for n in (3, 4):
        frame = build_frame("A", n)
        for i in frame.datum.vertices():
            got = closed_form_type_a(frame, i, frame.xi[i], 1)
            from krtorus.segments import segment_a

            want = frame.root_context.from_root_factors(
                (segment_a(n, 1, q), -1) for q in range(1, i + 1)
            )
            assert got == want


def test_closed_forms_match_t_system(d4):
    for frame in (build_frame("A", 4), d4):
        closed = closed_form_type_a if frame.datum.family == "A" else closed_form_type_d
        calc = TorusMorphism(frame)
        for i in frame.datum.vertices():
            for r in range(1, frame.n_letters[i] + 1):
                s = frame.xi[i] - 2 * (r - 1)
                for k in range(1, r + 1):
                    assert closed(frame, i, s, k) == calc.kr_value(i, s, k)


def test_closed_form_rejects_bad_labels(a2, d4, a3_sink_source):
    with pytest.raises(InvalidInputError):
        closed_form_type_a(a2, 1, -4, 1)  # below the finite window
    with pytest.raises(InvalidInputError):
        closed_form_type_a(a2, 1, -2, 3)  # k out of range
    with pytest.raises(InvalidInputError):
        closed_form_type_a(d4, 1, -2, 1)  # wrong family
    with pytest.raises(InvalidInputError):
        closed_form_type_a(a3_sink_source, 2, 0, 1)  # not monotonic
    with pytest.raises(InvalidInputError):
        closed_form_type_d(a2, 1, 0, 1)


# -- structural properties ------------------------------------------------------------


def test_properties_pass_rank_one():
    frame = build_frame("A", 1, set())
    calc = TorusMorphism(frame)
    assert calc.initial_value(1) == rp(calc.ctx, (1,))
    assert calc.initial_value(2).is_one()
    report = check_value_properties(calc, 2)
    assert report.ok


def test_properties_sweep(ss, d4):
    for calc in (ss, TorusMorphism(d4)):
        report = check_value_properties(calc, 2 * calc.frame.N)
        assert report.ok, report.violations
        assert report.checked == 2 * calc.frame.N
        assert any("all hold" in line for line in report.lines())


def test_initial_values_repeat_after_double_window(ss, d4):
    for calc in (ss, TorusMorphism(d4)):
        N = calc.frame.N
        for t in range(1, 2 * N + 1):
            assert calc.initial_value(t + 2 * N) == calc.initial_value(t)


def test_values_invariant_under_anchor_shift():
    # the additive normalization of the height function is presentation
    # only: values at correspondingly shifted points agree
    base = build_frame("D", 4)
    shifted = build_frame("D", 4, height_anchor=(1, 10))
    delta = shifted.xi[1] - base.xi[1]
    assert all(shifted.xi[i] - base.xi[i] == delta for i in base.datum.vertices())
    cb, cs = TorusMorphism(base), TorusMorphism(shifted)
    for i in base.datum.vertices():
        for m in range(6):
            p = base.xi[i] - 2 * m
            assert cb.y_value(i, p) == cs.y_value(i, p + delta)
            assert cb.kr_value(i, p, m + 1) == cs.kr_value(i, p + delta, m + 1)
