"""Acceptance criteria, one test per criterion.

Each test recomputes everything from scratch, checks exact equality in
the rational-function field, and enforces the stated wall-clock budget.
A PASS line with the timing is printed per criterion (run with -s to see
them all).
"""

import random
import time
from contextlib import contextmanager
from math import factorial

import pytest

from krtorus.cartan import braid_shuffle, build_frame
from krtorus.cluster import initial_seed, mutate
from krtorus.cuspidal import (
    CuspidalRecursion,
    cuspidal_value,
    dimension_ratio,
    minimal_pair,
    standard_seed_minors,
)
from krtorus.field.poly import MultiPoly
from krtorus.qcartan import QuantumCartanInverse
from krtorus.segments import segment_d, sigma_d, theta_d
from krtorus.torusmap import (
    TorusMorphism,
    check_value_properties,
    closed_form_type_a,
    closed_form_type_d,
)

from oracles import series_inverse_coeffs


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS in {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"{label} exceeded its {seconds}s budget ({elapsed:.1f}s)"


def sink_source():
    return build_frame("A", 3, {(2, 1), (2, 3)}, height_anchor=(2, 0))


A1, A2_, A3_ = (1, 0, 0), (0, 1, 0), (0, 0, 1)
A12, A23, A123 = (1, 1, 0), (0, 1, 1), (1, 1, 1)

FIGURE_TABLE = {
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
    (2, -8): [A2_],
    (1, -9): [A2_, A12],
    (3, -9): [A2_, A23],
}


def test_criterion_01_displayed_node_values():
    with budget("criterion 1 (displayed node table)", 1.0):
        frame = sink_source()
        calc = TorusMorphism(frame)
        assert len(FIGURE_TABLE) == 15
        for (i, p), roots in FIGURE_TABLE.items():
            k = 1 + (frame.xi[i] - p) // 2
            got = calc.kr_value(i, p, k)
            want = calc.ctx.from_root_factors((r, -1) for r in roots)
            assert got == want, (i, p)


def test_criterion_02_quotient_mutations():
    with budget("criterion 2 (quotient-seed mutations)", 1.0):
        frame = sink_source()
        calc = TorusMorphism(frame)
        seed = initial_seed(calc, 2 * frame.N, specialize_frozen=True)
        expected = {
            4: ((1, 2, 1), [A1, A2_, A3_, A123]),
            5: ((0, 1, 2), [A1, A2_, A12]),
            6: ((2, 1, 0), [A2_, A3_, A23]),
        }
        for v, (num, dens) in expected.items():
            got = mutate(seed, v).values[v]
            want = calc.ctx.from_fraction(
                MultiPoly.linear_form(num)
            ) / calc.ctx.from_root_factors((r, 1) for r in dens)
            assert got == want, v


def test_criterion_03_generators_match_cuspidal_values():
    with budget("criterion 3 (fundamentals = cuspidal values, A/D up to 6)", 30.0):
        frames = [build_frame("A", n) for n in range(1, 7)]
        frames += [build_frame("D", n) for n in range(4, 7)]
        for frame in frames:
            calc = TorusMorphism(frame)
            for i in frame.datum.vertices():
                for r in range(1, frame.n_letters[i] + 1):
                    p = frame.xi[i] - 2 * (r - 1)
                    beta = frame.beta_eps(i, p)[0]
                    assert calc.kr_value(i, p, 1) == cuspidal_value(frame, beta), (
                        frame.datum.family,
                        frame.datum.rank,
                        (i, p),
                    )


def test_criterion_04_closed_forms_match_t_system():
    with budget("criterion 4 (closed forms vs T-system, A/D up to 5)", 60.0):
        frames = [build_frame("A", n) for n in range(1, 6)]
        frames += [build_frame("D", n) for n in range(4, 6)]
        for frame in frames:
            closed = (
                closed_form_type_a
                if frame.datum.family == "A"
                else closed_form_type_d
            )
            calc = TorusMorphism(frame)
            for i in frame.datum.vertices():
                for r in range(1, frame.n_letters[i] + 1):
                    s = frame.xi[i] - 2 * (r - 1)
                    for k in range(1, r + 1):
                        assert closed(frame, i, s, k) == calc.kr_value(i, s, k), (
                            frame.datum.family,
                            frame.datum.rank,
                            (i, s, k),
                        )


def test_criterion_05_properties_classical_types():
    with budget("criterion 5 (A/B/C sweep, A2..A5, D4, D5)", 120.0):
        frames = [build_frame("A", n) for n in range(2, 6)]
        frames += [build_frame("D", 4), build_frame("D", 5)]
        frames += [sink_source()]
        for frame in frames:
            report = check_value_properties(TorusMorphism(frame), 2 * frame.N)
            assert report.ok, (frame.datum.family, frame.datum.rank, report.violations)


@pytest.mark.slow
def test_criterion_05_properties_e6():
    with budget("criterion 5 (A/B/C sweep, E6)", 900.0):
        frame = build_frame("E", 6)
        report = check_value_properties(TorusMorphism(frame), 2 * frame.N)
        assert report.ok, report.violations


def test_criterion_06_periodicity_and_frozen_triviality():
    with budget("criterion 6 (periodicity, frozen and window triviality)", 120.0):
        frames = [sink_source(), build_frame("A", 3), build_frame("D", 4),
                  build_frame("E", 6)]
        for frame in frames:
            calc = TorusMorphism(frame)
            for t in range(1, frame.N + 1):
                assert calc.initial_value(t + 2 * frame.N) == calc.initial_value(t)
            seed = initial_seed(calc, 2 * frame.N)
            assert seed.quiver.frozen == {
                t
                for t in range(1, 2 * frame.N + 1)
                if calc.frame.t_plus(t) > 2 * frame.N
            }
            for t in seed.quiver.frozen:
                assert seed.values[t].is_one()
            for i in frame.datum.vertices():
                for extra in (0, 1):
                    p = frame.xi[i] - 2 * frame.h + 2 - 2 * extra
                    mono = {(i, p + 2 * j): 1 for j in range(frame.h)}
                    assert calc.monomial_value(mono).is_one()


def test_criterion_07_coefficient_table():
    with budget("criterion 7 (coefficient table vs oracle and identities)", 30.0):
        # pinned series for the rank-3 path
        table3 = QuantumCartanInverse(build_frame("A", 3).datum)
        series = {
            (1, 1): {1: 1, 7: -1, 9: 1, 15: -1},
            (1, 2): {2: 1, 6: -1, 10: 1, 14: -1},
            (1, 3): {3: 1, 5: -1, 11: 1, 13: -1},
            (2, 2): {1: 1, 3: 1, 5: -1, 7: -1, 9: 1, 11: 1, 13: -1, 15: -1},
            (2, 3): {2: 1, 6: -1, 10: 1, 14: -1},
            (3, 3): {1: 1, 7: -1, 9: 1, 15: -1},
        }
        for (i, j), wanted in series.items():
            for m in range(1, 17):
                assert table3.coeff(i, j, m) == wanted.get(m, 0)
        # generic series-inversion oracle, all types up to rank 8
        data = [("A", n) for n in range(1, 9)]
        data += [("D", n) for n in range(4, 9)]
        data += [("E", n) for n in (6, 7, 8)]
        for family, rank in data:
            frame_datum = build_frame(family, rank).datum
            table = QuantumCartanInverse(frame_datum)
            oracle = series_inverse_coeffs(frame_datum.adjacency, rank, 40)
            for m in range(1, 41):
                for i in range(1, rank + 1):
                    for j in range(1, rank + 1):
                        assert table.coeff(i, j, m) == oracle[m][i - 1][j - 1]
            for i in frame_datum.vertices():
                for j in frame_datum.vertices():
                    d = frame_datum.d(i, j)
                    assert all(table.coeff(i, j, m) == 0 for m in range(1, d + 1))
                    assert table.coeff(i, j, d + 1) == 1
        # signed Euler pairing over a double window
        for frame in (sink_source(), build_frame("D", 4)):
            table = QuantumCartanInverse(frame.datum)
            points = [frame.phi_inv(t) for t in range(1, 2 * frame.N + 1)]
            for (i, p) in points:
                for (j, s) in points:
                    if s >= p:
                        bi, ei = frame.beta_eps(i, p)
                        bj, ej = frame.beta_eps(j, s)
                        assert table.coeff(i, j, s - p + 1) == ei * ej * frame.euler_form(bi, bj)


def test_criterion_08_flag_minor_recursion():
    with budget("criterion 8 (flag minors on random reduced words)", 120.0):
        rng = random.Random(20240810)
        for frame in (build_frame("A", 3), build_frame("D", 4)):
            calc = TorusMorphism(frame)
            table = standard_seed_minors(frame)
            for t in range(1, frame.N + 1):
                assert table.value(t) == calc.initial_value(t)
            for _ in range(10):
                word = braid_shuffle(frame.datum, frame.base_word, 80, rng)
                table = standard_seed_minors(frame, word)
                for j, product in enumerate(table.products, 1):
                    assert product.is_factored() and product.unit == 1
                    assert all(e > 0 for e in product.root_factors.values())
                    nxt = next(
                        (
                            l
                            for l in range(j + 1, frame.N + 1)
                            if word[l - 1] == word[j - 1]
                        ),
                        None,
                    )
                    if nxt is not None:
                        pj = product.root_factors
                        pn = table.products[nxt - 1].root_factors
                        for beta in set(pj) | set(pn):
                            assert pj.get(beta, 0) - pn.get(beta, 0) <= 1


def test_criterion_09_dimension_ratio_identity():
    with budget("criterion 9 (dimension-ratio identity, A1..A4)", 10.0):
        rng = random.Random(9)
        for n in range(1, 5):
            frame = build_frame("A", n)
            calc = TorusMorphism(frame)
            ones = [1] * n
            for _ in range(50):
                exps = {}
                for i in range(1, n + 1):
                    for r in range(1, n - i + 2):
                        m = rng.randrange(0, 3)
                        if m:
                            exps[(i, r)] = m
                if not exps:
                    exps[(1, 1)] = 1
                mono = {
                    (i, frame.xi[i] - 2 * (r - 1)): m for (i, r), m in exps.items()
                }
                total = sum(i * m for (i, _), m in exps.items())
                lhs = dimension_ratio(n, exps)
                rhs = factorial(total) * calc.monomial_value(mono).evaluate(ones)
                assert lhs == rhs, exps


def test_criterion_10_minimal_pairs_and_recursion():
    with budget("criterion 10 (minimal pairs and two-term recursion)", 60.0):
        for n in range(4, 7):
            frame = build_frame("D", n)
            for p in range(1, n - 1):
                for q in range(p + 1, n):
                    assert minimal_pair(frame, theta_d(n, p, q)) == (
                        segment_d(n, p, sigma_d(n, n - 1, p)),
                        segment_d(n, q, sigma_d(n, n, p)),
                    ), (n, p, q)
        frames = [build_frame("A", n) for n in range(2, 7)]
        frames += [build_frame("D", n) for n in range(4, 7)]
        for frame in frames:
            rec = CuspidalRecursion(frame)
            for beta in frame.positive_roots:
                got = rec.value(beta)
                assert got is not None
                assert got == cuspidal_value(frame, beta), (
                    frame.datum.family,
                    frame.datum.rank,
                    beta,
                )
        # applicability in type E is reported, never assumed
        rec = CuspidalRecursion(build_frame("E", 6))
        good, bad = rec.coverage()
        print(
            f"criterion 10 note: E6 recursion coverage "
            f"{len(good)}/{len(good) + len(bad)} roots"
        )


@pytest.mark.slow
def test_e6_generators_cross_check():
    # Both value routes agree on every E6 fundamental where the
    # minimal-pair recursion applies (the rest are honestly reported as
    # out of its reach, never guessed).
    with budget("E6 cross-check (T-system vs two-term recursion)", 300.0):
        frame = build_frame("E", 6)
        calc = TorusMorphism(frame)
        rec = CuspidalRecursion(frame)
        matched = 0
        for i in frame.datum.vertices():
            for r in range(1, frame.n_letters[i] + 1):
                p = frame.xi[i] - 2 * (r - 1)
                value = rec.value(frame.beta_eps(i, p)[0])
                if value is not None:
                    assert calc.kr_value(i, p, 1) == value, (i, p)
                    matched += 1
        assert matched >= 27


@pytest.mark.slow
@pytest.mark.parametrize("rank", [7, 8])
def test_e7_e8_property_sweep(rank):
    frame = build_frame("E", rank)
    report = check_value_properties(TorusMorphism(frame), 2 * frame.N)
    assert report.ok, report.violations
