"""Word positions, seed arrows, torus values and finite-word recursions,
each read from one period, against the scanning and whole-window oracles
of ``oracles.py``."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krtorus.cartan import braid_shuffle, build_frame, is_dominant_minuscule, is_fully_commutative
from krtorus.cluster import initial_seed
from krtorus import suites
from krtorus.cuspidal import FlagMinorTable, standard_seed_minors
from krtorus.errors import InvalidInputError
from krtorus.suites import _full_period_factor_is_one, run_suite
from krtorus.torusmap import TorusMorphism

from oracles import (
    coxeter_columns,
    dense_inversion_roots,
    full_period_exponents,
    infinite_word,
    scanned_positions,
    scanning_seed,
    scanning_seed_minors,
    scanning_word_classes,
    series_inverse_coeffs,
    window_exponents,
)
from strategies import CLI_TYPES, oriented_frames


@given(frame=oriented_frames())
@settings(max_examples=40, deadline=None)
def test_word_positions_match_a_scan(frame):
    n_pos = frame.N
    scan = scanned_positions(infinite_word(frame.base_word, frame.star, 7 * n_pos), frame.xi)
    for t in range(1, 5 * n_pos + 1):
        letter, point, nxt, prev = scan[t]
        assert frame.letter(t) == letter
        assert frame.phi_inv(t) == point
        assert frame.phi(*point) == t
        assert frame.t_plus(t) == nxt
        assert frame.t_minus(t) == prev


@given(frame=oriented_frames())
@settings(max_examples=25, deadline=None)
def test_seed_arrows_match_the_scanning_rule(frame):
    n_pos = frame.N
    word = infinite_word(frame.base_word, frame.star, 5 * n_pos + 4)
    calc = TorusMorphism(frame)
    for window in (1, 2, n_pos, 2 * n_pos + 3, 3 * n_pos):
        seed = initial_seed(calc, window)
        arrows, frozen = scanning_seed(word, frame.datum.adjacency, window)
        assert seed.quiver.arrows == arrows
        assert seed.quiver.frozen == frozen


@given(frame=oriented_frames())
@settings(max_examples=10, deadline=None)
def test_values_match_the_unreduced_window_product(frame):
    h, n = frame.h, frame.datum.rank
    coeffs = series_inverse_coeffs(frame.datum.adjacency, n, 6 * h + n + 2)
    columns = coxeter_columns(frame.datum.cartan, frame.orientation, 3 * h + n)
    calc = TorusMorphism(frame)
    for i in frame.datum.vertices():
        for d in range(3 * h + 1):
            p = frame.xi[i] - 2 * d
            for value, lag in ((calc.y_value(i, p), 2), (calc.initial_value(frame.phi(i, p)), None)):
                assert value.is_factored() and value.unit == 1
                assert value.root_factors == window_exponents(coeffs, columns, frame.xi, i, p, lag)


@given(frame=oriented_frames())
@settings(max_examples=25, deadline=None)
def test_full_period_factor_is_one_on_every_strip(frame):
    # G(i, p) = F(i, p - 2h) / F(i, p) depends on p through its depth mod h
    h, n = frame.h, frame.datum.rank
    coeffs = series_inverse_coeffs(frame.datum.adjacency, n, 2 * h)
    columns = coxeter_columns(frame.datum.cartan, frame.orientation, 2 * h + n)
    for i in frame.datum.vertices():
        for d in range(h):
            p = frame.xi[i] - 2 * d
            assert full_period_exponents(coeffs, columns, frame.xi, h, i, p) == {}
            assert _full_period_factor_is_one(frame, i, p)


def test_periodicity_suite_sees_a_full_period_factor(monkeypatch):
    frame = build_frame("D", 5)
    assert run_suite("periodicity", frame).lines[0].startswith("ok   values repeat after 2N")
    table = frame.datum.qcartan
    coeff = table.coeff
    monkeypatch.setattr(table, "coeff", lambda i, j, m: coeff(i, j, m) + (m == 2 * frame.h))
    assert run_suite("periodicity", frame).lines[0].startswith("FAIL values repeat after 2N")


@st.composite
def finite_words(draw):
    """(datum, word): random letters; a braid-shuffled word of the longest
    element cut at a random length; or, in type A, a Young diagram in the
    k x (n + 1 - k) box read row by row, the box (r, c) giving the letter
    k - r + c, and shuffled by commutations (a fully commutative word, and
    a dominant minuscule one for a rectangle)."""
    family, rank = draw(st.sampled_from(CLI_TYPES))
    frame = build_frame(family, rank)
    datum = frame.datum
    kind = draw(st.sampled_from(["random", "shuffled", "diagram"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        word = draw(st.lists(st.integers(1, rank), max_size=12))
    elif kind == "shuffled" or family != "A":
        word = braid_shuffle(datum, frame.base_word, draw(st.integers(0, 80)), rng)
        word = word[: draw(st.integers(0, len(word)))]
    else:
        k = draw(st.integers(1, rank))
        if draw(st.booleans()):  # a rectangle
            rows = [draw(st.integers(0, rank + 1 - k))] * k
        else:
            rows = sorted(draw(st.lists(st.integers(0, rank + 1 - k), min_size=k, max_size=k)), reverse=True)
        word = [k - r + c for r, length in enumerate(rows) for c in range(length)]
        for _ in range(draw(st.integers(0, 30))):
            swaps = [s for s in range(len(word) - 1) if abs(word[s] - word[s + 1]) > 1]
            if swaps:
                s = rng.choice(swaps)
                word[s], word[s + 1] = word[s + 1], word[s]
    return datum, tuple(word)


@given(case=finite_words())
@example(case=(build_frame("A", 5).datum, (3, 4, 5, 2, 3, 4, 1, 2, 3)))  # the 3 x 3 box
@settings(max_examples=300, deadline=None)
def test_word_predicates_match_their_scanning_definitions(case):
    datum, word = case
    predicates = (is_fully_commutative, is_dominant_minuscule)
    if dense_inversion_roots(datum.cartan, word) is None:
        for predicate in predicates:
            with pytest.raises(InvalidInputError, match="not reduced"):
                predicate(datum, word)
    else:
        got = tuple(predicate(datum, word) for predicate in predicates)
        assert got == scanning_word_classes(datum.adjacency, word)


@given(frame=oriented_frames(), steps=st.integers(0, 80), seed=st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_seed_minors_match_their_scanning_definition(frame, steps, seed):
    word = braid_shuffle(frame.datum, frame.base_word, steps, random.Random(seed))
    expected = scanning_seed_minors(frame.datum.cartan, frame.datum.adjacency, word)
    table = standard_seed_minors(frame, word)
    assert len(table.products) == len(expected)
    for product, exps in zip(table.products, expected):
        assert product.is_factored() and product.unit == 1
        assert product.root_factors == exps


def test_flagminors_suite_sees_a_multiplicity_drop(monkeypatch):
    # raise a root's exponent in the first P_j whose letter occurs again
    minors = suites.standard_seed_minors

    def raised(frame, word=None):
        table = minors(frame, word)
        j = next(j for j, letter in enumerate(table.word) if table.word.count(letter) > 1)
        products = list(table.products)
        products[j] = products[j] * frame.root_context.root_product({frame.positive_roots[0]: 10})
        return FlagMinorTable(word=table.word, products=products)

    frame = build_frame("A", 3)
    assert run_suite("flagminors", frame, count=2).ok
    monkeypatch.setattr(suites, "standard_seed_minors", raised)
    lines = run_suite("flagminors", frame, count=2).lines
    assert lines[1:] == [f"FAIL word {k}: multiplicity drop <= 1" for k in (1, 2)]


@pytest.mark.parametrize("family,rank", [("A", 14), ("D", 14), ("E", 8)])
def test_memos_hold_one_period(family, rank):
    frame = build_frame(family, rank)
    calc = TorusMorphism(frame)
    n, h, deep = rank, frame.h, 10**6
    for i in frame.datum.vertices():
        start = time.perf_counter()
        calc.y_value(i, frame.xi[i] - 2 * deep)
        assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    calc.initial_value(deep)
    assert time.perf_counter() - start < 0.1
    for i in frame.datum.vertices():
        for d in range(deep, deep + 2 * h + 1):
            calc.y_value(i, frame.xi[i] - 2 * d)
    for t in range(deep, deep + 4 * frame.N + 1):
        calc.initial_value(t)
    assert len(calc._y_cache) <= n * h
    assert len(calc._initial_cache) <= 2 * frame.N
