import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus import cartan
from krtorus.cartan import (
    ARFrame,
    DynkinDatum,
    apply_word,
    braid_shuffle,
    build_frame,
    inversion_roots,
    is_dominant_minuscule,
    is_fully_commutative,
    parse_orientation,
    render_orientation,
)
from krtorus.errors import InvalidInputError

from oracles import (
    coxeter_columns,
    coxeter_orbit_lengths,
    dense_reflect,
    is_adapted,
    longest_word_involution,
    weyl_positive_roots,
)
from strategies import CLI_TYPES, oriented_frames


ROOT_COUNTS = {("A", 1): 1, ("A", 3): 6, ("A", 5): 15, ("D", 4): 12,
               ("D", 5): 20, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}


# -- diagram data ---------------------------------------------------------


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_datum_invariants(family, rank):
    datum = DynkinDatum(family, rank)
    n = rank
    for i in range(n):
        assert datum.cartan[i][i] == 2
        for j in range(n):
            assert datum.cartan[i][j] == datum.cartan[j][i]
            if i != j:
                assert datum.cartan[i][j] in (0, -1)
    assert len(datum.edges) == n - 1  # tree
    for i in datum.vertices():
        assert datum.d(i, i) == 0
        for j in datum.vertices():
            assert datum.d(i, j) == datum.d(j, i)


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_positive_roots_against_reflection_closure(family, rank):
    datum = DynkinDatum(family, rank)
    assert len(datum.positive_roots()) == ROOT_COUNTS[(family, rank)]
    assert sorted(datum.positive_roots()) == weyl_positive_roots(datum.cartan)


def test_unsupported_families():
    with pytest.raises(InvalidInputError):
        DynkinDatum("B", 2)
    with pytest.raises(InvalidInputError):
        DynkinDatum("E", 9)
    with pytest.raises(InvalidInputError):
        DynkinDatum("D", 3)


# -- shared type data and sparse reflections -------------------------------------


def test_frames_of_one_type_share_the_datum():
    f = build_frame("E", 6)
    g = build_frame("E", 6, "2>1,2>3,4>3,5>3,5>6")
    assert f.orientation != g.orientation
    assert g.datum is f.datum
    assert g.root_context is f.root_context is f.datum.root_context
    assert g.positive_roots is f.positive_roots
    assert DynkinDatum("E", 6) is not f.datum  # the constructor stays uncached


def test_failed_type_is_not_cached():
    before = cartan._shared_datum.cache_info()
    with pytest.raises(InvalidInputError, match="rank >= 4"):
        build_frame("D", 3)
    after = cartan._shared_datum.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 1


def dense_inversion_roots(cartan_rows, word):
    """(roots b_1..b_k, position of the first non-positive one or None),
    updating every image by its full Cartan row."""
    n = len(cartan_rows)
    images = {j: tuple(int(t == j - 1) for t in range(n)) for j in range(1, n + 1)}
    out = []
    for pos, letter in enumerate(word, 1):
        beta = images[letter]
        if not all(v >= 0 for v in beta):
            return out, pos
        out.append(beta)
        images = {
            j: tuple(images[j][t] - cartan_rows[letter - 1][j - 1] * beta[t] for t in range(n))
            for j in images
        }
    return out, None


SPARSE_TYPES = ([("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)]
                + [("E", r) for r in (6, 7, 8)])
_DATA = {}


@st.composite
def datum_and_word(draw):
    key = draw(st.sampled_from(SPARSE_TYPES))
    datum = _DATA.setdefault(key, DynkinDatum(*key))
    letters = st.integers(1, datum.rank)
    vecs = st.lists(st.integers(-3, 3), min_size=datum.rank, max_size=datum.rank).map(tuple)
    # A reduced word, grown by the drawn letters that keep it reduced, then
    # one more letter that may not.
    word = []
    for letter in draw(st.lists(letters, max_size=3 * datum.rank)):
        if dense_inversion_roots(datum.cartan, word + [letter])[1] is None:
            word.append(letter)
    word.append(draw(letters))
    return datum, draw(letters), draw(vecs), draw(vecs), word


@given(case=datum_and_word())
@settings(max_examples=200, deadline=None)
def test_sparse_reflections_match_dense_cartan_rows(case):
    datum, i, vec, other, word = case
    n = datum.rank
    assert datum.reflect(i, vec) == dense_reflect(datum.cartan, i, vec)
    assert datum.pairing(vec, other) == sum(
        datum.cartan[a][b] * vec[a] * other[b] for a in range(n) for b in range(n))
    want, bad = dense_inversion_roots(datum.cartan, word)
    if bad is None:
        assert inversion_roots(datum, word) == want
    else:
        with pytest.raises(InvalidInputError, match=f"position {bad} "):
            inversion_roots(datum, word)


# -- orientations -----------------------------------------------------------


def test_orientation_parse_render_round_trip():
    arrows = parse_orientation("2>1, 2>3")
    assert arrows == frozenset({(2, 1), (2, 3)})
    assert parse_orientation(render_orientation(arrows)) == arrows
    with pytest.raises(InvalidInputError):
        parse_orientation("2-1")


def test_orientation_validation():
    datum = DynkinDatum("A", 3)
    with pytest.raises(InvalidInputError, match="not along a diagram edge"):
        ARFrame(datum, frozenset({(1, 3), (2, 3)}))
    with pytest.raises(InvalidInputError, match="no orientation"):
        ARFrame(datum, frozenset({(1, 2)}))
    with pytest.raises(InvalidInputError, match="oriented twice"):
        ARFrame(datum, frozenset({(1, 2), (2, 1), (2, 3)}))


# -- frame construction -------------------------------------------------------


def test_sink_source_frame_heights_and_coxeter(a3_sink_source):
    f = a3_sink_source
    assert f.xi == {1: -1, 2: 0, 3: -1}
    assert f.base_word == (2, 1, 3, 2, 1, 3)
    # the Coxeter transformation is the composite reflection 2,1,3
    v = (0, 1, 0)
    expected = f.datum.reflect(2, f.datum.reflect(1, f.datum.reflect(3, v)))
    assert f.coxeter(v) == expected


def test_rank_one_frame():
    f = build_frame("A", 1, set())
    assert f.xi == {1: 0}
    assert f.N == 1 and f.h == 2
    assert f.positive_roots == ((1,),)


def test_d4_frame_counts(d4):
    assert d4.N == 12 and d4.h == 6
    assert all(d4.n_letters[i] == 3 for i in d4.datum.vertices())


def test_default_anchor_max_zero(d4):
    assert max(d4.xi.values()) == 0
    f = build_frame("D", 4, height_anchor=(3, 5))
    assert f.xi[3] == 5
    with pytest.raises(InvalidInputError):
        build_frame("D", 4, height_anchor=(9, 0))


def test_word_is_reduced_and_letters_match_counts(d4, e6):
    for f in (d4, e6):
        roots = inversion_roots(f.datum, f.base_word)
        assert len(set(roots)) == f.N
        for i in f.datum.vertices():
            assert f.base_word.count(i) == f.n_letters[i]


def test_sweep_word_certified_for_every_orientation():
    # The sweep in ARFrame._adapted_word is the only construction of the
    # adapted word; it must certify on every orientation, not only q0.
    # Braid-shuffled words of w0 check the adaptedness test both ways.
    frames, verdicts = 0, set()
    rng = random.Random(11)
    for family, ranks in (("A", range(1, 7)), ("D", range(4, 7)), ("E", (6,))):
        for rank in ranks:
            edges = DynkinDatum(family, rank).edges
            for flips in product((False, True), repeat=len(edges)):
                arrows = {(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)}
                frame = build_frame(family, rank, arrows)
                assert len(frame.base_word) == frame.N
                assert frame._word_certified(frame.base_word)
                word = braid_shuffle(frame.datum, frame.base_word, 4, rng)
                adapted = is_adapted(frame.orientation, word)
                assert (frame._word_certified(word) is not None) == adapted
                verdicts.add(adapted)
                frames += 1
    assert frames == 151
    assert verdicts == {False, True}


def test_star_is_an_involution(a3_sink_source, d4, d5, e6):
    for f in (a3_sink_source, d4, d5, e6):
        for i in f.datum.vertices():
            assert f.star[f.star[i]] == i
        # w0 sends each simple root to minus the starred one
        for i in f.datum.vertices():
            img = apply_word(f.datum, f.base_word, f.datum.alpha(i))
            assert img == tuple(-c for c in f.datum.alpha(f.star[i]))


@given(frame=oriented_frames())
@settings(max_examples=150, deadline=None)
def test_row_lengths_and_star_match_reflections(frame):
    # n_letters comes from the heights and star from the datum's involution;
    # the oracles walk Coxeter orbits and apply the word by reflections.
    cartan = frame.datum.cartan
    assert frame.n_letters == coxeter_orbit_lengths(cartan, frame.orientation)
    assert frame.star == longest_word_involution(cartan, frame.base_word)


@given(frame=oriented_frames())
@settings(max_examples=60, deadline=None)
def test_beta_eps_matches_dense_coxeter_iteration(frame):
    # three periods deep, read from columns that hold one period each
    columns = coxeter_columns(frame.datum.cartan, frame.orientation, 3 * frame.h)
    for i, column in columns.items():
        for m, pair in enumerate(column):
            assert frame.beta_eps(i, frame.xi[i] - 2 * m) == pair
    assert all(len(column) == frame.h for column in frame.beta_columns.values())


def test_coxeter_orbit_covers_positive_roots(a3_sink_source, d4, e6):
    for f in (a3_sink_source, d4, e6):
        seen = set()
        for i in f.datum.vertices():
            for r in range(1, f.n_letters[i] + 1):
                root, eps = f.beta_eps(i, f.xi[i] - 2 * (r - 1))
                assert eps == 1
                seen.add(root)
        assert seen == set(f.positive_roots)


def test_coxeter_order_h(a3_sink_source, d4, e6):
    for f in (a3_sink_source, d4, e6):
        for root in f.positive_roots:
            v = root
            for _ in range(f.h):
                v = f.coxeter(v)
            assert v == root


# -- the bijection between positions and torus points --------------------------


def test_phi_examples(a3_sink_source):
    f = a3_sink_source
    assert f.phi(2, 0) == 1
    assert f.phi(1, -1) == 2
    assert f.phi(3, -1) == 3
    assert f.phi(2, -2) == 4
    for k in range(5):
        assert f.phi(2, -2 * k) == 1 + 3 * k


def test_phi_first_occurrence(d4):
    for i in d4.datum.vertices():
        t = d4.phi(i, d4.xi[i])
        assert d4.letter(t) == i
        assert all(d4.letter(s) != i for s in range(1, t))


def test_phi_inverse_round_trip(a3_sink_source, d4, e6):
    for f in (a3_sink_source, d4, e6):
        for t in range(1, 4 * f.N + 1):
            i, p = f.phi_inv(t)
            assert f.in_torus(i, p)
            assert f.phi(i, p) == t


def test_phi_window_shift(a3_sink_source):
    f = a3_sink_source
    for i in f.datum.vertices():
        for m in range(2 * f.h):
            p = f.xi[i] - 2 * m
            assert f.phi(i, p - 2 * f.h) == f.phi(i, p) + 2 * f.N


def test_phi_double_window_is_height_strip(d4):
    f = d4
    window = {f.phi_inv(t) for t in range(1, 2 * f.N + 1)}
    strip = {
        (j, s)
        for j in f.datum.vertices()
        for s in range(f.xi[j], f.xi[j] - 2 * f.h + 1, -2)
    }
    assert window == strip


def test_point_membership_errors(a3_sink_source):
    f = a3_sink_source
    with pytest.raises(InvalidInputError):
        f.phi(1, 0)  # wrong parity
    with pytest.raises(InvalidInputError):
        f.phi(2, 2)  # above the height function
    with pytest.raises(InvalidInputError):
        f.phi(7, 0)


# -- roots and signs -------------------------------------------------------------


def test_beta_eps_base_case(d4):
    for i in d4.datum.vertices():
        assert d4.beta_eps(i, d4.xi[i]) == (d4.gamma[i], 1)


def test_beta_eps_half_period_flip(a3_sink_source):
    f = a3_sink_source
    for j in f.datum.vertices():
        for m in range(3 * f.h // 2):
            s = f.xi[j] - 2 * m - f.h  # deeper point
            root, eps = f.beta_eps(j, s)
            root2, eps2 = f.beta_eps(f.star[j], s + f.h)
            assert root == root2
            assert eps == -eps2


def test_beta_matches_word_reflections(a3_sink_source, d4):
    for f in (a3_sink_source, d4):
        word = f.base_word
        for t in range(1, f.N + 1):
            expected = apply_word(f.datum, word[: t - 1], f.datum.alpha(word[t - 1]))
            i, p = f.phi_inv(t)
            root, eps = f.beta_eps(i, p)
            assert root == expected
            assert eps == 1
        # second window: all signs flip
        for t in range(f.N + 1, 2 * f.N + 1):
            assert f.beta_eps(*f.phi_inv(t))[1] == -1


# -- bilinear forms -----------------------------------------------------------------


def test_root_norms(d4, e6):
    for f in (d4, e6):
        for beta in f.positive_roots:
            assert f.cartan_pairing(beta, beta) == 2


def test_euler_form_symmetrizes_to_pairing(a3_sink_source, d4, e6):
    rng = random.Random(3)
    for f in (a3_sink_source, d4, e6):
        roots = list(f.positive_roots)
        for _ in range(200):
            b, g = rng.choice(roots), rng.choice(roots)
            assert f.euler_form(b, g) + f.euler_form(g, b) == f.cartan_pairing(b, g)


def test_distinct_root_pairings_are_small(d5, e6):
    for f in (d5, e6):
        for b in f.positive_roots:
            for g in f.positive_roots:
                if b != g:
                    assert f.cartan_pairing(b, g) in (-1, 0, 1)


def test_type_a_pairing_formula(a4):
    from krtorus.segments import segment_a

    n = 4

    def delta(a, b):
        return 1 if a == b else 0

    for k in range(1, n + 1):
        for i in range(k, n + 1):
            for l in range(1, n + 1):
                for j in range(l, n + 1):
                    got = a4.cartan_pairing(segment_a(n, k, i), segment_a(n, l, j))
                    want = delta(k, l) + delta(i, j) - delta(k - 1, j) - delta(l - 1, i)
                    assert got == want


def test_type_d_theta_pairing_formula(d5):
    from krtorus.segments import theta_d

    n = 5

    def delta(a, b):
        return 1 if a == b else 0

    for p in range(1, n - 1):
        for q in range(p + 1, n):
            for r in range(1, n - 1):
                for s in range(r + 1, n):
                    got = d5.cartan_pairing(theta_d(n, p, q), theta_d(n, r, s))
                    want = delta(s, p) + delta(s, q) + delta(r, p) + delta(r, q)
                    assert got == want


# -- word positions ----------------------------------------------------------------


def test_t_plus_minus_examples(a3_sink_source):
    f = a3_sink_source
    assert f.t_plus(1) == 4
    assert f.t_minus(1) == 0
    for t in range(1, 3 * f.N):
        assert f.t_minus(f.t_plus(t)) == t
        assert f.letter(f.t_plus(t)) == f.letter(t)


def test_neighbours_alternate_between_occurrences():
    # every type, with the monotonic orientation and its reverse
    for family, rank in CLI_TYPES:
        monotonic = build_frame(family, rank)
        reverse = build_frame(family, rank, {(b, a) for a, b in monotonic.orientation})
        for f in (monotonic, reverse):
            word = [f.letter(s) for s in range(1, 4 * f.N + 1)]
            for t in range(1, 2 * f.N):
                between = word[t : f.t_plus(t) - 1]
                for j in f.datum.adjacency[f.letter(t)]:
                    assert between.count(j) == 1, (family, rank, t, j)


# -- inversion sets and word classes ---------------------------------------------


def test_inversion_set_examples(a2, a3_sink_source):
    assert inversion_roots(a2.datum, (1, 2)) == [(1, 0), (1, 1)]
    assert inversion_roots(a2.datum, (1,)) == [(1, 0)]
    roots = inversion_roots(a3_sink_source.datum, a3_sink_source.base_word)
    assert sorted(roots) == sorted(a3_sink_source.positive_roots)


def test_inversion_set_rejects_non_reduced(a2):
    with pytest.raises(InvalidInputError, match="position 2"):
        inversion_roots(a2.datum, (1, 1))


def test_dominant_minuscule_examples():
    datum = DynkinDatum("A", 3)
    assert is_dominant_minuscule(datum, (1, 2, 3))
    assert is_fully_commutative(datum, (1, 2, 3))
    assert not is_dominant_minuscule(datum, (1, 2, 1))
    assert not is_fully_commutative(datum, (1, 2, 1))
    with pytest.raises(InvalidInputError):
        is_dominant_minuscule(datum, (2, 2))


@pytest.mark.parametrize("predicate", [is_dominant_minuscule, is_fully_commutative])
def test_word_predicates_reject_letters_off_the_diagram(predicate):
    with pytest.raises(InvalidInputError, match="not a vertex 1..3"):
        predicate(DynkinDatum("A", 3), (1, 5))


def test_dominant_minuscule_fork_words():
    # concatenated segment words (q..n-2,n) + (p..n-1) are dominant minuscule
    for n in (4, 5, 6):
        datum = DynkinDatum("D", n)
        for p in range(1, n - 1):
            for q in range(p + 1, n):
                word = tuple(range(q, n - 1)) + (n,) + tuple(range(p, n))
                assert is_dominant_minuscule(datum, word), (n, p, q)


def test_braid_shuffle_stays_reduced(d4):
    rng = random.Random(0)
    for _ in range(5):
        word = braid_shuffle(d4.datum, d4.base_word, 40, rng)
        roots = inversion_roots(d4.datum, word)
        assert sorted(roots) == sorted(d4.positive_roots)


def test_frame_describe_round_trip(d4):
    info = d4.describe()
    rebuilt = build_frame(
        info["family"], info["rank"], parse_orientation(info["orientation"])
    )
    assert rebuilt.base_word == d4.base_word
    assert rebuilt.xi == d4.xi
