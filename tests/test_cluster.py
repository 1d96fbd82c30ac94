import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus import cluster
from krtorus.cluster import Quiver, Seed, initial_seed, mutate, mutate_sequence
from krtorus.errors import InvalidInputError
from krtorus.field.poly import MultiPoly
from krtorus.torusmap import TorusMorphism


@pytest.fixture(scope="module")
def ss_calc(a3_sink_source):
    return TorusMorphism(a3_sink_source)


@pytest.fixture(scope="module")
def ss_seed(ss_calc):
    return initial_seed(ss_calc, 12)


@pytest.fixture(scope="module")
def ss_quotient(ss_calc):
    return initial_seed(ss_calc, 12, specialize_frozen=True)


def fraction(ctx, num_form, den_roots):
    return ctx.from_fraction(MultiPoly.linear_form(num_form)) / ctx.from_root_factors(
        (r, 1) for r in den_roots
    )


# -- initial seed ---------------------------------------------------------------


def test_window_of_one(ss_calc):
    seed = initial_seed(ss_calc, 1)
    assert seed.quiver.vertices == (1,)
    assert seed.quiver.arrows == ()
    assert seed.quiver.frozen == {1}


def test_arrow_pattern_at_vertex_four(ss_seed):
    assert sorted(a for a, _ in ss_seed.quiver.arrows_in(4)) == [2, 3, 7]
    assert sorted(b for b, _ in ss_seed.quiver.arrows_out(4)) == [1, 5, 6]


def test_standard_window_arrows(ss_calc):
    # the length-N window: mutation-relevant arrows of the standard seed
    seed = initial_seed(ss_calc, 6)
    assert seed.quiver.frozen == {4, 5, 6}
    counter = seed.quiver.arrow_counter()
    assert counter == {
        (4, 1): 1, (5, 2): 1, (6, 3): 1,
        (1, 2): 1, (1, 3): 1, (2, 4): 1, (3, 4): 1,
    }


def test_frozen_set_and_nodes(ss_seed, a3_sink_source):
    f = a3_sink_source
    assert ss_seed.quiver.frozen == {10, 11, 12}
    nodes = {f.phi_inv(t) for t in ss_seed.quiver.frozen}
    assert nodes == {(2, -6), (1, -7), (3, -7)}


def test_frozen_values_are_trivial(ss_seed, ss_quotient):
    for t in (10, 11, 12):
        assert ss_seed.values[t].is_one()  # full-period classes map to 1
        assert ss_quotient.values[t].is_one()


def test_initial_values_match_morphism(ss_seed, ss_calc):
    for t in ss_seed.quiver.vertices:
        assert ss_seed.values[t] == ss_calc.initial_value(t)


def test_no_loops_or_two_cycles(ss_seed):
    counter = ss_seed.quiver.arrow_counter()
    for (a, b), m in counter.items():
        assert m > 0 and a != b
        assert counter.get((b, a), 0) == 0


def test_bad_window(ss_calc):
    with pytest.raises(InvalidInputError):
        initial_seed(ss_calc, 0)


# -- single mutations --------------------------------------------------------------


def test_quotient_mutations_match_pinned_fractions(ss_quotient):
    ctx = ss_quotient.calc.ctx
    expected = {
        4: ((1, 2, 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
        5: ((0, 1, 2), [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
        6: ((2, 1, 0), [(0, 1, 0), (0, 0, 1), (0, 1, 1)]),
    }
    for v, (num, dens) in expected.items():
        got = mutate(ss_quotient, v).values[v]
        assert got == fraction(ctx, num, dens), v


def test_mutation_is_involutive(ss_seed):
    for v in (1, 4, 7):
        twice = mutate(mutate(ss_seed, v), v)
        assert twice.values == ss_seed.values
        assert twice.quiver.arrows == ss_seed.quiver.arrows
        assert twice.quiver.frozen == ss_seed.quiver.frozen


def test_mutation_rejects_frozen_and_unknown(ss_seed):
    with pytest.raises(InvalidInputError, match="frozen"):
        mutate(ss_seed, 10)
    with pytest.raises(InvalidInputError, match="window"):
        mutate(ss_seed, 13)


def test_mutation_rejects_zero_value(ss_seed):
    values = dict(ss_seed.values)
    values[4] = ss_seed.calc.ctx.zero()
    broken = Seed(quiver=ss_seed.quiver, values=values, calc=ss_seed.calc)
    with pytest.raises(InvalidInputError, match="zero"):
        mutate(broken, 4)


def test_exchange_against_independent_kr_values(ss_seed, ss_calc):
    # both sides recomputed through the KR route, not the seed cache
    f = ss_calc.frame

    def kr_at(t):
        i, p = f.phi_inv(t)
        return ss_calc.kr_value(i, p, 1 + (f.xi[i] - p) // 2)

    for t in range(1, 10):
        new = mutate(ss_seed, t).values[t]
        prod_in = ss_calc.ctx.one()
        for a, m in ss_seed.quiver.arrows_in(t):
            prod_in = prod_in * kr_at(a) ** m
        prod_out = ss_calc.ctx.one()
        for b, m in ss_seed.quiver.arrows_out(t):
            prod_out = prod_out * kr_at(b) ** m
        assert new * kr_at(t) == prod_in + prod_out


# -- sequences ------------------------------------------------------------------------


def test_empty_sequence_is_identity(ss_seed):
    assert mutate_sequence(ss_seed, []) is ss_seed


def test_vv_sequence_restores(ss_quotient):
    back = mutate_sequence(ss_quotient, [5, 5])
    assert back.values == ss_quotient.values
    assert back.quiver.arrows == ss_quotient.quiver.arrows


def test_exchange_conservation_random_sequences(ss_quotient, d4):
    rng = random.Random(42)
    seeds = [ss_quotient, initial_seed(TorusMorphism(d4), 24, specialize_frozen=True)]
    for start in seeds:
        seed = start
        movable = [v for v in seed.quiver.vertices if v not in seed.quiver.frozen]
        for _ in range(6):
            v = rng.choice(movable)
            nxt = mutate(seed, v)
            prod_in = seed.calc.ctx.one()
            for a, m in seed.quiver.arrows_in(v):
                prod_in = prod_in * seed.values[a] ** m
            prod_out = seed.calc.ctx.one()
            for b, m in seed.quiver.arrows_out(v):
                prod_out = prod_out * seed.values[b] ** m
            assert nxt.values[v] * seed.values[v] == prod_in + prod_out
            counter = nxt.quiver.arrow_counter()
            for (a, b), m in counter.items():
                assert m > 0 and a != b and counter.get((b, a), 0) == 0
            seed = nxt


def matrix_mutation(B, vertices, k):
    """The b'_ij rule: b'_ij = -b_ij if k in (i, j), else
    b_ij + sign(b_ik) max(b_ik b_kj, 0)."""
    want = {}
    for i in vertices:
        for j in vertices:
            if k in (i, j):
                want[i, j] = -B[i, j]
            else:
                sign = (B[i, k] > 0) - (B[i, k] < 0)
                want[i, j] = B[i, j] + sign * max(B[i, k] * B[k, j], 0)
    return want


def arrows_of(B, vertices):
    return tuple((i, j, B[i, j]) for i in vertices for j in vertices if B[i, j] > 0)


@given(
    entries=st.lists(st.integers(-3, 3), min_size=21, max_size=21),
    n=st.integers(2, 7),
    walk=st.lists(st.integers(1, 7), min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_quiver_mutation_matches_matrix_mutation(ss_calc, entries, n, walk):
    # Exchange matrix B[i][j] = #(i -> j) - #(j -> i) of a random quiver
    # with multiplicities, mutated along a walk.  Every quiver of the walk
    # must keep its arrows and its per-vertex maps while later ones are
    # built from it.
    vertices = tuple(range(1, n + 1))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    B = {(i, j): 0 for i in vertices for j in vertices}
    for (i, j), b in zip(pairs, entries):
        B[i, j], B[j, i] = b, -b
    one = ss_calc.ctx.one()
    seed = Seed(Quiver(vertices, arrows_of(B, vertices), frozenset()), {v: one for v in vertices}, ss_calc)
    quivers, snapshots = [seed.quiver], [seed.quiver.arrows]
    for k in walk:
        k = (k - 1) % n + 1
        seed = mutate(seed, k)
        B = matrix_mutation(B, vertices, k)
        got = seed.quiver
        assert got.arrows == arrows_of(B, vertices)
        assert got.vertices == vertices and got.frozen == frozenset()
        quivers.append(got)
        snapshots.append(got.arrows)
        for q, arrows in zip(quivers, snapshots):
            assert q.arrows == arrows
            for v in vertices:
                assert q.arrows_in(v) == [(a, m) for a, b, m in arrows if b == v]
                assert q.arrows_out(v) == [(b, m) for a, b, m in arrows if a == v]
        for q in quivers:
            same = Quiver(q.vertices, q.arrows, q.frozen)
            assert q == same and hash(q) == hash(same)
            assert (q == got) == (q.arrows == got.arrows)


def test_mutation_sequence_builds_no_arrow_tuple(monkeypatch, e6):
    seed = initial_seed(TorusMorphism(e6), 2 * e6.N, specialize_frozen=True)
    built = []

    def counted(outs):
        built.append(outs)
        return arrow_tuple(outs)

    arrow_tuple = cluster._arrow_tuple
    monkeypatch.setattr(cluster, "_arrow_tuple", counted)
    movable = [v for v in seed.quiver.vertices if v not in seed.quiver.frozen]
    end = mutate_sequence(seed, movable[::7][:8])
    assert built == []
    assert end.quiver.arrows == end.quiver.arrows and len(built) == 1
