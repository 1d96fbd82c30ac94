import pytest

from krtorus.cartan import DynkinDatum
from krtorus.errors import InvalidInputError
from krtorus.qcartan import QuantumCartanInverse, pairing_value

from oracles import series_inverse_coeffs


# Series for the rank-3 path diagram, m <= 16 (all other entries vanish).
A3_SERIES = {
    (1, 1): {1: 1, 7: -1, 9: 1, 15: -1},
    (1, 2): {2: 1, 6: -1, 10: 1, 14: -1},
    (1, 3): {3: 1, 5: -1, 11: 1, 13: -1},
    (2, 2): {1: 1, 3: 1, 5: -1, 7: -1, 9: 1, 11: 1, 13: -1, 15: -1},
}


def test_rank3_series_values():
    table = QuantumCartanInverse(DynkinDatum("A", 3))
    assert table.coeff(1, 1, 7) == -1
    assert table.coeff(1, 3, 3) == 1
    assert table.coeff(2, 2, 3) == 1
    assert table.coeff(1, 2, 6) == -1
    for (i, j), series in A3_SERIES.items():
        for m in range(1, 17):
            assert table.coeff(i, j, m) == series.get(m, 0)
            assert table.coeff(j, i, m) == series.get(m, 0)


def test_nonpositive_orders_vanish():
    table = QuantumCartanInverse(DynkinDatum("D", 4))
    for m in range(-5, 1):
        assert table.coeff(1, 3, m) == 0
    with pytest.raises(InvalidInputError):
        table.coeff(0, 1, 2)


ALL_TYPES = (
    [("A", n) for n in range(1, 15)]
    + [("D", n) for n in range(4, 15)]
    + [("E", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_against_series_inversion_oracle(family, rank):
    # three periods, read from a table that holds one
    datum = DynkinDatum(family, rank)
    table = QuantumCartanInverse(datum)
    oracle = series_inverse_coeffs(datum.adjacency, rank, 3 * datum.h)
    for m in range(1, 3 * datum.h + 1):
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                assert table.coeff(i, j, m) == oracle[m][i - 1][j - 1], (i, j, m)
    assert len(table.rows) == 2 * datum.h


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_half_period_identity(family, rank):
    datum = DynkinDatum(family, rank)
    table = datum.qcartan
    for i in datum.vertices():
        for j in datum.vertices():
            for m in range(1, datum.h + 1):
                assert table.coeff(i, j, m + datum.h) == -table.coeff(i, datum.star[j], m)


@pytest.mark.parametrize(
    "family,rank",
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_vanishing_below_distance_and_one_at_distance(family, rank):
    datum = DynkinDatum(family, rank)
    table = QuantumCartanInverse(datum)
    for i in datum.vertices():
        for j in datum.vertices():
            d = datum.d(i, j)
            for m in range(1, d + 1):
                assert table.coeff(i, j, m) == 0
            assert table.coeff(i, j, d + 1) == 1


def test_periodicity_two_h(a3_sink_source, d4, e6):
    for f in (a3_sink_source, d4, e6):
        table = QuantumCartanInverse(f.datum)
        for i in f.datum.vertices():
            for j in f.datum.vertices():
                for m in range(1, 2 * f.h + 1):
                    assert table.coeff(i, j, m + 2 * f.h) == table.coeff(i, j, m)


def test_window_identity_signed_euler_pairing(a3_sink_source, d4):
    # coeff(i, j, s-p+1) equals the sign-adjusted Euler pairing of the
    # attached roots whenever both points sit in a double window.
    for f in (a3_sink_source, d4):
        table = QuantumCartanInverse(f.datum)
        points = [f.phi_inv(t) for t in range(1, 2 * f.N + 1)]
        for (i, p) in points:
            for (j, s) in points:
                if s < p:
                    continue
                bi, ei = f.beta_eps(i, p)
                bj, ej = f.beta_eps(j, s)
                assert table.coeff(i, j, s - p + 1) == ei * ej * f.euler_form(bi, bj)


def test_pairing_value_cases(a3_sink_source):
    f = a3_sink_source
    table = QuantumCartanInverse(f.datum)
    assert pairing_value(table, f, (2, 0), (2, 0)) == 1
    assert pairing_value(table, f, (1, -1), (1, -1)) == 1
    assert pairing_value(table, f, (2, 0), (1, -1)) == 0  # s < p
    # same-height distinct vertices: delta case gives 0
    assert pairing_value(table, f, (1, -1), (3, -1)) == 0
    with pytest.raises(InvalidInputError):
        pairing_value(table, f, (1, 0), (2, 0))


def test_pairing_value_matches_root_pairing(a3_sink_source):
    f = a3_sink_source
    table = QuantumCartanInverse(f.datum)
    points = [f.phi_inv(t) for t in range(1, 2 * f.N + 1)]
    for (i, p) in points:
        for (j, s) in points:
            if s > p:
                bi, ei = f.beta_eps(i, p)
                bj, ej = f.beta_eps(j, s)
                want = ei * ej * f.cartan_pairing(bi, bj)
                assert pairing_value(table, f, (i, p), (j, s)) == want
