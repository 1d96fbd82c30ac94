import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krtorus
from krtorus import cli
from krtorus.cartan import DynkinDatum, braid_shuffle, build_frame, render_orientation
from krtorus.cli import (
    MAX_COUNT,
    MAX_MMAX,
    MAX_RANK,
    MAX_TMAX,
    MAX_WEIGHT_DEGREE,
    MAX_WEIGHT_TERMS,
    MAX_WINDOW,
    main,
)
from krtorus.cuspidal import CuspidalRecursion
from krtorus.errors import InvalidInputError
from krtorus.field.rational import RootRational, form_str
from krtorus.suites import SUITES, SuiteResult


SS = ["--type", "A", "--rank", "3", "--orientation", "2>1,2>3"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_text_and_json(capsys):
    code, out, _ = run(capsys, ["info", *SS])
    assert code == 0
    assert "N: 6" in out
    code, out, _ = run(capsys, ["info", *SS, "--format", "json"])
    info = json.loads(out)
    assert info["word"][:6] == [2, 1, 3, 2, 1, 3]
    assert info["h"] == 4


def test_ctilde_rows(capsys):
    code, out, _ = run(
        capsys, ["ctilde", *SS, "1", "1", "16", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    values = {r["m"]: r["value"] for r in rows}
    assert values[1] == 1 and values[7] == -1 and values[9] == 1 and values[15] == -1
    assert all(values[m] == 0 for m in (2, 3, 4, 5, 6, 8))


def test_dtilde_y_and_kr(capsys):
    code, out, _ = run(capsys, ["dtilde-y", *SS, "2", "0"])
    assert code == 0 and out.strip() == "1/a2"
    code, out, _ = run(capsys, ["dtilde-kr", *SS, "2", "-2", "2"])
    assert code == 0
    assert out.strip() == "1/(a2*(a1+a2)*(a2+a3)*(a1+a2+a3))"


def test_dtilde_kr_validation_exit_two(capsys):
    code, _, err = run(capsys, ["dtilde-kr", *SS, "2", "-2", "3"])
    assert code == 2
    assert "sticks out" in err


def test_dtilde_monomial(capsys):
    code, out, _ = run(capsys, ["dtilde-monomial", *SS, "Y[2,0]^-1"])
    assert code == 0 and out.strip() == "a2"
    code, _, err = run(capsys, ["dtilde-monomial", *SS, "Y[2,0)*X"])
    assert code == 2


def test_dtilde_monomial_huge_exponent_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, ["dtilde-monomial", "--type", "A", "--rank", "2", "Y[1,0]^99999999999"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.strip() == "1/a1^99999999999"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ctilde", *SS, "1", "1", "0"], "mmax"),
        (["verify", *SS, "--suite", "flagminors", "--count", "0"], "count"),
        (["verify", *SS, "--suite", "properties", "--tmax", "-1"], "tmax"),
    ],
    ids=["mmax", "count", "tmax"],
)
def test_counts_below_one_exit_two(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least 1")
    assert len(err.splitlines()) == 1


def test_dtilde_kr_json_round_trip(capsys, a3_sink_source):
    code, out, _ = run(
        capsys, ["dtilde-kr", *SS, "2", "-4", "3", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    value = RootRational.from_json_dict(a3_sink_source.root_context, data)
    assert value.to_json_dict() == data


def test_dbar_cuspidal(capsys):
    code, out, _ = run(
        capsys, ["dbar-cuspidal", "--type", "A", "--rank", "3", "--beta", "0,1,1"]
    )
    assert code == 0 and out.strip() == "1/(a2*(a2+a3))"
    code, out, _ = run(
        capsys,
        ["dbar-cuspidal", "--type", "A", "--rank", "3", "--beta", "0,1,1", "--via-pair"],
    )
    assert code == 0 and out.strip() == "1/(a2*(a2+a3))"
    code, _, err = run(
        capsys, ["dbar-cuspidal", "--type", "A", "--rank", "3", "--beta", "0,1"]
    )
    assert code == 2


def test_dbar_cuspidal_via_pair_inapplicable(capsys):
    frame = build_frame("E", 6)
    beta = CuspidalRecursion(frame).coverage()[1][0]
    argv = ["dbar-cuspidal", "--type", "E", "--rank", "6",
            "--beta", ",".join(map(str, beta)), "--via-pair"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == f"inapplicable: no dominant-minuscule route to {form_str(beta)}\n"
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0 and json.loads(out) == {"inapplicable": True, "root": list(beta)}


def test_dbar_flag(capsys):
    code, out, _ = run(
        capsys, ["dbar-flag", "--type", "A", "--rank", "2", "--word", "1,2,1"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P_1 = a1"
    assert lines[1] == "P_2 = a1*(a1+a2)"
    assert lines[2] == "P_3 = a2*(a1+a2)"


@pytest.mark.parametrize("word", ["1,3,1", "0,1,2", "1,2,-1"])
def test_dbar_flag_letter_outside_vertices_exit_two(capsys, word):
    code, out, err = run(
        capsys, ["dbar-flag", "--type", "A", "--rank", "2", "--word", word]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: word letter ") and "not a vertex 1..2" in err
    assert len(err.splitlines()) == 1


def test_dbar_weights_from_file(capsys, tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps([{"word": [1, 2], "dim": 1}, {"word": [2, 1], "dim": 1}]))
    code, out, _ = run(
        capsys, ["dbar-weights", "--type", "A", "--rank", "2", "--file", str(path)]
    )
    assert code == 0 and out.strip() == "1/(a1*a2)"


def test_dbar_weights_from_stdin_matches_file(capsys, tmp_path, monkeypatch):
    data = json.dumps([{"word": list(w), "dim": 1 + w[0] % 2} for w in permutations([1, 2, 3])])
    path = tmp_path / "weights.json"
    path.write_text(data)
    argv = ["dbar-weights", "--type", "A", "--rank", "3", "--format", "json", "--file"]
    code, from_file, _ = run(capsys, [*argv, str(path)])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(data))
    code, from_stdin, _ = run(capsys, [*argv, "-"])
    assert code == 0 and from_stdin == from_file


@pytest.mark.parametrize(
    "text",
    ["[{", '{"word": [1, 2]}', "[1, 2]", '[{"word": [1, 2]}]', '[{"word": [1, 2], "dim": "two"}]'],
)
def test_dbar_weights_malformed_json_exit_two(capsys, tmp_path, text):
    path = tmp_path / "weights.json"
    path.write_text(text)
    code, out, err = run(
        capsys, ["dbar-weights", "--type", "A", "--rank", "2", "--file", str(path)]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: bad weight data: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_dbar_weights_unreadable_file_exit_two(capsys, tmp_path, kind):
    path = {"missing": tmp_path / "nonexistent.json", "directory": tmp_path,
            "binary": tmp_path / "weights.bin"}[kind]
    if kind == "binary":
        path.write_bytes(bytes([0xD7, 0xFF, 0x00, 0x80]))
    code, out, err = run(
        capsys, ["dbar-weights", "--type", "A", "--rank", "2", "--file", str(path)]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read weight data: ")
    assert len(err.splitlines()) == 1


def test_seed_print_and_mutate(capsys):
    code, out, _ = run(
        capsys, ["seed", *SS, "--window", "12", "--quotient", "--print"]
    )
    assert code == 0
    assert "7 -> 4" in out and "*10:" in out
    code, out, _ = run(
        capsys,
        ["mutate", *SS, "--window", "12", "--quotient", "--seq", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["frozen"] == [10, 11, 12]
    by_vertex = {entry["vertex"]: entry["value"] for entry in payload["values"]}
    num = by_vertex[4]["num_terms"]
    assert {tuple(t["exp"]): t["coeff"] for t in num} == {
        (1, 0, 0): "1",
        (0, 1, 0): "2",
        (0, 0, 1): "1",
    }


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, ["verify", *SS, "--suite", "figure2"])
    assert code == 0
    assert "ok   node (2,-2) k=2" in out
    code, _, err = run(capsys, ["verify", *SS, "--suite", "tsystem"])
    assert code == 2  # closed forms need the monotonic orientation
    with pytest.raises(SystemExit) as exc:
        main(["verify", *SS, "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_seed_repeats_its_output(capsys):
    argv = ["verify", *SS, "--suite", "flagminors", "--seed", "7"]
    first = run(capsys, argv)
    assert first[0] == 0 and "ok   word 10" in first[1]
    assert run(capsys, argv) == first


def test_verify_failure_prints_witness(capsys, monkeypatch):
    def failing(frame, **_):
        res = SuiteResult("figure2")
        res.check(True, "first check")
        res.check(False, "second check", witness="a1+a2")
        return res

    monkeypatch.setitem(SUITES, "figure2", failing)
    code, out, err = run(capsys, ["verify", *SS, "--suite", "figure2"])
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "ok   first check",
        "FAIL second check",
        "witness: {'label': 'second check', 'witness': 'a1+a2'}",
    ]


@pytest.mark.parametrize(
    "orientation, code",
    [("1>2,2>3", 0), ("2>1,2>3", 2), ("1>2,3>2", 2), ("2>1,3>2", 2)],
)
def test_verify_schurweyl_needs_the_monotonic_orientation(capsys, orientation, code):
    argv = ["verify", "--type", "A", "--rank", "3", "--orientation", orientation]
    got, out, err = run(capsys, [*argv, "--suite", "schurweyl"])
    assert got == code
    if code:
        assert err.count("\n") == 1 and "monotonic orientation" in err
    else:
        assert out and all(line.startswith("ok") for line in out.splitlines())


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--type", "D", "--rank", "4", "--suite", "minpairs", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["suite"] == "minpairs"


def test_default_orientation_is_monotonic(capsys):
    code, out, _ = run(capsys, ["info", "--type", "D", "--rank", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["orientation"] == "1>2,2>3,2>4"


def test_anchor_option_shifts_heights(capsys):
    code, out, _ = run(
        capsys,
        ["info", "--type", "A", "--rank", "2", "--anchor", "2:5", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["xi"] == {"1": 6, "2": 5}
    code, _, err = run(
        capsys, ["info", "--type", "A", "--rank", "2", "--anchor", "nope"]
    )
    assert code == 2 and "anchor" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ctilde", "--type", "A", "--rank", "2", "1", "1", "10000000"], "mmax must be at most"),
        (["ctilde", *SS, "1", "1", str(MAX_MMAX + 1)], "mmax must be at most"),
        (["mutate", "--type", "A", "--rank", "2", "--window", "100000", "--seq", "1"],
         "window must be at most"),
        (["seed", *SS, "--window", str(MAX_WINDOW + 1)], "window must be at most"),
        (["ctilde", "--type", "A", "--rank", "30", "1", "1", str(MAX_MMAX)],
         "rank must be at most"),
        (["info", "--type", "D", "--rank", str(MAX_RANK + 1)], "rank must be at most"),
        (["seed", "--type", "A", "--rank", "1000000", "--window", "10"],
         "rank must be at most"),
        (["verify", *SS, "--suite", "properties", "--tmax", str(MAX_TMAX + 1)],
         "tmax must be at most"),
        (["verify", *SS, "--suite", "periodicity", "--tmax", str(MAX_TMAX + 1)],
         "tmax must be at most"),
        (["verify", *SS, "--suite", "flagminors", "--count", str(MAX_COUNT + 1)],
         "count must be at most"),
        (["verify", "--type", "A", "--rank", "3", "--suite", "schurweyl",
          "--count", str(MAX_COUNT + 1)], "count must be at most"),
    ],
    ids=["ctilde-1e7", "ctilde-above-bound", "mutate-1e5", "seed-above-bound",
         "ctilde-rank-30", "rank-above-bound", "seed-rank-1e6", "properties-tmax-above-bound",
         "periodicity-tmax-above-bound", "flagminors-count-above-bound",
         "schurweyl-count-above-bound"],
)
def test_size_limits_refused_fast(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


# One argv per bounded argument, with the value to check last.
LIMIT_ARGV = {
    "rank": ["info", "--type", "A", "--rank"],
    "mmax": ["ctilde", *SS, "1", "1"],
    "window": ["seed", *SS, "--window"],
    "tmax": ["verify", *SS, "--suite", "properties", "--tmax"],
    "count": ["verify", "--type", "A", "--rank", "3", "--suite", "flagminors", "--count"],
}


@pytest.mark.parametrize("key", sorted(LIMIT_ARGV))
def test_every_limit_is_enforced(capsys, key):
    # A key that no argv reaches would be checked by nothing.
    assert set(LIMIT_ARGV) == set(cli.LIMITS)
    least, most = cli.LIMITS[key]
    for value in [most + 1] + ([] if least is None else [least - 1]):
        code, out, err = run(capsys, [*LIMIT_ARGV[key], str(value)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {key} must be at ") and err.endswith(f"got {value}\n")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "suite, options, refused",
    [
        ("ctilde", ["--count", "5"], "count"),
        ("minpairs", ["--tmax", "3"], "tmax"),
        ("properties", ["--seed", "1"], "seed"),
        ("flagminors", ["--count", "2", "--seed", "3"], None),
        ("schurweyl", ["--count", "2", "--seed", "3"], None),
        ("properties", ["--tmax", "3"], None),
        ("periodicity", ["--tmax", "3"], None),
    ],
)
def test_verify_refuses_options_its_suite_does_not_read(capsys, suite, options, refused):
    argv = ["verify", "--type", "A", "--rank", "3", "--suite", suite, *options]
    code, out, err = run(capsys, argv)
    if refused:
        assert code == 2 and out == ""
        assert err == f"error: suite {suite} takes no --{refused}\n"
    else:
        assert code == 0 and err == "" and out and "FAIL" not in out


@pytest.mark.parametrize("word", [["a", 2], "12", [1.5], [0, 1]])
def test_dbar_weights_bad_letter_exit_two(capsys, tmp_path, word):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps([{"word": word, "dim": 1}]))
    code, out, err = run(capsys, ["dbar-weights", "--type", "A", "--rank", "2", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: letter ") and err.endswith(" outside 1..2\n")


def _shuffled_weight_file(tmp_path, rank, length, count, seed):
    """Weight data of ``count`` shuffles of one random word."""
    rng = random.Random(seed)
    base = [rng.randint(1, rank) for _ in range(length)]
    entries = []
    for _ in range(count):
        word = base[:]
        rng.shuffle(word)
        entries.append({"word": word, "dim": 1})
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.mark.parametrize(
    "rank, length, count", [(5, 10, 6), (3, 12, 20)], ids=["A5-6-words", "A3-20-words"]
)
def test_dbar_weights_size_bound_refused_fast(capsys, tmp_path, rank, length, count):
    # both took about a minute or more to print megabytes before the bound
    path = _shuffled_weight_file(tmp_path, rank, length, count, seed=1)
    start = time.perf_counter()
    code, out, err = run(capsys, ["dbar-weights", "--type", "A", "--rank", str(rank), "--file", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: weight data too large: the sum expands to degree ")
    assert f"(at most {MAX_WEIGHT_DEGREE})" in err and f"(at most {MAX_WEIGHT_TERMS})" in err
    assert len(err.splitlines()) == 1


def _direct_weight_sum(rank, entries, point):
    """Sum of dim / prod(prefix forms) at an integer point, form by form."""
    total = Fraction(0)
    for word, dim in entries:
        acc, value = 0, Fraction(dim)
        for letter in word:
            acc += point[letter - 1]
            value /= acc
        total += value
    return total


@pytest.mark.parametrize(
    "family, rank, words",
    [
        # single words: the value is the reciprocal product of the prefix forms
        ("A", 14, [[1, 2, 3, 4, 5, 6]]),
        ("D", 14, [[1, 2, 3, 4, 5, 6]]),
        ("E", 8, [[1, 2, 3, 4, 5, 3, 2, 6, 5, 3, 4]]),
        ("E", 8, [[1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3]]),
        # several words, more than half the monomial bound
        ("A", 14, [[1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12, 13, 14],
                   [1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14],
                   [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12, 13, 14],
                   [1, 3, 2, 4, 6, 5, 7, 8, 9, 10, 11, 12, 13, 14]]),
        ("D", 14, [[2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 11],
                   [1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                   [1, 2, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12],
                   [1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12]]),
    ],
    ids=["A14-word", "D14-word", "E8-root-word", "E8-word", "A14-4-words", "D14-4-words"],
)
def test_dbar_weights_accepts_factored_words(capsys, tmp_path, family, rank, words):
    # root prefix forms stay factored, so these long words expand little
    from krtorus.cuspidal import weight_sum_size

    degree, terms = weight_sum_size(build_frame(family, rank), words)
    assert degree <= MAX_WEIGHT_DEGREE and terms <= MAX_WEIGHT_TERMS
    if len(words) > 1:
        assert terms > MAX_WEIGHT_TERMS // 2
    entries = [(w, 1 + k) for k, w in enumerate(words)]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps([{"word": w, "dim": d} for w, d in entries]))
    start = time.perf_counter()
    code, out, err = run(capsys, ["dbar-weights", "--type", family, "--rank", str(rank),
                                  "--file", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    value = RootRational.from_json_dict(build_frame(family, rank).root_context, json.loads(out))
    point = [random.Random(rank).randint(1, 50) for _ in range(rank)]
    assert value.evaluate(point) == _direct_weight_sum(rank, entries, point)


def test_dbar_weights_merges_repeated_words(capsys, tmp_path):
    # 299 entries over the 24 orderings of four letters: summed word by
    # word they size to 397670 monomials, merged to 31920
    from krtorus.cuspidal import weight_sum_size

    rng = random.Random(299)
    orderings = [list(w) for w in permutations([1, 2, 3, 4])]
    words = orderings + [rng.choice(orderings) for _ in range(299 - len(orderings))]
    entries = [(w, rng.randint(1, 3)) for w in words]
    degree, terms = weight_sum_size(build_frame("A", 14), words)
    assert terms == 24 * comb(degree + 3, 3) <= MAX_WEIGHT_TERMS
    path = tmp_path / "weights.json"
    path.write_text(json.dumps([{"word": w, "dim": d} for w, d in entries]))
    start = time.perf_counter()
    code, out, err = run(capsys, ["dbar-weights", "--type", "A", "--rank", "14",
                                  "--file", str(path), "--format", "json"])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    value = RootRational.from_json_dict(build_frame("A", 14).root_context, json.loads(out))
    point = [rng.randint(1, 50) for _ in range(14)]
    assert value.evaluate(point) == _direct_weight_sum(14, entries, point)


@given(
    datum=st.sampled_from([("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]),
    length=st.integers(1, 8),
    count=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_weight_sum_size_bounds_what_is_expanded(datum, length, count, seed):
    from krtorus.cuspidal import weight_sum, weight_sum_size
    from krtorus.field.rational import RootContext

    family, rank = datum
    rng = random.Random(seed)
    base = [rng.randint(1, rank) for _ in range(length)]
    words = [tuple(rng.sample(base, length)) for _ in range(count)]
    frame = build_frame(family, rank)
    degree, terms = weight_sum_size(frame, words)
    monomials = terms // len(set(words))
    seen = []
    build = RootContext.build

    def spy(self, unit, fac, num, den, free=None, slices=None):
        seen.append((num, den))
        return build(self, unit, fac, num, den, free, slices)

    RootContext.build = spy
    try:
        weight_sum(frame, [(w, 1) for w in words])
    finally:
        RootContext.build = build
    for poly in (p for pair in seen for p in pair):
        assert len(poly) <= monomials
        assert all(sum(e) <= degree for e in poly)


def test_mmax_bound_is_accepted(capsys):
    code, out, _ = run(capsys, ["ctilde", "--type", "A", "--rank", "2", "1", "1", str(MAX_MMAX)])
    assert code == 0 and len(out.splitlines()) == MAX_MMAX


@pytest.mark.parametrize("family", ["A", "D"])
def test_rank_bound_is_accepted(capsys, family):
    code, out, _ = run(capsys, ["info", "--type", family, "--rank", str(MAX_RANK)])
    assert code == 0 and f"rank: {MAX_RANK}" in out


def test_vertex_off_the_diagram_exit_two(capsys):
    code, out, err = run(capsys, ["dtilde-kr", "--type", "A", "--rank", "2", "3", "0", "1"])
    assert code == 2 and out == ""
    assert err == "error: (3,0) is not a torus point: vertex 3 is not on the diagram (vertices 1..2)\n"


# -- one parser per process -------------------------------------------------


def test_parser_built_once_per_process(capsys, monkeypatch):
    build = cli.build_parser
    calls = []

    def spy():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    argv = ["dtilde-kr", *SS, "2", "-2", "2"]
    assert run(capsys, argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["info", "--type", "B", "--rank", "3"])
    assert exc.value.code == 2
    usage_error = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    code, out, err = run(capsys, argv)
    assert len(calls) == 1

    fresh = build()
    assert help_text == fresh.format_help()
    with pytest.raises(SystemExit):
        fresh.parse_args(["info", "--type", "B", "--rank", "3"])
    assert capsys.readouterr().err == usage_error
    assert cli._run(fresh.parse_args(argv)) == code == 0
    assert capsys.readouterr().out == out and err == ""


# -- generated argv ------------------------------------------------------------

# Small types, where a query within the window plus two steps takes
# milliseconds (deep labels cost depth squared), and now and then a type
# that does not exist.
VALID_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]
BAD_TYPES = [("A", 0), ("D", 3), ("E", 5), ("A", MAX_RANK + 1)]
JUNK = st.text(alphabet="0123456789,:>-[]Y^* x", max_size=10)


def mostly(draw, usual, odd):
    """A draw from ``usual``, or one time in five from ``odd``."""
    return draw(odd if draw(st.integers(0, 4)) == 0 else usual)


@st.composite
def frame_args(draw):
    """(argv, frame or None) for the frame options."""
    family, rank = mostly(draw, st.sampled_from(VALID_TYPES), st.sampled_from(BAD_TYPES))
    argv = ["--type", family, "--rank", str(rank)]
    try:
        edges = DynkinDatum(family, rank).edges
    except InvalidInputError:
        edges = ()
    orientation = mostly(draw, st.none() | st.permutations(edges), JUNK)
    if isinstance(orientation, list):
        orientation = render_orientation(
            (a, b) if draw(st.booleans()) else (b, a) for a, b in orientation
        )
    anchor = mostly(draw, st.none() | st.tuples(st.integers(1, max(rank, 1)),
                                                 st.integers(-3, 3)), JUNK)
    for flag, value in (("--orientation", orientation), ("--anchor", anchor)):
        if isinstance(value, tuple):
            value = f"{value[0]}:{value[1]}"
        if value is not None:
            argv.append(f"{flag}={value}")
    try:
        frame = build_frame(family, rank, orientation or None,
                            anchor if isinstance(anchor, tuple) else None)
    except InvalidInputError:
        frame = None
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv, frame


def vertex(draw, rank):
    return mostly(draw, st.integers(1, max(rank, 1)), st.sampled_from([0, rank + 1]))


def point(draw, frame, rank):
    """A vertex and a point at most two steps below the vertex's window,
    now and then with the wrong parity or above the top; and its depth."""
    i = vertex(draw, rank)
    top = frame.xi.get(i, 0) if frame else 0
    window = frame.n_letters.get(i, 1) if frame else 1
    depth = draw(st.integers(1, window + 2))
    return i, top - 2 * (depth - 1) + mostly(draw, st.just(0), st.sampled_from([1, 2])), depth


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from([
        "info", "ctilde", "dtilde-y", "dtilde-kr", "dtilde-monomial", "dbar-cuspidal",
        "dbar-flag", "seed", "mutate", "verify", "usage",
    ]))
    common, frame = draw(frame_args())
    rank = int(common[3])
    if cmd == "usage":
        return draw(st.sampled_from([
            [], ["info"], ["info", "--rank", "x"], ["info", "--type", "B", "--rank", "2"],
            ["dtilde-y", *common], ["verify", *common, "--suite", "none"],
            ["seed", *common, "--window", "1.5"], ["info", *common, "--bogus"],
        ]))
    argv = [cmd, *common]
    if cmd == "ctilde":
        mmax = mostly(draw, st.integers(1, 40), st.sampled_from([-1, 0, MAX_MMAX + 1]))
        argv += [str(vertex(draw, rank)), str(vertex(draw, rank)), str(mmax)]
    elif cmd == "dtilde-y":
        argv += map(str, point(draw, frame, rank)[:2])
    elif cmd == "dtilde-kr":
        i, p, depth = point(draw, frame, rank)
        k = mostly(draw, st.integers(1, depth), st.sampled_from([-1, 0, depth + 1]))
        argv += [str(i), str(p), str(k)]
    elif cmd == "dtilde-monomial":
        atoms = []
        for _ in range(draw(st.integers(0, 3))):
            i, p, _ = point(draw, frame, rank)
            atoms.append(f"Y[{i},{p}]^{draw(st.integers(-3, 3))}")
        atoms += mostly(draw, st.just([]), st.lists(JUNK, min_size=1, max_size=1))
        argv.append("*".join(atoms))
    elif cmd == "dbar-cuspidal":
        roots = st.sampled_from(frame.positive_roots) if frame else st.just(())
        beta = mostly(draw, roots, st.lists(st.integers(-1, 2), max_size=rank + 1))
        argv.append("--beta=" + ",".join(map(str, beta)))
        if draw(st.booleans()):
            argv.append("--via-pair")
    elif cmd == "dbar-flag":
        if frame and draw(st.booleans()):
            shuffled = braid_shuffle(frame.datum, frame.base_word, draw(st.integers(0, 20)),
                                     random.Random(draw(st.integers(0, 99))))
            word = mostly(draw, st.just(shuffled), st.lists(st.integers(0, rank + 1), max_size=8))
            argv.append("--word=" + ",".join(map(str, word)))
    elif cmd in ("seed", "mutate"):
        size = frame.N if frame else 4
        window = mostly(draw, st.integers(1, 2 * size),
                        st.sampled_from([-1, 0, MAX_WINDOW + 1]))
        argv.append(f"--window={window}")
        if draw(st.booleans()):
            argv.append("--quotient")
        if cmd == "mutate":
            seq = [mostly(draw, st.integers(1, max(window, 1)), st.integers(-1, window + 1))
                   for _ in range(draw(st.integers(0, 6)))]
            argv.append("--seq=" + ",".join(map(str, seq)))
    elif cmd == "verify":
        argv += ["--suite", draw(st.sampled_from(sorted(SUITES)))]
        for flag, bound in (("--tmax", MAX_TMAX), ("--count", MAX_COUNT)):
            if draw(st.booleans()):
                value = mostly(draw, st.integers(1, 40), st.sampled_from([-1, 0, bound + 1]))
                argv.append(f"{flag}={value}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(0, 10**6))}")
    return argv


@given(argv=argvs())
@settings(max_examples=80, deadline=2000)
def test_generated_argv_exit_cleanly(argv):
    # Exit 0, 1 or 2 (argparse's usage errors raise SystemExit(2)); a
    # returned 2 prints one line.  A traceback would escape main.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert "error:" in err.getvalue()
            return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_closed_stdout_exits_quietly():
    # A reader that stops early, as ``| head -c 20`` does: the remaining
    # output goes nowhere, with no traceback and no "Exception ignored"
    # line on stderr, and the exit status is 141 (128 + SIGPIPE).
    src = os.path.dirname(os.path.dirname(krtorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["ctilde", "--type", "A", "--rank", "14", "1", "2", "10000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "krtorus.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        # 10000 lines overflow any pipe buffer, so the writer is still
        # writing when the read end closes.
        assert proc.stdout.read(20) == b"m=  1  0\nm=  2  1\nm="
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
