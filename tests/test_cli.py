import json
import time

import pytest

from krtorus.cli import MAX_COUNT, MAX_MMAX, MAX_RANK, MAX_TMAX, MAX_WINDOW, main
from krtorus.field.rational import RootRational


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
