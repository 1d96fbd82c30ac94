"""Golden CLI output: stdout and exit code of a fixed set of commands.

The expected output lives in ``cli_golden.json`` next to this file.  It
covers every README example, a deep E6 KR label, an E6 mutation chain,
weight data read from a file (one sum keeping a residual denominator),
and every ``verify`` suite on the rank-3 sink-source frame, each in text
and JSON.  Any change to the arithmetic that alters a rendered value
shows up here as a byte difference.

Regenerate the expected output (only when a change of output is
intended) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import json
import sys
from itertools import permutations
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")

SS = ["--type", "A", "--rank", "3", "--orientation", "2>1,2>3"]
E6 = ["--type", "E", "--rank", "6"]
SUITES = (
    "ctilde", "figure2", "flagminors", "minpairs", "mutations",
    "periodicity", "properties", "schurweyl", "tsystem",
)
WEIGHTS = {
    "a2": [{"word": [1, 2], "dim": 1}, {"word": [2, 1], "dim": 1}],
    "a3": [
        {"word": [1, 2, 3], "dim": 1},
        {"word": [2, 1, 3], "dim": 2},
        {"word": [2, 3, 1], "dim": 1},
        {"word": [3, 2, 1], "dim": 3},
    ],
    # Words over the prefix form a1 + 2*a2 + a3, which is no root: the sum
    # keeps a residual denominator.
    "a3mixed": [
        {"word": list(w), "dim": 1 + (w[0] + w[1]) % 3}
        for w in sorted(set(permutations([1, 2, 2, 3])))
    ],
}

# name -> argv; "{a2}", "{a3}", "{a3mixed}" stand for a weight-data file.
_BASE = {
    "readme-info": ["info", "--type", "D", "--rank", "4"],
    "readme-ctilde": ["ctilde", "--type", "A", "--rank", "3", "1", "1", "16"],
    "readme-dtilde-y": ["dtilde-y", *SS, "2", "0"],
    "readme-dtilde-kr": ["dtilde-kr", *SS, "2", "-2", "2"],
    "readme-dtilde-monomial": ["dtilde-monomial", *SS, "Y[1,-1]*Y[2,-2]^-1"],
    "readme-dbar-cuspidal": ["dbar-cuspidal", "--type", "D", "--rank", "4", "--beta", "1,2,1,1"],
    "readme-dbar-cuspidal-pair": [
        "dbar-cuspidal", "--type", "D", "--rank", "4", "--beta", "1,2,1,1", "--via-pair",
    ],
    "readme-dbar-flag": ["dbar-flag", "--type", "A", "--rank", "2", "--word", "1,2,1"],
    "readme-dbar-weights": ["dbar-weights", "--type", "A", "--rank", "2", "--file", "{a2}"],
    "readme-seed": ["seed", *SS, "--window", "12", "--quotient", "--print"],
    "readme-mutate": ["mutate", *SS, "--window", "12", "--quotient", "--seq", "4"],
    "readme-verify-figure2": ["verify", *SS, "--suite", "figure2"],
    "e6-dtilde-kr": ["dtilde-kr", *E6, "3", "-8", "1"],
    "e6-mutate-chain": ["mutate", *E6, "--window", "72", "--quotient", "--seq", "9,3,5,11"],
    "a3-dbar-weights": ["dbar-weights", "--type", "A", "--rank", "3", "--file", "{a3}"],
    "a3-dbar-weights-mixed": [
        "dbar-weights", "--type", "A", "--rank", "3", "--file", "{a3mixed}",
    ],
    **{f"ss-verify-{s}": ["verify", *SS, "--suite", s] for s in SUITES},
    "mono-verify-schurweyl": ["verify", "--type", "A", "--rank", "3", "--suite", "schurweyl"],
    "mono-verify-tsystem": ["verify", "--type", "A", "--rank", "3", "--suite", "tsystem"],
}
CASES = {
    f"{name}-{fmt}": argv + (["--format", "json"] if fmt == "json" else [])
    for name, argv in _BASE.items()
    for fmt in ("text", "json")
}


def _argv(argv, files):
    return [files[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]


def _weight_files(directory):
    files = {}
    for key, data in WEIGHTS.items():
        path = Path(directory) / f"weights_{key}.json"
        path.write_text(json.dumps(data))
        files[key] = str(path)
    return files


def _run(argv, capsys=None):
    """(exit code, stdout) of one CLI call."""
    from krtorus.cli import main

    if capsys is not None:
        code = main(argv)
        return code, capsys.readouterr().out
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, capsys, tmp_path):
    argv = _argv(CASES[name], _weight_files(tmp_path))
    code, out = _run(argv, capsys)
    assert {"exit": code, "stdout": out} == golden[name]


def _regenerate():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = _weight_files(tmp)
        out = {}
        for name, argv in sorted(CASES.items()):
            code, stdout = _run(_argv(argv, files))
            out[name] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(_regenerate())
