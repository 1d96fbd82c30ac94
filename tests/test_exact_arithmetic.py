"""The package computes exactly: no float or complex literal and no call to
float() or complex() anywhere under src/krtorus."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "krtorus"
SOURCES = sorted(SRC.rglob("*.py"))


def inexact_spots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield f"line {node.lineno}: literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield f"line {node.lineno}: call to {node.func.id}()"


def test_guard_sees_sources_and_floats():
    assert len(SOURCES) > 10
    bad = list(inexact_spots(ast.parse("x = float(y) * 0.5 + 2j")))
    assert len(bad) == 3


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_floating_point_in_source(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(inexact_spots(tree)) == []
