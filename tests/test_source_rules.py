"""Rules every module under src/gspb keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import gspb

SOURCES = sorted(Path(gspb.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; a check that must hold in every
    # run raises explicitly instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"
