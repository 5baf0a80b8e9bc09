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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assertion_errors_raised(path):
    # a failed check raises GspbError naming its stage, which the command
    # line maps to exit 3; an AssertionError would escape as a traceback
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                      if isinstance(n, ast.Name)}]
    assert not lines, f"{path.name}: raise AssertionError at lines {lines}"


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    # a deleted helper must not leave its imports behind
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_row_lists_read(path):
    # a covering LP is stored as CSR arrays; its ``rows`` property builds
    # (variable, coefficient) lists for the benchmark harness and the tests,
    # and no module reads it
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "rows"]
    assert not lines, f"{path.name}: .rows read at lines {lines}"
