"""Rules every module under src/gspb keeps, checked on its syntax tree."""

import ast
import functools
from pathlib import Path

import pytest

import gspb
from gspb.channels import FAMILIES

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


def test_balls_have_one_enumeration():
    # reduction.full_hypergraph_lp is the one enumeration of the ball
    # hypergraph, which MB, ASPV, the monotone check, Lemma 3 and the oracle
    # read; beside it only the quotient rule check's probe reference lists
    # balls, and no module but channels calls out_ball otherwise
    callers = sorted(key for key, node in _functions().items()
                     if key[0] != "channels.py" and "out_ball" in _called_names(node))
    assert callers == [("reduction.py", "_reference"),
                       ("reduction.py", "full_hypergraph_lp")]


def _add_at_calls(node) -> int:
    """Number of ``np.add.at`` calls under a syntax tree node."""
    return sum(1 for n in ast.walk(node)
               if isinstance(n, ast.Call) and ast.unparse(n.func) == "np.add.at")


def test_one_exact_sparse_product():
    # every exact sparse sum goes through linsolve.exact_product, whose dtype
    # rule proves its int64 sums exact; a second np.add.at loop would be a
    # second product to keep exact
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    product = next(node for node in ast.walk(trees["linsolve.py"])
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "exact_product")
    calls = {name: _add_at_calls(tree) for name, tree in trees.items()}
    assert _add_at_calls(product) > 0
    assert {name: c for name, c in calls.items() if c} == {
        "linsolve.py": _add_at_calls(product)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_second_lu_factorisation(path):
    # a float basis is factored once, by LAPACK getrf, whose row
    # interchanges also pick the rows of a tall block; the P/L/U form
    # scipy.linalg.lu would factor the block a second time
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "lu"
             and ast.unparse(node.value) in ("scipy.linalg", "linalg")
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("scipy.linalg")
             and any(alias.name == "lu" for alias in node.names)]
    assert not lines, f"{path.name}: scipy.linalg.lu at lines {lines}"


_FLOAT_NAMES = {"float16", "float32", "float64", "float"}


@pytest.mark.parametrize("name", ["select_pivots_mod", "_gauss_jordan", "dixon_solve",
                                  "_try_reconstruct", "rational_reconstruct"])
def test_no_floats_on_the_modular_path(name):
    # the support solves select, invert and lift in integer residues alone,
    # so no float can decide a value there: no float dtype and no float()
    # conversion appears in their code
    tree = ast.parse((Path(gspb.__file__).resolve().parent / "linsolve.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    lines = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Name) and node.id in _FLOAT_NAMES
             or isinstance(node, ast.Attribute) and node.attr in _FLOAT_NAMES]
    assert not lines, f"linsolve.{name}: float references at lines {lines}"


def _called_names(func) -> set[str]:
    """Names of the functions called under a syntax tree node, by their
    last component (``seqchannels.deletion_full_lp`` -> ``deletion_full_lp``)."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(func) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


@functools.cache
def _functions() -> dict[tuple[str, str], ast.FunctionDef]:
    return {(path.name, node.name): node for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def test_ball_rows_have_one_builder():
    # the target kernels have one caller, the block builder, so a block, the
    # orbit representatives and the one-block full LP share one row rule
    kernels = {"deletion_targets", "grain_targets"}
    callers = sorted(key for key, node in _functions().items()
                     if _called_names(node) & kernels)
    assert callers == [("seqchannels.py", "_ball_rows")]


def _reaches(start: str, target: str) -> bool:
    """True iff a function named ``start`` calls one named ``target``,
    directly or through the functions under src/gspb it calls, every
    function of a name followed."""
    by_name: dict[str, list] = {}
    for (_, name), node in _functions().items():
        by_name.setdefault(name, []).append(node)
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == target:
            return True
        if name not in seen:
            seen.add(name)
            todo += [called for node in by_name.get(name, [])
                     for called in _called_names(node)]
    return False


def test_streamed_ball_rows_build_no_csr():
    # ball_blocks hands the checks the kernels' unit targets as they are;
    # _ball_lp, which turns them into CSR arrays, serves the one-block full
    # LPs and the orbit representatives alone
    assert _reaches("deletion_full_lp", "_ball_lp")
    assert not _reaches("ball_blocks", "_ball_lp")


STREAMED = [("seqchannels.py", "verify_deletion_transversal"),
            ("seqchannels.py", "verify_grain_transversal"),
            ("seqchannels.py", "_orbit_reduced_solve"),
            ("bounds.py", "check_monotone"),
            ("cli.py", "cmd_verify"), ("bounds.py", "family_routes")]


@pytest.mark.parametrize("key", STREAMED, ids=[f"{m}:{f}" for m, f in STREAMED])
def test_full_lp_checks_read_row_blocks(key):
    # these read the 2^n deletion or grain rows a block at a time; building
    # the whole LP with *_full_lp would hold every row at once
    full = sorted(name for name in _called_names(_functions()[key])
                  if name.endswith("_full_lp"))
    assert not full, f"{key[0]}:{key[1]} calls {full}"


def test_cli_names_families_only_in_its_spelling_map():
    # every family's routes live in bounds.family_routes; the command line
    # spells each family once, in FAMILY_NAMES, and branches on none
    path = Path(gspb.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text())
    spelling = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [ast.unparse(t) for t in node.targets] == ["FAMILY_NAMES"])
    names = set(FAMILIES) | {key.value for key in spelling.keys}
    inside = {id(node) for node in ast.walk(spelling)}
    lines = sorted(f"{node.value!r} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in names
                   and id(node) not in inside)
    assert not lines, f"cli.py names families at {lines}"


def _is_primal_product(node) -> bool:
    """A call of ``exact_product`` that is not ``transpose=True``: A.x."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
            == "exact_product" and not any(
                k.arg == "transpose" and isinstance(k.value, ast.Constant)
                and k.value.value is True for k in node.keywords))


def test_one_primal_check():
    # verify_transversal is the one primal row check: in exactlp only it
    # takes A.w, and check_certificate reads its report
    tree = ast.parse((Path(gspb.__file__).resolve().parent / "exactlp.py").read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    products = sum(map(_is_primal_product, ast.walk(tree)))
    inside = sum(map(_is_primal_product, ast.walk(functions["verify_transversal"])))
    assert inside > 0 and products == inside
    assert "verify_transversal" in _called_names(functions["check_certificate"])


def _imported_modules(tree) -> set[str]:
    """Dotted names of the modules a syntax tree imports, and of each name
    it imports from one (``from a import b`` gives ``a`` and ``a.b``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


def _loaded_extensions(tree) -> set[str]:
    """The string arguments of the ``scipy_extension`` calls in a syntax
    tree: the compiled scipy modules it loads."""
    return {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "scipy_extension"
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}


def test_one_module_knows_the_highs_binding():
    # the float presolve builds its HiGHS model through scipy's private
    # bindings, not linprog, whose wrapper costs more than the solve on the
    # quotient LPs; only exactlp may load or import those bindings, and no
    # module calls linprog
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    importers = sorted(name for name, tree in trees.items()
                       if any("_highspy" in m.split(".") for m in
                              _imported_modules(tree) | _loaded_extensions(tree)))
    assert importers == ["exactlp.py"]
    linprog = sorted(f"{name}:{node.lineno}" for name, tree in trees.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id == "linprog"
                     or isinstance(node, ast.Attribute) and node.attr == "linprog"
                     or isinstance(node, ast.alias) and node.name == "linprog")
    assert not linprog, f"linprog referenced at {linprog}"


_SCIPY_PACKAGES = ("scipy.sparse", "scipy.linalg", "scipy.optimize")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scipy_package_imports(path):
    # a solve runs three compiled routines, LAPACK getrf/getrs and HiGHS,
    # which linsolve.scipy_extension loads from their own files; importing
    # scipy.sparse, scipy.linalg or scipy.optimize would load their whole
    # Python packages (about 0.5 s and 40 MB) before the first answer
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = sorted(m for m in _imported_modules(tree)
                      if any(m == p or m.startswith(p + ".") for p in _SCIPY_PACKAGES))
    assert not imported, f"{path.name}: imports {imported}"


NO_FRACTIONS = [("exactlp.py", "_certified"), ("seqchannels.py", "_orbit_reduced_solve"),
                ("zchannel.py", "z_gspb"), ("magnitude.py", "closed_transversal")]


@pytest.mark.parametrize("key", NO_FRACTIONS, ids=[f"{m}:{f}" for m, f in NO_FRACTIONS])
def test_witnesses_stay_scaled_to_the_check(key):
    # these routes hand check_certificate or verify_transversal integer-scaled
    # witnesses and keep them so; a Fraction per entry is made only when a
    # caller reads LPSolution.primal or .dual (or ClassTransversal.weights),
    # so they call neither Fraction(...) nor a witness's .fractions()
    calls = sorted(f"{ast.unparse(node.func)} (line {node.lineno})"
                   for node in ast.walk(_functions()[key])
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func).split(".")[-1] in ("Fraction", "fractions"))
    assert not calls, f"{key[0]}:{key[1]} calls {calls}"


def _counting_calls(func) -> list[str]:
    """The ``Counter(...)`` and ``from_rows(...)`` calls under a function."""
    return sorted(f"{ast.unparse(node.func)} (line {node.lineno})"
                  for node in ast.walk(func) if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] in ("Counter", "from_rows"))


QUOTIENT_BUILDERS = sorted(
    [key for key in _functions() if key[0] == "reduction.py"]
    + [("seqchannels.py", "_orbit_reduced_solve")])


@pytest.mark.parametrize("key", QUOTIENT_BUILDERS,
                         ids=[f"{m}:{f}" for m, f in QUOTIENT_BUILDERS])
def test_quotients_have_one_array_counter(key):
    # every quotient LP is built as CSR arrays: the closed-form rules by
    # reduction._assemble, the enumerated rows by reduction.count_rows, and
    # the unreduced full_hypergraph_lp lists its balls' ids into CSR arrays; a
    # per-row Counter or CoveringLP.from_rows would be a second, per-entry
    # way to build one
    calls = _counting_calls(_functions()[key])
    assert not calls, f"{key[0]}:{key[1]} calls {calls}"
