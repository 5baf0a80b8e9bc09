"""gspb loads the two compiled scipy modules it runs, LAPACK and HiGHS, from
their own files (``linsolve.scipy_extension``), without scipy's Python
packages.  conftest.py imports scipy.optimize into the test process, so each
check runs in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gspb

SRC = str(Path(gspb.__file__).resolve().parents[1])

# the GSPB values of the benchmark warm-up's two reports
WARM_UP = """
from gspb import bounds
from gspb.channels import ChannelSpec

def warm_up():
    values = []
    for spec in (ChannelSpec("deletion", n=8), ChannelSpec("mag_sym", n=5, q=3)):
        entry = bounds.assemble_report(spec).entries["gspb"]
        assert entry.certified, spec
        values.append(str(entry.value))
    assert values == ["693519/22871", "27129/833"], values
"""


def run_fresh(code: str) -> None:
    """Run ``code`` after ``WARM_UP`` in a fresh interpreter that imports
    gspb from this checkout; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", WARM_UP + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_a_solve_imports_no_scipy_package():
    # the warm-up's two reports certify with scipy.sparse, scipy.linalg and
    # scipy.optimize never imported
    run_fresh("""
        import sys
        import gspb
        warm_up()
        loaded = [m for m in ("scipy.sparse", "scipy.linalg", "scipy.optimize")
                  if m in sys.modules]
        assert not loaded, loaded
        assert "scipy.linalg._flapack" in sys.modules
        assert "scipy.optimize._highspy._core" in sys.modules
    """)


def test_loaded_extensions_serve_the_full_scipy():
    # importing the packages after a solve gets back the modules gspb loaded,
    # scipy's own linprog and lu_factor run on them, and gspb still certifies
    run_fresh("""
        import sys
        import numpy as np
        from gspb import linsolve
        warm_up()
        core = sys.modules["scipy.optimize._highspy._core"]
        lapack = sys.modules["scipy.linalg._flapack"]
        import scipy.linalg
        import scipy.optimize
        from scipy.linalg import _flapack
        from scipy.optimize._highspy import _core
        assert _core is core and _flapack is lapack
        assert scipy.linalg.lapack.dgetrf is lapack.dgetrf
        assert linsolve.scipy_extension("scipy.optimize._highspy._core") is core
        res = scipy.optimize.linprog([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert res.status == 0 and np.isclose(res.fun, -2.8)
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), [3.0, 4.0])
        assert np.allclose(a @ x, [3.0, 4.0])
        warm_up()
    """)


def test_loader_falls_back_to_a_plain_import():
    # with no extension file found, the loader imports the module the usual
    # way (and its package with it), and a solve still certifies
    run_fresh("""
        import importlib
        import importlib.machinery
        import sys
        from gspb import linsolve

        class FileFinder(importlib.machinery.FileFinder):
            def find_spec(self, name, target=None):
                return None  # finds no file

        importlib.machinery.FileFinder = FileFinder
        warm_up()
        assert "scipy.optimize" in sys.modules and "scipy.linalg" in sys.modules
        for name in ("scipy.linalg._flapack", "scipy.optimize._highspy._core"):
            assert linsolve.scipy_extension(name) is importlib.import_module(name)
    """)
