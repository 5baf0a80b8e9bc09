"""The names the benchmark harness in ``perfbench/`` reads from gspb.

The harness wraps the functions listed in ``perfbench/spans.py``, records
``gspb.kernels.BACKEND`` and sorts solves by their ``method`` string; a
rename or deletion of any of them breaks every benchmark run, so it is
caught here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from gspb import exactlp, kernels, magnitude

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SPANS = runpy.run_path(str(SPANS_PATH))
TIMED = SPANS["TIMED"]


@pytest.mark.parametrize("name", sorted(TIMED))
def test_timed_name_resolves(name):
    mod, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"gspb.{mod}"), attr, None)), name


def test_kernels_backend_is_recorded():
    assert isinstance(kernels.BACKEND, str)


def test_solve_method_strings():
    # spans.py counts simplex solves by result.method == "simplex" and
    # every other solve as a crossover
    lp = exactlp.CoveringLP(3, [1, 1, 1], [[(0, 1), (1, 1)], [(1, 1), (2, 1)]])
    assert exactlp.solve_min_transversal(lp).method == "presolve+crossover"
    assert exactlp.solve_min_transversal(lp, method="simplex").method == "simplex"


def test_every_pivot_selection_feeds_one_dixon_solve():
    # spans.py sizes a Dixon solve by args[1] and a pivot selection by the
    # rank it returns; one support solve lifts exactly the pivot subsystem
    lp = magnitude.sym_quotient(7, 5).to_covering_lp()
    tracer = SPANS["Tracer"]()
    with tracer, tracer.instance("sym_quotient(7,5)"):
        exactlp.solve_min_transversal(lp)
    metrics = SPANS["layer_metrics"](tracer.spans, lambda t0, t1: 0.0,
                                     {"sym_quotient(7,5)": 1.0})
    assert metrics["linsolve.dixon_dim_sum"] == metrics["linsolve.pivots_rank_sum"] > 0
