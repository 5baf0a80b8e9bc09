"""The names the benchmark harness in ``perfbench/`` reads from gspb.

The harness wraps the functions listed in ``perfbench/spans.py``, records
``gspb.kernels.BACKEND``, sorts solves by their ``method`` string and reads
the result attributes in ``HARNESS_READS``; a rename or deletion of any of
them breaks every benchmark run, so it is caught here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from gspb import (ChannelSpec, bounds, exactlp, kernels, projective, reduction,
                  seqchannels, zchannel)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SPANS = runpy.run_path(str(SPANS_PATH))
TIMED = SPANS["TIMED"]


@pytest.mark.parametrize("name", sorted(TIMED))
def test_timed_name_resolves(name):
    mod, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"gspb.{mod}"), attr, None)), name


def test_kernels_backend_is_recorded():
    assert isinstance(kernels.BACKEND, str)


# result attributes read by perfbench/spans.py and perfbench/workloads.py
HARNESS_READS = (
    "LPSolution.method", "LPSolution.pivots", "LPSolution.primal",
    "LPSolution.dual", "PresolveResult.converged", "BoundEntry.value",
    "BoundEntry.certified", "TransversalReport.feasible",
    "TransversalReport.num_violated", "TransversalReport.bound",
    "LPSolution.path", "ClassPartition.num_classes",
)


@pytest.fixture(scope="module")
def results():
    lp = exactlp.CoveringLP.from_rows([1, 1, 1], [[(0, 1), (1, 1)], [(1, 1), (2, 1)]])
    return {
        "LPSolution": exactlp.solve_min_transversal(lp),
        "PresolveResult": exactlp.float_presolve(lp),
        "BoundEntry": bounds.assemble_report(ChannelSpec("z", n=6)).entry("gspb"),
        "TransversalReport": seqchannels.verify_grain_transversal(6),
        "ClassPartition": reduction.quotient_matrix(
            ChannelSpec("mag_sym", n=4, q=3)).partition,
    }


@pytest.mark.parametrize("name", HARNESS_READS)
def test_result_attribute_resolves(results, name):
    kind, attr = name.split(".")
    assert getattr(results[kind], attr) is not None, name


def test_certified_entry_reads_true(results):
    # workloads.outcome counts a report as certified by this flag
    assert results["BoundEntry"].certified is True


def test_z_closed_form_reads_by_path():
    # spans.py counts zchannel.closed_form_hits by the path of z_gspb's result
    assert zchannel.z_gspb(6, 1).path == "closed-form"


def test_solve_method_strings():
    # spans.py counts a solve as a crossover unless its method is "simplex"
    lp = exactlp.CoveringLP.from_rows([1, 1, 1], [[(0, 1), (1, 1)], [(1, 1), (2, 1)]])
    assert exactlp.solve_min_transversal(lp).method == "presolve+crossover"


def test_every_pivot_selection_feeds_one_dixon_solve():
    # spans.py sizes a Dixon solve by args[1] and a pivot selection by the
    # rank it returns; one support solve lifts exactly the pivot subsystem.
    # The subspace block dual is a support solve at every n >= 3
    tracer = SPANS["Tracer"]()
    with tracer, tracer.instance("projective(9)"):
        projective.projective_gspb(9)
    metrics = SPANS["layer_metrics"](tracer.spans, lambda t0, t1: 0.0,
                                     {"projective(9)": 1.0})
    assert metrics["linsolve.dixon_dim_sum"] == metrics["linsolve.pivots_rank_sum"] > 0
