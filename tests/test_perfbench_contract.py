"""The names the benchmark harness in ``perfbench/`` reads from gspb.

The harness wraps the functions listed in ``perfbench/spans.py`` and records
``gspb.kernels.BACKEND``; a rename or deletion of any of them breaks every
benchmark run, so it is caught here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from gspb import kernels

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TIMED = runpy.run_path(str(SPANS_PATH))["TIMED"]


@pytest.mark.parametrize("name", sorted(TIMED))
def test_timed_name_resolves(name):
    mod, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"gspb.{mod}"), attr, None)), name


def test_kernels_backend_is_recorded():
    assert isinstance(kernels.BACKEND, str)
