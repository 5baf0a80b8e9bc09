"""Self-test of the benchmark on its smoke instances.

    python3 -m pytest perfbench          # from the repository root (~30 s)

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that per-layer counts repeat exactly across two traced runs, that a
corrupted recorded value is caught, and that the benchmark refuses to run
without the gspb sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t, k): smoke(w, t, seed=7 + k)
            for w in WORKLOADS for t, k in ((0, 0), (1, 0), (1, 1))}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(results, workload, trace, section):
    out = results[(workload, trace, 0)]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(results, workload):
    counts = [{name: m["value"] for name, m in results[(workload, 1, k)]["metrics"].items()
               if m["unit"] != "s"} for k in (0, 1)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_corrupted_record_counts_as_failure():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run
        import workloads
    finally:
        del sys.path[:2]
    expected = json.loads((HERE / "expected.json").read_text())
    instances = workloads.SMOKE["quotient-tables"]
    victim = instances[0].id
    values = expected[victim]["values"]
    key = next(k for k, v in values.items() if v is not None)
    num, den = map(int, values[key].split("/"))
    values[key] = f"{num + 1}/{den}"
    passes = run.run_passes(instances, 0.0, random.Random(0), expected)
    failures = passes[0]["failures"]
    assert list(failures) == [victim]
    assert "differ" in failures[victim]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
