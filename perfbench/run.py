#!/usr/bin/env python3
"""Certified-solve benchmark for gspb.

    python3 perfbench/run.py --workload full-lp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: gspb is imported from ``src/`` there, never
from an installed copy, and the run exits with code 2 when ``src/gspb`` is
missing.  One client runs the workload's instances one after another (a
closed loop) in an order drawn from ``--seed``, repeating whole passes until
``--seconds`` have elapsed; verify-profiles makes at least three passes.
Every result is checked against the exact values in ``expected.json``.

Times are scaled to the reference interpreter speed by the probe in
``hostspeed.py``, so that the host's speed swings do not show as changes of
the program.  The detail line gives the unscaled times too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, timed with nothing wrapped; with
``--trace 1`` they are the per-layer self times and counts from spans (see
``spans.py``).  Spans, per-instance times and the environment record are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "slowest_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def cap_threads(nproc: int) -> dict[str, int]:
    """Hold BLAS/OpenMP pools to at most nproc threads (before numpy loads)."""
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        caps[var] = max(1, min(current, nproc))
        os.environ[var] = str(caps[var])
    return caps


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, probe seconds) for fresh interpreters that import gspb and
    run the warm-up; the probe is the median of those taken just before and
    just after the interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = "import numpy, scipy, workloads; workloads.warm_up()"
    samples = []
    after = hostspeed.probe_now()
    for _ in range(SETUP_SAMPLES):
        before = after
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
        after = hostspeed.probe_now()
        samples.append((seconds, (before + after) / 2))
    return samples


def run_passes(instances, seconds: float, rng: random.Random, expected: dict,
               tracer=None, min_passes: int = 1):
    """Repeat shuffled passes over the instances until `seconds` elapse
    and at least `min_passes` passes are done.

    Returns one record per pass: per-instance seconds (without the probe's
    own time), the median probe time around each instance, failures, (when
    traced) the spans of that pass, and the prober's ``spent``.
    """
    import workloads

    passes, intervals = [], []
    began = time.perf_counter()
    with hostspeed.Prober() as prober:
        while len(passes) < min_passes or time.perf_counter() - began < seconds:
            order = list(instances)
            rng.shuffle(order)
            interval, failures = {}, {}
            first_span = len(tracer.spans) if tracer else 0
            for inst in order:
                span = tracer.instance(f"{inst.id}#{len(passes)}") if tracer else nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        result = workloads.execute(inst)
                except Exception as exc:  # a failing instance counts; the run goes on
                    failures[inst.id] = f"{type(exc).__name__}: {exc}"
                    result = None
                interval[inst.id] = (t0, time.perf_counter())
                if result is not None:
                    problem = workloads.check(inst, result, expected)
                    if problem:
                        failures[inst.id] = problem
            spans = tracer.spans[first_span:] if tracer else []
            passes.append({"failures": failures, "spans": spans})
            intervals.append(interval)
    for p, interval in zip(passes, intervals):
        p["times"] = {i: t1 - t0 - prober.spent(t0, t1) for i, (t0, t1) in interval.items()}
        p["probes"] = {i: prober.probe_s(t0, t1) for i, (t0, t1) in interval.items()}
        p["probe_spent"] = prober.spent
    return passes


def environment(seed: int, nproc: int, caps: dict) -> dict:
    import numpy
    import scipy

    from gspb import kernels
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gspb_kernels_backend": kernels.BACKEND,
        "thread_caps": caps,
        "process_pool": None,
    }


def instance_seconds(p: dict, scale: bool) -> dict[str, float]:
    """A pass's instance times, scaled to the reference speed if `scale`."""
    if not scale:
        return p["times"]
    return {i: t * hostspeed.REF_S / p["probes"][i] for i, t in p["times"].items()}


def wall_and_slowest(passes, scale: bool) -> tuple[float, float]:
    """Median pass total, and the largest per-instance median over passes."""
    times = [instance_seconds(p, scale) for p in passes]
    walls = [sum(t.values()) for t in times]
    return (statistics.median(walls),
            max(statistics.median(t[i] for t in times) for i in times[0]))


def end_to_end(passes, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, with times at the reference speed."""
    wall, slowest = wall_and_slowest(passes, True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": wall,
              "slowest_s": slowest,
              "setup_s": statistics.median(t * hostspeed.REF_S / probe
                                           for t, probe in setup),
              "peak_rss_mb": peak_kb / 1024}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes) -> tuple[dict, list[str]]:
    """Median self times over passes, scaled like the instance times;
    counts from the first pass.

    Counts must repeat exactly from pass to pass; any that do not are
    returned by name so the run can report them.
    """
    import spans

    per_pass = []
    for n, p in enumerate(passes):
        factors = {f"{i}#{n}": hostspeed.REF_S / probe for i, probe in p["probes"].items()}
        per_pass.append(spans.layer_metrics(p["spans"], p["probe_spent"], factors))
    first = per_pass[0]
    unsteady = [k for k in spans.COUNTS if any(m[k] != first[k] for m in per_pass)]
    out = {k: {"value": statistics.median(m[k] for m in per_pass), "unit": "s"}
           for k in spans.TIME_METRICS}
    for k in spans.COUNTS:
        unit = "bits" if k == "exactlp.cert_den_bits_max" else "count"
        out[k] = {"value": first[k], "unit": unit}
    out["trace.wall_s"] = {"value": wall_and_slowest(passes, True)[0], "unit": "s"}
    return out, unsteady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one or two tiny instances per workload (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "gspb" / "__init__.py").is_file():
        print(f"error: no gspb sources at {SRC / 'gspb'}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    caps = cap_threads(nproc)
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    instances = table[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())

    # setup_s is an end-to-end metric; a traced run reports none of those
    setup = [] if args.trace else measure_setup()
    workloads.warm_up()
    for inst in workloads.prime_instances(instances):
        workloads.execute(inst)

    rng = random.Random(args.seed)
    min_passes = workloads.MIN_PASSES.get(args.workload, 1)
    if args.trace:
        with spans.Tracer() as tracer:
            passes = run_passes(instances, args.seconds, rng, expected, tracer,
                                min_passes)
        metrics, unsteady = per_layer(passes)
    else:
        passes = run_passes(instances, args.seconds, rng, expected,
                            min_passes=min_passes)
        metrics, unsteady = end_to_end(passes, setup), []

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    detail = {
        "workload": args.workload, "smoke": args.smoke, "trace": args.trace,
        "env": environment(args.seed, nproc, caps),
        "passes": len(passes), "fail_rate": failed / attempted,
        "setup_samples_s_and_probe_s": setup, "unsteady_counts": unsteady,
        "failures": [p["failures"] for p in passes],
        "unscaled_wall_and_slowest_s": wall_and_slowest(passes, False),
        "probe_median_s": statistics.median(v for p in passes for v in p["probes"].values()),
        "instance_s": [p["times"] for p in passes],
        "instance_probe_s": [p["probes"] for p in passes],
        "metrics": metrics,
        "spans": [s.to_json() for p in passes for s in p["spans"]],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    for inst_id, why in sorted({k: v for p in passes for k, v in p["failures"].items()}.items()):
        print(f"FAIL {inst_id}: {why}", file=sys.stderr)
    if unsteady:
        print(f"counts that changed between passes: {unsteady}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in (
        "workload", "fail_rate", "passes", "unscaled_wall_and_slowest_s",
        "probe_median_s", "env")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
