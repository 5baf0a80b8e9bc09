"""Spans around gspb's public functions, and the per-layer metrics they give.

The tracer replaces each wrapped function under every name a gspb module
binds it to (``seqchannels`` binds the kernels with ``from .kernels import``,
so patching only ``gspb.kernels`` would miss those calls), and restores the
originals on exit.  Nothing under ``src/`` changes.

A span holds a name, a start, an end, its parent span and the id of the
instance it belongs to.  A layer's self time is its span's duration minus the
time of the wrapped calls it made; the wrapper's own bookkeeping (taking the
clock, computing counts) is charged to neither.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# wrapped function -> the layer time metric its self time adds to
TIMED = {
    "bounds.assemble_report": "bounds.report_s",
    "seqchannels.deletion_full_lp": "seqchannels.lp_build_s",
    "seqchannels.grain_full_lp": "seqchannels.lp_build_s",
    "seqchannels.deletion_full_gspb": "seqchannels.orbit_s",
    "seqchannels.grain_full_gspb": "seqchannels.orbit_s",
    "seqchannels.verify_deletion_transversal": "seqchannels.verify_s",
    "seqchannels.verify_grain_transversal": "seqchannels.verify_s",
    "kernels.run_stats": "kernels.s",
    "kernels.deletion_targets": "kernels.s",
    "kernels.grain_targets": "kernels.s",
    "kernels.popcounts": "kernels.s",
    "exactlp.solve_min_transversal": "exactlp.solve_s",
    "exactlp.float_presolve": "exactlp.presolve_s",
    "exactlp.verify_transversal": "exactlp.verify_s",
    "linsolve.select_pivots_mod": "linsolve.pivots_s",
    "linsolve.dixon_solve": "linsolve.dixon_s",
    # the vector-level reconstruction; wrapping the per-entry
    # rational_reconstruct would put a span on every solution coordinate
    "linsolve._try_reconstruct": "linsolve.reconstruct_s",
    "reduction.quotient_matrix": "reduction.quotient_s",
    "zchannel.z_gspb": "zchannel.gspb_s",
    "magnitude.asym_gspb": "magnitude.transversal_s",
    "magnitude.sym_gspb": "magnitude.transversal_s",
    "magnitude.asym_improved_transversal": "magnitude.transversal_s",
    "magnitude.sym_transversal": "magnitude.transversal_s",
    "projective.projective_gspb": "projective.gspb_s",
}

COUNTS = (
    "linsolve.dixon_calls", "linsolve.dixon_failed", "linsolve.dixon_dim_max",
    "linsolve.dixon_dim_sum", "linsolve.dixon_dim3_sum",
    "linsolve.pivots_cells", "linsolve.pivots_rank_sum",
    "linsolve.reconstruct_calls", "linsolve.reconstruct_failed",
    "exactlp.presolve_calls", "exactlp.presolve_failed",
    "exactlp.verify_rows", "exactlp.verify_nnz",
    "exactlp.solves_simplex", "exactlp.solves_crossover",
    "exactlp.simplex_pivots", "exactlp.crossover_fallbacks",
    "exactlp.cert_den_bits_max",
    "seqchannels.rows_built", "kernels.words", "reduction.classes_sum",
    "zchannel.closed_form_hits",
)
MAX_COUNTS = {"linsolve.dixon_dim_max", "exactlp.cert_den_bits_max"}

# self time of the benchmark's own per-instance root spans: work in modules
# that are not wrapped (channels, refdata, closed-form MB/ASPV)
UNWRAPPED = "trace.unwrapped_s"
TIME_METRICS = tuple(dict.fromkeys(TIMED.values())) + (UNWRAPPED,)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: str
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    child_names: list = field(default_factory=list)
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "instance": self.instance, "start": self.start, "end": self.end,
                "self": self.self_time, "error": self.error, "counts": self.counts}


def _bits(values) -> int:
    return max((abs(x.denominator).bit_length() for x in values), default=0)


def _count(name: str, args, result, span: Span) -> dict:
    """Exact work counts of one call that returned, keyed by metric name."""
    if name == "linsolve.dixon_solve":
        k = args[1]
        return {"linsolve.dixon_calls": 1, "linsolve.dixon_failed": int(result is None),
                "linsolve.dixon_dim_max": k, "linsolve.dixon_dim_sum": k,
                "linsolve.dixon_dim3_sum": k ** 3}
    if name == "linsolve.select_pivots_mod":
        rows, cols = args[0].shape
        return {"linsolve.pivots_cells": rows * cols,
                "linsolve.pivots_rank_sum": len(result[0])}
    if name == "linsolve._try_reconstruct":
        return {"linsolve.reconstruct_calls": 1,
                "linsolve.reconstruct_failed": int(result is None)}
    if name == "exactlp.float_presolve":
        return {"exactlp.presolve_calls": 1,
                "exactlp.presolve_failed": int(not result.converged)}
    if name == "exactlp.verify_transversal":
        lp = args[0]
        return {"exactlp.verify_rows": lp.num_rows,
                "exactlp.verify_nnz": sum(map(len, lp.rows))}
    if name == "exactlp.solve_min_transversal":
        simplex = result.method == "simplex"
        out = {"exactlp.solves_simplex": int(simplex),
               "exactlp.solves_crossover": int(not simplex),
               "exactlp.simplex_pivots": result.pivots,
               # qualified for crossover (HiGHS ran) but ended in the simplex
               "exactlp.crossover_fallbacks":
                   int(simplex and "exactlp.float_presolve" in span.child_names)}
        if result.primal is not None:
            out["exactlp.cert_den_bits_max"] = max(_bits(result.primal),
                                                   _bits(result.dual))
        return out
    if name in ("seqchannels.deletion_full_lp", "seqchannels.grain_full_lp"):
        return {"seqchannels.rows_built": result.num_rows}
    if name.startswith("kernels."):
        return {"kernels.words": 1 << args[0]}
    if name == "reduction.quotient_matrix":
        return {"reduction.classes_sum": result.partition.num_classes}
    if name == "zchannel.z_gspb":
        return {"zchannel.closed_form_hits": int(result.path == "closed-form")}
    return {}


class Tracer:
    """Context manager that wraps the TIMED functions while it is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str, instance: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name,
                    None if parent is None else parent.id,
                    instance if parent is None else parent.instance)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, entered: float) -> None:
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_time += perf_counter() - entered
            parent.child_names.append(span.name)

    @contextmanager
    def instance(self, instance_id: str):
        """Root span shared by every wrapped call of one instance."""
        entered = perf_counter()
        span = self._open("instance", instance_id)
        span.start = perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._close(span, entered)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            span = tracer._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                tracer._close(span, entered)
                raise
            span.end = perf_counter()
            span.counts = _count(name, args, result, span)
            tracer._close(span, entered)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gspb" or key.startswith("gspb."))]
        for name in TIMED:
            mod_name, attr = name.split(".")
            fn = getattr(sys.modules[f"gspb.{mod_name}"], attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def layer_metrics(spans: list[Span], probe_spent,
                  scale: dict[str, float]) -> dict[str, float]:
    """Per-layer self times (seconds) and exact counts over a set of spans.

    ``probe_spent(t0, t1)`` is the time the host-speed probe (hostspeed.py)
    took inside [t0, t1); it is taken out of the self time it landed in.
    ``scale`` maps each span's instance id to the factor that brings its
    times to the reference speed.
    """
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in COUNTS})
    probe_self = {span.id: probe_spent(span.start, span.end) for span in spans}
    for span in spans:
        if span.parent is not None:
            probe_self[span.parent] -= probe_spent(span.start, span.end)
    for span in spans:
        key = UNWRAPPED if span.name == "instance" else TIMED[span.name]
        out[key] += (span.self_time - probe_self[span.id]) * scale[span.instance]
        for name, value in span.counts.items():
            if name in MAX_COUNTS:
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return out
