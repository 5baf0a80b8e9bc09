"""Channel-agnostic bounds, each family's routes, and report assembly.

Four quantities appear per instance, each exact:

* MB     -- reciprocal-degree total, valid on monotone graphs
* ASPV   -- word count over mean ball size; a reference value, NOT always a
            bound (the star and two-block fixtures defeat it)
* CLOSED -- the family's improved hand transversal total, where one exists
* GSPB   -- the covering-LP optimum itself

``family_routes`` is the one place that says how each family computes them
and what ``gspb verify`` checks; the report, ``monotonicity_bound``,
``aspv`` and the command line read it.  A magnitude instance builds its
quotient once, and refuses one past the enumeration cap before building it.

Where no closed form exists (explicit graphs, ASPV past radius 1, the
monotone check but deletion's, Lemma 3) a route reads the row lengths of
the one ball enumeration, ``reduction.full_hypergraph_lp``.

Reports keep exact rationals and integer floors side by side and attach the
published comparison columns with their source tags; a report computes only
the entries it is asked for.  MB, CLOSED, GSPB and ``verify`` pass
``channels.check_radius``; ASPV enumerates balls at any radius.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import (exactlp, magnitude, projective, reduction, refdata, seqchannels,
               zchannel)
from .channels import (DEFAULT_ENUM_CAP, MAGNITUDE_FAMILIES, CapExceeded,
                       ChannelSpec, EnumerationCapExceeded, GspbError,
                       NotMonotoneError, check_radius, enumerate_vertices)
from .exactlp import fmt_frac
from .kernels import run_stats


@dataclass
class BoundEntry:
    name: str
    value: Fraction | None  # None when refused; a value is always certified
    note: str = ""
    capped: bool = False  # refused by a resource cap; not in the JSON

    @property
    def certified(self) -> bool:
        return self.value is not None

    @property
    def floor(self) -> int | None:
        if self.value is None:
            return None
        return self.value.numerator // self.value.denominator


@dataclass
class BoundReport:
    spec: ChannelSpec
    entries: dict[str, BoundEntry] = field(default_factory=dict)
    reference_values: dict[str, int] = field(default_factory=dict)

    def entry(self, name: str) -> BoundEntry:
        return self.entries[name]

    def floors(self) -> dict[str, int | None]:
        return {name: e.floor for name, e in self.entries.items()}

    def to_json_dict(self) -> dict:
        def enc(e: BoundEntry):
            if e.value is None:
                return {"value": None, "note": e.note}
            return {
                "num": e.value.numerator,
                "den": e.value.denominator,
                "approx": exactlp.approx(e.value),  # null past the float range
                "floor": e.floor,
                "certified": e.certified,
                "note": e.note,
            }

        return {
            "family": self.spec.family,
            "n": self.spec.n,
            "r": self.spec.r,
            "q": self.spec.q,
            "bounds": {name: enc(e) for name, e in self.entries.items()},
            "refs": dict(self.reference_values),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# each family's routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Routes:
    """One instance's routes, each computed when called, none checking the
    radius.  ``mb`` is None where the family is not monotone, ``aspv`` where
    ASPV is enumerated, ``closed`` where there is no hand transversal.
    ``gspb`` gives the optimum and its note; ``lp``, ``weights`` (and their
    label) and ``certificate`` are what ``gspb verify`` checks and prints."""

    gspb: Callable[[], tuple[Fraction, str]]
    mb: Callable[[], Fraction] | None = None
    aspv: Callable[[], Fraction] | None = None
    closed: Callable[[], Fraction] | None = None
    lp: Callable[[], exactlp.CoveringLP | exactlp.RowBlocks] | None = None
    weights: Callable[[], tuple[exactlp.Scaled | list[Fraction], str]] | None = None
    certificate: Callable[[], str] = lambda: ""


def family_routes(spec: ChannelSpec, lp_cap: int = seqchannels.DEFAULT_LP_CAP,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> Routes:
    """Every route of one instance.  The closed-form ASPVs hold at radius 1
    (z's at every radius); elsewhere ASPV is enumerated."""
    fam, n, r, q = spec.family, spec.n, spec.r, spec.q
    single = r == 1
    if fam == "z":
        solve = functools.cache(lambda: zchannel.z_gspb(n, r))

        def z_certificate():
            value = solve().optimum
            return (f"certified optimal, value {fmt_frac(value)} "
                    f"(floor {value.numerator // value.denominator})")

        return Routes(
            lambda: (solve().optimum, f"path: {solve().method}"),
            mb=lambda: zchannel.z_mb(n, r),
            aspv=lambda: zchannel.z_aspv(n, r),
            lp=lambda: zchannel.z_quotient_lp(n, r),
            # radius n already covers every ball (zchannel.z_gspb)
            weights=lambda: (zchannel.z_weights_recursive(n, min(r, n)).scaled,
                             "closed-form weights"),
            certificate=z_certificate)
    if fam in MAGNITUDE_FAMILIES:
        asym = fam == "mag_asym"
        quotient = functools.cache(lambda: _magnitude_quotient(spec, enum_cap))
        transversal = functools.cache(lambda: magnitude.closed_transversal(quotient()))
        closed_aspv = magnitude.asym_aspv if asym else magnitude.sym_aspv
        return Routes(
            lambda: (magnitude.quotient_gspb(quotient()).optimum, ""),
            mb=(lambda: magnitude.asym_mb(n, q)) if asym else None,
            aspv=(lambda: closed_aspv(n, q)) if single else None,
            closed=lambda: transversal().bound,
            lp=lambda: quotient().lp,
            weights=lambda: (transversal().scaled, "improved class transversal"
                             if asym else "class transversal"))
    if fam == "deletion":
        return Routes(
            lambda: (seqchannels.deletion_full_gspb(n, lp_cap, enum_cap).optimum,
                     "full covering LP"),
            mb=lambda: seqchannels.deletion_mb(n),
            aspv=(lambda: seqchannels.deletion_aspv(n)) if single else None,
            closed=lambda: seqchannels.deletion_bound(n),
            lp=lambda: seqchannels.ball_blocks(fam, n, enum_cap),
            weights=lambda: (seqchannels.profile_weights(n - 1),
                             "run-profile transversal"))
    if fam == "grain":
        return Routes(
            lambda: (seqchannels.grain_full_gspb(n, lp_cap, enum_cap).optimum,
                     "full covering LP (artifact-computed; no published column)"),
            mb=lambda: seqchannels.grain_mb(n),
            aspv=(lambda: seqchannels.grain_aspv(n)) if single else None,
            closed=lambda: seqchannels.grain_bound(n),
            lp=lambda: seqchannels.ball_blocks(fam, n, enum_cap),
            weights=lambda: (seqchannels.profile_weights(n),
                             "run-profile transversal"))
    if fam == "projective":
        solve = functools.cache(lambda: projective.projective_gspb(n))
        return Routes(
            lambda: (solve().optimum, solve().notes),
            aspv=(lambda: projective.projective_aspv(n)) if single else None,
            lp=lambda: projective.projective_lp(n),
            weights=lambda: (projective.greedy_weights(n).w, "greedy weights"),
            certificate=lambda: f"certificate: {solve().method}")
    # explicit graphs: the unreduced covering LP, and MB by enumeration
    return Routes(
        lambda: (exactlp.solve_min_transversal(
            reduction.full_hypergraph_lp(spec, cap=enum_cap)).optimum, ""),
        mb=lambda: _enumerated_mb(spec, enum_cap))


def _magnitude_quotient(spec: ChannelSpec, cap: int) -> reduction.QuotientLP:
    """The quotient LP, refused before any class is built when the class
    count passes the cap."""
    classes = reduction.magnitude_class_count(spec)
    if classes > cap:
        raise EnumerationCapExceeded(
            f"{classes} {spec.family} classes exceed the enumeration cap {cap}")
    return reduction.quotient_matrix(spec)


# ---------------------------------------------------------------------------
# monotonicity and the enumerated routes
# ---------------------------------------------------------------------------

def _is_monotone(lp: exactlp.CoveringLP) -> bool:
    """The check on balls enumerated one per vertex: no member of a row has
    a degree, its own row length, above its row's center's."""
    degree = np.diff(lp.indptr)
    return bool((degree[lp.indices] <= np.repeat(degree, degree)).all())


def check_monotone(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """True iff every ball member has degree at most its center's.

    The deletion channel is checked through the run-count analogue (ball
    members have no balls of their own there) on the rows of its full LP,
    a block at a time, which refuses 2^n rows above ``cap``; everything else
    compares the row lengths of its enumerated balls.
    """
    if spec.family != "deletion":
        return _is_monotone(reduction.full_hypergraph_lp(spec, cap))
    check_radius(spec)
    rows = seqchannels.ball_blocks("deletion", spec.n, cap)
    rho_small, _ = run_stats(spec.n - 1)
    member = np.append(rho_small, 0)  # a -1 target reads degree 0
    rho_big, _ = run_stats(spec.n)
    return all(bool((member[block.targets]
                     <= rho_big[start:start + block.num_rows]).all())
               for start, block in zip(rows.bounds, rows))


def monotonicity_bound(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Sum of reciprocal degrees; refused when the graph is not monotone."""
    check_radius(spec)
    mb = family_routes(spec, enum_cap=cap).mb
    if mb is None:
        raise NotMonotoneError(f"{spec.family} graphs are not monotone; no MB")
    return mb()


def _enumerated_mb(spec: ChannelSpec, cap: int) -> Fraction:
    """Sum of 1/(row length) over the balls its monotone check read."""
    lp = reduction.full_hypergraph_lp(spec, cap)
    if not _is_monotone(lp):
        raise NotMonotoneError("graph fails the monotonicity check; no MB")
    sizes, counts = np.unique(np.diff(lp.indptr), return_counts=True)
    return sum(map(Fraction, counts.tolist(), sizes.tolist()), Fraction(0))


def lemma3_transversal(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP):
    """Always-feasible weights 1/min{deg(x) : x reaches the vertex}.

    Returns (vertices, weights, bound).  Each vertex takes the least length
    of an enumerated ball holding it (for deletion, of a length-n word's).
    """
    lp = reduction.full_hypergraph_lp(spec, cap)
    sizes = np.diff(lp.indptr)
    least = np.full(lp.num_vars, np.iinfo(np.int64).max)
    np.minimum.at(least, lp.indices, np.repeat(sizes, sizes))
    weights = [Fraction(1, d) for d in least.tolist()]
    return enumerate_vertices(spec, cap), weights, sum(weights, Fraction(0))


def aspv(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Vertex count over mean ball size; a value, not automatically a bound.
    Without a closed form the balls are enumerated."""
    closed_form = family_routes(spec, enum_cap=cap).aspv
    if closed_form is not None:
        return closed_form()
    lp = reduction.full_hypergraph_lp(spec, cap)
    return Fraction(lp.num_vars * lp.num_rows, len(lp.indices))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

BOUNDS = ("mb", "aspv", "closed", "gspb")


def assemble_report(spec: ChannelSpec,
                    lp_cap: int = seqchannels.DEFAULT_LP_CAP,
                    enum_cap: int = DEFAULT_ENUM_CAP,
                    names: tuple[str, ...] = BOUNDS) -> BoundReport:
    """Run every applicable bound among ``names`` for one instance, and no
    other: a report asked for one entry computes that entry alone.

    Refused or capped computations are recorded as absent entries with the
    reason; nothing is fabricated.  The grain MB is the even-rounded variant,
    matching the published column.
    """
    report = BoundReport(spec=spec)
    report.reference_values = refdata.reference_values(
        spec.family, spec.n, spec.r)
    routes = family_routes(spec, lp_cap, enum_cap)

    def put(name, thunk, any_radius=False):
        """Record ``thunk()``, a (value, note) pair, or its refusal."""
        if name not in names:
            return
        try:
            if not any_radius:
                check_radius(spec)
            entry = BoundEntry(name, *thunk())
        except GspbError as exc:
            entry = BoundEntry(name, None, str(exc),
                               capped=isinstance(exc, CapExceeded))
        report.entries[name] = entry

    if spec.family == "grain":
        put("mb", lambda: (Fraction(seqchannels.grain_mb(spec.n, True)),
                           "even-rounded variant"))
    else:
        put("mb", lambda: (monotonicity_bound(spec, enum_cap), ""))
    put("aspv", lambda: (aspv(spec, enum_cap), "value, not bound"), any_radius=True)
    if routes.closed is not None:
        put("closed", lambda: (routes.closed(), ""))
    put("gspb", routes.gspb)
    return report
