"""Channel-agnostic bounds and report assembly.

Four quantities appear per instance, each exact:

* MB     -- reciprocal-degree total, valid on monotone graphs
* ASPV   -- word count over mean ball size; a reference value, NOT always a
            bound (the star and two-block fixtures defeat it)
* CLOSED -- the family's improved hand transversal total, where one exists
* GSPB   -- the covering-LP optimum itself

Reports keep exact rationals and integer floors side by side and attach the
published comparison columns with their source tags.  MB, CLOSED and GSPB
pass ``channels.check_radius``; ASPV enumerates balls at any radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactlp, magnitude, projective, refdata, seqchannels, zchannel
from .channels import (DEFAULT_ENUM_CAP, CapExceeded, ChannelSpec, GspbError,
                       NotMonotoneError, average_ball_size, ball_centers,
                       check_radius, enumerate_vertices, out_ball,
                       vertex_count)
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
                "approx": float(e.value),
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
# monotonicity
# ---------------------------------------------------------------------------

def check_monotone(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """True iff every ball member has degree at most its center's.

    The deletion channel is checked through the run-count analogue (ball
    members have no balls of their own there) on the rows of its full LP,
    which refuses 2^n rows above ``cap``; everything else compares out-ball
    sizes directly by enumeration.
    """
    if spec.family == "deletion":
        check_radius(spec)
        lp = seqchannels.deletion_full_lp(spec.n, cap)
        rho_small, _ = run_stats(spec.n - 1)
        rho_big, _ = run_stats(spec.n)
        return bool((rho_small[lp.indices]
                     <= rho_big.repeat(lp.indptr[1:] - lp.indptr[:-1])).all())
    degs = {x: len(out_ball(spec, x)) for x in enumerate_vertices(spec, cap)}
    return all(degs[y] <= dx for x, dx in degs.items() for y in out_ball(spec, x))


def monotonicity_bound(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Sum of reciprocal degrees; refused when the graph is not monotone."""
    check_radius(spec)
    fam = spec.family
    if fam == "z":
        return zchannel.z_mb(spec.n, spec.r)
    if fam == "mag_asym":
        return magnitude.asym_mb(spec.n, spec.q)
    if fam == "deletion":
        return seqchannels.deletion_mb(spec.n)
    if fam == "grain":
        return seqchannels.grain_mb(spec.n)
    if fam in ("mag_sym", "projective"):
        raise NotMonotoneError(f"{fam} graphs are not monotone; no MB")
    if not check_monotone(spec, cap):
        raise NotMonotoneError("graph fails the monotonicity check; no MB")
    return sum(
        (Fraction(1, len(out_ball(spec, x)))
         for x in enumerate_vertices(spec, cap)),
        Fraction(0),
    )


def lemma3_transversal(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP):
    """Always-feasible weights 1/min{deg(x) : x reaches the vertex}.

    Returns (vertices, weights, bound).  One pass over the balls: each
    center's out-ball offers its size to its members and every vertex keeps
    the least size offered (for the deletion channel the centers are the
    length-n words).
    """
    least: dict = {}
    for c in ball_centers(spec, cap):
        ball = out_ball(spec, c)
        for v in ball:
            least[v] = min(least.get(v, len(ball)), len(ball))
    vertices = enumerate_vertices(spec, cap)
    weights = [Fraction(1, least[v]) for v in vertices]
    return vertices, weights, sum(weights, Fraction(0))


def aspv(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Vertex count over mean ball size; a value, not automatically a bound."""
    fam = spec.family
    if fam == "z":
        return zchannel.z_aspv(spec.n, spec.r)
    if spec.r == 1:
        if fam == "mag_asym":
            return magnitude.asym_aspv(spec.n, spec.q)
        if fam == "mag_sym":
            return magnitude.sym_aspv(spec.n, spec.q)
        if fam == "deletion":
            return seqchannels.deletion_aspv(spec.n)
        if fam == "grain":
            return seqchannels.grain_aspv(spec.n)
        if fam == "projective":
            return projective.projective_aspv(spec.n)
    # explicit graphs and larger radii: direct enumeration
    return vertex_count(spec) / average_ball_size(spec, cap)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def assemble_report(spec: ChannelSpec,
                    lp_cap: int = seqchannels.DEFAULT_LP_CAP,
                    enum_cap: int = DEFAULT_ENUM_CAP,
                    include_gspb: bool = True) -> BoundReport:
    """Run every applicable bound for one instance.

    Refused or capped computations are recorded as absent entries with the
    reason; nothing is fabricated.  The grain MB is the even-rounded variant,
    matching the published column.
    """
    report = BoundReport(spec=spec)
    report.reference_values = refdata.reference_values(
        spec.family, spec.n, spec.r)

    def put(name, thunk, note="", any_radius=False):
        try:
            if not any_radius:
                check_radius(spec)
            value = thunk()
        except GspbError as exc:
            report.entries[name] = _refused(name, exc)
            return
        report.entries[name] = BoundEntry(name, value, note)

    fam = spec.family
    if fam == "grain":
        put("mb", lambda: Fraction(seqchannels.grain_mb(spec.n, True)),
            note="even-rounded variant")
    else:
        put("mb", lambda: monotonicity_bound(spec, enum_cap))
    put("aspv", lambda: aspv(spec, enum_cap), note="value, not bound",
        any_radius=True)

    if fam == "mag_asym":
        put("closed", lambda: magnitude.asym_improved_transversal(spec.n, spec.q).bound)
    elif fam == "mag_sym":
        put("closed", lambda: magnitude.sym_transversal(spec.n, spec.q).bound)
    elif fam == "deletion":
        put("closed", lambda: seqchannels.deletion_bound(spec.n))
    elif fam == "grain":
        put("closed", lambda: seqchannels.grain_bound(spec.n))

    if include_gspb:
        try:
            value, note = _gspb_value(spec, lp_cap, enum_cap)
        except GspbError as exc:
            report.entries["gspb"] = _refused("gspb", exc)
        else:
            report.entries["gspb"] = BoundEntry("gspb", value, note)
    return report


def _gspb_value(spec: ChannelSpec, lp_cap: int,
                enum_cap: int) -> tuple[Fraction, str]:
    """The certified covering optimum of one instance, and its note."""
    check_radius(spec)
    fam, note = spec.family, ""
    if fam == "z":
        sol = zchannel.z_gspb(spec.n, spec.r)
        note = f"path: {sol.method}"
    elif fam == "mag_asym":
        sol = magnitude.asym_gspb(spec.n, spec.q)
    elif fam == "mag_sym":
        sol = magnitude.sym_gspb(spec.n, spec.q)
    elif fam == "deletion":
        sol = seqchannels.deletion_full_gspb(spec.n, lp_cap, enum_cap)
        note = "full covering LP"
    elif fam == "grain":
        sol = seqchannels.grain_full_gspb(spec.n, lp_cap, enum_cap)
        note = "full covering LP (artifact-computed; no published column)"
    elif fam == "projective":
        sol = projective.projective_gspb(spec.n)
        note = sol.notes
    else:  # explicit graphs: the unreduced covering LP
        from .reduction import full_hypergraph_lp
        sol = exactlp.solve_min_transversal(full_hypergraph_lp(spec, cap=enum_cap))
    return sol.optimum, note


def _refused(name: str, exc: GspbError) -> BoundEntry:
    return BoundEntry(name, None, str(exc),
                      capped=isinstance(exc, CapExceeded))
