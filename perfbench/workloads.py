"""Named instances of the three benchmark workloads, and their exact checks.

Each instance is one call into gspb's public API.  ``execute`` makes the
call; ``outcome`` turns its result into the exact values the benchmark
compares against ``expected.json`` plus the certified flag.  Importing this
module imports gspb, so the caller puts the checkout's ``src`` on the path
first.  Calls go through module attributes (``bounds.assemble_report``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gspb import ChannelSpec, bounds, seqchannels


@dataclass(frozen=True)
class Instance:
    id: str
    call: str                 # "report": bounds.assemble_report, "verify": profile check
    family: str
    n: int
    r: int = 1
    q: int | None = None

    def spec(self) -> ChannelSpec:
        return ChannelSpec(self.family, n=self.n, r=self.r, q=self.q)


def _report(family: str, n: int, r: int = 1, q: int | None = None) -> Instance:
    label = family.replace("_", "-")
    if family == "z":
        label += f" r={r}"
    elif q is not None:
        label += f" q={q}"
    return Instance(f"{label} n={n}", "report", family, n, r, q)


def _verify(family: str, n: int) -> Instance:
    return Instance(f"verify-{family} n={n}", "verify", family, n)


def _full_lp() -> list[Instance]:
    # n=9 is the unreduced LP; n>=10 goes through the orbit quotient
    return ([_report("deletion", n) for n in range(9, 13)]
            + [_report("grain", n) for n in range(9, 12)])


def _verify_profiles() -> list[Instance]:
    return [_verify(fam, n) for fam in ("deletion", "grain") for n in range(13, 17)]


def _quotient_tables() -> list[Instance]:
    out = [_report("z", n, r=r) for r in range(1, 5) for n in range(5, 33)]
    for q, top in ((3, 14), (4, 11)):
        out += [_report("mag_asym", n, q=q) for n in range(5, top + 1)]
    for q, top in ((3, 14), (4, 10), (5, 12), (6, 10)):
        out += [_report("mag_sym", n, q=q) for n in range(5, top + 1)]
    out += [_report("projective", n) for n in range(2, 12)]
    return out


WORKLOADS = {
    "full-lp": _full_lp(),
    "verify-profiles": _verify_profiles(),
    "quotient-tables": _quotient_tables(),
}

# Passes a run makes at least, beyond filling --seconds.  The slowest
# verify-profiles instance (grain n=16) takes about 4 s.  Its scaled median
# spread by 0.03 over ten seeds with three passes, by 0.07 over five with two.
MIN_PASSES = {"verify-profiles": 3}

# One or two tiny instances per workload that still take the same code
# paths: crossover (>= 60 variables) for full-lp, both verify routines, and
# simplex plus closed forms for quotient-tables.
SMOKE = {
    "full-lp": [_report("deletion", 7), _report("grain", 6)],
    "verify-profiles": [_verify("deletion", 8), _verify("grain", 8)],
    "quotient-tables": [_report("z", 8, r=2), _report("mag_sym", 6, q=3),
                        _report("projective", 5)],
}


def warm_up() -> None:
    """What every gspb invocation pays before its first answer.

    The lazy scipy import of the first HiGHS presolve (deletion n=8 has 128
    variables, so it takes the crossover path) and one quotient-rule
    validation.  setup_s times it, with the imports, in fresh interpreters;
    each run also does it in-process before anything is timed.
    """
    bounds.assemble_report(ChannelSpec("deletion", n=8))
    bounds.assemble_report(ChannelSpec("mag_sym", n=5, q=3))


def prime_instances(instances: list[Instance]) -> list[Instance]:
    """Small reports that pay the once-per-process quotient-rule validation.

    gspb validates each (family, q, r) quotient rule against ball
    enumeration at n = min(n, 4) (3 for mag-sym) the first time it is used.
    Running n=4 of every such key before timing keeps that cost out of the
    first pass, at the same probe size a full-size instance would use.
    """
    keys = sorted({(i.family, i.r, i.q) for i in instances
                   if i.call == "report" and i.family not in ("deletion", "grain")},
                  key=repr)
    return [_report(fam, 4, r=r, q=q) for fam, r, q in keys]


def execute(inst: Instance):
    """Certify one instance through the public API; returns the raw result."""
    if inst.call == "report":
        return bounds.assemble_report(inst.spec())
    if inst.family == "deletion":
        return seqchannels.verify_deletion_transversal(inst.n)
    return seqchannels.verify_grain_transversal(inst.n)


def _frac(x) -> str | None:
    if x is None:
        return None
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def outcome(inst: Instance, result) -> tuple[dict, bool]:
    """(exact values as "num/den" strings, certified) of an instance's result.

    A report is certified when its covering-LP entry carries exact
    certificates; a profile check is certified when the weights are feasible
    on every row.
    """
    if inst.call == "report":
        values = {name: _frac(e.value) for name, e in sorted(result.entries.items())}
        gspb = result.entries.get("gspb")
        return values, bool(gspb is not None and gspb.value is not None and gspb.certified)
    certified = bool(result.feasible and result.num_violated == 0)
    return {"bound": _frac(result.bound)}, certified


def check(inst: Instance, result, expected: dict) -> str | None:
    """None when the result is certified and equals the recorded values."""
    values, certified = outcome(inst, result)
    if not certified:
        return "not certified"
    want = expected.get(inst.id)
    if want is None:
        return "no recorded value"
    if values != want["values"]:
        diff = {k: (values.get(k), v) for k, v in want["values"].items()
                if values.get(k) != v}
        return f"values differ from record (got, want): {diff}"
    return None
