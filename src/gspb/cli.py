"""Command line for computing, tabulating and verifying the bounds.

Verbs: compute, table, verify, oracle, fixtures.  Exit codes: 0 success,
2 usage error, 3 refusal (invalid column/family combination, non-monotone
graph, no quotient), 4 resource cap exceeded.  All configuration flows
through flags.  The reports, the table's columns and what ``verify``
checks come from ``bounds.family_routes``; this module names a family only
in its ``--family`` map.  A refusal leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, exactlp, oracle, refdata, seqchannels
from .channels import (CapExceeded, ChannelSpec, FIXTURES, GspbError,
                       DEFAULT_ENUM_CAP, MAGNITUDE_FAMILIES, check_radius)
from .exactlp import fmt_frac

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_CAP = 4

FAMILY_NAMES = {
    "z": "z", "mag-asym": "mag_asym", "mag-sym": "mag_sym",
    "deletion": "deletion", "grain": "grain", "projective": "projective",
}


def _spec_from_args(args, n: int) -> ChannelSpec:
    family = FAMILY_NAMES[args.family]
    q = args.q
    if family in MAGNITUDE_FAMILIES:
        if q is None:
            raise GspbError(f"--q is required for {args.family}")
    elif q is not None:
        raise GspbError(f"--q does not apply to {args.family}")
    return ChannelSpec(family, n=n, r=args.r, q=q)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    spec = _spec_from_args(args, args.n)
    # the pretty line prints one entry, so only that one is computed
    report = bounds.assemble_report(
        spec, lp_cap=args.lp_cap, enum_cap=args.enum_cap,
        names=bounds.BOUNDS if args.format == "json" else (args.bound,))
    if args.bound not in report.entries:
        raise GspbError(f"bound {args.bound!r} is not available for {args.family}")
    entry = report.entry(args.bound)
    if entry.value is None:
        if entry.capped:
            raise CapExceeded(entry.note)
        raise GspbError(entry.note or f"{args.bound} unavailable")
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        line = f"{entry.floor}"
        if args.exact:
            line += f"  exact {fmt_frac(entry.value)}"
        if entry.note:
            line += f"  [{entry.note}]"
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_reports(args, specs: list[ChannelSpec]):
    names = tuple(name for name in bounds.BOUNDS
                  if name != "gspb" or "GSPB" in args.columns_list)
    jobs = [(spec, args.lp_cap, args.enum_cap, names) for spec in specs]
    # a forked pool starts all its workers at the first task: no more than rows
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_worker, jobs))
    return [_table_worker(job) for job in jobs]


def _table_worker(job):
    spec, lp_cap, enum_cap, names = job
    return bounds.assemble_report(spec, lp_cap=lp_cap, enum_cap=enum_cap,
                                  names=names)


def _cell(report, column: str, exact: bool) -> str:
    if column == "REF":
        ref = refdata.primary_reference(report.spec.family, report.spec.n,
                                        report.spec.r)
        return "?" if ref is None else str(ref[1])
    entry = report.entries.get(column.lower())
    if entry is None or entry.value is None:
        return "?"
    return fmt_frac(entry.value) if exact else str(entry.floor)


def _columns(spec: ChannelSpec) -> list[str]:
    """The table columns of a family: MB where it is monotone, CLOSED where
    it has a hand transversal, REF where the literature has a column."""
    routes = bounds.family_routes(spec)
    return [column for column, present in (
        ("MB", routes.mb is not None), ("ASPV", True),
        ("CLOSED", routes.closed is not None), ("GSPB", True),
        ("REF", spec.family in refdata.COLUMN_FAMILIES)) if present]


def cmd_table(args) -> int:
    specs = [_spec_from_args(args, n)
             for n in range(args.n_from, args.n_to + 1)]
    valid = _columns(_spec_from_args(args, args.n_from))
    args.columns_list = ([c.strip().upper() for c in args.columns.split(",")]
                         if args.columns else valid)
    for c in args.columns_list:
        if c not in valid:
            raise GspbError(f"column {c} is not valid for {args.family}")
    reports = _table_reports(args, specs)

    header = ["n"] + args.columns_list
    lines = []
    if args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines.append(",".join(header))
        for rep in reports:
            lines.append(",".join(
                [str(rep.spec.n)] +
                [_cell(rep, c, args.exact) for c in args.columns_list]))
        text = "\n".join(lines) + "\n"
    else:
        rows = [[str(rep.spec.n)] + [_cell(rep, c, args.exact)
                                     for c in args.columns_list]
                for rep in reports]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    spec = _spec_from_args(args, args.n)
    check_radius(spec)
    routes = bounds.family_routes(spec, args.lp_cap, args.enum_cap)
    lp = routes.lp()
    if args.weights_file:
        with open(args.weights_file) as fh:
            tokens = fh.read().split()
        try:
            weights = [Fraction(t) for t in tokens]
        except (ValueError, ZeroDivisionError) as exc:  # "x", "1/0"
            raise GspbError(f"malformed weights file: {exc}") from exc
        label = args.weights_file
    else:
        weights, label = routes.weights()
    report = exactlp.verify_transversal(lp, weights)
    # the certificate may refuse, and a refusal prints nothing
    cert = "" if args.weights_file or not report.feasible else routes.certificate()
    status = "feasible" if report.feasible else "infeasible"
    print(f"{args.family} n={args.n} r={args.r}: {label} {status} "
          f"over {lp.num_rows} constraints")
    if report.feasible:
        value = report.bound
        approx = exactlp.approx(value)
        shown = "" if approx is None else f"~{approx:.4f}, "
        line = (f"  bound {fmt_frac(value)} ({shown}"
                f"floor {value.numerator // value.denominator})")
        line += (f"; tight rows {len(report.tight_rows)}, "
                 f"min slack {fmt_frac(report.min_slack)}")
        print(line)
        if cert:
            print(f"  {cert}")
    else:
        print(f"  violated rows {report.num_violated} "
              f"(first: {report.violated_rows[:8]}), min slack "
              f"{fmt_frac(report.min_slack)}")
        if report.negative_entries:
            print(f"  negative weights {len(report.negative_entries)} "
                  f"(first: {report.negative_entries[:8]})")
    return EXIT_OK if report.feasible or args.weights_file else EXIT_REFUSED


# ---------------------------------------------------------------------------
# oracle + fixtures
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    if args.fixture:
        if args.fixture not in FIXTURES:
            raise GspbError(f"unknown fixture {args.fixture!r}; "
                            f"known: {', '.join(sorted(FIXTURES))}")
        facts = {f.name: f for f in oracle.counterexample_suite()}[args.fixture]
        print(f"{facts.name}: {facts.summary}")
        print(f"  covering optimum {fmt_frac(facts.tau_star)}; "
              f"ASPV {fmt_frac(facts.aspv)}; max code {facts.max_code}")
        return EXIT_OK
    if not args.family or args.n is None:
        raise GspbError("oracle needs --fixture or --family with --n")
    spec = _spec_from_args(args, args.n)
    res = oracle.oracle_result(spec, cap=args.enum_cap)
    floor = res.tau_star_full.numerator // res.tau_star_full.denominator
    print(f"{args.family} n={args.n} r={args.r}: "
          f"tau* = {fmt_frac(res.tau_star_full)} (~{float(res.tau_star_full):.4f}), "
          f"nu = {res.nu_integral}, nu <= {floor}")
    print(f"  witness centers: {res.witness}")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    for facts in oracle.counterexample_suite():
        print(f"{facts.name}: {facts.summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, family_required: bool = True,
                n_required: bool = True) -> None:
    p.add_argument("--family", choices=sorted(FAMILY_NAMES),
                   required=family_required)
    if n_required is not None:
        p.add_argument("--n", type=int, required=n_required)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--q", type=int, default=None)
    guard = ", ".join(f"{family} {n}" for family, n in seqchannels.LP_GUARD.items())
    p.add_argument("--lp-cap", type=int, default=None,
                   help=f"largest n for which the full deletion/grain LP runs "
                   f"(default: {guard})")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gspb",
        description="Exact covering-LP upper bounds for non-regular error channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one bound for one instance")
    _add_common(p)
    p.add_argument("--bound", required=True, choices=bounds.BOUNDS)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="sweep n and emit a bounds table")
    _add_common(p, n_required=None)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--columns", default=None,
                   help="comma-separated subset of MB,ASPV,CLOSED,GSPB,REF")
    p.add_argument("--format", choices=["pretty", "csv", "json"],
                   default="pretty")
    p.add_argument("--out", default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="check a transversal and certificates")
    _add_common(p)
    p.add_argument("--weights-file", default=None,
                   help="whitespace-separated rationals p/q, one per variable")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth at small n")
    _add_common(p, family_required=False, n_required=False)
    p.add_argument("--fixture", default=None,
                   help="example2 | example3 | example4")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fixtures", help="list built-in counterexample fixtures")
    p.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except GspbError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
