"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 1, 3, 4 and 6 compare every cell against the published tables
verbatim.  Exact arithmetic contradicts the printed value in a small number
of cells (each independently cross-verified in
test_published_discrepancies.py); those criteria therefore FAIL here by
design rather than loosening the comparison, and the failure message lists
the exact cells.
"""

import time
from fractions import Fraction

import pytest

from gspb import exactlp, magnitude as mag, oracle, projective as proj
from gspb import seqchannels as seq, zchannel as z
from gspb.channels import ChannelSpec
from gspb.reduction import quotient_matrix

import published_tables as pub


def fl(x: Fraction) -> int:
    return x.numerator // x.denominator


def _finish(name: str, t0: float, budget: float | None,
            mismatches: list[str]) -> None:
    elapsed = time.time() - t0
    status = "PASS" if not mismatches else f"FAIL ({len(mismatches)} cells)"
    budget_txt = f", budget {budget:.0f}s" if budget else ""
    print(f"\n[acceptance] {name}: {status} ({elapsed:.1f}s{budget_txt})")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its runtime budget"
    if mismatches:
        pytest.fail(
            f"{name}: exact arithmetic disagrees with the published table in "
            f"{len(mismatches)} cell(s):\n  " + "\n  ".join(mismatches),
            pytrace=False,
        )


def test_criterion_1_z_tables():
    t0 = time.time()
    bad = []
    for r, rows in pub.Z_TABLES.items():
        for n, (mb, aspv, gspb) in rows.items():
            got_mb = fl(z.z_mb(n, r))
            got_aspv = fl(z.z_aspv(n, r))
            res = z.z_gspb(n, r)
            got_gspb = fl(res.optimum)
            if got_mb != mb:
                bad.append(f"r={r} n={n} MB: exact floor {got_mb}, table {mb} "
                           f"(exact {z.z_mb(n, r)})")
            if got_aspv != aspv:
                bad.append(f"r={r} n={n} ASPV: exact floor {got_aspv}, table {aspv}")
            if got_gspb != gspb:
                bad.append(f"r={r} n={n} GSPB: exact floor {got_gspb}, table {gspb} "
                           f"(exact ~{float(res.optimum):.6f}, path={res.method})")
    _finish("criterion 1 (z-channel tables, r=1..4, n=5..32)", t0, 5.0, bad)


def test_criterion_2_z_optimality():
    t0 = time.time()
    bad = []
    for r in range(1, 5):
        for n in range(r, 21):
            res = z.z_gspb(n, r)
            lp_opt = exactlp.solve_min_transversal(z.z_quotient_lp(n, r)).optimum
            if res.optimum != lp_opt:
                bad.append(f"n={n} r={r}: closed form {res.optimum} != LP {lp_opt}")
            cert = z.z_optimality_certificate(n, r)
            if cert.status != "optimal-certified":
                bad.append(f"n={n} r={r}: certificate {cert.status}")
    _finish("criterion 2 (z-channel optimality vs quotient LP, n<=20)",
            t0, 30.0, bad)


def test_criterion_3_asym_q3():
    t0 = time.time()
    bad = []
    for n, (mb, aspv, thm, gspb) in pub.ASYM_Q3.items():
        got = (fl(mag.asym_mb(n, 3)), fl(mag.asym_aspv(n, 3)),
               fl(mag.asym_improved_transversal(n, 3).bound),
               fl(mag.asym_gspb(n, 3).optimum))
        for label, g, want in zip(("MB", "ASPV", "CLOSED", "GSPB"), got,
                                  (mb, aspv, thm, gspb)):
            if g != want:
                bad.append(f"n={n} {label}: exact floor {g}, table {want}")
    _finish("criterion 3 (asymmetric magnitude q=3, n=5..14)", t0, 120.0, bad)


def test_criterion_4_sym():
    t0 = time.time()
    bad = []
    for q, table in ((3, pub.SYM_Q3), (4, pub.SYM_Q4)):
        for n, (aspv, thm, gspb) in table.items():
            got = (fl(mag.sym_aspv(n, q)), fl(mag.sym_transversal(n, q).bound),
                   fl(mag.sym_gspb(n, q).optimum))
            for label, g, want in zip(("ASPV", "CLOSED", "GSPB"), got,
                                      (aspv, thm, gspb)):
                if g != want:
                    bad.append(f"q={q} n={n} {label}: exact floor {g}, table {want}")
    _finish("criterion 4 (symmetric magnitude q=3 n<=14, q=4 n<=10)",
            t0, 300.0, bad)


def test_criterion_5_deletion():
    t0 = time.time()
    bad = []
    for n, (mb, aspv, thm, gspb, _lb) in pub.DELETION.items():
        got = (fl(seq.deletion_mb(n)), fl(seq.deletion_aspv(n)),
               fl(seq.deletion_bound(n)))
        for label, g, want in zip(("MB", "ASPV", "CLOSED"), got, (mb, aspv, thm)):
            if g != want:
                bad.append(f"n={n} {label}: exact floor {g}, table {want}")
        if gspb is not None and n <= 12:
            sol = seq.deletion_full_gspb(n)
            if fl(sol.optimum) != gspb:
                bad.append(f"n={n} GSPB: exact floor {fl(sol.optimum)}, "
                           f"table {gspb}")
            if exactlp.check_certificate(seq.deletion_full_lp(n), sol.primal,
                                         sol.dual) != sol.optimum:
                bad.append(f"n={n} GSPB: witnesses fail the exact re-check")
    _finish("criterion 5 (deletion table n=5..23, full LP n=5..12)",
            t0, 1800.0, bad)


def test_criterion_6_grain():
    t0 = time.time()
    bad = []
    for n, (mb, aspv, thm, _lb) in pub.GRAIN.items():
        got_mb = seq.grain_mb(n, even_improvement=True)
        got_aspv = fl(seq.grain_aspv(n))
        got_thm = fl(seq.grain_bound(n))
        exact_thm = seq.grain_bound(n)
        if got_mb != mb:
            bad.append(f"n={n} MB: even-rounded {got_mb}, table {mb}")
        if got_aspv != aspv:
            bad.append(f"n={n} ASPV: exact floor {got_aspv}, table {aspv}")
        if got_thm != thm:
            bad.append(f"n={n} CLOSED: exact floor {got_thm}, table {thm} "
                       f"(exact ~{float(exact_thm):.6f})")
    _finish("criterion 6 (grain table n=5..23)", t0, 10.0, bad)


def _prints_as(value: Fraction, cell: str) -> bool:
    """True when the cell equals the value formatted at the cell's own
    precision under floor, round or ceiling.  The published weight table
    demonstrably mixes all three modes (0.30 truncates 13/42, 0.17 rounds
    1/6, 0.34 is 1/3 rounded upward), so digit identity under some standard
    mode is what "matches the printed value" can mean."""
    if "." not in cell:
        return value == Fraction(cell)
    decimals = len(cell.split(".")[1])
    scale = 10 ** decimals
    scaled = value * scale
    lo = scaled.numerator // scaled.denominator
    candidates = {lo, lo + (0 if scaled == lo else 1),
                  fl(scaled + Fraction(1, 2))}
    return any(Fraction(c, scale) == Fraction(cell) for c in candidates)


def test_criterion_7_projective():
    t0 = time.time()
    bad = []
    for n, (weights, _aspv, gspb) in pub.PROJECTIVE.items():
        res = proj.projective_gspb(n)
        if n == 2:
            # flagged row: the greedy output disagrees with the LP there,
            # but the exact optimum 7/5 still floors to the printed 1
            if fl(res.optimum) != gspb:
                bad.append(f"n=2 GSPB: exact floor {fl(res.optimum)}, table {gspb}")
            if proj.greedy_weights(n).bound() == res.optimum:
                bad.append("n=2: expected the flagged greedy/LP disagreement")
            continue
        if fl(res.optimum) != gspb:
            bad.append(f"n={n} GSPB: exact floor {fl(res.optimum)}, table {gspb}")
        greedy = proj.greedy_weights(n)
        if greedy.bound() != res.optimum:
            bad.append(f"n={n}: greedy bound {greedy.bound()} != LP {res.optimum}")
        gw = greedy.w
        if len(gw) != len(weights):
            bad.append(f"n={n}: weight vector length {len(gw)} vs {len(weights)}")
            continue
        for k, (wk, cell) in enumerate(zip(gw, weights)):
            if not _prints_as(wk, cell):
                bad.append(f"n={n} w_{k}: exact {wk} (~{float(wk):.4f}) does "
                           f"not print as table cell {cell}")
    _finish("criterion 7 (subspace weights and optima, n=2..11)", t0, 10.0, bad)


def test_criterion_8_property_suites():
    t0 = time.time()
    bad = []

    # strong duality holds exactly on every LP the solver certifies
    z_lp, proj_lp = z.z_quotient_lp(12, 2), proj.projective_lp(9)
    solved = [
        (z_lp, exactlp.solve_min_transversal(z_lp)),
        (mag.asym_quotient(6, 3).lp, mag.asym_gspb(6, 3)),
        (mag.sym_quotient(6, 4).lp, mag.sym_gspb(6, 4)),
        (seq.deletion_full_lp(8), seq.deletion_full_gspb(8)),
        (proj_lp, exactlp.solve_min_transversal(proj_lp)),
    ]
    for lp, sol in solved:
        dual_total = sum(sol.dual, Fraction(0))
        if not (exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
                and dual_total == sol.optimum):
            bad.append(f"strong duality violated: {sol.method} {sol.notes}")

    # quotient optimum equals the full-hypergraph optimum (full side within
    # the brute-force oracle cap of 4096 vertices)
    grid = (
        [ChannelSpec("z", n=n, r=r) for n in range(2, 9) for r in (1, 2)] +
        [ChannelSpec("mag_asym", n=n, q=3) for n in range(1, 7)] +
        [ChannelSpec("mag_asym", n=n, q=4) for n in range(1, 6)] +
        [ChannelSpec("mag_sym", n=n, q=3) for n in range(1, 7)] +
        [ChannelSpec("mag_sym", n=n, q=4) for n in range(1, 6)] +
        [ChannelSpec("projective", n=n) for n in range(1, 6)]
    )
    for spec in grid:
        red = exactlp.solve_min_transversal(quotient_matrix(spec).lp)
        full = oracle.brute_force_tau(spec)
        if red.optimum != full:
            bad.append(f"quotient != full for {spec}: {red.optimum} vs {full}")

    # closed-form transversals stay exactly feasible through n = 16
    for n in range(2, 17):
        for r in range(1, min(4, n) + 1):
            rep = exactlp.verify_transversal(z.z_quotient_lp(n, r),
                                             z.z_weights_recursive(n, r).w)
            if not rep.feasible:
                bad.append(f"z weights infeasible at n={n} r={r}")
    for n in range(1, 17):
        for label, quotient, build, q in (
                ("asym", mag.asym_quotient, mag.asym_improved_transversal, 3),
                ("sym q=3", mag.sym_quotient, mag.sym_transversal, 3),
                ("sym q=4", mag.sym_quotient, mag.sym_transversal, 4)):
            t = build(n, q)
            rep = exactlp.verify_transversal(
                quotient(n, q).lp, t.weights)
            if not (rep.feasible and rep.bound == t.bound):
                bad.append(f"{label} transversal infeasible at n={n}")
    for n in range(2, 17):
        if not seq.verify_deletion_transversal(n).feasible:
            bad.append(f"deletion profile weights infeasible at n={n}")
    for n in range(1, 17):
        if not seq.verify_grain_transversal(n).feasible:
            bad.append(f"grain profile weights infeasible at n={n}")
    for n in range(3, 17):
        w = proj.greedy_weights(n)
        rep = exactlp.verify_transversal(proj.projective_lp(n), w.w)
        if not rep.feasible:
            bad.append(f"greedy subspace weights infeasible at n={n}")

    # profile counts partition the word space
    for n in range(1, 17):
        total = sum(seq.count_profiles(n, rho, mu)
                    for rho in range(1, n + 1)
                    for mu in range(0, max(rho - 1, 1)))
        if total != 1 << n:
            bad.append(f"profile counts sum to {total} != 2^{n}")

    # companion sequence growth bound
    for r in range(1, 21):
        vals = z.d_sequence(r, 201)
        for m, dm in enumerate(vals):
            if abs(dm) > (2 * r) ** (m - r + 1):
                bad.append(f"companion bound fails at r={r} m={m}")

    # the two weight formulas agree
    for r in range(1, 7):
        for n in range(r, 41):
            if z.z_weights_explicit(n, r).w != z.z_weights_recursive(n, r).w:
                bad.append(f"weight formulas disagree at n={n} r={r}")
    _finish("criterion 8 (property suites)", t0, None, bad)


def test_criterion_9_counterexamples():
    t0 = time.time()
    bad = []
    facts = {f.name: f for f in oracle.counterexample_suite()}
    ex2 = facts["example2"]
    if not (ex2.tau_star == 1 and ex2.naive_packing_value == 3):
        bad.append(f"example2: optimum {ex2.tau_star}, naive {ex2.naive_packing_value}")
    ex3 = facts["example3"]
    if not (ex3.max_code == 4 and ex3.aspv == Fraction(25, 9)
            and ex3.max_code > ex3.aspv):
        bad.append(f"example3: code {ex3.max_code}, ASPV {ex3.aspv}")
    ex4 = facts["example4"]
    if not (ex4.max_code >= 3 and ex4.aspv == Fraction(27, 17)
            and ex4.max_code > ex4.aspv):
        bad.append(f"example4: code {ex4.max_code}, ASPV {ex4.aspv}")
    _finish("criterion 9 (counterexample fixtures)", t0, 1.0, bad)
