import dataclasses
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from gspb import channels as ch
from gspb import exactlp, linsolve, magnitude, projective, reduction, seqchannels, zchannel


def hypergraph_lp(spec):
    """The ball hypergraph's covering LP built row by row from ``out_ball``:
    row i the sorted ids of the members of the ball of ball center i."""
    index = {v: i for i, v in enumerate(ch.enumerate_vertices(spec))}
    balls = [sorted(index[y] for y in ch.out_ball(spec, c)) for c in ch.ball_centers(spec)]
    return exactlp.CoveringLP.from_rows([1] * len(index),
                                        [[(j, 1) for j in ball] for ball in balls])


BALL_SPECS = [ch.ChannelSpec("z", n=4), ch.ChannelSpec("grain", n=5),
              ch.ChannelSpec("deletion", n=5), ch.ChannelSpec("mag_asym", n=3, q=3),
              ch.ChannelSpec("mag_sym", n=3, q=4), ch.ChannelSpec("projective", n=4),
              ch.example_two(), ch.example_three(), ch.example_four()]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("spec", BALL_SPECS, ids=lambda s: f"{s.family}-{s.n}")
def test_full_hypergraph_lp_is_the_ball_enumeration(spec, r):
    # the one enumeration of the ball hypergraph, against rows listed from
    # out_ball; deletion balls exist at radius 1 only, and both refuse r=2
    spec = dataclasses.replace(spec, r=r)
    if spec.family == "deletion" and r == 2:
        for build in (reduction.full_hypergraph_lp, hypergraph_lp):
            with pytest.raises(ch.GspbError, match="cover radius 1 only"):
                build(spec)
        return
    lp, want = reduction.full_hypergraph_lp(spec), hypergraph_lp(spec)
    assert lp.objective == want.objective
    assert lp.name == f"full-{spec.family}-n{spec.n}"
    for name in ("indptr", "indices", "data"):
        got, expect = getattr(lp, name), getattr(want, name)
        assert got.dtype == expect.dtype == np.int64 and np.array_equal(got, expect), name


def singleton_lp(n):
    return exactlp.CoveringLP.from_rows([1] * n, [[(j, 1)] for j in range(n)])


def _solve_square(matrix):
    """x with matrix x = 1 by Gauss-Jordan elimination in Fractions, or None
    when the matrix is singular."""
    k = len(matrix)
    aug = [[Fraction(a) for a in row] + [Fraction(1)] for row in matrix]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [v - f * pv for v, pv in zip(aug[r], aug[col])]
    return [row[k] for row in aug]


def brute_force_optimum(lp):
    """Reference optimum by vertex enumeration, independent of exactlp.

    A vertex of {w >= 0, A w >= 1} is zero off a support S and makes |S|
    rows R tight, so it solves A[R,S] w_S = 1.  Every such square system is
    solved exactly; the least objective over the feasible solutions is the
    optimum, since the region has no lines and c >= 0.
    """
    assert lp.num_vars <= 5 and lp.num_rows <= 6
    dense = [[0] * lp.num_vars for _ in lp.rows]
    for i, row in enumerate(lp.rows):
        for j, a in row:
            dense[i][j] = a
    best = None
    for k in range(1, lp.num_vars + 1):
        for cols in combinations(range(lp.num_vars), k):
            for rows in combinations(range(lp.num_rows), k):
                x = _solve_square([[dense[i][j] for j in cols] for i in rows])
                if x is None or min(x) < 0:
                    continue
                w = [Fraction(0)] * lp.num_vars
                for j, v in zip(cols, x):
                    w[j] = v
                if all(sum(a * w[j] for j, a in row) >= 1 for row in lp.rows):
                    value = sum(c * v for c, v in zip(lp.objective, w))
                    best = value if best is None else min(best, value)
    return best


def test_example2_optimum_one():
    lp = hypergraph_lp(ch.example_two())
    sol = exactlp.solve_min_transversal(lp)
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    assert sol.optimum == 1
    assert sol.primal[0] == 1 and all(v == 0 for v in sol.primal[1:])


def test_z2_optimum_two():
    sol = exactlp.solve_min_transversal(hypergraph_lp(ch.ChannelSpec("z", n=2)))
    assert sol.optimum == 2


def test_singleton_balls():
    for n in (1, 4, 9):
        sol = exactlp.solve_min_transversal(singleton_lp(n))
        assert sol.optimum == n
        assert sum(sol.dual) == n


def test_matching_duality():
    # the packing optimum sum(z) equals the covering optimum exactly
    for spec, optimum in ((ch.example_two(), 1), (ch.ChannelSpec("z", n=2), 2)):
        sol = exactlp.solve_min_transversal(hypergraph_lp(spec))
        assert sum(sol.dual) == sol.optimum == optimum


def test_verify_transversal_z2():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=2))
    # vertices in order 00,01,10,11; weights 1,1/2,1/2,0
    rep = exactlp.verify_transversal(lp, [1, Fraction(1, 2), Fraction(1, 2), 0])
    assert rep.feasible and rep.bound == 2
    assert rep.tight_rows == [0, 3] and rep.min_slack == 0 and rep.scale == 2
    rep0 = exactlp.verify_transversal(lp, [0, 0, 0, 0])
    assert not rep0.feasible
    assert rep0.num_violated == 4 and rep0.min_slack == -1 and not rep0.tight_rows


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError):
        exactlp.verify_transversal(singleton_lp(3), [1, 1])


def test_float_presolve_singleton():
    pres = exactlp.float_presolve(singleton_lp(7))
    assert pres.converged and abs(pres.value - 7) < 1e-9


def test_float_presolve_z10_quotient():
    from gspb import zchannel
    lp = zchannel.z_quotient_lp(10, 1)
    pres = exactlp.float_presolve(lp)
    exact = exactlp.solve_min_transversal(lp).optimum
    assert pres.converged
    assert abs(pres.value - float(exact)) < 1e-9
    assert exact.numerator // exact.denominator == 159


def test_float_presolve_deletion10_floor():
    from gspb import seqchannels
    lp = seqchannels.deletion_full_lp(10)
    pres = exactlp.float_presolve(lp)
    assert pres.converged and int(pres.value + 1e-9) == 96
    # the covering value c.w read off the packing LP's duals meets sum(z)
    covering = sum(c * w for c, w in zip(lp.objective, pres.primal))
    assert abs(covering - sum(pres.dual)) < 1e-6


def linprog_presolve(lp, simplex):
    """(value, primal, dual) of the packing LP by scipy's ``linprog``, with
    HiGHS's presolve off, from the same float64 matrix: the reference for
    ``float_presolve``, which builds the HiGHS model itself."""
    from scipy.optimize import linprog

    At = csr_matrix((lp.data, lp.indices, lp.indptr), shape=lp.shape).T
    res = linprog(-np.ones(lp.num_rows), A_ub=At.astype(np.float64),
                  b_ub=np.array(lp.objective, dtype=np.float64), bounds=(0, None),
                  method="highs-ds" if simplex else "highs-ipm",
                  options={"presolve": False})
    assert res.success, res.message
    return -float(res.fun), (-res.ineqlin.marginals).tolist(), res.x.tolist()


@pytest.mark.parametrize("build,simplex", [
    (lambda mp: singleton_lp(7), False),
    (lambda mp: singleton_lp(7), True),
    (lambda mp: zchannel.z_quotient_lp(10, 1), False),
    (lambda mp: zchannel.z_quotient_lp(10, 1), True),
    (lambda mp: orbit_quotient(mp, "deletion", 10), False),
    (lambda mp: magnitude.asym_quotient(8, 4).lp, True),
], ids=["singleton-7-ipm", "singleton-7-simplex", "z-10-ipm", "z-10-simplex",
        "deletion-10-orbit-ipm", "mag-asym-q4-n8-simplex"])
def test_float_presolve_matches_linprog(monkeypatch, build, simplex):
    # the model handed to HiGHS directly is linprog's, so the float vertex,
    # and with it every support and basis the crossover reads, is the same
    # bit for bit
    lp = build(monkeypatch)
    pres = exactlp.float_presolve(lp, simplex=simplex)
    assert pres.converged
    assert (pres.value, pres.primal, pres.dual) == linprog_presolve(lp, simplex)


def test_float_presolve_refuses_a_coefficient_past_int64(highs_solvers):
    # the float64 copy HiGHS reads would round 2^70 + 1 silently, so the LP
    # is refused before any HiGHS model is set up
    lp = exactlp.CoveringLP.from_rows([1], [[(0, 2**70 + 1)]], name="wide")
    with pytest.raises(ch.GspbError, match="'wide' has a 71-bit coefficient"):
        exactlp.float_presolve(lp)
    assert not highs_solvers


def test_crossover_matches_closed_form():
    # the full z n=6 LP against the independent closed-form z optimum
    lp = hypergraph_lp(ch.ChannelSpec("z", n=6))
    sol = exactlp.solve_min_transversal(lp)
    assert sol.method == "presolve+crossover"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    closed = zchannel.z_gspb(6, 1)
    assert closed.method == "closed-form" and sol.optimum == closed.optimum


def test_crossover_deletion_small():
    lp = hypergraph_lp(ch.ChannelSpec("deletion", n=6))
    sol = exactlp.solve_min_transversal(lp)
    assert sol.method == "presolve+crossover"
    assert sol.optimum == Fraction(41, 4)  # floor 10


# one quotient LP per family with its optimum, pinned from an exact tableau
# simplex that agreed with the crossover on each
QUOTIENT_LPS = {
    "asym_quotient(5,4)": (lambda: magnitude.asym_quotient(5, 4).lp,
                           Fraction(29576353, 138600)),
    "sym_quotient(7,5)": (lambda: magnitude.sym_quotient(7, 5).lp,
                          Fraction(35972164434, 5539393)),
    "z_quotient_lp(12,2)": (lambda: zchannel.z_quotient_lp(12, 2),
                            Fraction(1917151, 13860)),
    "projective_lp(6)": (lambda: projective.projective_lp(6), Fraction(132)),
}


@pytest.mark.parametrize("build", ["deletion_full_lp", "grain_full_lp", *QUOTIENT_LPS])
def test_auto_certifies_full_lps_by_crossover(build):
    # every LP, however small, is certified by the crossover
    if build in QUOTIENT_LPS:
        make, optimum = QUOTIENT_LPS[build]
        lp = make()
    else:
        lp, optimum = getattr(seqchannels, build)(9), None
    sol = exactlp.solve_min_transversal(lp)
    assert sol.method == "presolve+crossover"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    assert optimum is None or sol.optimum == optimum


def test_failed_solve_raises(monkeypatch):
    # certified or raised: a failed stage is a GspbError naming it, exit 3
    from gspb import cli
    lp = hypergraph_lp(ch.ChannelSpec("z", n=4))
    with monkeypatch.context() as m:
        m.setattr(exactlp, "float_presolve", lambda lp, **kwargs: exactlp.PresolveResult(
            False, None, None, None, "forced failure"))
        with pytest.raises(ch.GspbError, match="forced failure"):
            exactlp.solve_min_transversal(lp)
        assert cli.main(["compute", "--family", "grain", "--n", "10",
                         "--bound", "gspb"]) == 3
    monkeypatch.setattr(exactlp, "_support_solve", lambda *args: None)
    with pytest.raises(ch.GspbError, match="crossover"):
        exactlp.solve_min_transversal(lp)


def test_non_integer_data_refused(monkeypatch):
    # validate is the one integer check; the CLI reports it as usage, exit 2
    from gspb import cli, oracle
    lp = hypergraph_lp(ch.ChannelSpec("z", n=3))
    lp.objective[2] = Fraction(5, 3)
    with pytest.raises(ValueError, match="integers"):
        exactlp.solve_min_transversal(lp)
    monkeypatch.setattr(oracle, "full_hypergraph_lp", lambda spec: lp)
    assert cli.main(["oracle", "--family", "z", "--n", "3"]) == 2
    row_lp = exactlp.CoveringLP.from_rows([1, 2], [[(0, 1)], [(0, 1), (1, 0.5)]])
    with pytest.raises(ValueError, match="coefficient 0.5"):
        row_lp.validate()


def test_zero_coefficient_refused(monkeypatch):
    # a zero coefficient would leave the packing LP unbounded in its variable
    from gspb import cli, oracle
    lp = exactlp.CoveringLP.from_rows([1, 2], [[(0, 1)], [(0, 1), (1, 0)]])
    with pytest.raises(ValueError, match="row 1 has coefficient 0, not an int > 0"):
        lp.validate()
    monkeypatch.setattr(oracle, "full_hypergraph_lp", lambda spec: lp)
    assert cli.main(["oracle", "--family", "z", "--n", "3"]) == 2


def test_first_non_positive_coefficient_named_for_either_dtype():
    # int64 data takes one numpy test, object data the per-entry loop; both
    # name the first bad coefficient
    lp = exactlp.CoveringLP.from_rows([1, 1], [[(0, 1)], [(0, 2), (1, -3)], [(1, 0)]])
    assert lp.data.dtype == np.int64
    for data in (lp.data, lp.data.astype(object)):
        with pytest.raises(ValueError,
                           match=r"^row 1 has coefficient -3, not an int > 0$"):
            dataclasses.replace(lp, data=data).validate()


def test_int64_data_only_below_magnitude_2_63():
    # -2^63 fits int64 but its abs does not, so it is kept as a Python int
    # and the magnitude bounds taken of the data stay exact
    for a, dtype in [(-(2**63) + 1, np.int64), (-(2**63), object), (2**63, object)]:
        lp = exactlp.CoveringLP.from_rows([1], [[(0, a)]])
        assert lp.data.dtype == dtype and lp.data.tolist() == [a]


def test_out_of_range_variable_names_its_row():
    # the row of a bad entry is looked up only when there is one to report
    lp = exactlp.CoveringLP.from_rows([1, 1], [[(0, 1)], [(1, 1), (0, 1)],
                                               [(0, 1), (1, 1)]])
    lp.validate()
    for t, var, row in ((4, 5, 2), (3, -1, 2), (1, 2, 1), (0, 7, 0)):
        indices = lp.indices.copy()
        indices[t] = var
        with pytest.raises(ValueError, match=rf"^row {row} references variable {var}$"):
            dataclasses.replace(lp, indices=indices).validate()


@pytest.mark.parametrize("build", [lambda: zchannel.z_quotient_lp(80, 1),
                                   lambda: projective.projective_lp(20)],
                         ids=["z-80", "projective-20"])
def test_presolve_failure_names_no_false_cause(build):
    # both packing LPs are bounded; HiGHS fails on them numerically, by its
    # interior point and by its dual simplex, and says "unbounded", which
    # the refusal must not repeat
    for simplex in (False, True):
        with pytest.raises(ch.GspbError, match="HiGHS status") as caught:
            exactlp.solve_min_transversal(build(), simplex=simplex)
        assert "unbounded" not in str(caught.value).lower()
        assert "packing LP is bounded" in str(caught.value)


def test_scaling_exactness():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=4))
    base = exactlp.solve_min_transversal(lp)
    lam = 7
    scaled = exactlp.CoveringLP.from_rows([lam * c for c in lp.objective], lp.rows)
    assert exactlp.solve_min_transversal(scaled).optimum == lam * base.optimum


def test_determinism():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=5))
    a = exactlp.solve_min_transversal(lp)
    b = exactlp.solve_min_transversal(lp)
    assert a.primal == b.primal and a.dual == b.dual


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_strong_duality_random_covers(data):
    nv = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        members = data.draw(st.sets(st.integers(0, nv - 1), min_size=1, max_size=nv))
        rows.append([(j, data.draw(st.integers(1, 3))) for j in sorted(members)])
    obj = [data.draw(st.integers(0, 5)) for _ in range(nv)]
    lp = exactlp.CoveringLP.from_rows(obj, rows)
    sol = exactlp.solve_min_transversal(lp)
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    assert sol.optimum == brute_force_optimum(lp)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.data())
def test_rational_reconstruction_roundtrip(den, data):
    num = data.draw(st.integers(-40, 40))
    f = Fraction(num, den)
    m = 2**89 - 1
    a = (f.numerator * pow(f.denominator, -1, m)) % m
    assert linsolve.rational_reconstruct(a, m) == f


def test_dixon_small_system():
    matrix = csr_matrix([[2, 1], [1, 3]], dtype=np.int64)
    inv = linsolve.select_pivots_mod(matrix.toarray())[2]
    x = linsolve.dixon_solve(matrix, 2, inv, [5, 7])
    assert x == [Fraction(8, 5), Fraction(9, 5)]


def test_singular_system_selects_rank_below_k():
    # a singular system never reaches dixon_solve: its selection is smaller
    rows, cols, inv = linsolve.select_pivots_mod(np.array([[1, 2], [2, 4]]))
    assert (rows, cols, inv.tolist()) == ([0], [0], [[1]])


def test_optimum_zero_certifies_by_crossover():
    # the float dual is all zero; the dual support solve returns z = 0
    lp = exactlp.CoveringLP.from_rows([0, 1], [[(0, 1)], [(0, 1), (1, 1)]])
    sol = exactlp.solve_min_transversal(lp)
    assert sol.optimum == 0 and sol.method == "presolve+crossover"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == 0


def test_support_is_read_relative_to_the_largest_weight():
    # the optimal weight 1e-8 lies below any absolute support threshold
    lp = exactlp.CoveringLP.from_rows([1], [[(0, 10**8)]])
    sol = exactlp.solve_min_transversal(lp)
    assert sol.optimum == Fraction(1, 10**8) and sol.method == "presolve+crossover"
    assert sol.primal == sol.dual == [Fraction(1, 10**8)]


def orbit_quotient(monkeypatch, family, n):
    """The orbit quotient LP that seqchannels hands to the solver, unsolved."""
    captured = []

    def capture(lp):
        captured.append(lp)
        raise ch.GspbError("captured")

    route = (seqchannels.deletion_full_gspb if family == "deletion"
             else seqchannels.grain_full_gspb)
    with monkeypatch.context() as m:
        m.setattr(exactlp, "solve_min_transversal", capture)
        with pytest.raises(ch.GspbError, match="captured"):
            route(n)
    return captured[0]


def test_random_covers_take_no_fallback(monkeypatch):
    # every cover, optimum 0 included, certifies by the crossover
    rng = random.Random(1)
    for _ in range(400):
        nv = rng.randint(1, 5)
        rows = [[(j, rng.randint(1, 3))
                 for j in sorted(rng.sample(range(nv), rng.randint(1, nv)))]
                for _ in range(rng.randint(1, 6))]
        lp = exactlp.CoveringLP.from_rows([rng.randint(0, 5) for _ in range(nv)], rows)
        sol = exactlp.solve_min_transversal(lp)
        assert sol.method == "presolve+crossover", lp
        assert sol.optimum == brute_force_optimum(lp), lp
    # the orbit quotients certify on the basis of HiGHS's packing-form
    # vertex, with no support solve
    quotients = [orbit_quotient(monkeypatch, family, n)
                 for family, ns in (("deletion", (9, 10, 11)), ("grain", (9, 10)))
                 for n in ns]
    support_solves = []
    real = exactlp._support_solve
    monkeypatch.setattr(exactlp, "_support_solve",
                        lambda *args: support_solves.append(args) or real(*args))
    for lp in quotients:
        sol = exactlp.solve_min_transversal(lp)
        assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
        assert not support_solves, lp.name


def test_degenerate_vertex_falls_back_to_two_support_solves(monkeypatch):
    # one of the random covers above: w = (0, 0, 1, 0) is degenerate (one
    # variable, two tight rows), so the dual lifted on the primal's basis
    # overfills a column; the dual and primal support solves then certify
    lp = exactlp.CoveringLP.from_rows([3, 3, 4, 5], [[(0, 1), (2, 1)], [(2, 1), (3, 3)]])
    calls = {"check_certificate": [], "select_pivots_mod": [], "_support_solve": []}
    for mod, name in ((exactlp, "check_certificate"), (linsolve, "select_pivots_mod"),
                      (exactlp, "_support_solve")):
        def spy(*args, real=getattr(mod, name), log=calls[name]):
            log.append(real(*args))
            return log[-1]
        monkeypatch.setattr(mod, name, spy)
    sol = exactlp.solve_min_transversal(lp)
    assert calls["check_certificate"] == [None, 4]
    # the float basis takes no selection; each support solve takes one
    assert len(calls["_support_solve"]) == 2
    assert len(calls["select_pivots_mod"]) == 2
    assert sol.optimum == brute_force_optimum(lp) == 4
    assert sol.notes == "supports 1/2, support solves (pair not certified)"


def test_singular_float_basis_falls_back_to_the_support_solves(monkeypatch):
    # an optimal point that is no vertex: w = (1/2, 1/2) makes both equal
    # rows tight, so the square block [[1, 1], [1, 1]] is singular.  The
    # float LU stops at its zero pivot and the support solves certify
    lp = exactlp.CoveringLP.from_rows([1, 1], [[(0, 1), (1, 1)]] * 2)
    monkeypatch.setattr(exactlp, "float_presolve", lambda lp, **kwargs: exactlp.PresolveResult(
        True, 1.0, [0.5, 0.5], [0.5, 0.5]))
    lifts = []
    real = linsolve.refine_solve
    monkeypatch.setattr(linsolve, "refine_solve",
                        lambda *args: lifts.append(real(*args)) or lifts[-1])
    sol = exactlp.solve_min_transversal(lp)
    assert lifts == [None]
    assert sol.optimum == 1 and sol.notes.endswith("support solves (float lift failed)")
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == 1


def test_tall_basis_certifies_on_the_pivoted_rows(monkeypatch):
    # mag-asym q=4 n=8: 154 tight rows over a support of 153.  The top 153
    # rows by float dual are a singular block; the rows LAPACK's pivoting
    # picks certify, with no support solve
    lp = magnitude.asym_quotient(8, 4).lp
    blocks, support_solves = [], []
    real_basis = linsolve.float_basis
    monkeypatch.setattr(linsolve, "float_basis",
                        lambda sub: blocks.append(sub) or real_basis(sub))
    monkeypatch.setattr(exactlp, "_support_solve",
                        lambda *args: support_solves.append(args))
    sol = exactlp.solve_min_transversal(lp)
    assert [b.shape for b in blocks] == [(154, 153)] and not support_solves
    assert sol.notes == "supports 153/151, float basis"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    top = linsolve.dense(blocks[0], np.int64)[:153]
    assert len(linsolve.select_pivots_mod(top)[1]) < 153


def _tall_mag_asym_block():
    """The 154 x 153 tight block of the mag-asym q=4 n=8 crossover."""
    blocks = []
    real_basis = linsolve.float_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "float_basis",
                   lambda sub: blocks.append(sub) or real_basis(sub))
        exactlp.solve_min_transversal(magnitude.asym_quotient(8, 4).lp)
    return blocks[0]


def test_tall_block_takes_one_factorisation(monkeypatch):
    # the pivoting of one getrf of the tall block picks the rows that
    # scipy.linalg.lu puts first, and its top factors are the basis's LU
    import scipy.linalg
    rng = np.random.default_rng(7)
    blocks = [csr_matrix(rng.integers(-3, 4, (7, 5))) for _ in range(20)]
    blocks.append(_tall_mag_asym_block())
    calls = []
    lapack = linsolve.scipy_extension("scipy.linalg._flapack")
    real = lapack.dgetrf
    monkeypatch.setattr(lapack, "dgetrf",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for block in blocks:
        m, k = block.shape
        calls.clear()
        rows, (lu, piv) = linsolve.float_basis(block)
        assert len(calls) == 1 and len(rows) == k
        dense = linsolve.dense(block, np.float64)
        perm = scipy.linalg.lu(dense, p_indices=True)[0]
        assert sorted(rows) == np.flatnonzero(perm < k).tolist()
        assert piv.tolist() == list(range(k))
        lower = np.tril(lu, -1) + np.eye(k)
        assert np.allclose(lower @ np.triu(lu), dense[rows])
    assert linsolve.float_basis(blocks[0][:4]) is None


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), "1/2"],
                         ids=["float", "numpy-float", "str"])
def test_non_rational_witness_entries_refused(bad):
    # a typed refusal naming the first entry that is not an int or Fraction
    lp = singleton_lp(3)
    w = [Fraction(1, 2), bad, 0.25]
    message = rf"^weight vector entry 1 is {re.escape(repr(bad))}, not an int or Fraction$"
    with pytest.raises(ValueError, match=message):
        exactlp.verify_transversal(lp, w)
    with pytest.raises(ValueError, match="weight vector entry 1"):
        exactlp.check_certificate(lp, w, [1, 1, 1])
    with pytest.raises(ValueError, match="dual vector entry 1"):
        exactlp.check_certificate(lp, [1, 1, 1], w)
    # numpy ints and bools are ints
    assert exactlp.verify_transversal(lp, [np.int64(1), True, 1]).bound == 3
    assert exactlp.check_certificate(lp, [1, True, np.int32(1)],
                                     [np.int64(1), 1, True]) == 3


def test_projective_16_lifts_past_int64():
    # objective entries up to 2^66 and coefficients up to 2^16: the dual
    # residual starts in Python ints, and the float lift certifies it
    lp = projective.projective_lp(16)
    assert max(lp.objective) >= 1 << 63
    sol = exactlp.solve_min_transversal(lp)
    assert sol.notes.endswith("float basis")
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum


def small_lp(scale=1):
    # min w0 + 2 w1  s.t.  w0 >= 1,  w0 + w1 >= 1;  optimum 1.  Scaling A
    # and c by an integer scales the feasible w by its inverse and keeps z.
    return exactlp.CoveringLP.from_rows([scale, 2 * scale],
                                        [[(0, scale)], [(0, scale), (1, scale)]])


def test_check_certificate_accepts_optimal_pair():
    assert exactlp.check_certificate(small_lp(), [1, 0], [1, 0]) == 1
    assert exactlp.check_certificate(small_lp(2), [Fraction(1, 2), 0], [1, 0]) == 1


# each pair fails exactly one condition of check_certificate
@pytest.mark.parametrize("w, z", [
    ([2, -1], [0, 0]),                              # negative w
    ([Fraction(1, 2), 0], [Fraction(1, 2), 0]),     # row 0 short
    ([1, 0], [2, -1]),                              # negative z
    ([1, 1], [3, 0]),                               # column 0 over-full
    ([1, 1], [1, 0]),                               # c.w = 3 != sum(z) = 1
], ids=["negative-w", "short-row", "negative-z", "overfull-column", "objectives"])
@pytest.mark.parametrize("coeffs", ["int", "doubled"])
def test_check_certificate_rejects(w, z, coeffs):
    scale = 2 if coeffs == "doubled" else 1
    lp = small_lp(scale)
    assert exactlp.check_certificate(lp, [Fraction(x, scale) for x in w], z) is None


def test_check_certificate_survives_optimize_flag():
    code = (
        "from gspb import exactlp\n"
        "lp = exactlp.CoveringLP.from_rows([1, 2], [[(0, 1)], [(0, 1), (1, 1)]])\n"
        "print(__debug__, exactlp.check_certificate(lp, [1, 0], [1, 0]),\n"
        "      exactlp.check_certificate(lp, [1, 0], [2, -1]))\n"
    )
    src = Path(exactlp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False", "1", "None"]


@pytest.mark.parametrize("solve", [
    lambda: (zchannel.z_quotient_lp(70, 35), zchannel.z_gspb(70, 35)),
    lambda: (zchannel.z_quotient_lp(32, 1), zchannel.z_gspb(32, 1)),
    lambda: (magnitude.sym_quotient(7, 5).lp,
             exactlp.solve_min_transversal(magnitude.sym_quotient(7, 5).lp)),
    lambda: (seqchannels.deletion_full_lp(9), seqchannels.deletion_full_gspb(9)),
], ids=["z-70-35", "z-32-1", "mag-sym-7-5", "deletion-9"])
def test_check_certificate_rejects_a_numerator_moved_by_one(solve):
    # a certified pair fails once one numerator, over the common denominator,
    # of a tight row's dual or of a weight in a tight row moves by 1; z 70/35
    # has coefficients past int64, where a float product would miss it
    lp, sol = solve()
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    for vector, side in ((sol.dual, "dual"), (sol.primal, "primal")):
        d = math.lcm(*(Fraction(v).denominator for v in vector))
        at = next(i for i, v in enumerate(vector) if v > 0)
        for delta in (1, -1):
            moved = list(vector)
            moved[at] = Fraction(Fraction(vector[at]) * d + delta, d)
            pair = (moved, sol.dual) if side == "primal" else (sol.primal, moved)
            assert exactlp.check_certificate(lp, *pair) is None, (side, delta)


def _as_scaled(values, factor):
    """values as a Scaled whose scale is ``factor`` times the LCM of their
    denominators."""
    d = factor * math.lcm(*(x.denominator for x in values))
    return exactlp.Scaled(linsolve.int_array([int(x * d) for x in values]), d)


def _fields(rep):
    return (rep.feasible, rep.bound, rep.min_slack, rep.num_violated,
            rep.violated_rows, rep.tight_rows, rep.negative_entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scaled_witnesses_match_fraction_witnesses(data):
    # factor 1 is the LCM; 6 is not; 2^70 puts the numerators past int64
    nv, nr = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    rows = [sorted(data.draw(st.dictionaries(st.integers(0, nv - 1),
                                             st.integers(1, 3), min_size=1)).items())
            for _ in range(nr)]
    lp = exactlp.CoveringLP.from_rows(data.draw(st.lists(st.integers(0, 4),
                                                         min_size=nv, max_size=nv)),
                                      rows)
    frac = st.fractions(min_value=-1, max_value=2, max_denominator=12)
    w = data.draw(st.lists(frac, min_size=nv, max_size=nv))
    z = data.draw(st.lists(frac, min_size=nr, max_size=nr))
    sol = exactlp.solve_min_transversal(lp)
    for factor in (1, 6, 1 << 70):
        sw = _as_scaled(w, factor)
        assert _fields(exactlp.verify_transversal(lp, sw)) == \
            _fields(exactlp.verify_transversal(lp, w))
        assert exactlp.check_certificate(lp, sw, _as_scaled(z, factor)) == \
            exactlp.check_certificate(lp, w, z)
        assert exactlp.check_certificate(lp, _as_scaled(sol.primal, factor),
                                         _as_scaled(sol.dual, factor)) == sol.optimum


def test_scaled_witness_past_int64_and_refusals():
    lp = singleton_lp(3)
    big = exactlp.Scaled(linsolve.int_array([1 << 70, 1 << 71, -(1 << 70)]), 1 << 70)
    assert big.numer.dtype == object
    rep = exactlp.verify_transversal(lp, big)
    assert not rep.feasible and rep.num_violated == 1 and rep.violated_rows == [2]
    assert rep.negative_entries == [2] and rep.tight_rows == [0]
    assert rep.min_slack == -2 and rep.scale == 1 << 70
    assert exactlp.check_certificate(lp, big, [0, 0, 0]) is None
    numer = linsolve.int_array([2, 2, 2])
    assert exactlp.verify_transversal(lp, exactlp.Scaled(numer, 2)).bound == 3
    for bad in (exactlp.Scaled(numer, 0), exactlp.Scaled(numer, -2),
                exactlp.Scaled(numer[:2], 2), exactlp.Scaled([2, 2, 2], 2)):
        with pytest.raises(ValueError):
            exactlp.verify_transversal(lp, bad)
        with pytest.raises(ValueError):
            exactlp.check_certificate(lp, bad, [1, 1, 1])


def _split(lp, bounds):
    """``lp`` as a RowBlocks whose block i holds rows bounds[i] to
    bounds[i+1] - 1, cut from its CSR arrays."""
    def build(start, stop):
        s, e = lp.indptr[start], lp.indptr[stop]
        return exactlp.CoveringLP(lp.objective, lp.indptr[start:stop + 1] - s,
                                  lp.indices[s:e], lp.data[s:e], lp.name)
    return exactlp.RowBlocks(lp.objective, bounds, build, lp.name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_blocks_give_the_one_block_results(data):
    # any cut into blocks, empty ones included, gives every report field,
    # with the LP's own row ids, and every certificate verdict of the whole LP
    nv, nr = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    rows = [sorted(data.draw(st.dictionaries(st.integers(0, nv - 1),
                                             st.integers(1, 3), min_size=1)).items())
            for _ in range(nr)]
    lp = exactlp.CoveringLP.from_rows(data.draw(st.lists(st.integers(0, 4),
                                                         min_size=nv, max_size=nv)),
                                      rows)
    cuts = sorted(data.draw(st.lists(st.integers(0, nr), max_size=4)))
    blocks = _split(lp, [0, *cuts, nr])
    frac = st.fractions(min_value=-1, max_value=2, max_denominator=12)
    w = data.draw(st.lists(frac, min_size=nv, max_size=nv))
    z = data.draw(st.lists(frac, min_size=nr, max_size=nr))
    sol = exactlp.solve_min_transversal(lp)
    rep, want = exactlp.verify_transversal(blocks, w), exactlp.verify_transversal(lp, w)
    assert _fields(rep) == _fields(want) and rep.scale == want.scale
    assert exactlp.check_certificate(blocks, w, z) == exactlp.check_certificate(lp, w, z)
    assert exactlp.check_certificate(blocks, sol.primal, sol.dual) == sol.optimum


def test_column_sums_past_int64_across_blocks_are_refused():
    # each block's A^T z fits int64 (3 * 2^61 per column), their sum 3 * 2^62
    # does not: wrapped in int64 it would read negative and pass c_0 below it
    big = 3 << 61
    lp = exactlp.CoveringLP.from_rows([2 * big - 1, 2 * big],
                                      [[(0, 1), (1, 1)], [(0, 1), (1, 1)]])
    blocks = _split(lp, [0, 1, 2])
    # w = (0, 1) is feasible with c.w = 2 big = sum(z), but column 0 is over
    assert exactlp.check_certificate(lp, [0, 1], [big, big]) is None
    assert exactlp.check_certificate(blocks, [0, 1], [big, big]) is None
    ok = exactlp.CoveringLP.from_rows([2 * big, 2 * big], lp.rows)
    assert exactlp.check_certificate(_split(ok, [0, 1, 2]), [0, 1], [big, big]) == 2 * big


def test_column_sums_past_int64_across_unit_target_blocks_are_refused():
    # the same LP as above in unit-target blocks: each block's in-degree is
    # 1, so its A^T z is int64 (3 * 2^61 per column), and their sum is not
    big = 3 << 61
    unit = np.array([[0], [1]])

    def blocks(objective):
        return exactlp.RowBlocks(objective, [0, 1, 2],
                                 lambda start, stop: exactlp.UnitTargets(unit, 2))

    assert linsolve.exact_product(exactlp.UnitTargets(unit, 2), [big],
                                  transpose=True).dtype == np.int64
    assert exactlp.check_certificate(blocks([2 * big - 1, 2 * big]), [0, 1],
                                     [big, big]) is None
    assert exactlp.check_certificate(blocks([2 * big, 2 * big]), [0, 1],
                                     [big, big]) == 2 * big


def test_unit_targets_refuse_entries_that_are_not_ids():
    exactlp.UnitTargets(np.array([[0, -1], [2, 1]]), 3)
    exactlp.UnitTargets(np.zeros((2, 0), dtype=np.int32), 3)
    for bad in (np.array([[0, -2]]), np.array([[0, 3]]), np.array([0, 1])):
        with pytest.raises(ValueError, match="not -1 or ids of 3 variables"):
            exactlp.UnitTargets(bad, 3)


def test_row_blocks_refuse_a_block_of_the_wrong_shape():
    lp = singleton_lp(4)
    blocks = exactlp.RowBlocks(lp.objective, [0, 2, 4], lambda start, stop: lp, "bad")
    assert len(blocks) == 2 and blocks.shape == (4, 4)
    with pytest.raises(ValueError, match="block 0 of 'bad' is"):
        exactlp.verify_transversal(blocks, [1, 1, 1, 1])
    with pytest.raises(IndexError):
        blocks[2]
