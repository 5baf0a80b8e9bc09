import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from gspb import channels as ch
from gspb import exactlp, linsolve, magnitude, projective, seqchannels, zchannel


def hypergraph_lp(spec):
    hg = ch.build_hypergraph(spec)
    return exactlp.CoveringLP(
        num_vars=hg.num_vertices,
        objective=[1] * hg.num_vertices,
        rows=[[(j, 1) for j in e] for e in hg.edges],
    )


def singleton_lp(n):
    return exactlp.CoveringLP(num_vars=n, objective=[1] * n,
                              rows=[[(j, 1)] for j in range(n)])


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
        match = exactlp.solve_max_matching_lp(singleton_lp(n))
        assert match.optimum == n


def test_matching_duality():
    lp = hypergraph_lp(ch.example_two())
    assert exactlp.solve_max_matching_lp(lp).optimum == 1
    lp = hypergraph_lp(ch.ChannelSpec("z", n=2))
    assert exactlp.solve_max_matching_lp(lp).optimum == 2


def test_verify_transversal_z2():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=2))
    # vertices in order 00,01,10,11; weights 1,1/2,1/2,0
    rep = exactlp.verify_transversal(lp, [1, Fraction(1, 2), Fraction(1, 2), 0])
    assert rep.feasible and rep.bound == 2
    assert sorted(rep.slacks) == [0, 0, Fraction(1, 2), Fraction(1, 2)]
    rep0 = exactlp.verify_transversal(lp, [0, 0, 0, 0])
    assert not rep0.feasible
    assert all(s == -1 for s in rep0.slacks)


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
    pres = exactlp.float_presolve(seqchannels.deletion_full_lp(10))
    assert pres.converged and int(pres.value + 1e-9) == 96


def test_crossover_matches_simplex():
    # the default path and the simplex reference agree on a medium LP
    lp = hypergraph_lp(ch.ChannelSpec("z", n=6))
    a = exactlp.solve_min_transversal(lp, method="simplex")
    b = exactlp.solve_min_transversal(lp)
    assert a.optimum == b.optimum
    for sol in (a, b):
        assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    assert b.method == "presolve+crossover"


def test_crossover_deletion_small():
    lp = hypergraph_lp(ch.ChannelSpec("deletion", n=6))
    a = exactlp.solve_min_transversal(lp, method="simplex")
    b = exactlp.solve_min_transversal(lp)
    assert b.method == "presolve+crossover"
    assert a.optimum == b.optimum == Fraction(41, 4)  # floor 10


# one quotient LP per family, each small enough for the simplex reference
QUOTIENT_LPS = {
    "asym_quotient(5,4)": lambda: magnitude.asym_quotient(5, 4).to_covering_lp(),
    "sym_quotient(7,5)": lambda: magnitude.sym_quotient(7, 5).to_covering_lp(),
    "z_quotient_lp(12,2)": lambda: zchannel.z_quotient_lp(12, 2),
    "projective_lp(6)": lambda: projective.projective_lp(6),
}


@pytest.mark.parametrize("build", ["deletion_full_lp", "grain_full_lp", *QUOTIENT_LPS])
def test_auto_certifies_full_lps_by_crossover(build):
    # every integral LP, however small, is certified by the crossover; a
    # presolve change must not fall back silently to the dense Fraction simplex
    quotient = QUOTIENT_LPS.get(build)
    lp = quotient() if quotient else getattr(seqchannels, build)(9)
    sol = exactlp.solve_min_transversal(lp)
    assert sol.method == "presolve+crossover"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    if quotient:
        assert sol.optimum == exactlp.solve_min_transversal(lp, method="simplex").optimum


def test_failed_crossover_falls_back_within_a_cap(monkeypatch):
    # with no float vertex every LP goes to the simplex, whose tableau is
    # refused by size before it is built: exit 4, not a long Fraction solve
    from gspb import cli
    monkeypatch.setattr(exactlp, "float_presolve", lambda lp: exactlp.PresolveResult(
        False, None, None, None, "forced failure"))
    small = hypergraph_lp(ch.ChannelSpec("z", n=4))
    assert exactlp.solve_min_transversal(small).method == "simplex"
    lp = seqchannels.grain_full_lp(10)
    tracemalloc.start()
    try:
        with pytest.raises(ch.CapExceeded):
            exactlp.solve_min_transversal(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22  # the 1024x2048 tableau alone is 16 MB of pointers
    assert cli.main(["compute", "--family", "grain", "--n", "10",
                     "--bound", "gspb"]) == 4


def test_scaling_exactness():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=4))
    base = exactlp.solve_min_transversal(lp)
    lam = Fraction(7, 3)
    scaled = exactlp.CoveringLP(
        num_vars=lp.num_vars,
        objective=[lam * c for c in lp.objective],
        rows=lp.rows,
    )
    assert exactlp.solve_min_transversal(scaled).optimum == lam * base.optimum


def test_determinism():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=5))
    a = exactlp.solve_min_transversal(lp, method="simplex")
    b = exactlp.solve_min_transversal(lp, method="simplex")
    assert a.primal == b.primal and a.pivots == b.pivots


def test_serialization_roundtrip():
    lp = hypergraph_lp(ch.ChannelSpec("z", n=3))
    lp.objective[2] = Fraction(5, 3)
    text = exactlp.lp_to_text(lp)
    back = exactlp.lp_from_text(text)
    assert back.num_vars == lp.num_vars
    assert [Fraction(c) for c in lp.objective] == back.objective
    assert [[(j, Fraction(a)) for j, a in row] for row in lp.rows] == back.rows
    assert exactlp.solve_min_transversal(back).optimum == \
        exactlp.solve_min_transversal(lp).optimum


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_strong_duality_random_covers(data):
    nv = data.draw(st.integers(1, 7))
    nrows = data.draw(st.integers(1, 9))
    rows = []
    for _ in range(nrows):
        members = data.draw(st.sets(st.integers(0, nv - 1), min_size=1, max_size=nv))
        rows.append([(j, data.draw(st.integers(1, 3))) for j in sorted(members)])
    obj = [data.draw(st.integers(0, 5)) for _ in range(nv)]
    lp = exactlp.CoveringLP(num_vars=nv, objective=obj, rows=rows)
    sol = exactlp.solve_min_transversal(lp, method="simplex")
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum
    auto = exactlp.solve_min_transversal(lp)
    assert auto.optimum == sol.optimum
    assert exactlp.check_certificate(lp, auto.primal, auto.dual) == sol.optimum


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
    x = linsolve.dixon_solve(matrix, 2, [5, 7])
    assert x == [Fraction(8, 5), Fraction(9, 5)]


def test_dixon_singular_returns_none():
    matrix = csr_matrix([[1, 2], [2, 4]], dtype=np.int64)
    assert linsolve.dixon_solve(matrix, 2, [1, 1]) is None


def test_optimum_zero_certifies_by_crossover():
    # the float dual is all zero; the dual support solve returns z = 0
    lp = exactlp.CoveringLP(2, [0, 1], [[(0, 1)], [(0, 1), (1, 1)]])
    sol = exactlp.solve_min_transversal(lp)
    assert sol.optimum == 0 and sol.method == "presolve+crossover"
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == 0


def test_random_covers_take_no_fallback():
    # every integral cover, optimum 0 included, certifies by the crossover
    rng = random.Random(1)
    for _ in range(400):
        nv = rng.randint(1, 7)
        rows = [[(j, rng.randint(1, 3))
                 for j in sorted(rng.sample(range(nv), rng.randint(1, nv)))]
                for _ in range(rng.randint(1, 7))]
        lp = exactlp.CoveringLP(nv, [rng.randint(0, 5) for _ in range(nv)], rows)
        sol = exactlp.solve_min_transversal(lp)
        assert sol.method == "presolve+crossover", exactlp.lp_to_text(lp)
        assert sol.optimum == exactlp.solve_min_transversal(lp, method="simplex").optimum


def small_lp():
    # min w0 + 2 w1  s.t.  w0 >= 1,  w0 + w1 >= 1;  optimum 1
    return exactlp.CoveringLP(num_vars=2, objective=[1, 2],
                              rows=[[(0, 1)], [(0, 1), (1, 1)]])


def test_check_certificate_accepts_optimal_pair():
    lp = small_lp()
    assert exactlp.check_certificate(lp, [1, 0], [1, 0]) == 1
    fraction_lp = exactlp.lp_from_text(exactlp.lp_to_text(lp))
    assert exactlp.check_certificate(fraction_lp, [1, 0], [Fraction(1, 2)] * 2) == 1


# each pair fails exactly one condition of check_certificate
@pytest.mark.parametrize("w, z", [
    ([2, -1], [0, 0]),                              # negative w
    ([Fraction(1, 2), 0], [Fraction(1, 2), 0]),     # row 0 short
    ([1, 0], [2, -1]),                              # negative z
    ([1, 1], [3, 0]),                               # column 0 over-full
    ([1, 1], [1, 0]),                               # c.w = 3 != sum(z) = 1
], ids=["negative-w", "short-row", "negative-z", "overfull-column", "objectives"])
@pytest.mark.parametrize("coeffs", ["int", "fraction"])
def test_check_certificate_rejects(w, z, coeffs):
    lp = small_lp()
    if coeffs == "fraction":
        lp = exactlp.lp_from_text(exactlp.lp_to_text(lp))
    assert exactlp.check_certificate(lp, w, z) is None


def test_check_certificate_survives_optimize_flag():
    code = (
        "from gspb import exactlp\n"
        "lp = exactlp.CoveringLP(2, [1, 2], [[(0, 1)], [(0, 1), (1, 1)]])\n"
        "print(__debug__, exactlp.check_certificate(lp, [1, 0], [1, 0]),\n"
        "      exactlp.check_certificate(lp, [1, 0], [2, -1]))\n"
    )
    src = Path(exactlp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False", "1", "None"]
