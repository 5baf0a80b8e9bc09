from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspb import exactlp, reduction, zchannel as z
from gspb.channels import ChannelSpec


def test_quotient_lp_rows_n2():
    lp = z.z_quotient_lp(2, 1)
    assert lp.rows[0] == [(0, 1)]
    assert lp.rows[1] == [(0, 1), (1, 1)]
    assert lp.rows[2] == [(1, 2), (2, 1)]
    assert exactlp.solve_min_transversal(lp).optimum == 2


def test_weights_recursive_n5_r1():
    w = z.z_weights_recursive(5, 1)
    assert w.w == [1, Fraction(11, 30), Fraction(4, 15), Fraction(1, 5),
                   Fraction(1, 5), 0]
    assert w.bound() == Fraction(17, 2)


def test_weights_zero_tail():
    w = z.z_weights_recursive(5, 2)
    assert w.w[5] == 0 and w.w[4] == 0


def test_weights_n2_r1():
    w = z.z_weights_recursive(2, 1)
    assert w.w == [1, Fraction(1, 2), 0]
    assert w.bound() == 2


def test_d_sequence_r1_alternates():
    ds = z.d_sequence(1, 10)
    assert ds == [Fraction((-1) ** i) for i in range(10)]


def test_d_sequence_r2():
    ds = z.d_sequence(2, 4)
    assert ds[:3] == [0, 1, -2]


def test_d_sequence_initial_one():
    for r in (1, 2, 5, 9):
        assert z.d_sequence(r, r + 1)[r - 1] == 1


def test_d_sequence_bound():
    # |D_m| <= (2r)^(m-r+1) across the full required grid
    for r in range(1, 21):
        vals = z.d_sequence(r, 201)
        for m, dm in enumerate(vals):
            assert abs(dm) <= (2 * r) ** (m - r + 1), (r, m)


def test_explicit_weight_example():
    # n=5, r=1, k=3: 3! * (1/24 - 1/120) = 1/5
    w = z.z_weights_explicit(5, 1)
    assert w.w[3] == Fraction(1, 5)


def test_explicit_equals_recursive():
    for r in range(1, 7):
        for n in range(r, 41):
            assert z.z_weights_explicit(n, r).w == z.z_weights_recursive(n, r).w, (n, r)


def feasibility(w: z.ZWeights) -> exactlp.TransversalReport:
    return exactlp.verify_transversal(z.z_quotient_lp(w.n, w.r), w.w)


def test_feasibility_checks():
    rep = feasibility(z.z_weights_recursive(5, 1))
    assert rep.feasible
    # rows r+1..n are tight by construction, plus row 0
    tight = set(rep.tight_rows)
    assert tight >= {0, 2, 3, 4, 5}
    w55 = z.z_weights_recursive(5, 5)
    assert w55.w == [1, 0, 0, 0, 0, 0]
    assert feasibility(w55).feasible
    assert feasibility(z.z_weights_recursive(32, 4)).feasible


def test_feasibility_flags_negative():
    w = z.ZWeights(n=2, r=1, w=[Fraction(1), Fraction(-1, 2), Fraction(0)])
    rep = feasibility(w)
    assert not rep.feasible and rep.negative_entries == [1]


def test_certificate_n5_r1():
    cert = z.z_optimality_certificate(5, 1)
    assert cert.status == "optimal-certified"
    assert cert.dual_value() == Fraction(17, 2)
    assert cert.y[0] == 1  # triangular solve fixes the corner at one


def test_certificate_identity():
    for (n, r) in [(8, 1), (9, 2), (10, 3), (12, 4)]:
        cert = z.z_optimality_certificate(n, r)
        assert cert.status == "optimal-certified"
        assert cert.dual_value() == z.z_weights_recursive(n, r).bound()
    # the triangular dual, placed on rows 0 and r+1..n, is an exact LP dual
    for n in range(1, 41):
        for r in range(1, min(n, 5) + 1):
            cert = z.z_optimality_certificate(n, r)
            lp = z.z_quotient_lp(n, r)
            value = exactlp.check_certificate(lp, z.z_weights_recursive(n, r).w,
                                              cert.lp_dual())
            assert value == cert.dual_value(), (n, r)


def test_gspb_values():
    # the witnesses of these routes are re-checked in test_witnesses.py
    assert z.z_gspb(5, 1).optimum == Fraction(17, 2)
    res = z.z_gspb(23, 3)
    assert res.optimum.numerator // res.optimum.denominator == 20507
    res = z.z_gspb(32, 4)
    assert res.optimum.numerator // res.optimum.denominator == 928919


def test_gspb_certified_path():
    res = z.z_gspb(20, 2)
    assert res.method == "closed-form"
    assert res.primal == z.z_weights_recursive(20, 2).w
    assert res.dual == z.z_optimality_certificate(20, 2).lp_dual()
    assert res.optimum.numerator // res.optimum.denominator == 15260


def test_gspb_falls_back_to_the_lp_solve(monkeypatch):
    # infeasible closed-form weights fail the check; the LP solve is returned
    monkeypatch.setattr(z, "z_weights_recursive",
                        lambda n, r: z.ZWeights(n, r, [Fraction(0)] * (n + 1)))
    res = z.z_gspb(9, 2)
    assert res.method == "presolve+crossover"
    assert res.optimum == exactlp.solve_min_transversal(z.z_quotient_lp(9, 2)).optimum


def test_gspb_equals_lp():
    for (n, r) in [(5, 1), (7, 2), (9, 3), (6, 5)]:
        lp_sol = exactlp.solve_min_transversal(z.z_quotient_lp(n, r))
        assert z.z_gspb(n, r).optimum == lp_sol.optimum, (n, r)


def test_gspb_past_radius_n():
    # for r >= n every ball is the whole down-set: the radius-n pair
    # certifies the (n, r) LP, whose optimum the unreduced LP confirms
    for n in range(1, 6):
        for r in range(3, 7):
            spec = ChannelSpec("z", n=n, r=r)
            res = z.z_gspb(n, r)
            assert res.method == "closed-form"
            assert res.optimum == exactlp.solve_min_transversal(
                reduction.full_hypergraph_lp(spec)).optimum, (n, r)


def test_example_wprime():
    w, bound = z.z_example_wprime(5)
    assert w[0] == 1
    assert bound <= z.z_aspv(5, 1) == Fraction(64, 7)
    assert bound >= z.z_gspb(5, 1).optimum
    w10, b10 = z.z_example_wprime(10)
    assert b10 >= z.z_gspb(10, 1).optimum


def test_mb_aspv_closed_forms():
    assert z.z_mb(5, 1) == Fraction(63, 6)   # exact reciprocal-degree sum
    assert z.z_aspv(5, 1) == Fraction(64, 7)
    assert z.z_aspv(5, 1).numerator // z.z_aspv(5, 1).denominator == 9


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 18))
def test_weights_feasible_property(r, n):
    if r > n:
        n = r
    w = z.z_weights_recursive(n, r)
    assert feasibility(w).feasible
    cert = z.z_optimality_certificate(n, r)
    assert cert.status == "optimal-certified"
    assert cert.dual_value() == w.bound()


def test_input_validation():
    with pytest.raises(ValueError):
        z.z_weights_recursive(3, 4)
    with pytest.raises(ValueError):
        z.d_sequence(0, 5)
