from fractions import Fraction
from math import comb, lcm

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
    assert res.dual == z.z_optimality_certificate(20, 2).lp_dual().fractions()
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
        z.z_optimality_certificate(3, 4)
    with pytest.raises(ValueError):
        z.d_sequence(0, 5)


def _reference_weights(n: int, r: int) -> list[Fraction]:
    """The backward recursion in Fractions: the reference for the integer
    recursion of z_weights_recursive."""
    w = [Fraction(0)] * (n + 1)
    for k in range(n - r, 0, -1):
        s = Fraction(1) - sum(
            (w[k + i] * comb(k + r, r - i) for i in range(1, r + 1) if w[k + i]),
            Fraction(0),
        )
        w[k] = s / comb(k + r, r)
    w[0] = Fraction(1)
    return w


def _reference_certificate(n: int, r: int, comb=comb) -> tuple[list[Fraction], str]:
    """The triangular forward substitution in Fractions, and its status: the
    reference for z_optimality_certificate."""
    y = [Fraction(0)] * (n + 1)
    y[0] = Fraction(1)
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(max(1, j - r), min(j - 1, n - r) + 1):
            if y[i]:
                acc += comb(i + r, j) * y[i]
        if j <= n - r:
            y[j] = (comb(n, j) - acc) / comb(j + r, j)
        else:
            y[j] = comb(n, j) - acc
    ok = all(v >= 0 for v in y)
    return y, "optimal-certified" if ok else "nonnegativity-failed"


def _lcm_of_denominators(values) -> int:
    return lcm(*(v.denominator for v in values))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 48).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_integer_recursions_match_the_fraction_recursions(case):
    # the integer recursions keep one running denominator; their Fraction
    # views equal the Fraction recursions, at the LCM of the denominators
    n, r = case
    weights = z.z_weights_recursive(n, r)
    want = _reference_weights(n, r)
    assert weights.w == want
    assert weights.scaled.scale == _lcm_of_denominators(want)
    assert weights.bound() == sum((comb(n, k) * v for k, v in enumerate(want)),
                                  Fraction(0))
    cert = z.z_optimality_certificate(n, r)
    y, status = _reference_certificate(n, r)
    assert (cert.y, cert.status) == (y, status)
    assert cert.scaled.scale == _lcm_of_denominators(y)
    assert cert.dual_value() == sum(y[: n - r + 1], Fraction(0))
    assert cert.lp_dual().fractions() == [y[0]] + [0] * r + y[1: n - r + 1]


def test_certificate_reports_a_negative_entry(monkeypatch):
    # no 1 <= r <= n <= 48 makes the triangular dual negative; with the
    # objective's C(6, 2) taken as 0, y_2 = -y_1 / C(3, 2) is, and the
    # integer substitution reports it as the Fraction one does
    def hole(a, b):
        return 0 if (a, b) == (6, 2) else comb(a, b)

    monkeypatch.setattr(z, "comb", hole)
    cert = z.z_optimality_certificate(6, 1)
    assert (cert.y, cert.status) == _reference_certificate(6, 1, hole)
    assert cert.status == "nonnegativity-failed" and cert.y[2] < 0
