from fractions import Fraction
from functools import partial

import pytest

from gspb import exactlp, oracle, projective as proj, zchannel
from gspb.channels import ChannelSpec, gaussian_binomial


def fl(x: Fraction) -> int:
    return x.numerator // x.denominator


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(7, 0) == 1
    assert gaussian_binomial(3, 5) == 0


def test_greedy_weights_known_rows():
    assert proj.greedy_weights(4).w == [Fraction(5, 6), Fraction(1, 6), 0]
    assert proj.greedy_weights(5).w == [Fraction(2, 3), Fraction(1, 3), 0]
    assert proj.greedy_weights(6).w == [0, Fraction(13, 42), Fraction(1, 14), 0]
    assert proj.greedy_weights(8).w == [1, 0, Fraction(29, 210), Fraction(1, 30), 0]
    assert proj.greedy_weights(11).w == [1, 0, 0, Fraction(2, 31), Fraction(1, 31), 0]


def test_greedy_middle_zero():
    for n in range(3, 20):
        assert proj.greedy_weights(n).w[n // 2] == 0


def test_closed_form_matches_greedy():
    for n in range(3, 25):
        assert proj.closed_form_weights(n).w == proj.greedy_weights(n).w, n


def test_closed_form_known_entries():
    assert proj.closed_form_weights(5).w[1] == Fraction(1, 3)
    assert proj.closed_form_weights(4).w[1] == Fraction(1, 6)
    assert proj.closed_form_weights(5).w[0] == Fraction(2, 3)


def test_lp_values():
    assert exactlp.solve_min_transversal(proj.projective_lp(4)).optimum == Fraction(20, 3)
    assert exactlp.solve_min_transversal(proj.projective_lp(5)).optimum == 22
    # flagged case: the folded LP optimum at n=2 is 7/5, floor 1
    assert exactlp.solve_min_transversal(proj.projective_lp(2)).optimum == Fraction(7, 5)


def test_gspb_results():
    res = proj.projective_gspb(7)
    assert fl(res.optimum) == 834 and proj.greedy_weights(7).bound() == res.optimum
    assert fl(proj.projective_gspb(9).optimum) == 116656
    assert fl(proj.projective_gspb(11).optimum) == 62462160


def test_gspb_flagged_n2():
    res = proj.projective_gspb(2)
    assert res.optimum == Fraction(7, 5)
    assert proj.greedy_weights(2).bound() == 1
    assert "flagged" in res.notes


def test_greedy_equals_lp_for_n_up_to_12():
    for n in range(3, 13):
        assert proj.greedy_weights(n).bound() == proj.projective_gspb(n).optimum, n


def test_greedy_feasible_folded_up_to_24():
    for n in range(3, 25):
        w = proj.greedy_weights(n)
        rep = exactlp.verify_transversal(proj.projective_lp(n), w.w)
        assert rep.feasible and rep.bound == w.bound(), n


def test_certificates():
    # the greedy weights certify with their block dual; n=2 takes the LP
    for n in (4, 5, 8):
        res = proj.projective_gspb(n)
        assert res.method == "greedy" and res.notes == "", n
        assert res.primal == proj.greedy_weights(n).w
    assert proj.projective_gspb(2).method == "presolve+crossover"


@pytest.mark.parametrize("call, solves", [
    *((partial(proj.projective_gspb, n), int(n == 2)) for n in range(2, 13)),
    (partial(zchannel.z_gspb, 20, 2), 0),
], ids=[*(f"projective-{n}" for n in range(2, 13)), "z-20-2"])
def test_lp_solved_only_where_the_closed_route_fails(monkeypatch, call, solves):
    # the greedy (or closed-form) weights certify through check_certificate
    # with their own dual; the LP is solved only where that check fails
    calls = []
    real = exactlp.solve_min_transversal
    monkeypatch.setattr(exactlp, "solve_min_transversal",
                        lambda lp, **kw: calls.append(lp) or real(lp, **kw))
    call()
    assert len(calls) == solves


def test_aspv_values():
    assert fl(proj.projective_aspv(4)) == 8
    assert fl(proj.projective_aspv(5)) == 30
    assert fl(proj.projective_aspv(9)) == 157860


def test_reduced_equals_brute_force():
    for n in (3, 4, 5):
        spec = ChannelSpec("projective", n=n)
        assert proj.projective_gspb(n).optimum == oracle.brute_force_tau(spec), n


def test_subspace_counts_by_enumeration():
    from gspb.channels import enumerate_subspaces
    for n in range(1, 7):
        subs = enumerate_subspaces(n)
        for k in range(n + 1):
            assert sum(1 for s in subs if len(s) == k) == gaussian_binomial(n, k)
