from fractions import Fraction

import pytest

from gspb import exactlp, magnitude as mag, oracle, reduction
from gspb.channels import ChannelSpec


def fl(x: Fraction) -> int:
    return x.numerator // x.denominator


def recheck(qlp, t: mag.ClassTransversal) -> bool:
    """The class weights are feasible and total the returned bound."""
    rep = exactlp.verify_transversal(qlp.lp, t.weights)
    return rep.feasible and rep.bound == t.bound


def test_asym_closed_forms():
    assert mag.asym_mb(5, 3) == Fraction(729, 12)
    assert fl(mag.asym_mb(5, 3)) == 60
    assert fl(mag.asym_mb(23, 3)) == 5883948676
    assert mag.asym_mb(5, 2) == Fraction(64, 6)
    assert mag.asym_aspv(5, 3) == Fraction(729, 13)
    assert fl(mag.asym_aspv(5, 3)) == 56
    assert fl(mag.asym_aspv(5, 2)) == 9
    assert fl(mag.asym_aspv(12, 3)) == 59049


def test_sym_aspv():
    assert mag.sym_aspv(5, 3) == Fraction(729, 23)
    assert fl(mag.sym_aspv(5, 3)) == 31
    assert fl(mag.sym_aspv(5, 4)) == 120


def test_asym_quotient_solves():
    assert fl(mag.asym_gspb(5, 3).optimum) == 55
    # n=1, q=3: three classes, cross-checked against the full hypergraph
    sol = mag.asym_gspb(1, 3)
    full = oracle.brute_force_tau(ChannelSpec("mag_asym", n=1, q=3))
    assert sol.optimum == full


def test_sym_quotient_solves():
    assert fl(mag.sym_gspb(5, 3).optimum) == 32
    assert fl(mag.sym_gspb(5, 4).optimum) == 123
    # binary symmetric case equals its full hypergraph optimum
    sol = mag.sym_gspb(3, 2)
    full = oracle.brute_force_tau(ChannelSpec("mag_sym", n=3, q=2))
    assert sol.optimum == full == 2


def test_asym_improved_transversal():
    t = mag.asym_improved_transversal(5, 3)
    assert recheck(mag.asym_quotient(5, 3), t)
    assert fl(t.bound) == 60
    assert fl(mag.asym_improved_transversal(8, 3).bound) == 1070
    # the all-zero class carries weight one
    zero_idx = t.labels.index((5, 0, 0))
    assert t.weights[zero_idx] == 1


def test_asym_improved_below_mb():
    # classes without 1-valued symbols carry weight above 1/degree, so the
    # sharpened bound only dips below the reciprocal-degree bound once n
    # grows; q=2 holds everywhere, q=3 from n=5, q=4 from n=6
    for n in range(1, 16):
        assert mag.asym_improved_transversal(n, 2).bound <= mag.asym_mb(n, 2)
    for n in range(5, 16):
        assert mag.asym_improved_transversal(n, 3).bound <= mag.asym_mb(n, 3)
    for n in range(6, 16):
        assert mag.asym_improved_transversal(n, 4).bound <= mag.asym_mb(n, 4)


def test_sym_transversal():
    t = mag.sym_transversal(5, 3)
    assert recheck(mag.sym_quotient(5, 3), t)
    assert fl(t.bound) == 37
    assert fl(mag.sym_transversal(12, 4).bound) == 940934


def test_transversals_feasible_on_full_hypergraph():
    for (fam, n, q, build) in (
        ("mag_asym", 4, 3, mag.asym_improved_transversal),
        ("mag_sym", 4, 3, mag.sym_transversal),
        ("mag_sym", 3, 4, mag.sym_transversal),
    ):
        spec = ChannelSpec(fam, n=n, q=q)
        part = reduction.partition_by_canonical_form(spec)
        t = build(n, q)
        from gspb.channels import enumerate_vertices
        lifted = [t.weights[part.classify(v)] for v in enumerate_vertices(spec)]
        lp = reduction.full_hypergraph_lp(spec)
        assert exactlp.verify_transversal(lp, lifted).feasible


def test_asym_monotone_small():
    from gspb.bounds import check_monotone
    for q in (2, 3, 4):
        for n in (2, 3, 5):
            assert check_monotone(ChannelSpec("mag_asym", n=n, q=q))
    assert not check_monotone(ChannelSpec("mag_sym", n=3, q=3))


def test_sym_aspv_below_gspb_observation():
    # q=3: the average-ball value runs below the covering optimum
    for n in range(5, 19):
        assert fl(mag.sym_aspv(n, 3)) < fl(mag.sym_gspb(n, 3).optimum)
