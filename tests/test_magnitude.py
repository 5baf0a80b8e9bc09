import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspb import bounds, exactlp, magnitude as mag, oracle, reduction
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


# the magnitude rows of the benchmark's quotient-tables workload
TABLE_RANGES = [("mag_asym", 3, range(5, 15)), ("mag_asym", 4, range(5, 12)),
                ("mag_sym", 3, range(5, 15)), ("mag_sym", 4, range(5, 11)),
                ("mag_sym", 5, range(5, 13)), ("mag_sym", 6, range(5, 11))]


@pytest.mark.parametrize("family,q,ns", TABLE_RANGES,
                         ids=[f"{f}-q{q}" for f, q, _ in TABLE_RANGES])
def test_table_quotients_certify_on_the_simplex_basis(monkeypatch, highs_solvers,
                                                     family, q, ns):
    # each quotient's float point comes from HiGHS's dual simplex, and the
    # basis read off it certifies with no support solve
    support_solves = []
    monkeypatch.setattr(exactlp, "_support_solve",
                        lambda *args: support_solves.append(args))
    gspb = mag.asym_gspb if family == "mag_asym" else mag.sym_gspb
    for n in ns:
        assert gspb(n, q).notes.endswith(", float basis"), n
    assert highs_solvers == ["simplex"] * len(ns) and not support_solves


def test_one_quotient_per_report(monkeypatch):
    # CLOSED and GSPB share one quotient; a refused radius builds none
    calls = []
    real = reduction.quotient_matrix
    monkeypatch.setattr(reduction, "quotient_matrix",
                        lambda spec: calls.append(spec) or real(spec))
    for spec in (ChannelSpec("mag_asym", n=8, q=4), ChannelSpec("mag_sym", n=7, q=3)):
        calls.clear()
        report = bounds.assemble_report(spec)
        assert calls == [spec]
        assert report.entry("closed").value == mag.closed_transversal(real(spec)).bound
        assert report.entry("gspb").value == mag.quotient_gspb(real(spec)).optimum
    calls.clear()
    report = bounds.assemble_report(ChannelSpec("mag_asym", n=5, r=2, q=3))
    assert not calls
    assert report.entry("closed").note == report.entry("gspb").note == (
        "mag_asym bounds cover radius 1 only")


def _reference_asym_weights(n: int, labels) -> list[Fraction]:
    """The improved class weights in Fractions, 1/(m + 1 + (i1 - 1)/(2m))
    for m = n - i0: the reference for magnitude._asym_weights."""
    return [Fraction(1) if c[0] == n else
            1 / (n - c[0] + 1 + Fraction(c[1] - 1, 2 * (n - c[0])))
            for c in labels]


def _reference_sym_weights(n: int, labels) -> list[Fraction]:
    """1/(2n - i0) per folded class: the reference for magnitude._sym_weights."""
    return [Fraction(1, 2 * n - c[0]) for c in labels]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mag_asym", "mag_sym"]), st.integers(1, 14), st.integers(2, 6))
def test_hand_weights_match_the_fraction_rules(family, n, q):
    # the hand weights are ints over one denominator; their Fraction views
    # equal the per-class Fraction rules, at the LCM of the denominators
    part = reduction.partition_by_canonical_form(ChannelSpec(family, n=n, q=q))
    if family == "mag_asym":
        got, want = (mag._asym_weights(n, part.labels),
                     _reference_asym_weights(n, part.labels))
    else:
        got, want = (mag._sym_weights(n, part.labels),
                     _reference_sym_weights(n, part.labels))
    assert got.fractions() == want
    assert got.scale == math.lcm(*(w.denominator for w in want))


@pytest.mark.parametrize("family,q,n", [("mag_asym", 3, 9), ("mag_sym", 5, 7)])
def test_closed_transversal_keeps_its_weights_scaled(family, q, n):
    # the checked weights stay integer-scaled; ``weights`` is their view
    t = mag.closed_transversal(reduction.quotient_matrix(ChannelSpec(family, n=n, q=q)))
    assert isinstance(t.scaled, exactlp.Scaled)
    assert t.weights == t.scaled.fractions()
    assert sum(s * w for s, w in zip(
        reduction.partition_by_canonical_form(ChannelSpec(family, n=n, q=q)).sizes,
        t.weights)) == t.bound
