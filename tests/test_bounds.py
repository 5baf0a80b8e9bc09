from fractions import Fraction

import pytest

from gspb import bounds, exactlp, reduction
from gspb.channels import (ChannelSpec, NotMonotoneError, enumerate_vertices,
                           example_three)


def fl(x):
    return x.numerator // x.denominator


def test_check_monotone():
    assert bounds.check_monotone(ChannelSpec("z", n=6, r=2))
    assert not bounds.check_monotone(ChannelSpec("mag_sym", n=3, q=3))
    assert bounds.check_monotone(ChannelSpec("grain", n=6))
    assert bounds.check_monotone(ChannelSpec("deletion", n=6))
    assert not bounds.check_monotone(ChannelSpec("projective", n=4))


def test_mb_values():
    assert bounds.monotonicity_bound(ChannelSpec("z", n=5)) == Fraction(63, 6)
    assert bounds.monotonicity_bound(ChannelSpec("deletion", n=5)) == Fraction(30, 4)
    assert bounds.monotonicity_bound(ChannelSpec("mag_asym", n=5, q=3)) == Fraction(729, 12)


def test_mb_refused_for_non_monotone():
    with pytest.raises(NotMonotoneError):
        bounds.monotonicity_bound(ChannelSpec("mag_sym", n=4, q=3))
    with pytest.raises(NotMonotoneError):
        bounds.monotonicity_bound(ChannelSpec("projective", n=4))


def test_mb_matches_enumeration():
    # z and grain closed forms equal the literal reciprocal-degree sum
    from gspb.channels import out_ball
    for spec in (ChannelSpec("z", n=6, r=2), ChannelSpec("grain", n=6)):
        direct = sum(
            (Fraction(1, len(out_ball(spec, x, spec.r)))
             for x in enumerate_vertices(spec)),
            Fraction(0),
        )
        assert bounds.monotonicity_bound(spec) == direct, spec


def test_asym_mb_overshoots_sum_by_known_gap():
    # the published asym closed form exceeds the exact reciprocal-degree sum
    # by exactly 1/((q-1)(n+1)); floors agree on the whole reported range
    from gspb.channels import out_ball
    for (n, q) in ((4, 3), (3, 4), (5, 2)):
        spec = ChannelSpec("mag_asym", n=n, q=q)
        direct = sum(
            (Fraction(1, len(out_ball(spec, x, 1)))
             for x in enumerate_vertices(spec)),
            Fraction(0),
        )
        closed = bounds.monotonicity_bound(spec)
        assert closed - direct == Fraction(1, (q - 1) * (n + 1))
        assert closed >= direct


def test_aspv_values():
    assert bounds.aspv(ChannelSpec("z", n=5)) == Fraction(64, 7)
    assert bounds.aspv(ChannelSpec("grain", n=5)) == Fraction(64, 6)
    assert bounds.aspv(example_three()) == Fraction(25, 9)


def test_aspv_matches_enumeration():
    from gspb.channels import average_ball_size, vertex_count
    for spec in (ChannelSpec("z", n=6), ChannelSpec("deletion", n=6),
                 ChannelSpec("grain", n=5), ChannelSpec("mag_sym", n=3, q=4),
                 ChannelSpec("projective", n=4)):
        direct = vertex_count(spec) / average_ball_size(spec, 1)
        assert bounds.aspv(spec) == direct, spec


def test_lemma3_transversal_feasible():
    for spec in (ChannelSpec("z", n=4), ChannelSpec("mag_sym", n=2, q=3),
                 ChannelSpec("grain", n=4), ChannelSpec("deletion", n=4),
                 example_three()):
        vertices, weights, bound = bounds.lemma3_transversal(spec)
        lp = reduction.full_hypergraph_lp(spec)
        rep = exactlp.verify_transversal(lp, weights)
        assert rep.feasible, spec
        assert bound >= exactlp.solve_min_transversal(lp).optimum


def test_lemma3_monotone_collapse():
    # on a monotone graph the weights collapse to reciprocal degrees
    from gspb.channels import out_ball
    spec = ChannelSpec("z", n=3)
    vertices, weights, _ = bounds.lemma3_transversal(spec)
    for v, w in zip(vertices, weights):
        assert w == Fraction(1, len(out_ball(spec, v, 1)))


def test_lemma3_regular_symmetric():
    # symmetric binary +-1 channel: uniform 1/degree, bound |X|/degree
    spec = ChannelSpec("mag_sym", n=3, q=2)
    vertices, weights, bound = bounds.lemma3_transversal(spec)
    assert set(weights) == {Fraction(1, 4)}
    assert bound == Fraction(8, 4)


def test_report_z10():
    rep = bounds.assemble_report(ChannelSpec("z", n=10))
    assert rep.entry("mb").floor == 186
    assert rep.entry("aspv").floor == 170
    assert rep.entry("gspb").floor == 159
    assert rep.reference_values == {"WVB88": 117}


def test_report_deletion12():
    rep = bounds.assemble_report(ChannelSpec("deletion", n=12))
    assert rep.entry("mb").floor == 372
    assert rep.entry("aspv").floor == 315
    assert rep.entry("closed").floor == 358
    assert rep.entry("gspb").floor == 321
    assert rep.reference_values["VT65"] == 316


def test_report_grain11():
    rep = bounds.assemble_report(ChannelSpec("grain", n=11), lp_cap=0)
    assert rep.entry("mb").floor == 372
    assert rep.entry("aspv").floor == 341
    assert rep.entry("closed").floor == 358
    assert rep.entry("gspb").value is None  # capped, absent with reason
    assert "cap" in rep.entry("gspb").note and rep.entry("gspb").capped
    assert rep.reference_values == {"GYD13b": 210}


def test_report_absent_mb_for_sym():
    rep = bounds.assemble_report(ChannelSpec("mag_sym", n=4, q=3))
    assert rep.entry("mb").value is None and not rep.entry("mb").capped
    assert rep.entry("aspv").value is not None
    assert rep.entry("gspb").value is not None


def test_report_json_round():
    import json
    rep = bounds.assemble_report(ChannelSpec("z", n=6))
    data = json.loads(rep.to_json())
    assert data["family"] == "z" and data["n"] == 6
    g = data["bounds"]["gspb"]
    assert Fraction(g["num"], g["den"]) == rep.entry("gspb").value
    assert g["floor"] == rep.entry("gspb").floor


def test_z_aspv_floor_above_gspb_floor():
    # regression on the one family where the average value is a proven bound
    from gspb import zchannel
    for n in range(5, 33):
        assert fl(zchannel.z_aspv(n, 1)) >= fl(zchannel.z_gspb(n, 1).value)


def test_mb_at_least_gspb_monotone_families():
    # a feasible reciprocal-degree point can never undercut the LP minimum
    from gspb import magnitude, seqchannels, zchannel
    for n in (5, 9, 14):
        for r in (1, 2):
            assert zchannel.z_mb(n, r) >= zchannel.z_gspb(n, r).value
        assert magnitude.asym_mb(n, 3) >= magnitude.asym_gspb(n, 3).optimum
    for n in (5, 8, 11):
        assert seqchannels.deletion_mb(n) >= seqchannels.deletion_full_gspb(n).optimum
    assert seqchannels.grain_mb(6) >= seqchannels.grain_full_gspb(6).optimum
