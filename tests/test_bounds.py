from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspb import bounds, exactlp, reduction
from gspb.channels import (ChannelSpec, EnumerationCapExceeded, GspbError,
                           NotMonotoneError, ball_centers, enumerate_vertices,
                           example_four, example_three, example_two, out_ball,
                           vertex_count)


def fl(x):
    return x.numerator // x.denominator


def test_check_monotone():
    assert bounds.check_monotone(ChannelSpec("z", n=6, r=2))
    assert not bounds.check_monotone(ChannelSpec("mag_sym", n=3, q=3))
    assert bounds.check_monotone(ChannelSpec("grain", n=6))
    assert bounds.check_monotone(ChannelSpec("deletion", n=6))
    assert not bounds.check_monotone(ChannelSpec("projective", n=4))


def test_check_monotone_honours_the_cap():
    # the deletion check reads the rows of the full LP, refused before the
    # kernels enumerate 2^14 centres
    with pytest.raises(EnumerationCapExceeded):
        bounds.check_monotone(ChannelSpec("deletion", n=14), cap=16)


def test_mb_values():
    assert bounds.monotonicity_bound(ChannelSpec("z", n=5)) == Fraction(63, 6)
    assert bounds.monotonicity_bound(ChannelSpec("deletion", n=5)) == Fraction(30, 4)
    assert bounds.monotonicity_bound(ChannelSpec("mag_asym", n=5, q=3)) == Fraction(729, 12)


def test_enumerated_mb_enumerates_each_ball_once(monkeypatch):
    # an explicit graph's MB and its monotone check read one enumeration of
    # the balls: out_ball runs once per center
    from gspb import channels
    spec = example_three()
    calls = []

    def counted(spec, x):
        calls.append(x)
        return channels.out_ball(spec, x)

    for module in (bounds, reduction):
        monkeypatch.setattr(module, "out_ball", counted, raising=False)
    assert bounds.monotonicity_bound(spec) == Fraction(21, 5)
    assert sorted(calls) == ball_centers(spec)


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
            (Fraction(1, len(out_ball(spec, x)))
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
            (Fraction(1, len(out_ball(spec, x)))
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


def enumerated_aspv(spec):
    """Vertex count over the mean size of the balls listed by ``out_ball``."""
    sizes = [len(out_ball(spec, c)) for c in ball_centers(spec)]
    return Fraction(vertex_count(spec) * len(sizes), sum(sizes))


def test_aspv_matches_enumeration():
    for spec in (ChannelSpec("z", n=6), ChannelSpec("deletion", n=6),
                 ChannelSpec("grain", n=5), ChannelSpec("mag_sym", n=3, q=4),
                 ChannelSpec("projective", n=4)):
        assert bounds.aspv(spec) == enumerated_aspv(spec), spec
    # radius 2 has no closed form: ASPV reads the enumerated hypergraph
    for spec in (ChannelSpec("grain", n=6, r=2), ChannelSpec("mag_asym", n=3, q=3, r=2),
                 example_four()):
        assert bounds.aspv(spec) == enumerated_aspv(spec), spec


def test_lemma3_transversal_feasible():
    for spec in (ChannelSpec("z", n=4), ChannelSpec("mag_sym", n=2, q=3),
                 ChannelSpec("grain", n=4), ChannelSpec("deletion", n=4),
                 example_three()):
        vertices, weights, bound = bounds.lemma3_transversal(spec)
        lp = reduction.full_hypergraph_lp(spec)
        rep = exactlp.verify_transversal(lp, weights)
        assert rep.feasible, spec
        assert bound >= exactlp.solve_min_transversal(lp).optimum


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(1, 3), st.data())
def test_lemma3_random_graphs(nv, r, data):
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
        max_size=nv * 3))
    spec = ChannelSpec("explicit", n=nv, r=r,
                       explicit_edges=tuple(e for e in edges if e[0] != e[1]))
    vertices, weights, bound = bounds.lemma3_transversal(spec)
    for v, w in zip(vertices, weights):
        assert w >= Fraction(1, len(out_ball(spec, v)))
    lp = reduction.full_hypergraph_lp(spec)
    assert exactlp.verify_transversal(lp, weights).feasible
    assert bound >= exactlp.solve_min_transversal(lp).optimum


# lemma3_transversal per instance: its bound and the denominator of each
# weight (every weight is 1/d), in enumerate_vertices order
LEMMA3_PINS = {
    "z-4-r1": (ChannelSpec("z", n=4), "31/5",
               [1, 2, 2, 3, 2, 3, 3, 4, 2, 3, 3, 4, 3, 4, 4, 5]),
    "z-4-r2": (ChannelSpec("z", n=4, r=2), "795/154",
               [1, 2, 2, 4, 2, 4, 4, 7, 2, 4, 4, 7, 4, 7, 7, 11]),
    "grain-5": (ChannelSpec("grain", n=5), "62/5",
                [1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 3, 4, 3, 2,
                 2, 3, 4, 3, 4, 5, 4, 3, 2, 3, 4, 3, 2, 3, 2, 1]),
    "deletion-5": (ChannelSpec("deletion", n=5), "15/2",
                   [1, 2, 3, 2, 3, 4, 3, 2, 2, 3, 4, 3, 2, 3, 2, 1]),
    "mag_asym-q3-n3-r2": (ChannelSpec("mag_asym", n=3, q=3, r=2), "5797/840",
                          [1, 2, 3, 2, 4, 5, 3, 5, 6, 2, 4, 5, 4, 7, 8, 5, 8, 9,
                           3, 5, 6, 5, 8, 9, 6, 9, 10]),
    "mag_sym-q3-n3": (ChannelSpec("mag_sym", n=3, q=3), "191/30",
                      [4, 4, 4, 4, 5, 4, 4, 4, 4, 4, 5, 4, 5, 6, 5, 4, 5, 4,
                       4, 4, 4, 4, 5, 4, 4, 4, 4]),
    "projective-4": (ChannelSpec("projective", n=4), "599/63",
                     [9] + [7] * 65 + [9]),
    "example2": (example_two(), "3", [2] * 6),
    "example3": (example_three(), "21/5", [5, 1, 1, 1, 1]),
    "example4": (example_four(), "3", [3] * 9),
}


@pytest.mark.parametrize("name", LEMMA3_PINS)
def test_lemma3_pinned(name):
    spec, bound, dens = LEMMA3_PINS[name]
    vertices, weights, value = bounds.lemma3_transversal(spec)
    assert vertices == enumerate_vertices(spec)
    assert weights == [Fraction(1, d) for d in dens]
    assert value == Fraction(bound)


def test_lemma3_monotone_collapse():
    # on a monotone graph the weights collapse to reciprocal degrees
    spec = ChannelSpec("z", n=3)
    vertices, weights, _ = bounds.lemma3_transversal(spec)
    for v, w in zip(vertices, weights):
        assert w == Fraction(1, len(out_ball(spec, v)))


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
        assert fl(zchannel.z_aspv(n, 1)) >= fl(zchannel.z_gspb(n, 1).optimum)


def test_mb_at_least_gspb_monotone_families():
    # a feasible reciprocal-degree point can never undercut the LP minimum
    from gspb import magnitude, seqchannels, zchannel
    for n in (5, 9, 14):
        for r in (1, 2):
            assert zchannel.z_mb(n, r) >= zchannel.z_gspb(n, r).optimum
        assert magnitude.asym_mb(n, 3) >= magnitude.asym_gspb(n, 3).optimum
    for n in (5, 8, 11):
        assert seqchannels.deletion_mb(n) >= seqchannels.deletion_full_gspb(n).optimum
    assert seqchannels.grain_mb(6) >= seqchannels.grain_full_gspb(6).optimum


def test_report_radius_two_carries_no_radius_one_value():
    # every entry but the enumerated ASPV refuses; the JSON "r" is spec.r
    for spec in (ChannelSpec("deletion", n=6, r=2), ChannelSpec("grain", n=6, r=2),
                 ChannelSpec("mag_asym", n=3, r=2, q=3),
                 ChannelSpec("mag_sym", n=3, r=2, q=3),
                 ChannelSpec("projective", n=4, r=2)):
        rep = bounds.assemble_report(spec)
        assert rep.to_json_dict()["r"] == 2
        for name, entry in rep.entries.items():
            if name == "aspv" and spec.family != "deletion":
                assert entry.value == bounds.aspv(spec) != bounds.aspv(
                    ChannelSpec(spec.family, n=spec.n, q=spec.q))
            else:
                assert entry.value is None and "radius 1 only" in entry.note, (
                    spec, name)
        with pytest.raises(GspbError, match="radius 1 only"):
            bounds.monotonicity_bound(spec)


@pytest.mark.parametrize("spec,solver", [
    (ChannelSpec("mag_asym", n=8, q=4), "simplex"),
    (ChannelSpec("projective", n=2), "simplex"),
    (ChannelSpec("deletion", n=10), "ipm"),
    (example_two(), "ipm"),
], ids=["mag-asym-q4-n8", "projective-2", "deletion-10", "explicit-example-two"])
def test_report_presolve_method(highs_solvers, spec, solver):
    # the closed-form quotients (a magnitude GSPB, the projective n=2
    # fallback) take HiGHS's dual simplex; the orbit quotient and an explicit
    # graph's full LP keep the interior point
    assert bounds.assemble_report(spec).entry("gspb").certified
    assert highs_solvers == [solver]
