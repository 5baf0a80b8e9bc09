"""Pins every cell where exact arithmetic contradicts the published tables.

Each entry records the printed value, the exact value computed here, and an
independent cross-check of the exact value (dual certificate, direct vertex
enumeration, or a structural identity between two published columns).  These
are the cells that make acceptance criteria 1, 3, 4 and 6 fail by design.
"""

from fractions import Fraction

from gspb import exactlp, magnitude as mag, projective as proj
from gspb import seqchannels as seq, zchannel as z


def fl(x: Fraction) -> int:
    return x.numerator // x.denominator


def test_z_mb_r1_closed_form_drift():
    # the simplified closed form 2^(n+1)/(n+1) overstates the exact
    # reciprocal-degree sum (2^(n+1)-1)/(n+1); the published column prints
    # the simplified value at n=7 and n=31 but the exact floor at n=15
    for n in (7, 15, 31):
        exact = z.z_mb(n, 1)
        assert exact == Fraction((1 << (n + 1)) - 1, n + 1)
    assert fl(z.z_mb(7, 1)) == 31      # table prints 32
    assert fl(z.z_mb(15, 1)) == 4095   # table agrees here
    assert fl(z.z_mb(31, 1)) == 134217727  # table prints 134217728


def test_z_gspb_r1_n26():
    # table prints 4638907; the exact optimum floors to 4638908, confirmed
    # by the closed form's dual certificate and by the crossover solve of
    # the quotient LP
    res = z.z_gspb(26, 1)
    assert res.method == "closed-form"
    assert exactlp.check_certificate(z.z_quotient_lp(26, 1), res.primal,
                                     res.dual) == res.optimum
    assert fl(res.optimum) == 4638908
    cert = z.z_optimality_certificate(26, 1)
    assert cert.status == "optimal-certified"
    assert cert.dual_value() == res.optimum
    lp = exactlp.solve_min_transversal(z.z_quotient_lp(26, 1))
    assert lp.optimum == res.optimum


def test_asym_q3_aspv_n11_typo():
    # table prints 21252; the closed form gives 3^12/25 = 21257.64
    v = mag.asym_aspv(11, 3)
    assert v == Fraction(3**12, 25)
    assert fl(v) == 21257


def test_asym_q3_thm_rounded_cells():
    # the printed column rounds to nearest on these rows; floors differ
    expected = {8: (1070, Fraction("1070.98")), 11: (21672, None),
                12: (60055, None)}
    for n, (floor_exact, _) in expected.items():
        b = mag.asym_improved_transversal(n, 3).bound
        assert fl(b) == floor_exact, n
    # n=8 independently re-summed over all 3^8 words
    from itertools import product
    total = Fraction(0)
    for x in product(range(3), repeat=8):
        i0 = sum(1 for v in x if v == 0)
        i1 = sum(1 for v in x if v == 1)
        if i0 == 8:
            total += 1
        else:
            total += 1 / (8 - i0 + 1 + Fraction(i1 - 1, 2 * (8 - i0)))
    assert total == mag.asym_improved_transversal(8, 3).bound
    assert 1070 < total < 1071


def test_sym_q3_thm_rounded_cells():
    for n, floor_exact in ((11, 12216), (12, 33563), (13, 92871)):
        assert fl(mag.sym_transversal(n, 3).bound) == floor_exact, n
    # n=11 cross-check by direct summation over classes vs raw degrees
    direct = sum(
        Fraction(1, 2 * 11 - i0) * mag.sym_quotient(11, 3).partition.sizes[i]
        for i, (i0, _) in enumerate(mag.sym_quotient(11, 3).partition.labels)
    )
    assert direct == mag.sym_transversal(11, 3).bound


def test_grain_thm_off_by_one_cells():
    # the deletion and grain improved-transversal totals are the same sum
    # shifted by one in n, yet the two published columns disagree by one on
    # these rows; the deletion column matches the exact floors everywhere,
    # so these grain cells are the erroneous ones
    wrong_rows = {8: 61, 9: 109, 10: 197, 12: 657, 14: 2251, 17: 14845,
                  18: 28059, 20: 101163, 23: 705511}
    published = {8: 60, 9: 108, 10: 196, 12: 656, 14: 2250, 17: 14844,
                 18: 28058, 20: 101162, 23: 705510}
    for n, exact_floor in wrong_rows.items():
        value = seq.grain_bound(n)
        assert fl(value) == exact_floor, n
        assert fl(value) == published[n] + 1
        assert value == seq.deletion_bound(n + 1)  # structural identity
    # the remaining rows agree with the published column
    agree = {5: 12, 6: 20, 7: 35, 11: 358, 13: 1212, 15: 4202, 16: 7882,
             19: 53202, 21: 192850, 22: 368478}
    for n, want in agree.items():
        assert fl(seq.grain_bound(n)) == want, n


def test_projective_aspv_n3():
    # table prints 3; the exact value is 256/86, floor 2 (not acceptance-bound)
    v = proj.projective_aspv(3)
    assert v == Fraction(256, 86)
    assert fl(v) == 2


def test_projective_n2_flagged_row():
    # the greedy recursion yields (1/2, 0) with total 1, which is infeasible;
    # the true covering optimum is 7/5, whose floor 1 happens to match the
    # printed value
    res = proj.projective_gspb(2)
    assert res.optimum == Fraction(7, 5)
    assert proj.greedy_weights(2).bound() == 1
    rep = exactlp.verify_transversal(proj.projective_lp(2),
                                     proj.greedy_weights(2).w)
    assert not rep.feasible
