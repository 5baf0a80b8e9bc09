from fractions import Fraction
from math import comb

import pytest

from gspb import cli, exactlp, oracle, reduction
from gspb.channels import (ChannelSpec, GspbError, QuotientUnavailable,
                           enumerate_vertices, out_ball)


def test_z_partition_sizes():
    part = reduction.partition_by_canonical_form(ChannelSpec("z", n=5))
    assert part.sizes == [1, 5, 10, 10, 5, 1]
    assert part.classify(0b10110) == 3


def test_asym_partition_count():
    part = reduction.partition_by_canonical_form(ChannelSpec("mag_asym", n=5, q=3))
    assert part.num_classes == comb(7, 2) == 21
    assert sum(part.sizes) == 3**5


def test_sym_partition_count():
    part = reduction.partition_by_canonical_form(ChannelSpec("mag_sym", n=3, q=4))
    assert part.num_classes == comb(4, 1) == 4
    assert sum(part.sizes) == 4**3


def test_partition_sizes_match_enumeration():
    for spec in (ChannelSpec("z", n=6), ChannelSpec("mag_asym", n=4, q=3),
                 ChannelSpec("mag_sym", n=4, q=3), ChannelSpec("mag_sym", n=3, q=4),
                 ChannelSpec("projective", n=4)):
        part = reduction.partition_by_canonical_form(spec)
        counts = [0] * part.num_classes
        for v in enumerate_vertices(spec):
            counts[part.classify(v)] += 1
        assert counts == part.sizes, spec


def test_no_quotient_families():
    for fam, n in (("deletion", 5), ("grain", 5)):
        with pytest.raises(QuotientUnavailable):
            reduction.partition_by_canonical_form(ChannelSpec(fam, n=n))


def _solve(spec):
    return exactlp.solve_min_transversal(reduction.quotient_matrix(spec).lp)


def test_z_quotient_row():
    qlp = reduction.quotient_matrix(ChannelSpec("z", n=3, r=1))
    # weight-2 row: two weight-1 members plus itself
    assert qlp.lp.rows[2] == [(1, 2), (2, 1)]
    assert qlp.lp.objective == qlp.partition.sizes == [1, 3, 3, 1]


def test_projective_quotient_row():
    qlp = reduction.quotient_matrix(ChannelSpec("projective", n=4))
    # dimension-1 row: 1 onto dim 0, itself, and 7 onto dim 2
    assert qlp.lp.rows[1] == [(0, 1), (1, 1), (2, 7)]


def test_asym_q2_equals_z():
    # compositions sort by zero count, weight classes by weight; align first
    for n in (3, 4, 6):
        z = reduction.quotient_matrix(ChannelSpec("z", n=n, r=1))
        a = reduction.quotient_matrix(ChannelSpec("mag_asym", n=n, q=2))
        perm = [a.partition.label_to_id[(n - w, w)] for w in range(n + 1)]
        weight = {p: w for w, p in enumerate(perm)}
        realigned = [sorted((weight[j], c) for j, c in a.lp.rows[perm[i]])
                     for i in range(n + 1)]
        assert z.lp.rows == realigned
        assert z.lp.objective == [a.lp.objective[p] for p in perm]
        assert (exactlp.solve_min_transversal(z.lp).optimum
                == exactlp.solve_min_transversal(a.lp).optimum)


def test_count_rows_hand_example():
    balls = [[4, 3, 2, 7], [3], [], [6, 0]]
    assert reduction.count_rows(balls, lambda v: v % 3) == [
        [(0, 1), (1, 2), (2, 1)], [(0, 1)], [], [(0, 2)]]


def test_matrix_matches_enumeration_all_families():
    for spec in (ChannelSpec("z", n=5, r=2), ChannelSpec("mag_asym", n=3, q=4),
                 ChannelSpec("mag_sym", n=3, q=5), ChannelSpec("projective", n=5)):
        part = reduction.partition_by_canonical_form(spec)
        got = reduction._family_rows(spec, part)
        want = reduction.count_rows(
            (out_ball(spec, rep) for rep in part.representatives), part.classify)
        assert got == want, spec


def test_row_sums_are_degrees():
    spec = ChannelSpec("mag_sym", n=4, q=3)
    part = reduction.partition_by_canonical_form(spec)
    qlp = reduction.quotient_matrix(spec)
    for i, rep in enumerate(part.representatives):
        assert sum(a for _, a in qlp.lp.rows[i]) == len(out_ball(spec, rep))


def test_reduced_equals_full_tau():
    cases = [
        ChannelSpec("z", n=5, r=1), ChannelSpec("z", n=6, r=2),
        ChannelSpec("mag_asym", n=3, q=3), ChannelSpec("mag_sym", n=3, q=3),
        ChannelSpec("mag_sym", n=3, q=4), ChannelSpec("projective", n=4),
    ]
    for spec in cases:
        red = _solve(spec)
        full = oracle.brute_force_tau(spec)
        assert red.optimum == full, spec


def test_z5_reduced_value():
    sol = _solve(ChannelSpec("z", n=5, r=1))
    assert sol.optimum == Fraction(17, 2)
    sol2 = _solve(ChannelSpec("z", n=5, r=2))
    assert sol2.optimum.numerator // sol2.optimum.denominator == 4


def test_projective_n5_reduced_value():
    sol = _solve(ChannelSpec("projective", n=5))
    assert sol.optimum == 22


def test_lifted_weights_feasible_on_full_lp():
    for spec in (ChannelSpec("z", n=5, r=1), ChannelSpec("mag_asym", n=3, q=3),
                 ChannelSpec("mag_sym", n=3, q=4), ChannelSpec("projective", n=4)):
        part = reduction.partition_by_canonical_form(spec)
        red = _solve(spec)
        lifted = [red.primal[part.classify(v)] for v in enumerate_vertices(spec)]
        lp = reduction.full_hypergraph_lp(spec)
        rep = exactlp.verify_transversal(lp, lifted)
        assert rep.feasible and rep.bound == red.optimum, spec


def test_failed_rule_check_fails_every_time(monkeypatch, capsys):
    # the rule check runs on every call; a wrong rule is never trusted
    right = reduction._sym_rows

    def wrong(labels, label_to_id, q):
        rows = right(labels, label_to_id, q)
        j, a = rows[0][0]
        rows[0][0] = (j, a + 1)
        return rows

    monkeypatch.setattr(reduction, "_sym_rows", wrong)
    for _ in range(2):
        with pytest.raises(GspbError, match="disagrees"):
            reduction.quotient_matrix(ChannelSpec("mag_sym", n=4, q=3))
    code = cli.main(["compute", "--family", "mag-sym", "--q", "3", "--n", "4",
                     "--bound", "gspb"])
    assert code == 3 and "disagrees" in capsys.readouterr().err


def test_quotients_refuse_radius_two():
    for spec in (ChannelSpec("mag_asym", n=3, r=2, q=3),
                 ChannelSpec("mag_sym", n=3, r=2, q=3),
                 ChannelSpec("projective", n=4, r=2)):
        with pytest.raises(GspbError, match="cover radius 1 only"):
            reduction.quotient_matrix(spec)
