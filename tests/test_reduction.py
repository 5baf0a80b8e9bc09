from fractions import Fraction
from math import comb

import pytest

from gspb import exactlp, oracle, reduction
from gspb.channels import ChannelSpec, QuotientUnavailable, enumerate_vertices


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


def test_z_quotient_row():
    qlp = reduction.quotient_matrix(ChannelSpec("z", n=3, r=1))
    # weight-2 row: two weight-1 members plus itself
    assert qlp.matrix[2] == [0, 2, 1, 0]


def test_projective_quotient_row():
    qlp = reduction.quotient_matrix(ChannelSpec("projective", n=4))
    # dimension-1 row: 1 onto dim 0, itself, and 7 onto dim 2
    assert qlp.matrix[1] == [1, 1, 7]


def test_asym_q2_equals_z():
    # compositions sort by zero count, weight classes by weight; align first
    for n in (3, 4, 6):
        z = reduction.quotient_matrix(ChannelSpec("z", n=n, r=1))
        a = reduction.quotient_matrix(ChannelSpec("mag_asym", n=n, q=2))
        perm = [a.partition.label_to_id[(n - w, w)] for w in range(n + 1)]
        realigned = [[a.matrix[perm[i]][perm[j]] for j in range(n + 1)]
                     for i in range(n + 1)]
        assert z.matrix == realigned
        assert z.partition.sizes == [a.partition.sizes[p] for p in perm]
        zs = reduction.reduced_gspb(ChannelSpec("z", n=n, r=1))
        asym = reduction.reduced_gspb(ChannelSpec("mag_asym", n=n, q=2))
        assert zs.optimum == asym.optimum


def test_matrix_matches_enumeration_all_families():
    for spec in (ChannelSpec("z", n=5, r=2), ChannelSpec("mag_asym", n=3, q=4),
                 ChannelSpec("mag_sym", n=3, q=5), ChannelSpec("projective", n=5)):
        part = reduction.partition_by_canonical_form(spec)
        got = reduction._family_matrix(spec, part)
        want = reduction._matrix_by_enumeration(spec, part)
        assert got == want, spec


def test_row_sums_are_degrees():
    from gspb.channels import out_ball
    spec = ChannelSpec("mag_sym", n=4, q=3)
    part = reduction.partition_by_canonical_form(spec)
    qlp = reduction.quotient_matrix(spec)
    for i, rep in enumerate(part.representatives):
        assert sum(qlp.matrix[i]) == len(out_ball(spec, rep))


def test_reduced_equals_full_tau():
    cases = [
        ChannelSpec("z", n=5, r=1), ChannelSpec("z", n=6, r=2),
        ChannelSpec("mag_asym", n=3, q=3), ChannelSpec("mag_sym", n=3, q=3),
        ChannelSpec("mag_sym", n=3, q=4), ChannelSpec("projective", n=4),
    ]
    for spec in cases:
        red = reduction.reduced_gspb(spec)
        full = oracle.brute_force_tau(spec)
        assert red.optimum == full, spec


def test_z5_reduced_value():
    sol = reduction.reduced_gspb(ChannelSpec("z", n=5, r=1))
    assert sol.optimum == Fraction(17, 2)
    sol2 = reduction.reduced_gspb(ChannelSpec("z", n=5, r=2))
    assert sol2.optimum.numerator // sol2.optimum.denominator == 4


def test_projective_n5_reduced_value():
    sol = reduction.reduced_gspb(ChannelSpec("projective", n=5))
    assert sol.optimum == 22


def test_lifted_weights_feasible_on_full_lp():
    for spec in (ChannelSpec("z", n=5, r=1), ChannelSpec("mag_asym", n=3, q=3),
                 ChannelSpec("mag_sym", n=3, q=4), ChannelSpec("projective", n=4)):
        part = reduction.partition_by_canonical_form(spec)
        red = reduction.reduced_gspb(spec)
        vertices = enumerate_vertices(spec)
        lifted = reduction.lift_class_weights(part, red.primal, vertices)
        lp = reduction.full_hypergraph_lp(spec)
        rep = exactlp.verify_transversal(lp, lifted)
        assert rep.feasible and rep.bound == red.optimum, spec


def test_failed_rule_check_fails_every_time(monkeypatch):
    # a rule that disagrees with ball enumeration must never be cached as valid
    right = reduction._sym_matrix

    def wrong(labels, label_to_id, q):
        mat = right(labels, label_to_id, q)
        mat[0][0] += 1
        return mat

    monkeypatch.setattr(reduction, "_VALIDATED", set())
    monkeypatch.setattr(reduction, "_sym_matrix", wrong)
    for _ in range(2):
        with pytest.raises(AssertionError, match="disagrees"):
            reduction.quotient_matrix(ChannelSpec("mag_sym", n=4, q=3))


def test_quotients_refuse_radius_two():
    from gspb.channels import GspbError
    for spec in (ChannelSpec("mag_asym", n=3, r=2, q=3),
                 ChannelSpec("mag_sym", n=3, r=2, q=3),
                 ChannelSpec("projective", n=4, r=2)):
        with pytest.raises(GspbError, match="cover radius 1 only"):
            reduction.quotient_matrix(spec)
