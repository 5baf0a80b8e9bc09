from fractions import Fraction

import pytest

from gspb import oracle
from gspb.channels import ChannelSpec, OracleCapExceeded, example_three, example_two


def test_tau_example2():
    assert oracle.brute_force_tau(example_two()) == 1


def test_tau_z5_matches_quotient():
    assert oracle.brute_force_tau(ChannelSpec("z", n=5)) == Fraction(17, 2)


def test_tau_deletion5():
    tau = oracle.brute_force_tau(ChannelSpec("deletion", n=5))
    assert tau.numerator // tau.denominator == 6


def test_matching_z2():
    nu, witness = oracle.brute_force_matching(ChannelSpec("z", n=2))
    assert nu == 2
    assert witness == [0b00, 0b11]


def test_matching_example3():
    nu, witness = oracle.brute_force_matching(example_three())
    assert nu == 4
    assert witness == [1, 2, 3, 4]


def test_matching_singletons():
    # a graph with no edges has singleton balls: all of them fit
    spec = ChannelSpec("explicit", n=5, explicit_edges=())
    nu, witness = oracle.brute_force_matching(spec)
    assert nu == 5 and witness == [0, 1, 2, 3, 4]


def test_matching_bounded_by_tau_floor():
    for spec in (ChannelSpec("z", n=4), ChannelSpec("grain", n=4),
                 ChannelSpec("mag_sym", n=2, q=3), example_two()):
        res = oracle.oracle_result(spec)
        floor = res.tau_star_full.numerator // res.tau_star_full.denominator
        assert res.nu_integral <= floor


def test_cap():
    with pytest.raises(OracleCapExceeded):
        oracle.brute_force_tau(ChannelSpec("z", n=13), cap=4096)


def test_counterexample_suite():
    facts = {f.name: f for f in oracle.counterexample_suite()}
    ex2 = facts["example2"]
    assert ex2.tau_star == 1 and ex2.naive_packing_value == 3
    ex3 = facts["example3"]
    assert ex3.aspv == Fraction(25, 9) and ex3.max_code == 4
    assert ex3.max_code > ex3.aspv
    ex4 = facts["example4"]
    assert ex4.aspv == Fraction(27, 17) and ex4.max_code >= 3
    assert ex4.max_code > ex4.aspv


def test_witness_deterministic():
    a = oracle.brute_force_matching(ChannelSpec("z", n=4))
    b = oracle.brute_force_matching(ChannelSpec("z", n=4))
    assert a == b
