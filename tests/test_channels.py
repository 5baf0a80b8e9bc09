import dataclasses
from fractions import Fraction

import pytest

from gspb import channels as ch


def test_enumerate_z():
    spec = ch.ChannelSpec("z", n=2)
    assert ch.enumerate_vertices(spec) == [0b00, 0b01, 0b10, 0b11]


def test_enumerate_mag():
    spec = ch.ChannelSpec("mag_asym", n=1, q=3)
    assert ch.enumerate_vertices(spec) == [(0,), (1,), (2,)]


def test_enumerate_projective_counts():
    # subspace counts per dimension must equal the Gaussian binomials
    for n in range(1, 7):
        subs = ch.enumerate_subspaces(n)
        for k in range(n + 1):
            assert sum(1 for s in subs if len(s) == k) == ch.gaussian_binomial(n, k)
    assert len(ch.enumerate_subspaces(2)) == 5


def test_gaussian_binomial_values():
    assert ch.gaussian_binomial(4, 2) == 35
    assert all(ch.gaussian_binomial(n, 0) == 1 for n in range(8))
    for n in range(13):
        for m in range(n + 1):
            assert ch.gaussian_binomial(n, m) == ch.gaussian_binomial(n, n - m)


def test_rref_canonicalizes_any_basis():
    for n in (3, 4, 5):
        for sub in ch.enumerate_subspaces(n):
            if not sub:
                continue
            members = ch.span(sub)
            # a scrambled generating set must canonicalize back
            scrambled = [members[-1] ^ members[1], members[-1]] + list(sub)
            assert ch.rref(scrambled) == sub


def test_enum_cap():
    spec = ch.ChannelSpec("z", n=10)
    with pytest.raises(ch.EnumerationCapExceeded):
        ch.enumerate_vertices(spec, cap=100)


def test_z_balls():
    spec = ch.ChannelSpec("z", n=2)
    assert ch.out_ball(spec, 0b11) == {0b11, 0b01, 0b10}
    assert ch.out_ball(spec, 0b00) == {0b00}


def test_z_degree_formula():
    # |out_ball| = sum_i C(weight, i) for i <= r
    for n in (4, 7, 10):
        for r in (1, 2, 3):
            spec = ch.ChannelSpec("z", n=n, r=r)
            for x in (0, (1 << n) - 1, 0b1011 % (1 << n)):
                w = bin(x).count("1")
                assert len(ch.out_ball(spec, x)) == ch.z_degree(n, w, r)


def test_deletion_ball_of_known_word():
    # the word 001010010 has 7 runs, so 7 distinct deletions
    spec = ch.ChannelSpec("deletion", n=9)
    x = int("001010010", 2)
    assert len(ch.out_ball(spec, x)) == 7


def test_build_hypergraph_shapes():
    assert ch.build_hypergraph(ch.ChannelSpec("z", n=2)).num_edges == 4
    hg = ch.build_hypergraph(ch.ChannelSpec("deletion", n=3))
    assert hg.num_vertices == 4 and hg.num_edges == 8
    hg2 = ch.build_hypergraph(ch.example_two())
    assert hg2.num_edges == 6 and all(len(e) == 2 for e in hg2.edges)


def test_grain_degree_is_runs():
    from gspb.kernels import run_stats
    for n in (3, 6):
        spec = ch.ChannelSpec("grain", n=n)
        rho, _ = run_stats(n)
        for x in range(1 << n):
            assert len(ch.out_ball(spec, x)) == rho[x]


def test_projective_ball_size():
    for n in (3, 4, 5):
        spec = ch.ChannelSpec("projective", n=n)
        for sub in ch.enumerate_subspaces(n):
            k = len(sub)
            expect = (2**k - 1) + (2**(n - k) - 1) + 1
            assert len(ch.out_ball(spec, sub)) == expect


@pytest.mark.parametrize("family,n,q", [
    ("z", 5, None), ("grain", 5, None), ("mag_asym", 3, 3), ("mag_sym", 3, 3),
    ("projective", 4, None),
])
def test_out_ball_contains_center(family, n, q):
    base = ch.ChannelSpec(family, n=n, q=q)
    for r in (1, 2):
        spec = dataclasses.replace(base, r=r)
        for x in ch.enumerate_vertices(spec):
            assert x in ch.out_ball(spec, x)


def test_example4_structure():
    spec = ch.example_four(3)
    assert spec.n == ch.vertex_count(spec) == 9
    sizes = [len(ch.out_ball(spec, v)) for v in range(9)]
    assert sizes[:3] == [3, 3, 3] and sizes[3:] == [7] * 6
    assert ch.average_ball_size(spec) == Fraction(3 * 3 + 6 * 7, 9)


def test_spec_validation():
    with pytest.raises(ValueError):
        ch.ChannelSpec("nope", n=3)
    with pytest.raises(ValueError):
        ch.ChannelSpec("mag_asym", n=3)
    with pytest.raises(ValueError):
        ch.ChannelSpec("z", n=3, q=4)
    with pytest.raises(ValueError):
        ch.ChannelSpec("explicit", n=2, explicit_edges=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="leaves the vertex range"):
        ch.ChannelSpec("explicit", n=2, explicit_edges=((0, 2),))


def test_check_radius_is_the_one_radius_rule():
    specs = [ch.ChannelSpec("z", n=4), ch.ChannelSpec("grain", n=4),
             ch.ChannelSpec("deletion", n=4), ch.ChannelSpec("projective", n=4),
             ch.ChannelSpec("mag_asym", n=3, q=3),
             ch.ChannelSpec("mag_sym", n=3, q=3), ch.example_two()]
    for spec in specs:
        ch.check_radius(spec)
        wide = dataclasses.replace(spec, r=2)
        if spec.family in ("z", "explicit"):
            ch.check_radius(wide)
        else:
            with pytest.raises(ch.GspbError,
                               match=f"{spec.family} bounds cover radius 1 only"):
                ch.check_radius(wide)
    # deletion balls exist at radius 1 only; the others enumerate at any r
    with pytest.raises(ch.GspbError):
        ch.out_ball(ch.ChannelSpec("deletion", n=4, r=2), 0)
    assert len(ch.out_ball(ch.ChannelSpec("grain", n=4, r=2), 0b0101)) == 7
