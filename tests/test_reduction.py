from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspb import cli, exactlp, oracle, reduction
from gspb.channels import (ChannelSpec, GspbError, QuotientUnavailable,
                           enumerate_vertices, gaussian_binomial, out_ball)


def test_z_partition_sizes():
    part = reduction.partition_by_canonical_form(ChannelSpec("z", n=5))
    assert part.sizes == [1, 5, 10, 10, 5, 1]
    assert part.classify(0b10110) == 3


def test_asym_partition_count():
    spec = ChannelSpec("mag_asym", n=5, q=3)
    part = reduction.partition_by_canonical_form(spec)
    assert part.num_classes == comb(7, 2) == 21 == reduction.magnitude_class_count(spec)
    assert sum(part.sizes) == 3**5


def test_sym_partition_count():
    part = reduction.partition_by_canonical_form(ChannelSpec("mag_sym", n=3, q=4))
    assert part.num_classes == comb(4, 1) == 4
    assert sum(part.sizes) == 4**3
    # the count the enumeration cap reads, for even and odd q
    for spec in (ChannelSpec("mag_sym", n=3, q=4), ChannelSpec("mag_sym", n=6, q=5)):
        assert reduction.magnitude_class_count(spec) == len(
            reduction.partition_by_canonical_form(spec).labels)


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


def _flattened(balls, class_of):
    """(row pointers, member class ids) of a list of balls."""
    indptr = np.cumsum([0] + [len(ball) for ball in balls])
    return indptr, [class_of(v) for ball in balls for v in ball]


def _pairs(csr):
    ptr = csr.indptr.tolist()
    return [list(zip(csr.indices[s:e].tolist(), csr.data[s:e].tolist()))
            for s, e in zip(ptr, ptr[1:])]


def test_count_rows_hand_example():
    balls = [[4, 3, 2, 7], [3], [], [6, 0]]
    got = reduction.count_rows(*_flattened(balls, lambda v: v % 3), 3)
    assert _pairs(got) == [[(0, 1), (1, 2), (2, 1)], [(0, 1)], [], [(0, 2)]]
    assert got.indptr.tolist() == [0, 3, 4, 4, 5] and got.shape == (4, 3)
    assert got.indices.tolist() == [0, 1, 2, 0, 0]
    assert got.data.tolist() == [1, 2, 1, 1, 2]
    assert (got.indptr.dtype, got.indices.dtype, got.data.dtype) == (np.int64,) * 3


def _same_csr(got, want) -> bool:
    return all(np.array_equal(a, b) for a, b in
               ((got.indptr, want.indptr), (got.indices, want.indices),
                (got.data, want.data)))


def test_matrix_matches_enumeration_all_families():
    for spec in (ChannelSpec("z", n=5, r=2), ChannelSpec("mag_asym", n=3, q=4),
                 ChannelSpec("mag_sym", n=3, q=5), ChannelSpec("projective", n=5)):
        part = reduction.partition_by_canonical_form(spec)
        got = reduction._family_csr(spec, part)
        want = reduction.count_rows(
            *_flattened([out_ball(spec, rep) for rep in part.representatives],
                        part.classify), part.num_classes)
        assert _same_csr(got, want), spec
        assert _pairs(got) == _pairs(want), spec


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


def _off_by_one(right):
    """A rule whose first triple, row 0's entry at the least column, counts
    one member too many."""
    def wrong(comps, q):
        rows, cols, coeffs = right(comps, q)
        coeffs = coeffs.copy()
        coeffs[0] += 1
        return rows, cols, coeffs
    return wrong


def test_failed_rule_check_fails_every_time(monkeypatch, capsys):
    # the rule check runs on every call; a wrong rule is never trusted
    monkeypatch.setattr(reduction, "_sym_rows", _off_by_one(reduction._sym_rows))
    for _ in range(2):
        with pytest.raises(GspbError, match="disagrees"):
            reduction.quotient_matrix(ChannelSpec("mag_sym", n=4, q=3))
    code = cli.main(["compute", "--family", "mag-sym", "--q", "3", "--n", "4",
                     "--bound", "gspb"])
    assert code == 3 and "disagrees" in capsys.readouterr().err


def test_unmerged_projective_rule_is_refused(monkeypatch):
    # the assembler adds no repeated entries: a projective rule that leaves
    # its step up beside its step down at n = 2k (the probe n = 4) emits two
    # entries at one (row, column), and the rule check refuses it
    def unmerged(n):
        rows, cols, coeffs = [], [], []
        for k in range(n // 2 + 1):
            entries = [(k, 1), (min(k + 1, n - k - 1), (1 << (n - k)) - 1)]
            if k >= 1:
                entries.append((k - 1, (1 << k) - 1))
            rows += [k] * len(entries)
            cols += [j for j, _ in entries]
            coeffs += [a for _, a in entries]
        return rows, cols, coeffs
    monkeypatch.setattr(reduction, "_projective_rows", unmerged)
    for n in (4, 6):
        with pytest.raises(GspbError, match="disagrees"):
            reduction.quotient_matrix(ChannelSpec("projective", n=n))


def test_quotients_refuse_radius_two():
    for spec in (ChannelSpec("mag_asym", n=3, r=2, q=3),
                 ChannelSpec("mag_sym", n=3, r=2, q=3),
                 ChannelSpec("projective", n=4, r=2)):
        with pytest.raises(GspbError, match="cover radius 1 only"):
            reduction.quotient_matrix(spec)


@pytest.mark.parametrize("family,n,q", [("mag_asym", 6, 4), ("mag_asym", 4, 3),
                                        ("mag_sym", 5, 4), ("mag_sym", 3, 5)])
def test_only_the_enumeration_is_cached(monkeypatch, family, n, q):
    # after a call that passed, the probe's balls are not enumerated again,
    # but the rule is still evaluated and compared: a wrong rule patched in
    # afterwards is refused on the next call of the same key
    spec = ChannelSpec(family, n=n, q=q)
    right = reduction.quotient_matrix(spec)
    balls = []
    monkeypatch.setattr(reduction, "out_ball",
                        lambda *args: balls.append(args) or out_ball(*args))
    again = reduction.quotient_matrix(spec)
    assert _same_csr(again.lp, right.lp) and balls == []
    rule = "_asym_rows" if family == "mag_asym" else "_sym_rows"
    monkeypatch.setattr(reduction, rule, _off_by_one(getattr(reduction, rule)))
    for _ in range(2):
        with pytest.raises(GspbError, match="disagrees"):
            reduction.quotient_matrix(spec)
    assert balls == []


def test_reference_arrays_are_read_only():
    ref = reduction._reference("mag_sym", 3, 1, 3)
    for a in (ref.indptr, ref.indices, ref.data):
        with pytest.raises(ValueError):
            a[0] = 7


# the row-list rules the array rules replaced, kept as their reference

def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _ref_compositions(total - first, parts - 1):
            yield (first,) + rest


def _ref_multinomial(n, parts):
    out, rem = 1, n
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


def _ref_moved(c, label_to_id, src, dst):
    moved = list(c)
    moved[src] -= 1
    moved[dst] += 1
    return label_to_id[tuple(moved)]


def _ref_asym_rows(labels, label_to_id, q):
    rows = []
    for i, c in enumerate(labels):
        row = Counter({i: 1})
        for k in range(1, q):
            if c[k] > 0:
                row[_ref_moved(c, label_to_id, k, k - 1)] += c[k]
        rows.append(sorted(row.items()))
    return rows


def _ref_sym_rows(labels, label_to_id, q):
    L = (q + 1) // 2
    rows = []
    for i, c in enumerate(labels):
        row = Counter({i: 1})
        for lab in range(L):
            if c[lab] == 0:
                continue
            if lab + 1 <= L - 1:
                row[_ref_moved(c, label_to_id, lab, lab + 1)] += c[lab]
            if lab >= 1:
                mult = 2 if (q % 2 == 1 and lab == L - 1) else 1
                row[_ref_moved(c, label_to_id, lab, lab - 1)] += mult * c[lab]
            if q % 2 == 0 and lab == L - 1:
                row[i] += c[lab]
        rows.append(sorted(row.items()))
    return rows


def _ref_z_rows(n, r):
    return [[(ell - i, comb(ell, i)) for i in range(min(ell, r), -1, -1)]
            for ell in range(n + 1)]


def _ref_projective_rows(n):
    rows = []
    for k in range(n // 2 + 1):
        row = Counter({k: 1})
        row[min(k + 1, n - k - 1)] += (1 << (n - k)) - 1
        if k >= 1:
            row[k - 1] += (1 << k) - 1
        rows.append(sorted(row.items()))
    return rows


def _ref_quotient(spec):
    """(labels, sizes, LP) of the row-list rules and ``CoveringLP.from_rows``."""
    n, q = spec.n, spec.q
    if spec.family == "z":
        labels = list(range(n + 1))
        sizes = [comb(n, k) for k in labels]
        rows = _ref_z_rows(n, spec.r)
    elif spec.family == "projective":
        labels = list(range(n // 2 + 1))
        sizes = [gaussian_binomial(n, k) + (gaussian_binomial(n, n - k) if k != n - k else 0)
                 for k in labels]
        rows = _ref_projective_rows(n)
    else:
        parts = q if spec.family == "mag_asym" else (q + 1) // 2
        labels = sorted(_ref_compositions(n, parts))
        label_to_id = {lab: i for i, lab in enumerate(labels)}
        if spec.family == "mag_asym":
            sizes = [_ref_multinomial(n, c) for c in labels]
            rows = _ref_asym_rows(labels, label_to_id, q)
        else:
            sizes = [_ref_multinomial(n, c) << (n - q % 2 * c[-1]) for c in labels]
            rows = _ref_sym_rows(labels, label_to_id, q)
    return labels, sizes, exactlp.CoveringLP.from_rows(sizes, rows)


def _assert_matches_reference(spec):
    labels, sizes, want = _ref_quotient(spec)
    got = reduction.quotient_matrix(spec)
    assert got.partition.labels == labels and got.partition.sizes == sizes
    assert all(type(s) is int for s in got.partition.sizes)
    assert got.lp.objective == want.objective
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.lp, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), (spec, name)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["mag_asym", "mag_sym"]), q=st.integers(2, 7),
       n=st.integers(1, 14))
@example(family="mag_asym", q=7, n=14)
@example(family="mag_sym", q=7, n=14)
@example(family="mag_sym", q=6, n=14)
@example(family="mag_sym", q=2, n=14)
@example(family="mag_asym", q=2, n=1)
def test_array_rules_match_the_row_list_rules(family, q, n):
    _assert_matches_reference(ChannelSpec(family, n=n, q=q))


@pytest.mark.parametrize("family,r,top", [("z", r, 64) for r in range(1, 5)]
                         + [("projective", 1, 66)])
def test_z_and_projective_rules_match_the_row_list_rules(family, r, top):
    # past n = 63 the projective coefficients 2^(n-k) - 1 pass int64 and
    # stay Python ints, as from_rows keeps them
    for n in range(max(r, 2 if family == "projective" else 1), top + 1):
        _assert_matches_reference(ChannelSpec(family, n=n, r=r))


@pytest.mark.parametrize("family,n,q", [("mag_asym", 2, 45), ("mag_asym", 3, 33),
                                        ("mag_sym", 2, 81), ("mag_sym", 4, 55),
                                        ("mag_asym", 5, 25)])
def test_array_rules_hold_where_radix_keys_pass_int64(family, n, q):
    # n (n+1)^(parts-1), the largest base-(n+1) key of a composition, passes
    # 2^63 here; at mag_sym n=4 q=55 and mag_asym n=5 q=25 the probe's keys
    # stay below it, so the rule check alone would not see a wrapped key.
    # The class ids are lexicographic ranks and never pass the class count.
    parts = q if family == "mag_asym" else (q + 1) // 2
    assert n * (n + 1) ** (parts - 1) >= 1 << 63
    _assert_matches_reference(ChannelSpec(family, n=n, q=q))
