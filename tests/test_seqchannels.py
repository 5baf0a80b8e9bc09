import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gspb import exactlp, linsolve, magnitude, seqchannels as seq


def fl(x: Fraction) -> int:
    return x.numerator // x.denominator


def test_runs():
    assert seq.runs("001010010") == 7
    assert seq.runs("0000") == 1
    assert seq.runs("0101") == 4
    assert seq.runs([0, 1, 1]) == 2


def test_middle_one_runs():
    assert seq.middle_one_runs("001010010") == 4
    assert seq.middle_one_runs("0000") == 0
    assert seq.middle_one_runs("010") == 1


def test_count_profiles():
    for n in (1, 4, 9):
        assert seq.count_profiles(n, 1, 0) == 2
    assert seq.count_profiles(3, 3, 1) == 2  # 010 and 101
    assert seq.count_profiles(5, 4, 0) == 0


def test_profile_counts_sum_to_word_count():
    for n in range(1, 17):
        total = sum(
            seq.count_profiles(n, rho, mu)
            for rho in range(1, n + 1)
            for mu in range(0, max(rho - 1, 1))
        )
        assert total == 1 << n, n


def test_profile_marginal():
    from math import comb
    for n in range(2, 17):
        for rho in range(1, n + 1):
            marginal = sum(seq.count_profiles(n, rho, mu) for mu in range(rho))
            assert marginal == 2 * comb(n - 1, rho - 1), (n, rho)


def test_profile_counts_match_enumeration():
    from collections import Counter
    from gspb.kernels import run_stats
    for n in (3, 6, 10):
        rho, mu = run_stats(n)
        cnt = Counter(zip(rho.tolist(), mu.tolist()))
        for (r_, m_), c in cnt.items():
            assert seq.count_profiles(n, r_, m_) == c, (n, r_, m_)


def test_seq_weight():
    assert seq.seq_weight(7, 4) == Fraction(45, 343)
    assert seq.seq_weight(3, 1) == Fraction(1, 3)
    assert seq.seq_weight(1, 0) == 1


def test_deletion_bound_values():
    assert fl(seq.deletion_bound(7)) == 20
    assert fl(seq.deletion_bound(15)) == 2251
    assert fl(seq.deletion_bound(23)) == 368478


def test_grain_bound_values():
    # exact floors; the published column is off by one on several rows
    # (it disagrees with its own deletion-channel twin, which lists the
    # identical sums shifted by one in n)
    assert fl(seq.grain_bound(16)) == 7882
    assert fl(seq.grain_bound(9)) == 109
    assert fl(seq.grain_bound(23)) == 705511
    for n in range(5, 23):
        assert seq.deletion_bound(n + 1) == seq.grain_bound(n)


def test_deletion_mb_aspv():
    assert seq.deletion_mb(9) == Fraction(510, 8)
    assert fl(seq.deletion_mb(9)) == 63
    assert seq.deletion_mb(2) == 2
    assert seq.deletion_aspv(9) == Fraction(512, 10)
    assert fl(seq.deletion_aspv(9)) == 51


def test_grain_mb_variants():
    assert seq.grain_mb(5) == Fraction(62, 5)
    assert fl(seq.grain_mb(5)) == 12
    assert seq.grain_mb(7, even_improvement=True) == 36
    assert seq.grain_mb(2) == 3
    assert seq.grain_mb(16, even_improvement=True) == 8190
    assert fl(seq.grain_mb(16)) == 8191


def test_grain_aspv():
    assert seq.grain_aspv(10) == Fraction(2048, 11)
    assert seq.grain_aspv(2) == Fraction(8, 3)


def test_deletion_full_gspb_small():
    assert seq.deletion_full_gspb(5).optimum == 6
    sol = seq.deletion_full_gspb(7)
    assert fl(sol.optimum) == 17
    lp = seq.deletion_full_lp(7)
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum


def test_full_lp_cap():
    from gspb.channels import CapExceeded, EnumerationCapExceeded
    with pytest.raises(CapExceeded):
        seq.deletion_full_gspb(13, lp_cap=12)
    with pytest.raises(CapExceeded):
        seq.grain_full_gspb(13, lp_cap=12)
    # 2^n rows against the enumeration cap, checked before any row is built
    for build, solve in ((seq.deletion_full_lp, seq.deletion_full_gspb),
                         (seq.grain_full_lp, seq.grain_full_gspb)):
        assert build(10, cap=1024).num_rows == 1024
        with pytest.raises(EnumerationCapExceeded,
                           match="1024 .* rows exceed the enumeration cap 1023"):
            build(10, cap=1023)
        with pytest.raises(EnumerationCapExceeded):
            solve(10, enum_cap=1023)


def test_grain_full_gspb_sandwich():
    sol = seq.grain_full_gspb(6)
    nu_floor = fl(sol.optimum)
    assert nu_floor <= 20  # below the published reciprocal-degree bound
    assert sol.optimum <= seq.grain_bound(6) <= seq.grain_mb(6)


def test_ordering_chain():
    for n in (5, 8, 10):
        full = seq.deletion_full_gspb(n).optimum
        assert full <= seq.deletion_bound(n) <= seq.deletion_mb(n)


def test_orbit_route_matches_direct():
    # the symmetry-reduced path must reproduce the plain full-LP optimum
    for n in range(2, 11):
        direct = exactlp.solve_min_transversal(seq.deletion_full_lp(n))
        assert seq.deletion_full_gspb(n).optimum == direct.optimum, n
    for n in range(1, 10):
        direct = exactlp.solve_min_transversal(seq.grain_full_lp(n))
        assert seq.grain_full_gspb(n).optimum == direct.optimum, n


def _reference_word_orbits(m, use_reversal):
    """The orbit search as a plain loop over words: the reference for
    seqchannels._word_orbits."""
    full = (1 << m) - 1
    rev = [int(format(x, f"0{m}b")[::-1], 2) for x in range(1 << m)]
    orbit_of = [-1] * (1 << m)
    reps, sizes = [], []
    for x in range(1 << m):
        if orbit_of[x] >= 0:
            continue
        members = {x, x ^ full}
        if use_reversal:
            members |= {rev[x], rev[x] ^ full}
        oid = len(reps)
        reps.append(x)
        sizes.append(len(members))
        for y in members:
            orbit_of[y] = oid
    return reps, orbit_of, sizes


@pytest.mark.parametrize("use_reversal", [False, True])
def test_word_orbits_match_reference(use_reversal):
    for m in range(1, 13):
        assert (seq._word_orbits(m, use_reversal)
                == _reference_word_orbits(m, use_reversal)), m


class _Captured(Exception):
    pass


def _orbit_quotient(monkeypatch, family, n):
    """The quotient LP the orbit route hands to the solver, unsolved."""
    def capture(lp):
        raise _Captured(lp)

    monkeypatch.setattr(exactlp, "solve_min_transversal", capture)
    route = seq.deletion_full_gspb if family == "deletion" else seq.grain_full_gspb
    with pytest.raises(_Captured) as caught:
        route(n)
    return caught.value.args[0]


@pytest.mark.parametrize("family,ns", [("deletion", range(2, 13)),
                                       ("grain", range(1, 13))])
def test_orbit_quotient_matches_reference(monkeypatch, family, ns):
    for n in ns:
        if family == "deletion":
            m, full = n - 1, seq.deletion_full_lp(n)
        else:
            m, full = n, seq.grain_full_lp(n)
        _, v_orbit, v_sizes = _reference_word_orbits(m, family == "deletion")
        c_reps, _, _ = _reference_word_orbits(n, family == "deletion")
        full_rows = full.rows      # the property rebuilds every row per read
        rows = []
        for c in c_reps:
            counts = {}
            for j, _ in full_rows[c]:
                counts[v_orbit[j]] = counts.get(v_orbit[j], 0) + 1
            rows.append(sorted(counts.items()))
        lp = _orbit_quotient(monkeypatch, family, n)
        assert (lp.rows, lp.objective) == (rows, v_sizes), (family, n)


@pytest.mark.parametrize("name", ["grain-9", "deletion-10", "mag-sym(7,5)"])
def test_one_factorisation_per_basis(monkeypatch, name):
    # the crossover's primal and dual share one float LU of one basis, and
    # no mod-p selection or Dixon solve runs
    if name.startswith("mag"):
        lp = magnitude.sym_quotient(7, 5).lp
    else:
        family, n = name.split("-")
        lp = _orbit_quotient(monkeypatch, family, int(n))
        monkeypatch.undo()
    counts = dict.fromkeys(("lu_factor", "select_pivots_mod", "dixon_solve"), 0)
    for mod, fn in ((scipy.linalg, "lu_factor"), (linsolve, "select_pivots_mod"),
                    (linsolve, "dixon_solve")):
        def spy(*args, real=getattr(mod, fn), fn=fn, **kwargs):
            counts[fn] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, fn, spy)
    sol = exactlp.solve_min_transversal(lp)
    assert counts == {"lu_factor": 1, "select_pivots_mod": 0, "dixon_solve": 0}
    assert sol.notes.endswith("float basis")
    assert exactlp.check_certificate(lp, sol.primal, sol.dual) == sol.optimum


# the exact grain n=12 GSPB optimum, the largest exact instance
GRAIN_12 = Fraction(
    int("5069950927925760648285531558743541564219216083284928369316351584"
        "8655962280985776873449138242653840751171423142645400171149936375"
        "9841613947713209628765958253395533775117680001195794037480951944"
        "6096349929211419845882578147618316496313564559497899483754577166"
        "4581410415702164385853337466854533566496968685504477135933248647"
        "36260783754459168"),
    int("8601203987249444148158919156130784150901362572941206728297837531"
        "5580590301222590021550391169536740642401218290406583437832113167"
        "0289320260055489640144704706347227777560881262213052836852644607"
        "4900854007067210677407501564761016504405873498038294280346381299"
        "8208578178606412446661888946149463733805538959640072237410109565"
        "38287059397533"))


def test_grain_12_optimum_pinned():
    # the largest exact instance; its witnesses hold on the full 4096-row LP
    sol = seq.grain_full_gspb(12)
    assert sol.optimum == GRAIN_12
    assert exactlp.check_certificate(seq.grain_full_lp(12), sol.primal,
                                     sol.dual) == GRAIN_12


def test_theorem_transversals_feasible():
    for n in (5, 9, 12):
        assert seq.verify_deletion_transversal(n).feasible
    for n in (5, 9, 12):
        assert seq.verify_grain_transversal(n).feasible


def _reference_report(lp, weights):
    """Per-word Fraction reference of verify_transversal: the scale, the
    scaled row sums in Python ints, and the fields derived from them."""
    scale = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (scale // w.denominator) for w in weights]
    ptr, cols = lp.indptr.tolist(), lp.indices.tolist()
    sums = [sum(scaled[j] for j in cols[s:e]) for s, e in zip(ptr, ptr[1:])]
    violated = [i for i, v in enumerate(sums) if v < scale]
    negative = sum(1 for v in scaled if v < 0)
    feasible = not violated and not negative
    return {"scale": scale, "row_sums": sums,
            "min_slack": Fraction(min(sums) - scale, scale),
            "num_violated": len(violated) + negative,
            "violated_rows": violated[:32], "feasible": feasible,
            "bound": sum(weights, Fraction(0)) if feasible else None}


def _report_fields(rep):
    return {"scale": rep.scale, "row_sums": rep.row_sums,
            "min_slack": rep.min_slack, "num_violated": rep.num_violated,
            "violated_rows": rep.violated_rows, "feasible": rep.feasible,
            "bound": rep.bound}


@pytest.fixture(scope="module")
def word_weights():
    # seq_weight of each word from its own string scan, one Fraction per word
    def weights(m):
        return [seq.seq_weight(seq.runs(word), seq.middle_one_runs(word))
                for word in (format(x, f"0{m}b") for x in range(1 << m))]
    return {m: weights(m) for m in range(12, 17)}


@pytest.mark.parametrize("family,n", [(f, n) for f in ("deletion", "grain")
                                      for n in range(13, 17)])
def test_profile_checks_match_a_per_word_reference(word_weights, family, n):
    # every report field, on the profile weights and on a copy perturbed so
    # that rows are violated (a negative weight and a weight cut to zero)
    m = n - 1 if family == "deletion" else n
    verify = getattr(seq, f"verify_{family}_transversal")
    lp = getattr(seq, f"{family}_full_lp")(n)
    weights = word_weights[m]
    assert seq.theorem_weight_vector(m) == weights
    rep = verify(n)
    assert rep.feasible
    assert all(type(s) is int for s in rep.row_sums)
    assert _report_fields(rep) == _reference_report(lp, weights)
    perturbed = list(weights)
    perturbed[0] = Fraction(-1, 7)
    perturbed[(1 << m) // 3] = Fraction(0)
    rep = exactlp.verify_transversal(lp, perturbed)
    want = _reference_report(lp, perturbed)
    assert want["num_violated"] > 1 and not rep.feasible
    assert _report_fields(rep) == want


@pytest.mark.parametrize("n,dtype", [(16, np.int64), (17, object)])
def test_grain_profile_check_sums_in_int64_up_to_n16(monkeypatch, n, dtype):
    # the scale has 58 bits at n=16, so max|W| L < 2^63; at n=17 it has 71
    seen = []
    real = linsolve.exact_product

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(linsolve, "exact_product", recording)
    assert seq.verify_grain_transversal(n).feasible
    assert seen == [dtype]


def test_ball_size_is_run_count():
    from gspb.channels import ChannelSpec, out_ball
    from gspb.kernels import run_stats
    for n in (4, 8):
        rho_n, _ = run_stats(n)
        dspec = ChannelSpec("deletion", n=n)
        gspec = ChannelSpec("grain", n=n)
        for x in range(1 << n):
            assert len(out_ball(dspec, x)) == rho_n[x]
            assert len(out_ball(gspec, x)) == rho_n[x]


def test_ball_members_have_fewer_runs():
    from gspb.kernels import run_stats, deletion_targets, grain_targets
    for n in (5, 9, 12):
        rho_small, _ = run_stats(n - 1)
        rho_n, _ = run_stats(n)
        dt = deletion_targets(n)
        gt = grain_targets(n)
        for x in range(1 << n):
            assert all(rho_small[y] <= rho_n[x] for y in dt[x].tolist() if y >= 0)
            assert all(rho_n[y] <= rho_n[x] for y in gt[x].tolist() if y >= 0)


def test_ball_sizes_equal_runs_up_to_12():
    import numpy as np
    from gspb.kernels import run_stats, deletion_targets, grain_targets
    for n in (10, 12):
        rho, _ = run_stats(n)
        # one target per run, the repeats marked -1
        dt = deletion_targets(n)
        distinct = np.array([len(set(row[row >= 0].tolist())) for row in dt])
        assert np.array_equal(distinct, rho.astype(distinct.dtype))
        assert np.array_equal((dt >= 0).sum(axis=1), distinct)
        gt = grain_targets(n)
        sizes = 1 + (gt >= 0).sum(axis=1)
        assert np.array_equal(sizes, rho.astype(sizes.dtype))


def _sort_and_compare_rows(cand):
    """CSR arrays of the rows of ``cand``: each line sorted, with entries
    equal to their left neighbour and the -1 sentinels dropped."""
    cand = np.sort(cand, axis=1)
    keep = cand >= 0
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return indptr, cand[keep]


def _raw_targets(n):
    """Every deletion target with repeats, and every smear with -1 for none,
    in int64: the ball rules without the kernels."""
    words = np.arange(1 << n, dtype=np.int64)
    deletions = np.stack([((words >> (i + 1)) << i) | (words & ((1 << i) - 1))
                          for i in range(n)], axis=1)
    smears = np.stack([words] + [
        np.where(((words >> i) & 1) != ((words >> (i + 1)) & 1), words ^ (1 << i), -1)
        for i in range(n - 1)], axis=1)
    return deletions, smears


@pytest.mark.parametrize("n", range(11, 18))
def test_full_lp_rows_match_a_sort_and_compare_reference(n):
    # the kernels mark repeats structurally; a generic dedupe of the raw
    # targets must give the same arrays, in int64 (array_equal ignores dtype)
    for lp, cand in zip((seq.deletion_full_lp(n), seq.grain_full_lp(n)), _raw_targets(n)):
        indptr, indices = _sort_and_compare_rows(cand)
        assert lp.indptr.dtype == lp.indices.dtype == lp.data.dtype == np.int64
        assert np.array_equal(lp.indptr, indptr) and np.array_equal(lp.indices, indices)
        assert (lp.data == 1).all()


@pytest.mark.parametrize("m", [1, 2, 7, 12, 16, 17])
def test_profile_weights_scale_the_theorem_weights(m):
    # the scale is the LCM of the word weights' denominators; int64 up to
    # m=16 (58 bits) and Python ints at m=17 (71 bits)
    weights = seq.theorem_weight_vector(m)
    scaled = seq.profile_weights(m)
    assert scaled.scale == math.lcm(*(w.denominator for w in weights))
    assert scaled.numer.dtype == (object if m == 17 else np.int64)
    assert [Fraction(x, scaled.scale) for x in scaled.numer.tolist()] == weights


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=40))
def test_run_scan_properties(word):
    rho = seq.runs(word)
    mu = seq.middle_one_runs(word)
    assert 1 <= rho <= len(word)
    if rho >= 2:
        assert 0 <= mu <= rho - 2
    else:
        assert mu == 0
