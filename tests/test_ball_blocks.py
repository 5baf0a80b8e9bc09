"""The full deletion and grain LPs read in blocks of centres, against the
one-block LP: rows, profile reports, the orbit quotient and its lift."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gspb import bounds, exactlp, kernels, linsolve, seqchannels as seq
from gspb.channels import ChannelSpec

SMALL = 64  # centres per block under test: n=8 has four blocks

CASES = ([("deletion", n) for n in range(2, 13)]
         + [("grain", n) for n in range(1, 13)])
IDS = [f"{family}-{n}" for family, n in CASES]


def _full(family, n):
    return getattr(seq, f"{family}_full_lp")(n)


def _ground(family, n):
    return n - 1 if family == "deletion" else n


def _fields(rep):
    return {"feasible": rep.feasible, "bound": rep.bound,
            "min_slack": rep.min_slack, "num_violated": rep.num_violated,
            "violated_rows": rep.violated_rows, "tight_rows": rep.tight_rows,
            "negative_entries": rep.negative_entries,
            "scale": rep.scale}


@pytest.mark.parametrize("family,n", CASES, ids=IDS)
def test_blocks_are_the_full_lp_rows(monkeypatch, family, n):
    full = _full(family, n)
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    blocks = seq.ball_blocks(family, n)
    assert len(blocks) == max(1, (1 << n) // SMALL)
    assert blocks.shape == full.shape and blocks.objective == full.objective
    for start, block in zip(blocks.bounds, blocks):
        # a block is the kernels' (width, rows) array of unit targets, whose
        # column i, sorted and without its -1s, is row start + i of the CSR LP
        assert isinstance(block, exactlp.UnitTargets)
        stop = start + block.num_rows
        targets = block.targets
        assert targets.ndim == 2 and targets.dtype.kind == "i"
        assert ((targets == -1) | (targets >= 0) & (targets < full.num_vars)).all()
        lines = np.sort(targets, axis=0).T
        keep = lines >= 0
        s, e = full.indptr[start], full.indptr[stop]
        assert np.array_equal(keep.sum(axis=1), np.diff(full.indptr[start:stop + 1]))
        assert np.array_equal(lines[keep], full.indices[s:e])
        assert exactlp.RowBlocks(blocks.objective, [0, stop - start],
                                 lambda a, b: block).rows == full.rows[start:stop]


@pytest.mark.parametrize("family,n", CASES, ids=IDS)
def test_streamed_verify_matches_one_block(monkeypatch, family, n):
    # every report field, on the profile weights and on a copy with every
    # seventh weight cut to zero, so that rows in several blocks fail
    weights = seq.profile_weights(_ground(family, n))
    cut = exactlp.Scaled(np.where(np.arange(len(weights)) % 7 == 3, 0,
                                  weights.numer), weights.scale)
    full = _full(family, n)
    want = [exactlp.verify_transversal(full, w) for w in (weights, cut)]
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    verify = getattr(seq, f"verify_{family}_transversal")
    assert _fields(verify(n)) == _fields(want[0])
    blocks = seq.ball_blocks(family, n)
    assert _fields(exactlp.verify_transversal(blocks, cut)) == _fields(want[1])


def test_violations_in_the_third_block_keep_their_row_ids(monkeypatch):
    # zero the members of grain row 150; the rows left uncovered all lie in
    # the third block of 64 (rows 128..191)
    full = seq.grain_full_lp(8)
    weights = [Fraction(1)] * full.num_vars
    for j in full.indices[full.indptr[150]:full.indptr[151]].tolist():
        weights[j] = Fraction(0)
    want = exactlp.verify_transversal(full, weights)
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    rep = exactlp.verify_transversal(seq.ball_blocks("grain", 8), weights)
    assert 150 in rep.violated_rows
    assert all(128 <= i < 192 for i in rep.violated_rows)
    assert _fields(rep) == _fields(want)


@pytest.mark.parametrize("family,n", [("deletion", 9), ("grain", 8)])
def test_ball_blocks_past_int64(monkeypatch, family, n):
    # weights and duals near 2^62 take every ball block past the int64 bound
    # (a row holds at least two of them), so its sums are Python ints; the
    # reports and the dual verdicts equal the one-block CSR LP's
    full = _full(family, n)
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    blocks = seq.ball_blocks(family, n)
    rng = np.random.default_rng(n)
    top = 1 << 62
    numer = rng.integers(top - (1 << 40), top, full.num_vars)
    numer[::5] = 0
    duals = rng.integers(top - (1 << 40), top, full.num_rows)
    block = blocks[1]
    assert linsolve.exact_product(block, numer).dtype == object
    assert linsolve.exact_product(block, duals[:SMALL], transpose=True).dtype == object
    for scale in (top, 3 * top, 5 * top):
        w = exactlp.Scaled(numer, scale)
        assert _fields(exactlp.verify_transversal(blocks, w)) == \
            _fields(exactlp.verify_transversal(full, w))
    column_sums = linsolve.exact_product(full, duals.astype(object), transpose=True)
    most = int(column_sums.max())
    for scale in (most - 1, most):
        z = exactlp.Scaled(duals, scale)
        assert exactlp._dual(blocks, z) == exactlp._dual(full, z)
    assert exactlp._dual(blocks, exactlp.Scaled(duals, most - 1)) is None
    assert exactlp._dual(blocks, exactlp.Scaled(duals, most)) == \
        Fraction(int(duals.astype(object).sum()), most)


def _quotient_of(monkeypatch, family, n):
    """The quotient LP the orbit route hands to the solver, unsolved."""
    class Captured(Exception):
        pass

    def capture(lp, **kwargs):
        raise Captured(lp)

    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "solve_min_transversal", capture)
        with pytest.raises(Captured) as caught:
            getattr(seq, f"{family}_full_gspb")(n)
    return caught.value.args[0]


def _csr(lp):
    return (lp.objective, lp.indptr.tolist(), lp.indices.tolist(), lp.data.tolist())


@pytest.mark.parametrize("family,n", CASES, ids=IDS)
def test_orbit_route_in_blocks_matches_one_block(monkeypatch, family, n):
    # the quotient rows come from the representatives' own rows, and the
    # lift is checked block by block; both agree with the one-block LP
    want = _csr(_quotient_of(monkeypatch, family, n))
    full = _full(family, n)
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    assert _csr(_quotient_of(monkeypatch, family, n)) == want
    sol = getattr(seq, f"{family}_full_gspb")(n)
    assert sol.notes.endswith("lift re-verified")
    assert exactlp.check_certificate(full, sol.primal, sol.dual) == sol.optimum
    blocks = seq.ball_blocks(family, n)
    assert exactlp.check_certificate(blocks, sol.primal, sol.dual) == sol.optimum


@pytest.mark.parametrize("family,n", [("deletion", 9), ("grain", 9)])
def test_dual_across_blocks(monkeypatch, family, n):
    # an optimal dual with support in several blocks is accepted; moving
    # 1/d of it from a first-block row to a last-block row that meets a
    # tight column keeps sum(z) and c.w, and the column check refuses it
    sol = getattr(seq, f"{family}_full_gspb")(n)
    full = _full(family, n)
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    blocks = seq.ball_blocks(family, n)
    starts = blocks.bounds
    assert len({np.searchsorted(starts, i, side="right")
                for i, z in enumerate(sol.dual) if z}) > 1
    assert exactlp.check_certificate(blocks, sol.primal, sol.dual) == sol.optimum
    d = math.lcm(*(z.denominator for z in sol.dual))
    rows = full.rows
    late = next(i for i in reversed(range(starts[-2], starts[-1]))
                if any(sol.primal[j] for j, _ in rows[i]))
    early = next(i for i in range(starts[1]) if sol.dual[i] >= Fraction(1, d)
                 and not {j for j, _ in rows[i]} & {j for j, _ in rows[late]})
    moved = list(sol.dual)
    moved[late] += Fraction(1, d)
    moved[early] -= Fraction(1, d)
    assert sum(moved) == sol.optimum
    assert exactlp.check_certificate(full, sol.primal, moved) is None
    assert exactlp.check_certificate(blocks, sol.primal, moved) is None


def test_monotone_check_reads_blocks(monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK", SMALL)
    for n in (2, 6, 9):
        assert bounds.check_monotone(ChannelSpec("deletion", n=n))


@pytest.mark.parametrize("family", ["deletion", "grain"])
def test_streamed_check_memory(family):
    # one block of 2^14 centres is held at a time, so the traced peak is the
    # weights and one block, not the 2^n-row LP
    verify = getattr(seq, f"verify_{family}_transversal")
    verify(8)
    sizes = [(16, 10 * 10**6)] + ([(17, 10 * 10**6)] if family == "deletion" else [])
    for n, limit in sizes:
        tracemalloc.start()
        try:
            assert verify(n).feasible
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (n, peak)


@pytest.mark.parametrize("family", ["deletion", "grain"])
def test_profile_report_is_small(family):
    # the report lists the tight rows (about 2000 of 2^16 at n=16), not a
    # sum per row, which held 2.6 MB of Python ints
    verify = getattr(seq, f"verify_{family}_transversal")
    verify(8)
    tracemalloc.start()
    try:
        rep = verify(16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 500_000, held
    assert rep.feasible and 0 < len(rep.tight_rows) < 1 << 12
