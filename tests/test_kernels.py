import numpy as np
import pytest

from gspb import kernels, reduction, seqchannels
from gspb.channels import ChannelSpec


def scan_runs(word: str) -> tuple[int, int]:
    rho = 1 + sum(1 for a, b in zip(word, word[1:]) if a != b)
    blocks = []
    start = 0
    for i in range(1, len(word) + 1):
        if i == len(word) or word[i] != word[i - 1]:
            blocks.append(i - start)
            start = i
    mu = sum(1 for k, size in enumerate(blocks) if size == 1 and 0 < k < len(blocks) - 1)
    return rho, mu


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_run_stats_match_string_scan(n):
    rho, mu = kernels.run_stats(n)
    for x in range(1 << n):
        word = format(x, f"0{n}b")
        assert (rho[x], mu[x]) == scan_runs(word), word


def assert_same_arrays(built, enumerated):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(built, name), getattr(enumerated, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
    assert built.objective == enumerated.objective


@pytest.mark.parametrize("n", range(2, 11))
def test_deletion_rows_match_ball_enumeration(n):
    # kernel-built rows against rows from the channel's own ball enumeration
    spec = ChannelSpec("deletion", n=n)
    assert_same_arrays(seqchannels.deletion_full_lp(n), reduction.full_hypergraph_lp(spec))


@pytest.mark.parametrize("n", range(1, 11))
def test_grain_rows_match_ball_enumeration(n):
    spec = ChannelSpec("grain", n=n)
    assert_same_arrays(seqchannels.grain_full_lp(n), reduction.full_hypergraph_lp(spec))


def test_deletion_targets_by_hand():
    # 110 (6): deleting bit0 -> 11, bit1 -> 10; bit2 repeats bit1, so its
    # deletion (also 10) is marked -1: one target per run
    t = kernels.deletion_targets(3)
    assert t[0b110].tolist() == [0b11, 0b10, -1]
    assert t[0b000].tolist() == [0, -1, -1]
    assert t[0b101].tolist() == [0b10, 0b11, 0b01]


def test_grain_targets_by_hand():
    t = kernels.grain_targets(3)
    # 010: each bit smears its right neighbor, so 010 -> 000 or 011
    row = [v for v in t[0b010].tolist() if v >= 0]
    assert sorted(row) == [0b000, 0b011]
    assert all(v == -1 for v in t[0b000].tolist())


def test_popcounts():
    pc = kernels.popcounts(6)
    assert pc[0] == 0 and pc[63] == 6 and pc[0b101010] == 3
    for n in range(1, 11):
        assert kernels.popcounts(n).tolist() == [x.bit_count() for x in range(1 << n)]


def test_word_dtype_rule():
    # int32 while the 2^n words fit below 2^31; decided from n alone, so the
    # boundary is checked without allocating a 2^30 array
    assert kernels.word_dtype(30) == np.int32
    assert kernels.word_dtype(31) == np.int64
    for n in (1, 4, 9):
        assert kernels.deletion_targets(n).dtype == kernels.word_dtype(n)
        assert kernels.grain_targets(n).dtype == kernels.word_dtype(n)


def _targets_and_lps(n):
    lps = [seqchannels.grain_full_lp(n)]
    if n > 1:
        lps.append(seqchannels.deletion_full_lp(n))
    return [kernels.deletion_targets(n), kernels.grain_targets(n)], lps


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_int64_words_give_the_same_rows(monkeypatch, n):
    # the kernels' bit operations past n = 30 run in int64; forcing that
    # dtype at small n must give the same targets and the same LPs
    targets32, lps32 = _targets_and_lps(n)
    monkeypatch.setattr(kernels, "word_dtype", lambda n: np.dtype(np.int64))
    targets64, lps64 = _targets_and_lps(n)
    for a, b in zip(targets32, targets64):
        assert a.dtype == np.int32 and b.dtype == np.int64 and np.array_equal(a, b)
    for a, b in zip(lps32, lps64):
        assert_same_arrays(a, b)
