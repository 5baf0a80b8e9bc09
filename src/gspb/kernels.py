"""Hot enumeration kernels over all binary words of a given length.

Each kernel is one vectorized numpy sweep over the 2^n words.  Only the
enumeration sweeps live here.  Everything downstream that certifies a bound
runs in exact rational arithmetic and never depends on this module for
correctness-critical values; these kernels feed LP row construction and
bulk run-statistics.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark runs record it


def _bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) uint8 matrix; column j holds bit j of every word."""
    words = np.arange(1 << n, dtype=np.uint32)
    return ((words[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every word in {0,1}^n, indexed by integer value."""
    return _bit_matrix(n).sum(axis=1).astype(np.uint8)


def run_stats(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(runs, middle-1-runs) of every word in {0,1}^n.

    A middle-1-run is a maximal block of length one that is neither the
    first nor the last run of the word.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n == 1:
        return np.ones(2, dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    bits = _bit_matrix(n)
    diffs = (bits[:, 1:] != bits[:, :-1]).astype(np.uint8)
    rho = 1 + diffs.sum(axis=1, dtype=np.uint32)
    if n >= 3:
        mu = (diffs[:, :-1] & diffs[:, 1:]).sum(axis=1, dtype=np.uint32)
    else:
        mu = np.zeros(1 << n, dtype=np.uint32)
    return rho.astype(np.uint8), mu.astype(np.uint8)


def deletion_targets(n: int) -> np.ndarray:
    """(2^n, n) array: entry [x, i] is x with bit i removed (length n-1 word).

    Duplicates across columns are kept; callers dedupe per row when building
    ball rows.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    words = np.arange(1 << n, dtype=np.int64)
    out = np.empty((1 << n, n), dtype=np.int64)
    for i in range(n):
        low = words & ((1 << i) - 1)
        high = words >> (i + 1)
        out[:, i] = (high << i) | low
    return out


def grain_targets(n: int) -> np.ndarray:
    """(2^n, n-1) array of single-grain-error results, -1 where no error fits.

    Bit i may flip exactly when bits i and i+1 of the word differ; the
    resulting word keeps length n.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    words = np.arange(1 << n, dtype=np.int64)
    out = np.full((1 << n, max(n - 1, 1)), -1, dtype=np.int64)
    for i in range(n - 1):
        differ = ((words >> i) & 1) != ((words >> (i + 1)) & 1)
        out[:, i] = np.where(differ, words ^ (1 << i), -1)
    return out


__all__ = ["BACKEND", "popcounts", "run_stats", "deletion_targets", "grain_targets"]
