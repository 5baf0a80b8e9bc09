"""Hot enumeration kernels over all binary words of a given length.

Each kernel is one numpy sweep of word-level bit operations over the 2^n
words, held as integers of ``word_dtype(n)``: int32 while n <= 30, int64
past that.  The dtype follows from n alone, so the arrays take half the
memory of int64 ones at every size the LPs reach.

Each ball rule has one source, here.  ``deletion_targets`` and
``grain_targets`` give one column per error position and write -1 where the
position adds no new word to the ball: a deletion inside a run already
counted, or a smear with nothing to smear.  The entries left are distinct,
so a row reader skips the -1s and needs no compare pass.  Each result is
the transposed view of a (width, centres) array, one contiguous line per
error position, which the exact row checks read as it is
(``exactlp.UnitTargets``).  Both take the
centres to expand, all 2^n words by default, so one kernel serves a block
of ``_BLOCK`` consecutive centres, a list of orbit representatives, or the
whole word space.  Everything
downstream that certifies a bound runs in exact arithmetic; these kernels
feed LP row construction and bulk run statistics.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark runs record it


def word_dtype(n: int) -> np.dtype:
    """The integer dtype of the length-n words: int32 while the word count
    2^n, and so every word and the -1 mark, fits below 2^31; int64 past
    that.  Allocates nothing."""
    return np.dtype(np.int32 if n <= 30 else np.int64)


def _words(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("word length must be >= 1")
    return np.arange(1 << n, dtype=word_dtype(n))


def _boundaries(words: np.ndarray, n: int) -> np.ndarray:
    """Bit j set where bits j and j+1 of the word differ, for j < n-1."""
    return (words ^ (words >> 1)) & ((1 << (n - 1)) - 1)


def _mark(col: np.ndarray, flags: np.ndarray, bit: int, mark: np.ndarray) -> None:
    """Set col to -1 where bit ``bit`` of flags is clear: the mark is 0 or
    all ones, and OR-ing all ones gives -1."""
    np.right_shift(flags, bit, out=mark)
    mark &= 1
    mark -= 1
    col |= mark


_BLOCK = 1 << 14   # words per block: a block's columns stay in L2


def _by_columns(n: int, width: int, fill, words) -> np.ndarray:
    """(len(words), width) array of word dtype, one line per word of
    ``words`` (all 2^n words when None): the transposed view of one
    (width, len(words)) array, whose row i is column i of the result.
    ``fill(words, cols)`` writes column i of a block of words into the
    contiguous row cols[i], a block of ``_BLOCK`` words at a time; numpy
    writes a strided column several times slower than a contiguous row.
    That array is the only output allocated, and nothing copies it: its
    ``.T`` is the contiguous (width, len(words)) layout that
    ``exactlp.UnitTargets`` holds."""
    words = _words(n) if words is None else np.asarray(words, dtype=word_dtype(n))
    cols = np.empty((width, len(words)), dtype=words.dtype)
    for start in range(0, len(words), _BLOCK):
        fill(words[start:start + _BLOCK], cols[:, start:start + _BLOCK])
    return cols.T


def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every word in {0,1}^n, indexed by integer value."""
    return np.bitwise_count(_words(n))


def run_stats(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(runs, middle-1-runs) of every word in {0,1}^n, as uint8.

    A middle-1-run is a maximal block of length one that is neither the
    first nor the last run of the word: bit i with boundaries on both
    sides, at bits i-1 and i of the boundary word.
    """
    d = _boundaries(_words(n), n)
    rho = np.bitwise_count(d)
    rho += 1
    return rho, np.bitwise_count(d & (d >> 1))


def deletion_targets(n: int, words=None) -> np.ndarray:
    """(len(words), n) array, one line per length-n word of ``words`` (all
    2^n by default): entry [t, i] is x = words[t] with bit i removed (a
    length n-1 word) when bit i starts a run of x, and -1 when bit i equals
    bit i-1, whose deletion gives the same word.  Each line holds one target
    per run.
    """
    def fill(words, cols):
        d = _boundaries(words, n)
        high = words >> 1
        starts = (d << 1) | 1          # bit i set where bit i starts a run
        mark = np.empty_like(words)
        for i, col in enumerate(cols):
            # high holds the bits above i shifted down one; below i, XOR
            # with d turns its bits back into the word's own
            np.bitwise_and(d, (1 << i) - 1, out=col)
            col ^= high
            _mark(col, starts, i, mark)
    return _by_columns(n, n, fill, words)


def grain_targets(n: int, words=None) -> np.ndarray:
    """(len(words), max(n-1, 1)) array of the single-grain-error results of
    each length-n word of ``words`` (all 2^n by default), -1 where no error
    fits.

    Bit i may flip exactly when bits i and i+1 of the word differ; the
    resulting word keeps length n.  At n = 1 no bit may flip.
    """
    def fill(words, cols):
        d = _boundaries(words, n)
        mark = np.empty_like(words)
        for i, col in enumerate(cols):
            np.bitwise_xor(words, 1 << i, out=col)
            _mark(col, d, i, mark)
    return _by_columns(n, max(n - 1, 1), fill, words)


__all__ = ["BACKEND", "word_dtype", "popcounts", "run_stats",
           "deletion_targets", "grain_targets"]
