"""Exact rational solutions of integer linear systems via p-adic lifting.

The LP crossover needs exact solutions of square integer systems whose size
reaches a few thousand: one support solve picks an independent square
subsystem with ``select_pivots_mod`` and hands it to ``dixon_solve``.  Dense
exact Gaussian elimination is hopeless there, so we invert the matrix modulo
one word-sized prime ``PRIME``, lift the solution p-adically (Dixon), and
recover rationals by lattice reduction of the residues.  The pivots are
selected modulo the same prime, so the subsystem is nonsingular modulo it by
construction and no second prime is ever needed.  Every candidate is checked
against the sparse input system in Python ints, scaled by the LCM of its
denominators, before being returned, so a failed reconstruction can only
cost time, never correctness.

Elimination mod p is blocked and runs on float64 residues, so that the bulk
of the work is BLAS ``gemm`` (Dumas, Giorgi and Pernet, "Dense linear algebra
over word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3),
2008).  float64 holds every integer below 2^53 exactly, so a product of
matrices with entries in [0, p) and inner width w is exact while
w*(p-1)^2 < 2^53.  The primes stay below 2^20, which allows w up to 8192;
``_check_exact`` raises before any product that could round.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .channels import GspbError

# the largest prime below 2^20 (a test checks it by trial division)
PRIME = 1048573

_PANEL = 64        # columns factored per panel, and the inner width of its gemms
_EXACT = 1 << 53   # float64 represents every integer of smaller magnitude


def _check_exact(width: int, p: int) -> None:
    """Raise unless a float64 product of residues mod p with this inner width
    is exact."""
    if width * (p - 1) ** 2 >= _EXACT:
        raise ValueError(f"a float64 product of width {width} mod {p} can exceed "
                         "2^53 and round; use a smaller prime")


def _eliminate(work: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward elimination mod p of a float64 matrix of residues, in place.

    Columns are scanned left to right; a column with no nonzero entry at or
    below the frontier is skipped, otherwise the first such row is swapped
    with the frontier row and becomes the pivot row.  Returns the row order
    after the swaps (``order[t]`` is the input row now at position t) and the
    pivot columns.  On return the first ``len(cols)`` rows of ``work`` hold
    the reduced echelon rows, each scaled so that its pivot entry is 1, with
    every row operation applied across the full width.

    Each 64-column panel is factored unblocked in int64; its row operations
    reach the columns to its right as one small triangular transform and a
    gemm on the pivot rows, and one gemm ``X -= L @ U`` on the rows below.
    Those rows are reduced only when their entries could otherwise pass 2^53.
    """
    m, n = work.shape
    _check_exact(_PANEL, p)
    order = np.arange(m)
    cols: list[int] = []
    f = 0          # frontier: rows above it are finished pivot rows
    bound = p - 1  # bound on |entry| of the rows at or below the frontier
    for c0 in range(0, n, _PANEL):
        if f >= m:
            break
        c1 = min(c0 + _PANEL, n)
        panel = np.remainder(work[f:, c0:c1], p).astype(np.int64)
        lower = np.zeros((m - f, _PANEL), dtype=np.int64)  # multipliers
        r = 0
        for c in range(c1 - c0):
            if f + r >= m:
                break
            nz = panel[r:, c].nonzero()[0]
            if not nz.size:
                continue
            pr = r + int(nz[0])
            if pr != r:
                for a in (panel, lower, work[f:], order[f:]):
                    a[[r, pr]] = a[[pr, r]]
            lower[r:, r] = panel[r:, c]
            prow = panel[r, c:] * pow(int(panel[r, c]), p - 2, p) % p
            panel[r, c:] = prow
            hit = r + 1 + panel[r + 1:, c].nonzero()[0]
            if hit.size:
                panel[hit, c:] = (panel[hit, c:] - lower[hit, r, None] * prow) % p
            cols.append(c0 + c)
            r += 1
        work[f:, c0:c1] = panel
        # pivot rows: U12 = L11^-1 A12; rows below: X -= L21 U12
        u12 = _lower_inverse(lower[:r, :r], p) @ np.remainder(work[f:f + r, c1:], p)
        np.remainder(u12, p, out=u12)
        work[f:f + r, c1:] = u12
        trail = work[f + r:, c1:]
        if bound + r * (p - 1) ** 2 >= _EXACT:
            np.remainder(trail, p, out=trail)
            bound = p - 1
        trail -= lower[r:, :r].astype(np.float64) @ u12
        bound += r * (p - 1) ** 2
        f += r
    return order, cols


def _lower_inverse(lower: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a small lower triangular int64 matrix, as float64."""
    r = lower.shape[0]
    inv = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        row = -(lower[i, :i] @ inv[:i]) % p
        row[i] = 1
        inv[i] = row * pow(int(lower[i, i]), p - 2, p) % p
    return inv.astype(np.float64)


def _inverse_mod(matrix: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square integer matrix mod p as float64 residues, or None
    when it is singular mod p.

    Elimination of [A | I] leaves [U | B] with U unit upper triangular and
    A^-1 = U^-1 B.  Reversing the rows and columns of U makes it unit lower
    triangular, so the same elimination run on [JUJ | JB] does the back
    substitution and leaves J U^-1 B on the right.
    """
    k = matrix.shape[0]
    aug = np.zeros((k, 2 * k))
    aug[:, :k] = np.remainder(matrix, p)
    aug[np.arange(k), k + np.arange(k)] = 1
    _, cols = _eliminate(aug, p)
    if cols != list(range(k)):
        return None
    back = np.concatenate([aug[::-1, k - 1::-1], aug[::-1, k:]], axis=1)
    _eliminate(back, p)
    return np.ascontiguousarray(back[::-1, k:])


def select_pivots_mod(matrix: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Row/column pivot indices of a forward elimination mod p.

    Rows are taken first-nonzero-first, so pre-ordering the matrix rows by
    preference makes the selection honor that preference.  Returns original
    (row, column) index lists of equal length (the rank).
    """
    work = np.remainder(matrix, p).astype(np.float64)
    order, cols = _eliminate(work, p)
    return order[:len(cols)].tolist(), cols


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Unique fraction n/d with a*d = n (mod m), |n|, d <= sqrt(m/2), if any."""
    a %= m
    if a == 0:
        return Fraction(0)
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def dixon_solve(matrix, k: int, rhs: list[int]) -> list[Fraction] | None:
    """Exact solution of the square sparse integer system matrix * x = rhs.

    matrix: a k x k ``scipy.sparse`` CSR matrix of int64.  Returns None when
    the matrix is singular modulo ``PRIME`` or the lifting budget runs out.
    A candidate x is returned only if A.X == d.rhs holds in Python ints,
    where d is the LCM of its denominators and X = d.x.
    """
    if matrix.shape != (k, k) or len(rhs) != k:
        raise ValueError(f"system is {matrix.shape[0]}x{matrix.shape[1]} with "
                         f"{len(rhs)} right-hand sides; dixon_solve needs a "
                         f"square {k}x{k} system")
    p = PRIME
    indptr = matrix.indptr.tolist()
    cols = matrix.indices.tolist()
    vals = matrix.data.tolist()
    spans = list(zip(indptr, indptr[1:]))
    # the int64 lifting product A @ digit stays exact while every row's
    # L1 norm times the largest digit is below 2^63
    norm = max((sum(map(abs, vals[s:e])) for s, e in spans), default=0)
    if norm * (p - 1) >= 1 << 63:
        raise ValueError(f"a row of L1 norm {norm} can overflow the int64 "
                         "lifting product")
    inv = _inverse_mod(matrix.toarray(), p)
    if inv is None:
        return None
    _check_exact(k, p)  # one float64 matvec per lifting step
    max_coeff = max(map(abs, vals), default=1) or 1
    max_rhs = max((abs(b) for b in rhs), default=1) or 1
    # Hadamard-style budget on numerator/denominator bits, plus slack
    det_bits = k * (0.5 * math.log2(max(k, 2)) + math.log2(max_coeff + 1))
    need_bits = 2 * (det_bits + math.log2(max_rhs + 1)) + 64
    max_steps = int(need_bits / math.log2(p)) + 8

    residual = [int(b) for b in rhs]
    solution_mod = [0] * k
    modulus = 1
    next_attempt = 8
    step = 0
    while step < max_steps:
        rmod = np.array([ri % p for ri in residual], dtype=np.float64)
        digit = np.remainder(inv @ rmod, p).astype(np.int64)
        bx = matrix @ digit  # exact: the row norms were checked above
        for i in range(k):
            quotient, rem = divmod(residual[i] - int(bx[i]), p)
            if rem:
                raise GspbError("Dixon lifting: a p-adic step left a "
                                f"residual not divisible by {p}")
            residual[i] = quotient
        dlist = digit.tolist()
        for i in range(k):
            solution_mod[i] += dlist[i] * modulus
        modulus *= p
        step += 1
        if step >= next_attempt or step == max_steps:
            next_attempt = step + max(8, step // 2)
            x = _try_reconstruct(solution_mod, modulus)
            if x is None:
                continue
            d = math.lcm(*(v.denominator for v in x))
            scaled = [v.numerator * (d // v.denominator) for v in x]
            if all(sum(a * scaled[j] for j, a in zip(cols[s:e], vals[s:e])) == d * b
                   for (s, e), b in zip(spans, rhs)):
                return x
    # lifting budget exhausted: the supports were likely wrong
    return None


def _try_reconstruct(residues: list[int], modulus: int) -> list[Fraction] | None:
    out = []
    for a in residues:
        f = rational_reconstruct(a, modulus)
        if f is None:
            return None
        out.append(f)
    return out
