"""Exact rational solutions of integer linear systems via p-adic lifting.

The LP crossover needs exact solutions of square integer systems whose size
reaches a few thousand.  Dense exact Gaussian elimination is hopeless there,
so we invert the matrix modulo a word-sized prime with numpy, lift the
solution p-adically (Dixon), and recover rationals by lattice reduction of
the residues.  Every candidate is verified exactly against the sparse input
system before being returned, so a failed reconstruction can only cost time,
never correctness.

Primes stay below 2^26 so that products of two residues fit int64 with room
for the row sums that appear in modular matrix-vector products.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# verified primes just under 2^26
PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763)

_MATVEC_CHUNK = 1024  # rows of this length keep mod-p dot products in int64


def _inverse_mod(matrix: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square int64 matrix mod p, or None when singular mod p."""
    k = matrix.shape[0]
    aug = np.concatenate([matrix % p, np.eye(k, dtype=np.int64)], axis=1)
    for col in range(k):
        nz = np.nonzero(aug[col:, col])[0]
        if len(nz) == 0:
            return None
        pr = col + int(nz[0])
        if pr != col:
            aug[[col, pr]] = aug[[pr, col]]
        inv = pow(int(aug[col, col]), p - 2, p)
        aug[col] = (aug[col] * inv) % p
        colvals = aug[:, col].copy()
        colvals[col] = 0
        mask = colvals != 0
        if mask.any():
            aug[mask] = (aug[mask] - np.outer(colvals[mask], aug[col])) % p
    return aug[:, k:]


def select_pivots_mod(matrix: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Row/column pivot indices of a forward elimination mod p.

    Rows are taken first-nonzero-first, so pre-ordering the matrix rows by
    preference makes the selection honor that preference.  Returns original
    (row, column) index lists of equal length (the rank).
    """
    work = matrix % p
    m, k = work.shape
    orig = np.arange(m)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    frontier = 0
    for col in range(k):
        if frontier >= m:
            break
        nz = np.nonzero(work[frontier:, col])[0]
        if len(nz) == 0:
            continue
        pr = frontier + int(nz[0])
        if pr != frontier:
            work[[frontier, pr]] = work[[pr, frontier]]
            orig[[frontier, pr]] = orig[[pr, frontier]]
        piv_rows.append(int(orig[frontier]))
        piv_cols.append(col)
        inv = pow(int(work[frontier, col]), p - 2, p)
        work[frontier] = (work[frontier] * inv) % p
        colvals = work[frontier + 1:, col].copy()
        mask = colvals != 0
        if mask.any():
            rows = np.nonzero(mask)[0] + frontier + 1
            work[rows] = (work[rows] - np.outer(colvals[mask], work[frontier])) % p
        frontier += 1
    return piv_rows, piv_cols


def _matvec_mod(matrix: np.ndarray, vec: np.ndarray, p: int) -> np.ndarray:
    """matrix @ vec mod p with chunked accumulation to stay inside int64."""
    k = matrix.shape[1]
    if k <= _MATVEC_CHUNK:
        return (matrix @ vec) % p
    acc = np.zeros(matrix.shape[0], dtype=np.int64)
    for lo in range(0, k, _MATVEC_CHUNK):
        hi = min(lo + _MATVEC_CHUNK, k)
        acc = (acc + matrix[:, lo:hi] @ vec[lo:hi]) % p
    return acc


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


def _sparse_to_csr(rows: list[list[tuple[int, int]]], k: int):
    from scipy.sparse import csr_matrix

    data, ri, ci = [], [], []
    for i, row in enumerate(rows):
        for j, a in row:
            ri.append(i)
            ci.append(j)
            data.append(a)
    return csr_matrix((data, (ri, ci)), shape=(len(rows), k), dtype=np.int64)


def dixon_solve(rows: list[list[tuple[int, int]]], k: int,
                rhs: list[int]) -> list[Fraction] | None:
    """Exact solution of the square sparse integer system rows * x = rhs.

    rows: k sparse rows of (column, integer coefficient).  Returns None when
    the matrix is singular or the lifting budget runs out; any returned
    vector satisfies the system exactly (verified here).
    """
    if len(rows) != k or len(rhs) != k:
        raise ValueError(f"system is {len(rows)}x{k} with {len(rhs)} right-hand "
                         "sides; dixon_solve needs a square system")
    max_coeff = max((abs(a) for row in rows for _, a in row), default=1) or 1
    max_rhs = max((abs(b) for b in rhs), default=1) or 1
    # Hadamard-style budget on numerator/denominator bits, plus slack
    det_bits = k * (0.5 * math.log2(max(k, 2)) + math.log2(max_coeff + 1))
    need_bits = 2 * (det_bits + math.log2(max_rhs + 1)) + 64

    csr = _sparse_to_csr(rows, k)
    for p in PRIMES:
        dense = np.zeros((k, k), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, a in row:
                dense[i, j] = a % p
        inv = _inverse_mod(dense, p)
        if inv is None:
            continue  # singular mod this prime; a true singular matrix fails all
        max_steps = int(need_bits / math.log2(p)) + 8
        residual = [int(b) for b in rhs]
        solution_mod = [0] * k
        modulus = 1
        next_attempt = 8
        step = 0
        while step < max_steps:
            rmod = np.array([ri % p for ri in residual], dtype=np.int64)
            digit = _matvec_mod(inv, rmod, p)
            bx = csr @ digit  # exact: coeffs and digits are word-sized
            for i in range(k):
                quotient, rem = divmod(residual[i] - int(bx[i]), p)
                if rem:
                    raise AssertionError("p-adic lifting step left a residual "
                                         f"not divisible by {p}")
                residual[i] = quotient
            dlist = digit.tolist()
            for i in range(k):
                solution_mod[i] += dlist[i] * modulus
            modulus *= p
            step += 1
            if step >= next_attempt or step == max_steps:
                next_attempt = step + max(8, step // 2)
                candidate = _try_reconstruct(solution_mod, modulus)
                if candidate is not None and _verify_system(rows, candidate, rhs):
                    return candidate
        # lifting budget exhausted for this prime: supports were likely wrong
        return None
    return None


def _try_reconstruct(residues: list[int], modulus: int) -> list[Fraction] | None:
    out = []
    for a in residues:
        f = rational_reconstruct(a, modulus)
        if f is None:
            return None
        out.append(f)
    return out


def _verify_system(rows, x: list[Fraction], rhs) -> bool:
    for row, b in zip(rows, rhs):
        total = Fraction(0)
        for j, a in row:
            if x[j]:
                total += a * x[j]
        if total != b:
            return False
    return True
