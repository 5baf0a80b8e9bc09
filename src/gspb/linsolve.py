"""Exact rational solutions of integer linear systems.

The LP crossover needs exact solutions of square integer systems whose size
reaches a few thousand, by two routes.

The basis pair, B w = 1 and B^T z = c of one LP basis, goes through
``refine_solve``: one float LU factorisation of B (LAPACK ``getrf``) lifts
both by integer iterative refinement (Wan, "An algorithm to solve integer
linear systems exactly using numerical methods", J. Symb. Comput. 41(6),
2006).  Each step solves the residual in floats, rounds a power-of-two
multiple of that solution to integer digits, and updates the residual
exactly, so that 2^top b = B N + r holds in integers throughout; rationals
are read off N / 2^top over a running common denominator, in one pass over
the entries as Python ints, where an entry the denominator already explains
costs one multiplication.  x is lifted first, and the lift of y first
tries x's common denominator, which needs half the precision of a
reconstruction.  The results come as (numerators, common denominator).
A tall block is factored once too (``float_basis``): the row interchanges
of its LU pick the basis rows, and its top square factors are the basis's
LU.  The crossover bases are small-integer matrices of modest condition
number, for which this costs one LU and a few dozen triangular solves.  The
floats only propose digits and can fail (a zero pivot, a residual that
stops shrinking): then the lift returns None and the caller falls back.

The support solves need an exact rank and have no conditioning limit:
``select_pivots_mod`` picks an independent square subsystem B and
``dixon_solve`` solves it.  B is selected by one plain Gauss-Jordan
elimination of the matrix modulo one prime ``PRIME`` < 2^20, in int64, and
a second one of [B | I] leaves B^-1 mod p beside the identity; a product
of two residues is below 2^40, so every int64 update and every k-term dot
product of residues with k < 2^23 is exact.  ``dixon_solve`` lifts the
solution p-adically from that inverse (Dixon), one plain loop over the
steps with the residual and the solution in Python ints, and reconstructs
each entry alone.  B is nonsingular modulo the prime it was selected with
by construction, so no second prime is ever needed.  Both are plain, not
blocked: they serve a crossover at a degenerate vertex and the subspace
block dual, whose systems have a few dozen unknowns at most.

On both routes every candidate, scaled by the LCM of its denominators, is
checked exactly by ``exact_product``, the package's one exact sparse
product, before being returned, so a wrong digit or a failed reconstruction
can only cost time, never correctness.  ``exact_product`` sums in int64
where a bound on its inputs proves that no partial sum can overflow, and in
Python ints otherwise; ``exact_dot`` does the same for one dot product.

Sparse matrices are CSR arrays in numpy (``Csr``, or anything with the same
four attributes, an ``exactlp.CoveringLP`` among them); ``take``,
``transpose``, ``dense`` and ``float_product`` are the few operations the
crossover needs.  ``exact_product`` also reads a third form, the unit
target arrays of ``exactlp.UnitTargets``, as they are stored.  LAPACK
``getrf`` and ``getrs`` are called on scipy's compiled bindings,
``scipy.linalg._flapack``, the routines ``scipy.linalg.lu_factor`` and
``lu_solve`` call, loaded from their own file by ``scipy_extension``, since
importing ``scipy.linalg`` would load Python layers that a solve never runs
(README, "How values are certified").
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import GspbError

# the largest prime below 2^20 (a test checks it by trial division)
PRIME = 1048573


def scipy_extension(name: str):
    """The compiled scipy module ``name`` (``scipy.linalg._flapack``, say),
    loaded from its own file, without the Python package around it.

    Importing ``scipy.linalg`` or ``scipy.optimize`` for one compiled module
    would load the whole package (``scipy.optimize`` loads ``scipy.sparse``
    and ``scipy.linalg`` too).  The module
    is registered in ``sys.modules`` under its real name before it runs, so
    a later import of the package gets back this module object (by
    ``from package import module`` or ``import package.module as name``;
    the package's attribute is not set).  A module already in
    ``sys.modules`` is returned as it is, and one whose file is not found is
    imported the usual way.
    """
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    package = name.split(".")[1:-1]
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], *package),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@dataclass(frozen=True)
class Csr:
    """A sparse matrix in CSR arrays: row i holds ``data[indptr[i]:indptr[i+1]]``
    at the columns ``indices[indptr[i]:indptr[i+1]]``, each column at most
    once.  The functions below take any object with these four attributes,
    an ``exactlp.CoveringLP`` among them."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _row_ids(matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def take(matrix, rows, cols) -> Csr:
    """The submatrix matrix[rows][:, cols] of a CSR matrix, rows and
    columns in the order given; ``cols`` holds distinct columns."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    first = np.cumsum(counts) - counts  # each row's first entry in the gather
    at = np.repeat(starts - first, counts) + np.arange(int(counts.sum()))
    where = np.full(matrix.shape[1], -1)
    where[np.asarray(cols, dtype=np.int64)] = np.arange(len(cols))
    new_cols = where[matrix.indices[at]]
    keep = new_cols >= 0
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(len(rows)), counts)[keep],
                          minlength=len(rows)), out=indptr[1:])
    return Csr(indptr, new_cols[keep], matrix.data[at[keep]], (len(rows), len(cols)))


def transpose(matrix) -> Csr:
    """The transpose of a CSR matrix, each of its rows in increasing order of
    the rows the entries came from."""
    m, n = matrix.shape
    order = np.argsort(matrix.indices, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(matrix.indices, minlength=n), out=indptr[1:])
    return Csr(indptr, _row_ids(matrix)[order], matrix.data[order], (n, m))


def dense(matrix, dtype) -> np.ndarray:
    """A CSR matrix as a dense array of ``dtype``."""
    out = np.zeros(matrix.shape, dtype=dtype)
    out[_row_ids(matrix), matrix.indices] = matrix.data
    return out


def float_product(matrix, x) -> np.ndarray:
    """``matrix @ x`` in float64 for a CSR matrix, each row summed in the
    order its entries are stored, the order of scipy's CSR product."""
    terms = matrix.data * np.asarray(x, dtype=np.float64)[matrix.indices]
    return np.bincount(_row_ids(matrix), weights=terms, minlength=matrix.shape[0])


def select_pivots_mod(matrix: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Pivots of a Gauss-Jordan elimination mod ``PRIME``, and the inverse
    of the block they select.

    Columns are scanned left to right; a column with no nonzero entry at or
    below the frontier is skipped, otherwise the first such row is swapped
    with the frontier row and becomes the pivot row, so pre-ordering the
    matrix rows by preference makes the selection honor that preference.
    Returns original (row, column) index lists of equal length k (the rank)
    and the inverse mod ``PRIME`` of ``matrix[rows][:, cols]``, in that row
    and column order, as a k x k int64 array of residues.

    The selection eliminates the m x n block alone; the k x k block it
    selects is nonsingular mod ``PRIME``, and one more Gauss-Jordan
    elimination of [block | I_k] leaves its inverse beside the identity.
    Neither array grows with the rows that are not selected.
    """
    m, n = matrix.shape
    work = np.empty((m, n), dtype=np.int64)
    np.remainder(matrix, PRIME, out=work)
    rows, cols = _gauss_jordan(work, n)
    del work  # freed before the pair, so a square block peaks near 4 k^2 words
    k = len(cols)
    pair = np.zeros((k, 2 * k), dtype=np.int64)
    np.remainder(matrix[np.ix_(rows, cols)], PRIME, out=pair[:, :k])
    pair[np.arange(k), k + np.arange(k)] = 1
    _gauss_jordan(pair, k)
    return rows, cols, pair[:, k:]


def _gauss_jordan(work: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination mod ``PRIME`` of the int64 residues
    ``work``, in place, with pivots in its first n columns chosen as
    ``select_pivots_mod`` describes; returns the original ids of the pivot
    rows, in pivot order, and the pivot columns.  Each pivot column is
    cleared above and below its pivot.  A product of two residues is below
    2^40, so no update can overflow."""
    m = work.shape[0]
    order = np.arange(m)
    cols: list[int] = []
    f = 0  # frontier: rows above it are pivot rows
    for c in range(n):
        if f >= m:
            break
        nz = work[f:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = f + int(nz[0])
        if pr != f:
            work[[f, pr]] = work[[pr, f]]
            order[[f, pr]] = order[[pr, f]]
        # row f is zero left of column c, so the update starts there
        right = work[:, c:]
        right[f] = right[f] * pow(int(right[f, 0]), PRIME - 2, PRIME) % PRIME
        mult = right[:, 0].copy()
        mult[f] = 0
        right -= np.multiply.outer(mult, right[f])
        np.remainder(right, PRIME, out=right)
        cols.append(c)
        f += 1
    return order[:f].tolist(), cols


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


def dixon_solve(matrix, k: int, inv: np.ndarray, rhs: list[int]):
    """Exact solution of the square sparse integer system matrix * x = rhs,
    by Dixon lifting (Dixon, "Exact solution of linear equations using
    p-adic expansions", Numer. Math. 40, 1982).

    matrix: a k x k CSR matrix (``Csr``) of int64; inv: its inverse
    mod ``PRIME`` as int64 residues, the one ``select_pivots_mod`` returns
    with the block.  Each step takes the digit x_s = inv (r mod p) mod p,
    adds x_s p^s to the p-adic solution, and sets r <- (r - matrix x_s) / p,
    which must divide exactly (``GspbError`` otherwise); r and the solution
    are Python ints, and ``exact_product`` forms matrix x_s.  Rationals are
    first reconstructed at the first step whose modulus passes
    2 (det_bits + log2(k max|rhs|)) + 1 bits, det_bits the Hadamard-style
    bound on log2 |det| (``_hadamard``), where the reconstruction is sure to
    succeed, and no later than step 8; then after each half as many steps
    again (at least 8), up to a step budget; None when the budget runs out.  A
    candidate x is returned only if A.X == d.rhs holds exactly
    (``exact_product``), where d is the LCM of its denominators and X = d.x.
    """
    if matrix.shape != (k, k) or inv.shape != (k, k) or len(rhs) != k:
        raise ValueError(f"system is {matrix.shape[0]}x{matrix.shape[1]} with "
                         f"a {inv.shape[0]}x{inv.shape[1]} inverse and "
                         f"{len(rhs)} right-hand sides; dixon_solve needs a "
                         f"square {k}x{k} system")
    p = PRIME
    _, det_bits = _hadamard(matrix)
    max_rhs = max((abs(b) for b in rhs), default=1) or 1
    # budget on numerator/denominator bits, plus slack
    need_bits = 2 * (det_bits + math.log2(max_rhs + 1)) + 64
    max_steps = int(need_bits / math.log2(p)) + 8
    # by Cramer's rule and Hadamard's bound every entry is N/D with |N|, D
    # below 2^(det_bits + log2(k max|rhs|)), so a modulus past twice that
    # many bits, plus one, reconstructs it
    sure_bits = 2 * (det_bits + math.log2(max(k, 1) * max_rhs)) + 1
    next_attempt = min(8, int(sure_bits / math.log2(p)) + 1)

    residual = np.array([int(b) for b in rhs], dtype=object)
    solution = np.zeros(k, dtype=object)
    modulus = 1
    for step in range(1, max_steps + 1):
        digit = inv @ (residual % p).astype(np.int64) % p
        residual -= exact_product(matrix, digit)
        if (residual % p).any():
            raise GspbError("Dixon lifting: a p-adic step left a "
                            f"residual not divisible by {p}")
        residual //= p
        solution += digit.astype(object) * modulus
        modulus *= p
        if step >= next_attempt or step == max_steps:
            next_attempt = step + max(8, step // 2)
            x = _try_reconstruct(solution.tolist(), modulus)
            if x is None:
                continue
            d = math.lcm(*(v.denominator for v in x))
            scaled = [v.numerator * (d // v.denominator) for v in x]
            if exact_product(matrix, scaled).tolist() == [d * b for b in rhs]:
                return x
    # lifting budget exhausted: the supports were likely wrong
    return None


def _try_reconstruct(residues: list[int], modulus: int) -> list[Fraction] | None:
    """Rationals congruent to ``residues`` mod ``modulus``, one
    ``rational_reconstruct`` per entry; None when any entry fails."""
    out = []
    for a in residues:
        f = rational_reconstruct(a, modulus)
        if f is None:
            return None
        out.append(f)
    return out


def _magnitude(a: np.ndarray) -> int:
    """max |a_i| as a Python int (0 for an empty array)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def int_array(x) -> np.ndarray:
    """The ints x as an int64 array, or as an object array of Python ints
    when one passes int64; an int64 or object array is returned as is."""
    if isinstance(x, np.ndarray) and x.dtype in (np.int64, object):
        return x
    try:
        return np.fromiter(x, np.int64, len(x))
    except OverflowError:
        return np.array(x, dtype=object)


def exact_dot(a: list[int], x) -> int:
    """a . x for a list of ints a and a sequence of ints x, exact.  When
    both fit int64 and max|a| len(a) < 2^31, x splits as hi 2^32 + lo with
    0 <= lo < 2^32 and each half is dotted in int64, where no partial sum
    can pass 2^63 (x itself may take all 64 bits); otherwise the dot is in
    Python ints."""
    x = int_array(x)
    if x.dtype == np.int64:
        ints = int_array(a)
        if ints.dtype == np.int64 and _magnitude(ints) * len(ints) < 1 << 31:
            return (int(ints @ (x >> 32)) << 32) + int(ints @ (x & 0xFFFFFFFF))
    return sum(map(operator.mul, a, x.tolist()))


def exact_product(matrix, x, transpose: bool = False) -> np.ndarray:
    """``matrix @ x``, or ``matrix.T @ x`` with ``transpose``, for integer x,
    exact.  ``matrix`` is a ``Csr`` or an ``exactlp.CoveringLP`` (int64 or
    Python-int data), or an ``exactlp.UnitTargets``, whose coefficients
    are all 1 and whose ``targets`` column i lists the variables of row i,
    -1 where a position adds nothing; x is a sequence of ints
    (``int_array``).

    The sums are int64 when max|x| max|a| L < 2^63, for L the longest row
    (the longest column with ``transpose``); of ``targets``, a is 1 and L is
    the width (the largest in-degree of a variable with ``transpose``).  No
    term or partial sum can then pass int64.  Otherwise they are Python ints
    in an object array; x past int64 goes there without a scan.

    A CSR matrix is read by one code for both: only entries whose
    coefficient is not 1 are multiplied, so a 0/1 matrix makes no Python int
    but the sums.  ``np.add.reduceat`` sums each nonempty row from its start
    in ``indptr`` (it would give an empty row the next row's first term, so
    empty rows are left at zero), and ``np.add.at`` scatters the terms into
    the columns for ``transpose``.  ``targets`` is read as it is stored when
    the sums are int64: a row sum adds one contiguous gather of x per line,
    where -1 reads a zero appended to x, and a column sum scatters each line
    into num_vars + 1 slots, the last of which takes the -1s and is dropped.
    In Python ints only the entries other than -1 are added, line by line:
    a column sum scatters each line's, and a row sum adds each line's to its
    rows, the first line's set in place of added to zeros."""
    x = int_array(x)
    targets = getattr(matrix, "targets", None)
    if targets is not None:
        if x.dtype == np.int64:
            longest = (np.bincount(targets.ravel() + 1)[1:].max(initial=0)
                       if transpose else len(targets))
            if _magnitude(x) * int(longest) >= 1 << 63:
                x = x.astype(object)
        if transpose:
            out = np.zeros(matrix.shape[1] + 1, dtype=x.dtype)
            for line in targets:
                if x.dtype == np.int64:   # a -1 adds to the last slot
                    np.add.at(out, line, x)
                else:
                    keep = (line >= 0).nonzero()[0]
                    np.add.at(out, line[keep], x[keep])
            return out[:-1]
        out = np.zeros(matrix.shape[0], dtype=x.dtype)
        if x.dtype == np.int64:
            padded, term = np.append(x, 0), np.empty_like(out)
            for line in targets:   # "wrap" takes -1 to the appended zero
                out += np.take(padded, line, out=term, mode="wrap")
            return out
        for i, line in enumerate(targets):
            keep = (line >= 0).nonzero()[0]
            if i:
                out[keep] += x[line[keep]]
            else:                  # set, so that no term is added to a 0
                out[keep] = x[line[keep]]
        return out
    counts = np.diff(matrix.indptr)
    data = matrix.data
    if x.dtype == np.int64:
        lines = np.bincount(matrix.indices) if transpose else counts
        bound = _magnitude(x) * _magnitude(data) * int(lines.max(initial=0))
        if data.dtype != np.int64 or bound >= 1 << 63:
            x = x.astype(object)
    src = _row_ids(matrix) if transpose else matrix.indices
    terms = x[src]
    not_one = (data != 1).nonzero()[0]
    terms[not_one] *= data[not_one].astype(x.dtype)
    out = np.zeros(matrix.shape[1 if transpose else 0], dtype=x.dtype)
    if transpose:
        np.add.at(out, matrix.indices, terms)
    else:
        nonempty = counts.nonzero()[0]
        if nonempty.size:
            out[nonempty] = np.add.reduceat(terms, matrix.indptr[nonempty])
    return out


def _hadamard(matrix) -> tuple[int, float]:
    """(N, det_bits) of a square int64 CSR matrix: N its largest row L1 norm
    as a Python int (an int64 N times a digit could wrap), and det_bits a
    Hadamard-style bound on log2 |det|, the solutions' common denominator."""
    k = matrix.shape[0]
    magnitudes = Csr(matrix.indptr, matrix.indices, abs(matrix.data), matrix.shape)
    norm = int(exact_product(magnitudes, [1] * k).max(initial=0))
    max_coeff = int(abs(matrix.data).max(initial=1))
    return norm, k * (0.5 * math.log2(max(k, 2)) + math.log2(max_coeff + 1))


# ---------------------------------------------------------------------------
# float-factored solves: integer iterative refinement
# ---------------------------------------------------------------------------

_DIGIT_BITS = 30    # |digit| <= 2^30: a float solve with 32 good bits rounds it within 1
_FLOAT_BITS = 1000  # a residual past 2^1000 could pass the float64 range
_SLACK = 16         # bits an attempt takes past the precision its denominator needs


def _lu_factor(block):
    """LAPACK ``getrf`` of the int64 CSR ``block`` as one dense float64
    array: (lu, piv) with 0-based pivots, as ``scipy.linalg.lu_factor``
    gives them.  A zero pivot, which ``getrf`` reports in ``info`` > 0, is
    left for ``refine_solve`` to refuse."""
    a = dense(block, np.float64)
    if not a.size:  # getrf refuses a 0 x 0 matrix
        return a, np.zeros(0, dtype=np.int32)
    lu, piv, info = scipy_extension("scipy.linalg._flapack").dgetrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def float_basis(block) -> tuple[list[int], tuple] | None:
    """The basis rows of the m x k int64 CSR ``block`` and the float LU of
    the basis, from one LAPACK ``getrf`` with partial pivoting; None when
    m < k.

    Returns the k rows that the row interchanges move to the top, in that
    order, which are all of them when m = k, and the (lu, piv) pair of
    ``block[rows]``: the top k x k of the factors, with no interchange left.
    These are the rows ``scipy.linalg.lu`` would put first, without a second
    factorisation.
    """
    m, k = block.shape
    if m < k:
        return None
    lu, piv = _lu_factor(block)
    order = list(range(m))
    for i, p in enumerate(piv.tolist()):  # row i was interchanged with row p
        order[i], order[p] = order[p], order[i]
    return order[:k], (np.asfortranarray(lu[:k]), np.arange(k, dtype=piv.dtype))


def refine_solve(matrix, rhs: list[int], rhs_t: list[int], lu):
    """Exact solutions of matrix x = rhs and matrix^T y = rhs_t, lifted from
    one float LU factorisation of the square int64 CSR ``matrix``.

    ``lu`` is the (lu, piv) pair of ``getrf`` for ``matrix``, as
    ``float_basis`` returns it, and ``getrs`` solves with it.  The float
    factors only propose digits: each side is lifted by ``_refine`` and
    returned only if its exact check holds.  Returns ((X, dx), (Y, dy))
    with x = X / dx and y = Y / dy for lists of ints X, Y and common
    denominators dx, dy >= 1, or None on a zero or non-finite pivot or when
    either lift fails, as it does at a condition number past the float
    solve's reach.

    x is lifted first, and the lift of y first tries the scale dx
    (``_refine``'s ``seed``): x and y share the matrix, so y's denominators
    often divide dx, and that attempt needs about half the precision of a
    reconstruction.
    """
    k = matrix.shape[0]
    if matrix.shape != (k, k) or len(rhs) != k or len(rhs_t) != k:
        raise ValueError(f"system is {matrix.shape[0]}x{matrix.shape[1]} with "
                         f"{len(rhs)}/{len(rhs_t)} right-hand sides; "
                         "refine_solve needs a square system")
    pivots = np.diagonal(lu[0])
    if not (np.isfinite(pivots).all() and pivots.all()):
        return None
    getrs = scipy_extension("scipy.linalg._flapack").dgetrs
    x = _refine(matrix, rhs, lambda r: getrs(*lu, r)[0])
    if x is None:
        return None
    y = _refine(transpose(matrix), rhs_t, lambda r: getrs(*lu, r, trans=1)[0], x[1])
    return None if y is None else (x, y)


def _refine(matrix, rhs: list[int], solve,
            seed: int = 1) -> tuple[list[int], int] | None:
    """Integer iterative refinement of matrix x = rhs, where ``matrix`` is a
    square int64 CSR matrix and ``solve(r)`` a float approximation of
    matrix^-1 r (Wan, "An algorithm to solve integer linear systems exactly
    using numerical methods", J. Symb. Comput. 41(6), 2006); (X, d) with
    x = X / d, or None when it fails.

    It keeps 2^top rhs = matrix numer + residual exactly, so numer / 2^top
    is x to within matrix^-1 residual / 2^top.  A step solves y ~
    matrix^-1 residual in floats, takes the digit round(2^s y) with s chosen
    so that |digit| <= 2^30, and sets residual <- 2^s residual - matrix
    digit, numer <- 2^s numer + digit, top <- top + s (a negative s, for a
    large right-hand side, scales the digit instead).  The residual is
    int64 when a bound on the step's terms proves it fits, and a Python-int
    object array otherwise, through the same code.  A zero residual makes
    (numer, 2^top) exactly x; otherwise ``_dyadic_candidate`` proposes x at
    growing precision and accepts it only by its exact check.

    Attempts come at 64 bits of precision and then each half as many bits
    again (64 at least).  A ``seed`` > 1, a denominator x is expected to
    share, is tried once, as soon as the precision passes its bits plus
    ``_SLACK``.  None when the residual passes the float range, the float
    solve is zero or not finite, the residual stops shrinking (to less than
    half of 2^s residual), or the precision passes a Hadamard-style budget
    with no candidate accepted; every step wins a bit, and the step count is
    capped by that budget too.
    """
    k = len(rhs)
    norm, det_bits = _hadamard(matrix)
    budget = 2 * det_bits + 64
    residual = np.array([int(b) for b in rhs], dtype=object)
    numer = np.zeros(k, dtype=object)
    top = 0
    next_attempt = 64.0
    seed_at = seed.bit_length() + _SLACK if seed > 1 else math.inf
    for _ in range(int(budget) + 2):
        size = _magnitude(residual)
        if not size:  # numer / 2^top is x exactly
            return numer.tolist(), 1 << top
        if size.bit_length() > _FLOAT_BITS:
            return None
        y = solve(residual.astype(np.float64))
        err = float(np.abs(y).max())  # ~ |2^top x - numer|
        if not 0 < err < math.inf:
            return None
        precision = top - math.log2(err)
        if precision >= seed_at:
            seed_at = math.inf
            x = _dyadic_candidate(matrix, rhs, numer, top, err, seed)
            if x is not None:
                return x
        if precision >= next_attempt or precision >= budget:
            x = _dyadic_candidate(matrix, rhs, numer, top, err)
            if x is not None or precision >= budget:
                return x
            next_attempt = precision + max(64.0, precision / 2)
        s = _DIGIT_BITS - math.frexp(err)[1]
        up, down = max(s, 0), max(-s, 0)
        digit = np.rint(np.ldexp(y, s)).astype(np.int64)
        reach = norm * _magnitude(digit)
        if (size << up) + (reach << down) < 1 << 63:
            # every term and partial sum of the step fits int64
            step = ((residual.astype(np.int64) << up)
                    - (exact_product(matrix, digit) << down))
        else:
            step = ((residual.astype(object) << up)
                    - (exact_product(matrix, digit).astype(object) << down))
        if 2 * _magnitude(step) > size << up:
            return None  # the float solve no longer halves the residual
        numer = (numer << up) + (digit.astype(object) << down)
        residual = step
        top += up
    return None


def _dyadic_candidate(matrix, rhs: list[int], numer: np.ndarray, top: int,
                      err: float, d: int = 1) -> tuple[list[int], int] | None:
    """Rationals X / d near numer / 2^top that solve matrix x = rhs exactly,
    or None.

    ``err`` estimates |2^top x - numer|, and E = 2 err + 1 bounds it.  The
    entries are walked once, as Python ints, over a running denominator d
    (1 unless a seed is given).  An entry a that d explains, with a d within
    E d of a multiple of 2^top, costs one multiplication and a compare.  Any
    other entry takes its last continued-fraction convergent n/q with
    q <= Q = sqrt(2^top / 2E) (``_convergent``), which must lie within E of
    it, and d grows to lcm(d, q); a d past Q ends the attempt.  Two fractions
    of denominator at most Q within E / 2^top of one point are equal, and
    such a fraction is a convergent of the point (Legendre), so this is the
    rounding a separate reconstruction of each entry would give.  A
    convergent that does not end the attempt has q not dividing d (d would
    have explained the entry), so it at least doubles d: an attempt takes at
    most log2 Q + 1 convergents, and one at too low a precision usually
    stops after one or two.
    The candidate is X = round(d numer / 2^top), returned with d only if
    matrix X = d rhs holds exactly (``exact_product``).
    """
    bound = int(2 * err) + 1
    limit = math.isqrt((1 << top) // (2 * bound))
    if not limit:
        return None
    full = 1 << top
    mask = full - 1
    tol = bound * d
    for a in numer.tolist():
        r = a * d & mask  # a d mod 2^top
        if r <= tol or full - r <= tol:
            continue
        if d > limit:  # lcm(d, q) would be too
            return None
        n, q = _convergent(a, top, limit)
        if abs(a * q - (n << top)) > bound * q:
            return None
        d = math.lcm(d, q)
        if d > limit:
            return None
        tol = bound * d
    scaled = (numer * d + (full >> 1)) >> top
    if exact_product(matrix, scaled).tolist() != [d * int(b) for b in rhs]:
        return None
    return scaled.tolist(), d


def _convergent(a: int, top: int, limit: int) -> tuple[int, int]:
    """The last continued-fraction convergent n/q of a / 2^top with
    q <= limit (``limit`` >= 1), as in ``Fraction.limit_denominator`` but
    in ints alone."""
    n0, q0, n1, q1 = 0, 1, 1, 0
    num, den = a, 1 << top
    while den:
        t = num // den
        if q0 + t * q1 > limit:
            break
        n0, q0, n1, q1 = n1, q1, n0 + t * n1, q0 + t * q1
        num, den = den, num - t * den
    return n1, q1
