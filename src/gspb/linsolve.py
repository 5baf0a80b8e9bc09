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
are read off N / 2^top over a running common denominator.  The crossover
bases are small-integer matrices of modest condition number, for which
this costs one LU and a few dozen triangular solves.  The floats only
propose digits and can fail (a zero pivot, a residual that stops
shrinking): then the lift returns None and the caller falls back.

The support solves need an exact rank and have no conditioning limit:
``select_pivots_mod`` picks an independent square subsystem B and
``dixon_solve`` solves it.  B is selected and factored by one forward
elimination modulo one word-sized prime ``PRIME``, which keeps its LU
factors in place; the selection returns B^-1 = U^-1 L^-1 mod p from those
factors, and ``dixon_solve`` lifts the solution p-adically (Dixon) from
that inverse, one numpy pass per step (Chen and Storjohann, "A BLAS based
C library for exact linear algebra on integer matrices", ISSAC 2005), and
recovers rationals over a running common denominator, with an extended
Euclid only for entries it does not already explain.  B is nonsingular
modulo the prime it was selected with by construction, so no second prime
is ever needed.

On both routes every candidate, scaled by the LCM of its denominators, is
checked exactly by ``exact_product``, the package's one exact sparse
product, before being returned, so a wrong digit or a failed reconstruction
can only cost time, never correctness.  ``exact_product`` sums in int64
where a bound on its inputs proves that no partial sum can overflow, and in
Python ints otherwise; ``exact_dot`` does the same for one dot product.

Elimination and triangular inversion mod p are blocked and run on float64
residues, so that the bulk of the work is BLAS ``gemm`` (Dumas, Giorgi and
Pernet, "Dense linear algebra over word-size prime fields: the FFLAS and
FFPACK packages", ACM TOMS 35(3), 2008).  float64 holds every integer below
2^53 exactly, so a product of matrices with entries in [0, p) and inner
width w is exact while w*(p-1)^2 < 2^53.  The primes stay below 2^20, which
allows w up to 8192; every reduced product goes through ``_product_mod``,
which cuts wider inner dimensions into chunks and reduces between them, and
``_check_exact`` raises before any product that could round.
"""

from __future__ import annotations

import math
import operator
import warnings
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


def _product_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p for float64 residues in [0, p), exact at any inner width.

    The inner width is cut into the widest chunks that ``_check_exact``
    allows with one term to spare, so that a chunk's product plus the reduced
    sum of the chunks before it stays below 2^53; the sum is reduced after
    every chunk.  Either factor may be a vector.
    """
    width = a.shape[-1]
    chunk = max(1, (_EXACT - 1) // (p - 1) ** 2 - 1)
    _check_exact(chunk + 1, p)
    out = a[..., :chunk] @ b[:chunk]
    np.remainder(out, p, out=out)
    for s in range(chunk, width, chunk):
        out += a[..., s:s + chunk] @ b[s:s + chunk]
        np.remainder(out, p, out=out)
    return out


def _eliminate(work: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward elimination mod p of a float64 matrix of residues, in place.

    Columns are scanned left to right; a column with no nonzero entry at or
    below the frontier is skipped, otherwise the first such row is swapped
    with the frontier row and becomes the pivot row.  Returns the row order
    after the swaps (``order[t]`` is the input row now at position t) and the
    pivot columns.  Every row operation is applied across the full width.

    On return ``work`` holds the LU factors in the LAPACK ``getrf`` layout.
    Row t < k = ``len(cols)`` is the t-th echelon row scaled so that its pivot
    entry is 1: U, whose unit diagonal is implied.  Column ``cols[t]`` holds,
    from row t down, the multipliers L of pivot t, the unscaled pivot on the
    diagonal.  So ``matrix[order[:k]][:, cols] = L U`` with L the lower
    triangle of ``work[:k, cols]`` and U its strict upper triangle plus I.

    Each 64-column panel is factored unblocked in int64, and its multipliers
    are written back once per panel; its row operations reach the columns to
    its right as one small triangular transform and a gemm on the pivot rows,
    and one gemm ``X -= L @ U`` on the rows below.  Those rows are reduced
    only when their entries could otherwise pass 2^53.
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
        # below the diagonal of the pivot columns the panel holds zeros and
        # on it ones: L replaces both, U above it stays
        at = [c - c0 for c in cols[len(cols) - r:]]
        panel[:, at] = np.triu(panel[:, at], 1) + lower[:, :r]
        work[f:, c0:c1] = panel
        # pivot rows: U12 = L11^-1 A12; rows below: X -= L21 U12
        u12 = _product_mod(_lower_inverse(lower[:r, :r], p),
                           np.remainder(work[f:f + r, c1:], p), p)
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
    """Inverse mod p of a small lower triangular int64 matrix, as float64.
    Entries above the diagonal are not read."""
    r = lower.shape[0]
    inv = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        row = -(lower[i, :i] @ inv[:i]) % p
        row[i] = 1
        inv[i] = row * pow(int(lower[i, i]), p - 2, p) % p
    return inv.astype(np.float64)


def _triangular_inverse(t: np.ndarray, p: int, unit: bool, out: np.ndarray) -> None:
    """Write the inverse mod p of the lower triangle of the square float64
    residue matrix ``t`` into ``out``, which is zero above its diagonal.
    With ``unit`` the diagonal of t is read as ones; entries of t above its
    diagonal are never read.

    Recursive, by [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
    down to blocks of at most 64 rows, which ``_lower_inverse`` inverts.
    """
    k = t.shape[0]
    if k <= _PANEL:
        base = t.astype(np.int64)
        if unit:
            np.fill_diagonal(base, 1)
        out[:] = _lower_inverse(base, p)
        return
    h = k // 2
    _triangular_inverse(t[:h, :h], p, unit, out[:h, :h])
    _triangular_inverse(t[h:, h:], p, unit, out[h:, h:])
    left = _product_mod(out[h:, h:], _product_mod(t[h:, :h], out[:h, :h], p), p)
    np.negative(left, out=left)
    np.remainder(left, p, out=out[h:, :h])


def select_pivots_mod(matrix: np.ndarray,
                      p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Pivots of a forward elimination mod p, and the inverse of the block
    they select.

    Rows are taken first-nonzero-first, so pre-ordering the matrix rows by
    preference makes the selection honor that preference.  Returns original
    (row, column) index lists of equal length k (the rank) and the inverse
    mod p of ``matrix[rows][:, cols]``, in that row and column order, as a
    k x k float64 array of residues.

    The inverse is U^-1 L^-1, built from the LU factors of the one
    elimination (Dumas, Giorgi and Pernet 2008): L is inverted as lower
    triangular, and U, unit upper triangular, with its rows and columns
    reversed, which makes it unit lower triangular.
    """
    work = np.remainder(matrix, p).astype(np.float64)
    order, cols = _eliminate(work, p)
    k = len(cols)
    lu = work[:k, cols]
    del work  # the m x n array goes before the k x k inverses are made
    l_inv = np.zeros((k, k))
    _triangular_inverse(lu, p, False, l_inv)
    u_inv = np.zeros((k, k))  # U^-1 with its rows and columns reversed
    _triangular_inverse(lu[::-1, ::-1], p, True, u_inv)
    del lu
    return order[:k].tolist(), cols, _product_mod(u_inv[::-1, ::-1], l_inv, p)


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
    """Exact solution of the square sparse integer system matrix * x = rhs.

    matrix: a k x k ``scipy.sparse`` CSR matrix of int64; inv: its inverse
    mod ``PRIME`` as float64 residues, the one ``select_pivots_mod`` returns
    with the block.  Returns None when a lifting budget runs out.  A
    candidate x is returned only if A.X == d.rhs holds exactly
    (``exact_product``), where d is the LCM of its denominators and X = d.x.
    """
    if matrix.shape != (k, k) or inv.shape != (k, k) or len(rhs) != k:
        raise ValueError(f"system is {matrix.shape[0]}x{matrix.shape[1]} with "
                         f"a {inv.shape[0]}x{inv.shape[1]} inverse and "
                         f"{len(rhs)} right-hand sides; dixon_solve needs a "
                         f"square {k}x{k} system")
    return _lift(matrix, rhs, lambda r: _product_mod(inv, r, PRIME))


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
    exact.  ``matrix`` is a scipy CSR matrix or an ``exactlp.CoveringLP``
    (int64 or Python-int data); x is a sequence of ints (``int_array``).

    The sums are int64 when max|x| max|a| L < 2^63, for L the longest row
    (the longest column with ``transpose``): no term or partial sum can then
    pass int64.  Otherwise they are Python ints in an object array, by the
    same code; x past int64 goes there without a scan.
    Only entries whose coefficient is not 1 are multiplied, so a 0/1 matrix
    makes no Python int but the sums; ``np.add.at`` takes those and, unlike
    ``np.add.reduceat``, leaves an empty row at zero."""
    x = int_array(x)
    counts = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(len(counts)), counts)
    src, dst = (rows, matrix.indices) if transpose else (matrix.indices, rows)
    data = matrix.data
    if x.dtype == np.int64:
        lines = np.bincount(matrix.indices) if transpose else counts
        bound = _magnitude(x) * _magnitude(data) * int(lines.max(initial=0))
        if data.dtype != np.int64 or bound >= 1 << 63:
            x = x.astype(object)
    terms = x[src]
    not_one = np.flatnonzero(data != 1)
    terms[not_one] *= data[not_one].astype(x.dtype)
    out = np.zeros(matrix.shape[1 if transpose else 0], dtype=x.dtype)
    np.add.at(out, dst, terms)
    return out


def _lift(matrix, rhs: list[int], solve_mod) -> list[Fraction] | None:
    """Dixon lifting of matrix x = rhs, where ``matrix`` is a square int64
    CSR matrix and ``solve_mod(r)`` is matrix^-1 r mod ``PRIME`` (float64
    residues); None when the lifting budget runs out.

    Each step is one pass over the residual array r: the digit is
    x_s = matrix^-1 (r mod p), and r becomes (r - matrix x_s) / p, which
    must divide exactly.  |r| never exceeds max(max|rhs|, N) for N the
    largest row L1 norm, so r is int64 when max|rhs| + N p < 2^62 and a
    Python-int object array otherwise, through the same code; raises
    ``ValueError`` unless N (p - 1) < 2^63, which keeps the int64 product
    ``matrix @ x_s`` exact.  The digits are kept and folded into the p-adic
    solution only when a reconstruction is tried, three per int64
    (p^3 < 2^60), so the per-entry Python loop runs once per three steps.
    """
    p = PRIME
    k = len(rhs)
    # a Python int: the int64 sums' own product with p could wrap
    norm = int(exact_product(abs(matrix), [1] * k).max(initial=0))
    if norm * (p - 1) >= 1 << 63:
        raise ValueError(f"a row of L1 norm {norm} can overflow the int64 "
                         "lifting product")
    max_coeff = int(abs(matrix.data).max(initial=1))
    max_rhs = max((abs(b) for b in rhs), default=1) or 1
    # Hadamard-style budget on numerator/denominator bits, plus slack
    det_bits = k * (0.5 * math.log2(max(k, 2)) + math.log2(max_coeff + 1))
    need_bits = 2 * (det_bits + math.log2(max_rhs + 1)) + 64
    max_steps = int(need_bits / math.log2(p)) + 8

    dtype = np.int64 if max_rhs + norm * p < 1 << 62 else object
    residual = np.array([int(b) for b in rhs], dtype=dtype)
    digits: list[np.ndarray] = []  # lifted digits not yet folded
    solution_mod = [0] * k
    modulus = 1
    next_attempt = 8
    step = 0
    while step < max_steps:
        digit = solve_mod((residual % p).astype(np.float64)).astype(np.int64)
        residual -= matrix @ digit  # exact: the row norms were checked
        if (residual % p).any():
            raise GspbError("Dixon lifting: a p-adic step left a "
                            f"residual not divisible by {p}")
        residual //= p
        digits.append(digit)
        step += 1
        if step >= next_attempt or step == max_steps:
            next_attempt = step + max(8, step // 2)
            for s in range(0, len(digits), 3):
                group = digits[s:s + 3]
                folded = sum(g * p ** t for t, g in enumerate(group))
                solution_mod = [a + b * modulus
                                for a, b in zip(solution_mod, folded.tolist())]
                modulus *= p ** len(group)
            digits.clear()
            x = _try_reconstruct(solution_mod, modulus)
            if x is None:
                continue
            d = math.lcm(*(v.denominator for v in x))
            scaled = [v.numerator * (d // v.denominator) for v in x]
            if exact_product(matrix, scaled).tolist() == [d * b for b in rhs]:
                return x
    # lifting budget exhausted: the supports were likely wrong
    return None


def _try_reconstruct(residues: list[int], modulus: int) -> list[Fraction] | None:
    """Rationals congruent to ``residues`` mod ``modulus``, or None.

    Entries share a running denominator d, the LCM of the denominators found
    so far (Steffy, "Exact solutions to linear systems of equations using
    output sensitive lifting", ACM Commun. Comput. Algebra 44(4), 2010).
    When the balanced residue n of a*d is at most sqrt(modulus/2), as is d,
    the entry is n/d with no extended Euclid: by the uniqueness of bounded
    reconstruction it is the entry ``rational_reconstruct`` would return.
    Otherwise the entry is reconstructed alone and d grows.  Coordinates of
    one LP vertex mostly share a denominator, so most entries take one
    multiplication.
    """
    bound = math.isqrt(modulus // 2)
    d = 1
    out = []
    for a in residues:
        n = a * d % modulus
        if n > modulus // 2:
            n -= modulus
        if abs(n) <= bound and d <= bound:
            out.append(Fraction(n, d))
            continue
        f = rational_reconstruct(a, modulus)
        if f is None:
            return None
        out.append(f)
        d = math.lcm(d, f.denominator)
    return out


# ---------------------------------------------------------------------------
# float-factored solves: integer iterative refinement
# ---------------------------------------------------------------------------

_DIGIT_BITS = 30    # |digit| <= 2^30: a float solve with 32 good bits rounds it within 1
_FLOAT_BITS = 1000  # a residual past 2^1000 could pass the float64 range


def refine_solve(matrix, rhs: list[int], rhs_t: list[int]):
    """Exact solutions of matrix x = rhs and matrix^T y = rhs_t, lifted from
    one float LU factorisation of the square int64 CSR ``matrix``.

    The float factors, from LAPACK ``getrf`` (``scipy.linalg.lu_factor``),
    only propose digits: each side is lifted by ``_refine`` and returned
    only if its exact check holds.  Returns the pair (x, y), or None on a
    zero or non-finite pivot or when either lift fails, as it does at a
    condition number past the float solve's reach.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    k = matrix.shape[0]
    if matrix.shape != (k, k) or len(rhs) != k or len(rhs_t) != k:
        raise ValueError(f"system is {matrix.shape[0]}x{matrix.shape[1]} with "
                         f"{len(rhs)}/{len(rhs_t)} right-hand sides; "
                         "refine_solve needs a square system")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)  # a zero pivot: below
        lu = lu_factor(matrix.astype(np.float64).toarray(), check_finite=False)
    pivots = np.diagonal(lu[0])
    if not (np.isfinite(pivots).all() and pivots.all()):
        return None
    x = _refine(matrix, rhs, lambda r: lu_solve(lu, r, check_finite=False))
    if x is None:
        return None
    y = _refine(matrix.T.tocsr(), rhs_t,
                lambda r: lu_solve(lu, r, trans=1, check_finite=False))
    return None if y is None else (x, y)


def _refine(matrix, rhs: list[int], solve) -> list[Fraction] | None:
    """Integer iterative refinement of matrix x = rhs, where ``matrix`` is a
    square int64 CSR matrix and ``solve(r)`` a float approximation of
    matrix^-1 r (Wan, "An algorithm to solve integer linear systems exactly
    using numerical methods", J. Symb. Comput. 41(6), 2006); None when it
    fails.

    It keeps 2^top rhs = matrix numer + residual exactly, so numer / 2^top
    is x to within matrix^-1 residual / 2^top.  A step solves y ~
    matrix^-1 residual in floats, takes the digit round(2^s y) with s chosen
    so that |digit| <= 2^30, and sets residual <- 2^s residual - matrix
    digit, numer <- 2^s numer + digit, top <- top + s (a negative s, for a
    large right-hand side, scales the digit instead).  The residual is
    int64 when a bound on the step's terms proves it fits, and a Python-int
    object array otherwise, through the same code.  A zero residual makes
    numer / 2^top exactly x; otherwise ``_dyadic_candidate`` proposes x at
    growing precision and accepts it only by its exact check.  None when the
    residual passes the float range, the float solve is zero or not finite,
    the residual stops shrinking (to less than half of 2^s residual), or the
    precision passes a Hadamard-style budget with no candidate accepted;
    every step wins a bit, and the step count is capped by that budget too.
    """
    k = len(rhs)
    norm = int(exact_product(abs(matrix), [1] * k).max(initial=0))
    max_coeff = int(abs(matrix.data).max(initial=1))
    # the denominators divide det(matrix), which is below 2^det_bits
    det_bits = k * (0.5 * math.log2(max(k, 2)) + math.log2(max_coeff + 1))
    budget = 2 * det_bits + 64
    residual = np.array([int(b) for b in rhs], dtype=object)
    numer = np.zeros(k, dtype=object)
    top = 0
    next_attempt = 64.0
    for _ in range(int(budget) + 2):
        size = _magnitude(residual)
        if not size:  # numer / 2^top is x exactly
            return [Fraction(int(v), 1 << top) for v in numer]
        if size.bit_length() > _FLOAT_BITS:
            return None
        y = solve(residual.astype(np.float64))
        err = float(np.abs(y).max())  # ~ |2^top x - numer|
        if not 0 < err < math.inf:
            return None
        precision = top - math.log2(err)
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
            step = (residual.astype(np.int64) << up) - ((matrix @ digit) << down)
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
                      err: float) -> list[Fraction] | None:
    """Rationals near numer / 2^top that solve matrix x = rhs exactly, or None.

    ``err`` estimates |2^top x - numer|, and E = 2 err + 1 bounds it.  Entries
    share a running denominator d: an entry within E d of a multiple of 2^top
    once scaled by d is that multiple over d; otherwise its last
    continued-fraction convergent with denominator at most
    Q = sqrt(2^top / 2E) (``_convergent``) must lie within E of it, and d
    grows to take it in.  Two fractions of denominator at most Q within
    E / 2^top of one point are equal, and such a fraction is a convergent of
    the point (Legendre), so this is the rounding a separate reconstruction
    of each entry would give.  The candidate is X / d with
    X = round(d numer / 2^top), returned only if matrix X = d rhs holds
    exactly (``exact_product``).
    """
    bound = int(2 * err) + 1
    limit = math.isqrt((1 << top) // (2 * bound))
    if not limit:
        return None
    half = (1 << top) >> 1
    d = 1
    todo = numer
    while True:
        near = (todo * d + half) >> top
        todo = todo[np.abs(todo * d - (near << top)) > bound * d]
        if not todo.size:
            break
        a = int(todo[0])
        n, q = _convergent(a, top, limit)
        if abs(a * q - (n << top)) > bound * q:
            return None
        d = math.lcm(d, q)
        if d > limit:
            return None
    scaled = (numer * d + half) >> top
    if exact_product(matrix, scaled).tolist() != [d * int(b) for b in rhs]:
        return None
    return [Fraction(int(v), d) for v in scaled]


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
