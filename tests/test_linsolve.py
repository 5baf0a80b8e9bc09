"""The blocked mod-p elimination against a plain Python-int reference."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from gspb import exactlp, linsolve
from gspb.channels import GspbError

P = linsolve.PRIME
P23 = 8388593  # largest prime below 2^23: 64*(p-1)^2 < 2^53 < 129*(p-1)^2


def ref_eliminate(matrix, p):
    """Unblocked forward elimination mod p: row order, pivot columns, rows."""
    work = [[int(a) % p for a in row] for row in matrix]
    m = len(work)
    n = len(work[0]) if m else 0
    order = list(range(m))
    cols = []
    f = 0
    for c in range(n):
        if f >= m:
            break
        pr = next((i for i in range(f, m) if work[i][c]), None)
        if pr is None:
            continue
        work[f], work[pr] = work[pr], work[f]
        order[f], order[pr] = order[pr], order[f]
        inv = pow(work[f][c], p - 2, p)
        prow = work[f] = [a * inv % p for a in work[f]]
        for i in range(f + 1, m):
            a = work[i][c]
            if a:
                work[i] = [(x - a * y) % p for x, y in zip(work[i], prow)]
        cols.append(c)
        f += 1
    return order, cols, work


def ref_inverse(matrix, p):
    """Gauss-Jordan inverse mod p on [A | I], or None when singular."""
    k = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    _, cols, work = ref_eliminate(aug, p)
    if cols != list(range(k)):
        return None
    for c in range(k - 1, -1, -1):
        for i in range(c):
            a = work[i][c]
            if a:
                work[i] = [(x - a * y) % p for x, y in zip(work[i], work[c])]
    return [row[k:] for row in work]


def random_matrix(rng, m, k, density, top=4):
    return rng.integers(0, top, (m, k)) * (rng.random((m, k)) < density)


def rank_deficient(rng, m, k):
    """Low rank, a repeated row, a row combination and zero columns."""
    r = max(1, min(m, k) // 3)
    a = rng.integers(0, 3, (m, r)) @ rng.integers(0, 3, (r, k))
    a[:, k // 2] = 0
    a[-1] = a[0]
    return a


def cases():
    rng = np.random.default_rng(20080305)
    for size in (1, 63, 64, 65, 131):
        for density in (3 / size, 0.3, 1.0):
            yield f"square{size}-d{density:.2f}", random_matrix(rng, size, size, density)
    for m, k in ((131, 65), (200, 64), (65, 131)):
        yield f"rect{m}x{k}", random_matrix(rng, m, k, 0.1)
    for m, k in ((64, 64), (131, 131), (150, 70)):
        yield f"deficient{m}x{k}", rank_deficient(rng, m, k)
    # sparse 0/1 with unit diagonal, like the crossover's support systems
    eye = np.eye(131, dtype=np.int64)
    yield "unit-diagonal131", eye + random_matrix(rng, 131, 131, 4 / 131, top=2)


CASES = list(cases())


def is_identity_mod(block, inv, p):
    """inv @ block == I mod p, in Python ints."""
    product = (inv.astype(np.int64).astype(object) @ block.astype(object)) % p
    return (product == np.eye(block.shape[0], dtype=np.int64)).all()


@pytest.mark.parametrize("name,matrix", CASES, ids=[c[0] for c in CASES])
def test_select_pivots_matches_reference(name, matrix):
    order, cols, _ = ref_eliminate(matrix.tolist(), P)
    assert linsolve.select_pivots_mod(matrix, P)[:2] == (order[:len(cols)], cols)


@pytest.mark.parametrize("name,matrix", CASES, ids=[c[0] for c in CASES])
def test_inverse_matches_reference(name, matrix):
    # tall, wide and rank-deficient matrices skip columns, so L sits at
    # non-contiguous pivot columns
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P)
    if matrix.shape[0] == matrix.shape[1]:
        singular = ref_inverse(matrix.tolist(), P) is None
        assert (len(cols) < matrix.shape[0]) == singular
    block = matrix[np.ix_(rows, cols)]
    ref = ref_inverse(block.tolist(), P)
    assert ref is not None
    assert inv.astype(np.int64).tolist() == ref
    assert is_identity_mod(block, inv, P)


@pytest.mark.parametrize("name,matrix", CASES, ids=[c[0] for c in CASES])
def test_selected_block_inverts_mod_the_same_prime(name, matrix):
    # dixon_solve needs no second prime: the block the pivot selection picks
    # is nonsingular modulo the prime it was picked with, and the selection
    # returns its inverse
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P)
    assert inv.shape == (len(rows), len(cols))
    assert is_identity_mod(matrix[np.ix_(rows, cols)], inv, P)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 140), st.integers(1, 140), st.floats(0.0, 1.0),
       st.sampled_from([P, P23]), st.integers(0, 2**32 - 1))
def test_selection_inverse_property(m, n, density, p, seed):
    # sizes on both sides of the 64-column panel edge, at both primes
    matrix = random_matrix(np.random.default_rng(seed), m, n, density, top=p)
    rows, cols, inv = linsolve.select_pivots_mod(matrix, p)
    order, ref_cols, _ = ref_eliminate(matrix.tolist(), p)
    assert (rows, cols) == (order[:len(ref_cols)], ref_cols)
    assert is_identity_mod(matrix[np.ix_(rows, cols)], inv, p)


def test_selection_memory_is_a_few_inverses():
    # the m x n work array is freed before the k x k triangular inverses are
    # made, so selection and inverse peak near 3.5 k^2 doubles
    k = 300
    matrix = np.random.default_rng(300).integers(0, P, (k, k))
    tracemalloc.start()
    try:
        _, cols, _ = linsolve.select_pivots_mod(matrix, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols) == k
    assert peak <= 4.5 * k * k * 8


def test_row_preference_order():
    # column 0 swaps row 2 to the front and row 0 to position 2, so row 1
    # now precedes row 0 and wins column 1; row 0 then pivots on column 2
    matrix = np.array([[0, 1, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert linsolve.select_pivots_mod(matrix, P)[:2] == ([2, 1, 0], [0, 1, 2])
    # a column with no entry at or below the frontier is skipped
    matrix = np.array([[1, 1, 0, 0], [2, 2, 0, 1], [0, 0, 0, 3]])
    assert linsolve.select_pivots_mod(matrix, P)[:2] == ([0, 1], [0, 3])


def test_reduction_after_every_panel():
    # near 2^23 two trailing updates fill the float64 budget, so the rows
    # below the frontier are reduced before every second update
    rng = np.random.default_rng(7)
    for matrix in (random_matrix(rng, 200, 200, 1.0, top=P23),
                   rank_deficient(rng, 131, 131)):
        order, cols, _ = ref_eliminate(matrix.tolist(), P23)
        assert linsolve.select_pivots_mod(matrix, P23)[:2] == (order[:len(cols)], cols)
    # the inverse's products reduce after every chunk of 127 terms
    matrix = random_matrix(rng, 131, 131, 1.0, top=P23)
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P23)
    assert rows == cols == list(range(131))
    assert inv.astype(np.int64).tolist() == ref_inverse(matrix.tolist(), P23)
    # eleven panels: unreduced, the trailing entries would pass 2^53 and
    # round; int64 holds the 704-term check sums (each below 2^46)
    matrix = random_matrix(rng, 704, 704, 1.0, top=P23)
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P23)
    assert len(cols) == 704
    inv = inv.astype(np.int64)
    block = matrix[np.ix_(rows, cols)]
    assert ((block @ inv) % P23 == np.eye(704, dtype=np.int64)).all()


def test_exactness_bound_raises():
    with pytest.raises(ValueError, match="2\\^53"):
        linsolve.select_pivots_mod(np.eye(3, dtype=np.int64), 67108859)


def test_primes():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert is_prime(P) and P < 1 << 20
    assert not any(is_prime(q) for q in range(P + 1, 1 << 20))


def test_dixon_across_panels():
    rng = np.random.default_rng(11)
    k = 131
    dense = np.eye(k, dtype=np.int64) * 3 + random_matrix(rng, k, k, 5 / k)
    rows = [[(j, int(a)) for j, a in enumerate(row) if a] for row in dense]
    rhs = [int(b) for b in rng.integers(-5, 6, k)]
    piv_rows, piv_cols, inv = linsolve.select_pivots_mod(dense, P)
    assert piv_rows == piv_cols == list(range(k))
    x = linsolve.dixon_solve(csr_matrix(dense), k, inv, rhs)
    assert x is not None
    assert all(sum(a * x[j] for j, a in row) == b for row, b in zip(rows, rhs))
    assert any(v.denominator > 1 for v in x) and all(isinstance(v, Fraction) for v in x)


def satisfies(matrix, x, rhs, transpose=False) -> bool:
    """matrix x == rhs (matrix^T x with ``transpose``) in Python ints and Fractions."""
    dense = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix).tolist()
    if transpose:
        dense = [list(col) for col in zip(*dense)]
    return all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(dense, rhs))


@pytest.mark.parametrize("name,matrix",
                         [c for c in CASES if c[1].shape[0] == c[1].shape[1]],
                         ids=[c[0] for c in CASES if c[1].shape[0] == c[1].shape[1]])
def test_transposed_lift_from_the_one_inverse(name, matrix):
    # one float LU lifts B x = b and B^T y = c; each side is the solution
    # Dixon lifting gives from the one mod-p inverse (transposed for B^T)
    k = matrix.shape[0]
    rng = np.random.default_rng(k)
    rhs = [int(b) for b in rng.integers(-5, 6, k)]
    c = [int(b) for b in rng.integers(0, 6, k)]
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P)
    if len(cols) < k:
        assert ref_inverse(matrix.tolist(), P) is None
        # singular: refused, or a pair that solves both systems exactly
        pair = linsolve.refine_solve(csr_matrix(matrix), rhs, c)
        assert pair is None or (satisfies(matrix, pair[0], rhs)
                                and satisfies(matrix, pair[1], c, transpose=True))
        return
    block = csr_matrix(matrix[np.ix_(rows, cols)])
    x, y = linsolve.refine_solve(block, rhs, c)
    assert satisfies(block, x, rhs) and satisfies(block, y, c, transpose=True)
    assert x == linsolve.dixon_solve(block, k, inv, rhs)
    assert y == linsolve.dixon_solve(block.T.tocsr(), k, np.ascontiguousarray(inv.T), c)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
       density=st.sampled_from([0.3, 0.6, 1.0]), top=st.sampled_from([2, 9, 1000]))
def test_float_lift_matches_dixon(seed, k, density, top):
    # random nonsingular integer systems: the float-factored lift of
    # B x = b and B^T y = c returns what select_pivots_mod and dixon_solve
    # return, or None only on a basis too ill-conditioned for float digits
    rng = np.random.default_rng(seed)
    matrix = (rng.integers(-top, top + 1, (k, k)) * (rng.random((k, k)) < density)
              + np.eye(k, dtype=np.int64))
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P)
    block = matrix[np.ix_(rows, cols)]
    r = len(cols)
    rhs = [int(b) for b in rng.integers(-9, 10, r)]
    c = [int(b) for b in rng.integers(-9, 10, r)]
    pair = linsolve.refine_solve(csr_matrix(block), rhs, c)
    if pair is None:
        assert np.linalg.cond(block) > 1e8
        return
    csr = csr_matrix(block)
    assert pair == (linsolve.dixon_solve(csr, r, inv, rhs),
                    linsolve.dixon_solve(csr.T.tocsr(), r,
                                         np.ascontiguousarray(inv.T), c))


def test_float_candidate_is_accepted_only_by_its_exact_check():
    # 3 x = 1: numer / 2^top = 1/5, claimed accurate to 0.4 / 2^top, gives
    # the candidate 1/5, which the exact product refuses; 1/3 passes
    matrix = csr_matrix([[3]], dtype=np.int64)
    for value, want in ((Fraction(1, 5), None), (Fraction(1, 3), [Fraction(1, 3)])):
        numer = np.array([round(value * 2**20)], dtype=object)
        assert linsolve._dyadic_candidate(matrix, [1], numer, 20, 0.4) == want


def test_float_lift_refuses_an_ill_conditioned_basis():
    # 2^16 times a rank-2 pattern plus a small block: condition number 4e10.
    # LU finds nonzero pivots, but float digits of B^T y = 1 no longer halve
    # the residual, so the lift returns None; Dixon lifting still solves it
    big = 1 << 16
    matrix = (big * np.array([[2, 0, 2], [0, 2, 2], [1, 1, 2]])
              + np.array([[3, 2, 1], [2, 1, 3], [3, 1, 2]]))
    block = csr_matrix(matrix)
    assert np.linalg.cond(matrix) > 1e10
    assert linsolve.refine_solve(block, [1, 1, 1], [1, 1, 1]) is None
    rows, cols, inv = linsolve.select_pivots_mod(matrix.T, P)
    y = linsolve.dixon_solve(csr_matrix(matrix.T[np.ix_(rows, cols)]), 3, inv, [1, 1, 1])
    assert y is not None and satisfies(matrix.T[np.ix_(rows, cols)], y, [1, 1, 1])
    # a singular block stops at its zero pivot, and a right-hand side past
    # the float64 range is refused rather than converted
    assert linsolve.refine_solve(csr_matrix([[1, 2], [2, 4]]), [1, 1], [1, 1]) is None
    assert linsolve.refine_solve(csr_matrix([[1]]), [1], [1 << 1100]) is None


def test_dixon_refuses_a_row_norm_that_overflows_int64():
    # each coefficient fits, but their row sum times p - 1 passes 2^63
    matrix = csr_matrix([[1 << 43, 1 << 43], [0, 1]], dtype=np.int64)
    inv = linsolve.select_pivots_mod(matrix.toarray(), P)[2]
    with pytest.raises(ValueError, match="overflow"):
        linsolve.dixon_solve(matrix, 2, inv, [1, 1])


def test_dixon_never_returns_a_wrong_reconstruction(monkeypatch):
    # the integer check, not the reconstruction, decides what is returned
    real = linsolve._try_reconstruct
    calls = []

    def perturbed(residues, modulus):
        x = real(residues, modulus)
        calls.append(x)
        return None if x is None else [x[0] + 1, *x[1:]]

    monkeypatch.setattr(linsolve, "_try_reconstruct", perturbed)
    matrix = csr_matrix([[2, 1], [1, 3]], dtype=np.int64)
    inv = linsolve.select_pivots_mod(matrix.toarray(), P)[2]
    assert linsolve.dixon_solve(matrix, 2, inv, [5, 7]) is None
    assert any(x is not None for x in calls)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), shift=st.integers(0, 200))
@example(seed=1, k=5, shift=0)
@example(seed=1, k=5, shift=58)
@example(seed=1, k=5, shift=59)
@example(seed=1, k=5, shift=200)
def test_scaled_rhs_lifts_to_the_scaled_solution(seed, k, shift):
    # A x = b and A^T y = c against A x' = 2^s b and A^T y' = 2^s c: the
    # float lift must give x' = 2^s x and y' = 2^s y exactly.  A large s
    # starts the residual past int64, in Python ints, and its first digits
    # scale the float solve down instead of the residual up
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-4, 5, (k, k))
    matrix[0, 0] = 1
    rows, cols, inv = linsolve.select_pivots_mod(matrix, P)
    r = len(cols)
    block = csr_matrix(matrix[np.ix_(rows, cols)])
    rhs = [int(b) for b in rng.integers(-9, 10, r)]
    c = [int(b) for b in rng.integers(-9, 10, r)]
    x, y = linsolve.refine_solve(block, rhs, c)
    assert x == linsolve.dixon_solve(block, r, inv, rhs)
    scaled = linsolve.refine_solve(block, [b << shift for b in rhs],
                                   [b << shift for b in c])
    assert scaled == ([v * 2**shift for v in x], [v * 2**shift for v in y])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_product_matches_dense_reference(data):
    # random CSR matrices, some with empty rows, coefficients up to 2^70
    # (object data past int64) and x of 1 to 600 bits, by A x and A^T x
    cols = data.draw(st.integers(1, 7))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, cols - 1), coeff,
                                              max_size=cols),
                              min_size=1, max_size=7))
    rows = [sorted(row.items()) for row in rows] + [[]]
    bits = data.draw(st.integers(1, 600))
    lp = exactlp.CoveringLP.from_rows([0] * cols, rows)
    fits = all(abs(a) < 2**63 for row in rows for _, a in row)
    assert lp.data.dtype == (np.int64 if fits else object)
    dense = [[0] * cols for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row:
            dense[i][j] = a
    entry = st.integers(-2**bits, 2**bits)
    x = data.draw(st.lists(entry, min_size=cols, max_size=cols))
    y = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    ax = [sum(a * v for a, v in zip(row, x)) for row in dense]
    aty = [sum(dense[i][j] * y[i] for i in range(len(rows))) for j in range(cols)]
    assert linsolve.exact_product(lp, x).tolist() == ax
    assert linsolve.exact_product(lp, y, transpose=True).tolist() == aty
    if fits:
        # the scipy form the Dixon lift checks through gives the same sums
        matrix = csr_matrix((lp.data, lp.indices, lp.indptr), shape=lp.shape)
        assert linsolve.exact_product(matrix, x).tolist() == ax


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_dot_matches_python_ints(data):
    # a up to the 2^31 bound of the int64 halves and past it, x across the
    # whole int64 range (negative, 2^63 - 1) and past it
    size = data.draw(st.integers(0, 40))
    a_top = data.draw(st.sampled_from([1, 9, (1 << 31) // max(size, 1) - 1,
                                       (1 << 31) // max(size, 1),
                                       (1 << 32) // max(size, 1), 1 << 40]))
    x_top = data.draw(st.sampled_from([9, 2**62, 2**63 - 1, 2**80]))
    a = data.draw(st.lists(st.integers(-a_top, a_top), min_size=size, max_size=size))
    x = data.draw(st.lists(st.integers(-x_top, x_top), min_size=size, max_size=size))
    if size:
        x[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from([-1, 1])) * x_top
    if data.draw(st.booleans()):
        # every term at its largest, one sign: the partial sums peak
        a, x = [a_top] * size, [x_top] * size
    want = sum(p * q for p, q in zip(a, x))
    assert linsolve.exact_dot(a, x) == want
    assert linsolve.exact_dot(a, linsolve.int_array(x)) == want


# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657; 2^63 is a power of two
_BOUND_FACTORS = {2**63 - 1: [7, 7, 73, 127, 337, 92737, 649657], 2**63: [2] * 63}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_product_takes_int64_exactly_below_its_bound(data):
    # matrices whose bound max|x| max|a| L is exactly 2^63 - 1 (int64 sums)
    # or 2^63 (Python ints), with the longest line L either a row (A x) or a
    # column (A^T x), negative x and coefficients, and an empty line
    target = data.draw(st.sampled_from(sorted(_BOUND_FACTORS)), label="bound")
    factors = _BOUND_FACTORS[target]
    picks = data.draw(st.lists(st.integers(0, 2), min_size=len(factors),
                               max_size=len(factors)))
    # factor 0 goes to L (kept to at most 64), 1 to max|a|, 2 to max|x|
    line = a_max = x_max = 1
    for f, pick in zip(factors, picks):
        if pick == 0 and line * f <= 64:
            line *= f
        elif pick == 1 and a_max * f < 2**63:
            a_max *= f
        else:
            x_max *= f
    assert line * a_max * x_max == target
    cols = data.draw(st.integers(line, line + 3))
    num = data.draw(st.integers(1, 4))
    sign = st.sampled_from([-1, 1])
    rows = []
    for i in range(num):
        size = line if i == 0 else data.draw(st.integers(0, line))
        at = data.draw(st.permutations(range(cols)))[:size]
        rows.append({j: data.draw(sign) * data.draw(st.integers(1, a_max))
                     for j in at})
    rows[0][min(rows[0])] = data.draw(sign) * a_max  # the largest coefficient
    rows.insert(data.draw(st.integers(0, num)), {})  # an empty line
    x = [data.draw(sign) * data.draw(st.integers(0, x_max)) for _ in range(cols)]
    x[data.draw(st.integers(0, cols - 1))] = data.draw(sign) * x_max
    dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
    ax = [sum(a * v for a, v in zip(row, x)) for row in dense]
    matrix = csr_matrix(np.array(dense, dtype=np.int64))
    want = np.int64 if target < 2**63 else object
    out = linsolve.exact_product(matrix, x)
    assert out.dtype == want and out.tolist() == ax
    # the same lines as the columns of A^T
    out = linsolve.exact_product(matrix.T.tocsr(), x, transpose=True)
    assert out.dtype == want and out.tolist() == ax


@pytest.mark.parametrize("shift", [0, 70], ids=["int64", "object"])
def test_non_divisible_residual_raises(shift):
    # a corrupted solve_mod leaves r - A x_s not divisible by p, and the
    # step raises whether the residual is int64 (shift 0) or Python ints
    # (shift 70: 2^70 b does not fit in int64)
    matrix = csr_matrix([[2, 1], [1, 3]], dtype=np.int64)
    inv = linsolve.select_pivots_mod(matrix.toarray(), P)[2]

    def corrupted(r):
        return (linsolve._product_mod(inv, r, P) + 1) % P

    with pytest.raises(GspbError, match="not divisible"):
        linsolve._lift(matrix, [5 << shift, 7 << shift], corrupted)


def _encode(values, modulus):
    return [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in values]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_common_denominator_reconstruction(data):
    # shared or unrelated denominators, zeros and negatives, mod P^s
    size = data.draw(st.integers(1, 12))
    base = data.draw(st.integers(1, 10**6))
    shared = data.draw(st.booleans())
    values = []
    for _ in range(size):
        num = data.draw(st.one_of(st.just(0), st.integers(-10**9, 10**9)))
        den = (base * data.draw(st.sampled_from([1, 1, 2, 3])) if shared
               else data.draw(st.integers(1, 10**6)))
        values.append(Fraction(num, den))
    # bounded reconstruction is unique once 2 max(|n|, d)^2 < modulus
    top = max(max(abs(v.numerator), v.denominator) for v in values)
    s = 1
    while P ** s <= 2 * top ** 2:
        s += 1
    modulus = P ** (s + data.draw(st.integers(0, 2)))
    assert linsolve._try_reconstruct(_encode(values, modulus), modulus) == values
    if s > 1:
        # below the bound: None or congruent entries, never a non-residue
        low = P ** data.draw(st.integers(1, s - 1))
        residues = _encode(values, low)
        out = linsolve._try_reconstruct(residues, low)
        assert out is None or all(
            v.denominator % P and (v.numerator - a * v.denominator) % low == 0
            for v, a in zip(out, residues))


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**6),
       slack=st.integers(0, 40), data=st.data())
def test_convergent_recovers_a_fraction_from_its_dyadic_rounding(num, den, slack, data):
    # a / 2^top within 1/2 of num/den * 2^top, with 2^top >= 2 den^2 2^slack:
    # the last convergent with denominator at most den is num/den reduced
    f = Fraction(num, den)
    top = (2 * den * den).bit_length() + slack
    a = (f.numerator << top) // f.denominator + data.draw(st.integers(0, 1))
    limit = math.isqrt((1 << top) // 2)
    assert linsolve._convergent(a, top, min(limit, den + slack)) == (f.numerator,
                                                                    f.denominator)


def test_reconstruction_past_a_large_common_denominator():
    # the running denominator 100003 * 100019 passes sqrt(P^2 / 2), and
    # 173134 times it is small mod P^2, yet 173134 is not that over it
    m = P ** 2
    values = [Fraction(1, 100003), Fraction(1, 100019), Fraction(173134)]
    assert linsolve._try_reconstruct(_encode(values, m), m) == values
