"""The blocked mod-p elimination against a plain Python-int reference."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gspb import linsolve

P = linsolve.PRIME
P23 = 8388593  # largest prime below 2^23: 64*(p-1)^2 < 2^53 < 128*(p-1)^2


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


@pytest.mark.parametrize("name,matrix", CASES, ids=[c[0] for c in CASES])
def test_select_pivots_matches_reference(name, matrix):
    order, cols, _ = ref_eliminate(matrix.tolist(), P)
    assert linsolve.select_pivots_mod(matrix, P) == (order[:len(cols)], cols)


@pytest.mark.parametrize("name,matrix",
                         [c for c in CASES if c[1].shape[0] == c[1].shape[1]],
                         ids=[c[0] for c in CASES if c[1].shape[0] == c[1].shape[1]])
def test_inverse_matches_reference(name, matrix):
    ref = ref_inverse(matrix.tolist(), P)
    inv = linsolve._inverse_mod(matrix, P)
    assert (inv is None) == (ref is None)
    if ref is None:
        return
    assert inv.astype(np.int64).tolist() == ref
    k = matrix.shape[0]
    product = (matrix.astype(object) @ inv.astype(np.int64).astype(object)) % P
    assert (product == np.eye(k, dtype=np.int64)).all()


@pytest.mark.parametrize("name,matrix", CASES, ids=[c[0] for c in CASES])
def test_selected_block_inverts_mod_the_same_prime(name, matrix):
    # dixon_solve needs no second prime: the block the pivot selection picks
    # is nonsingular modulo the prime it was picked with
    rows, cols = linsolve.select_pivots_mod(matrix, P)
    assert linsolve._inverse_mod(matrix[np.ix_(rows, cols)], P) is not None


def test_row_preference_order():
    # column 0 swaps row 2 to the front and row 0 to position 2, so row 1
    # now precedes row 0 and wins column 1; row 0 then pivots on column 2
    matrix = np.array([[0, 1, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert linsolve.select_pivots_mod(matrix, P) == ([2, 1, 0], [0, 1, 2])
    # a column with no entry at or below the frontier is skipped
    matrix = np.array([[1, 1, 0, 0], [2, 2, 0, 1], [0, 0, 0, 3]])
    assert linsolve.select_pivots_mod(matrix, P) == ([0, 1], [0, 3])


def test_reduction_after_every_panel():
    # near 2^23 one trailing update fills the float64 budget, so the rows
    # below the frontier are reduced before each later update
    rng = np.random.default_rng(7)
    for matrix in (random_matrix(rng, 200, 200, 1.0, top=P23),
                   rank_deficient(rng, 131, 131)):
        order, cols, _ = ref_eliminate(matrix.tolist(), P23)
        assert linsolve.select_pivots_mod(matrix, P23) == (order[:len(cols)], cols)
    matrix = random_matrix(rng, 131, 131, 1.0, top=P23)
    assert linsolve._inverse_mod(matrix, P23).astype(np.int64).tolist() == \
        ref_inverse(matrix.tolist(), P23)
    # eleven panels: unreduced, the trailing entries would pass 2^53 and
    # round; int64 holds the 704-term check sums (each below 2^46)
    matrix = random_matrix(rng, 704, 704, 1.0, top=P23)
    inv = linsolve._inverse_mod(matrix, P23).astype(np.int64)
    assert ((matrix @ inv) % P23 == np.eye(704, dtype=np.int64)).all()


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
    x = linsolve.dixon_solve(csr_matrix(dense), k, rhs)
    assert x is not None
    assert all(sum(a * x[j] for j, a in row) == b for row, b in zip(rows, rhs))
    assert any(v.denominator > 1 for v in x) and all(isinstance(v, Fraction) for v in x)


def test_dixon_refuses_a_row_norm_that_overflows_int64():
    # each coefficient fits, but their row sum times p - 1 passes 2^63
    matrix = csr_matrix([[1 << 43, 1 << 43], [0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        linsolve.dixon_solve(matrix, 2, [1, 1])


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
    assert linsolve.dixon_solve(matrix, 2, [5, 7]) is None
    assert any(x is not None for x in calls)
