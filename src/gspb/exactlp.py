"""Exact rational covering/packing LP solver.

The covering problem is  min c.w  s.t.  A w >= 1, w >= 0  with nonnegative
integer data; its dual is the fractional packing problem
max sum(z) s.t. A^T z <= c, z >= 0.  A ``CoveringLP`` keeps A in CSR arrays
alone, from its builders to HiGHS and every exact check.  Every LP takes one
path: a float presolve, in which HiGHS solves that packing LP with its own
presolve off, followed by an exact crossover, which reads the optimal
supports off the float vertex and solves the complementary-slackness
systems B w = 1 and B^T z = c exactly on one basis B of A[R,S]: one float
LU of B proposes the digits of both, and ``linsolve.refine_solve`` lifts
them by integer iterative refinement.  When the float lift fails (a
basis too ill-conditioned for float digits), or the pair fails the
certificate check (at a degenerate vertex), the dual and the primal are
solved on their own supports, each by one support solve
(``_support_solve``), as is the subspace block dual
(``complementary_dual``); these need an exact rank, so they select and
factor their subsystem mod p and lift it by Dixon's method.  All of these
read the arrays as one int64 scipy matrix (``_int_matrix``), which refuses
a coefficient past int64 with ``GspbError``.

A solve returns an optimum only with exact primal and dual witnesses that
passed ``check_certificate``, the one acceptance test every certified value
in the package goes through, and raises ``GspbError`` naming the failed
stage otherwise; its sums are ``linsolve.exact_product``, in int64 where a
bound on the scaled witness, the coefficients and the longest row or column
proves that they fit and in Python ints otherwise.  Floats choose the
supports, the basis and the digits, and so can only make a solve fail or
fall back; they never decide a certified value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linsolve
from .channels import GspbError


@dataclass
class CoveringLP:
    """Sparse covering LP with an implicit all-ones right-hand side: row i
    holds ``data[indptr[i]:indptr[i+1]]`` at the variables
    ``indices[indptr[i]:indptr[i+1]]``."""

    objective: list            # nonnegative ints, one per variable
    indptr: np.ndarray         # int64 row offsets, num_rows + 1 of them
    indices: np.ndarray        # int64 variable of each coefficient
    data: np.ndarray           # int coeff > 0: int64, or Python ints past int64
    name: str = ""

    @classmethod
    def from_rows(cls, objective, rows, name: str = "") -> CoveringLP:
        """The LP whose row i lists the (variable, coefficient) pairs rows[i].
        Unless every coefficient is an int that fits int64, they are kept as
        given, so that ``validate`` sees a non-integer one."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.array([j for row in rows for j, _ in row], dtype=np.int64)
        coeffs = [a for row in rows for _, a in row]
        data = np.array(coeffs, dtype=object)
        if all(isinstance(a, int) and -(1 << 63) <= a < 1 << 63 for a in coeffs):
            data = data.astype(np.int64)
        return cls(list(objective), indptr, indices, data, name)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_rows, self.num_vars

    @property
    def rows(self) -> list:
        """The (variable, coefficient) pairs of each row, built on demand."""
        ptr, cols, vals = (a.tolist() for a in (self.indptr, self.indices, self.data))
        return [list(zip(cols[s:e], vals[s:e])) for s, e in zip(ptr, ptr[1:])]

    def validate(self) -> None:
        if any(not isinstance(c, int) or c < 0 for c in self.objective):
            raise ValueError("objective must be nonnegative integers")
        row = np.repeat(np.arange(self.num_rows), np.diff(self.indptr))
        for i in np.flatnonzero(np.diff(self.indptr) == 0):
            raise ValueError(f"row {i} is empty")
        for t in np.flatnonzero((self.indices < 0) | (self.indices >= self.num_vars)):
            raise ValueError(f"row {row[t]} references variable {self.indices[t]}")
        for t, a in enumerate(self.data.tolist()):
            if not isinstance(a, int) or a <= 0:
                raise ValueError(f"row {row[t]} has coefficient {a!r}, not an int > 0")


@dataclass
class LPSolution:
    """An optimum with exact witnesses that passed check_certificate."""

    optimum: Fraction
    primal: list                      # exact w over variables
    dual: list                        # exact z over rows
    method: str                       # "presolve+crossover", prefixed
    #                                   "orbit+" (seqchannels), "closed-form"
    #                                   (zchannel) or "greedy" (projective)
    pivots: int = 0                   # always 0; kept for the benchmark harness
    notes: str = ""                   # a crossover's support sizes and
    #                                   route: "float basis" or
    #                                   "support solves (<reason>)"

    @property
    def path(self) -> str:            # method; kept for the benchmark harness
        return self.method


@dataclass
class TransversalReport:
    feasible: bool
    bound: Fraction | None            # objective value when feasible
    min_slack: Fraction
    num_violated: int
    violated_rows: list[int]
    row_sums: list = field(repr=False, default_factory=list)  # A.(d*w)
    scale: int = 1                    # d, the LCM of the weights' denominators

    @property
    def slacks(self) -> list[Fraction]:
        """Exact per-row slack (A.w)_i - 1, built on demand."""
        d = self.scale
        return [Fraction(s - d, d) for s in self.row_sums]


@dataclass
class PresolveResult:
    converged: bool
    value: float | None
    primal: list | None               # floats
    dual: list | None                 # floats
    message: str = ""


def _scaled(values) -> tuple[list[int], int]:
    """Integers X and the LCM d of the denominators, with values[i] == X[i]/d."""
    d = math.lcm(*{x.denominator for x in values})
    return [x.numerator * (d // x.denominator) for x in values], d


def _primal(lp: CoveringLP, w) -> tuple[int, np.ndarray, int, Fraction]:
    """For the weights scaled to integers W = d*w: the scale d, the row sums
    A.W as an ``exact_product`` array, the number of negative weights, and
    c.w; w is feasible when no weight is negative and every row sum is at
    least d."""
    scaled, d = _scaled(w)
    x = linsolve.int_array(scaled)
    return (d, linsolve.exact_product(lp, x), int((x < 0).sum()),
            Fraction(linsolve.exact_dot(lp.objective, x), d))


def _dual(lp: CoveringLP, z) -> Fraction | None:
    """sum(z) when z >= 0 and A^T.z <= c, else None; z is scaled to
    integers by the LCM of its denominators."""
    scaled, d = _scaled(z)
    if any(x < 0 for x in scaled):
        return None
    colsum = linsolve.exact_product(lp, scaled, transpose=True)
    if any(s > c * d for s, c in zip(colsum.tolist(), lp.objective)):
        return None
    return Fraction(sum(scaled), d)


def verify_transversal(lp: CoveringLP, w) -> TransversalReport:
    """Exact per-row slack report for a candidate weight vector.

    Weights are ints or Fractions; the row sums are taken on the weights
    scaled to integers, as in check_certificate.
    """
    if len(w) != lp.num_vars:
        raise ValueError(f"weight vector has {len(w)} entries, LP has {lp.num_vars}")
    d, sums, negative, value = _primal(lp, w)
    violated = np.flatnonzero(sums < d)
    feasible = not negative and not violated.size
    return TransversalReport(
        feasible=feasible,
        bound=value if feasible else None,
        min_slack=Fraction(int(sums.min()) - d, d) if sums.size else Fraction(0),
        num_violated=len(violated) + negative,
        violated_rows=violated[:32].tolist(),
        row_sums=sums.tolist(),
        scale=d,
    )


def check_certificate(lp: CoveringLP, w, z) -> Fraction | None:
    """The common objective of an exact primal/dual pair, or None.

    Accepts when w >= 0 and A.w >= 1, z >= 0 and A^T.z <= c, and c.w equals
    sum(z); the pair then proves that value optimal.  w and z are scaled by
    the LCM of their denominators and compared as exact integers.
    """
    if len(w) != lp.num_vars or len(z) != lp.num_rows:
        raise ValueError(f"witness lengths {len(w)}/{len(z)} do not match "
                         f"the LP's {lp.num_vars} variables/{lp.num_rows} rows")
    d, sums, negative, value = _primal(lp, w)
    if negative or (sums < d).any() or _dual(lp, z) != value:
        return None
    return value


# ---------------------------------------------------------------------------
# float presolve and exact crossover
# ---------------------------------------------------------------------------

def _int_matrix(lp: CoveringLP):
    """The LP's arrays as an int64 scipy CSR matrix; raises ``GspbError``
    when a coefficient does not fit in int64."""
    from scipy.sparse import csr_matrix

    if lp.data.dtype == object:
        bits = max(map(abs, lp.data.tolist())).bit_length()
        raise GspbError(f"LP {lp.name!r} has a {bits}-bit coefficient, past the "
                        "int64 matrix of the exact solve")
    return csr_matrix((lp.data, lp.indices, lp.indptr), shape=lp.shape)


def float_presolve(lp: CoveringLP) -> PresolveResult:
    """Floating-point solve of the LP; advisory only, never certified.

    HiGHS solves the packing LP max 1.z s.t. A^T z <= c, z >= 0 by its
    interior-point method with its own presolve off; its crossover (on by
    default) turns the interior optimum into a basic solution.  The
    transversal w is read off the packing LP's duals, so the result is the
    covering LP's pair (primal w, dual z), and the exact crossover reads its
    supports off that vertex.  On the orbit quotients the packing form with
    no presolve is the fastest of the four forms tried.
    """
    from scipy.optimize import linprog

    At = _int_matrix(lp).T.astype(np.float64)
    c = np.array(lp.objective, dtype=np.float64)
    res = linprog(-np.ones(lp.num_rows), A_ub=At, b_ub=c, bounds=(0, None),
                  method="highs-ipm", options={"presolve": False})
    if not res.success:
        # only HiGHS's message carries its own status code
        code = re.search(r"HiGHS Status (\d+)", res.message or "")
        return PresolveResult(False, None, None, None,
                              f"HiGHS status {code[1] if code else '?'}")
    primal = (-res.ineqlin.marginals).tolist()
    return PresolveResult(True, -float(res.fun), primal, res.x.tolist(), "ok")


def _scatter(values, at: list[int], size: int) -> list[Fraction]:
    """A length-``size`` vector with values[t] at position at[t], zero elsewhere."""
    x = [Fraction(0)] * size
    for i, v in zip(at, values):
        x[i] = v
    return x


def _support_solve(matrix, eqs: list[int], unknowns: list[int], rhs,
                   size: int) -> list[Fraction] | None:
    """Exact x of length ``size``, zero off ``unknowns``, with
    (matrix x)_i = rhs[i] on an independent subset of the equations ``eqs``.
    ``matrix`` is an int64 CSR matrix, ``rhs`` is indexed by its rows.

    The subset and the unknowns it determines are picked by elimination mod
    ``linsolve.PRIME``, taking equations in the order given (callers list
    preferred ones first); the square subsystem is solved by Dixon lifting
    from the inverse that elimination returns, and the other unknowns get
    zero; at rank 0 (no unknowns, say) that is the zero vector.  Returns
    None when the subsystem does not solve; a returned x is unchecked, so
    pass it to check_certificate.  It serves the crossover when the float
    basis does not certify, and the subspace block dual.
    """
    sub = matrix[eqs][:, unknowns]
    piv_rows, piv_cols, inv = linsolve.select_pivots_mod(sub.toarray(),
                                                         linsolve.PRIME)
    if not piv_cols:
        return [Fraction(0)] * size
    solved = linsolve.dixon_solve(sub[piv_rows][:, piv_cols], len(piv_cols), inv,
                                  [rhs[eqs[r]] for r in piv_rows])
    if solved is None:
        return None
    return _scatter(solved, [unknowns[c] for c in piv_cols], size)


def _basis_rows(sub, k: int) -> list[int] | None:
    """The rows of the tight block ``sub`` (|R| x k) that form the float
    basis, in their order in ``sub``: all of them when |R| = k, the k rows
    that LAPACK's partial pivoting of the float block factors first when
    |R| > k, and None when |R| < k."""
    m = sub.shape[0]
    if m < k:
        return None
    if m == k:
        return list(range(k))
    from scipy.linalg import lu

    perm = lu(sub.astype(np.float64).toarray(), p_indices=True,
              check_finite=False)[0]
    return np.flatnonzero(perm < k).tolist()


def _crossover(lp: CoveringLP, pres: PresolveResult) -> LPSolution | None:
    """Exact optimum from the float vertex via complementary slackness.

    The primal support S holds the float weights above 1e-7 and the tight
    rows R are ordered by decreasing float dual.  The basis B is A[R,S]
    when |R| = |S|, and the |S| rows of R picked by LAPACK's row pivoting
    when |R| > |S|.  One float LU of B lifts both B w_S = 1 and
    B^T z_B = c_S exactly (``linsolve.refine_solve``), with w zero off S
    and z zero off B's rows (the basis sharing of exact LP solvers:
    Applegate, Cook, Dash and Espinoza, "Exact solutions to linear
    programming problems", Oper. Res. Lett. 35(6), 2007).  When there is no
    square basis, the lift fails, or the pair fails ``check_certificate``
    (at a degenerate vertex, say), the dual is solved on the float dual
    support and the primal on S, by two support solves, which stay mod p.
    None when those fail too.  The route taken ends the solution's notes.
    """
    wt = np.array(pres.primal)
    zt = np.array(pres.dual)
    A = _int_matrix(lp)
    rowsum = A @ wt
    tight = sorted((i for i in range(lp.num_rows) if rowsum[i] < 1 + 1e-6),
                   key=lambda i: -zt[i])
    support = [j for j in range(lp.num_vars) if wt[j] > 1e-7]
    sub = A[tight][:, support]
    rows = _basis_rows(sub, len(support))
    if rows is None:
        reason = "no square basis"
    else:
        pair = linsolve.refine_solve(sub[rows], [1] * len(support),
                                     [lp.objective[j] for j in support])
        reason = "float lift failed"
        if pair is not None:
            w = _scatter(pair[0], support, lp.num_vars)
            z = _scatter(pair[1], [tight[r] for r in rows], lp.num_rows)
            sol = _certified(lp, w, z, support, "float basis")
            if sol is not None:
                return sol
            reason = "pair not certified"
    # solve the dual and the primal on their own supports
    At = A.T.tocsr()
    colsum = At @ zt
    dual_eqs = [j for j, c in enumerate(lp.objective)
                if colsum[j] > c - 1e-6 - 1e-9 * c]
    z = _support_solve(At, dual_eqs, [i for i in tight if zt[i] > 1e-9],
                       lp.objective, lp.num_rows)
    if z is None:
        return None
    w = _support_solve(A, tight, support, [1] * lp.num_rows, lp.num_vars)
    return None if w is None else _certified(lp, w, z, support,
                                             f"support solves ({reason})")


def _certified(lp: CoveringLP, w, z, support: list[int],
               route: str) -> LPSolution | None:
    """The crossover's LPSolution when (w, z) passes check_certificate."""
    optimum = check_certificate(lp, w, z)
    if optimum is None:
        return None
    return LPSolution(optimum, w, z, "presolve+crossover",
                      notes=f"supports {len(support)}/{sum(1 for v in z if v)}, "
                            f"{route}")


def complementary_dual(lp: CoveringLP, rows: list[int],
                       cols: list[int]) -> list[Fraction] | None:
    """Packing vector z supported on ``rows`` with (A^T z)_j = c_j on ``cols``:
    the crossover's dual support solve.  Unchecked."""
    return _support_solve(_int_matrix(lp).T.tocsr(), cols, rows, lp.objective,
                          lp.num_rows)


# ---------------------------------------------------------------------------
# public solve entry points
# ---------------------------------------------------------------------------

def solve_min_transversal(lp: CoveringLP) -> LPSolution:
    """Exact minimum fractional transversal with primal and dual witnesses.

    Validates the LP, runs the float presolve and then the exact crossover;
    raises ``GspbError`` naming the stage when either fails.
    """
    lp.validate()
    pres = float_presolve(lp)
    if not pres.converged:
        # every row holds a positive coefficient, so z_i <= c_j / a_ij bounds
        # the packing LP: a failure is numerical, whatever HiGHS calls it
        raise GspbError(f"float presolve failed on LP {lp.name!r} ({pres.message}): "
                        "a numerical failure, since its packing LP is bounded")
    sol = _crossover(lp, pres)
    if sol is None:
        raise GspbError(f"exact crossover failed to certify LP {lp.name!r}")
    return sol


def fmt_frac(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
