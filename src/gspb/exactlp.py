"""Exact rational covering/packing LP solver.

The covering problem is  min c.w  s.t.  A w >= 1, w >= 0  with nonnegative
sparse integer data; its dual is the fractional packing problem
max sum(z) s.t. A^T z <= c, z >= 0.  Every LP takes one path: a float
presolve (HiGHS) followed by an exact crossover, which reads the optimal
supports off the float vertex and solves the complementary-slackness
systems A[R,S] w = 1 and A[R,S]^T z = c exactly, each once.  Both go
through one support solve (``_support_solve``) on one int64 matrix
(``_int_matrix``), as does the subspace block dual (``complementary_dual``).

A solve returns an optimum only with exact primal and dual witnesses that
passed ``check_certificate``, the one acceptance test every certified value
in the package goes through, and raises ``GspbError`` naming the failed
stage otherwise; floats never influence a certified value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linsolve
from .channels import GspbError


@dataclass
class CoveringLP:
    """Sparse covering LP with an implicit all-ones right-hand side."""

    num_vars: int
    objective: list            # nonnegative ints, one per var
    rows: list                 # sparse rows: list of (var index, int coeff > 0)
    name: str = ""

    def validate(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if any(not isinstance(c, int) or c < 0 for c in self.objective):
            raise ValueError("objective must be nonnegative integers")
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {i} is empty")
            for j, a in row:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"row {i} references variable {j}")
                if not isinstance(a, int) or a < 0:
                    raise ValueError(f"row {i} has coefficient {a!r}, not an int >= 0")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


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
    notes: str = ""

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


def _primal(lp: CoveringLP, w) -> tuple[int, list[int], int, Fraction]:
    """For the weights scaled to integers W = d*w: the scale d, the row sums
    A.W as Python ints, the number of negative weights, and c.w; w is
    feasible when no weight is negative and every row sum is at least d."""
    scaled, d = _scaled(w)
    sums = [sum(a * scaled[j] for j, a in row) for row in lp.rows]
    return (d, sums, sum(1 for x in scaled if x < 0),
            Fraction(sum(c * x for c, x in zip(lp.objective, scaled)), d))


def _dual(lp: CoveringLP, z) -> Fraction | None:
    """sum(z) when z >= 0 and A^T.z <= c, else None; z is scaled to
    integers by the LCM of its denominators."""
    scaled, d = _scaled(z)
    if any(x < 0 for x in scaled):
        return None
    colsum = [0] * lp.num_vars
    for row, zi in zip(lp.rows, scaled):
        if zi:
            for j, a in row:
                colsum[j] += a * zi
    if any(s > c * d for s, c in zip(colsum, lp.objective)):
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
    violated = [i for i, s in enumerate(sums) if s < d]
    feasible = not negative and not violated
    return TransversalReport(
        feasible=feasible,
        bound=value if feasible else None,
        min_slack=Fraction(min(sums) - d, d) if sums else Fraction(0),
        num_violated=len(violated) + negative,
        violated_rows=violated[:32],
        row_sums=sums,
        scale=d,
    )


def check_certificate(lp: CoveringLP, w, z) -> Fraction | None:
    """The common objective of an exact primal/dual pair, or None.

    Accepts when w >= 0 and A.w >= 1, z >= 0 and A^T.z <= c, and c.w equals
    sum(z); the pair then proves that value optimal.  w and z are scaled by
    the LCM of their denominators and compared as Python ints.
    """
    if len(w) != lp.num_vars or len(z) != lp.num_rows:
        raise ValueError(f"witness lengths {len(w)}/{len(z)} do not match "
                         f"the LP's {lp.num_vars} variables/{lp.num_rows} rows")
    d, sums, negative, value = _primal(lp, w)
    if negative or any(s < d for s in sums) or _dual(lp, z) != value:
        return None
    return value


# ---------------------------------------------------------------------------
# float presolve and exact crossover
# ---------------------------------------------------------------------------

def _int_matrix(lp: CoveringLP):
    """The constraint matrix as an int64 CSR matrix."""
    from scipy.sparse import csr_matrix

    lengths = [len(row) for row in lp.rows]
    ri = np.repeat(np.arange(lp.num_rows), lengths)
    ci = np.fromiter((j for row in lp.rows for j, _ in row), np.int64, len(ri))
    data = np.fromiter((a for row in lp.rows for _, a in row), np.int64, len(ri))
    return csr_matrix((data, (ri, ci)), shape=(lp.num_rows, lp.num_vars))


def float_presolve(lp: CoveringLP) -> PresolveResult:
    """Floating-point solve of the LP; advisory only, never certified.

    Runs the HiGHS interior-point method, whose crossover (on by default)
    turns the interior optimum into a basic solution; the exact crossover
    reads its supports off that vertex.
    """
    from scipy.optimize import linprog

    A = _int_matrix(lp).astype(np.float64)
    c = np.array(lp.objective, dtype=np.float64)
    res = linprog(c, A_ub=-A, b_ub=-np.ones(lp.num_rows),
                  bounds=(0, None), method="highs-ipm")
    if not res.success:
        return PresolveResult(False, None, None, None, res.message)
    dual = (-res.ineqlin.marginals).tolist()
    return PresolveResult(True, float(res.fun), res.x.tolist(), dual, "ok")


def _support_solve(matrix, eqs: list[int], unknowns: list[int], rhs,
                   size: int) -> list[Fraction] | None:
    """Exact x of length ``size``, zero off ``unknowns``, with
    (matrix x)_i = rhs[i] on an independent subset of the equations ``eqs``.
    ``matrix`` is an int64 CSR matrix, ``rhs`` is indexed by its rows.

    The subset and the unknowns it determines are picked by elimination mod
    ``linsolve.PRIME``, taking equations in the order given (callers list
    preferred ones first); the square subsystem is solved by Dixon lifting
    and the other unknowns get zero; at rank 0 (no unknowns, say) that is
    the zero vector.  Returns None when the subsystem does not solve; a returned x
    is unchecked, so pass it to check_certificate.
    """
    x = [Fraction(0)] * size
    sub = matrix[eqs][:, unknowns]
    piv_rows, piv_cols = linsolve.select_pivots_mod(sub.toarray(), linsolve.PRIME)
    if not piv_cols:
        return x
    solved = linsolve.dixon_solve(sub[piv_rows][:, piv_cols], len(piv_cols),
                                  [rhs[eqs[r]] for r in piv_rows])
    if solved is None:
        return None
    for c, v in zip(piv_cols, solved):
        x[unknowns[c]] = v
    return x


def _crossover(lp: CoveringLP, pres: PresolveResult) -> LPSolution | None:
    """Exact optimum from float supports via complementary-slackness systems.

    The dual is solved once on the float dual support and the primal once
    on the float primal support (entries above 1e-7); None when either
    system fails or the pair fails ``check_certificate``.
    """
    wt = np.array(pres.primal)
    zt = np.array(pres.dual)
    A = _int_matrix(lp)
    At = A.T.tocsr()
    rowsum = A @ wt
    colsum = At @ zt
    tight = sorted((i for i in range(lp.num_rows) if rowsum[i] < 1 + 1e-6),
                   key=lambda i: -zt[i])
    dual_eqs = [j for j, c in enumerate(lp.objective)
                if colsum[j] > c - 1e-6 - 1e-9 * c]
    z = _support_solve(At, dual_eqs, [i for i in tight if zt[i] > 1e-9],
                       lp.objective, lp.num_rows)
    if z is None:
        return None
    support = [j for j in range(lp.num_vars) if wt[j] > 1e-7]
    w = _support_solve(A, tight, support, [1] * lp.num_rows, lp.num_vars)
    optimum = None if w is None else check_certificate(lp, w, z)
    if optimum is None:
        return None
    return LPSolution(optimum, w, z, "presolve+crossover",
                      notes=f"supports {len(support)}/{sum(1 for v in z if v)}")


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
        raise GspbError(f"float presolve failed on LP {lp.name!r}: {pres.message}")
    sol = _crossover(lp, pres)
    if sol is None:
        raise GspbError(f"exact crossover failed to certify LP {lp.name!r}")
    return sol


def fmt_frac(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
