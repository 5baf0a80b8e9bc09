"""Exact rational covering/packing LP solver.

The covering problem is  min c.w  s.t.  A w >= 1, w >= 0  with nonnegative
sparse data; its dual is the fractional packing problem
max sum(z) s.t. A^T z <= c, z >= 0.  Every LP with integral data takes one
path: a float presolve (HiGHS) followed by an exact crossover, which reads
the optimal supports off the float vertex and solves the
complementary-slackness systems A[R,S] w = 1 and A[R,S]^T z = c exactly.
Both go through one support solve (``_support_solve``) on one int64 matrix
(``_int_matrix``), as does the subspace block dual (``complementary_dual``).

An exact tableau simplex under Bland's rule, run on the dual (the all-slack
basis is feasible there, so no phase one is needed), solves LPs with
non-integral coefficients, serves as the reference (``method="simplex"``),
and takes over when the crossover fails.  Its dense ``Fraction`` tableau is
bounded: beyond ``_SIMPLEX_MAX_CELLS`` entries it raises ``CapExceeded``
before allocating anything; below that, Bland's rule terminates.

A solve returns an optimum only with exact primal and dual witnesses that
passed ``check_certificate``, the one acceptance test every certified value
in the package goes through, and raises otherwise; floats never influence a
certified value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linsolve
from .channels import CapExceeded, GspbError

# largest dense simplex tableau, num_vars * (num_rows + num_vars) entries
_SIMPLEX_MAX_CELLS = 1 << 18


@dataclass
class CoveringLP:
    """Sparse covering LP with an implicit all-ones right-hand side."""

    num_vars: int
    objective: list            # nonnegative ints or Fractions, one per var
    rows: list                 # sparse rows: list of (var index, coeff > 0)
    name: str = ""

    def validate(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if any(c < 0 for c in self.objective):
            raise ValueError("objective must be nonnegative")
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {i} is empty")
            for j, a in row:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"row {i} references variable {j}")
                if a < 0:
                    raise ValueError(f"row {i} has a negative coefficient")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
                   for c in self.objective) and \
            all(isinstance(a, int) or (isinstance(a, Fraction) and a.denominator == 1)
                for row in self.rows for _, a in row)


@dataclass
class LPSolution:
    """An optimum with exact witnesses that passed check_certificate."""

    optimum: Fraction
    primal: list                      # exact w over variables
    dual: list                        # exact z over rows
    method: str                       # "simplex" | "presolve+crossover", or
    #                                   either prefixed "orbit+" (seqchannels)
    pivots: int = 0
    notes: str = ""


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


def _row_sums(lp: CoveringLP, scaled_w: list[int]) -> list:
    """A.W for integer-scaled weights W (Fractions only if A has them)."""
    return [sum(a * scaled_w[j] for j, a in row) for row in lp.rows]


def verify_transversal(lp: CoveringLP, w) -> TransversalReport:
    """Exact per-row slack report for a candidate weight vector.

    Weights are ints or Fractions; the row sums are taken on the weights
    scaled to integers, as in check_certificate.
    """
    if len(w) != lp.num_vars:
        raise ValueError(f"weight vector has {len(w)} entries, LP has {lp.num_vars}")
    scaled, d = _scaled(w)
    nonneg = all(x >= 0 for x in scaled)
    sums = _row_sums(lp, scaled)
    violated = [i for i, s in enumerate(sums) if s < d]
    feasible = nonneg and not violated
    bound = (Fraction(sum(c * x for c, x in zip(lp.objective, scaled)), d)
             if feasible else None)
    return TransversalReport(
        feasible=feasible,
        bound=bound,
        min_slack=Fraction(min(sums) - d, d) if sums else Fraction(0),
        num_violated=len(violated) + (0 if nonneg else sum(1 for x in scaled if x < 0)),
        violated_rows=violated[:32],
        row_sums=sums,
        scale=d,
    )


def check_certificate(lp: CoveringLP, w, z) -> Fraction | None:
    """The common objective of an exact primal/dual pair, or None.

    Accepts when w >= 0 and A.w >= 1, z >= 0 and A^T.z <= c, and c.w equals
    sum(z); the pair then proves that value optimal.  w and z are scaled by
    the LCM of their denominators and compared as Python ints; Fraction
    coefficients (from lp_from_text) go through the same arithmetic.
    """
    if len(w) != lp.num_vars or len(z) != lp.num_rows:
        raise ValueError(f"witness lengths {len(w)}/{len(z)} do not match "
                         f"the LP's {lp.num_vars} variables/{lp.num_rows} rows")
    scaled_w, dw = _scaled(w)
    scaled_z, dz = _scaled(z)
    if any(x < 0 for x in scaled_w) or any(x < 0 for x in scaled_z):
        return None
    if any(s < dw for s in _row_sums(lp, scaled_w)):
        return None
    colsum = [0] * lp.num_vars
    for row, zi in zip(lp.rows, scaled_z):
        if zi:
            for j, a in row:
                colsum[j] += a * zi
    if any(s > c * dz for s, c in zip(colsum, lp.objective)):
        return None
    dual = sum(scaled_z)
    if sum(c * x for c, x in zip(lp.objective, scaled_w)) * dz != dual * dw:
        return None
    return Fraction(dual, dz)


# ---------------------------------------------------------------------------
# exact simplex (Bland) on the dual packing form
# ---------------------------------------------------------------------------

def _simplex_dual_form(lp: CoveringLP) -> LPSolution:
    """Tableau simplex for max sum(z) s.t. A^T z <= c, starting at z = 0.

    Rows of the tableau are indexed by the primal variables; columns are the
    m packing variables followed by the slack identity.  Bland's rule (lowest
    eligible variable index in, lowest basis index out on ties) guarantees
    termination.
    """
    m = lp.num_rows
    n = lp.num_vars
    ncols = m + n
    if n * ncols > _SIMPLEX_MAX_CELLS:
        raise CapExceeded(
            f"exact simplex tableau of {n}x{ncols} = {n * ncols} entries exceeds "
            f"the cap of {_SIMPLEX_MAX_CELLS}")
    zero = Fraction(0)
    tableau = [[zero] * ncols for _ in range(n)]
    for i, row in enumerate(lp.rows):
        for j, a in row:
            tableau[j][i] = Fraction(a)
    for j in range(n):
        tableau[j][m + j] = Fraction(1)
    rhs = [Fraction(c) for c in lp.objective]
    # minimize -sum(z): reduced costs start at -1 on packing columns
    cost = [Fraction(-1)] * m + [zero] * n
    basis = [m + j for j in range(n)]

    pivots = 0
    while True:
        enter = -1
        for col in range(ncols):
            if cost[col] < 0:
                enter = col
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(n):
            a = tableau[r][enter]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            raise GspbError("packing LP unbounded; covering LP data is malformed")
        pivots += 1
        piv = tableau[leave][enter]
        prow = tableau[leave] = [v / piv for v in tableau[leave]]
        rhs[leave] /= piv
        for r in range(n):
            if r == leave:
                continue
            f = tableau[r][enter]
            if f:
                trow = tableau[r]
                tableau[r] = [v - f * pv for v, pv in zip(trow, prow)]
                rhs[r] -= f * rhs[leave]
        f = cost[enter]
        if f:
            cost = [v - f * pv for v, pv in zip(cost, prow)]
        basis[leave] = enter

    z = [zero] * m
    for r in range(n):
        if basis[r] < m:
            z[basis[r]] = rhs[r]
    w = [cost[m + j] for j in range(n)]
    optimum = check_certificate(lp, w, z)
    if optimum is None:
        raise AssertionError("strong duality violated in exact simplex")
    return LPSolution(optimum, w, z, "simplex", pivots)


# ---------------------------------------------------------------------------
# float presolve and exact crossover
# ---------------------------------------------------------------------------

def _int_matrix(lp: CoveringLP):
    """The constraint matrix of an integral LP as an int64 CSR matrix."""
    from scipy.sparse import csr_matrix

    lengths = [len(row) for row in lp.rows]
    ri = np.repeat(np.arange(lp.num_rows), lengths)
    ci = np.fromiter((j for row in lp.rows for j, _ in row), np.int64, len(ri))
    data = np.fromiter((int(a) for row in lp.rows for _, a in row), np.int64, len(ri))
    return csr_matrix((data, (ri, ci)), shape=(lp.num_rows, lp.num_vars))


def float_presolve(lp: CoveringLP) -> PresolveResult:
    """Floating-point solve of an integral LP; advisory only, never certified.

    Runs the HiGHS interior-point method, whose crossover (on by default)
    turns the interior optimum into a basic solution; the exact crossover
    reads its supports off that vertex.
    """
    from scipy.optimize import linprog

    A = _int_matrix(lp).astype(np.float64)
    c = np.array([float(v) for v in lp.objective])
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
                                  [int(rhs[eqs[r]]) for r in piv_rows])
    if solved is None:
        return None
    for c, v in zip(piv_cols, solved):
        x[unknowns[c]] = v
    return x


def _crossover(lp: CoveringLP, pres: PresolveResult) -> LPSolution | None:
    """Exact optimum from float supports via complementary-slackness systems.

    The dual is solved once on the float dual support; the primal is tried
    on the float support at three tolerances.
    """
    wt = np.array(pres.primal)
    zt = np.array(pres.dual)
    A = _int_matrix(lp)
    At = A.T.tocsr()
    rowsum = A @ wt
    colsum = At @ zt
    obj = [int(c) for c in lp.objective]
    tight = sorted((i for i in range(lp.num_rows) if rowsum[i] < 1 + 1e-6),
                   key=lambda i: -zt[i])
    dual_eqs = [j for j in range(lp.num_vars)
                if colsum[j] > obj[j] - 1e-6 - 1e-9 * obj[j]]
    z = _support_solve(At, dual_eqs, [i for i in tight if zt[i] > 1e-9], obj,
                       lp.num_rows)
    if z is None:
        return None
    ones = [1] * lp.num_rows
    for tol in (1e-7, 1e-9, 1e-5):
        support = [j for j in range(lp.num_vars) if wt[j] > tol]
        w = _support_solve(A, tight, support, ones, lp.num_vars)
        optimum = None if w is None else check_certificate(lp, w, z)
        if optimum is not None:
            return LPSolution(
                optimum, w, z, "presolve+crossover",
                notes=f"supports {len(support)}/{sum(1 for v in z if v)}",
            )
    return None


def complementary_dual(lp: CoveringLP, rows: list[int],
                       cols: list[int]) -> list[Fraction] | None:
    """Packing vector z supported on ``rows`` with (A^T z)_j = c_j on ``cols``,
    for integral LPs: the crossover's dual support solve.  Unchecked."""
    return _support_solve(_int_matrix(lp).T.tocsr(), cols, rows, lp.objective,
                          lp.num_rows)


# ---------------------------------------------------------------------------
# public solve entry points
# ---------------------------------------------------------------------------

def solve_min_transversal(lp: CoveringLP, method: str = "auto") -> LPSolution:
    """Exact minimum fractional transversal with primal and dual witnesses.

    ``method="auto"`` sends an integral LP through the float presolve and
    the exact crossover, and anything else to the bounded exact simplex,
    which also takes over if the crossover fails; ``method="simplex"``
    forces the simplex.  Raises ``CapExceeded`` when the simplex would need
    a tableau above ``_SIMPLEX_MAX_CELLS`` entries.
    """
    lp.validate()
    if method not in ("auto", "simplex"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and lp.is_integral():
        pres = float_presolve(lp)
        if pres.converged:
            sol = _crossover(lp, pres)
            if sol is not None:
                return sol
    return _simplex_dual_form(lp)


def solve_max_matching_lp(lp: CoveringLP) -> LPSolution:
    """Fractional matching optimum; equals the transversal optimum exactly."""
    sol = solve_min_transversal(lp)
    return LPSolution(sol.optimum, sol.dual, sol.primal, sol.method, sol.pivots,
                      "packing side of the covering solve")


# ---------------------------------------------------------------------------
# line-oriented text serialization
# ---------------------------------------------------------------------------

def fmt_frac(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def lp_to_text(lp: CoveringLP) -> str:
    lines = [f"gspb-lp vars={lp.num_vars} rows={lp.num_rows} name={lp.name}"]
    lines.append("obj " + " ".join(
        f"{j}:{fmt_frac(c)}" for j, c in enumerate(lp.objective) if c
    ))
    for row in lp.rows:
        lines.append("row " + " ".join(f"{j}:{fmt_frac(a)}" for j, a in row))
    return "\n".join(lines) + "\n"


def lp_from_text(text: str) -> CoveringLP:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = re.match(r"gspb-lp vars=(\d+) rows=(\d+) name=(.*)", lines[0])
    if not head:
        raise ValueError("not a gspb-lp stream")
    num_vars = int(head.group(1))
    objective = [Fraction(0)] * num_vars
    rows = []
    for ln in lines[1:]:
        kind, _, rest = ln.partition(" ")
        entries = []
        for tok in rest.split():
            js, _, vs = tok.partition(":")
            entries.append((int(js), Fraction(vs)))
        if kind == "obj":
            for j, v in entries:
                objective[j] = v
        elif kind == "row":
            rows.append(entries)
        else:
            raise ValueError(f"unknown record {kind!r}")
    lp = CoveringLP(num_vars=num_vars, objective=objective, rows=rows,
                    name=head.group(3))
    if lp.num_rows != int(head.group(2)):
        raise ValueError("row count disagrees with header")
    lp.validate()
    return lp
