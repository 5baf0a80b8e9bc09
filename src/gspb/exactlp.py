"""Exact rational covering/packing LP solver.

The covering problem is  min c.w  s.t.  A w >= 1, w >= 0  with nonnegative
integer data; its dual is the fractional packing problem
max sum(z) s.t. A^T z <= c, z >= 0.  A ``CoveringLP`` keeps A in CSR arrays
alone, from its builders to HiGHS and every exact check.  The exact checks
also take an LP too large to hold at once as ``RowBlocks``: consecutive
blocks of its rows over the same variables and objective, each built when
it is read, each a ``CoveringLP`` or, where every coefficient is 1, a
``UnitTargets``: the (width, rows) array of variable ids the target
kernels write, -1 where a position adds nothing, which the exact sums read
as it is (the streamed deletion and grain balls; no CSR array is built for
them).  Row sums are taken and compared per block,
rows are reported with the LP's own row ids, A^T z adds the blocks' column
sums (in Python ints past the first block: column sums that fit int64 in
each block can pass it together), and c.w is taken once.  Every LP takes one
path: a float presolve, in which HiGHS solves that packing LP with the
options ``presolve`` off and ``solver`` ``simplex`` (its dual simplex) for
the closed-form quotient LPs of ``reduction.quotient_matrix``, where it is
the faster method, or ``ipm`` (its interior point) for every other LP: the
deletion and grain orbit quotients, explicit graphs and full LPs.  The
model is built on scipy's compiled HiGHS bindings, loaded from their own
file (``linsolve.scipy_extension``), and solved there, with no ``linprog``
call, whose wrapper costs about 2.3 ms per LP, more than HiGHS takes on
most quotients.  An exact crossover follows, which reads
the optimal supports off the float vertex and solves the
complementary-slackness systems B w = 1 and B^T z = c exactly on one basis
B of A[R,S]: one float LU of A[R,S] picks B's rows and proposes the digits
of both, and ``linsolve.refine_solve`` lifts them by integer iterative
refinement into ``Scaled`` witnesses, which go to the certificate check as
they are and stay in the solution that way.  When the float lift fails (a
basis too ill-conditioned for float digits), or the pair fails
the certificate check (at a degenerate vertex), the dual and the primal are
solved on their own supports, each by one support solve
(``_support_solve``), as is the subspace block dual
(``complementary_dual``); these need an exact rank, so they select and
factor their subsystem mod p and lift it by Dixon's method.  The crossover
reads the LP's own arrays as one int64 ``linsolve.Csr`` (``_int_matrix``);
the subspace block dual reads them as they are, Python ints past int64,
and hands the elimination their residues mod p as int64.  All take their
submatrices, transposes and dense blocks with numpy (``linsolve.take``,
``transpose`` and ``dense``); no ``scipy.sparse`` matrix is built.
``_int_matrix`` and the presolve refuse a coefficient past int64 with
``GspbError`` (``_int64_data``).

A solve returns an optimum only with exact primal and dual witnesses that
passed ``check_certificate``, the one acceptance test every certified value
in the package goes through, and raises ``GspbError`` naming the failed
stage otherwise; its halves are ``verify_transversal``, the one primal
check, and ``_dual``.  ``certify`` builds the ``LPSolution`` of every
route from the pair the check accepted: the crossover, the z closed form,
the projective greedy weights and the orbit lift of ``seqchannels``.  The
sums of the check are ``linsolve.exact_product``, in int64 where a bound on
the scaled witness, the coefficients and the longest row or column proves
that they fit and in Python ints otherwise.  The checks take a
witness as a sequence of ints and Fractions, which they scale to integers
by the LCM of its denominators, or as a ``Scaled`` witness, already scaled
(w = numer / scale), which they read as it is, with no Fraction per entry;
the run-profile weights, the crossover's float-basis witnesses, the z
closed form, the magnitude hand weights and the orbit lift come that way.
An ``LPSolution`` keeps its pair so: ``primal`` and ``dual`` are its
Fraction views, made when a caller first reads them.  An entry that is
neither an int nor a Fraction (a float, say) is refused with
``ValueError``.  Floats choose the supports, the basis and the digits, and
so can only make a solve fail or fall back; they never decide a certified
value.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        Unless every coefficient is an int of magnitude below 2^63, they are
        kept as given, so that ``validate`` sees a non-integer one (and -2^63,
        whose ``abs`` passes int64, stays a Python int)."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.array([j for row in rows for j, _ in row], dtype=np.int64)
        coeffs = [a for row in rows for _, a in row]
        data = np.array(coeffs, dtype=object)
        if all(isinstance(a, int) and -(1 << 63) < a < 1 << 63 for a in coeffs):
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
        return _row_lists(self)

    def validate(self) -> None:
        if any(not isinstance(c, int) or c < 0 for c in self.objective):
            raise ValueError("objective must be nonnegative integers")
        for i in np.flatnonzero(np.diff(self.indptr) == 0):
            raise ValueError(f"row {i} is empty")
        for t in np.flatnonzero((self.indices < 0) | (self.indices >= self.num_vars)):
            raise ValueError(f"row {self._row_of(t)} references variable "
                             f"{self.indices[t]}")
        if self.data.dtype == np.int64:  # one numpy test; object data per entry
            bad = np.flatnonzero(self.data <= 0)
        else:
            bad = (t for t, a in enumerate(self.data.tolist())
                   if not isinstance(a, int) or a <= 0)
        for t in bad:
            raise ValueError(f"row {self._row_of(t)} has coefficient "
                             f"{self.data.tolist()[t]!r}, not an int > 0")

    def _row_of(self, t: int) -> int:
        """The row of stored entry t, looked up for an error message."""
        return int(np.searchsorted(self.indptr, t, side="right")) - 1


@dataclass
class UnitTargets:
    """A block of covering rows whose coefficients are all 1, held as the
    target kernels write them: column i of the (width, num_rows) integer
    array ``targets`` lists the variables of row i, each at most once, and
    -1 where a position adds nothing.  ``linsolve.exact_product`` reads it
    line by line, with no CSR arrays built; an entry that is neither -1 nor
    a variable id is refused with ``ValueError``."""

    targets: np.ndarray               # (width, num_rows), int32 or int64
    num_vars: int

    def __post_init__(self):
        t = self.targets
        if t.ndim != 2 or t.size and (t.min() < -1 or t.max() >= self.num_vars):
            raise ValueError(f"unit targets of shape {t.shape} are not -1 or "
                             f"ids of {self.num_vars} variables")

    @property
    def num_rows(self) -> int:
        return self.targets.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_rows, self.num_vars


def _row_lists(lp: CoveringLP | UnitTargets) -> list:
    if isinstance(lp, UnitTargets):
        return [[(j, 1) for j in line if j >= 0]
                for line in np.sort(lp.targets, axis=0).T.tolist()]
    ptr, cols, vals = (a.tolist() for a in (lp.indptr, lp.indices, lp.data))
    return [list(zip(cols[s:e], vals[s:e])) for s, e in zip(ptr, ptr[1:])]


@dataclass
class RowBlocks(Sequence):
    """The rows of one covering LP as consecutive blocks over all of its
    variables, each built when it is read, so that an exact check holds one
    block at a time.  Block i is ``build(bounds[i], bounds[i+1])``, the
    LP's rows bounds[i] to bounds[i+1] - 1, with their own row ids starting
    at 0: a ``CoveringLP``, or a ``UnitTargets`` where every coefficient is
    1 (the streamed deletion and grain balls)."""

    objective: list                   # shared by every block
    bounds: list[int]                 # 0 = bounds[0] <= ... <= bounds[-1] = num_rows
    build: Callable[[int, int], CoveringLP | UnitTargets]
    name: str = ""

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> CoveringLP | UnitTargets:
        i = range(len(self))[i]       # IndexError past the last block
        start, stop = self.bounds[i], self.bounds[i + 1]
        block = self.build(start, stop)
        if block.shape != (stop - start, self.num_vars):
            raise ValueError(f"block {i} of {self.name!r} is {block.shape}, "
                             f"not {(stop - start, self.num_vars)}")
        return block

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return self.bounds[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_rows, self.num_vars

    @property
    def rows(self) -> list:
        """Every block's (variable, coefficient) pairs, built on demand for
        the benchmark harness and the tests."""
        return [row for block in self for row in _row_lists(block)]


def _blocks(lp: CoveringLP | RowBlocks):
    """(first row, block) of each row block of ``lp``: a ``CoveringLP`` is
    one block."""
    return [(0, lp)] if isinstance(lp, CoveringLP) else zip(lp.bounds, lp)


@dataclass
class LPSolution:
    """An optimum with exact witnesses that passed check_certificate, kept
    as the check read them, integer-scaled; ``primal`` and ``dual`` are
    their Fraction views, built when first read."""

    optimum: Fraction
    w: Scaled                         # exact w over variables
    z: Scaled                         # exact z over rows
    method: str                       # "presolve+crossover", prefixed
    #                                   "orbit+" (seqchannels), "closed-form"
    #                                   (zchannel) or "greedy" (projective)
    pivots: int = 0                   # always 0; kept for the benchmark harness
    notes: str = ""                   # a crossover's support sizes and
    #                                   route: "float basis" or
    #                                   "support solves (<reason>)"

    @cached_property
    def primal(self) -> list[Fraction]:
        return self.w.fractions()

    @cached_property
    def dual(self) -> list[Fraction]:
        return self.z.fractions()

    @property
    def path(self) -> str:            # method; kept for the benchmark harness
        return self.method


@dataclass
class TransversalReport:
    feasible: bool                    # no violated row and no negative weight
    bound: Fraction | None            # objective value when feasible
    min_slack: Fraction
    num_violated: int                 # rows with A.w < 1
    violated_rows: list[int]          # the first 32 of them
    tight_rows: list[int]             # every row with A.w = 1
    negative_entries: list[int]       # every variable with w < 0
    scale: int                        # d: the LCM of the weights' denominators,
    #                                   or the scale of a Scaled witness


@dataclass
class PresolveResult:
    converged: bool
    value: float | None
    primal: list | None               # floats
    dual: list | None                 # floats
    message: str = ""


@dataclass(frozen=True)
class Scaled:
    """A witness already scaled to integers: w = numer / scale."""

    numer: np.ndarray                 # int64, or Python ints (``linsolve.int_array``)
    scale: int                        # >= 1

    def __len__(self) -> int:
        return len(self.numer)

    @classmethod
    def of(cls, values, what: str = "witness") -> Scaled:
        """The ints and Fractions ``values`` scaled by the LCM of their
        denominators; an entry that is neither is refused with
        ``ValueError``, which names ``what`` and its position."""
        try:
            dens = [x.denominator for x in values]
        except AttributeError:
            t, x = next((t, x) for t, x in enumerate(values)
                        if not isinstance(x, (int, np.integer, Fraction)))
            raise ValueError(f"{what} entry {t} is {x!r}, not an int or "
                             "Fraction") from None
        d = math.lcm(*set(dens))
        return cls(linsolve.int_array([x.numerator * (d // q)
                                       for x, q in zip(values, dens)]), d)

    def fractions(self) -> list[Fraction]:
        """The entries numer[i] / scale as Fractions, zeros shared."""
        zero = Fraction(0)
        return [Fraction(v, self.scale) if v else zero for v in self.numer.tolist()]


def _scaled(values, size: int, what: str) -> Scaled:
    """The witness ``values`` as a ``Scaled``, once its length is checked
    against ``size``: a Scaled as it is, once its scale and numerators are
    checked, and a sequence of ints and Fractions by ``Scaled.of``."""
    if len(values) != size:
        raise ValueError(f"{what} has {len(values)} entries, LP has {size}")
    if not isinstance(values, Scaled):
        return Scaled.of(values, what)
    numer, scale = values.numer, values.scale
    if not isinstance(scale, int) or scale < 1:
        raise ValueError(f"{what} has scale {scale!r}, not an int >= 1")
    if not (isinstance(numer, np.ndarray) and numer.ndim == 1
            and numer.dtype in (np.int64, object)):
        raise ValueError(f"{what} numerators must be a 1-d int64 or object array")
    return values


def _dual(lp: CoveringLP | RowBlocks, z) -> Fraction | None:
    """sum(z) when z >= 0 and A^T.z <= c, else None; z scaled to integers
    Z = d*z as in ``verify_transversal``.  A^T.Z is summed block by block:
    a column's int64 sums can pass int64 once they are added, so a second
    block adds in Python ints."""
    z = _scaled(z, lp.num_rows, "dual vector")
    d, scaled = z.scale, z.numer.tolist()
    if min(scaled, default=0) < 0:
        return None
    parts = (linsolve.exact_product(block, z.numer[start:start + block.num_rows],
                                    transpose=True)
             for start, block in _blocks(lp))
    colsum = next(parts, np.zeros(lp.num_vars, dtype=np.int64))
    for part in parts:
        colsum = colsum.astype(object, copy=False) + part.astype(object)
    if any(s > c * d for s, c in zip(colsum.tolist(), lp.objective)):
        return None
    return Fraction(sum(scaled), d)


def verify_transversal(lp: CoveringLP | RowBlocks, w) -> TransversalReport:
    """Exact row report for a candidate weight vector: the one primal check.

    Weights are ints or Fractions, or a ``Scaled``; the row sums are taken on
    the weights scaled to integers and compared one row block at a time, and
    ``violated_rows`` and ``tight_rows`` hold the LP's own row ids.
    """
    w = _scaled(w, lp.num_vars, "weight vector")
    x, d = w.numer, w.scale
    violated: list[int] = []
    tight: list[int] = []
    num_violated = 0
    lows = []
    for start, block in _blocks(lp):
        sums = linsolve.exact_product(block, x)
        if not sums.size:
            continue
        low = int(sums.min())
        lows.append(low)
        if low < d:   # the compares run only where they can find a row
            bad = (sums < d).nonzero()[0]
            num_violated += len(bad)
            violated += (bad[:32 - len(violated)] + start).tolist()
        if low <= d:
            tight += ((sums == d).nonzero()[0] + start).tolist()
    negative = (x < 0).nonzero()[0].tolist()
    feasible = not num_violated and not negative
    return TransversalReport(
        feasible=feasible,
        bound=Fraction(linsolve.exact_dot(lp.objective, x), d) if feasible else None,
        min_slack=Fraction(min(lows) - d, d) if lows else Fraction(0),
        num_violated=num_violated,
        violated_rows=violated,
        tight_rows=tight,
        negative_entries=negative,
        scale=d,
    )


def check_certificate(lp: CoveringLP | RowBlocks, w, z) -> Fraction | None:
    """The common objective of an exact primal/dual pair, or None.

    Accepts when ``verify_transversal`` finds w feasible (w >= 0 and
    A.w >= 1) and ``_dual`` finds z feasible (z >= 0 and A^T.z <= c) with
    sum(z) equal to c.w; the pair then proves that value optimal.
    """
    if len(w) != lp.num_vars or len(z) != lp.num_rows:
        raise ValueError(f"witness lengths {len(w)}/{len(z)} do not match "
                         f"the LP's {lp.num_vars} variables/{lp.num_rows} rows")
    report = verify_transversal(lp, w)
    if report.feasible and _dual(lp, z) == report.bound:
        return report.bound
    return None


def certify(lp: CoveringLP | RowBlocks, w, z, method: str,
            notes: str = "") -> LPSolution | None:
    """The LPSolution of the pair (w, z) when ``check_certificate`` accepts
    it, else None.  Each witness is scaled to integers once (a ``Scaled`` is
    taken as it is) and kept in the form the check read."""
    w = _scaled(w, lp.num_vars, "weight vector")
    z = _scaled(z, lp.num_rows, "dual vector")
    optimum = check_certificate(lp, w, z)
    return None if optimum is None else LPSolution(optimum, w, z, method,
                                                   notes=notes)


# ---------------------------------------------------------------------------
# float presolve and exact crossover
# ---------------------------------------------------------------------------

def _int64_data(lp: CoveringLP) -> np.ndarray:
    """The LP's coefficients as int64; raises ``GspbError`` when one does not
    fit in int64."""
    if lp.data.dtype == object:
        bits = max(map(abs, lp.data.tolist())).bit_length()
        raise GspbError(f"LP {lp.name!r} has a {bits}-bit coefficient, past the "
                        "int64 matrix of the exact solve")
    return lp.data


def _int_matrix(lp: CoveringLP) -> linsolve.Csr:
    """The LP's own arrays, not copied, as an int64 ``linsolve.Csr``;
    raises ``GspbError`` when a coefficient does not fit in int64."""
    return linsolve.Csr(lp.indptr, lp.indices, _int64_data(lp), lp.shape)


def float_presolve(lp: CoveringLP, simplex: bool = False) -> PresolveResult:
    """Floating-point solve of the LP; advisory only, never certified.

    HiGHS solves the packing LP max 1.z s.t. A^T z <= c, z >= 0, posed as
    min -1.z, with the options ``presolve`` off, ``simplex_strategy`` 1
    (dual) and output off, and ``solver`` ``ipm``: its interior-point
    method, whose crossover (on by default) turns the interior optimum into
    a basic solution, or with ``simplex`` the ``simplex`` solver, its dual
    simplex, which ends on a basic solution itself.  The transversal w is
    read off the packing LP's row duals, so the result is the covering LP's
    pair (primal w, dual z), and the exact crossover reads its supports off
    that vertex.  On the orbit quotients the packing form with no presolve
    is the fastest of the four forms tried, and the interior point beats
    the dual simplex (3x at grain 9, up to 20x on larger ones).  On the
    closed-form quotients of ``reduction.quotient_matrix`` (a few hundred
    variables at most) the dual simplex skips the interior point's fixed
    cost and wins.  The two groups overlap in size (grain 9 has 1280
    nonzeros, mag-asym q=4 n=11 has 1222), so the caller chooses.

    The model goes to scipy's bindings of HiGHS (the ones ``linprog`` calls,
    loaded without ``scipy.optimize``) as it is: A's CSR arrays are the
    column-wise arrays of A^T.  ``linprog`` itself would add about 2.3 ms to
    every solve (input cleaning, a sparse stack and conversion, a fresh
    check of each option and a loop over the columns for bound marginals),
    more than HiGHS spends on most quotients; its vertex is the same, bit
    for bit.  An LP whose coefficients pass
    int64 is refused with ``GspbError``, as the float64 copy would round it.
    """
    highspy = linsolve.scipy_extension("scipy.optimize._highspy._core")
    values = _int64_data(lp).astype(np.float64)
    model = highspy.HighsLp()
    model.num_col_, model.num_row_ = lp.num_rows, lp.num_vars
    model.col_cost_ = np.full(lp.num_rows, -1.0)
    model.col_lower_ = np.zeros(lp.num_rows)
    model.col_upper_ = np.full(lp.num_rows, highspy.kHighsInf)
    model.row_lower_ = np.full(lp.num_vars, -highspy.kHighsInf)
    model.row_upper_ = np.array(lp.objective, dtype=np.float64)
    at = model.a_matrix_
    at.format_ = highspy.MatrixFormat.kColwise
    at.num_col_, at.num_row_ = lp.num_rows, lp.num_vars
    at.start_, at.index_, at.value_ = lp.indptr, lp.indices, values
    highs = highspy._Highs()
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("solver", "simplex" if simplex else "ipm"),
                          ("simplex_strategy", 1)):
        if highs.setOptionValue(option, value) != highspy.HighsStatus.kOk:
            raise GspbError(f"HiGHS refused its option {option}={value!r}")
    if highs.passModel(model) == highspy.HighsStatus.kError:
        status = highspy.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        return PresolveResult(False, None, None, None, f"HiGHS status {int(status)}")
    solution = highs.getSolution()
    return PresolveResult(True, -highs.getInfo().objective_function_value,
                          (-np.array(solution.row_dual)).tolist(),
                          list(solution.col_value), "ok")


def _scatter(values, at: list[int], size: int, zero=Fraction(0)) -> list:
    """A length-``size`` list with values[t] at position at[t], ``zero``
    elsewhere."""
    x = [zero] * size
    for i, v in zip(at, values):
        x[i] = v
    return x


def _support_solve(matrix, eqs: list[int], unknowns: list[int], rhs,
                   size: int) -> list[Fraction] | None:
    """Exact x of length ``size``, zero off ``unknowns``, with
    (matrix x)_i = rhs[i] on an independent subset of the equations ``eqs``.
    ``matrix`` is a CSR matrix (``linsolve.Csr``) of int64 data, or of
    Python ints past int64, and ``rhs`` is indexed by its rows.

    The subset and the unknowns it determines are picked by elimination mod
    ``linsolve.PRIME``, taking equations in the order given (callers list
    preferred ones first); the square subsystem is solved by Dixon lifting
    from the inverse that elimination returns, and the other unknowns get
    zero; at rank 0 (no unknowns, say) that is the zero vector.  Returns
    None when the subsystem does not solve; a returned x is unchecked, so
    pass it to check_certificate.  It serves the crossover when the float
    basis does not certify, and the subspace block dual.
    """
    sub = linsolve.take(matrix, eqs, unknowns)
    residues = linsolve.Csr(sub.indptr, sub.indices,
                            (sub.data % linsolve.PRIME).astype(np.int64), sub.shape)
    piv_rows, piv_cols, inv = linsolve.select_pivots_mod(linsolve.dense(residues, np.int64))
    if not piv_cols:
        return [Fraction(0)] * size
    solved = linsolve.dixon_solve(linsolve.take(sub, piv_rows, piv_cols),
                                  len(piv_cols), inv, [rhs[eqs[r]] for r in piv_rows])
    if solved is None:
        return None
    return _scatter(solved, [unknowns[c] for c in piv_cols], size)


def _crossover(lp: CoveringLP, pres: PresolveResult) -> LPSolution | None:
    """Exact optimum from the float vertex via complementary slackness.

    The primal support S holds the float weights above 1e-7 times the
    largest one, and the tight rows R are ordered by decreasing float dual.
    The basis B is the |S| rows of R that LAPACK's row pivoting of the
    float A[R,S] factors first, all of them when |R| = |S|, and the top of
    that one LU is B's (``linsolve.float_basis``).  It lifts both
    B w_S = 1 and B^T z_B = c_S exactly (``linsolve.refine_solve``), with w
    zero off S and z zero off B's rows (the basis sharing of exact LP solvers:
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
    tight = np.flatnonzero(linsolve.float_product(A, wt) < 1 + 1e-6)
    tight = tight[np.argsort(-zt[tight], kind="stable")].tolist()
    support = np.flatnonzero(wt > 1e-7 * wt.max(initial=0)).tolist()
    basis = linsolve.float_basis(linsolve.take(A, tight, support))
    if basis is None:
        reason = "no square basis"
    else:
        rows, lu = basis
        rows = [tight[r] for r in rows]  # the LP's ids of B's rows
        pair = linsolve.refine_solve(linsolve.take(A, rows, support),
                                     [1] * len(support),
                                     [lp.objective[j] for j in support], lu)
        reason = "float lift failed"
        if pair is not None:
            (x, dx), (y, dy) = pair
            w = Scaled(linsolve.int_array(_scatter(x, support, lp.num_vars, 0)), dx)
            z = Scaled(linsolve.int_array(_scatter(y, rows, lp.num_rows, 0)), dy)
            sol = _certified(lp, w, z, support, "float basis")
            if sol is not None:
                return sol
            reason = "pair not certified"
    # solve the dual and the primal on their own supports
    At = linsolve.transpose(A)
    colsum = linsolve.float_product(At, zt)
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
    """The crossover's LPSolution when (w, z) passes check_certificate, its
    witnesses kept integer-scaled."""
    sol = certify(lp, w, z, "presolve+crossover")
    if sol is not None:
        sol.notes = (f"supports {len(support)}/{np.count_nonzero(sol.z.numer)}, "
                     f"{route}")
    return sol


def complementary_dual(lp: CoveringLP, rows: list[int],
                       cols: list[int]) -> list[Fraction] | None:
    """Packing vector z supported on ``rows`` with (A^T z)_j = c_j on ``cols``:
    the crossover's dual support solve, on the LP's own arrays, so a
    coefficient past int64 is solved in Python ints.  Unchecked."""
    return _support_solve(linsolve.transpose(lp), cols, rows, lp.objective,
                          lp.num_rows)


# ---------------------------------------------------------------------------
# public solve entry points
# ---------------------------------------------------------------------------

def solve_min_transversal(lp: CoveringLP, simplex: bool = False) -> LPSolution:
    """Exact minimum fractional transversal with primal and dual witnesses.

    Validates the LP, runs the float presolve (by HiGHS's dual simplex with
    ``simplex``, which the closed-form quotient LPs take, and by its interior
    point otherwise) and then the exact crossover; raises ``GspbError``
    naming the stage when either fails.
    """
    lp.validate()
    pres = float_presolve(lp, simplex=simplex)
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


def approx(x: Fraction) -> float | None:
    """``float(x)``, or None for a value past the float range."""
    try:
        return float(x)
    except OverflowError:
        return None
