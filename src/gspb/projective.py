"""Binary subspace channel, radius one: folded LP, greedy weights, duals.

Vertices are the subspaces of GF(2)^n; one error step moves to a subspace
one dimension away (contained or containing).  Equal dimensions share an
orbit and dimensions k and n-k fold together, leaving floor(n/2)+1 weight
variables under as many constraints (reduction.quotient_matrix).  A greedy
tail-first assignment solves the LP exactly for n >= 3: projective_gspb
returns the greedy weights and an exact dual vector, found by complementary
slackness on the greedy support, as an exactlp.LPSolution with method
"greedy" once exactlp.check_certificate accepts the pair.  The LP is solved
only where that check fails.

n = 2 is a flagged special case: there the greedy recursion's output is not
feasible and its total (1) undercuts the true covering optimum 7/5, which the
LP solve supplies; its notes name both numbers instead of forcing agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import exactlp, reduction
from .channels import ChannelSpec, gaussian_binomial


@dataclass
class ProjectiveWeights:
    n: int
    w: list[Fraction]             # folded, indices 0..floor(n/2)

    def unfolded(self) -> list[Fraction]:
        return [self.w[min(k, self.n - k)] for k in range(self.n + 1)]

    def bound(self) -> Fraction:
        return sum(
            (gaussian_binomial(self.n, k) * wk
             for k, wk in enumerate(self.unfolded()) if wk),
            Fraction(0),
        )


def projective_lp(n: int) -> exactlp.CoveringLP:
    """Folded covering LP: floor(n/2)+1 dimension rows and variables."""
    return reduction.quotient_matrix(ChannelSpec("projective", n=n)).lp


def greedy_weights(n: int) -> ProjectiveWeights:
    """Tail-first assignment: zero the middle, then take the least value
    satisfying each constraint moving out, indices above the middle resolved
    by symmetry.  For even n the step next to the middle references itself
    through that symmetry; the single linear equation is solved exactly."""
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2
    w = [Fraction(0)] * (half + 1)

    def get(k: int) -> Fraction:
        return w[min(k, n - k)]

    for k in range(half - 1, -1, -1):
        if n % 2 == 0 and k == n // 2 - 1:
            # w_{k+2} folds back onto w_k
            val = (1 - get(k + 1)) / ((1 << (k + 1)) + (1 << (n - k - 1)) - 2)
        else:
            val = (1 - get(k + 1) - ((1 << (n - k - 1)) - 1) * get(k + 2)) \
                / ((1 << (k + 1)) - 1)
        w[k] = max(val, Fraction(0))
    if w[0] == 0 and half >= 1 and w[1] == 0:
        w[0] = Fraction(1)
    return ProjectiveWeights(n=n, w=w)


def closed_form_weights(n: int) -> ProjectiveWeights:
    """Four-periodic pattern keyed to the middle index, with even-n
    exceptions beside the middle; it reproduces the greedy recursion.

    The second even-n exception is (2^{k+3}-3)/((2^{k+2}-1)(2^{k+2}-2)):
    both denominator factors carry exponent k+2, which is what reproduces
    the greedy values (see the n=4 entry 5/6).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2
    w = [Fraction(0)] * (half + 1)
    for k in range(half):
        if n % 2 == 0 and k == n // 2 - 1:
            w[k] = Fraction(1, 2 * ((1 << (k + 1)) - 1))
        elif n % 2 == 0 and k == n // 2 - 2:
            w[k] = Fraction((1 << (k + 3)) - 3,
                            (((1 << (k + 2)) - 1) * ((1 << (k + 2)) - 2)))
        elif (k - (half - 1)) % 4 == 0:
            w[k] = Fraction(1, (1 << (k + 1)) - 1)
        elif (k - (half - 2)) % 4 == 0:
            w[k] = Fraction(2, (1 << (k + 2)) - 1)
    if w[0] == 0 and half >= 1 and w[1] == 0:
        w[0] = Fraction(1)
    return ProjectiveWeights(n=n, w=w)


def projective_aspv(n: int) -> Fraction:
    """Subspace count over mean ball size, closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = sum(gaussian_binomial(n, k) for k in range(n + 1))
    weighted = sum(
        gaussian_binomial(n, k) * ((1 << k) + (1 << (n - k)) - 1)
        for k in range(n + 1)
    )
    return Fraction(total * total, weighted)


def _block_certificate(lp: exactlp.CoveringLP,
                       w: list[Fraction]) -> list[Fraction] | None:
    """Dual vector by complementary slackness on the support of ``w``.

    The rows the weights make tight carry the unknowns; the columns of
    positive weight give the equations.  The result is unchecked.
    """
    tight = exactlp.verify_transversal(lp, w).tight_rows
    positive = [j for j, x in enumerate(w) if x > 0]
    return exactlp.complementary_dual(lp, tight, positive)


def projective_gspb(n: int) -> exactlp.LPSolution:
    """Exact covering optimum, certified like z_gspb.

    The greedy weights and their block dual are checked as a pair against
    the folded LP; if the check fails the LP is solved outright and its
    notes say whether the greedy total differs from the optimum.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    weights = greedy_weights(n)
    lp = projective_lp(n)
    block = _block_certificate(lp, weights.w)
    greedy = None if block is None else exactlp.certify(lp, weights.w, block, "greedy")
    if greedy is not None:
        return greedy
    sol = exactlp.solve_min_transversal(lp, simplex=True)
    greedy_value = weights.bound()
    return replace(sol, notes="" if greedy_value == sol.optimum else (
        "greedy output is not optimal here (known flagged case n=2): "
        f"greedy total {greedy_value}, exact LP optimum {sol.optimum}"))
