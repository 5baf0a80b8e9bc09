"""Limited-magnitude channels over a q-ary alphabet, single error.

Asymmetric: a symbol may decrease by one.  Symmetric: one step either way.
Both reduce to composition-indexed quotient LPs (see reduction); this module
adds the closed-form bounds and the improved hand transversals, everything
in exact rationals.  A quotient's exact optimum (``quotient_gspb``) takes its
float point from HiGHS with the option ``solver`` ``simplex``, its dual
simplex, which is faster than the interior point (``ipm``) on these small
LPs; ``exactlp.float_presolve`` hands HiGHS the model directly, as
``linprog``'s wrapper would cost more than the solve.  The helpers that
read a built quotient, ``closed_transversal`` and ``quotient_gspb``, let one
report build its quotient once for both CLOSED and GSPB
(``bounds.assemble_report``); the functions of (n, q) build it per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactlp, reduction
from .channels import ChannelSpec, GspbError


@dataclass
class ClassTransversal:
    """Class-constant weights that passed verify_transversal, and their
    total."""

    labels: list
    weights: list[Fraction]
    bound: Fraction


def asym_quotient(n: int, q: int) -> reduction.QuotientLP:
    """Reduced covering LP over value-count compositions."""
    return reduction.quotient_matrix(ChannelSpec("mag_asym", n=n, q=q))


def sym_quotient(n: int, q: int) -> reduction.QuotientLP:
    """Reduced covering LP over folded compositions."""
    return reduction.quotient_matrix(ChannelSpec("mag_sym", n=n, q=q))


def asym_gspb(n: int, q: int) -> exactlp.LPSolution:
    return quotient_gspb(asym_quotient(n, q))


def sym_gspb(n: int, q: int) -> exactlp.LPSolution:
    return quotient_gspb(sym_quotient(n, q))


def quotient_gspb(qlp: reduction.QuotientLP) -> exactlp.LPSolution:
    """Exact covering optimum of a magnitude quotient, presolved by HiGHS's
    dual simplex."""
    return exactlp.solve_min_transversal(qlp.lp, simplex=True)


def asym_mb(n: int, q: int) -> Fraction:
    """Reciprocal-degree bound in closed form."""
    return Fraction(q ** (n + 1), (q - 1) * (n + 1))


def asym_aspv(n: int, q: int) -> Fraction:
    return Fraction(q ** (n + 1), (q - 1) * (n + 1) + 1)


def sym_aspv(n: int, q: int) -> Fraction:
    return Fraction(q ** n) / (2 * n + 1 - Fraction(2 * n, q))


def asym_improved_transversal(n: int, q: int) -> ClassTransversal:
    """The improved class transversal (``_asym_weights``), checked."""
    return closed_transversal(asym_quotient(n, q))


def sym_transversal(n: int, q: int) -> ClassTransversal:
    """The reciprocal class transversal (``_sym_weights``), checked."""
    return closed_transversal(sym_quotient(n, q))


def _asym_weights(n: int, labels) -> list[Fraction]:
    """Reciprocal weights sharpened by the count of ones in the word.

    w = 1/(n - i0 + 1 + (i1 - 1)/(2(n - i0))) on classes with a nonzero
    symbol, 1 on the all-zero class; tightens the plain reciprocal-degree
    assignment while staying feasible.
    """
    weights = []
    for c in labels:
        if c[0] == n:
            weights.append(Fraction(1))
        else:
            m = n - c[0]
            weights.append(1 / (m + 1 + Fraction(c[1] - 1, 2 * m)))
    return weights


def _sym_weights(n: int, labels) -> list[Fraction]:
    """Weights 1/(ball size - 1); the ball size is 2n+1 minus the count of
    extreme-valued positions, so the weight is constant on folded classes."""
    weights = []
    for c in labels:
        denom = 2 * n - c[0]
        if denom <= 0:
            raise GspbError("degenerate degree-one vertex; transversal undefined")
        weights.append(Fraction(1, denom))
    return weights


def closed_transversal(qlp: reduction.QuotientLP) -> ClassTransversal:
    """The family's hand transversal on its quotient (the improved one for
    mag-asym), once it passed its exact check."""
    part = qlp.partition
    rule = _asym_weights if part.spec.family == "mag_asym" else _sym_weights
    weights = rule(part.spec.n, part.labels)
    report = exactlp.verify_transversal(qlp.lp, weights)
    if not report.feasible:
        raise GspbError("class transversal failed its exact check")
    return ClassTransversal(labels=list(part.labels), weights=weights,
                            bound=report.bound)
