"""Limited-magnitude channels over a q-ary alphabet, single error.

Asymmetric: a symbol may decrease by one.  Symmetric: one step either way.
Both reduce to composition-indexed quotient LPs (see reduction); this module
adds the closed-form bounds and the improved hand transversals, everything
in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactlp, reduction
from .channels import ChannelSpec, GspbError


@dataclass
class ClassTransversal:
    """Class-constant weights plus the bound they certify."""

    labels: list
    weights: list[Fraction]
    bound: Fraction
    feasible: bool


def asym_quotient(n: int, q: int) -> reduction.QuotientLP:
    """Reduced covering LP over value-count compositions."""
    return reduction.quotient_matrix(ChannelSpec("mag_asym", n=n, q=q))


def sym_quotient(n: int, q: int) -> reduction.QuotientLP:
    """Reduced covering LP over folded compositions."""
    return reduction.quotient_matrix(ChannelSpec("mag_sym", n=n, q=q))


def asym_gspb(n: int, q: int) -> exactlp.LPSolution:
    return exactlp.solve_min_transversal(asym_quotient(n, q).to_covering_lp())


def sym_gspb(n: int, q: int) -> exactlp.LPSolution:
    return exactlp.solve_min_transversal(sym_quotient(n, q).to_covering_lp())


def asym_mb(n: int, q: int) -> Fraction:
    """Reciprocal-degree bound in closed form."""
    return Fraction(q ** (n + 1), (q - 1) * (n + 1))


def asym_aspv(n: int, q: int) -> Fraction:
    return Fraction(q ** (n + 1), (q - 1) * (n + 1) + 1)


def sym_aspv(n: int, q: int) -> Fraction:
    return Fraction(q ** n) / (2 * n + 1 - Fraction(2 * n, q))


def asym_improved_transversal(n: int, q: int) -> ClassTransversal:
    """Reciprocal weights sharpened by the count of ones in the word.

    w = 1/(n - i0 + 1 + (i1 - 1)/(2(n - i0))) on classes with a nonzero
    symbol, 1 on the all-zero class; tightens the plain reciprocal-degree
    assignment while staying feasible.
    """
    qlp = asym_quotient(n, q)
    part = qlp.partition
    weights = []
    for c in part.labels:
        if c[0] == n:
            weights.append(Fraction(1))
        else:
            m = n - c[0]
            weights.append(1 / (m + 1 + Fraction(c[1] - 1, 2 * m)))
    return _finish(qlp, weights)


def sym_transversal(n: int, q: int) -> ClassTransversal:
    """Weights 1/(ball size - 1); the ball size is 2n+1 minus the count of
    extreme-valued positions, so the weight is constant on folded classes."""
    qlp = sym_quotient(n, q)
    part = qlp.partition
    weights = []
    for c in part.labels:
        denom = 2 * n - c[0]
        if denom <= 0:
            raise GspbError("degenerate degree-one vertex; transversal undefined")
        weights.append(Fraction(1, denom))
    return _finish(qlp, weights)


def _finish(qlp: reduction.QuotientLP, weights) -> ClassTransversal:
    part = qlp.partition
    bound = sum(
        (s * w for s, w in zip(part.sizes, weights)), Fraction(0)
    )
    if not exactlp.verify_transversal(qlp.to_covering_lp(), weights).feasible:
        raise AssertionError("class transversal failed its exact check")
    return ClassTransversal(labels=list(part.labels), weights=weights,
                            bound=bound, feasible=True)
