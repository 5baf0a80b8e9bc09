"""Limited-magnitude channels over a q-ary alphabet, single error.

Asymmetric: a symbol may decrease by one.  Symmetric: one step either way.
Both reduce to composition-indexed quotient LPs (see reduction); this module
adds the closed-form bounds and the improved hand transversals, everything
in exact rationals.  The hand weights are built as ints over the LCM of
their denominators (``exactlp.Scaled``), the form the exact check reads;
``ClassTransversal.weights`` makes their Fractions when it is read.  A
quotient's exact optimum (``quotient_gspb``) takes its float point from
HiGHS with the option ``solver`` ``simplex``, its dual
simplex, which is faster than the interior point (``ipm``) on these small
LPs; ``exactlp.float_presolve`` hands HiGHS the model directly, as
``linprog``'s wrapper would cost more than the solve.  The helpers that
read a built quotient, ``closed_transversal`` and ``quotient_gspb``, let one
instance build its quotient once for CLOSED, GSPB and ``gspb verify``
(``bounds.family_routes``); the functions of (n, q) build it per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import exactlp, linsolve, reduction
from .channels import ChannelSpec, GspbError


@dataclass
class ClassTransversal:
    """Class-constant weights that passed verify_transversal, as ints over
    one denominator (``scaled``), and their total; ``weights`` is their
    Fraction view, built when first read."""

    labels: list
    scaled: exactlp.Scaled
    bound: Fraction

    @cached_property
    def weights(self) -> list[Fraction]:
        return self.scaled.fractions()


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


def _asym_weights(n: int, labels) -> exactlp.Scaled:
    """Reciprocal weights sharpened by the count of ones in the word.

    w = 1/(n - i0 + 1 + (i1 - 1)/(2(n - i0))) on classes with a nonzero
    symbol, 1 on the all-zero class; tightens the plain reciprocal-degree
    assignment while staying feasible.  With m = n - i0 that is
    2m / (2m(m+1) + i1 - 1), taken in lowest terms over the LCM of the
    denominators.
    """
    fractions = []
    for c in labels:
        m = n - c[0]
        num, den = (2 * m, 2 * m * (m + 1) + c[1] - 1) if m else (1, 1)
        g = gcd(num, den)
        fractions.append((num // g, den // g))
    d = lcm(*{den for _, den in fractions})
    return exactlp.Scaled(linsolve.int_array([num * (d // den)
                                              for num, den in fractions]), d)


def _sym_weights(n: int, labels) -> exactlp.Scaled:
    """Weights 1/(ball size - 1) over the LCM of those sizes; the ball size
    is 2n+1 minus the count of extreme-valued positions, so the weight is
    constant on folded classes."""
    dens = [2 * n - c[0] for c in labels]
    if min(dens, default=1) <= 0:
        raise GspbError("degenerate degree-one vertex; transversal undefined")
    d = lcm(*set(dens))
    return exactlp.Scaled(linsolve.int_array([d // den for den in dens]), d)


def closed_transversal(qlp: reduction.QuotientLP) -> ClassTransversal:
    """The family's hand transversal on its quotient (the improved one for
    mag-asym), once it passed its exact check, which reads it
    integer-scaled."""
    part = qlp.partition
    rule = _asym_weights if part.spec.family == "mag_asym" else _sym_weights
    weights = rule(part.spec.n, part.labels)
    report = exactlp.verify_transversal(qlp.lp, weights)
    if not report.feasible:
        raise GspbError("class transversal failed its exact check")
    return ClassTransversal(labels=list(part.labels), scaled=weights,
                            bound=report.bound)
