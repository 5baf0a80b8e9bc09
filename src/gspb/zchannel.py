"""Downward binary channel (only 1 -> 0 errors): exact covering optimum.

After weight-class reduction the covering LP has n+1 variables; its optimum
is produced in closed form by a backward recursion on the class weights and
certified per instance by an exact dual solve of an upper-triangular system.
The weights and the dual are checked together by exactlp.check_certificate
for the concrete (n, r) at hand, so no analytic radius horizon is assumed.
z_gspb returns the pair as an exactlp.LPSolution with method "closed-form";
where the check fails it returns the LP solve itself, so every value is
certified either way and its method says which route produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import exactlp, reduction
from .channels import ChannelSpec, GspbError


@dataclass
class ZWeights:
    n: int
    r: int
    w: list[Fraction]            # indexed 0..n by Hamming weight class

    def bound(self) -> Fraction:
        return sum((comb(self.n, k) * wk for k, wk in enumerate(self.w) if wk),
                   Fraction(0))


@dataclass
class ZCertificate:
    n: int
    r: int
    y: list[Fraction]
    status: str                  # "optimal-certified" | "nonnegativity-failed"

    def dual_value(self) -> Fraction:
        return sum(self.y[: self.n - self.r + 1], Fraction(0))

    def lp_dual(self) -> list[Fraction]:
        """y as a dual of z_quotient_lp: y[0] on row 0, y[i] on row i+r for
        1 <= i <= n-r, zero on every other row."""
        z = [Fraction(0)] * (self.n + 1)
        z[0] = self.y[0]
        z[self.r + 1:] = self.y[1: self.n - self.r + 1]
        return z


def z_quotient_lp(n: int, r: int) -> exactlp.CoveringLP:
    """Weight-class covering LP: row l reads sum_i C(l,i) w_{l-i} >= 1."""
    return reduction.quotient_matrix(ChannelSpec("z", n=n, r=r)).lp


def z_weights_recursive(n: int, r: int) -> ZWeights:
    """Backward recursion: zero tail, then each w_k closes its row exactly."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    w = [Fraction(0)] * (n + 1)
    for k in range(n - r, 0, -1):
        s = Fraction(1) - sum(
            (w[k + i] * comb(k + r, r - i) for i in range(1, r + 1) if w[k + i]),
            Fraction(0),
        )
        w[k] = s / comb(k + r, r)
    w[0] = Fraction(1)
    return ZWeights(n=n, r=r, w=w)


def d_sequence(r: int, length: int) -> list[Fraction]:
    """n-independent companion sequence: D_{r-1}=1 after r-1 zeros, then the
    factorial-weighted window of the last r+1 terms vanishes."""
    if r < 1:
        raise ValueError("need r >= 1")
    vals = [Fraction(0)] * max(length, r)
    if r - 1 < len(vals):
        vals[r - 1] = Fraction(1)
    rf = factorial(r)
    for i in range(r, length):
        acc = sum(
            (vals[i - j] / factorial(r - j) for j in range(1, r + 1) if vals[i - j]),
            Fraction(0),
        )
        vals[i] = -rf * acc
    return vals[:length]


def z_weights_explicit(n: int, r: int) -> ZWeights:
    """Closed-form weights from the companion sequence; equals the recursion."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    ds = d_sequence(r, n)
    rf = factorial(r)
    w = [Fraction(0)] * (n + 1)
    w[0] = Fraction(1)
    for k in range(1, n + 1):
        acc = sum(
            (ds[m - k - 1] / factorial(m) for m in range(r + k, n + 1)
             if ds[m - k - 1]),
            Fraction(0),
        )
        w[k] = rf * factorial(k) * acc
    return ZWeights(n=n, r=r, w=w)


def z_optimality_certificate(n: int, r: int) -> ZCertificate:
    """Dual vector from the upper-triangular certificate system.

    The system pairs the binomial objective with the cost rows that are
    tight under the closed-form weights; forward substitution solves it
    exactly and nonnegativity of the result certifies optimality, with the
    dual value equal to the closed-form bound.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    y = [Fraction(0)] * (n + 1)
    y[0] = Fraction(1)  # corner entry of the triangular system
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(max(1, j - r), min(j - 1, n - r) + 1):
            if y[i]:
                acc += comb(i + r, j) * y[i]
        if j <= n - r:
            y[j] = (comb(n, j) - acc) / comb(j + r, j)
        else:
            y[j] = comb(n, j) - acc
    if any(v < 0 for v in y):
        return ZCertificate(n, r, y, "nonnegativity-failed")
    return ZCertificate(n, r, y, "optimal-certified")


def z_gspb(n: int, r: int) -> exactlp.LPSolution:
    """Exact covering optimum with per-instance certification.

    The closed-form weights and the triangular dual are checked as a pair
    against z_quotient_lp(n, r); if the check fails the LP is solved
    outright and that solution, with its own method, is returned.
    """
    w = z_weights_recursive(n, r).w
    y = z_optimality_certificate(n, r).lp_dual()
    lp = z_quotient_lp(n, r)
    value = exactlp.check_certificate(lp, w, y)
    if value is None:
        return exactlp.solve_min_transversal(lp)
    return exactlp.LPSolution(value, w, y, "closed-form")


def z_example_wprime(n: int) -> tuple[list[Fraction], Fraction]:
    """Radius-one hand transversal w'_k = (k+2)/((k+1)(k+3)), w'_0 = 1.

    Feasible but suboptimal; its total sits between the covering optimum
    and the average-ball value 2^{n+1}/(n+2).
    """
    w = [Fraction(1)]
    w += [Fraction(k + 2, (k + 1) * (k + 3)) for k in range(1, n + 1)]
    report = exactlp.verify_transversal(z_quotient_lp(n, 1), w)
    if not report.feasible:
        raise GspbError("z hand transversal w' failed its exact check")
    return w, report.bound


def z_mb(n: int, r: int) -> Fraction:
    """Reciprocal-degree bound: sum over weights of C(n,w)/ball size."""
    from .channels import z_degree
    return sum(
        (Fraction(comb(n, wt), z_degree(n, wt, r)) for wt in range(n + 1)),
        Fraction(0),
    )


def z_aspv(n: int, r: int) -> Fraction:
    """Word count over mean ball size: 2^n / sum_i C(n,i)/2^i."""
    mean = sum((Fraction(comb(n, i), 1 << i) for i in range(r + 1)), Fraction(0))
    return Fraction(1 << n) / mean
