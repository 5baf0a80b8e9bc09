"""Downward binary channel (only 1 -> 0 errors): exact covering optimum.

After weight-class reduction the covering LP has n+1 variables; its optimum
is produced in closed form by a backward recursion on the class weights and
certified per instance by an exact dual solve of an upper-triangular system.
The weights and the dual are checked together by exactlp.check_certificate
for the concrete (n, r) at hand, so no analytic radius horizon is assumed.
z_gspb returns the pair as an exactlp.LPSolution with method "closed-form";
where the check fails it returns the LP solve itself, so every value is
certified either way and its method says which route produced it.  Both
recursions run in Python ints over a running common denominator, one gcd
per step, and hand the check ``exactlp.Scaled`` witnesses; ``ZWeights.w``,
``ZCertificate.y`` and the solution's ``primal`` and ``dual`` are Fraction
views, made only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm

from . import exactlp, linsolve, reduction
from .channels import ChannelSpec, GspbError


class ZWeights:
    """Class weights w_0..w_n, indexed by Hamming weight, kept as ints over
    one denominator (``scaled``); ``w`` is their Fraction view, built when
    first read.  ``w`` is given as ints and Fractions or as a ``Scaled``."""

    def __init__(self, n: int, r: int, w):
        self.n, self.r = n, r
        self.scaled = w if isinstance(w, exactlp.Scaled) else exactlp.Scaled.of(w)

    @cached_property
    def w(self) -> list[Fraction]:
        return self.scaled.fractions()

    def bound(self) -> Fraction:
        return Fraction(sum(comb(self.n, k) * x for k, x
                            in enumerate(self.scaled.numer.tolist()) if x),
                        self.scaled.scale)


@dataclass
class ZCertificate:
    """The triangular dual y_0..y_n as ints over one denominator
    (``scaled``); ``y`` is its Fraction view, built when first read."""

    n: int
    r: int
    scaled: exactlp.Scaled
    status: str                  # "optimal-certified" | "nonnegativity-failed"

    @cached_property
    def y(self) -> list[Fraction]:
        return self.scaled.fractions()

    def dual_value(self) -> Fraction:
        return Fraction(sum(self.scaled.numer[: self.n - self.r + 1].tolist()),
                        self.scaled.scale)

    def lp_dual(self) -> exactlp.Scaled:
        """y as a dual of z_quotient_lp: y[0] on row 0, y[i] on row i+r for
        1 <= i <= n-r, zero on every other row."""
        y = self.scaled.numer.tolist()
        return exactlp.Scaled(linsolve.int_array(
            [y[0]] + [0] * self.r + y[1: self.n - self.r + 1]), self.scaled.scale)


def z_quotient_lp(n: int, r: int) -> exactlp.CoveringLP:
    """Weight-class covering LP: row l reads sum_i C(l,i) w_{l-i} >= 1."""
    return reduction.quotient_matrix(ChannelSpec("z", n=n, r=r)).lp


def z_weights_recursive(n: int, r: int) -> ZWeights:
    """Backward recursion: zero tail, then each w_k closes its row exactly.

    The weights are ints W over a running denominator d, w = W / d.  Row
    k+r reads C(k+r, r) w_k + sum_i C(k+r, r-i) w_{k+i} = 1, so w_k is
    s / (d C) for s = d - sum_i C(k+r, r-i) W_{k+i} and C = C(k+r, r);
    with g = gcd(s, C), d and the earlier W grow by C / g and W_k = s / g.
    d stays the LCM of the weights' denominators, the scale the exact check
    would give their Fractions: for each prime, the exponent of d C / g is
    the larger of its exponents in d and in w_k's reduced denominator.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    numer = [0] * (n + 1)
    d = 1
    for k in range(n - r, 0, -1):
        c = comb(k + r, r)
        s = d - sum(comb(k + r, r - i) * numer[k + i] for i in range(1, r + 1)
                    if numer[k + i])
        g = gcd(s, c)
        if g != c:
            grow = c // g
            numer[k + 1:n - r + 1] = [x * grow for x in numer[k + 1:n - r + 1]]
            d *= grow
        numer[k] = s // g
    numer[0] = d
    return ZWeights(n, r, exactlp.Scaled(linsolve.int_array(numer), d))


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
    dual value equal to the closed-form bound.  It runs in ints over a
    running denominator that stays the LCM of the denominators, as in
    ``z_weights_recursive``: y_j for j <= n-r divides by C(j+r, j), which
    grows it by C(j+r, j) / gcd, and the later y_j divide by nothing.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    y = [0] * (n + 1)
    d = y[0] = 1  # corner entry of the triangular system
    for j in range(1, n + 1):
        acc = sum(comb(i + r, j) * y[i]
                  for i in range(max(1, j - r), min(j - 1, n - r) + 1) if y[i])
        s = comb(n, j) * d - acc
        if j <= n - r:
            c = comb(j + r, j)
            g = gcd(s, c)
            if g != c:
                grow = c // g
                y[:j] = [v * grow for v in y[:j]]
                d *= grow
            s //= g
        y[j] = s
    status = ("nonnegativity-failed" if any(v < 0 for v in y)
              else "optimal-certified")
    return ZCertificate(n, r, exactlp.Scaled(linsolve.int_array(y), d), status)


def z_gspb(n: int, r: int) -> exactlp.LPSolution:
    """Exact covering optimum with per-instance certification.

    The closed-form weights and the triangular dual of radius min(r, n) are
    checked as a pair against z_quotient_lp(n, r): for r >= n every ball is
    the whole down-set of its center, so the LP is the one of radius n.  The
    pair goes to the check integer-scaled, as the recursions build it.  If
    the check fails the LP is solved outright and that solution, with its
    own method, is returned.
    """
    w = z_weights_recursive(n, min(r, n)).scaled
    y = z_optimality_certificate(n, min(r, n)).lp_dual()
    lp = z_quotient_lp(n, r)
    sol = exactlp.certify(lp, w, y, "closed-form")
    return sol if sol is not None else exactlp.solve_min_transversal(lp, simplex=True)


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
    """Reciprocal-degree bound: sum over weights of C(n,w)/ball size, over
    the LCM of the ball sizes."""
    from .channels import z_degree
    sizes = [z_degree(n, wt, r) for wt in range(n + 1)]
    d = lcm(*sizes)
    return Fraction(sum(comb(n, wt) * (d // b) for wt, b in enumerate(sizes)), d)


def z_aspv(n: int, r: int) -> Fraction:
    """Word count over mean ball size: 2^n / sum_i C(n,i)/2^i."""
    mean = sum((Fraction(comb(n, i), 1 << i) for i in range(r + 1)), Fraction(0))
    return Fraction(1 << n) / mean
