"""Deletion and grain-error channels: run statistics and improved bounds.

Both channels have radius-one ball size equal to the run count of the
center, and both admit the same profile-keyed transversal: weight 1/rho for
words with at most one middle length-1 run, (1/rho)(1 - mu/rho^2) otherwise,
where mu counts the middle length-1 runs.  Counting words by profile keeps
every bound closed-form; the full covering LPs (capped, default n <= 12) are
solved exactly through the shared LP core.

At every n the full LP is solved on its orbit quotient under word
complementation (and reversal, for deletion); run-profile classes are not
used, since they do not have constant ball membership counts.  The orbits
are found on arrays (the least member of each word's orbit), and each
quotient row is ``reduction.count_rows`` over the full-LP row of one center
per orbit, the counter that also checks the closed-form quotient rules.
The quotient witnesses are lifted back and checked against the full LP.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

import numpy as np

from . import exactlp, linsolve
from .channels import (DEFAULT_ENUM_CAP, CapExceeded, EnumerationCapExceeded,
                       GspbError)
from .kernels import deletion_targets, grain_targets, run_stats
from .reduction import count_rows

DEFAULT_LP_CAP = 12


def runs(word) -> int:
    """Number of maximal blocks of equal symbols."""
    w = _as_str(word)
    return 1 + sum(1 for a, b in zip(w, w[1:]) if a != b)


def middle_one_runs(word) -> int:
    """Length-1 runs that are neither the first nor the last run."""
    w = _as_str(word)
    return sum(
        1 for i in range(1, len(w) - 1)
        if w[i - 1] != w[i] and w[i] != w[i + 1]
    )


def _as_str(word) -> str:
    if isinstance(word, str):
        if word and set(word) - {"0", "1"}:
            raise ValueError("binary words only")
        return word
    return "".join(str(int(b)) for b in word)


def count_profiles(n: int, rho: int, mu: int) -> int:
    """Number of length-n binary words with the given run profile."""
    if n < 1:
        raise ValueError("need n >= 1")
    if rho == 1:
        return 2 if mu == 0 else 0
    if rho < 1 or rho > n or mu < 0 or mu > rho - 2:
        return 0
    return 2 * comb(rho - 2, mu) * comb(n - rho + 1, rho - mu - 1)


def seq_weight(rho: int, mu: int) -> Fraction:
    """Shared profile weight for the deletion and grain transversals."""
    if rho < 1 or mu < 0:
        raise ValueError("invalid profile")
    if mu <= 1:
        return Fraction(1, rho)
    return Fraction(1, rho) * (1 - Fraction(mu, rho * rho))


def _profile_sum(m: int) -> Fraction:
    """Sum of seq_weight over all words of length m, via profile counts."""
    total = Fraction(2)  # the two constant words
    for rho in range(2, m + 1):
        for mu in range(0, rho - 1):
            c = count_profiles(m, rho, mu)
            if c:
                total += c * seq_weight(rho, mu)
    return total


def deletion_bound(n: int) -> Fraction:
    """Improved transversal total over the length-(n-1) ground set."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _profile_sum(n - 1)


def grain_bound(n: int) -> Fraction:
    """Improved transversal total over the length-n word space."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _profile_sum(n)


def deletion_mb(n: int) -> Fraction:
    """Reciprocal-run-count bound (2^n - 2)/(n - 1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction((1 << n) - 2, n - 1)


def deletion_aspv(n: int) -> Fraction:
    """Ground set over mean ball size taken across the 2^n centers."""
    return Fraction(1 << n, n + 1)


def grain_mb(n: int, even_improvement: bool = False):
    """Reciprocal-run-count bound; optionally rounded down to even.

    Any odd-size code extends by one word, so code sizes are even and
    2*floor(bound/2) is also valid; that variant returns an int.
    """
    plain = Fraction((1 << (n + 1)) - 2, n)
    if not even_improvement:
        return plain
    return 2 * (((1 << (n + 1)) - 2) // (2 * n))


def grain_aspv(n: int) -> Fraction:
    return Fraction(1 << (n + 1), n + 1)


def _profiles(m: int) -> tuple[np.ndarray, np.ndarray, list[Fraction]]:
    """The run profile key rho*(m+1) + mu of every word in {0,1}^m, the keys
    that occur, and the seq_weight of each of those keys."""
    rho, mu = run_stats(m)
    profile = rho.astype(np.int64) * (m + 1) + mu
    keys = np.flatnonzero(np.bincount(profile))
    return profile, keys, [seq_weight(*divmod(k, m + 1)) for k in keys.tolist()]


def theorem_weight_vector(m: int) -> list[Fraction]:
    """seq_weight of every word in {0,1}^m, indexed by integer value: one
    Fraction per run profile, shared by the words that have it."""
    profile, keys, weights = _profiles(m)
    table = np.empty(int(keys[-1]) + 1, dtype=object)
    table[keys] = weights
    return table[profile].tolist()


def profile_weights(m: int) -> exactlp.Scaled:
    """theorem_weight_vector(m) scaled to integers by the LCM of its
    denominators: each run profile is scaled once and looked up per word.
    int64 while the scale allows (it has 58 bits at m=16), Python ints past
    that (71 bits at m=17)."""
    profile, keys, weights = _profiles(m)
    scale = lcm(*(w.denominator for w in weights))
    numer = linsolve.int_array([w.numerator * (scale // w.denominator)
                                for w in weights])
    table = np.zeros(int(keys[-1]) + 1, dtype=numer.dtype)
    table[keys] = numer
    return exactlp.Scaled(table[profile], scale)


def _ball_lp(cand: np.ndarray, num_vars: int, name: str) -> exactlp.CoveringLP:
    """Unit-objective covering LP whose row per line of ``cand`` lists its
    entries >= 0 in order.  The kernels mark a repeated or missing target
    -1, so the entries left are distinct.  ``cand`` is a fresh array of
    short lines (at most 31 entries), sorted in place."""
    cand.sort(axis=1)
    keep = cand >= 0
    indptr = np.zeros(len(cand) + 1, dtype=np.int64)
    # uint8 row sums: einsum sums short lines several times faster than
    # count_nonzero(axis=1), and no line has 256 entries
    np.cumsum(np.einsum("ij->i", keep.view(np.uint8)), dtype=np.int64,
              out=indptr[1:])
    indices = cand.ravel()[keep.ravel()].astype(np.int64)
    return exactlp.CoveringLP([1] * num_vars, indptr, indices,
                              np.ones(len(indices), dtype=np.int64), name)


def _check_rows(n: int, family: str, cap: int) -> None:
    """Refuse a full LP of 2^n rows above the enumeration cap, before the
    kernels allocate them."""
    if (1 << n) > cap:
        raise EnumerationCapExceeded(
            f"{1 << n} {family} rows exceed the enumeration cap {cap}")


def deletion_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP with 2^(n-1) variables and one row per length-n word."""
    _check_rows(n, "deletion", cap)
    return _ball_lp(deletion_targets(n), 1 << (n - 1), f"deletion-full-n{n}")


def grain_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP over {0,1}^n; each ball is the word plus its smears, which
    flip distinct bits and so are distinct."""
    _check_rows(n, "grain", cap)
    smears = grain_targets(n)
    words = np.arange(len(smears), dtype=smears.dtype)[:, None]
    return _ball_lp(np.concatenate([words, smears], axis=1), 1 << n,
                    f"grain-full-n{n}")


def deletion_full_gspb(n: int, lp_cap: int = DEFAULT_LP_CAP,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> exactlp.LPSolution:
    """Exact covering optimum of the full deletion LP, capped by size.

    Solved on the reversal/complement orbit quotient; the witnesses are
    lifted back and re-verified against every row and column of the full
    LP, so the certificate never leans on the symmetry argument itself.
    """
    return _orbit_reduced_solve(n, "deletion", lp_cap, enum_cap)


def grain_full_gspb(n: int, lp_cap: int = DEFAULT_LP_CAP,
                    enum_cap: int = DEFAULT_ENUM_CAP) -> exactlp.LPSolution:
    """Exact covering optimum of the full grain LP (artifact-computed; no
    published column exists for it), capped by size; solved like
    deletion_full_gspb on the complement orbit quotient."""
    return _orbit_reduced_solve(n, "grain", lp_cap, enum_cap)


# ---------------------------------------------------------------------------
# orbit quotient under word reversal / complementation
# ---------------------------------------------------------------------------

def _word_orbits(m: int, use_reversal: bool):
    """Orbits of {0,1}^m under complementation and optional reversal.

    Returns (representatives, orbit_of, orbit_sizes) as lists; the
    representative is the least member, and orbit ids increase with it.
    """
    words = np.arange(1 << m, dtype=np.int64)
    full = (1 << m) - 1
    least = np.minimum(words, words ^ full)
    if use_reversal:
        rev = sum(((words >> i) & 1) << (m - 1 - i) for i in range(m))
        least = np.minimum(least, np.minimum(rev, rev ^ full))
    reps, orbit_of, sizes = np.unique(least, return_inverse=True,
                                      return_counts=True)
    return reps.tolist(), orbit_of.tolist(), sizes.tolist()


def _orbit_reduced_solve(n: int, family: str, lp_cap: int,
                         enum_cap: int) -> exactlp.LPSolution:
    if n > lp_cap:
        raise CapExceeded(
            f"full {family} LP capped at n <= {lp_cap}; "
            "closed-form bounds remain available"
        )
    # reversal commutes with deletion but not with the rightward smear
    use_rev = family == "deletion"
    if family == "deletion":
        ground_m, full_lp = n - 1, deletion_full_lp(n, enum_cap)
    else:
        ground_m, full_lp = n, grain_full_lp(n, enum_cap)
    v_reps, v_orbit, v_sizes = _word_orbits(ground_m, use_rev)
    c_reps, c_orbit, c_sizes = _word_orbits(n, use_rev)

    ptr, cols = full_lp.indptr.tolist(), full_lp.indices.tolist()
    rows = count_rows((cols[ptr[c]:ptr[c + 1]] for c in c_reps), v_orbit.__getitem__)
    qlp = exactlp.CoveringLP.from_rows(v_sizes, rows, f"{family}-orbit-n{n}")
    sol = exactlp.solve_min_transversal(qlp)
    # a row's dual is its orbit's, split evenly: one division per orbit
    z_orbit = [z / size for z, size in zip(sol.dual, c_sizes)]
    w_full = [sol.primal[o] for o in v_orbit]
    z_full = [z_orbit[o] for o in c_orbit]
    if exactlp.check_certificate(full_lp, w_full, z_full) != sol.optimum:
        raise GspbError(f"orbit lift of the {family} n={n} quotient failed the "
                        "exact certificate check against the full LP")
    return exactlp.LPSolution(
        sol.optimum, w_full, z_full, f"orbit+{sol.method}", sol.pivots,
        f"orbit quotient {len(v_reps)}x{len(c_reps)} ({sol.notes}), "
        "lift re-verified",
    )


def verify_deletion_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n deletion rows."""
    lp = deletion_full_lp(n)
    return exactlp.verify_transversal(lp, profile_weights(n - 1))


def verify_grain_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n grain rows."""
    lp = grain_full_lp(n)
    return exactlp.verify_transversal(lp, profile_weights(n))
