"""Deletion and grain-error channels: run statistics and improved bounds.

Both channels have radius-one ball size equal to the run count of the
center, and both admit the same profile-keyed transversal: weight 1/rho for
words with at most one middle length-1 run, (1/rho)(1 - mu/rho^2) otherwise,
where mu counts the middle length-1 runs.  Counting words by profile keeps
every bound closed-form; the full covering LPs (capped, default n <= 12) are
solved exactly through the shared LP core.

At every n the full LP is solved on its orbit quotient under word
complementation (and reversal, for deletion); run-profile classes are not
used, since they do not have constant ball membership counts.  The quotient
witnesses are lifted back and checked against the full LP.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from . import exactlp
from .channels import DEFAULT_ENUM_CAP, CapExceeded, EnumerationCapExceeded
from .kernels import deletion_targets, grain_targets, run_stats

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


def theorem_weight_vector(m: int) -> list[Fraction]:
    """seq_weight of every word in {0,1}^m, indexed by integer value."""
    rho, mu = run_stats(m)
    cache: dict[tuple[int, int], Fraction] = {}
    out = []
    for x in range(1 << m):
        key = (int(rho[x]), int(mu[x]))
        w = cache.get(key)
        if w is None:
            w = cache[key] = seq_weight(*key)
        out.append(w)
    return out


def _ball_rows(cand: np.ndarray, num_vars: int) -> list[list[tuple[int, int]]]:
    """One sorted 0/1 row per line of ``cand``: its distinct entries >= 0.

    Duplicates and the -1 "no target" sentinel both become -1, which a
    second sort moves to the front of the line; each row is then the slice
    after them, over one shared (j, 1) tuple per variable.
    """
    cand = np.sort(cand, axis=1)
    cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = -1
    cand.sort(axis=1)
    skip = np.count_nonzero(cand < 0, axis=1).tolist()
    pairs = np.empty(num_vars + 1, dtype=object)  # index -1 reads the None
    pairs[:num_vars] = np.fromiter(((j, 1) for j in range(num_vars)),
                                   dtype=object, count=num_vars)
    return [row[k:] for row, k in zip(pairs[cand].tolist(), skip)]


def _check_rows(n: int, family: str, cap: int) -> None:
    """Refuse a full LP of 2^n rows above the enumeration cap, before the
    kernels allocate them."""
    if (1 << n) > cap:
        raise EnumerationCapExceeded(
            f"{1 << n} {family} rows exceed the enumeration cap {cap}")


def deletion_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP with 2^(n-1) variables and one row per length-n word."""
    _check_rows(n, "deletion", cap)
    return exactlp.CoveringLP(
        num_vars=1 << (n - 1),
        objective=[1] * (1 << (n - 1)),
        rows=_ball_rows(deletion_targets(n), 1 << (n - 1)),
        name=f"deletion-full-n{n}",
    )


def grain_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP over {0,1}^n; each ball is the word plus its smears."""
    _check_rows(n, "grain", cap)
    words = np.arange(1 << n, dtype=np.int64)[:, None]
    return exactlp.CoveringLP(
        num_vars=1 << n,
        objective=[1] * (1 << n),
        rows=_ball_rows(np.concatenate([words, grain_targets(n)], axis=1), 1 << n),
        name=f"grain-full-n{n}",
    )


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

def _bit_reverse_table(m: int) -> list[int]:
    return [int(format(x, f"0{m}b")[::-1], 2) for x in range(1 << m)]


def _word_orbits(m: int, use_reversal: bool):
    """Orbits of {0,1}^m under complementation and optional reversal.

    Returns (representatives, orbit_of, orbit_sizes); the representative is
    the least member.
    """
    full = (1 << m) - 1
    rev = _bit_reverse_table(m) if use_reversal else None
    orbit_of = [-1] * (1 << m)
    reps: list[int] = []
    sizes: list[int] = []
    for x in range(1 << m):
        if orbit_of[x] >= 0:
            continue
        members = {x, x ^ full}
        if use_reversal:
            members |= {rev[x], rev[x] ^ full}
        oid = len(reps)
        reps.append(x)
        sizes.append(len(members))
        for y in members:
            orbit_of[y] = oid
    return reps, orbit_of, sizes


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

    rows = []
    for c in c_reps:
        counts: dict[int, int] = {}
        for j, _ in full_lp.rows[c]:
            o = v_orbit[j]
            counts[o] = counts.get(o, 0) + 1
        rows.append(sorted(counts.items()))
    qlp = exactlp.CoveringLP(
        num_vars=len(v_reps), objective=list(v_sizes), rows=rows,
        name=f"{family}-orbit-n{n}",
    )
    sol = exactlp.solve_min_transversal(qlp)
    w_full = [sol.primal[v_orbit[v]] for v in range(full_lp.num_vars)]
    z_full = [sol.dual[c_orbit[c]] / c_sizes[c_orbit[c]]
              for c in range(full_lp.num_rows)]
    if exactlp.check_certificate(full_lp, w_full, z_full) != sol.optimum:
        raise AssertionError("orbit lift failed the exact certificate check")
    return exactlp.LPSolution(
        sol.optimum, w_full, z_full, f"orbit+{sol.method}", sol.pivots,
        f"orbit quotient {len(v_reps)}x{len(c_reps)}, lift re-verified",
    )


def verify_deletion_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n deletion rows."""
    lp = deletion_full_lp(n)
    return exactlp.verify_transversal(lp, theorem_weight_vector(n - 1))


def verify_grain_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n grain rows."""
    lp = grain_full_lp(n)
    return exactlp.verify_transversal(lp, theorem_weight_vector(n))
