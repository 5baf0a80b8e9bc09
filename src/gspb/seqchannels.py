"""Deletion and grain-error channels: run statistics and improved bounds.

Both channels have radius-one ball size equal to the run count of the
center, and both admit the same profile-keyed transversal: weight 1/rho for
words with at most one middle length-1 run, (1/rho)(1 - mu/rho^2) otherwise,
where mu counts the middle length-1 runs.  Counting words by profile keeps
every bound closed-form; the full covering LPs are solved exactly through
the shared LP core, up to a guard per family (``LP_GUARD``: deletion
n <= 15, grain n <= 13 by default).

The 2^n ball rows come from one builder, ``_ball_rows``, over any list of
centres, in the layout the target kernels write: an
``exactlp.UnitTargets``, one line of variable ids per error position (for
grain, the centre itself first) and -1 where a position adds nothing.
``ball_blocks`` reads them in blocks of ``kernels._BLOCK`` consecutive
centres over all the variables, so the profile checks, ``verify``, the
monotonicity check and the orbit lift hold one block at a time, and their
exact sums read each block as the kernels left it.  The LPs that are
solved or quotiented take CSR arrays: ``_ball_lp`` turns the same rows
into a ``CoveringLP`` for ``deletion_full_lp`` and ``grain_full_lp``, the
one-block case, and for the orbit representatives.

At every n the full LP is solved on its orbit quotient under word
complementation (and reversal, for deletion); run-profile classes are not
used, since they do not have constant ball membership counts.  The orbits
are found on arrays (the least member of each word's orbit), and each
quotient row counts the ball row of one center per orbit, built for those
centres alone, by orbit: ``reduction.count_rows`` takes those CSR rows with
each word replaced by its orbit and returns the quotient's CSR arrays, the
same counter that checks the closed-form quotient rules.  The quotient is
solved from its stored optimal basis (``BASES_FILE``, read once per
process; ``write_orbit_bases`` writes it) with no float presolve,
and by HiGHS and the exact crossover when there is none or it is refused.
The quotient witnesses are lifted back and
checked against every block of the full LP: the lift indexes the
quotient's integer-scaled witnesses by orbit with numpy, so no Fraction is
made per word.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from importlib import resources
from math import comb, lcm

import numpy as np

from . import exactlp, kernels, linsolve
from .channels import (DEFAULT_ENUM_CAP, CapExceeded, EnumerationCapExceeded,
                       GspbError)
from .kernels import deletion_targets, grain_targets, run_stats
from .reduction import count_rows

# the largest n whose full LP each family solves by default (``--lp-cap``
# overrides it): the reach of the stored bases, in seconds per cell
LP_GUARD = {"deletion": 15, "grain": 13}

# the optimal bases of the orbit quotients (``write_orbit_bases``)
BASES_FILE = resources.files(__package__) / "data" / "orbit_bases.json"
_FIRST_N = {"deletion": 2, "grain": 1}


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


def _ball_lp(block: exactlp.UnitTargets, objective: list,
             name: str) -> exactlp.CoveringLP:
    """The ``block``'s rows as a CSR covering LP over ``objective``, each
    row's variables in increasing order: the form of the LPs that are
    solved or quotiented.  The entries other than -1 are distinct, so no
    compare pass is needed."""
    cand = np.ascontiguousarray(block.targets.T)   # lines of at most 31 entries
    cand.sort(axis=1)
    keep = cand >= 0
    indptr = np.zeros(len(cand) + 1, dtype=np.int64)
    # uint8 row sums: einsum sums short lines several times faster than
    # count_nonzero(axis=1), and no line has 256 entries
    np.cumsum(np.einsum("ij->i", keep.view(np.uint8)), dtype=np.int64,
              out=indptr[1:])
    indices = cand.ravel()[keep.ravel()].astype(np.int64)
    return exactlp.CoveringLP(objective, indptr, indices,
                              np.ones(len(indices), dtype=np.int64), name)


def _ball_rows(n: int, family: str, words) -> exactlp.UnitTargets:
    """The deletion or grain balls of the length-n centres ``words`` (all
    2^n when None), one row per centre in order, as the target kernels
    write them: the kernel's (width, rows) array, whose grain lines start
    with the centre itself.  The one caller of the target kernels."""
    dtype = kernels.word_dtype(n)
    words = np.arange(1 << n, dtype=dtype) if words is None else np.asarray(words, dtype)
    if family == "deletion":
        return exactlp.UnitTargets(deletion_targets(n, words).T, 1 << (n - 1))
    # each ball is the word plus its smears, which flip distinct bits and so
    # are distinct
    return exactlp.UnitTargets(
        np.concatenate([words[None, :], grain_targets(n, words).T]), 1 << n)


def _check_rows(n: int, family: str, cap: int) -> None:
    """Refuse a full LP of 2^n rows above the enumeration cap, before the
    kernels allocate them."""
    if (1 << n) > cap:
        raise EnumerationCapExceeded(
            f"{1 << n} {family} rows exceed the enumeration cap {cap}")


def ball_blocks(family: str, n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.RowBlocks:
    """The rows of the full deletion or grain LP in blocks of
    ``kernels._BLOCK`` consecutive centres, each built when it is read, as
    the ``exactlp.UnitTargets`` the kernels write: no CSR array is made."""
    _check_rows(n, family, cap)
    ground = n - 1 if family == "deletion" else n
    step = kernels._BLOCK
    return exactlp.RowBlocks(
        [1] * (1 << ground), [*range(0, 1 << n, step), 1 << n],
        lambda start, stop: _ball_rows(n, family, np.arange(start, stop)),
        f"{family}-full-n{n}")


def deletion_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP with 2^(n-1) variables and one row per length-n word."""
    _check_rows(n, "deletion", cap)
    return _ball_lp(_ball_rows(n, "deletion", None), [1] * (1 << (n - 1)),
                    f"deletion-full-n{n}")


def grain_full_lp(n: int, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Covering LP over {0,1}^n, one row per word: the word and its smears."""
    _check_rows(n, "grain", cap)
    return _ball_lp(_ball_rows(n, "grain", None), [1] * (1 << n),
                    f"grain-full-n{n}")


def deletion_full_gspb(n: int, lp_cap: int | None = None,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> exactlp.LPSolution:
    """Exact covering optimum of the full deletion LP, for n up to
    ``lp_cap`` (default ``LP_GUARD["deletion"]``).

    Solved on the reversal/complement orbit quotient; the witnesses are
    lifted back and re-verified against every row and column of the full
    LP, so the certificate never leans on the symmetry argument itself.
    """
    return _orbit_reduced_solve(n, "deletion", lp_cap, enum_cap)


def grain_full_gspb(n: int, lp_cap: int | None = None,
                    enum_cap: int = DEFAULT_ENUM_CAP) -> exactlp.LPSolution:
    """Exact covering optimum of the full grain LP (artifact-computed; no
    published column exists for it), for n up to ``lp_cap`` (default
    ``LP_GUARD["grain"]``); solved like deletion_full_gspb on the complement
    orbit quotient."""
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


def orbit_quotient(family: str, n: int, enum_cap: int = DEFAULT_ENUM_CAP):
    """The full deletion or grain LP as row blocks, its orbit quotient LP,
    and the orbit of each variable and row with the rows' orbit sizes."""
    full = ball_blocks(family, n, enum_cap)
    # reversal commutes with deletion but not with the rightward smear
    use_rev = family == "deletion"
    ground_m = n - 1 if family == "deletion" else n
    v_reps, v_orbit, v_sizes = _word_orbits(ground_m, use_rev)
    c_reps, c_orbit, c_sizes = _word_orbits(n, use_rev)
    reps = _ball_lp(_ball_rows(n, family, c_reps), full.objective, full.name)
    counted = count_rows(reps.indptr, np.take(v_orbit, reps.indices), len(v_reps))
    qlp = exactlp.CoveringLP(v_sizes, counted.indptr, counted.indices, counted.data,
                             f"{family}-orbit-n{n}")
    return full, qlp, v_orbit, c_orbit, c_sizes


def _orbit_reduced_solve(n: int, family: str, lp_cap: int | None,
                         enum_cap: int) -> exactlp.LPSolution:
    cap = LP_GUARD[family] if lp_cap is None else lp_cap
    if n > cap:
        raise CapExceeded(
            f"full {family} LP capped at n <= {cap}; "
            "closed-form bounds remain available"
        )
    full, qlp, v_orbit, c_orbit, c_sizes = orbit_quotient(family, n, enum_cap)
    basis, missing = stored_basis(family, n)
    sol = exactlp.solve_min_transversal(qlp, basis=basis)
    notes = sol.notes if basis else f"stored basis refused ({missing}), {sol.notes}"
    # the lift indexes the quotient's scaled witnesses by orbit: a word takes
    # its orbit's weight at the same scale, and a row its orbit's dual split
    # evenly, numer * (L / size) over scale * L for L the LCM of the orbit
    # sizes
    size_lcm = lcm(*c_sizes)
    share = np.array([size_lcm // size for size in c_sizes], dtype=np.int64)
    numer = sol.z.numer
    if numer.dtype == np.int64 and int(numer.max(initial=0)) >= (1 << 63) // size_lcm:
        numer = numer.astype(object)  # a certified z is >= 0: max bounds |z|
    w = exactlp.Scaled(sol.w.numer[v_orbit], sol.w.scale)
    z = exactlp.Scaled((numer * share.astype(numer.dtype))[c_orbit],
                       sol.z.scale * size_lcm)
    lifted = exactlp.certify(
        full, w, z, f"orbit+{sol.method}",
        f"orbit quotient {qlp.num_vars}x{qlp.num_rows} ({notes}), "
        "lift re-verified")
    if lifted is None or lifted.optimum != sol.optimum:
        raise GspbError(f"orbit lift of the {family} n={n} quotient failed the "
                        "exact certificate check against the full LP")
    return lifted


# ---------------------------------------------------------------------------
# stored optimal bases of the orbit quotients
# ---------------------------------------------------------------------------

def write_orbit_bases(path, last: dict[str, int] = LP_GUARD) -> dict:
    """Solve each family's orbit quotients, from its least n to
    ``last[family]``, by HiGHS and the exact crossover, write the bases file
    to ``path`` and return what it holds; ``python -m gspb.orbitbases``
    writes ``BASES_FILE`` so.

    The file is a JSON object: ``highs``, the HiGHS version used, and under
    ``bases`` one entry ``"<family>-<n>"`` per cell whose crossover
    certified on its float basis (not n = 6, whose vertex is degenerate):
    the quotient's ``shape`` [rows, variables] and the basis's ``support``
    and ``rows`` as hex bitmasks over its variable and row ids, bit i of the
    number set for id i."""
    bases = {}
    for family, top in last.items():
        for n in range(_FIRST_N[family], top + 1):
            qlp = orbit_quotient(family, n)[1]
            basis = exactlp.solve_min_transversal(qlp).basis
            if basis is not None:
                bases[f"{family}-{n}"] = {"shape": list(basis.shape),
                                          "support": _mask(basis.support),
                                          "rows": _mask(basis.tight)}
    doc = {"highs": exactlp.highs_version(), "bases": bases}
    entries = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}"
                          for key, entry in bases.items())
    path.write_text(f'{{"highs": {json.dumps(doc["highs"])}, "bases": {{\n'
                    f"{entries}\n}}}}\n")
    return doc


def stored_basis(family: str, n: int) -> tuple[exactlp.Basis | None, str]:
    """The stored optimal basis of the ``family`` n orbit quotient, or None
    and why there is none.  A hint only: ``exactlp.solve_from_basis`` checks
    its shape and certifies what it lifts, and the solve falls back to
    HiGHS when it refuses."""
    bases, problem = _stored_bases(BASES_FILE)
    entry = bases.get(f"{family}-{n}")
    if entry is None:
        return None, problem or f"none stored for {family} n={n}"
    try:
        rows, cols = entry["shape"]
        return exactlp.Basis((rows, cols), _ids(entry["support"], cols),
                             _ids(entry["rows"], rows)), ""
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"unreadable entry {family}-{n}: {exc!r}"


@functools.cache
def _stored_bases(path) -> tuple[dict, str]:
    """The entries of the bases file at ``path``, read once per process, and
    why it gave none (missing or unreadable)."""
    try:
        return json.loads(path.read_text())["bases"], ""
    except FileNotFoundError:
        return {}, "no bases file"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, f"unreadable bases file: {exc!r}"


def _mask(ids: list[int]) -> str:
    """The distinct ids as one hex bitmask: bit i of the number is set for
    id i."""
    return f"{sum(1 << i for i in ids):x}"


def _ids(mask: str, size: int) -> list[int]:
    """The ids of a ``_mask``, each below ``size`` (``ValueError``
    otherwise)."""
    bits = int(mask, 16)
    if bits >> size:
        raise ValueError(f"mask sets an id past {size}")
    packed = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


def verify_deletion_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n deletion rows,
    read in blocks."""
    return exactlp.verify_transversal(ball_blocks("deletion", n),
                                      profile_weights(n - 1))


def verify_grain_transversal(n: int) -> exactlp.TransversalReport:
    """Exact check of the profile weights against all 2^n grain rows, read
    in blocks."""
    return exactlp.verify_transversal(ball_blocks("grain", n), profile_weights(n))
