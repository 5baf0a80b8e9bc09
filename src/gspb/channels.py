"""Channel graphs: vertex enumeration, ball centers and directed radius-r balls.

Each error channel is a directed graph on its word space, given by one
step rule, ``successors``: the words one error away from x.  The radius-r
out-ball of x collects every word reachable from x by at most r such steps,
and the hypergraph of these balls, one per ball center, is what all bound
computations consume (enumerated by ``reduction.full_hypergraph_lp``); no
reverse step is defined.  The radius is ``ChannelSpec.r`` alone; a route
that covers radius 1 only asks ``check_radius`` before it answers.

Vertex encodings (canonical, one encoding per vertex):

* ``z``, ``grain``       -- ints in [0, 2^n), bit i = coordinate i
* ``deletion``           -- ball centers are length-n ints, the hypergraph
                            ground set is the length-(n-1) ints
* ``mag_asym``/``mag_sym`` -- tuples over range(q), length n
* ``projective``         -- tuple of GF(2) row masks in reduced row echelon
                            form (sorted descending); () is the zero space
* ``explicit``           -- ints 0..n-1 with a supplied edge list
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

FAMILIES = ("z", "mag_asym", "mag_sym", "deletion", "grain", "projective", "explicit")
MAGNITUDE_FAMILIES = ("mag_asym", "mag_sym")  # the families with an alphabet size q

DEFAULT_ENUM_CAP = 1 << 22


class GspbError(Exception):
    """Base class for refusals and cap violations."""


class CapExceeded(GspbError):
    """A resource cap refused the instance before any work was done."""


class EnumerationCapExceeded(CapExceeded):
    """Instance too large for full enumeration; use a quotient path."""


class QuotientUnavailable(GspbError):
    """No built-in symmetry partition for this family; use the full LP."""


class NotMonotoneError(GspbError):
    """Bound requires the monotonicity property and the graph lacks it."""


class OracleCapExceeded(CapExceeded):
    """Instance exceeds the brute-force oracle cap."""


@dataclass(frozen=True)
class ChannelSpec:
    """One channel instance: family plus parameters.

    ``q`` is required for the magnitude families and fixed at 2 for
    ``projective``.  Explicit graphs carry their directed edge list on the
    vertices 0..n-1, every edge listed exactly once.
    """

    family: str
    n: int
    r: int = 1
    q: int | None = None
    explicit_edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.family in MAGNITUDE_FAMILIES:
            if self.q is None or self.q < 2:
                raise ValueError("magnitude channels need q >= 2")
        elif self.family == "projective":
            if self.q not in (None, 2):
                raise ValueError("projective space is fixed at q=2")
        elif self.q is not None:
            raise ValueError(f"q is not a parameter of family {self.family!r}")
        if self.family == "explicit":
            if self.explicit_edges is None:
                raise ValueError("explicit graphs need an edge list")
            seen = set()
            for e in self.explicit_edges:
                if e in seen:
                    raise ValueError(f"edge {e} listed twice")
                seen.add(e)
                for v in e:
                    if not 0 <= v < self.n:
                        raise ValueError(f"edge {e} leaves the vertex range")
        elif self.explicit_edges is not None:
            raise ValueError("explicit_edges only apply to the explicit family")
        if self.family == "deletion" and self.n < 2:
            raise ValueError("deletion channel needs n >= 2")


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def vertex_count(spec: ChannelSpec) -> int:
    """Ground-set size without enumerating (deletion counts length-(n-1) words)."""
    if spec.family in ("z", "grain"):
        return 1 << spec.n
    if spec.family == "deletion":
        return 1 << (spec.n - 1)
    if spec.family in MAGNITUDE_FAMILIES:
        return spec.q ** spec.n
    if spec.family == "projective":
        return sum(gaussian_binomial(spec.n, k) for k in range(spec.n + 1))
    return spec.n


def enumerate_vertices(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> list:
    """Ground set in deterministic lexicographic order."""
    count = vertex_count(spec)
    if count > cap:
        raise EnumerationCapExceeded(
            f"{count} vertices exceed the enumeration cap {cap}; use the quotient path"
        )
    if spec.family in ("z", "grain"):
        return list(range(1 << spec.n))
    if spec.family == "deletion":
        return list(range(1 << (spec.n - 1)))
    if spec.family in MAGNITUDE_FAMILIES:
        return _qary_words(spec.n, spec.q)
    if spec.family == "projective":
        return enumerate_subspaces(spec.n)
    return list(range(spec.n))


def _qary_words(n: int, q: int) -> list[tuple[int, ...]]:
    words = [()]
    for _ in range(n):
        words = [w + (v,) for w in words for v in range(q)]
    return words


# ---------------------------------------------------------------------------
# GF(2) subspaces in reduced row echelon form
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, m: int) -> int:
    """Number of m-dimensional subspaces of GF(2)^n; 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for t in range(m):
        num *= (1 << (n - t)) - 1
        den *= (1 << (m - t)) - 1
    q, rem = divmod(num, den)
    if rem:
        raise GspbError(f"Gaussian binomial [{n} choose {m}] is not integral")
    return q


def rref(rows: list[int]) -> tuple[int, ...]:
    """Canonical RREF basis of the span of the given GF(2) row masks.

    Bit n-1 is the leading (leftmost) column; rows come back sorted by
    descending leading bit.  The zero space canonicalizes to ().
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # eliminate above the pivots
    for i in range(len(basis)):
        lead = 1 << (basis[i].bit_length() - 1)
        for j in range(i):
            if basis[j] & lead:
                basis[j] ^= basis[i]
    return tuple(sorted(basis, reverse=True))


def span(basis: tuple[int, ...]) -> list[int]:
    """All 2^dim member vectors of the subspace."""
    members = [0]
    for b in basis:
        members += [m ^ b for m in members]
    return members


def enumerate_subspaces(n: int) -> list[tuple[int, ...]]:
    """Every subspace of GF(2)^n as a canonical RREF tuple.

    Order: by dimension, then lexicographically on the row-mask tuples,
    which is deterministic and stable.
    """
    out: list[tuple[int, ...]] = [()]
    columns = list(range(n - 1, -1, -1))  # mask bit of each matrix column
    for k in range(1, n + 1):
        subs = []
        for pivots in combinations(range(n), k):
            # free positions: strictly right of the pivot, not a pivot column
            free = [
                [c for c in range(p + 1, n) if c not in pivots]
                for p in pivots
            ]
            fills = [[]]
            for fr in free:
                fills = [f + [bits] for f in fills for bits in range(1 << len(fr))]
            for fill in fills:
                rows = []
                for i, p in enumerate(pivots):
                    row = 1 << columns[p]
                    for bi, c in enumerate(free[i]):
                        if (fill[i] >> bi) & 1:
                            row |= 1 << columns[c]
                    rows.append(row)
                subs.append(tuple(sorted(rows, reverse=True)))
        subs.sort()
        out.extend(subs)
    return out


def _subspace_neighbors(n: int, x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Subspaces at dimension distance one: hyperplanes of x and extensions."""
    k = len(x)
    nbrs = []
    # codimension-1 subspaces of x: kernels of nonzero functionals on the basis
    for lam in range(1, 1 << k):
        rows = []
        pivot = None
        for i in range(k):
            if (lam >> i) & 1:
                if pivot is None:
                    pivot = x[i]
                else:
                    rows.append(x[i] ^ pivot)
            else:
                rows.append(x[i])
        nbrs.append(rref(rows))
    # dimension k+1 superspaces inside GF(2)^n
    if k < n:
        seen = set()
        inside = set(span(x))
        for v in range(1, 1 << n):
            if v in inside:
                continue
            sup = rref(list(x) + [v])
            if sup not in seen:
                seen.add(sup)
                nbrs.append(sup)
    return nbrs


# ---------------------------------------------------------------------------
# the single-error step and the out-balls built from it
# ---------------------------------------------------------------------------

def successors(spec: ChannelSpec, x) -> list:
    """Words one error step away from x (directed edges out of x)."""
    fam = spec.family
    if fam == "z":
        return [x ^ (1 << i) for i in range(spec.n) if (x >> i) & 1]
    if fam == "grain":
        return [
            x ^ (1 << i)
            for i in range(spec.n - 1)
            if ((x >> i) & 1) != ((x >> (i + 1)) & 1)
        ]
    if fam == "deletion":
        # only length-n centers have outgoing edges
        n = spec.n
        out = set()
        for i in range(n):
            low = x & ((1 << i) - 1)
            out.add(((x >> (i + 1)) << i) | low)
        return sorted(out)
    if fam == "mag_asym":
        return [
            x[:i] + (x[i] - 1,) + x[i + 1:]
            for i in range(spec.n)
            if x[i] > 0
        ]
    if fam == "mag_sym":
        out = []
        for i in range(spec.n):
            if x[i] > 0:
                out.append(x[:i] + (x[i] - 1,) + x[i + 1:])
            if x[i] < spec.q - 1:
                out.append(x[:i] + (x[i] + 1,) + x[i + 1:])
        return out
    if fam == "projective":
        return _subspace_neighbors(spec.n, x)
    return [b for (a, b) in spec.explicit_edges if a == x]


def check_radius(spec: ChannelSpec) -> None:
    """Refuse r != 1 unless the family is z or an explicit graph: every
    other family's formulas and quotients are single-error."""
    if spec.r != 1 and spec.family not in ("z", "explicit"):
        raise GspbError(f"{spec.family} bounds cover radius 1 only")


def out_ball(spec: ChannelSpec, x) -> set:
    """All y with directed path distance d(x, y) <= r; x always included."""
    if spec.family == "deletion":
        check_radius(spec)
        return set(successors(spec, x))  # ground set excludes length-n words
    frontier = {x}
    ball = {x}
    for _ in range(spec.r):
        frontier = {y for v in frontier for y in successors(spec, v)} - ball
        if not frontier:
            break
        ball |= frontier
    return ball


def ball_centers(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> list:
    """Edge-generating vertices: the full word space (length n for deletion)."""
    if spec.family == "deletion":
        if (1 << spec.n) > cap:
            raise EnumerationCapExceeded("too many deletion centers")
        return list(range(1 << spec.n))
    return enumerate_vertices(spec, cap)


# ---------------------------------------------------------------------------
# built-in explicit fixtures
# ---------------------------------------------------------------------------

def example_two() -> ChannelSpec:
    """Six-vertex regular digraph: every radius-1 ball has size 2, yet a
    single vertex meets them all, so the covering optimum is 1 while the
    naive |X|/ball-size value is 3."""
    edges = [(i, 0) for i in range(1, 6)] + [(0, 1)]
    return ChannelSpec(family="explicit", n=6, r=1,
                       explicit_edges=tuple(edges))


def example_three() -> ChannelSpec:
    """Five-vertex out-star: the four leaves form a code of infinite mutual
    distance, beating the average-ball-size value 25/9."""
    edges = [(0, i) for i in range(1, 5)]
    return ChannelSpec(family="explicit", n=5, r=1,
                       explicit_edges=tuple(edges))


def example_four(k: int = 3) -> ChannelSpec:
    """Symmetric graph on n=k^2 vertices whose average-ball-size value drops
    below 2 while a k-vertex code with pairwise distance 3 exists.

    Vertices 0..k-1 each attach to their own block of k-1 clique vertices;
    the remaining n-k vertices form one clique.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = k * k
    edges = []
    for a in range(k):
        block = range(k + a * (k - 1), k + (a + 1) * (k - 1))
        for b in block:
            edges.append((a, b))
            edges.append((b, a))
    clique = range(k, n)
    for u in clique:
        for v in clique:
            if u != v:
                edges.append((u, v))
    return ChannelSpec(family="explicit", n=n, r=1,
                       explicit_edges=tuple(edges))


FIXTURES = {
    "example2": example_two,
    "example3": example_three,
    "example4": example_four,
}


def z_degree(n: int, weight: int, r: int) -> int:
    """Radius-r ball size of a weight-w word in the downward binary channel."""
    return sum(comb(weight, i) for i in range(r + 1))
