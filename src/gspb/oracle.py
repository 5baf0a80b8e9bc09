"""Brute-force ground truth at small scale.

Everything here works on the raw ball hypergraph with no symmetry
assumptions: the full covering LP (``reduction.full_hypergraph_lp``), an
exact maximum set of pairwise disjoint balls (rows of that LP) via branch
and bound, and the three counterexample fixtures that defeat the
average-ball-size heuristic.  Matching semantics double as
the code-size search: a code of minimum distance 2r+1 is exactly a family
of disjoint balls, disjointness being what the search certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactlp
from .bounds import aspv
from .channels import (ChannelSpec, GspbError, OracleCapExceeded,
                       ball_centers, example_four, example_three, example_two,
                       vertex_count)
from .reduction import full_hypergraph_lp

DEFAULT_ORACLE_CAP = 4096

# both searches in brute_force_matching recurse once per ball; this keeps
# them well inside Python's default recursion limit of 1000 frames
MAX_SEARCH_BALLS = 512
# search nodes both phases of brute_force_matching may visit together; the
# size search is exponential in the ball count, so instances far below
# MAX_SEARCH_BALLS can already run for hours
MAX_SEARCH_NODES = 6_000_000


@dataclass
class OracleResult:
    spec: ChannelSpec
    tau_star_full: Fraction
    nu_integral: int
    witness: list            # centers of a maximum disjoint ball family


def _check_cap(spec: ChannelSpec, cap: int) -> None:
    count = vertex_count(spec)
    if count > cap:
        raise OracleCapExceeded(
            f"{count} vertices exceed the oracle cap {cap}")


def _check_search_depth(spec: ChannelSpec) -> None:
    balls = 1 << spec.n if spec.family == "deletion" else vertex_count(spec)
    if balls > MAX_SEARCH_BALLS:
        raise OracleCapExceeded(
            f"{balls} balls exceed the matching search cap {MAX_SEARCH_BALLS}")


def brute_force_tau(spec: ChannelSpec, cap: int = DEFAULT_ORACLE_CAP) -> Fraction:
    """Covering optimum of the full hypergraph, no reductions."""
    _check_cap(spec, cap)
    return exactlp.solve_min_transversal(full_hypergraph_lp(spec)).optimum


def brute_force_matching(spec: ChannelSpec, cap: int = DEFAULT_ORACLE_CAP,
                         tau: Fraction | None = None) -> tuple[int, list]:
    """Exact maximum family of pairwise disjoint balls, with witness.

    Phase one finds the size by branch and bound over edges in descending
    ball-size order, pruned by the remaining-edge count and stopped early
    when the fractional optimum's floor is reached.  Phase two re-searches
    in ascending center order, include-branch first, so the first complete
    solution is the lexicographically least witness.  The two phases share
    a budget of ``MAX_SEARCH_NODES`` nodes; past it ``OracleCapExceeded``
    is raised.  ``tau``, the covering optimum from brute_force_tau, is
    solved here when not passed.
    """
    _check_cap(spec, cap)
    _check_search_depth(spec)
    if tau is None:
        tau = brute_force_tau(spec, cap)
    return _max_disjoint_balls(spec, tau)


def _max_disjoint_balls(spec: ChannelSpec, tau: Fraction) -> tuple[int, list]:
    """The two searches of brute_force_matching, after its checks."""
    lp = full_hypergraph_lp(spec)
    ptr, members = lp.indptr.tolist(), lp.indices.tolist()
    edges = [tuple(members[s:e]) for s, e in zip(ptr, ptr[1:])]
    centers = ball_centers(spec)
    global_cap = tau.numerator // tau.denominator

    order = sorted(range(len(edges)), key=lambda e: (-len(edges[e]), edges[e]))
    edge_sets = [frozenset(edges[e]) for e in order]
    best_size = 0
    nodes = 0

    def count_node():
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise OracleCapExceeded(
                f"the disjoint-ball search passed its budget of "
                f"{MAX_SEARCH_NODES} nodes")

    def search_size(idx: int, used: frozenset, size: int):
        nonlocal best_size
        count_node()
        if size > best_size:
            best_size = size
        if idx >= len(edge_sets) or best_size >= global_cap:
            return
        if size + (len(edge_sets) - idx) <= best_size:
            return
        e = edge_sets[idx]
        if not (e & used):
            search_size(idx + 1, used | e, size + 1)
        search_size(idx + 1, used, size)

    search_size(0, frozenset(), 0)

    lex = sorted(range(len(edges)), key=lambda e: centers[e])
    lex_sets = [frozenset(edges[e]) for e in lex]

    def search_witness(idx: int, used: frozenset, chosen: list) -> list | None:
        count_node()
        if len(chosen) == best_size:
            return chosen
        if idx >= len(lex_sets) or len(chosen) + (len(lex_sets) - idx) < best_size:
            return None
        e = lex_sets[idx]
        if not (e & used):
            found = search_witness(idx + 1, used | e, chosen + [idx])
            if found is not None:
                return found
        return search_witness(idx + 1, used, chosen)

    picks = search_witness(0, frozenset(), []) or []
    witness = [centers[lex[i]] for i in picks]
    # direct pairwise disjointness check of the returned balls
    for a in range(len(picks)):
        for b in range(a + 1, len(picks)):
            if lex_sets[picks[a]] & lex_sets[picks[b]]:
                raise GspbError(f"oracle witness check: balls {witness[a]} "
                                f"and {witness[b]} intersect")
    if best_size > global_cap:
        raise GspbError(f"oracle witness check: {best_size} disjoint balls "
                        f"exceed the covering bound floor {global_cap}")
    return best_size, witness


def oracle_result(spec: ChannelSpec, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    _check_search_depth(spec)  # before the covering LP is solved
    tau = brute_force_tau(spec, cap)
    nu, witness = _max_disjoint_balls(spec, tau)
    return OracleResult(spec=spec, tau_star_full=tau, nu_integral=nu,
                        witness=witness)


@dataclass
class FixtureFacts:
    name: str
    spec: ChannelSpec
    aspv: Fraction
    naive_packing_value: Fraction | None   # |X|/ball size, regular graphs only
    tau_star: Fraction
    max_code: int
    summary: str


def counterexample_suite() -> list[FixtureFacts]:
    """The three fixtures on which the average-ball-size value fails.

    * example2: regular but not symmetric; naive packing value 3, covering
      optimum 1.
    * example3: out-star; average value 25/9 but four disjoint singleton
      balls exist.
    * example4 (k=3): symmetric; average value 27/17 < 2 while three
      vertices with pairwise disjoint balls exist.
    """
    out = []
    for name, spec, regular_ball in (
        ("example2", example_two(), 2),
        ("example3", example_three(), None),
        ("example4", example_four(3), None),
    ):
        tau = brute_force_tau(spec)
        nu, _ = brute_force_matching(spec, tau=tau)
        value = aspv(spec)
        naive = (Fraction(spec.n, regular_ball)
                 if regular_ball else None)
        if name == "example2":
            summary = f"regular non-symmetric: naive packing value {naive}, covering optimum {tau}"
        else:
            summary = f"ASPV {value} < max code {nu}"
        out.append(FixtureFacts(name=name, spec=spec, aspv=value,
                                naive_packing_value=naive, tau_star=tau,
                                max_code=nu, summary=summary))
    return out
