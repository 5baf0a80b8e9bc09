"""Symmetry reduction: class partitions and quotient covering LPs.

Coordinate permutations (all families below) and value complementation
(symmetric magnitude, dimension reversal for subspaces) act as graph
automorphisms, so an optimal fractional transversal exists that is constant
on their orbits.  Each supported family carries a closed-form orbit
invariant, class size and quotient row rule, which keeps the reduced LP
polynomially small without enumerating the word space:

* ``z``        -- Hamming weight; binomial class sizes
* ``mag_asym`` -- value-count composition; multinomial sizes
* ``mag_sym``  -- folded composition (value v and q-1-v share a label)
* ``projective`` -- subspace dimension with k and n-k folded together

A quotient LP is a sparse ``exactlp.CoveringLP``: one variable per class,
weighted by the class size, and one row per class listing how many members
of each class lie in the ball of that class's representative.  These
quotients are the only source of the z and subspace rows
(``zchannel.z_quotient_lp`` and ``projective.projective_lp`` read them from
here).  Deletion and grain are reduced by the orbit quotient under word
complementation and reversal in ``seqchannels``, which counts its rows with
``count_rows`` and lifts its witnesses back to the full LP; explicit graphs
have no quotient.  Asking this module for a partition of any of the three
raises QuotientUnavailable.

Only the z rows hold beyond radius 1 (``channels.check_radius``).  On every
call the closed-form rows are checked against ``count_rows`` over enumerated
balls at small n; a mismatch raises ``GspbError``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from . import exactlp
from .channels import (DEFAULT_ENUM_CAP, ChannelSpec, GspbError,
                       QuotientUnavailable, build_hypergraph, check_radius,
                       gaussian_binomial, out_ball)


@dataclass
class ClassPartition:
    """Orbit classes: labels, sizes, representatives and a classifier."""

    spec: ChannelSpec
    labels: list                  # deterministic lexicographic order
    sizes: list[int]
    representatives: list
    label_to_id: dict

    def classify(self, vertex) -> int:
        """Class id of a vertex (the vertex_to_class map, lazily applied)."""
        return self.label_to_id[_invariant(self.spec, vertex)]

    @property
    def num_classes(self) -> int:
        return len(self.labels)


@dataclass
class QuotientLP:
    """Reduced covering LP over equivalence classes.

    Row i of ``lp`` lists, per class j meeting it, the members of class j
    inside the ball of the class-i representative; the objective is the
    class sizes.
    """

    partition: ClassPartition
    lp: exactlp.CoveringLP


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(n: int, parts) -> int:
    out = 1
    rem = n
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


def _folded_labels(q: int) -> int:
    return (q + 1) // 2


def _invariant(spec: ChannelSpec, vertex):
    fam = spec.family
    if fam == "z":
        return bin(vertex).count("1")
    if fam == "mag_asym":
        counts = [0] * spec.q
        for v in vertex:
            counts[v] += 1
        return tuple(counts)
    if fam == "mag_sym":
        L = _folded_labels(spec.q)
        counts = [0] * L
        for v in vertex:
            counts[min(v, spec.q - 1 - v)] += 1
        return tuple(counts)
    k = len(vertex)  # projective; partitions exist for these four only
    return min(k, spec.n - k)


def partition_by_canonical_form(spec: ChannelSpec) -> ClassPartition:
    """Orbit partition with closed-form class sizes (no enumeration)."""
    fam = spec.family
    n = spec.n
    if fam == "z":
        labels = list(range(n + 1))
        sizes = [comb(n, k) for k in labels]
        reps = [(1 << k) - 1 for k in labels]
    elif fam == "mag_asym":
        labels = sorted(_compositions(n, spec.q))
        sizes = [_multinomial(n, c) for c in labels]
        reps = [_composition_rep(c) for c in labels]
    elif fam == "mag_sym":
        labels = sorted(_compositions(n, _folded_labels(spec.q)))
        # a label stands for two values, except the middle value of odd q
        sizes = [_multinomial(n, c) << (n - spec.q % 2 * c[-1]) for c in labels]
        reps = [_composition_rep(c) for c in labels]
    elif fam == "projective":
        labels = list(range(n // 2 + 1))
        sizes = []
        for k in labels:
            s = gaussian_binomial(n, k)
            if k != n - k:
                s += gaussian_binomial(n, n - k)
            sizes.append(s)
        reps = [tuple(1 << (n - 1 - t) for t in range(k)) for k in labels]
    else:
        raise QuotientUnavailable(
            f"family {fam!r} has no built-in partition; use the full LP"
        )
    return ClassPartition(spec, labels, sizes, reps,
                          {lab: i for i, lab in enumerate(labels)})


def _composition_rep(c) -> tuple[int, ...]:
    word = []
    for value, count in enumerate(c):
        word.extend([value] * count)
    return tuple(word)


# ---------------------------------------------------------------------------
# quotient rows per family
# ---------------------------------------------------------------------------

def _z_rows(n: int, r: int) -> list[list[tuple[int, int]]]:
    return [[(ell - i, comb(ell, i)) for i in range(min(ell, r), -1, -1)]
            for ell in range(n + 1)]


def _moved(c, label_to_id, src: int, dst: int) -> int:
    """Class id of composition c with one count moved from src to dst."""
    moved = list(c)
    moved[src] -= 1
    moved[dst] += 1
    return label_to_id[tuple(moved)]


def _asym_rows(labels, label_to_id, q: int) -> list[list[tuple[int, int]]]:
    rows = []
    for i, c in enumerate(labels):
        row = Counter({i: 1})
        for k in range(1, q):
            if c[k] > 0:
                row[_moved(c, label_to_id, k, k - 1)] += c[k]
        rows.append(sorted(row.items()))
    return rows


def _sym_rows(labels, label_to_id, q: int) -> list[list[tuple[int, int]]]:
    """Ball member counts per folded class.

    A position holding an extreme value (folded label 0, q >= 3) moves one
    way only; inner labels move both ways; for odd q the middle value steps
    down to label L-2 on either side, and for even q one of the two moves of
    an innermost-label position lands on its partner value, staying in the
    same class.
    """
    L = _folded_labels(q)
    rows = []
    for i, c in enumerate(labels):
        row = Counter({i: 1})
        for lab in range(L):
            if c[lab] == 0:
                continue
            if lab + 1 <= L - 1:
                row[_moved(c, label_to_id, lab, lab + 1)] += c[lab]
            if lab >= 1:
                mult = 2 if (q % 2 == 1 and lab == L - 1) else 1
                row[_moved(c, label_to_id, lab, lab - 1)] += mult * c[lab]
            if q % 2 == 0 and lab == L - 1:
                row[i] += c[lab]
        rows.append(sorted(row.items()))
    return rows


def _projective_rows(n: int) -> list[list[tuple[int, int]]]:
    """Dimension k meets k-1 in 2^k - 1 and k+1 in 2^(n-k) - 1 subspaces;
    dimensions d and n-d share a class."""
    rows = []
    for k in range(n // 2 + 1):
        row = Counter({k: 1})
        row[min(k + 1, n - k - 1)] += (1 << (n - k)) - 1
        if k >= 1:
            row[k - 1] += (1 << k) - 1
        rows.append(sorted(row.items()))
    return rows


def count_rows(balls, class_of) -> list[list[tuple[int, int]]]:
    """One row per ball: each class meeting it, with the number of the
    ball's members in that class, sorted by class."""
    return [sorted(Counter(map(class_of, ball)).items()) for ball in balls]


def _check_rules(spec: ChannelSpec) -> None:
    """Cross-check the family's row rule against ball enumeration at small n."""
    small_n = min(spec.n, 4 if spec.family != "mag_sym" else 3)
    probe = ChannelSpec(spec.family, n=small_n, r=spec.r, q=spec.q)
    part = partition_by_canonical_form(probe)
    got = _family_rows(probe, part)
    want = count_rows((out_ball(probe, rep) for rep in part.representatives),
                      part.classify)
    if got != want:
        raise GspbError(
            f"quotient row rule for {spec.family} disagrees with ball "
            f"enumeration at n={small_n}: {got} != {want}"
        )


def _family_rows(spec: ChannelSpec, part: ClassPartition) -> list[list[tuple[int, int]]]:
    check_radius(spec)
    fam = spec.family
    if fam == "z":
        return _z_rows(spec.n, spec.r)
    if fam == "mag_asym":
        return _asym_rows(part.labels, part.label_to_id, spec.q)
    if fam == "mag_sym":
        return _sym_rows(part.labels, part.label_to_id, spec.q)
    if fam == "projective":
        return _projective_rows(spec.n)
    raise QuotientUnavailable(f"family {fam!r} has no quotient")


def quotient_matrix(spec: ChannelSpec) -> QuotientLP:
    """Quotient LP from the family's closed-form row rules, checked against
    ball enumeration at small n on every call."""
    partition = partition_by_canonical_form(spec)
    _check_rules(spec)
    lp = exactlp.CoveringLP.from_rows(partition.sizes, _family_rows(spec, partition),
                                      f"quotient-{spec.family}-n{spec.n}")
    return QuotientLP(partition, lp)


def full_hypergraph_lp(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Unreduced unit-objective covering LP of the ball hypergraph."""
    hg = build_hypergraph(spec, cap)
    return exactlp.CoveringLP.from_rows([1] * hg.num_vertices,
                                        [[(j, 1) for j in e] for e in hg.edges],
                                        f"full-{spec.family}-n{spec.n}")
