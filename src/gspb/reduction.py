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

These quotients are the only source of the z and subspace rows
(``zchannel.z_quotient_lp`` and ``projective.projective_lp`` read them from
here).  Deletion and grain are reduced by the orbit quotient under word
complementation and reversal in ``seqchannels``, which lifts its witnesses
back to the full LP; explicit graphs have no quotient.  Asking this module
for a partition of any of the three raises QuotientUnavailable.

Quotient rows are validated against direct ball enumeration at small n the
first time each family/q combination is used; a mismatch raises immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import exactlp
from .channels import (ChannelSpec, QuotientUnavailable, build_hypergraph,
                       gaussian_binomial)

QUOTIENT_FAMILIES = ("z", "mag_asym", "mag_sym", "projective")


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

    ``matrix[i][j]`` counts the members of class j inside the ball of any
    class-i representative; the objective is the class sizes.
    """

    partition: ClassPartition
    matrix: list[list[int]]       # dense, num_classes square
    r: int

    def to_covering_lp(self) -> exactlp.CoveringLP:
        rows = [
            [(j, a) for j, a in enumerate(row) if a]
            for row in self.matrix
        ]
        return exactlp.CoveringLP(
            num_vars=self.partition.num_classes,
            objective=list(self.partition.sizes),
            rows=rows,
            name=f"quotient-{self.partition.spec.family}-n{self.partition.spec.n}",
        )


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
    if fam == "projective":
        k = len(vertex)
        return min(k, spec.n - k)
    raise QuotientUnavailable(
        f"family {fam!r} has no built-in partition; use the full LP"
    )


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
        L = _folded_labels(spec.q)
        labels = sorted(_compositions(n, L))
        sizes = []
        reps = []
        for c in labels:
            size = _multinomial(n, c)
            for lab, cnt in enumerate(c):
                mult = 1 if (spec.q % 2 == 1 and lab == L - 1) else 2
                size *= mult ** cnt
            sizes.append(size)
            reps.append(_composition_rep(c))
        return ClassPartition(spec, labels, sizes, reps,
                              {c: i for i, c in enumerate(labels)})
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

def _z_matrix(n: int, r: int) -> list[list[int]]:
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for ell in range(n + 1):
        for i in range(min(ell, r) + 1):
            mat[ell][ell - i] += comb(ell, i)
    return mat


def _asym_matrix(labels, label_to_id, q: int) -> list[list[int]]:
    mat = [[0] * len(labels) for _ in labels]
    for i, c in enumerate(labels):
        mat[i][i] += 1
        for k in range(1, q):
            if c[k] > 0:
                moved = list(c)
                moved[k] -= 1
                moved[k - 1] += 1
                mat[i][label_to_id[tuple(moved)]] += c[k]
    return mat


def _sym_matrix(labels, label_to_id, q: int) -> list[list[int]]:
    """Ball member counts per folded class.

    A position holding an extreme value (folded label 0, q >= 3) moves one
    way only; inner labels move both ways; for odd q the middle value steps
    down to label L-2 on either side, and for even q one of the two moves of
    an innermost-label position lands on its partner value, staying in the
    same class.
    """
    L = _folded_labels(q)
    mat = [[0] * len(labels) for _ in labels]
    for i, c in enumerate(labels):
        diag = 1
        for lab in range(L):
            if c[lab] == 0:
                continue
            if lab + 1 <= L - 1:
                moved = list(c)
                moved[lab] -= 1
                moved[lab + 1] += 1
                mat[i][label_to_id[tuple(moved)]] += c[lab]
            if lab >= 1:
                mult = 2 if (q % 2 == 1 and lab == L - 1) else 1
                moved = list(c)
                moved[lab] -= 1
                moved[lab - 1] += 1
                mat[i][label_to_id[tuple(moved)]] += mult * c[lab]
            if q % 2 == 0 and lab == L - 1:
                diag += c[lab]
        mat[i][i] += diag
    return mat


def _projective_matrix(n: int) -> list[list[int]]:
    half = n // 2
    mat = [[0] * (half + 1) for _ in range(half + 1)]
    for k in range(half + 1):
        def fold(d):
            return min(d, n - d)
        mat[k][k] += 1
        if k >= 1:
            mat[k][fold(k - 1)] += (1 << k) - 1
        if k <= n - 1:
            mat[k][fold(k + 1)] += (1 << (n - k)) - 1
    return mat


_VALIDATED: set = set()


def _validate_rules(spec: ChannelSpec, r: int) -> None:
    """Cross-check quotient rows against ball enumeration once per family."""
    key = (spec.family, spec.q, r)
    if key in _VALIDATED:
        return
    _VALIDATED.add(key)
    small_n = min(spec.n, 4 if spec.family != "mag_sym" else 3)
    probe = ChannelSpec(spec.family, n=small_n, r=r, q=spec.q)
    part = partition_by_canonical_form(probe)
    expected = _matrix_by_enumeration(probe, part, r)
    got = _family_matrix(probe, part, r)
    if got != expected:
        raise AssertionError(
            f"quotient row rule for {spec.family} disagrees with ball "
            f"enumeration at n={small_n}: {got} != {expected}"
        )


def _matrix_by_enumeration(spec: ChannelSpec, part: ClassPartition,
                           r: int) -> list[list[int]]:
    from .channels import out_ball
    mat = [[0] * part.num_classes for _ in range(part.num_classes)]
    for i, rep in enumerate(part.representatives):
        for y in out_ball(spec, rep, r):
            mat[i][part.classify(y)] += 1
    return mat


def _family_matrix(spec: ChannelSpec, part: ClassPartition, r: int) -> list[list[int]]:
    fam = spec.family
    if fam == "z":
        return _z_matrix(spec.n, r)
    if fam == "mag_asym":
        if r != 1:
            raise QuotientUnavailable("magnitude quotients cover radius 1 only")
        return _asym_matrix(part.labels, part.label_to_id, spec.q)
    if fam == "mag_sym":
        if r != 1:
            raise QuotientUnavailable("magnitude quotients cover radius 1 only")
        return _sym_matrix(part.labels, part.label_to_id, spec.q)
    if fam == "projective":
        if r != 1:
            raise QuotientUnavailable("subspace quotient covers radius 1 only")
        return _projective_matrix(spec.n)
    raise QuotientUnavailable(f"family {fam!r} has no quotient")


def quotient_matrix(spec: ChannelSpec, partition: ClassPartition | None = None,
                    r: int | None = None) -> QuotientLP:
    """Quotient LP from the family's closed-form row rules."""
    r = spec.r if r is None else r
    if partition is None:
        partition = partition_by_canonical_form(spec)
    _validate_rules(spec, r)
    mat = _family_matrix(spec, partition, r)
    return QuotientLP(partition=partition, matrix=mat, r=r)


def reduced_gspb(spec: ChannelSpec, r: int | None = None) -> exactlp.LPSolution:
    """Covering optimum of the reduced LP; equals the full optimum exactly."""
    qlp = quotient_matrix(spec, r=r)
    return exactlp.solve_min_transversal(qlp.to_covering_lp())


def lift_class_weights(partition: ClassPartition, class_weights,
                       vertices) -> list[Fraction]:
    """Expand per-class weights to a full vertex weight vector."""
    return [Fraction(class_weights[partition.classify(v)]) for v in vertices]


def full_hypergraph_lp(spec: ChannelSpec, r: int | None = None,
                       cap: int | None = None) -> exactlp.CoveringLP:
    """Unreduced unit-objective covering LP of the ball hypergraph."""
    kwargs = {} if cap is None else {"cap": cap}
    hg = build_hypergraph(spec, r, **kwargs)
    return exactlp.CoveringLP(
        num_vars=hg.num_vertices,
        objective=[1] * hg.num_vertices,
        rows=[[(j, 1) for j in e] for e in hg.edges],
        name=f"full-{spec.family}-n{spec.n}",
    )
