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

Every quotient is built as arrays.  The magnitude classes are one int64
array of compositions in lexicographic label order, and a moved
composition finds its class by its lexicographic rank, shifted by a
binomial coefficient.  Each family's rule emits (row, column, coefficient)
triples, one per (row, column), and one assembler (``_assemble``) sorts
them into the CSR arrays.  Class sizes are
exact Python ints and labels are tuples; a partition's representatives and
label map are built only when read.

Only the z rows hold beyond radius 1 (``channels.check_radius``).  On every
call the family's rule is evaluated at a small probe instance (n = min(n,
4), 3 for mag-sym) and compared with ``count_rows`` over the enumerated
balls of the probe's class representatives; a mismatch raises
``GspbError``.  The enumeration runs once per probe key (family, probe n,
r, q) in a process and is cached; the comparison is not, so a wrong rule is
refused on every call.

The unreduced LP, ``full_hypergraph_lp``, is the one enumeration of the
ball hypergraph, whose CSR arrays the enumerated routes of ``bounds`` and
the oracle read; beside the probe reference it alone calls ``out_ball``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations
from math import comb, factorial, prod

import numpy as np

from . import exactlp, linsolve
from .channels import (DEFAULT_ENUM_CAP, MAGNITUDE_FAMILIES, ChannelSpec,
                       GspbError, QuotientUnavailable, ball_centers,
                       check_radius, enumerate_vertices, gaussian_binomial,
                       out_ball)


@dataclass
class ClassPartition:
    """Orbit classes: labels, sizes, representatives and a classifier.  The
    magnitude families also keep their labels as one int64 array of
    compositions, one row per class."""

    spec: ChannelSpec
    labels: list                  # deterministic lexicographic order
    sizes: list[int]              # exact Python ints
    compositions: np.ndarray | None = None

    @cached_property
    def representatives(self) -> list:
        """One vertex of each class, built when first read."""
        n = self.spec.n
        if self.spec.family == "z":
            return [(1 << k) - 1 for k in self.labels]
        if self.spec.family == "projective":
            return [tuple(1 << (n - 1 - t) for t in range(k)) for k in self.labels]
        return [_composition_rep(c) for c in self.labels]

    @cached_property
    def label_to_id(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

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


def _compositions(total: int, parts: int) -> np.ndarray:
    """Nonnegative int64 rows of the given length summing to total, in
    lexicographic order: the stars and bars of ``combinations``, whose bar
    positions come in that order."""
    bars = np.array(list(combinations(range(total + parts - 1), parts - 1)),
                    dtype=np.int64)
    ends = np.full((len(bars), 1), total + parts - 1, dtype=np.int64)
    return np.diff(np.hstack([np.full_like(ends, -1), bars, ends]), axis=1) - 1


def _multinomials(n: int, labels) -> list[int]:
    """n! / prod(c!) for each composition c of n, as Python ints."""
    facts = [factorial(k) for k in range(n + 1)]
    return [facts[n] // prod(map(facts.__getitem__, c)) for c in labels]


def _folded_labels(q: int) -> int:
    return (q + 1) // 2


def _label_length(spec: ChannelSpec) -> int:
    """Parts of a magnitude class label: one per value, or per folded pair."""
    return spec.q if spec.family == "mag_asym" else _folded_labels(spec.q)


def magnitude_class_count(spec: ChannelSpec) -> int:
    """The number of magnitude classes, known before any is built."""
    parts = _label_length(spec)
    return comb(spec.n + parts - 1, parts - 1)


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
        return ClassPartition(spec, labels, [comb(n, k) for k in labels])
    if fam in MAGNITUDE_FAMILIES:
        comps = _compositions(n, _label_length(spec))
        labels = list(map(tuple, comps.tolist()))
        sizes = _multinomials(n, labels)
        if fam == "mag_sym":
            # a label stands for two values, except the middle value of odd q
            sizes = [s << (n - spec.q % 2 * c[-1]) for s, c in zip(sizes, labels)]
        return ClassPartition(spec, labels, sizes, comps)
    if fam == "projective":
        labels = list(range(n // 2 + 1))
        sizes = []
        for k in labels:
            s = gaussian_binomial(n, k)
            if k != n - k:
                s += gaussian_binomial(n, n - k)
            sizes.append(s)
        return ClassPartition(spec, labels, sizes)
    raise QuotientUnavailable(
        f"family {fam!r} has no built-in partition; use the full LP"
    )


def _composition_rep(c) -> tuple[int, ...]:
    word = []
    for value, count in enumerate(c):
        word.extend([value] * count)
    return tuple(word)


# ---------------------------------------------------------------------------
# quotient rows per family, as (row, column, coefficient) triples
# ---------------------------------------------------------------------------

def _z_rows(n: int, r: int):
    """Weight ell meets weight ell - i in C(ell, i) words, for i <= r."""
    rows = [ell for ell in range(n + 1) for _ in range(min(ell, r) + 1)]
    drops = [i for ell in range(n + 1) for i in range(min(ell, r), -1, -1)]
    return rows, list(map(operator.sub, rows, drops)), list(map(comb, rows, drops))


def _mover(comps: np.ndarray):
    """``move(src, dst, mult)`` for neighbouring positions, dst = src +- 1:
    for each composition with a count at src, its class, the class of that
    composition with one count moved to dst, and mult times its count at
    src, as (row, column, coefficient) arrays.

    A class id is its composition's lexicographic rank.  Moving one count
    from position s to s - 1 raises the rank by C(t - 1 + k, k), the number
    of compositions of t - 1 into k + 1 parts, where t is the sum of the
    counts from s on and k = parts - 1 - s (a hockey-stick identity); moving
    one from s to s + 1 is the inverse step.  Every such number is at most
    the class count, so the ids are exact in int64 at any n and q."""
    parts = comps.shape[1]
    n = int(comps[0].sum())
    table = np.array([[comb(m + k, k) for k in range(parts)] for m in range(n + 1)],
                     dtype=np.int64)
    suffix = np.cumsum(comps[:, ::-1], axis=1)[:, ::-1]

    def move(src: int, dst: int, mult: int = 1):
        at = np.flatnonzero(comps[:, src])
        if dst == src - 1:
            shift = table[suffix[at, src] - 1, parts - 1 - src]
        else:
            shift = -table[suffix[at, dst], parts - 1 - dst]
        return at, at + shift, mult * comps[at, src]
    return move


def _stack(triples):
    return tuple(np.concatenate(part) for part in zip(*triples))


def _asym_rows(comps: np.ndarray, q: int):
    move = _mover(comps)
    ids = np.arange(len(comps))
    return _stack([(ids, ids, np.ones_like(ids))]
                  + [move(k, k - 1) for k in range(1, q)])


def _sym_rows(comps: np.ndarray, q: int):
    """Ball member counts per folded class.

    A position holding an extreme value (folded label 0, q >= 3) moves one
    way only; inner labels move both ways; for odd q the middle value steps
    down to label L-2 on either side, and for even q one of the two moves of
    an innermost-label position lands on its partner value, staying in the
    same class: its count is added to the class's own coefficient.
    """
    L = _folded_labels(q)
    move = _mover(comps)
    ids = np.arange(len(comps))
    triples = [(ids, ids, 1 + (q % 2 == 0) * comps[:, L - 1])]
    for lab in range(L):
        if lab + 1 <= L - 1:
            triples.append(move(lab, lab + 1))
        if lab >= 1:
            triples.append(move(lab, lab - 1, 2 if (q % 2 == 1 and lab == L - 1) else 1))
    return _stack(triples)


def _projective_rows(n: int):
    """Dimension k meets k-1 in 2^k - 1 and k+1 in 2^(n-k) - 1 subspaces;
    dimensions d and n-d share a class, so for n = 2k the step up lands on
    class k-1 beside the step down, and for n = 2k+1 on class k itself,
    where its count is added."""
    rows, cols, coeffs = [], [], []
    for k in range(n // 2 + 1):
        down, up = (1 << k) - 1, (1 << (n - k)) - 1
        if n == 2 * k:
            row = {k - 1: down + up, k: 1}
        elif n == 2 * k + 1:
            row = {k - 1: down, k: 1 + up}
        else:
            row = {k - 1: down, k: 1, k + 1: up}
        if k == 0:
            del row[-1]
        rows += [k] * len(row)
        cols += row.keys()
        coeffs += row.values()
    return rows, cols, coeffs


def _indptr(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR row offsets of entries with these row ids, once sorted by row."""
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr


def _assemble(rows, cols, coeffs, shape: tuple[int, int]) -> linsolve.Csr:
    """CSR arrays of (row, column, coefficient) triples, no two at the same
    (row, column), sorted by row and then column.  The data is int64, or
    Python ints past int64."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    return linsolve.Csr(_indptr(rows, shape[0]), cols[order],
                        linsolve.int_array(coeffs)[order], shape)


def count_rows(indptr, members, num_classes: int) -> linsolve.Csr:
    """One row per ball, ball i being the class ids
    ``members[indptr[i]:indptr[i+1]]`` of its members: each class meeting
    it, with the number of the ball's members in that class, sorted by
    class, as int64 CSR arrays.  Each entry is found by its key
    row * num_classes + class, which int64 holds for any ball list that
    fits in memory (num_rows and num_classes below 3e9)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    num_rows = len(indptr) - 1
    row = np.repeat(np.arange(num_rows, dtype=np.int64), np.diff(indptr))
    keys, counts = np.unique(row * num_classes + np.asarray(members, dtype=np.int64),
                             return_counts=True)
    return linsolve.Csr(_indptr(keys // num_classes, num_rows), keys % num_classes,
                        counts.astype(np.int64), (num_rows, num_classes))


@cache
def _reference(family: str, n: int, r: int, q: int | None) -> linsolve.Csr:
    """The quotient rows of the probe instance counted from its enumerated
    balls: ``out_ball`` of each class representative, each member
    classified.  Cached per probe key; its arrays are read-only."""
    probe = ChannelSpec(family, n=n, r=r, q=q)
    part = partition_by_canonical_form(probe)
    balls = [out_ball(probe, rep) for rep in part.representatives]
    ref = count_rows(np.cumsum([0] + [len(ball) for ball in balls]),
                     [part.classify(v) for ball in balls for v in ball],
                     part.num_classes)
    for a in (ref.indptr, ref.indices, ref.data):
        a.flags.writeable = False
    return ref


def _check_rule(spec: ChannelSpec, got: linsolve.Csr) -> None:
    """Compare the family's rule at the probe n with the cached ball
    enumeration there; ``got`` is the rule's output at spec itself."""
    small_n = min(spec.n, 4 if spec.family != "mag_sym" else 3)
    if small_n != spec.n:
        probe = ChannelSpec(spec.family, n=small_n, r=spec.r, q=spec.q)
        got = _family_csr(probe, partition_by_canonical_form(probe))
    want = _reference(spec.family, small_n, spec.r, spec.q)
    if not all(np.array_equal(a, b) for a, b in
               ((got.indptr, want.indptr), (got.indices, want.indices),
                (got.data, want.data))):
        raise GspbError(
            f"quotient row rule for {spec.family} disagrees with ball "
            f"enumeration at n={small_n}: {exactlp._row_lists(got)} != "
            f"{exactlp._row_lists(want)}"
        )


def _family_csr(spec: ChannelSpec, part: ClassPartition) -> linsolve.Csr:
    check_radius(spec)
    fam = spec.family
    if fam == "z":
        triples = _z_rows(spec.n, spec.r)
    elif fam == "mag_asym":
        triples = _asym_rows(part.compositions, spec.q)
    elif fam == "mag_sym":
        triples = _sym_rows(part.compositions, spec.q)
    elif fam == "projective":
        triples = _projective_rows(spec.n)
    else:
        raise QuotientUnavailable(f"family {fam!r} has no quotient")
    k = part.num_classes
    return _assemble(*triples, (k, k))


def quotient_matrix(spec: ChannelSpec) -> QuotientLP:
    """Quotient LP from the family's closed-form row rules; on every call
    the rule is checked at the probe n against the ball enumeration there,
    which is made once per probe key."""
    partition = partition_by_canonical_form(spec)
    csr = _family_csr(spec, partition)
    _check_rule(spec, csr)
    lp = exactlp.CoveringLP(list(partition.sizes), csr.indptr, csr.indices, csr.data,
                            f"quotient-{spec.family}-n{spec.n}")
    return QuotientLP(partition, lp)


def full_hypergraph_lp(spec: ChannelSpec, cap: int = DEFAULT_ENUM_CAP) -> exactlp.CoveringLP:
    """Unreduced unit-objective covering LP of the ball hypergraph: row i lists
    the ids (``enumerate_vertices`` positions) of the ball of center i, sorted.
    Centers come first, so deletion past the cap is refused for its 2^n."""
    centers = ball_centers(spec, cap)
    index = {v: i for i, v in enumerate(enumerate_vertices(spec, cap))}
    balls = [sorted(map(index.__getitem__, out_ball(spec, c))) for c in centers]
    indptr = np.zeros(len(balls) + 1, dtype=np.int64)
    np.cumsum([len(ball) for ball in balls], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(balls), np.int64, int(indptr[-1]))
    return exactlp.CoveringLP([1] * len(index), indptr, indices,
                              np.ones(len(indices), dtype=np.int64),
                              f"full-{spec.family}-n{spec.n}")
