"""Facet-represented abstract and weighted simplicial complexes.

A complex is stored by its facets, the inclusion-maximal faces. A set is a
face exactly when it is contained in some facet, so downward closure is
structural rather than checked. Vertices appearing in no facet are not part
of the complex even when they lie inside the ambient label range; an
isolated vertex must be listed as a singleton facet to count as a face.

Two derived complexes are built from a weight tuple:

* the singular complex, whose faces are the index sets with a common
  divisor greater than 1 (the strata of a weighted projective space that
  are singular along coordinate subspaces), weighted by that gcd;
* the base complex of a degree d, whose faces are the index sets over
  which d is not a non-negative combination of the weights (coordinate
  strata lying in the base locus of degree-d forms).

Enumeration orders are deterministic everywhere: faces sort by cardinality
then lexicographically, facet lists and minimal non-faces sort
lexicographically on their sorted vertex tuples.
"""

from __future__ import annotations

from heapq import merge
from itertools import combinations, groupby
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from wciq.arith import (
    DEFAULT_DP_CAP,
    FACE_LIMIT,
    PairFacts,
    ValueFacts,
    ValuePairFacts,
    WeightFacts,
    WeightsLike,
    _WEIGHT_CACHE_SIZE,
    as_weights,
    choices,
    weight_facts,
)
from wciq.errors import DEFAULT_NODE_BUDGET, InputError, checked_ints, node_budget


class Complex(NamedTuple):
    """Abstract simplicial complex on vertex labels 0..n_vertices-1."""

    n_vertices: int
    facets: frozenset[frozenset[int]]

    @classmethod
    def from_facets(cls, n_vertices: int,
                    facets: Iterable[Iterable[int]]) -> "Complex":
        """Normalize input facets: validate labels, drop non-maximal sets."""
        checked_ints([n_vertices], "n_vertices")
        sets = set()
        for f in facets:
            fs = frozenset(checked_ints(f, "facet vertex", stop=n_vertices))
            if not fs:
                raise InputError("facets must be nonempty vertex sets")
            sets.add(fs)
        maximal = frozenset(f for f in sets if not any(f < g for g in sets))
        return cls(n_vertices, maximal)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Vertices occurring in some facet, ascending."""
        out: set[int] = set()
        for f in self.facets:
            out |= f
        return tuple(sorted(out))

    def is_face(self, face: Iterable[int]) -> bool:
        """Is the given vertex set contained in some facet?

        The empty set is a face of every complex that has at least one
        facet, and of no complex without facets.
        """
        fs = frozenset(checked_ints(face, "vertex", stop=self.n_vertices))
        if not fs:
            return bool(self.facets)
        return any(fs <= f for f in self.facets)

    def sorted_facets(self) -> list[tuple[int, ...]]:
        """Facets as sorted tuples, in lexicographic order."""
        return sorted(tuple(sorted(f)) for f in self.facets)


class _WeightedComplexFields(NamedTuple):
    complex: Complex
    vertex_weights: Mapping[int, int]


class WeightedComplex(_WeightedComplexFields):
    """Complex together with positive vertex weights.

    The weight of a face is the gcd of its vertex weights, so the weight
    function is determined by the vertex weights alone. The weight map
    covers exactly the vertices occurring in facets.
    """

    __slots__ = ()

    def __new__(cls, complex: Complex, vertex_weights: Mapping[int, int]):
        verts = set(complex.vertices)
        keys = set(vertex_weights)
        if keys != verts:
            raise InputError(
                f"vertex weights must cover exactly the complex vertices; "
                f"got keys {sorted(keys)} for vertices {sorted(verts)}")
        checked_ints(vertex_weights.values(), "vertex weight", 1)
        return super().__new__(cls, complex, dict(vertex_weights))

    def face_weight(self, face: Iterable[int]) -> int:
        """gcd of the vertex weights over a nonempty vertex set."""
        fs = tuple(face)
        if not fs:
            raise InputError("face weight of the empty set is undefined")
        try:
            ws = [self.vertex_weights[v] for v in fs]
        except KeyError as exc:
            raise InputError(f"vertex {exc.args[0]} carries no weight") from exc
        return gcd(*ws) if len(ws) > 1 else ws[0]


class SRPresentation(NamedTuple):
    """Stanley-Reisner style presentation of a weighted complex.

    variable_degrees lists the vertex weights in ascending vertex order
    (the vertices themselves are kept for label bookkeeping), and the
    generators are the minimal non-faces within that vertex set. A set is
    a face exactly when it contains no generator.
    """

    vertices: tuple[int, ...]
    variable_degrees: tuple[int, ...]
    generators: tuple[frozenset[int], ...]


def singular_complex(weights: WeightsLike) -> WeightedComplex:
    """Weighted complex of index sets sharing a common divisor above 1.

    Facets are the maximal sets among the prime strata {i : p | a_i}, one
    per prime dividing some weight. Weight-1 indices divide into no
    stratum and are therefore never faces. The face weight is the gcd of
    the member weights, always above 1 here.
    """
    sing = weight_facts(as_weights(weights)).once(_singular_complex)
    return sing._replace(vertex_weights=dict(sing.vertex_weights))


def _singular_complex(w: WeightFacts) -> WeightedComplex:
    """`singular_complex`, kept and never handed out: value facets by class."""
    wt = w.wt
    facets = w.v.once(_value_singular_complex).facets
    cx = Complex(len(wt), frozenset(frozenset(i for k in f for i in w.members[k]) for f in facets))
    return WeightedComplex(cx, {i: wt[i] for i in cx.vertices})


def _value_singular_complex(v: ValueFacts) -> Complex:
    """The singular complex over the value positions. A prime of a coprime
    base element b divides exactly the values b divides, so the maximal
    such value sets are the facets."""
    return Complex.from_facets(len(v.values), ([k for k, a in enumerate(v.values) if a % b == 0]
                                               for b in v.once(_coprime_base)))


def _value_faces(v: ValueFacts) -> Iterable[int]:
    """The faces of the singular complex over the values, the value sets
    with gcd above 1, as masks by size, then lex. Kept whole when the
    facets span at most FACE_LIMIT of them (counted with repeats, each
    facet's 2^size - 1); past that, listed afresh on each call."""
    if sum((1 << len(f)) - 1 for f in v.once(_value_singular_complex).facets) <= FACE_LIMIT:
        return v.once(_kept_value_faces)
    return _listed_value_faces(v)


def _kept_value_faces(v: ValueFacts) -> tuple[int, ...]:
    return tuple(_listed_value_faces(v))


def _listed_value_faces(v: ValueFacts) -> Iterator[int]:
    """Each size's subsets of the facets, merged in lex order, once each."""
    facets = [sorted(f) for f in v.once(_value_singular_complex).facets]
    for size in range(1, max(map(len, facets), default=0) + 1):
        for face, _ in groupby(merge(*(combinations(f, size) for f in facets if len(f) >= size))):
            yield sum(1 << k for k in face)


def _value_nonfaces(v: ValueFacts, spend: Callable[[int], object]) -> tuple[tuple[int, ...], ...]:
    """The minimal non-faces of the singular complex over the values, each
    as the value masks of its twin classes, numbered by ascending value;
    each class set tried calls spend."""
    found = _transversal_classes(v.once(_value_singular_complex), range(len(v.values)), spend)
    return tuple(tuple(sum(1 << k for k in c) for c in classes) for classes in found)


def _coprime_base(v: ValueFacts) -> tuple[int, ...]:
    """Pairwise coprime integers above 1, every value a product of their
    powers. By gcd splitting: a base element b sharing a factor g > 1
    with the next number x gives way to g, b // g and x // g."""
    base: list[int] = []
    todo = list(v.values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for k, b in enumerate(base):
            if (g := gcd(x, b)) > 1:
                del base[k]
                todo += [g, b // g, x // g]
                break
        else:
            base.append(x)
    return tuple(base)


def base_complex(weights: WeightsLike, d: int, *,
                 dp_cap: int = DEFAULT_DP_CAP) -> WeightedComplex:
    """Weighted complex of index sets over which d is not representable.

    Representability depends only on the distinct weight values, so the
    facet search runs over value masks and re-expands whole value classes.
    Values dividing d (weight 1 included) represent d alone, so by
    monotonicity no face contains them. The search (`_dualize`) follows
    its output, facets and minimal non-faces, not the value count; past
    its node budget it raises ResourceLimitError naming the base complex
    search.
    """
    return _base_complex(PairFacts(weights, (d,), dp_cap), 1)


def _base_facets(facts: PairFacts) -> list[tuple[tuple[int, ...], int]]:
    """The facets of every base complex at once, as ascending index tuples
    in lexicographic order, with the bits of their degrees. Whole value
    classes expand the maximal value masks, distinct per degree, so the
    facets are maximal as they come."""
    return sorted((facts.w.indices(mask), bits) for mask, bits in facts.v.once(_base_masks))


def _base_masks(pv: ValuePairFacts) -> list[tuple[int, int]]:
    """The maximal value masks of every base complex, with the bits of
    their degrees (a mask may come once per complex it is a facet of): a
    value mask belongs to the degrees neither representable nor UNKNOWN
    over it (the row's two disjoint bit sets).

    A complex is the one whose facets are faces and whose minimal
    non-faces are not. So each complex found over these values, kept in
    `_base_complexes`, is checked against every open degree at once, and
    the least degree none fits gets a `_dualize` over the values, with
    its own budget, whose complex is kept and checked in turn. At most
    _WEIGHT_CACHE_SIZE complexes are kept per value set, the oldest
    going first."""
    known = pv.v.once(_base_complexes)
    del known[:-_WEIGHT_CACHE_SIZE]
    out, todo, at = [], (1 << len(pv.dg)) - 1, 0

    def faces(mask: int) -> int:
        return ~sum(pv.row(mask))

    while todo:
        if at == len(known):
            bit = todo & -todo
            known.append(_dualize(range(len(pv.v.values)), lambda mask: bool(faces(mask) & bit),
                                  node_budget(DEFAULT_NODE_BUDGET, "base complex search")))
        facets, nonfaces = known[at]
        at, fit = at + 1, todo
        for mask in facets:
            fit &= faces(mask)
        for mask in nonfaces:
            fit &= ~faces(mask)
        out += [(facet, fit) for facet in facets if fit]
        todo &= ~fit
    return out


def _base_complexes(v: ValueFacts) -> list[tuple[list[int], list[int]]]:
    return []


def _base_facet_lists(facts: PairFacts, j: int) -> list[tuple[int, ...]]:
    """The facets of the pair's j-th base complex as ascending index
    tuples, in lexicographic order."""
    d = facts.dg.degree(j)
    # UNKNOWN (d past the cap, no value dividing it) shows first here, if at all
    facts.v.representable(j, next((1 << k for k, v in enumerate(facts.w.v.values) if d % v), 0))
    return [f for f, bits in facts.once(_base_facets) if bits >> j - 1 & 1]


def _base_complex(facts: PairFacts, j: int) -> WeightedComplex:
    """`base_complex` of the pair's j-th degree."""
    wt = facts.wt
    cx = Complex(len(wt), frozenset(map(frozenset, _base_facet_lists(facts, j))))
    return WeightedComplex(cx, {i: wt[i] for i in cx.vertices})


def minimal_nonfaces(cx: Complex,
                     within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Inclusion-minimal non-faces, lexicographic on sorted vertex tuples.

    The ambient vertex set defaults to all labels 0..n_vertices-1; pass
    `within` to restrict it (presentations of weighted complexes restrict
    to the weighted vertices). A labeled vertex that is not a face shows up
    as a singleton non-face. The complex without facets has the empty set
    as its single minimal non-face, which keeps the defining equivalence
    (face iff containing no minimal non-face) intact.

    The others expand each class set of `_transversal_classes` by every
    choice of one vertex per class. The work follows the output, not the
    vertex count: every class set tried counts one node, and the vertex
    sets one each, counted before any is built, against a budget of
    `errors.DEFAULT_NODE_BUDGET` no pair's search shares. Twin classes are
    numbered in the order `within` first lists a member of each
    (ascending labels by default); that order can move the count, never
    the output.
    """
    if not cx.facets:
        return [frozenset()]
    ambient = tuple(range(cx.n_vertices)) if within is None else tuple(dict.fromkeys(within))
    out = [(v,) for v in ambient if not cx.is_face((v,))]
    spend = node_budget(DEFAULT_NODE_BUDGET, "minimal non-face search")
    out += choices(_transversal_classes(cx, ambient, spend), spend)
    return list(map(frozenset, sorted(out)))


def _transversal_classes(cx: Complex, ambient: Iterable[int],
                         spend: Callable[[int], object]) -> list[list[list[int]]]:
    """The minimal non-faces within the ambient vertices that are faces,
    by twin classes: per non-face, its classes.

    Twins (vertices in the same facets) form a face together, so a minimal
    non-face takes at most one vertex per twin class, and a set of classes
    is a non-face exactly when it meets, for each facet, a class outside
    it. So the minimal non-faces at class level are the minimal
    transversals of the facet complements, built by `_berge` one
    complement at a time, the smallest first.
    """
    twins: dict[frozenset[frozenset[int]], list[int]] = {}
    for v in ambient:
        if cx.is_face((v,)):
            twins.setdefault(frozenset(f for f in cx.facets if v in f), []).append(v)
    # bit k of a mask stands for the k-th twin class the ambient order meets
    inside = dict.fromkeys(cx.facets, 0)
    for k, facets in enumerate(twins):
        for f in facets:
            inside[f] |= 1 << k
    every = (1 << len(twins)) - 1
    transversals, edges = [0], []
    for edge in sorted({every & ~m for m in inside.values()}, key=lambda e: (e.bit_count(), e)):
        edges.append(edge)
        transversals = _berge(transversals, edges, spend)
    classes = list(twins.values())
    return [[members for k, members in enumerate(classes) if t >> k & 1]
            for t in transversals]


def _berge(transversals: list[int], edges: list[int], spend: Callable[[int], object]) -> list[int]:
    """The minimal transversals of the edges (masks) from those of all but
    the last, by Berge multiplication (Berge, *Hypergraphs*, 1989): those
    meeting the last edge stay, and each one missing it grows by each of
    the edge's bits and is kept when still minimal. The grown sets, one
    node each, are charged to `spend` before any is tried; each costs time
    linear in the number of edges, not in the number of transversals."""
    edge = edges[-1]
    bits = [1 << k for k in range(edge.bit_length()) if edge >> k & 1]
    grown = [t | b for t in transversals if not t & edge for b in bits]
    spend(len(grown))
    return [t for t in transversals if t & edge] + [
        t for t in grown if _private_classes(t, edges) == t]


def _dualize(vertices: Iterable[int], is_face: Callable[[int], bool],
             spend: Callable[[int], object]) -> tuple[list[int], list[int]]:
    """The facets and the minimal non-faces, as masks, of the complex on
    the vertex bits whose faces `is_face` tells, a test closed under
    subsets and true on the empty set: dualize and advance (Gunopulos,
    Khardon, Mannila, Saluja, Toivonen & Sharma, ACM TODS 2003).

    The empty set, the first transversal, grows greedily to a facet, a
    vertex at a time in the given order, and the facet's complement
    becomes an edge of `_berge`. A minimal transversal of the edges lies
    in no facet found, while its proper subsets do: asked about, it grows
    to a new facet when a face and is a minimal non-face when not. The
    search ends when every transversal is a non-face, so its work follows
    the facets and non-faces, not the subsets. Each call of the test is
    one node, as is each set `_berge` tries, charged to `spend` before it
    is made. An empty facet is dropped: a void complex has no facets.
    """
    order = [1 << k for k in vertices]
    every = sum(order)
    facets, nonfaces, pending = [], [], [0]
    while pending:
        t = pending[-1]
        spend(1)
        if not is_face(t):
            nonfaces.append(pending.pop())
            continue
        spend(len(order) - t.bit_count())
        for b in order:
            if not t & b and is_face(t | b):
                t |= b
        facets.append(t)
        pending = _berge(pending, [every & ~f for f in facets], spend)
    return [f for f in facets if f], nonfaces


def _private_classes(mask: int, edges: list[int]) -> int:
    """The classes of the mask that some edge meets in them alone. A
    transversal of the edges is minimal exactly when all its classes are
    private: dropping a class then misses the edge meeting it alone."""
    private = 0
    for e in edges:
        met = mask & e
        if not met & (met - 1):
            private |= met
    return private


def sr_presentation(wc: WeightedComplex) -> SRPresentation:
    """Presentation with one variable per weighted vertex.

    Degrees follow ascending vertex order; generators are the minimal
    non-faces within the weighted vertex set, keeping original labels.
    Their search numbers the twin classes by ascending weight, the label
    breaking ties: on a singular complex that is the order of the values,
    so its node count, the one `wciq analyze` charges, does not move when
    the weights are permuted.
    """
    weights = wc.vertex_weights
    verts = tuple(sorted(weights))
    degrees = tuple(weights[v] for v in verts)
    gens = tuple(minimal_nonfaces(wc.complex, within=sorted(verts, key=lambda v: (weights[v], v))))
    return SRPresentation(verts, degrees, gens)


def _singular_presentation(w: WeightFacts) -> SRPresentation:
    """`sr_presentation` of the singular complex from `_value_nonfaces`:
    twin values' indices (6's and 12's) form one twin class, so each class
    set takes one index per class. As in `minimal_nonfaces`, the class sets
    tried and the index sets, counted before any is built, share a budget."""
    spend = node_budget(DEFAULT_NODE_BUDGET, "minimal non-face search")
    masks = w.v.metered(_value_nonfaces, spend)
    gens = choices([list(map(w.indices, classes)) for classes in masks], spend)
    heavy = w.wt.heavy()
    return SRPresentation(heavy, tuple(map(w.wt.__getitem__, heavy)), tuple(map(frozenset, gens)))
