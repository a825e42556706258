"""Realizing finite simplicial complexes as singular complexes.

Every finite abstract simplicial complex arises as the singular complex
of some weight tuple: give each facet its own prime and each vertex the
product of the primes of the facets holding it. The gcd of the weights
over a face then is the product of the primes of the facets containing
it, and over a non-face no prime survives.

On top of the realization sit two instance generators reproducing the
pathological families used to separate existence statements: one whose
every weighted simplicial map has its image inside a designated simplex,
and one that plants a prescribed non-contracting map between realized
complexes.
"""

from __future__ import annotations

from itertools import combinations, count, islice
from math import lcm
from typing import Mapping, NamedTuple

from wciq.arith import DegreeTuple, WeightsLike, WeightTuple, as_weights
from wciq.complexes import Complex, singular_complex
from wciq.errors import InputError, ResourceLimitError, checked_ints
from wciq.maps import WeightedMap, _least_preimages

_RETRY_WINDOWS = 16


def first_primes(n: int, offset: int = 0) -> list[int]:
    """Primes number offset..offset+n-1 in the ascending enumeration."""
    checked_ints([n], "prime count")
    checked_ints([offset], "prime offset")
    primes = (c for c in count(2) if all(c % p for p in range(2, int(c ** 0.5) + 1)))
    return list(islice(primes, offset, offset + n))


class _RealizationFields(NamedTuple):
    weights: WeightTuple
    prime_assignment: Mapping[frozenset[int], int]


class RealizationResult(_RealizationFields):
    """Weights realizing a complex, with the prime of each facet.

    weights lists the product of the primes of the facets holding each
    label, 1 at labels that occur in no facet. face_values, built on
    access, maps every nonempty face to the product of the primes of the
    facets containing it: the gcd of its weights.
    """

    __slots__ = ()

    def __new__(cls, weights: WeightTuple, prime_assignment: Mapping[frozenset[int], int]):
        return super().__new__(cls, weights, dict(prime_assignment))

    @property
    def face_values(self) -> dict[frozenset[int], int]:
        values: dict[frozenset[int], int] = {}
        for facet, p in self.prime_assignment.items():
            for k in range(1, len(facet) + 1):
                for face in map(frozenset, combinations(sorted(facet), k)):
                    values[face] = values.get(face, 1) * p
        return values


def realize_weights(cx: Complex, *, prime_offset: int = 0) -> RealizationResult:
    """Weight tuple whose singular complex is the given complex.

    Facets get the smallest distinct primes in lexicographic facet order
    (shifted by prime_offset); a vertex gets the product of the primes
    of its facets, which is the lcm over the faces above it since the
    primes are distinct.
    """
    if not cx.facets:
        raise InputError("cannot realize a complex without facets")
    facets = cx.sorted_facets()
    primes = first_primes(len(facets), prime_offset)
    weights = [1] * cx.n_vertices
    for f, p in zip(facets, primes):
        for v in f:
            weights[v] *= p
    return RealizationResult(WeightTuple.of(weights),
                             {frozenset(f): p for f, p in zip(facets, primes)})


def verify_realization(cx: Complex, weights: WeightsLike) -> bool:
    """Does the singular complex of the weights equal the complex,
    facet set for facet set?"""
    wt = as_weights(weights)
    if len(wt) != cx.n_vertices:
        raise InputError(
            f"{len(wt)} weights for a complex on {cx.n_vertices} labels")
    return singular_complex(wt).complex.facets == cx.facets


def skeleton(n_vertices: int, dim: int) -> Complex:
    """The dim-skeleton of the full simplex on the given vertices."""
    checked_ints([n_vertices], "n_vertices")
    if checked_ints([dim], "dim")[0] >= n_vertices:
        raise InputError(
            f"no {dim}-skeleton on {n_vertices} vertices")
    return Complex.from_facets(
        n_vertices,
        [frozenset(c) for c in combinations(range(n_vertices), dim + 1)])


class ContractionInstance(NamedTuple):
    """Weights and degrees forcing map images into a designated simplex.

    image_simplex holds 1-based degree indices; every weighted simplicial
    map from the singular complex of the weights into that of the degrees
    lands inside it, which certifies non-contraction failures elsewhere.
    """

    weights: WeightTuple
    degrees: DegreeTuple
    image_simplex: tuple[int, ...]


def contraction_instance(l: int, N: int, m: int, t: int) -> ContractionInstance:
    """Instance over the realized l-skeleton of the N-simplex.

    The degrees are m copies of 2, then one facet weight sum per facet,
    then l copies of the lcm of the realized weights; the weights are t
    ones followed by the realized skeleton weights. Requires that no
    realized weight divides any facet-sum degree; prime assignments are
    shifted window by window until that holds.
    """
    for name, val in (("l", l), ("N", N), ("m", m), ("t", t)):
        checked_ints([val], name)
    cx = skeleton(N + 1, l)
    w = len(cx.facets)
    if t <= m + w + l:
        raise InputError(
            f"need more than {m + w + l} ones to pad this instance, got {t}")

    for attempt in range(_RETRY_WINDOWS):
        res = realize_weights(cx, prime_offset=attempt * w)
        core = tuple(res.weights)
        sums = [sum(core[i] for i in f) for f in cx.sorted_facets()]
        if all(d % a for a in core for d in [2] * m + sums):
            degrees = tuple([2] * m + sums + [lcm(*core)] * l)
            weights = tuple([1] * t + list(core))
            image = tuple(range(m + w + 1, m + w + l + 1))
            return ContractionInstance(
                WeightTuple.of(weights), DegreeTuple.of(degrees), image)
    raise ResourceLimitError(
        f"no prime window out of {_RETRY_WINDOWS} satisfies the "
        f"divisibility side condition")


class MapInstance(NamedTuple):
    """A realized pair with a planted non-contracting weighted map."""

    weights: WeightTuple
    degrees: DegreeTuple
    planted: WeightedMap


def realize_map_instance(source: Complex, target: Complex,
                         assignment: Mapping[int, int],
                         pad: int, ones: int) -> MapInstance:
    """Plant a vertex-surjective non-contracting map into realized data.

    The source complex is realized by primes; each target vertex turns
    into a degree equal to the lcm of the realized weights in its fiber,
    times the smallest multiplier >= 1 that makes the degree collide with
    no weight. pad appends that many copies of the lcm of all realized
    weights, cleared of the weights by the same multiplier (the lcm is a
    weight when one vertex lies in every source facet); ones prepends
    weight-one entries.
    """
    checked_ints([pad], "pad")
    checked_ints([ones], "ones")
    src_verts = source.vertices
    tgt_verts = target.vertices
    for v in src_verts:
        if v not in assignment:
            raise InputError(f"source vertex {v} has no assignment")
    extra = set(assignment) - set(src_verts)
    if extra:
        raise InputError(f"assignment covers non-vertices {sorted(extra)}")
    img = {assignment[v] for v in src_verts}
    if not img <= set(tgt_verts):
        raise InputError(
            f"images {sorted(img - set(tgt_verts))} are not target vertices")
    if img != set(tgt_verts):
        raise InputError(
            f"map misses target vertices {sorted(set(tgt_verts) - img)}")
    for f in sorted(source.facets, key=sorted):
        pair = _least_preimages(f, assignment)[1]
        if pair is not None:
            raise InputError(f"map contracts the face {pair}")

    res = realize_weights(source)
    core = tuple(res.weights)
    weight_set = set(core) | {1}
    fibers = {
        u: [v for v in src_verts if assignment[v] == u] for u in tgt_verts}

    def clear(d: int) -> int:
        return next(k * d for k in count(1) if k * d not in weight_set)

    degrees = tuple([clear(lcm(*(core[v] for v in fibers[u]))) for u in tgt_verts]
                    + [clear(lcm(*core))] * pad)
    weights = tuple([1] * ones + list(core))

    planted_assignment = {
        ones + v: tgt_verts.index(assignment[v]) for v in src_verts}
    planted = WeightedMap(
        singular_complex(weights),
        singular_complex(degrees),
        planted_assignment)
    return MapInstance(WeightTuple.of(weights), DegreeTuple.of(degrees), planted)
