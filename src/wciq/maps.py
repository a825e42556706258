"""Weighted simplicial maps and admissible injection families.

A weighted simplicial map between weighted complexes sends faces to faces
so that the source face weight divides the image face weight. Such maps
need not be determined by vertex images on the level of weights, which is
why the central object here is a family of injections indexed by the
divisors b occurring as face weights of the source complex:

* for each b, an injection from the b-divisible vertex set S^(b) into the
  degree indices whose degree is representable over the weights of S^(b);
* along each cover q of b in the divisibility poset of occurring face
  weights (q | b), the image of the b-injection is contained in the image
  of the q-injection;
* two distinct vertices whose weights divide one another receive distinct
  images under their own weight-level injections.

The family induces a map on faces by applying the injection at the face's
weight, so the image cardinality always matches the face cardinality.
Order preservation on nested faces is not forced by the invariants and is
verified empirically, as is the per-face representability of every image
degree.

The family search runs over image sets, one per face weight, from the
largest face weight down; interchangeable vertices are never told apart.
The injections are read off the image sets in a fixed order, so identical
inputs give identical families. It counts its nodes against the node
budget of its facts holder, `errors.DEFAULT_NODE_BUDGET` unless a
command sets one, and raises ResourceLimitError past it.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import gcd, prod
from typing import Callable, Iterable, Mapping, NamedTuple

from wciq.arith import (
    DEFAULT_DP_CAP,
    FACE_LIMIT,
    DegreesLike,
    PairFacts,
    ValueFacts,
    ValuePairFacts,
    WeightFacts,
    WeightsLike,
    WeightTuple,
    as_degrees,
    as_weights,
    gcd_of,
    picked,
    weight_facts,
)
from wciq.complexes import WeightedComplex, _value_faces, minimal_nonfaces, singular_complex
from wciq.errors import (
    DEFAULT_NODE_BUDGET,
    InputError,
    InternalConsistencyError,
    PreconditionFailure,
    ResourceLimitError,
    backtrack,
    checked_ints,
    node_budget,
)
from wciq.regularity import _strict_regularity


class _WeightedMapFields(NamedTuple):
    source: WeightedComplex
    target: WeightedComplex
    vertex_assignment: Mapping[int, int]


class WeightedMap(_WeightedMapFields):
    """Vertex assignment between two weighted complexes."""

    __slots__ = ()

    def __new__(cls, source: WeightedComplex, target: WeightedComplex,
                vertex_assignment: Mapping[int, int]):
        return super().__new__(cls, source, target, dict(vertex_assignment))


class MapValidation(NamedTuple):
    """Verdicts of the three map conditions, each with a first witness."""

    simplicial: bool
    simplicial_witness: tuple[int, ...] | None
    weighted: bool
    weighted_witness: tuple[int, ...] | None
    contracts_face: tuple[int, ...] | None

    @property
    def valid(self) -> bool:
        return self.simplicial and self.weighted

    @property
    def noncontracting(self) -> bool:
        return self.contracts_face is None


def validate_weighted_map(fmap: WeightedMap) -> MapValidation:
    """Check the simplicial, weighted, and non-contraction conditions.

    Two facts decide them on vertices and facets. A face weight is the
    gcd of its vertex weights, so if each vertex weight divides the
    weight of its image, each face weight divides its image's; and a
    failing face has a failing vertex, whose image is a target vertex
    when the face's image is a target face. Faces are closed under
    subsets, so a map is simplicial and non-contracting exactly when it
    is injective on every facet with a target face as image.

    The weighted witness is (v,) for the least vertex v whose image t is
    a target vertex and whose weight does not divide the weight of t.
    The simplicial witness F, the (cardinality, lex)-least face whose
    image is not a target face, is read off the target's minimal
    non-faces. Its proper subsets are smaller faces and pass, so F is
    injective and its image is a minimal non-face inside the image of a
    facet holding F: an image vertex outside the target, or a minimal
    non-face of the target within the facet's in-target images. Every
    choice of one facet vertex per member vertex fails, and the least
    preimages give the least choice, so F is the least of these
    realizations over the failing facets. The contraction witness is the
    least over the facets of (u, v), v the first vertex of the facet
    sharing its image with an earlier one and u the least such earlier
    vertex.
    """
    src = fmap.source
    tgt = fmap.target
    assign = fmap.vertex_assignment
    for v in src.complex.vertices:
        if v not in assign:
            raise InputError(f"source vertex {v} has no assignment")

    tgt_vertices = set(tgt.complex.vertices)
    failing: list[tuple[int, ...]] = []
    contracts = None
    for f in src.complex.facets:
        least, pair = _least_preimages(f, assign)
        if pair is not None and (contracts is None or pair < contracts):
            contracts = pair
        failing += [(least[t],) for t in least if t not in tgt_vertices]
        inside = [t for t in least if t in tgt_vertices]
        if inside and not tgt.complex.is_face(inside):
            failing += [tuple(sorted(least[t] for t in gen))
                        for gen in minimal_nonfaces(tgt.complex, within=sorted(inside))]
    simplicial_witness = min(failing, key=lambda face: (len(face), face), default=None)
    weighted_witness = next(
        ((v,) for v in src.complex.vertices if assign[v] in tgt_vertices
         and tgt.vertex_weights[assign[v]] % src.vertex_weights[v]), None)
    return MapValidation(simplicial_witness is None, simplicial_witness,
                         weighted_witness is None, weighted_witness, contracts)


def _least_preimages(facet: Iterable[int], assign: Mapping[int, int]):
    """The least vertex of the facet over each of its images, and the
    first collision (u, v): v the least vertex whose image an earlier
    vertex has, u the least such earlier vertex; None when injective."""
    least: dict[int, int] = {}
    pair = None
    for v in sorted(facet):
        u = least.setdefault(assign[v], v)
        if u != v and pair is None:
            pair = (u, v)
    return least, pair


def find_noncontracting_map(weights: WeightsLike,
                            degrees: DegreesLike) -> WeightedMap | None:
    """Search for a non-contracting weighted simplicial map from the
    singular complex of the weights to the singular complex of the degrees.

    Exhaustive backtracking in `errors.backtrack`, one level per vertex in
    ascending order, targets ascending; the first solution in that order
    is returned. By the facts in `validate_weighted_map`, a vertex goes
    only to target vertices whose weight its own weight divides; then the
    gcd b > 1 of a face divides the weights of its images, which so form
    a target face, and what is left is injectivity on facets: a vertex
    skips the images of its earlier facet-mates. Copies of a weight share
    every facet and every domain, so swapping their images keeps a map
    valid, and the first map gives them rising images: each vertex starts
    above the image of the previous copy of its weight. Before the
    search, a stratum count refutes in closed form: a map is injective on
    each source facet and sends each vertex into its domain, so no map
    exists when some facet has more vertices than the union of their
    domains. Every assignment tried counts one node against
    `errors.DEFAULT_NODE_BUDGET`.
    A returned map certifies that a general quasi-smooth complete
    intersection with these data is smooth and well-formed.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    src = singular_complex(wt)
    tgt = singular_complex(WeightTuple.of(tuple(dg)) if len(dg) else (1,))
    src_verts = src.complex.vertices
    domains = {v: [t for t in tgt.complex.vertices
                   if tgt.vertex_weights[t] % src.vertex_weights[v] == 0]
               for v in src_verts}
    if not all(domains.values()) or any(
            len(f) > len({t for v in f for t in domains[v]}) for f in src.complex.facets):
        return None

    mates = {v: {u for f in src.complex.facets if v in f for u in f if u < v}
             for v in src_verts}
    previous_copy = {v: u for c in wt.classes.values() for u, v in zip(c, c[1:])}
    # A failed branch leaves stale images only at vertices from its own
    # on, and those are read only after they are assigned again.
    assignment: dict[int, int] = {}

    def level(k: int):
        v = src_verts[k]
        floor = assignment[previous_copy[v]] if v in previous_copy else -1
        taken = {assignment[u] for u in mates[v]}
        for t in domains[v]:
            if t > floor:
                assignment[v] = t
                yield t not in taken

    if backtrack(len(src_verts), level,
                 node_budget(DEFAULT_NODE_BUDGET, "non-contracting map search")):
        return WeightedMap(src, tgt, dict(assignment))
    return None


class _FamilyFields(NamedTuple):
    im_phi: tuple[int, ...]
    domains: Mapping[int, tuple[int, ...]]
    injections: Mapping[int, Mapping[int, int]]


class AdmissibleFamily(_FamilyFields):
    """Injections at every occurring face weight b of the source complex.

    im_phi lists the occurring face weights ascending, domains maps b to
    the b-divisible vertex indices, injections maps b to the vertex-to-
    degree-index assignment (degree indices are 1-based).
    """

    __slots__ = ()

    def __new__(cls, im_phi: tuple[int, ...], domains: Mapping[int, tuple[int, ...]],
                injections: Mapping[int, Mapping[int, int]]):
        return super().__new__(cls, im_phi,
                               {b: tuple(vs) for b, vs in domains.items()},
                               {b: dict(m) for b, m in injections.items()})

    def vertex_weight(self, i: int) -> int:
        """The weight of vertex i is the largest b whose domain holds i."""
        candidates = [b for b in self.im_phi if i in self.injections[b]]
        if not candidates:
            raise InputError(f"vertex {i} is not in any injection domain")
        return max(candidates)

    def vertex_image(self, i: int) -> int:
        return self.injections[self.vertex_weight(i)][i]


def occurring_face_weights(weights: WeightsLike) -> tuple[int, ...]:
    """All gcds above 1 of nonempty sets of weight values: the face weights
    of the singular complex. Each value v adds itself and its gcds above 1
    with the face weights of the values before it, since the gcd of a set
    with v is the gcd of the set's gcd and v."""
    return weight_facts(as_weights(weights)).v.once(_face_weights)[0]


def _face_weights(v: ValueFacts):
    """The occurring face weights, ascending; at each, the mask of the
    values it divides (those of its domain) and the face weights it
    covers, ascending. Past FACE_LIMIT face weights, before any cover is
    computed, raises ResourceLimitError. The covers of b are the maximal
    g = gcd(a, b) > 1 over the values a that b does not divide (Lindig's
    upper-neighbour rule, "Fast concept analysis", 2000): a cover q of b
    is the gcd of the values it divides, b does not divide one of them,
    a, or else b | q, so q | g | b with g != b and q = g by maximality;
    and a g that is no cover lies below one, a larger g."""
    im: set[int] = set()
    for a in v.values:
        im |= {g for x in im if (g := gcd(x, a)) > 1} | {a}
        if len(im) > FACE_LIMIT:
            raise ResourceLimitError(
                f"occurring face weights exceed {FACE_LIMIT} in the face-weight closure")
    im_phi = tuple(sorted(im))
    masks, covers = {}, {}
    for b in im_phi:
        gcds = [gcd(a, b) for a in v.values]
        masks[b] = sum(1 << k for k, g in enumerate(gcds) if g == b)
        below = {g for g in gcds if 1 < g < b}
        covers[b] = tuple(sorted(q for q in below if not any(r % q == 0 for r in below - {q})))
    return im_phi, masks, covers


def _domains(w: WeightFacts) -> dict[int, tuple[int, ...]]:
    """The domain at each occurring face weight: its divisible indices,
    ascending."""
    return {b: w.indices(mask) for b, mask in w.v.once(_face_weights)[1].items()}


def _skeleton(facts: PairFacts):
    """The occurring face weights, their domains, and the admissible degree
    indices (ascending) at each: what the family search runs on."""
    return facts.w.v.once(_face_weights)[0], facts.w.once(_domains), facts.v.once(_good)


def _good(pv: ValuePairFacts) -> dict[int, tuple[int, ...]]:
    """The admissible degree indices at each occurring face weight."""
    return {b: pv.admissible(mask) for b, mask in pv.v.once(_face_weights)[1].items()}


def family_csp_summary(weights: WeightsLike, degrees: DegreesLike, *,
                       dp_cap: int = DEFAULT_DP_CAP) -> dict:
    """Constraint inventory of the family search, used as the certificate
    accompanying an unsatisfiable search."""
    return _csp_summary(PairFacts(weights, degrees, dp_cap))


def _csp_summary(facts: PairFacts) -> dict:
    from wciq.serialize import encode_int

    wt = facts.wt
    im_phi, domains, good = facts.once(_skeleton)
    covers = facts.w.v.once(_face_weights)[2]
    return {
        "im_phi": [encode_int(b) for b in im_phi],
        "domains": {str(b): list(domains[b]) for b in im_phi},
        "admissible_degrees": {str(b): list(good[b]) for b in im_phi},
        "cover_edges": [[encode_int(q), encode_int(b)] for b in im_phi for q in covers[b]],
        "divisor_vertex_pairs": [
            [i, k] for i, k in combinations(wt.heavy(), 2)
            if wt[k] % wt[i] == 0 or wt[i] % wt[k] == 0],
    }


def build_admissible_family(weights: WeightsLike, degrees: DegreesLike, *,
                            dp_cap: int = DEFAULT_DP_CAP) -> AdmissibleFamily | None:
    """Build an admissible injection family, or return None when the
    constraints are unsatisfiable.

    Requires strict regularity. Write D_b for the domain at face weight b,
    S_b for the image set of the injection there, good[b] for its
    admissible degrees, and m_v for the multiplicity of a heavy value v.
    The search runs over the S_b, visiting b in descending order: S_b is
    the union U_b of the S_w already chosen for the upper covers w of b,
    plus a padding of |D_b| - |U_b| indices from good[b] outside U_b,
    paddings tried in lex order. A branch is cut when |U_b| > |D_b|. The
    search runs in `errors.backtrack`, one level per b; every S_b tried
    is a candidate and counts one node against the node budget. It reads
    the values, their multiplicities and the degrees alone, so its image
    sets are kept once per value-level pair and answer each budget as a
    fresh search would.

    The search is complete. Take any admissible family. For b | w in
    im_phi there is a chain of covers from b up to w, and cover
    containment along it gives S_w inside S_b; so U_b lies inside S_b,
    which lies inside good[b] and has |D_b| members. Hence S_b is U_b
    plus a padding of the searched shape, and a None proves that no
    family exists. Conversely every complete choice is a family's image
    sets: U_b lies in good[b], because each S_w lies in good[w] and a
    degree representable over the values of D_w is representable over
    the larger value set of D_b; and S_b lies inside U_q, hence inside
    S_q, for every cover q of b.

    The injections are then read off the S_b. Heavy values v, descending,
    take as weight-level image set T_v the least m_v members of S_v that
    no multiple of v has taken. This pick cannot fail: D_v holds the
    class of v and the classes of its multiples, so |S_v| = |D_v| =
    m_v + sum of m_w over the multiples w of v, and the taken members
    lie in S_v and number that sum at most. T_v then avoids T_w for
    every multiple w, which is divisor-pair separation. At each b, the
    class of b maps ascending onto T_b ascending (T_b empty when b is
    not a weight), and the rest of D_b ascending onto the rest of S_b
    ascending. Identical inputs give identical families.
    """
    return PairFacts(weights, degrees, dp_cap).once(_family)


def _family(facts: PairFacts) -> AdmissibleFamily | None:
    """`build_admissible_family` of the pair: the kept image sets expanded
    to injections. The family it returns has passed
    `check_family_invariants`."""
    wt = facts.wt
    regular, witness = facts.once(_strict_regularity)
    if not regular:
        raise PreconditionFailure(
            "strictly_regular",
            f"weights are not strictly regular for the degrees; "
            f"violating index subset {witness}",
            witness=witness)
    spend = node_budget(facts.node_budget, "admissible family search")
    images = facts.v.metered(_image_sets, spend)
    if images is None:
        return None
    im_phi, domains = facts.w.v.once(_face_weights)[0], facts.w.once(_domains)
    weight_level: dict[int, list[int]] = {}
    for v in reversed(wt.heavy_values()):
        taken = {j for w, t in weight_level.items() if w % v == 0 for j in t}
        free = [j for j in sorted(images[v]) if j not in taken]
        weight_level[v] = free[:len(wt.classes[v])]
    injections = {}
    for b in im_phi:
        own = iter(weight_level.get(b, ()))
        rest = iter(sorted(images[b].difference(weight_level.get(b, ()))))
        injections[b] = {i: next(own if wt[i] == b else rest) for i in domains[b]}
    fam = AdmissibleFamily(im_phi, domains, injections)
    leftovers = _invariant_violations(facts, fam)
    if leftovers:
        raise InternalConsistencyError(
            f"solver produced a family violating its own invariants: {leftovers}")
    return fam


def _image_sets(pv: ValuePairFacts,
                spend: Callable[..., int]) -> dict[int, frozenset[int]] | None:
    """The image sets S_b of `build_admissible_family`'s search, or None
    when there are none; each set tried calls spend. |D_b| is the sum of
    the multiplicities of the values b divides. U_b, the union over the
    upper covers of b alone, is the union over all its multiples w in
    im_phi: each S_c holds U_c, so along a chain of covers from b up to w
    each image set holds the next one up."""
    im_phi, masks, covers = pv.v.once(_face_weights)
    good = pv.once(_good)
    upper: dict[int, list[int]] = {b: [] for b in im_phi}
    for w, below in covers.items():
        for q in below:
            upper[q].append(w)
    order = im_phi[::-1]
    images: dict[int, frozenset[int]] = {}

    def level(at: int):
        b = order[at]
        union = frozenset().union(*map(images.__getitem__, upper[b]))
        pad = sum(picked(pv.mults, masks[b])) - len(union)
        free = [j for j in good[b] if j not in union]
        for padding in combinations(free, pad) if pad >= 0 else ():
            images[b] = union.union(padding)
            yield True

    return images if backtrack(len(order), level, spend) else None


def check_family_invariants(weights: WeightsLike, degrees: DegreesLike,
                            fam: AdmissibleFamily, *,
                            dp_cap: int = DEFAULT_DP_CAP) -> list[str]:
    """All invariant violations of a family against the given pair,
    as human-readable strings. Empty means the family is admissible."""
    return _invariant_violations(PairFacts(weights, degrees, dp_cap), fam)


def _invariant_violations(facts: PairFacts, fam: AdmissibleFamily) -> list[str]:
    wt = facts.wt
    problems: list[str] = []
    im_phi, masks, covers = facts.w.v.once(_face_weights)
    domains = facts.w.once(_domains)
    if tuple(fam.im_phi) != im_phi:
        problems.append(f"occurring face weights mismatch: {fam.im_phi} vs {im_phi}")
        return problems
    for b in im_phi:
        expect = domains[b]
        if tuple(fam.domains.get(b, ())) != expect:
            problems.append(f"domain of {b} mismatch: {fam.domains.get(b)} vs {expect}")
            continue
        inj = fam.injections.get(b, {})
        if sorted(inj) != list(expect):
            problems.append(f"injection at {b} does not cover its domain")
            continue
        images = list(inj.values())
        if len(set(images)) != len(images):
            problems.append(f"injection at {b} is not injective: {inj}")
        admissible = facts.v.admissible(masks[b])
        bad = [j for j in images if j not in admissible]
        if bad:
            problems.append(
                f"injection at {b} uses non-representable degree indices {sorted(bad)}")
    if problems:
        return problems
    for b in im_phi:
        im_b = set(fam.injections[b].values())
        for q in covers[b]:
            if not im_b <= set(fam.injections[q].values()):
                problems.append(
                    f"image of injection at {b} is not contained in the image at {q}")
    heavy = wt.heavy()
    for i, k in combinations(heavy, 2):
        if wt[k] % wt[i] == 0 or wt[i] % wt[k] == 0:
            if fam.injections[wt[i]][i] == fam.injections[wt[k]][k]:
                problems.append(
                    f"vertices {i} and {k} with dividing weights share image "
                    f"{fam.injections[wt[i]][i]}")
    return problems


def induced_face_map(fam: AdmissibleFamily, face: Iterable[int]) -> frozenset[int]:
    """Image of a face under the injection at the face's weight.

    The face weight is the gcd of the member vertex weights; it always
    occurs in im_phi for a genuine face, and every member is b-divisible,
    so the injection applies elementwise.
    """
    members = tuple(sorted(set(checked_ints(face, "vertex"))))
    if not members:
        raise InputError("the empty set has no induced image")
    try:
        ws = [fam.vertex_weight(i) for i in members]
    except InputError as exc:
        raise InputError(f"not a face of the singular complex: {members}") from exc
    b = gcd_of(ws)
    if b not in fam.injections:
        raise InputError(f"not a face of the singular complex: {members}")
    inj = fam.injections[b]
    return frozenset(inj[i] for i in members)


def vertex_fibers(fam: AdmissibleFamily) -> dict[int, tuple[int, ...]]:
    """Partition of all injection-domain vertices by their weight-level
    image degree index (`vertex_image`). Degrees with empty fiber are
    absent. Each injection is read once, by ascending face weight, so the
    largest face weight holding a vertex sets its image."""
    image: dict[int, int] = {}
    for b in sorted(fam.im_phi):
        image.update(fam.injections[b])
    fibers: dict[int, list[int]] = {}
    for i in sorted({i for b in fam.im_phi for i in fam.domains[b]}):
        if i not in image:
            raise InputError(f"vertex {i} is not in any injection domain")
        fibers.setdefault(image[i], []).append(i)
    return {j: tuple(vs) for j, vs in sorted(fibers.items())}


class PosetMapReport(NamedTuple):
    """Verification of the induced face map.

    property1: image cardinality equals face cardinality on every face.
    property2: every image degree of a face is representable over the
    face's weights, with one record per (face, degree index) pair.
    property3: no edge between vertices with dividing weights is
    contracted by the weight-level images.
    order_preserving: nested faces have nested images.

    Properties 1 and 3 follow from the family invariants: every injection
    is injective on its domain, and a heavy vertex i has the image
    injections[wt[i]][i], the pair the divisor-pair invariant compares.
    So they hold, without witness, whenever the invariants do, and are
    false under "invariants-failed". Property 2 and order preservation
    are checked face by face.
    scope is "all-faces" for full enumeration; beyond the face limit a
    canonical subfamily (at most two least indices per weight value)
    stands in for order preservation, while property 2 switches to exact
    value-class records.
    """

    family_violations: tuple[str, ...]
    property1: bool
    property1_witness: tuple[int, ...] | None
    property2: bool
    property2_records: tuple[tuple[tuple[int, ...], int, bool], ...]
    property3: bool
    property3_witness: tuple[int, int] | None
    order_preserving: bool
    order_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    scope: str

    @property
    def all_ok(self) -> bool:
        return (not self.family_violations and self.property1
                and self.property2 and self.property3 and self.order_preserving)


def verify_poset_map(weights: WeightsLike, degrees: DegreesLike,
                     fam: AdmissibleFamily, *,
                     dp_cap: int = DEFAULT_DP_CAP) -> PosetMapReport:
    """Check the induced face map and report every verdict."""
    return _poset_map(PairFacts(weights, degrees, dp_cap), fam)


def _poset_map(facts: PairFacts, fam: AdmissibleFamily) -> PosetMapReport:
    """`verify_poset_map` of the pair. The family these facts built has
    passed its invariant check already; any other family is checked."""
    if fam is facts.kept(_family):
        violations = ()
    else:
        violations = tuple(_invariant_violations(facts, fam))
    if violations:
        return PosetMapReport(violations, False, None, False, (), False, None,
                              False, None, "invariants-failed")

    wt = facts.wt
    scope, checked, faces = facts.w.once(_checked_faces)
    images = {face: _face_image(fam, wt, face) for face in faces}
    records = tuple((face, j, facts.v.representable(j, mask)) for face, mask in checked
                    for j in sorted(images.get(face) or _face_image(fam, wt, face)))
    property2 = all(ok for _, _, ok in records)

    # faces are downward closed, so every one-smaller sub-face has an image
    order_witness = next(((sub, face) for face in faces if len(face) > 1
                          for sub in (face[:k] + face[k + 1:] for k in range(len(face)))
                          if not images[sub] <= images[face]), None)
    order_preserving = order_witness is None

    return PosetMapReport(
        violations, True, None, property2, records,
        True, None, order_preserving, order_witness, scope)


def _face_image(fam: AdmissibleFamily, wt: WeightTuple,
                face: tuple[int, ...]) -> frozenset[int]:
    """`induced_face_map` of a face of the singular complex under a family
    that has passed its invariant check against the weights wt. There the
    domains are those of wt, so a heavy vertex i lies in the domain of
    wt[i] and of its divisors only, and its `vertex_weight` is wt[i]: the
    face weight is the gcd of the wt[i]."""
    return frozenset(map(fam.injections[gcd(*map(wt.__getitem__, face))].__getitem__, face))


def _checked_faces(w: WeightFacts):
    """What `_poset_map` checks on the singular complex: its scope, the
    (face, value mask) pairs whose images must be representable, and the
    faces whose images must nest. A face over a value set with gcd above 1
    joins a nonempty subset of its least value's class to a face over the
    rest: the faces, a sum of products of 2^m - 1 over class sizes m, are
    counted before any is built. Up to FACE_LIMIT faces, every face serves
    both checks. Past it, the faces on at most two least indices per value
    stand in for order preservation, and each value set with gcd above 1
    gives one exact property-2 record, its whole classes, a face whose
    image holds every member's: never more records than guarded faces."""
    masks = tuple(islice(_value_faces(w.v), FACE_LIMIT + 1))
    for keep, scope in ((None, "all-faces"), (2, "value-class-representatives")):
        kept = [c[:keep] for c in w.members]
        sizes = [(1 << len(c)) - 1 for c in kept]
        if sum(prod(picked(sizes, m)) for m in masks) <= FACE_LIMIT:
            break
    else:
        raise ResourceLimitError(f"face enumeration exceeds {FACE_LIMIT} even on "
                                 "value-class representatives")
    subsets = [[s for r in range(1, len(c) + 1) for s in combinations(c, r)] for c in kept]
    over = {0: [()]}
    for m in masks:
        over[m] = [tuple(sorted(f + s)) for f in over[m & m - 1]
                   for s in subsets[(m & -m).bit_length() - 1]]
    faces = sorted(((f, m) for m in masks for f in over[m]), key=lambda fm: (len(fm[0]), fm[0]))
    checked = tuple(faces) if keep is None else tuple((w.indices(m), m) for m in masks)
    return scope, checked, tuple(face for face, _ in faces)
