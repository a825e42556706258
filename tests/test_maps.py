import functools
import math
import sys
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wciq import arith, maps
from wciq.arith import PairFacts, WeightTuple, weight_facts
from wciq.complexes import Complex, WeightedComplex, singular_complex
from wciq.errors import InputError, PreconditionFailure, ResourceLimitError
from wciq.maps import (
    AdmissibleFamily,
    WeightedMap,
    _family,
    build_admissible_family,
    check_family_invariants,
    family_csp_summary,
    find_noncontracting_map,
    induced_face_map,
    occurring_face_weights,
    validate_weighted_map,
    verify_poset_map,
    vertex_fibers,
)

from wciq.oracles import (
    brute_force_family,
    brute_force_map,
    complex_faces,
    mrv_family_search,
    poset_covers,
)
from wciq.regularity import is_strictly_regular
from wciq.serialize import family_from_json, family_to_json

from helpers import BUDGET_FAMILY_PAIR, STUCK_FAMILY_PAIR, TRIANGLE_PAIR, cofactor_pair

RHO = (1, 6, 10, 15)
MU = (16, 21, 25, 30)


@pytest.fixture(scope="module")
def reference_family():
    return build_admissible_family(RHO, MU)


class TestOccurringFaceWeights:
    def test_gcd_closure(self):
        assert occurring_face_weights(RHO) == (2, 3, 5, 6, 10, 15)
        assert occurring_face_weights((1, 1)) == ()
        assert occurring_face_weights((4, 6)) == (2, 4, 6)

    @staticmethod
    def assert_covers_are_the_poset_covers(weights):
        im_phi, _, covers = weight_facts(WeightTuple.of(weights)).v.once(maps._face_weights)
        for b in im_phi:
            assert covers[b] == tuple(sorted(poset_covers(im_phi, b)))

    @given(st.lists(st.builds(lambda a, b, c, d: 2 ** a * 3 ** b * 5 ** c * 7 ** d,
                              st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 1)),
                    min_size=1, max_size=9))
    @settings(deadline=None, max_examples=300)
    def test_covers_read_off_the_values_are_the_poset_covers(self, weights):
        # products of small prime powers nest their face weights deeply
        self.assert_covers_are_the_poset_covers(weights)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cofactor_covers_are_the_poset_covers(self, k):
        self.assert_covers_are_the_poset_covers(cofactor_pair(k)["weights"])

    def test_closure_is_bounded(self):
        # 8,190 face weights; the closure stops before their covers
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="face-weight closure"):
            occurring_face_weights(cofactor_pair(13)["weights"])
        assert time.perf_counter() - start < 1


class TestBuildFamily:
    def test_reference_family(self, reference_family):
        fam = reference_family
        assert fam.im_phi == (2, 3, 5, 6, 10, 15)
        assert fam.domains[2] == (1, 2)
        assert fam.injections[6] == {1: 4}
        assert fam.injections[10] == {2: 4}
        assert fam.injections[15] == {3: 4}
        assert fam.injections[2] == {1: 1, 2: 4}
        assert fam.injections[3] == {1: 2, 3: 4}
        assert fam.injections[5] == {2: 3, 3: 4}

    def test_invariants_empty(self, reference_family):
        assert check_family_invariants(RHO, MU, reference_family) == []

    def test_containment_is_reported_by_ascending_cover(self):
        # 42 covers 6 and 21, which a frozenset walks as 21, 6
        weights, degrees = (1, 6, 21, 42), (42,) * 4
        fam = build_admissible_family(weights, degrees)
        broken = AdmissibleFamily(fam.im_phi, fam.domains, {**fam.injections, 42: {3: 4}})
        assert check_family_invariants(weights, degrees, broken) == [
            "image of injection at 42 is not contained in the image at 6",
            "image of injection at 42 is not contained in the image at 21"]

    def test_requires_strict_regularity(self):
        with pytest.raises(PreconditionFailure) as err:
            build_admissible_family((2, 2, 2), (2, 3))
        assert err.value.hypothesis == "strictly_regular"
        assert err.value.witness == (0, 1)

    def test_no_heavy_weights(self):
        fam = build_admissible_family((1, 1), (3,))
        assert fam.im_phi == ()

    def test_deterministic(self, reference_family):
        again = build_admissible_family(RHO, MU)
        assert again.injections == reference_family.injections

    def test_node_budget(self):
        facts = PairFacts(BUDGET_FAMILY_PAIR["weights"], BUDGET_FAMILY_PAIR["degrees"],
                          node_budget=10_000)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match="admissible family search exceeded the node budget 10000"):
            facts.once(_family)
        assert time.perf_counter() - start < 1

    def test_budget_pair_is_refuted_under_the_default_budget(self):
        assert build_admissible_family(BUDGET_FAMILY_PAIR["weights"],
                                       BUDGET_FAMILY_PAIR["degrees"]) is None

    def test_no_face_weight_spends_no_node(self):
        fam = PairFacts([1, 1, 1], [2], node_budget=0).once(_family)
        assert fam.im_phi == ()

    @pytest.mark.parametrize("pair,nodes,found", [
        (TRIANGLE_PAIR, 6, False),
        (STUCK_FAMILY_PAIR, 6, True),
        (BUDGET_FAMILY_PAIR, 34_949, False),
    ])
    def test_pinned_node_counts(self, pair, nodes, found):
        # one node per image set tried; the search kept for the pair's
        # values answers each budget as a fresh search does, in either
        # call order, with nothing cleared between the two calls
        weights, degrees = pair["weights"], pair["degrees"]

        def answers():
            fam = PairFacts(weights, degrees, node_budget=nodes).once(_family)
            assert (fam is not None) == found

        def raises():
            with pytest.raises(ResourceLimitError, match=(
                    f"^admissible family search exceeded the node budget {nodes - 1}$")):
                PairFacts(weights, degrees, node_budget=nodes - 1).once(_family)

        for calls in ((answers, raises), (raises, answers)):
            arith.value_pair_facts.cache_clear()
            for call in calls:
                call()
            assert arith.value_pair_facts.cache_info().hits == 1

    def test_stuck_pair_within_100_nodes(self):
        weights, degrees = STUCK_FAMILY_PAIR["weights"], STUCK_FAMILY_PAIR["degrees"]
        fam = PairFacts(weights, degrees, node_budget=100).once(_family)
        assert fam is not None
        assert check_family_invariants(weights, degrees, fam) == []

    def test_no_family_on_a_regular_triangle(self):
        weights, degrees = TRIANGLE_PAIR["weights"], TRIANGLE_PAIR["degrees"]
        assert is_strictly_regular(weights, degrees) == (True, None)
        assert build_admissible_family(weights, degrees) is None
        assert brute_force_family(weights, degrees) is None
        assert mrv_family_search(weights, degrees) is None

    def test_csp_summary_inventory(self):
        s = family_csp_summary(RHO, MU)
        assert s["im_phi"] == [2, 3, 5, 6, 10, 15]
        assert s["admissible_degrees"]["2"] == [1, 4]
        assert s["admissible_degrees"]["6"] == [4]
        assert [2, 6] in s["cover_edges"]
        assert s["divisor_vertex_pairs"] == []


#: Heavy values for family pairs: a divisor chain and coprime factors,
#: or the four products of three of the primes 2, 3, 5, 7, whose pairwise
#: gcds form the triangles on which a regular pair can lack a family.
FAMILY_VALUES = (2, 4, 6, 10, 15, 30, 42, 70, 105)
TRIANGLE_VALUES = (30, 42, 70, 105)


@st.composite
def family_pairs(draw):
    """Up to 6 heavy indices over 2-4 values, at most one weight-1 index,
    and as many degrees as heavy indices up to 6, each the sum of two
    values or the lcm of some."""
    pool = draw(st.sampled_from([FAMILY_VALUES, TRIANGLE_VALUES]))
    values = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    heavy = [v for v in values for _ in range(draw(st.integers(1, 2)))][:6]
    weights = draw(st.permutations([1] * draw(st.integers(0, 1)) + heavy))
    degrees = []
    for _ in range(draw(st.integers(len(heavy), 6))):
        if draw(st.booleans()):
            degrees.append(sum(draw(st.lists(
                st.sampled_from(values), min_size=2, max_size=2, unique=True))))
        else:
            degrees.append(math.lcm(*draw(st.lists(
                st.sampled_from(values), min_size=1, max_size=4, unique=True))))
    return tuple(weights), tuple(degrees)


class TestFamilySearchReferences:
    @given(family_pairs())
    @example(((70, 30, 105, 105, 1, 70), (100, 210, 175, 175, 135, 210)))
    @example(((1, 105, 42, 70, 70), (175, 70, 147, 210, 112)))
    @settings(deadline=None, max_examples=300)
    def test_existence_matches_references(self, pair):
        # The brute force referees every verdict, None included; the
        # vertex-level search wherever it decides within 2,000 nodes.
        weights, degrees = pair
        try:
            fam = build_admissible_family(weights, degrees)
        except PreconditionFailure:
            with pytest.raises(PreconditionFailure):
                mrv_family_search(weights, degrees)
            return
        if fam is not None:
            assert check_family_invariants(weights, degrees, fam) == []
        assert (brute_force_family(weights, degrees) is None) == (fam is None)
        try:
            old = mrv_family_search(weights, degrees, node_budget=2_000)
        except ResourceLimitError:
            return
        assert (old is None) == (fam is None)


class TestFamilyInvariantViolations:
    def tampered(self, fam, b, table):
        injections = {k: dict(v) for k, v in fam.injections.items()}
        injections[b] = table
        return AdmissibleFamily(fam.im_phi, fam.domains, injections)

    def test_non_representable_image(self, reference_family):
        bad = self.tampered(reference_family, 6, {1: 1})
        problems = check_family_invariants(RHO, MU, bad)
        assert any("non-representable" in p for p in problems)

    def test_non_injective(self, reference_family):
        bad = self.tampered(reference_family, 2, {1: 4, 2: 4})
        problems = check_family_invariants(RHO, MU, bad)
        assert any("not injective" in p for p in problems)

    def test_cover_containment(self):
        # degree 36 is admissible for the weight-4 vertex alone but stays
        # outside the image of the level-2 injection
        rho, mu = (1, 4, 6), (12, 8, 36)
        fam = build_admissible_family(rho, mu)
        assert set(fam.injections[2].values()) == {1, 2}
        bad = self.tampered(fam, 4, {1: 3})
        problems = check_family_invariants(rho, mu, bad)
        assert any("not contained" in p for p in problems)

    def test_domain_mismatch(self, reference_family):
        fam = reference_family
        domains = dict(fam.domains)
        domains[2] = (1,)
        bad = AdmissibleFamily(fam.im_phi, domains, fam.injections)
        problems = check_family_invariants(RHO, MU, bad)
        assert any("domain" in p for p in problems)


class TestInducedMap:
    def test_reference_images(self, reference_family):
        fam = reference_family
        assert induced_face_map(fam, (1,)) == frozenset({4})
        assert induced_face_map(fam, (2,)) == frozenset({4})
        assert induced_face_map(fam, (3,)) == frozenset({4})
        assert induced_face_map(fam, (1, 2)) == frozenset({1, 4})
        assert induced_face_map(fam, (1, 3)) == frozenset({2, 4})
        assert induced_face_map(fam, (2, 3)) == frozenset({3, 4})

    def test_image_depends_on_face_weight(self, reference_family):
        # vertex 1 goes to 4 alone but contributes 1 inside the edge {1,2}
        fam = reference_family
        assert induced_face_map(fam, (1,)) == frozenset({4})
        assert 1 in induced_face_map(fam, (1, 2))

    def test_non_face_rejected(self, reference_family):
        with pytest.raises(InputError):
            induced_face_map(reference_family, (0,))
        with pytest.raises(InputError):
            induced_face_map(reference_family, (1, 2, 3))
        with pytest.raises(InputError):
            induced_face_map(reference_family, ())

    @pytest.mark.parametrize("face", [(1.0,), (True,), (1, True), ("1",), (-1,)])
    def test_vertex_not_an_index(self, reference_family, face):
        with pytest.raises(InputError, match="vertex must be a non-negative integer"):
            induced_face_map(reference_family, face)

    def test_fibers(self, reference_family):
        assert vertex_fibers(reference_family) == {4: (1, 2, 3)}


class TestVerifyPosetMap:
    def test_reference_all_green(self, reference_family):
        rep = verify_poset_map(RHO, MU, reference_family)
        assert rep.all_ok
        assert rep.scope == "all-faces"
        assert rep.property1 and rep.property2 and rep.property3
        assert rep.order_preserving
        # one record per (face, image degree): 3 singletons + 3 edges * 2
        assert len(rep.property2_records) == 9
        assert all(ok for _, _, ok in rep.property2_records)

    def test_tampered_family_reports_violations(self, reference_family):
        fam = reference_family
        injections = {k: dict(v) for k, v in fam.injections.items()}
        injections[6] = {1: 1}
        bad = AdmissibleFamily(fam.im_phi, fam.domains, injections)
        rep = verify_poset_map(RHO, MU, bad)
        assert rep.family_violations
        assert not rep.all_ok
        assert rep.scope == "invariants-failed"

    def test_restricted_scope(self):
        # 13 indices of weight 2 give 2^13-1 faces, beyond the face limit
        rho = (2,) * 13
        mu = tuple(range(2, 28, 2))
        fam = build_admissible_family(rho, mu)
        rep = verify_poset_map(rho, mu, fam)
        assert rep.scope == "value-class-representatives"
        assert rep.all_ok
        # exact class coverage: every image degree of the full stratum
        assert len(rep.property2_records) == 13


def scanned_poset_map(weights, degrees, fam):
    """The property-2 records, order witness and scope of `verify_poset_map`,
    with every image read by the scanning `induced_face_map`."""
    facts = PairFacts(weights, degrees)
    scope, checked, faces = facts.w.once(maps._checked_faces)
    image = functools.partial(induced_face_map, fam)
    records = tuple((face, j, facts.v.representable(j, mask)) for face, mask in checked
                    for j in sorted(image(face)))
    order_witness = next(((sub, face) for face in faces
                          for sub in (face[:k] + face[k + 1:] for k in range(len(face)))
                          if sub and not image(sub) <= image(face)), None)
    return records, order_witness, scope


class TestVertexFibers:
    """`vertex_fibers` reads each injection once, yet groups every domain
    vertex by its `vertex_image`, whatever order im_phi lists."""

    @staticmethod
    def grouped_by_image(fam):
        fibers = {}
        for i in sorted({i for b in fam.im_phi for i in fam.domains[b]}):
            fibers.setdefault(fam.vertex_image(i), []).append(i)
        return {j: tuple(vs) for j, vs in sorted(fibers.items())}

    @given(family_pairs())
    @example((RHO, MU))
    @settings(deadline=None, max_examples=150)
    def test_grouped_by_vertex_image(self, pair):
        weights, degrees = pair
        try:
            fam = build_admissible_family(weights, degrees)
        except PreconditionFailure:
            fam = None
        assume(fam is not None)
        data = family_to_json(fam)
        descending = family_from_json({**data, "im_phi": data["im_phi"][::-1]}, weights)
        assert descending.im_phi == fam.im_phi[::-1]
        for family in (fam, descending):
            assert vertex_fibers(family) == self.grouped_by_image(family)

    def test_vertex_in_no_injection(self, reference_family):
        fam = reference_family
        injections = {b: {i: j for i, j in m.items() if i != 2} for b, m in fam.injections.items()}
        with pytest.raises(InputError, match="vertex 2 is not in any injection domain"):
            vertex_fibers(AdmissibleFamily(fam.im_phi, fam.domains, injections))


class TestCheckedFamilyImages:
    """A family that passed its invariants sends a face through the
    injection at the gcd of its weights, as the scan over im_phi does."""

    @given(family_pairs())
    @example(((2,) * 13, tuple(range(2, 28, 2))))
    @example((RHO, MU))
    @settings(deadline=None, max_examples=150)
    def test_images_match_the_scan(self, pair):
        weights, degrees = pair
        try:
            fam = build_admissible_family(weights, degrees)
        except PreconditionFailure:
            fam = None
        assume(fam is not None)
        wt = WeightTuple.of(weights)
        _, checked, faces = weight_facts(wt).once(maps._checked_faces)
        fibers = {}
        for i in wt.heavy():
            (j,) = induced_face_map(fam, (i,))
            fibers.setdefault(j, []).append(i)
        for family in (fam, family_from_json(family_to_json(fam), weights)):
            for face in {*faces, *(face for face, _ in checked)}:
                assert maps._face_image(family, wt, face) == induced_face_map(family, face)
            assert vertex_fibers(family) == {j: tuple(vs) for j, vs in sorted(fibers.items())}
            rep = verify_poset_map(weights, degrees, family)
            assert rep.family_violations == ()
            assert (rep.property2_records, rep.order_witness, rep.scope) == \
                scanned_poset_map(weights, degrees, family)


#: Vertex weights for random weighted complexes: divisor chains, coprime
#: values and products of them.
MAP_WEIGHTS = (1, 2, 3, 4, 6, 7, 10, 12, 15, 30, 60)


@st.composite
def weighted_complexes(draw, max_vertices):
    n = draw(st.integers(1, max_vertices))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
                           min_size=1, max_size=4))
    cx = Complex.from_facets(n, facets)
    return WeightedComplex(cx, {v: draw(st.sampled_from(MAP_WEIGHTS))
                                for v in cx.vertices})


@st.composite
def weighted_maps(draw):
    """A map between random weighted complexes on up to 6 and 5 labels.
    Half the maps may send vertices outside the target: to a negative
    label, one past its range, or one in range but in no facet."""
    src = draw(weighted_complexes(6))
    tgt = draw(weighted_complexes(5))
    image = st.sampled_from(tgt.complex.vertices)
    if draw(st.booleans()):
        image = st.one_of(image, st.integers(-1, tgt.complex.n_vertices + 1))
    return WeightedMap(src, tgt, {v: draw(image) for v in src.complex.vertices})


def swept_validation(fmap):
    """The first face, in (cardinality, lex) order, whose image is not a
    target face; the first whose image is a target face whose weight the
    face weight does not divide; and whether some facet is contracted."""
    src, tgt, at = fmap
    tgt_vertices = set(tgt.complex.vertices)
    simplicial_witness = weighted_witness = None
    for face in complex_faces(src.complex):
        img = frozenset(at[v] for v in face)
        if not (img <= tgt_vertices and tgt.complex.is_face(img)):
            if simplicial_witness is None:
                simplicial_witness = face
        elif tgt.face_weight(img) % src.face_weight(face) and weighted_witness is None:
            weighted_witness = face
    contracted = any(len({at[v] for v in f}) < len(f) for f in src.complex.facets)
    return simplicial_witness, weighted_witness, contracted


def map_ladder_pair(m):
    """Weights 1^3 + (6, 10, 15)^m and degrees 30^m + (16, 21, 25): no
    non-contracting map exists, and the stratum count shows it."""
    return [1] * 3 + [6, 10, 15] * m, [30] * m + [16, 21, 25]


#: Heavy values and degrees for the map referee: a divisor chain, coprime
#: values and their products, so that some pairs have maps and some not.
REFEREE_VALUES = (2, 3, 4, 6, 10, 15, 30)
REFEREE_DEGREES = (2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 20, 30, 60)


class TestValidateWeightedMap:
    def test_missing_assignment(self):
        src = singular_complex((2, 2))
        tgt = singular_complex((2, 3))
        fmap = WeightedMap(src, tgt, {0: 0})
        with pytest.raises(InputError):
            validate_weighted_map(fmap)

    def test_simplicial_failure(self):
        src = singular_complex((2, 2))       # edge {0,1}
        tgt = singular_complex((2, 3))       # two isolated vertices
        fmap = WeightedMap(src, tgt, {0: 0, 1: 1})
        v = validate_weighted_map(fmap)
        assert not v.simplicial
        assert v.simplicial_witness == (0, 1)
        assert not v.valid

    def test_weighted_failure(self):
        src = singular_complex((3, 3))       # edge, face weight 3
        tgt = singular_complex((4, 6))       # edge {0,1}
        fmap = WeightedMap(src, tgt, {0: 1, 1: 0})
        v = validate_weighted_map(fmap)
        assert v.simplicial
        assert not v.weighted
        assert v.weighted_witness == (1,)    # 3 does not divide 4

    def test_contraction_detected(self):
        src = singular_complex((2, 2))
        tgt = singular_complex((4, 12))
        fmap = WeightedMap(src, tgt, {0: 1, 1: 1})
        v = validate_weighted_map(fmap)
        assert v.valid
        assert v.contracts_face == (0, 1)
        assert not v.noncontracting

    def test_clean_map(self):
        src = singular_complex((2, 3))
        tgt = singular_complex((6, 35))
        fmap = WeightedMap(src, tgt, {0: 0, 1: 0})
        v = validate_weighted_map(fmap)
        assert v.valid and v.noncontracting

    @given(weighted_maps())
    @example(WeightedMap(    # a triangle onto the boundary of a triangle
        WeightedComplex(Complex.from_facets(3, [{0, 1, 2}]), {0: 2, 1: 2, 2: 2}),
        WeightedComplex(Complex.from_facets(3, [{0, 1}, {0, 2}, {1, 2}]),
                        {0: 4, 1: 6, 2: 2}),
        {0: 0, 1: 1, 2: 2}))
    @example(WeightedMap(    # a target without facets
        WeightedComplex(Complex.from_facets(3, [{0, 1}, {1, 2}]), {0: 2, 1: 6, 2: 3}),
        WeightedComplex(Complex.from_facets(2, []), {}),
        {0: 0, 1: 1, 2: 1}))
    @settings(deadline=None, max_examples=400)
    def test_matches_a_sweep_over_every_face(self, fmap):
        src, tgt, at = fmap
        simplicial_witness, weighted_witness, contracted = swept_validation(fmap)
        v = validate_weighted_map(fmap)
        assert (v.simplicial, v.simplicial_witness) == (
            simplicial_witness is None, simplicial_witness)
        assert (v.weighted, v.weighted_witness) == (
            weighted_witness is None, weighted_witness)
        assert v.noncontracting == (not contracted)
        if v.contracts_face is not None:
            first, second = v.contracts_face
            assert first < second and at[first] == at[second]
            assert src.complex.is_face(v.contracts_face)


    def test_seventeen_vertex_simplex(self):
        # a facet on 17 vertices has 2^17 - 1 faces, none of them listed
        simplex = WeightedComplex(Complex.from_facets(17, [range(17)]),
                                  {v: 2 for v in range(17)})
        boundary = WeightedComplex(
            Complex.from_facets(17, [set(range(17)) - {v} for v in range(17)]),
            {v: 2 for v in range(17)})
        identity = {v: v for v in range(17)}
        v = validate_weighted_map(WeightedMap(simplex, simplex, identity))
        assert v.valid and v.noncontracting
        v = validate_weighted_map(WeightedMap(simplex, boundary, identity))
        assert v.simplicial_witness == tuple(range(17))
        assert v.weighted and v.noncontracting

    def test_twenty_one_vertex_simplex_onto_its_boundary(self):
        # the witness is the one minimal non-face of the boundary, 21 vertices
        simplex = WeightedComplex(Complex.from_facets(21, [range(21)]),
                                  {v: 2 for v in range(21)})
        boundary = WeightedComplex(
            Complex.from_facets(21, [set(range(21)) - {v} for v in range(21)]),
            {v: 2 for v in range(21)})
        v = validate_weighted_map(WeightedMap(simplex, boundary, {v: v for v in range(21)}))
        assert v.simplicial is False
        assert v.simplicial_witness == tuple(range(21))
        assert v.weighted and v.noncontracting


class TestFindNoncontractingMap:
    def test_two_points_onto_edge(self):
        found = find_noncontracting_map((2, 3), (6, 6))
        assert found is not None
        assert found.vertex_assignment == {0: 0, 1: 0}
        v = validate_weighted_map(found)
        assert v.valid and v.noncontracting

    def test_search_depth_is_not_bounded_by_the_stack(self):
        # 1,100 vertices on one facet, one level each
        assert 1100 > sys.getrecursionlimit()
        found = find_noncontracting_map([2] * 1100, [2] * 1100)
        assert found is not None
        v = validate_weighted_map(found)
        assert v.valid and v.noncontracting

    def test_reference_instance_has_none(self):
        # every heavy weight divides only the last degree, so all three
        # vertices would collapse onto one target vertex
        assert find_noncontracting_map(RHO, MU) is None

    def test_empty_source(self):
        found = find_noncontracting_map((1, 1), (4, 6))
        assert found is not None
        assert found.vertex_assignment == {}

    def test_empty_target(self):
        assert find_noncontracting_map((2, 2), (3,)) is None

    def test_found_maps_are_valid(self):
        for rho, mu in [((2, 2), (4, 8)), ((2, 3, 5), (30, 30)),
                        ((6, 10, 15), (60, 60, 60))]:
            found = find_noncontracting_map(rho, mu)
            if found is not None:
                v = validate_weighted_map(found)
                assert v.valid and v.noncontracting

    def test_node_budget(self, monkeypatch):
        # the stratum count passes: each stratum's domains are large enough;
        # the search answers None after trying 2,993 assignments
        weights = [1] * 3 + [6, 10, 15] * 4
        degrees = [30] * 4 + [42] * 2 + [70] * 2 + [105] * 2
        monkeypatch.setattr(maps, "DEFAULT_NODE_BUDGET", 2_992)
        with pytest.raises(ResourceLimitError, match=(
                "non-contracting map search exceeded the node budget 2992")):
            find_noncontracting_map(weights, degrees)
        monkeypatch.setattr(maps, "DEFAULT_NODE_BUDGET", 2_993)
        assert find_noncontracting_map(weights, degrees) is None

    @pytest.mark.parametrize("m", [8, 12, 20])
    def test_stratum_count_refutes_the_ladder(self, monkeypatch, m):
        # stratum 2 holds 2m vertices whose only targets are the m degrees
        # 30, so no node is spent
        monkeypatch.setattr(maps, "DEFAULT_NODE_BUDGET", 0)
        assert find_noncontracting_map(*map_ladder_pair(m)) is None

    @given(st.lists(st.sampled_from(REFEREE_VALUES), max_size=6),
           st.integers(0, 1),
           st.lists(st.sampled_from(REFEREE_DEGREES), max_size=4))
    @example([6, 10, 15, 6, 10, 15], 1, [30, 30, 16, 21])
    @example([2, 2], 0, [4, 8])
    @settings(deadline=None, max_examples=300)
    def test_matches_the_brute_force(self, heavy, ones, degrees):
        weights = [1] * ones + heavy or [1]
        found = find_noncontracting_map(weights, degrees)
        expected = brute_force_map(weights, degrees)
        assert (found is None) == (expected is None)
        if found is not None:
            assert found.vertex_assignment == expected.vertex_assignment

    @given(st.lists(st.sampled_from(REFEREE_VALUES), min_size=7, max_size=10),
           st.lists(st.sampled_from((0, 1, 2, 3, 7)), min_size=10, max_size=10),
           st.lists(st.sampled_from(REFEREE_DEGREES), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_maps_past_the_referee_are_valid(self, heavy, multipliers, extra):
        # a multiple of each kept weight plants a map; 0 drops the degree
        degrees = [w * k for w, k in zip(heavy, multipliers) if k] + extra
        found = find_noncontracting_map([1] + heavy, degrees)
        if found is not None:
            v = validate_weighted_map(found)
            assert v.valid and v.noncontracting

    def test_five_cycle_gcd_graph_has_no_map(self):
        # 6, 15, 35, 77, 22 share the primes 3, 5, 7, 11, 2 around a 5-cycle,
        # whose edges are the facets. Both targets take every vertex, and two
        # images cannot tell an odd cycle's neighbours apart. A relaxation that
        # only bounds the copies per clique and target finds room here.
        weights, degrees = (1, 6, 15, 35, 77, 22), (2310, 2310)
        assert find_noncontracting_map(weights, degrees) is None
        assert brute_force_map(weights, degrees) is None

    def test_brute_force_refuses_seven_vertices(self):
        with pytest.raises(ResourceLimitError, match="at most 6 source vertices"):
            brute_force_map([2] * 7, [2])
