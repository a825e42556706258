import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wciq import complexes
from wciq.arith import WeightTuple
from wciq.complexes import (
    Complex,
    WeightedComplex,
    base_complex,
    minimal_nonfaces,
    singular_complex,
    sr_presentation,
)
from wciq.errors import InputError, ResourceLimitError
from wciq.oracles import (
    brute_force_representable,
    complex_faces,
    distinct_prime_factors,
    maximal_members,
)

from helpers import all_faces_by_definition, faces_of, random_complex, subset_gcd

#: Small primes, primes next to 2^16, and primes that trial division
#: could not reach in reasonable time.
PRIME_POOL = (2, 3, 5, 7, 65521, 65537, 65539, 1_000_003, 1_000_033, 10 ** 24 + 7)


class TestComplex:
    def test_from_facets_drops_non_maximal(self):
        cx = Complex.from_facets(3, [[0], [0, 1], [1, 2], [2]])
        assert cx.facets == frozenset({frozenset({0, 1}), frozenset({1, 2})})

    def test_from_facets_validates(self):
        with pytest.raises(InputError):
            Complex.from_facets(2, [[0, 2]])
        with pytest.raises(InputError):
            Complex.from_facets(2, [[]])
        with pytest.raises(InputError):
            Complex.from_facets(-1, [])

    def test_vertices_and_is_face(self):
        cx = Complex.from_facets(5, [[0, 1, 3]])
        assert cx.vertices == (0, 1, 3)
        assert cx.is_face([0, 3])
        assert cx.is_face([])  # nonempty complex
        assert not cx.is_face([0, 2])
        assert not Complex.from_facets(4, []).is_face([])

    def test_faces_order_and_limit(self):
        cx = Complex.from_facets(3, [[0, 1], [1, 2]])
        assert complex_faces(cx) == [(0,), (1,), (2,), (0, 1), (1, 2)]
        assert complex_faces(cx, 3) is None
        assert complex_faces(cx, 5) is not None

    def test_sorted_facets(self):
        cx = Complex.from_facets(4, [[2, 3], [0, 1]])
        assert cx.sorted_facets() == [(0, 1), (2, 3)]

    @given(st.integers(0, 60))
    @settings(deadline=None, max_examples=60)
    def test_faces_downward_closed(self, seed):
        cx = random_complex(random.Random(seed))
        fs = faces_of(cx)
        for f in list(fs):
            for v in f:
                if len(f) > 1:
                    assert f - {v} in fs


class TestWeightedComplex:
    def test_weight_keys_must_match_vertices(self):
        cx = Complex.from_facets(3, [[0, 1]])
        with pytest.raises(InputError):
            WeightedComplex(cx, {0: 2})
        with pytest.raises(InputError):
            WeightedComplex(cx, {0: 2, 1: 2, 2: 2})
        WeightedComplex(cx, {0: 2, 1: 2})

    def test_face_weight(self):
        cx = Complex.from_facets(3, [[0, 1, 2]])
        wc = WeightedComplex(cx, {0: 6, 1: 10, 2: 15})
        assert wc.face_weight([0, 1]) == 2
        assert wc.face_weight([0]) == 6
        assert wc.face_weight([0, 1, 2]) == 1
        with pytest.raises(InputError):
            wc.face_weight([])


class TestSingularComplex:
    @pytest.mark.parametrize("t", [0, 1])
    def test_reference_facets(self, t):
        rho = tuple([1] * (t + 1) + [6, 10, 15])
        got = singular_complex(rho).complex.facets
        want = frozenset({
            frozenset({t + 1, t + 2}),
            frozenset({t + 1, t + 3}),
            frozenset({t + 2, t + 3}),
        })
        assert got == want

    def test_coprime_weights_have_no_edges(self):
        wc = singular_complex((2, 3))
        assert wc.complex.facets == frozenset({frozenset({0}), frozenset({1})})

    def test_all_ones_is_void(self):
        assert singular_complex((1, 1, 1)).complex.facets == frozenset()

    def test_weights_are_restricted_to_vertices(self):
        wc = singular_complex((1, 4, 6))
        assert wc.vertex_weights == {1: 4, 2: 6}

    @given(st.lists(st.lists(st.sampled_from(PRIME_POOL), max_size=3),
                    min_size=1, max_size=7))
    @settings(deadline=None, max_examples=150)
    def test_prime_strata(self, factors):
        """Facets against the strata {i : p | a_i} of the primes the weights
        are products of, including products of two primes past 2^16."""
        weights = [math.prod(f) for f in factors]
        wt = WeightTuple.of(weights)
        strata = [wt.divisible_by(p) for p in PRIME_POOL]
        want = Complex.from_facets(len(weights), [s for s in strata if s])
        assert singular_complex(weights).complex == want

    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=7))
    @settings(deadline=None, max_examples=150)
    def test_prime_strata_by_trial_division(self, weights):
        wt = WeightTuple.of(weights)
        primes = {p for a in weights for p in distinct_prime_factors(a)}
        want = Complex.from_facets(len(weights), [wt.divisible_by(p) for p in primes])
        assert singular_complex(weights).complex == want

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=7))
    @settings(deadline=None, max_examples=150)
    def test_membership_is_gcd_above_one(self, weights):
        wc = singular_complex(weights)
        got = faces_of(wc.complex)
        want = all_faces_by_definition(
            weights, lambda c: subset_gcd(weights, c) > 1)
        assert got == want


class TestBaseComplex:
    @pytest.mark.parametrize("t", [0, 1])
    def test_reference_facets(self, t):
        rho = tuple([1] * (t + 1) + [6, 10, 15])
        a, b, c = t + 1, t + 2, t + 3
        cases = {
            16: {frozenset({a, c}), frozenset({b, c})},
            21: {frozenset({a, b}), frozenset({b, c})},
            25: {frozenset({a, b}), frozenset({a, c})},
            30: set(),
        }
        for d, want in cases.items():
            assert base_complex(rho, d).complex.facets == frozenset(want)

    def test_rejects_bad_degree(self):
        with pytest.raises(InputError):
            base_complex((2, 3), 0)
        with pytest.raises(InputError):
            base_complex((2, 3), True)

    def test_cap_is_reported(self):
        with pytest.raises(ResourceLimitError):
            base_complex((3, 7), 10**7, dp_cap=10**6)

    def test_value_count_guard(self):
        # degree 1 is represented by no value set, so all 2^21 value sets
        # are faces, of the one facet the search finds
        primes = [p for p in range(2, 80) if all(p % q for q in range(2, p))][:21]
        start = time.perf_counter()
        wc = base_complex([1] + primes, 1)
        assert time.perf_counter() - start < 1.0
        assert wc.complex.sorted_facets() == [tuple(range(1, 22))]

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6),
           st.integers(1, 120))
    @settings(deadline=None, max_examples=150)
    def test_membership_is_non_representability(self, weights, d):
        wc = base_complex(weights, d)
        got = faces_of(wc.complex)
        want = all_faces_by_definition(
            weights,
            lambda c: not brute_force_representable(
                d, [weights[i] for i in c]))
        assert got == want


class TestMaximalMembers:
    def test_interval_family(self):
        # downward-closed family: subsets of {0,1} or of {2}
        fam = {frozenset(s) for s in [(0,), (1,), (2,), (0, 1)]}
        out = maximal_members([0, 1, 2], lambda s: s in fam)
        assert out == [frozenset({0, 1}), frozenset({2})]

    def test_empty_family(self):
        assert maximal_members([0, 1], lambda s: False) == []


class TestMinimalNonfaces:
    def test_triangle_boundary(self):
        cx = Complex.from_facets(3, [[0, 1], [0, 2], [1, 2]])
        assert minimal_nonfaces(cx) == [frozenset({0, 1, 2})]

    def test_void_complex(self):
        assert minimal_nonfaces(Complex.from_facets(2, [])) == [frozenset()]

    def test_unused_label_is_singleton_nonface(self):
        cx = Complex.from_facets(3, [[0, 1]])
        assert minimal_nonfaces(cx) == [frozenset({2})]

    def test_within_restriction(self):
        cx = Complex.from_facets(4, [[0, 1], [0, 2], [1, 2]])
        assert minimal_nonfaces(cx, within=[0, 1, 2]) == [frozenset({0, 1, 2})]

    def test_face_iff_no_generator(self):
        cx = Complex.from_facets(4, [[0, 1, 2], [2, 3]])
        gens = minimal_nonfaces(cx)
        fs = faces_of(cx)
        for r in range(1, 5):
            for combo in combinations(range(4), r):
                s = frozenset(combo)
                assert (s in fs) == (not any(g <= s for g in gens))

    def test_large_complexes_exactly(self):
        # past 20 vertices: the work follows the answer, not the vertex count
        assert minimal_nonfaces(Complex.from_facets(25, [list(range(25))])) == []
        boundary = Complex.from_facets(21, [set(range(21)) - {v} for v in range(21)])
        assert minimal_nonfaces(boundary) == [frozenset(range(21))]
        # the padded rung: 100 ones, then classes of 6, 5, 5 and 5 copies
        weights = [1] * 100 + [2] * 6 + [3] * 5 + [5] * 5 + [7] * 5
        classes = (range(100, 106), range(106, 111), range(111, 116), range(116, 121))
        pairs = sorted((u, v) for a, b in combinations(classes, 2) for u in a for v in b)
        assert len(pairs) == 165
        assert sr_presentation(singular_complex(weights)).generators == \
            tuple(map(frozenset, pairs))

    def test_large_answer_in_time(self):
        # 6,169 non-faces: each candidate is checked against the 20 facet
        # complements, not against the family built so far (5 s that way)
        facets = [set(range(24)) - {(7 * i + j * j) % 24 for j in range(1, 6)}
                  for i in range(20)]
        start = time.perf_counter()
        gens = minimal_nonfaces(Complex.from_facets(24, facets))
        assert time.perf_counter() - start < 2.0
        assert len(gens) == 6169
        for g in gens[::97]:
            assert not any(g <= f for f in facets)
            assert all(any(g - {v} <= f for f in facets) for v in g)

    def test_search_budget(self, monkeypatch):
        # the boundary of the 9-simplex: 9 grown sets, then 1 expansion
        boundary = Complex.from_facets(9, [set(range(9)) - {v} for v in range(9)])
        monkeypatch.setattr(complexes, "DEFAULT_NODE_BUDGET", 9)
        with pytest.raises(ResourceLimitError, match=(
                "minimal non-face search exceeded the node budget 9")):
            minimal_nonfaces(boundary)
        monkeypatch.setattr(complexes, "DEFAULT_NODE_BUDGET", 10)
        assert minimal_nonfaces(boundary) == [frozenset(range(9))]


class TestSRPresentation:
    def test_reference_presentation(self):
        sr = sr_presentation(singular_complex((1, 6, 10, 15)))
        assert sr.vertices == (1, 2, 3)
        assert sr.variable_degrees == (6, 10, 15)
        assert sr.generators == (frozenset({1, 2, 3}),)

    def test_two_components(self):
        sr = sr_presentation(singular_complex((2, 3)))
        assert sr.vertices == (0, 1)
        assert sr.variable_degrees == (2, 3)
        assert sr.generators == (frozenset({0, 1}),)
