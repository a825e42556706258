import random
import time
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_complex
from wciq.complexes import Complex, singular_complex
from wciq.errors import InputError, ResourceLimitError
from wciq.maps import find_noncontracting_map, validate_weighted_map
from wciq.oracles import lcm_descent_realization
from wciq.realize import (
    contraction_instance,
    first_primes,
    realize_map_instance,
    realize_weights,
    skeleton,
    verify_realization,
)
from wciq.regularity import is_linear_cone


class TestFirstPrimes:
    def test_start(self):
        assert first_primes(5) == [2, 3, 5, 7, 11]

    def test_offset(self):
        assert first_primes(3, offset=2) == [5, 7, 11]
        assert first_primes(0) == []

    @pytest.mark.parametrize("offset", [-2, 1.0, True])
    def test_offset_not_an_index(self, offset):
        with pytest.raises(InputError, match="prime offset must be a non-negative integer"):
            first_primes(3, offset)
        with pytest.raises(InputError, match="prime offset must be a non-negative integer"):
            realize_weights(Complex.from_facets(2, [{0, 1}]), prime_offset=offset)


class TestSkeleton:
    def test_full_simplex(self):
        cx = skeleton(3, 2)
        assert cx.facets == frozenset({frozenset({0, 1, 2})})

    def test_graph(self):
        cx = skeleton(4, 1)
        assert len(cx.facets) == 6

    def test_range(self):
        with pytest.raises(InputError):
            skeleton(3, 3)
        with pytest.raises(InputError):
            skeleton(3, -1)


class TestRealizeWeights:
    def test_single_edge(self):
        res = realize_weights(Complex.from_facets(2, [{0, 1}]))
        assert tuple(res.weights) == (2, 2)

    def test_two_points(self):
        res = realize_weights(Complex.from_facets(2, [{0}, {1}]))
        assert tuple(res.weights) == (2, 3)

    def test_tetrahedron_graph(self):
        res = realize_weights(skeleton(4, 1))
        assert tuple(res.weights) == (30, 154, 273, 715)

    def test_unused_label_weight_one(self):
        res = realize_weights(Complex.from_facets(3, [{0, 2}]))
        assert tuple(res.weights) == (2, 1, 2)

    def test_no_facets(self):
        with pytest.raises(InputError):
            realize_weights(Complex.from_facets(3, []))

    def test_prime_offset(self):
        res = realize_weights(Complex.from_facets(2, [{0, 1}]), prime_offset=3)
        assert tuple(res.weights) == (7, 7)

    def test_face_value_law(self):
        # every face value is the lcm of the primes of the facets above it
        cx = skeleton(4, 2)
        res = realize_weights(cx)
        for face, value in res.face_values.items():
            above = [p for f, p in res.prime_assignment.items() if face <= f]
            assert value == lcm(*above)

    def test_values_cover_every_face(self):
        cx = Complex.from_facets(5, [{0, 1, 2}, {2, 3}, {4}])
        res = realize_weights(cx)
        faces = {f for f in res.face_values}
        for facet in cx.facets:
            n = len(facet)
            members = sorted(facet)
            for k in range(1, n + 1):
                for c in combinations(members, k):
                    assert frozenset(c) in faces

    def test_gcd_over_face_equals_value(self):
        cx = Complex.from_facets(5, [{0, 1, 2}, {2, 3}, {4}])
        res = realize_weights(cx)
        for face, value in res.face_values.items():
            assert gcd(*(res.weights[i] for i in face)) == value

    @given(st.integers(1, 9), st.data(), st.integers(0, 3))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_lcm_descent(self, n, data, offset):
        facets = data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=12))
        cx = Complex.from_facets(n, facets)
        res = realize_weights(cx, prime_offset=offset)
        weights, face_values, primes = lcm_descent_realization(cx, prime_offset=offset)
        assert tuple(res.weights) == weights
        assert res.prime_assignment == primes
        assert res.face_values == face_values

    def test_large_facet_in_time(self):
        cx = Complex.from_facets(18, [range(18)])
        start = time.perf_counter()
        res = realize_weights(cx)
        assert time.perf_counter() - start < 1
        assert tuple(res.weights) == (2,) * 18
        assert verify_realization(cx, res.weights)


class TestVerifyRealization:
    def test_round_trip_examples(self):
        for cx in (skeleton(4, 1), skeleton(3, 2),
                   Complex.from_facets(4, [{0, 1}, {2}, {3}])):
            res = realize_weights(cx)
            assert verify_realization(cx, res.weights)

    def test_mismatch(self):
        tri = skeleton(3, 1)
        assert not verify_realization(tri, (2, 2, 2))

    def test_empty_complex(self):
        assert verify_realization(Complex.from_facets(2, []), (1, 1))

    def test_length_check(self):
        with pytest.raises(InputError):
            verify_realization(skeleton(3, 1), (2, 2))

    def test_seeded_round_trips(self):
        rng = random.Random(20260819)
        for _ in range(200):
            cx = random_complex(rng, max_vertices=7, max_facets=12)
            if not cx.facets:
                continue
            res = realize_weights(cx)
            assert verify_realization(cx, res.weights)

    def test_many_minimal_nonfaces_cost_no_search(self):
        # facets V minus {x_i, y_i} and V minus every y_i, 42 vertices with
        # no twins: 2^21 - 1 minimal non-faces, past the default node budget,
        # which building the complex alone must not look for
        n = 21
        every = set(range(2 * n))
        cx = Complex.from_facets(2 * n, [every - {i, n + i} for i in range(n)]
                                 + [every - set(range(n, 2 * n))])
        start = time.perf_counter()
        assert verify_realization(cx, realize_weights(cx).weights)
        assert time.perf_counter() - start < 1


class TestContractionInstance:
    def test_reference_triangle(self):
        inst = contraction_instance(1, 2, 0, 5)
        assert tuple(inst.weights) == (1, 1, 1, 1, 1, 6, 10, 15)
        assert tuple(inst.degrees) == (16, 21, 25, 30)
        assert inst.image_simplex == (4,)

    def test_with_twos(self):
        inst = contraction_instance(1, 2, 1, 6)
        assert tuple(inst.degrees) == (2, 16, 21, 25, 30)
        assert inst.image_simplex == (5,)
        assert tuple(inst.weights)[:6] == (1,) * 6

    def test_side_condition_holds(self):
        inst = contraction_instance(2, 3, 1, 10)
        core = [a for a in inst.weights if a != 1]
        for a in core:
            for d in inst.degrees:
                if d != lcm(*core):
                    assert d % a != 0

    def test_not_enough_ones(self):
        with pytest.raises(InputError):
            contraction_instance(1, 2, 0, 4)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            contraction_instance(-1, 2, 0, 9)
        with pytest.raises(InputError):
            contraction_instance(1, 2, True, 9)

    def test_full_simplex_is_hopeless(self):
        # one facet means one prime, which divides its own facet sum
        with pytest.raises(ResourceLimitError):
            contraction_instance(2, 2, 0, 6)

    def test_points_are_hopeless(self):
        with pytest.raises(ResourceLimitError):
            contraction_instance(0, 1, 0, 3)

    def test_no_map_avoids_the_simplex(self):
        inst = contraction_instance(1, 2, 0, 5)
        # dropping the designated degrees leaves no weighted map at all
        kept = [d for j, d in enumerate(inst.degrees, start=1)
                if j not in inst.image_simplex]
        assert find_noncontracting_map(inst.weights, kept) is None


class TestRealizeMapInstance:
    def test_identity_on_triangle(self):
        inst = realize_map_instance(
            skeleton(3, 1), skeleton(3, 2), {0: 0, 1: 1, 2: 2},
            pad=1, ones=2)
        assert tuple(inst.weights) == (1, 1, 6, 10, 15)
        assert tuple(inst.degrees) == (12, 20, 30, 30)
        assert inst.planted.vertex_assignment == {2: 0, 3: 1, 4: 2}
        verdict = validate_weighted_map(inst.planted)
        assert verdict.valid and verdict.noncontracting

    def test_folded_edges(self):
        src = Complex.from_facets(4, [{0, 1}, {2, 3}])
        tgt = Complex.from_facets(2, [{0, 1}])
        inst = realize_map_instance(
            src, tgt, {0: 0, 1: 1, 2: 1, 3: 0}, pad=0, ones=0)
        assert tuple(inst.weights) == (2, 2, 3, 3)
        assert tuple(inst.degrees) == (6, 6)
        verdict = validate_weighted_map(inst.planted)
        assert verdict.valid and verdict.noncontracting

    def test_singleton_fiber_multiplier(self):
        src = Complex.from_facets(1, [{0}])
        tgt = Complex.from_facets(1, [{0}])
        inst = realize_map_instance(src, tgt, {0: 0}, pad=0, ones=1)
        # realized weight 2 would collide, so the degree doubles
        assert tuple(inst.weights) == (1, 2)
        assert tuple(inst.degrees) == (4,)

    def test_no_fiber_degree_is_a_weight(self):
        # the fiber {1, 2} has lcm 6, the weight of vertex 0
        src = Complex.from_facets(3, [{0, 1}, {0, 2}])
        tgt = Complex.from_facets(2, [{0, 1}])
        inst = realize_map_instance(src, tgt, {0: 0, 1: 1, 2: 1}, pad=0, ones=0)
        assert tuple(inst.weights) == (6, 2, 3)
        assert tuple(inst.degrees) == (12, 12)
        assert not is_linear_cone(inst.weights, inst.degrees)

    def test_no_pad_degree_is_a_weight(self):
        # vertex 0 lies in every facet, so the lcm of all weights is its weight 6
        src = Complex.from_facets(3, [{0, 1}, {0, 2}])
        tgt = Complex.from_facets(2, [{0, 1}])
        inst = realize_map_instance(src, tgt, {0: 0, 1: 1, 2: 1}, pad=1, ones=0)
        assert tuple(inst.weights) == (6, 2, 3)
        assert tuple(inst.degrees) == (12, 12, 12)
        assert not is_linear_cone(inst.weights, inst.degrees)

    def test_missing_assignment(self):
        with pytest.raises(InputError):
            realize_map_instance(
                skeleton(3, 1), skeleton(3, 2), {0: 0, 1: 1}, pad=0, ones=0)

    def test_extra_keys(self):
        with pytest.raises(InputError):
            realize_map_instance(
                skeleton(2, 1), skeleton(2, 1), {0: 0, 1: 1, 7: 0},
                pad=0, ones=0)

    def test_image_outside_target(self):
        with pytest.raises(InputError):
            realize_map_instance(
                skeleton(2, 1), skeleton(2, 1), {0: 0, 1: 9}, pad=0, ones=0)

    def test_not_surjective(self):
        with pytest.raises(InputError):
            realize_map_instance(
                skeleton(2, 1), skeleton(3, 2), {0: 0, 1: 1}, pad=0, ones=0)

    def test_contracting_assignment(self):
        with pytest.raises(InputError) as err:
            realize_map_instance(
                skeleton(3, 1), Complex.from_facets(2, [{0, 1}]),
                {0: 0, 1: 1, 2: 0}, pad=0, ones=0)
        assert "(0, 2)" in str(err.value)

    def test_contraction_in_the_first_facet(self):
        # (1, 2) is the least contracted pair, but (0, 5, 6) comes first
        with pytest.raises(InputError, match=r"contracts the face \(5, 6\)"):
            realize_map_instance(
                Complex.from_facets(7, [{0, 5, 6}, {1, 2}]),
                Complex.from_facets(3, [{0, 1, 2}]),
                {0: 0, 5: 1, 6: 1, 1: 2, 2: 2}, pad=0, ones=0)

    def test_negative_padding(self):
        with pytest.raises(InputError):
            realize_map_instance(
                skeleton(2, 1), skeleton(2, 1), {0: 0, 1: 1}, pad=-1, ones=0)

    def test_seeded_instances_validate(self):
        rng = random.Random(97)
        made = 0
        while made < 20:
            cx = random_complex(rng, max_vertices=6, max_facets=8)
            verts = cx.vertices
            if len(verts) < 2:
                continue
            perm = list(verts)
            rng.shuffle(perm)
            assignment = dict(zip(verts, perm))
            tgt = Complex.from_facets(max(verts) + 1, [set(verts)])
            inst = realize_map_instance(
                cx, tgt, assignment,
                pad=rng.randrange(3), ones=rng.randrange(3))
            verdict = validate_weighted_map(inst.planted)
            assert verdict.valid and verdict.noncontracting
            made += 1


@given(st.integers(2, 7), st.integers(0, 4))
@settings(deadline=None, max_examples=60)
def test_skeleton_realizations_round_trip(n, dim):
    if dim >= n:
        return
    cx = skeleton(n, dim)
    res = realize_weights(cx)
    assert verify_realization(cx, res.weights)
