import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wciq import arith
from wciq.errors import InputError, ResourceLimitError
from wciq.oracles import naive_strictly_regular
from wciq.regularity import (
    is_linear_cone,
    is_non_divisible,
    is_strictly_regular,
    is_strongly_non_divisible,
    is_wellformed_wps,
    nondivisible_complex,
    pair_is_trivial,
    pair_nontriviality_witness,
    pair_trivial_all_indices,
    strongly_nondivisible_complex,
)

from helpers import faces_of


class TestWellFormed:
    @pytest.mark.parametrize("weights,expect", [
        ((1, 1, 2), True),
        ((1, 6, 10, 15), True),
        ((2, 2, 3), False),
        ((2, 3), False),
        ((1, 2, 3), True),
        ((5,), False),
        ((1,), False),
        ((1, 1), True),
    ])
    def test_cases(self, weights, expect):
        assert is_wellformed_wps(weights) is expect


class TestLinearCone:
    def test_cases(self):
        assert is_linear_cone((1, 2, 3), (3, 5)) is True
        assert is_linear_cone((1, 2, 3), (4, 5)) is False
        assert is_linear_cone((1, 2), ()) is False


class TestDivisibility:
    def test_non_divisible(self):
        assert is_non_divisible((6, 10, 15), [0, 1, 2]) is True
        assert is_non_divisible((2, 4), [0, 1]) is False
        assert is_non_divisible((2, 2), [0, 1]) is False
        assert is_non_divisible((7,), [0]) is True
        assert is_non_divisible((7,), []) is True

    def test_strongly_non_divisible(self):
        # lcm of pairwise gcds of (6,10,15) is 30 and 6 | 30
        assert is_strongly_non_divisible((6, 10, 15), [0, 1, 2]) is False
        assert is_strongly_non_divisible((6, 10, 15), [0, 1]) is True
        assert is_strongly_non_divisible((6,), [0]) is True
        assert is_strongly_non_divisible((1, 6), [0]) is False

    def test_subset_validation(self):
        with pytest.raises(InputError):
            is_non_divisible((2, 3), [2])

    @given(st.lists(st.integers(2, 60), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=120)
    def test_strong_implies_plain(self, weights):
        snd = strongly_nondivisible_complex(weights)
        for face in faces_of(snd):
            assert is_non_divisible(weights, face)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=120)
    def test_complexes_are_downward_closed(self, weights):
        for cx, pred in (
                (nondivisible_complex(weights), is_non_divisible),
                (strongly_nondivisible_complex(weights), is_strongly_non_divisible)):
            for face in faces_of(cx):
                assert pred(weights, face)


class TestPairTriviality:
    def test_reference_witness(self):
        rho = tuple([1] * 62 + [6, 10, 15])
        assert pair_nontriviality_witness(rho) == frozenset({62, 63, 64})

    def test_trivial_pair(self):
        assert pair_nontriviality_witness((1, 2, 3)) is None
        assert pair_nontriviality_witness((1, 1, 1, 1, 1, 2)) is None

    def test_facet_sets(self):
        rho = (1, 1, 6, 10, 15)
        nd = nondivisible_complex(rho)
        snd = strongly_nondivisible_complex(rho)
        assert nd.facets == frozenset({frozenset({2, 3, 4})})
        assert snd.facets == frozenset({
            frozenset({2, 3}), frozenset({2, 4}), frozenset({3, 4})})

    def test_literal_reading_counts_ones(self):
        # a weight-1 singleton is non-divisible but never strongly so
        assert pair_trivial_all_indices((2, 3)) is True
        assert pair_trivial_all_indices((1, 2, 3)) is False

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=120)
    def test_witness_agrees_with_facet_comparison(self, weights):
        nd = nondivisible_complex(weights)
        snd = strongly_nondivisible_complex(weights)
        witness = pair_nontriviality_witness(weights)
        assert (witness is None) == (nd.facets == snd.facets)
        if witness is not None:
            assert is_non_divisible(weights, witness)
            assert not is_strongly_non_divisible(weights, witness)


class TestDivisibilityGuard:
    # 21 pairwise coprime values: every value set is non-divisible, and
    # strongly so, so both complexes have the one facet of all 21 values
    WEIGHTS = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73]

    @pytest.mark.parametrize("fn", [pair_is_trivial, nondivisible_complex,
                                    pair_trivial_all_indices, pair_nontriviality_witness])
    def test_answered_past_twenty_values(self, fn):
        # answered at once, no longer refused: the two families agree, and
        # the weight-1 index is a non-divisible facet that is not strongly so
        facet = tuple(range(1, 22))
        answered = {
            pair_is_trivial: lambda rep: rep.pair_trivial and (
                rep.nondivisible_facets == rep.strongly_nondivisible_facets == (facet,)),
            nondivisible_complex: lambda cx: cx.sorted_facets() == [facet],
            pair_trivial_all_indices: lambda literal: literal is False,
            pair_nontriviality_witness: lambda witness: witness is None,
        }[fn]
        start = time.perf_counter()
        result = fn(self.WEIGHTS)
        assert time.perf_counter() - start < 1.0
        assert answered(result)

    def test_twenty_values_with_many_facets(self):
        # p | 2p for ten odd primes p: 2^10 facets of each complex, found
        # within the divisibility search's budget, pairs read included
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        report = pair_is_trivial([1] + primes + [2 * p for p in primes])
        assert report.pair_trivial
        assert len(report.nondivisible_facets) == len(report.strongly_nondivisible_facets) == 1024


class TestStrictRegularity:
    def test_reference_positive(self):
        ok, witness = is_strictly_regular((1, 6, 10, 15), (16, 21, 25, 30))
        assert ok is True and witness is None

    def test_reference_negative_minimal_witness(self):
        # all three indices share the single usable degree, but the
        # smallest violating subset is already the pair
        ok, witness = is_strictly_regular((2, 2, 2), (2, 3))
        assert ok is False
        assert witness == (0, 1)

    def test_three_index_witness(self):
        ok, witness = is_strictly_regular((2, 2, 2), (4, 6))
        assert ok is False
        assert witness == (0, 1, 2)

    def test_two_indices_two_degrees(self):
        ok, witness = is_strictly_regular((2, 2), (4, 6))
        assert ok is True and witness is None

    def test_no_heavy_indices(self):
        ok, witness = is_strictly_regular((1, 1), (5,))
        assert ok is True and witness is None

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6),
           st.lists(st.integers(1, 60), min_size=0, max_size=4))
    @settings(deadline=None, max_examples=150)
    def test_matches_subset_sweep(self, weights, degrees):
        assert is_strictly_regular(weights, degrees) == \
            naive_strictly_regular(weights, degrees)


class TestReport:
    def test_with_degrees(self):
        rep = pair_is_trivial((1, 1, 6, 10, 15), (16, 21, 25, 30))
        assert rep.well_formed is True
        assert rep.linear_cone is False
        assert rep.strictly_regular is True
        assert rep.violating_subset is None
        assert rep.pair_trivial is False
        assert rep.nondivisible_facets == ((2, 3, 4),)
        assert rep.strongly_nondivisible_facets == ((2, 3), (2, 4), (3, 4))

    def test_without_degrees(self):
        rep = pair_is_trivial((1, 2, 3))
        assert rep.linear_cone is None
        assert rep.strictly_regular is None
        assert rep.violating_subset is None
        assert rep.pair_trivial is True

    def test_kept_facts_do_not_grow_with_the_value_classes(self):
        # 2, 3, 5 and 7, ten indices each: 10^4 facets in each complex, which
        # the process must not keep once the report is gone
        weights = [2, 3, 5, 7] * 10
        arith.weight_facts.cache_clear()
        tracemalloc.start()
        try:
            rep = pair_is_trivial(weights)
            assert len(rep.nondivisible_facets) == len(rep.strongly_nondivisible_facets) == 10 ** 4
            held, _ = tracemalloc.get_traced_memory()
            del rep
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < held // 4
