import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from wciq.errors import InputError, PreconditionFailure, ResourceLimitError
from wciq.nef import (
    NefPartition,
    classify_partition,
    construct_strong_nef_partition,
    fano_index,
    find_nef_partition,
)
from wciq.oracles import lex_nef_search, naive_partition_exists

from helpers import odd_primes_pair

MU = (16, 21, 25, 30)
MODES = ("any", "nice", "strong")


def padded(t):
    return tuple([1] * (61 + t) + [6, 10, 15])


class TestFanoIndex:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_reference_values(self, t):
        assert fano_index(padded(t), MU) == t

    def test_can_be_negative(self):
        assert fano_index((1, 2), (5,)) == -2
        assert fano_index((1, 1, 1), ()) == 3


class TestClassifyPartition:
    def test_structure_errors(self):
        with pytest.raises(InputError):
            classify_partition((1, 2), (2,), NefPartition(((0, 1),)))
        with pytest.raises(InputError):
            classify_partition((1, 2), (2,), NefPartition(((0,), (0, 1))))
        with pytest.raises(InputError):
            classify_partition((1, 2), (2,), NefPartition(((0,), ())))
        with pytest.raises(InputError):
            classify_partition((1, 2), (2,), NefPartition(((0,), (5,))))

    @pytest.mark.parametrize("index", [1.0, True, "1", -1])
    def test_index_not_an_index(self, index):
        with pytest.raises(InputError, match=f"index {index!r} outside 0..1"):
            classify_partition((1, 2), (2,), NefPartition(((0,), (index,))))

    def test_reference_strong(self):
        cls = classify_partition(
            (1, 1, 1, 1, 1, 2), (4,), NefPartition(((0, 1, 2), (3, 4, 5))))
        assert (cls.valid, cls.nice, cls.strong) == (True, True, True)

    def test_invalid_sums(self):
        cls = classify_partition(
            (1, 1, 1, 1, 1, 2), (4,), NefPartition(((0, 1, 2, 3), (4, 5))))
        assert not cls.valid and not cls.nice and not cls.strong

    def test_nice_but_not_strong(self):
        # degree 5 is not divisible by the weight 2 in its part
        cls = classify_partition(
            (1, 2, 3), (5,), NefPartition(((0,), (1, 2))))
        assert cls.valid and cls.nice and not cls.strong

    def test_valid_but_not_nice(self):
        # leftover part holds only the heavy weight
        cls = classify_partition(
            (2, 1, 3), (4,), NefPartition(((0,), (1, 2))))
        assert cls.valid and not cls.nice and not cls.strong

    def test_satisfies(self):
        cls = classify_partition(
            (1, 2, 3), (5,), NefPartition(((0,), (1, 2))))
        assert cls.satisfies("any") and cls.satisfies("nice")
        assert not cls.satisfies("strong")
        with pytest.raises(InputError):
            cls.satisfies("best")


class TestFindNefPartition:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_reference_has_no_strong_partition(self, t):
        assert find_nef_partition(padded(t), MU, "strong") is None

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_reference_has_nice_partition(self, t):
        found = find_nef_partition(padded(t), MU, "nice")
        assert found is not None
        cls = classify_partition(padded(t), MU, found)
        assert cls.valid and cls.nice

    def test_reference_small_instance(self):
        found = find_nef_partition((1, 1, 1, 1, 1, 2), (4,), "strong")
        assert found is not None
        assert found.parts == ((0, 1, 2), (3, 4, 5))

    def test_mode_validation(self):
        with pytest.raises(InputError):
            find_nef_partition((1, 2), (2,), "best")

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            find_nef_partition(padded(1), MU, "any", node_budget=3)

    def test_oracle_spends_one_node_per_placement(self):
        # 2 heavy indices over 2 parts: 4 placements, none a partition
        assert naive_partition_exists((1, 2, 3), (100,), "any", node_budget=4) is False
        with pytest.raises(ResourceLimitError,
                           match="^oracle partition enumeration exceeded the node budget 3$"):
            naive_partition_exists((1, 2, 3), (100,), "any", node_budget=3)

    def test_deterministic(self):
        a = find_nef_partition((1, 1, 2, 2, 3), (4, 5), "any")
        b = find_nef_partition((1, 1, 2, 2, 3), (4, 5), "any")
        assert a == b

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.lists(st.integers(1, 20), min_size=0, max_size=3),
           st.sampled_from(["any", "nice", "strong"]))
    @settings(deadline=None, max_examples=250)
    def test_existence_matches_oracle(self, weights, degrees, mode):
        found = find_nef_partition(weights, degrees, mode)
        assert (found is not None) == naive_partition_exists(weights, degrees, mode)
        if found is not None:
            assert classify_partition(weights, degrees, found).satisfies(mode)


@st.composite
def nef_pairs(draw):
    """Up to three heavy values with multiplicities up to 4, up to 6
    weight-one indices, shuffled, and 0-4 degrees."""
    classes = draw(st.lists(st.tuples(st.integers(2, 12), st.integers(1, 4)),
                            max_size=3, unique_by=lambda t: t[0]))
    n_ones = draw(st.integers(0 if classes else 1, 6))
    weights = [1] * n_ones + [v for v, m in classes for _ in range(m)]
    weights = draw(st.permutations(weights))
    degrees = draw(st.lists(st.integers(1, 30), max_size=4))
    return tuple(weights), tuple(degrees)


#: Fano index -1, 0 and 1, with and without weight-one indices, and with no
#: degrees at all.
EDGE_PAIRS = [
    ((1, 2), (4,)),
    ((2, 3), (6,)),
    ((1, 1, 2), (4,)),
    ((2, 2, 3), (7,)),
    ((1, 1, 1, 2), (4,)),
    ((1, 2, 2, 2), (6,)),
    ((2, 3, 3), (7,)),
    ((1, 1), ()),
    ((2,), ()),
    ((1, 2), ()),
]


class TestBoundedSearch:
    """The bounded search against the unbounded lex-order reference."""

    @given(nef_pairs(), st.sampled_from(MODES))
    @settings(deadline=None, max_examples=300)
    def test_same_partition_as_reference(self, pair, mode):
        weights, degrees = pair
        try:
            expected = lex_nef_search(weights, degrees, mode, node_budget=20_000)
        except ResourceLimitError:
            return
        assert find_nef_partition(weights, degrees, mode) == expected

    def test_edge_pairs_cover_the_index_boundary(self):
        indices = {fano_index(w, d) for w, d in EDGE_PAIRS}
        assert {-1, 0, 1} <= indices
        assert any(not d for _, d in EDGE_PAIRS)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("weights,degrees", EDGE_PAIRS)
    def test_edge_pairs(self, weights, degrees, mode):
        found = find_nef_partition(weights, degrees, mode)
        assert (found is not None) == naive_partition_exists(weights, degrees, mode)
        assert found == lex_nef_search(weights, degrees, mode)
        if found is not None:
            assert classify_partition(weights, degrees, found).satisfies(mode)

    def test_negative_index_is_refuted_before_the_budget(self):
        # index -1: even a budget of one node is not reached
        assert find_nef_partition((1, 2, 2), (6,), "any", node_budget=1) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_no_heavy_value_spends_no_node(self, mode):
        # nothing to distribute: the ones fill the parts without a search
        found = find_nef_partition((1, 1, 1), (2,), mode, node_budget=0)
        assert found == NefPartition(((0,), (1, 2)))

    def test_many_copies(self):
        weights = (1,) * 3 + (6, 10, 15, 21) * 4
        degrees = (41, 43, 37, 47)
        start = time.perf_counter()
        found = find_nef_partition(weights, degrees, "any")
        assert time.perf_counter() - start < 1
        assert found == NefPartition((
            (0, 6, 10), (1, 4, 5, 9), (2, 14, 18), (3, 7, 8, 13),
            (11, 12, 15, 16, 17)))
        assert found == lex_nef_search(weights, degrees, "any")

    @pytest.mark.parametrize("weights,degrees,mode,nodes,found", [
        (padded(1), MU, "strong", 10, False),
        (padded(1), MU, "nice", 15, True),
        (padded(1), MU, "any", 15, True),
        ((1, 1, 2, 2, 3), (4, 5), "any", 6, True),
        ((1,) * 10 + (2, 2, 2, 3, 3, 5), (6, 9, 10), "strong", 15, True),
    ])
    def test_pinned_node_counts(self, weights, degrees, mode, nodes, found):
        got = find_nef_partition(weights, degrees, mode, node_budget=nodes)
        assert (got is not None) == found
        with pytest.raises(ResourceLimitError):
            find_nef_partition(weights, degrees, mode, node_budget=nodes - 1)

    @pytest.mark.parametrize("mode", ["any", "nice"])
    def test_stack_grows_with_values_not_parts(self, mode):
        # 60 distinct heavy values and 41 parts: a frame per value and part
        # would need 60 * (40 + 1) frames, well past the recursion limit
        weights = (1,) * 600 + tuple(range(2, 62))
        degrees = (61,) * 40
        assert 60 * (40 + 1) > 2 * sys.getrecursionlimit()
        found = find_nef_partition(weights, degrees, mode, node_budget=2460)
        assert classify_partition(weights, degrees, found).satisfies(mode)
        assert found == lex_nef_search(weights, degrees, mode)
        with pytest.raises(ResourceLimitError):
            find_nef_partition(weights, degrees, mode, node_budget=2459)

    def test_search_depth_is_not_bounded_by_the_stack(self):
        # 1,199 distinct heavy values, two levels each: one stack frame
        # per value would pass the recursion limit
        pair = odd_primes_pair()
        weights, degrees = pair["weights"], pair["degrees"]
        assert len(set(weights)) - 1 > sys.getrecursionlimit()
        found = find_nef_partition(weights, degrees, "any")
        assert classify_partition(weights, degrees, found).valid

    def test_negative_index_past_the_old_budget(self):
        # index -6; the unbounded search runs out of its 2M nodes here
        weights = (1,) * 2 + (6, 10, 15, 21, 35, 14) * 3
        degrees = (53, 59, 61, 67, 71)
        start = time.perf_counter()
        assert find_nef_partition(weights, degrees, "any") is None
        assert time.perf_counter() - start < 1


class TestConstruct:
    def test_reference_construction(self):
        partition, family, deltas = construct_strong_nef_partition(
            (1, 1, 1, 1, 1, 2), (4,))
        assert partition.parts == ((0, 1, 2), (3, 4, 5))
        assert deltas == (2,)
        assert family.im_phi == (2,)

    def test_counting_identity(self):
        rho = tuple([1] * 11 + [2, 2, 3, 3, 5])
        mu = (6, 9, 10)
        partition, _, deltas = construct_strong_nef_partition(rho, mu)
        cls = classify_partition(rho, mu, partition)
        assert cls.strong
        # the weight-1 indices split into the Fano index many leftovers
        # plus one filler per unit of degree deficit
        assert rho.count(1) == fano_index(rho, mu) + sum(deltas)
        assert len(partition.leftover) == fano_index(rho, mu)

    def test_precondition_linear_cone(self):
        with pytest.raises(PreconditionFailure) as err:
            construct_strong_nef_partition((1, 2, 4), (4,))
        assert err.value.hypothesis == "not_linear_cone"

    def test_precondition_fano(self):
        with pytest.raises(PreconditionFailure) as err:
            construct_strong_nef_partition((1, 2), (5,))
        assert err.value.hypothesis == "fano"

    def test_precondition_regularity(self):
        with pytest.raises(PreconditionFailure) as err:
            construct_strong_nef_partition(
                (1, 1, 1, 1, 1, 2, 2, 2), (4, 6))
        assert err.value.hypothesis == "strictly_regular"
        assert err.value.witness == (5, 6, 7)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_precondition_pair(self, t):
        with pytest.raises(PreconditionFailure) as err:
            construct_strong_nef_partition(padded(t), MU)
        assert err.value.hypothesis == "pair_trivial"
        assert err.value.witness == frozenset({61 + t, 62 + t, 63 + t})

    def test_construction_is_searchable(self):
        # whenever the construction succeeds the search must agree
        rho = tuple([1] * 11 + [2, 2, 3, 3, 5])
        mu = (6, 9, 10)
        assert find_nef_partition(rho, mu, "strong") is not None
