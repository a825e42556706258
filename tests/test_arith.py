import math
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from wciq import arith
from wciq.arith import (
    UNKNOWN,
    DegreeTuple,
    PairFacts,
    WeightTuple,
    choices,
    gcd_of,
    is_representable,
    representable_degrees,
)
from wciq.errors import InputError, ResourceLimitError, node_budget
from wciq.oracles import brute_force_representable, distinct_prime_factors, poset_covers


class TestTuples:
    def test_weight_tuple_basics(self):
        wt = WeightTuple.of([1, 6, 10, 15, 1])
        assert len(wt) == 5
        assert wt.total == 33
        assert wt.ones() == (0, 4)
        assert wt.heavy() == (1, 2, 3)
        assert wt.heavy_values() == (6, 10, 15)
        assert wt.indices_of(6) == (1,)
        assert list(wt) == [1, 6, 10, 15, 1]
        assert wt[2] == 10
        assert wt == (1, 6, 10, 15, 1) and type(wt.weights) is tuple
        assert wt[1:3] == (6, 10) and type(wt[1:3]) is tuple

    def test_degree_tuple_is_one_based(self):
        dg = DegreeTuple.of([16, 21, 25, 30])
        assert dg.degree(1) == 16
        assert dg.degree(4) == 30
        assert dg.degrees == (16, 21, 25, 30) and type(dg.degrees) is tuple
        with pytest.raises(InputError):
            dg.degree(0)
        with pytest.raises(InputError):
            dg.degree(5)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "6"])
    def test_rejects_non_positive_entries(self, bad):
        with pytest.raises(InputError):
            WeightTuple.of([1, bad])
        with pytest.raises(InputError):
            DegreeTuple.of([bad])


class TestGcdLcm:
    def test_gcd_of(self):
        assert gcd_of([6, 10, 15]) == 1
        assert gcd_of([6, 10]) == 2
        assert gcd_of([7]) == 7
        with pytest.raises(InputError):
            gcd_of([])

    def test_distinct_prime_factors(self):
        assert distinct_prime_factors(1) == ()
        assert distinct_prime_factors(12) == (2, 3)
        assert distinct_prime_factors(30) == (2, 3, 5)
        assert distinct_prime_factors(49) == (7,)


class TestUnknown:
    def test_unknown_is_not_boolean(self):
        with pytest.raises(TypeError):
            bool(UNKNOWN)
        assert repr(UNKNOWN) == "UNKNOWN"

    def test_cap_triggers_unknown(self):
        assert is_representable(10**7, [3], dp_cap=10**6) is UNKNOWN
        # a divisor shortcut answers without touching the table
        assert is_representable(10**7, [10], dp_cap=10**6) is True

    def test_strict_call_raises_past_the_cap(self):
        def representable(d, weights, **caps):
            facts = PairFacts(weights, (d,), **caps)
            return facts.v.representable(1, facts.w.mask(facts.wt.heavy()))

        assert representable(10**7, (10, 3), dp_cap=10**6) is True
        assert representable(29, (15, 6, 10, 6)) is False
        with pytest.raises(ResourceLimitError,
                           match=r"of 10000001 over \[3, 6\] exceeds the dp cap 1000000"):
            representable(10**7 + 1, (6, 3), dp_cap=10**6)


class TestRepresentable:
    # Chicken McNugget: largest non-representable over {6,10,15} is 29.
    def test_frobenius_6_10_15(self):
        assert is_representable(29, [6, 10, 15]) is False
        for d in range(30, 60):
            assert is_representable(d, [6, 10, 15]) is True

    @pytest.mark.parametrize("d,vals,expect", [
        (0, [7], True),
        (16, [6, 10], True),
        (21, [6, 15], True),
        (25, [10, 15], True),
        (21, [6, 10], False),
        (25, [6, 15], False),
        (16, [10, 15], False),
        (30, [6], True),
        (16, [6], False),
        (1, [6, 10, 15], False),
    ])
    def test_worked_values(self, d, vals, expect):
        assert is_representable(d, vals) is expect

    def test_empty_weight_set(self):
        assert is_representable(0, []) is True
        assert is_representable(3, []) is False

    @given(st.integers(0, 300),
           st.sets(st.integers(1, 40), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=300)
    def test_matches_brute_force(self, d, vals):
        assert is_representable(d, vals) is brute_force_representable(d, vals)

    @given(st.integers(0, 200), st.integers(0, 200),
           st.sets(st.integers(2, 30), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_additive_closure(self, d1, d2, vals):
        # the representable set is closed under addition
        if is_representable(d1, vals) is True and is_representable(d2, vals) is True:
            assert is_representable(d1 + d2, vals) is True


def _gens(values):
    return tuple(sorted(set(values)))


def _table(d, gens):
    """Membership of d read off the residue table of the distinct
    ascending gens."""
    return d >= arith._residue_table(gens)[d % gens[0]]


class TestKernels:
    """The residue-table and bitset kernels, called directly on the same
    sorted distinct generators, against brute force and each other."""

    @given(st.integers(0, 300), st.sets(st.integers(1, 40), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=300)
    def test_both_match_brute_force(self, d, vals):
        gens = _gens(vals)
        expect = brute_force_representable(d, vals)
        assert _table(d, gens) is expect
        assert arith._bitset_representable(d, gens) is expect

    @given(st.integers(0, 10**5), st.sets(st.integers(1, 60), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=200)
    def test_table_matches_bitset(self, d, vals):
        gens = _gens(vals)
        assert _table(d, gens) is arith._bitset_representable(d, gens)

    @given(st.integers(2, 60), st.integers(2, 60))
    @settings(deadline=None, max_examples=200)
    def test_frobenius_number_of_coprime_pair(self, a, b):
        assume(a != b and math.gcd(a, b) == 1)
        gens = _gens((a, b))
        frobenius = a * b - a - b
        for kernel in (_table, arith._bitset_representable):
            assert kernel(frobenius, gens) is False
            assert kernel(frobenius + 1, gens) is True

    @given(st.integers(2, 12), st.sets(st.integers(1, 20), min_size=1, max_size=4),
           st.integers(0, 300), st.integers(0, 11))
    @settings(deadline=None, max_examples=300)
    def test_common_factor(self, g, vals, q, r):
        # d on and off the multiples of the gcd
        vals = {g * v for v in vals}
        d = g * q + r % g
        expect = brute_force_representable(d, vals)
        assert is_representable(d, vals) is expect
        assert _table(d, _gens(vals)) is expect

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 300))
    @settings(deadline=None, max_examples=200)
    def test_duplicates_and_values_above_d(self, vals, d):
        vals = vals + vals[:2] + [d + 1, 2 * d + 7]
        expect = brute_force_representable(d, vals)
        assert is_representable(d, vals) is expect
        degree = max(d, 1)
        expect_degrees = {1} if brute_force_representable(degree, vals) else set()
        assert representable_degrees(vals, [degree]) == expect_degrees
        assert _table(d, _gens(vals)) is expect
        assert arith._bitset_representable(d, _gens(vals)) is expect

    @given(st.sets(st.integers(2, 40), min_size=2, max_size=4), st.integers(1, 5),
           st.integers(-2, 1))
    @settings(deadline=None, max_examples=100)
    def test_crossover_boundary(self, vals, g, offset):
        # The table answers exactly when a <= (d // g) >> 8.
        gens = tuple(v // math.gcd(*vals) for v in _gens(vals))
        vals = {g * v for v in gens}
        d = g * (256 * gens[0] + offset)
        assume(all(d % v for v in vals))
        arith._residue_table.cache_clear()
        verdict = is_representable(d, vals)
        built = arith._residue_table.cache_info().currsize
        assert built == (offset >= 0)
        assert verdict is arith._bitset_representable(d // g, gens)
        assert verdict is _table(d // g, gens)

    def test_worst_case_stays_on_bitset(self):
        # a close to d: a residue table would take about half a second
        arith._residue_table.cache_clear()
        start = time.perf_counter()
        assert is_representable(999_999, [999_983, 999_984, 999_990]) is False
        assert time.perf_counter() - start < 0.5
        assert arith._residue_table.cache_info().currsize == 0

    def test_cache_bound_is_documented(self):
        maxsize = arith._residue_table.cache_info().maxsize
        assert maxsize == arith._TABLE_CACHE_SIZE
        assert f"{maxsize} tables" in " ".join(is_representable.__doc__.split())
        assert f"dp_cap >> {arith._TABLE_SHIFT}" in is_representable.__doc__


class TestRows:
    """`PairFacts.row` against `is_representable`, degree by degree."""

    @given(st.integers(1, 6), st.sets(st.integers(2, 40), min_size=1, max_size=4),
           st.lists(st.integers(1, 30_000), min_size=1, max_size=5),
           st.integers(0, 3), st.integers(1, 5), st.integers(100, 30_000))
    @settings(deadline=None, max_examples=200)
    def test_rows_match_single_decisions(self, g, base, degrees, pick, k, cap):
        # gcd g > 1 for g > 1; random degrees fall on both sides of the
        # table crossover; past the cap, one degree a value divides and
        # one that none does
        values = sorted({g * v for v in base})
        lcm = math.lcm(*values)
        v = values[pick % len(values)]
        degrees = [*degrees, v * (cap // v + k), lcm * (cap // lcm + 1) + 1]
        masks = range(1, 1 << len(values))
        # ascending, rows carry their sub-masks' bits; descending, none exist
        for order in (masks, reversed(masks)):
            arith.value_pair_facts.cache_clear()
            facts = PairFacts(values, degrees, cap)
            for mask in order:
                rep, unknown = facts.v.row(mask)
                vals = facts.w.v.values_of(mask)
                g = math.gcd(*vals)
                gens = tuple(v // g for v in vals)
                for j, d in enumerate(degrees):
                    verdict = is_representable(d, vals, dp_cap=cap)
                    assert (rep >> j & 1, unknown >> j & 1) == (
                        verdict is True, verdict is UNKNOWN)
                    # and against the bitset kernel alone
                    if d > cap:
                        expect = any(d % v == 0 for v in vals) or UNKNOWN
                    else:
                        expect = not d % g and arith._bitset_representable(d // g, gens)
                    assert verdict is expect

    def test_empty_value_set(self):
        # every weight 1: no heavy value, so no degree is representable
        facts = PairFacts([1, 1], [3])
        assert facts.v.row(0) == (0, 0)
        assert facts.v.admissible(0) == ()
        assert facts.v.representable(1, 0) is False
        assert representable_degrees([], [3, 10**7]) == frozenset()
        assert is_representable(0, []) is True
        assert is_representable(10**7, []) is False

    @given(st.integers(1, 6), st.sets(st.integers(2, 40), min_size=1, max_size=4),
           st.data())
    @settings(deadline=None, max_examples=100)
    def test_bitset_side_builds_no_table(self, g, base, data):
        values = sorted({g * v for v in base})
        a = min(values) // math.gcd(*values)
        # d // gcd < 256 a: every degree is on the bitset side of the crossover
        top = 256 * a * math.gcd(*values) - 1
        degrees = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
        arith.value_pair_facts.cache_clear()
        facts = PairFacts(values, degrees)
        arith._residue_table.cache_clear()
        rep, _ = facts.v.row((1 << len(values)) - 1)
        assert arith._residue_table.cache_info().currsize == 0
        assert rep == sum(1 << j for j, d in enumerate(degrees)
                          if is_representable(d, values) is True)


class TestRepresentableDegrees:
    def test_fig_edge_sets(self):
        dg = DegreeTuple.of([16, 21, 25, 30])
        assert representable_degrees([6, 10], dg) == frozenset({1, 4})
        assert representable_degrees([6, 15], dg) == frozenset({2, 4})
        assert representable_degrees([10, 15], dg) == frozenset({3, 4})
        assert representable_degrees([6], dg) == frozenset({4})
        assert representable_degrees([6, 10, 15], dg) == frozenset({1, 2, 3, 4})

    def test_unknown_becomes_resource_error(self):
        with pytest.raises(ResourceLimitError):
            representable_degrees([3], [10**7], dp_cap=10**6)


class TestPosetCovers:
    def test_covers_in_divisor_poset(self):
        poset = (2, 3, 5, 6, 10, 15, 30)
        assert poset_covers(poset, 30) == frozenset({6, 10, 15})
        assert poset_covers(poset, 6) == frozenset({2, 3})
        assert poset_covers(poset, 2) == frozenset()

    def test_skips_non_members(self):
        # 2 is absent, so 4's only cover inside the poset is 1... which is
        # also absent; no covers at all
        assert poset_covers((4, 3), 4) == frozenset()
        assert poset_covers((4, 2, 8), 8) == frozenset({4})


class TestChoices:
    @given(st.lists(st.lists(st.lists(st.integers(0, 20), max_size=3), max_size=4),
                    max_size=4))
    @settings(deadline=None, max_examples=300)
    def test_sorted_product_expansion(self, class_lists):
        charged = []
        got = choices(class_lists, charged.append)
        assert got == sorted(tuple(sorted(c)) for classes in class_lists
                             for c in product(*classes))
        assert charged == [len(got)] == [sum(math.prod(map(len, classes))
                                              for classes in class_lists)]
        # a budget of exactly that count answers
        assert choices(class_lists, node_budget(len(got), "choice expansion")) == got

    def test_empty_class_list_has_one_empty_choice(self):
        # the value-level presentation charges that choice one node
        charged = []
        assert choices([[]], charged.append) == [()]
        assert charged == [1]
        assert choices([], charged.append) == []
        assert choices([[[1, 2], []]], charged.append) == []
        assert charged == [1, 0, 0]
