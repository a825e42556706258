"""Value-class sweeps against the index-level references in wciq.oracles.

The fast paths sweep distinct heavy values (or twin classes of vertices)
and expand to indices at the end; the references sweep index sets. Inputs
repeat values, interleave them, and pad with weight-1 indices, with at
most 15 heavy indices so the references stay cheap (16 in the fixed
face-limit cases). Equality is exact: facet lists in order, witnesses,
and verdicts.
"""

import time
from itertools import islice, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from wciq import arith, complexes
from wciq.arith import (
    DEFAULT_DP_CAP,
    FACE_LIMIT,
    UNKNOWN,
    PairFacts,
    WeightTuple,
    is_representable,
    picked,
    value_facts,
    weight_facts,
)
from wciq.complexes import (
    Complex,
    _base_complex,
    _dualize,
    _kept_value_faces,
    _singular_presentation,
    _value_faces,
    base_complex,
    minimal_nonfaces,
    singular_complex,
    sr_presentation,
)
from wciq.errors import DEFAULT_NODE_BUDGET, ResourceLimitError, node_budget
from wciq.maps import (
    AdmissibleFamily,
    _checked_faces,
    build_admissible_family,
    verify_poset_map,
)
from wciq.oracles import (
    brute_force_representable,
    common_factor_subsets,
    face_walk_checked_faces,
    lex_walk_strictly_regular,
    maximal_members,
    naive_minimal_nonfaces,
    naive_nondivisible_facets,
    naive_pair_nontriviality_witness,
    naive_pair_trivial_all_indices,
    naive_strongly_nondivisible_facets,
    prime_strata_complex,
    swept_poset_properties,
)
from wciq.regularity import (
    _non_divisible,
    _strongly_non_divisible,
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


@st.composite
def padded_weights(draw, max_values=4, max_mult=3, max_ones=4):
    """Up to 4 distinct heavy values with up to 3 copies each, shuffled
    among up to 4 weight-1 indices."""
    values = draw(st.lists(st.integers(2, 36), max_size=max_values, unique=True))
    weights = [1] * draw(st.integers(0 if values else 1, max_ones))
    for v in values:
        weights += [v] * draw(st.integers(1, max_mult))
    return tuple(draw(st.permutations(weights)))


@st.composite
def twin_complexes(draw):
    """A random complex on up to 5 classes, each class blown up into 1-3
    twin vertices, with the labels shuffled and up to 2 isolated labels."""
    n_classes = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_classes)]
    n = sum(sizes) + draw(st.integers(0, 2))
    labels = draw(st.permutations(range(n)))
    members, at = [], 0
    for size in sizes:
        members.append(labels[at:at + size])
        at += size
    class_facets = draw(st.lists(
        st.sets(st.integers(0, n_classes - 1), min_size=1), min_size=1, max_size=6))
    facets = [[v for c in f for v in members[c]] for f in class_facets]
    return Complex.from_facets(n, facets)


class TestDivisibilityFamilies:
    @given(padded_weights())
    @settings(deadline=None, max_examples=200)
    def test_facets_match_index_sweep(self, weights):
        nd = naive_nondivisible_facets(weights)
        snd = naive_strongly_nondivisible_facets(weights)
        assert nondivisible_complex(weights).sorted_facets() == nd
        assert strongly_nondivisible_complex(weights).sorted_facets() == snd
        rep = pair_is_trivial(weights)
        assert list(rep.nondivisible_facets) == nd
        assert list(rep.strongly_nondivisible_facets) == snd

    @given(padded_weights())
    @settings(deadline=None, max_examples=200)
    def test_witness_matches_face_walk(self, weights):
        assert pair_nontriviality_witness(weights) == \
            naive_pair_nontriviality_witness(weights)

    @given(padded_weights())
    @settings(deadline=None, max_examples=200)
    def test_literal_reading_matches_sweep(self, weights):
        assert pair_trivial_all_indices(weights) is \
            naive_pair_trivial_all_indices(weights)

    def test_repeated_value_witness(self):
        # two copies of each value: the least index of each value realizes it
        weights = (15, 1, 10, 6, 6, 10, 15)
        assert pair_nontriviality_witness(weights) == frozenset({0, 2, 3})
        assert naive_pair_nontriviality_witness(weights) == frozenset({0, 2, 3})


def outcome(fn, *args, **kwargs):
    """fn's result, or the message of the resource error it raised."""
    try:
        return fn(*args, **kwargs)
    except ResourceLimitError as exc:
        return f"resource limit: {exc}"


def representable(d, values, *, dp_cap):
    """`is_representable`, raising where it says UNKNOWN, as the walks do."""
    verdict = is_representable(d, values, dp_cap=dp_cap)
    if verdict is UNKNOWN:
        raise ResourceLimitError(
            f"representability of {d} over {sorted(values)} exceeds the dp cap {dp_cap}")
    return verdict


#: Low caps make degrees past them UNKNOWN over values not dividing them.
dp_caps = st.sampled_from([1, 5, 20, 40, DEFAULT_DP_CAP])


def value_masks(values, subsets):
    """The masks of value subsets: bit k for values[k]."""
    return [sum(1 << values.index(v) for v in vs) for vs in subsets]


class TestMaskLattice:
    """The value-mask searches against the level search over value sets
    (`oracles.maximal_members`) and the index-subset walk of strict
    regularity, messages of UNKNOWN verdicts included."""

    @given(padded_weights(), st.lists(st.integers(1, 60), min_size=1, max_size=4), dp_caps)
    @settings(deadline=None, max_examples=300)
    def test_base_complexes(self, weights, degrees, dp_cap):
        wt = WeightTuple.of(weights)

        def reference(d):
            values = [v for v in wt.heavy_values() if d % v]
            facets = maximal_members(
                values, lambda vs: not representable(d, vs, dp_cap=dp_cap))
            return Complex.from_facets(
                len(wt), [[i for v in vs for i in wt.classes[v]] for vs in facets]
            ).sorted_facets()

        facts = PairFacts(wt, degrees, dp_cap)
        for j, d in enumerate(degrees, start=1):
            got = outcome(lambda: _base_complex(facts, j).complex.sorted_facets())
            assert got == outcome(reference, d)

    @given(padded_weights(max_values=6, max_mult=2))
    @settings(deadline=None, max_examples=200)
    def test_divisibility_facets(self, weights):
        wt = WeightTuple.of(weights)

        def reference(member):
            facets = maximal_members(
                wt.heavy_values(), lambda vs: member(sorted(vs), range(len(vs))))
            return Complex.from_facets(
                len(wt), [idx for vs in facets
                          for idx in product(*(wt.classes[v] for v in sorted(vs)))]
            ).sorted_facets()

        rep = pair_is_trivial(weights)
        assert list(rep.nondivisible_facets) == reference(is_non_divisible)
        assert list(rep.strongly_nondivisible_facets) == \
            reference(is_strongly_non_divisible)

    @given(padded_weights(max_values=5, max_mult=2),
           st.lists(st.integers(1, 60), max_size=4), dp_caps)
    @settings(deadline=None, max_examples=300)
    def test_strict_regularity(self, weights, degrees, dp_cap):
        assert outcome(is_strictly_regular, weights, degrees, dp_cap=dp_cap) == \
            outcome(lex_walk_strictly_regular, weights, degrees, dp_cap=dp_cap)

    @given(st.lists(st.integers(2, 36), max_size=7, unique=True))
    @settings(deadline=None, max_examples=200)
    def test_face_listing_order(self, values):
        # the singular faces over the values are the value sets with gcd
        # above 1, listed by size, then lex, from the facets
        values = tuple(sorted(values))
        assert list(_value_faces(value_facts(values))) == \
            value_masks(values, common_factor_subsets(values))


class TestDualize:
    """`complexes._dualize` against the level search over value sets
    (`oracles.maximal_members`) and the subset sweep for minimal non-faces
    (`oracles.naive_minimal_nonfaces`), for each test it runs with."""

    @staticmethod
    def assert_matches(values, member):
        n = len(values)
        facets, nonfaces = _dualize(range(n), lambda mask: member(picked(values, mask)),
                                    node_budget(DEFAULT_NODE_BUDGET, "test"))

        def sets(masks):
            return sorted((frozenset(k for k in range(n) if m >> k & 1) for m in masks),
                          key=sorted)

        assert sets(facets) == maximal_members(range(n), lambda s: member(
            [values[k] for k in sorted(s)]))
        if facets:
            assert sets(nonfaces) == naive_minimal_nonfaces(Complex.from_facets(n, sets(facets)))
        else:  # the void complex: every vertex is a non-face
            assert sets(nonfaces) == [frozenset((k,)) for k in range(n)]

    @given(st.lists(st.integers(2, 36), max_size=10, unique=True), st.integers(1, 60))
    @settings(deadline=None, max_examples=100)
    def test_base_oracle(self, values, d):
        self.assert_matches(values, lambda vs: not brute_force_representable(d, vs))

    @given(st.lists(st.integers(2, 36), max_size=10, unique=True))
    @settings(deadline=None, max_examples=100)
    def test_antichain_oracle(self, values):
        self.assert_matches(values, _non_divisible)

    @given(st.lists(st.integers(2, 36), max_size=10, unique=True))
    @settings(deadline=None, max_examples=100)
    def test_strong_oracle(self, values):
        self.assert_matches(values, _strongly_non_divisible)

    def test_kept_complexes_answer_other_pairs(self, monkeypatch):
        # over 6, 10, 15 the complex of 10009 is that of 10007, found
        # before: its facets and minimal non-faces certify it, unsearched
        searches = []

        def counted(*args):
            searches.append(args)
            return dualize(*args)

        dualize = complexes._dualize
        monkeypatch.setattr(complexes, "_dualize", counted)
        for cache in (arith.weight_facts, arith.value_facts, arith.value_pair_facts):
            cache.cache_clear()
        for degrees, facets, new in (((10007,), [(1, 2), (1, 3), (2, 3)], 1),
                                     ((10009,), [(1, 2), (1, 3), (2, 3)], 0),
                                     ((10010, 10011), [(1, 3)], 2),
                                     ((10011, 10009), [(1, 2), (2, 3)], 0)):
            searches.clear()
            assert base_complex([1, 6, 10, 15], degrees[0]).complex.sorted_facets() == facets
            facts = PairFacts([1, 6, 10, 15], degrees)
            assert _base_complex(facts, 1).complex.sorted_facets() == facets
            assert len(searches) == new

    @given(st.lists(st.integers(2, 36), min_size=1, max_size=10, unique=True))
    @settings(deadline=None, max_examples=50)
    def test_void_base_complex(self, values):
        # every value divides the lcm, so represents it alone
        assert base_complex([1, *values], lcm(*values)).complex.facets == frozenset()


class TestMinimalNonfaces:
    @given(twin_complexes())
    @settings(deadline=None, max_examples=200)
    def test_matches_subset_sweep(self, cx):
        # compare iteration order too: reports list each generator as stored
        def listed(gens):
            return [list(g) for g in gens]

        assert listed(minimal_nonfaces(cx)) == listed(naive_minimal_nonfaces(cx))
        verts = cx.vertices
        assert listed(minimal_nonfaces(cx, within=verts)) == \
            listed(naive_minimal_nonfaces(cx, within=verts))

    @given(padded_weights())
    @settings(deadline=None, max_examples=100)
    def test_singular_presentation(self, weights):
        wc = singular_complex(weights)
        verts = tuple(sorted(wc.vertex_weights))
        assert sr_presentation(wc).generators == \
            tuple(naive_minimal_nonfaces(wc.complex, within=verts))


@st.composite
def twin_value_weights(draw):
    """Up to 5 distinct heavy values, among them twins that share their
    primes (6/12, 10/20, 15/45), with 1-3 copies each, shuffled among up
    to 4 weight-1 indices."""
    values = draw(st.lists(st.sampled_from((6, 12, 10, 20, 15, 45, 2, 3, 5, 7, 9, 14, 21)),
                           max_size=5, unique=True))
    weights = [1] * draw(st.integers(0 if values else 1, 4))
    for v in values:
        weights += [v] * draw(st.integers(1, 3))
    return WeightTuple.of(draw(st.permutations(weights)))


class TestSingularExpansions:
    """The singular complex, its presentation and the faces the poset-map
    check reads are derived once per value set and expanded per weight
    tuple; each equals its index-level reference, in order."""

    @staticmethod
    def assert_expansions_match(wt):
        w = weight_facts(wt)
        reference = prime_strata_complex(wt)
        assert singular_complex(wt).complex == reference
        heavy = wt.heavy()
        sr = _singular_presentation(w)
        assert (sr.vertices, sr.variable_degrees) == (heavy, tuple(wt[i] for i in heavy))
        assert [sorted(g) for g in sr.generators] == \
            [sorted(g) for g in minimal_nonfaces(reference, within=heavy)]
        assert sr == sr_presentation(singular_complex(wt))
        assert w.once(_checked_faces) == face_walk_checked_faces(wt)

    @given(twin_value_weights())
    @settings(deadline=None, max_examples=300)
    def test_match_index_references(self, wt):
        self.assert_expansions_match(wt)

    @pytest.mark.parametrize("weights,faces,scope", [
        # 2^12 - 1 faces over the 2s and one over the 3
        ((2,) * 12 + (3,), FACE_LIMIT, "all-faces"),
        ((2,) * 12 + (3, 5), 5, "value-class-representatives"),
        # the twins 6 and 12: 3 + 1,023 faces alone, 3 * 1,023 together
        ((1, 6, 6) + (12,) * 10 + (5,), FACE_LIMIT, "all-faces"),
        ((1, 6, 6) + (12,) * 10 + (5, 7, 1), 3 + 3 + 3 * 3 + 1 + 1, "value-class-representatives"),
    ])
    def test_face_limit_boundary(self, weights, faces, scope):
        wt = WeightTuple.of(weights)
        self.assert_expansions_match(wt)
        got_scope, _, got_faces = weight_facts(wt).once(_checked_faces)
        assert (got_scope, len(got_faces)) == (scope, faces)


    @staticmethod
    def most_nodes(search) -> int:
        """The most nodes one `node_budget` of `wciq.complexes` is charged
        while `search()` runs from cleared caches."""
        totals = []

        def counting(limit, name):
            spend, k = node_budget(limit, name), len(totals)
            totals.append(0)

            def counted(n=1):
                totals[k] += n
                return spend(n)
            return counted

        arith.weight_facts.cache_clear()
        arith.value_facts.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes, "node_budget", counting)
            search()
        return max(totals, default=0)

    @given(twin_value_weights())
    @settings(deadline=None, max_examples=200)
    def test_one_budget_as_the_index_search(self, wt):
        # in any order of the weights, both levels number the twin classes
        # by ascending value, so the search over the values tries the class
        # sets the index search does; with no heavy weight the empty
        # generator, which the index search returns before counting, is
        # charged one node
        assert self.most_nodes(lambda: _singular_presentation(weight_facts(wt))) == \
            self.most_nodes(lambda: sr_presentation(singular_complex(wt))) + (not wt.heavy())

    @pytest.mark.parametrize("twos,threes,answers", [(7, 14, True), (9, 11, False)])
    def test_budget_boundary(self, monkeypatch, twos, threes, answers):
        # two class sets tried and twos * threes index pairs: 100, then 101 nodes
        monkeypatch.setattr(complexes, "DEFAULT_NODE_BUDGET", 100)
        wt = WeightTuple.of((2,) * twos + (3,) * threes)
        for search in (lambda: _singular_presentation(weight_facts(wt)),
                       lambda: sr_presentation(singular_complex(wt))):
            arith.weight_facts.cache_clear()
            arith.value_facts.cache_clear()
            if answers:
                assert len(search().generators) == twos * threes
            else:
                with pytest.raises(ResourceLimitError, match="minimal non-face search"):
                    search()

    def test_budget_counted_before_any_set_is_built(self):
        # 2,000 * 1,000 index pairs and the two class sets tried: 2 past the
        # default budget, refused without building one pair
        wt = WeightTuple.of((2,) * 2000 + (3,) * 1000)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="minimal non-face search"):
            _singular_presentation(weight_facts(wt))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("search", [
        sr_presentation,
        lambda cx: minimal_nonfaces(cx.complex),
    ], ids=["sr_presentation", "minimal_nonfaces"])
    def test_index_search_counted_before_any_set_is_built(self, search):
        # the same 2,000,000 index pairs past the two class sets tried, at
        # index level: counted at once, not one node per pair built
        cx = singular_complex((2,) * 2000 + (3,) * 1000)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=(
                "^minimal non-face search exceeded the node budget 2000000$")):
            search(cx)
        assert time.perf_counter() - start < 1.0

class TestStrictRegularity:
    @given(padded_weights(), st.lists(st.integers(1, 60), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_matches_lex_walk(self, weights, degrees):
        assert is_strictly_regular(weights, degrees) == \
            lex_walk_strictly_regular(weights, degrees)

    @given(padded_weights(max_values=7, max_mult=2, max_ones=2),
           st.lists(st.integers(1, 40), max_size=5))
    @settings(deadline=None, max_examples=200)
    def test_size_cut_matches_lex_walk(self, weights, degrees):
        # many distinct values, so violations of several sizes compete and
        # the sweep stops early on most failing inputs
        assert is_strictly_regular(weights, degrees) == \
            lex_walk_strictly_regular(weights, degrees)

    def test_twenty_values_fail_fast(self):
        # {6} already violates at size 1; the sweep used to walk all 2^20
        # value subsets
        start = time.perf_counter()
        result = is_strictly_regular([6 * i for i in range(1, 21)], (7, 11))
        assert result == (False, (0,))
        assert time.perf_counter() - start < 1.0

    def test_two_values_many_copies(self):
        # 40 copies of 2 share 36 degrees of 6, so 37 of them violate; the
        # index walk over combinations of 60 heavy indices never finishes
        start = time.perf_counter()
        result = is_strictly_regular([1] + [3] * 20 + [2] * 40, [6] * 36)
        assert result == (False, tuple(range(21, 58)))
        assert time.perf_counter() - start < 5.0

    def test_thirteen_even_values_keep_a_bounded_walk(self):
        # all 8,191 value sets have gcd 2 and every value divides d: with 13
        # degrees d no set violates, with 12 only the full set, the last mask
        values = tuple(range(2, 28, 2))
        d = lcm(*values)
        arith.weight_facts.cache_clear()
        arith.value_facts.cache_clear()
        for degrees, verdict in (([d] * 13, (True, None)), ([d] * 12, (False, tuple(range(13))))):
            assert is_strictly_regular(values, degrees) == verdict
            # past FACE_LIMIT masks the holder keeps none of them
            assert arith.value_facts(values).kept(_kept_value_faces) is None
            assert is_strictly_regular(values, degrees) == verdict
        # twelve values: 4,095 masks, kept whole by the first listing to its end
        values = values[:-1]
        assert is_strictly_regular(values, [d] * 12) == (True, None)
        assert arith.value_facts(values).kept(_kept_value_faces) == \
            tuple(value_masks(values, common_factor_subsets(values)))
        assert is_strictly_regular(values, [d] * 11) == (False, tuple(range(12)))

    def test_twelve_values_keep_the_walk_of_an_early_failure(self, monkeypatch):
        # {2} violates at size 1, yet with at most 12 values the first call
        # lists all 4,095 value sets once and keeps them; with 13 it stops
        walk = complexes._listed_value_faces
        walks = []

        def counted(v):
            walks.append(v.values)
            return walk(v)

        monkeypatch.setattr(complexes, "_listed_value_faces", counted)
        arith.weight_facts.cache_clear()
        arith.value_facts.cache_clear()
        values = tuple(range(2, 26, 2))
        start = time.perf_counter()
        assert is_strictly_regular(values, (7, 11)) == (False, (0,))
        assert time.perf_counter() - start < 0.5
        kept = arith.value_facts(values).kept(_kept_value_faces)
        assert len(kept) == 4095 and kept == tuple(walk(arith.value_facts(values)))
        assert is_strictly_regular(values, (7, 13)) == (False, (0,))
        assert walks == [values]
        values += (26,)
        assert is_strictly_regular(values, (7, 11)) == (False, (0,))
        assert arith.value_facts(values).kept(_kept_value_faces) is None

    def test_an_interrupted_walk_keeps_no_prefix(self, monkeypatch):
        # an item timeout raised from a signal handler ends the walk midway;
        # only the full set of the 12 even values violates, at the last mask
        class Interrupt(BaseException):
            pass

        def interrupted(v):
            yield from islice(walk(v), 10)
            raise Interrupt

        values = tuple(range(2, 26, 2))
        degrees = [lcm(*values)] * 11
        walk = complexes._listed_value_faces
        arith.weight_facts.cache_clear()
        arith.value_facts.cache_clear()
        monkeypatch.setattr(complexes, "_listed_value_faces", interrupted)
        with pytest.raises(Interrupt):
            is_strictly_regular(values, degrees)
        assert arith.value_facts(values).kept(_kept_value_faces) is None
        monkeypatch.setattr(complexes, "_listed_value_faces", walk)
        assert is_strictly_regular(values, degrees) == (False, tuple(range(12)))


class TestWellFormed:
    @given(padded_weights(max_ones=2))
    @settings(deadline=None, max_examples=200)
    def test_matches_drop_one_definition(self, weights):
        expect = all(
            gcd(*(a for j, a in enumerate(weights) if j != i)) == 1
            for i in range(len(weights)))
        assert is_wellformed_wps(weights) is expect


class TestWeightClasses:
    @given(padded_weights(), st.integers(1, 40))
    @settings(deadline=None, max_examples=200)
    def test_classes_match_index_scan(self, weights, b):
        wt = WeightTuple.of(weights)
        assert list(wt.classes.items()) == [
            (v, tuple(i for i, a in enumerate(weights) if a == v))
            for v in sorted(set(weights))]
        assert wt.divisible_by(b) == tuple(sorted(
            i for v, idx in wt.classes.items() if v % b == 0 for i in idx))
        assert wt.ones() == tuple(i for i, a in enumerate(weights) if a == 1)
        assert wt.heavy_values() == tuple(sorted({a for a in weights if a > 1}))


@st.composite
def regular_pairs(draw):
    """Padded weights with one degree per heavy index that the index's own
    weight divides, which makes the pair strictly regular, plus up to two
    random degrees."""
    weights = draw(padded_weights(max_values=3, max_mult=2, max_ones=2))
    degrees = [a * draw(st.integers(1, 4)) for a in weights if a > 1]
    degrees += draw(st.lists(st.integers(2, 60), max_size=2))
    return weights, tuple(draw(st.permutations(degrees)))


class TestPosetMapProperties:
    @given(regular_pairs(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_match_face_and_pair_sweeps(self, pair, data):
        # Built families pass their invariants; a copy with one injection
        # entry moved to another degree index may or may not.
        weights, degrees = pair
        fam = build_admissible_family(weights, degrees)
        families = [] if fam is None else [fam]
        if fam is not None and fam.im_phi:
            b = data.draw(st.sampled_from(fam.im_phi))
            i = data.draw(st.sampled_from(fam.domains[b]))
            injections = {q: dict(m) for q, m in fam.injections.items()}
            injections[b][i] = data.draw(st.integers(1, len(degrees)))
            families.append(AdmissibleFamily(fam.im_phi, fam.domains, injections))
        for f in families:
            rep = verify_poset_map(weights, degrees, f)
            assert (rep.property1, rep.property1_witness,
                    rep.property3, rep.property3_witness) == \
                swept_poset_properties(weights, degrees, f)
