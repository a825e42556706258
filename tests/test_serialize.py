import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wciq.arith import WeightTuple
from wciq.complexes import Complex
from wciq.errors import InputError, ResourceLimitError
from wciq.maps import build_admissible_family
from wciq.nef import NefPartition
from wciq.realize import realize_weights, skeleton
from wciq.serialize import (
    Encoded,
    canonical_json,
    complex_from_json,
    complex_to_json,
    decode_int,
    encode_int,
    family_from_json,
    family_to_json,
    pair_from_json,
    pair_to_json,
    partition_from_json,
    partition_to_json,
    realization_to_json,
)


def dumps_reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


#: Facet-shaped values: lists of int lists or int tuples, some empty.
FACETS = st.lists(st.lists(st.integers(-2, 2 ** 54)) | st.lists(st.integers(0, 30)).map(tuple),
                  max_size=5)

#: Arbitrary JSON values with str keys: every code point (control
#: characters and lone surrogates included), floats with nan, infinities
#: and -0.0, ints past 2**53, bools mixed into int lists, tuples, facet
#: lists, and empty and nested containers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 80), 2 ** 80)
    | st.floats() | st.text(st.characters(exclude_categories=())) | FACETS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers() | st.booleans(), max_size=6)
        | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4),
                          inner, max_size=5)),
    max_leaves=30)


class TestCanonicalJson:
    def test_shape(self):
        out = canonical_json({"b": 1, "a": [1, 2]})
        assert out == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_stable(self):
        data = {"x": {"q": 1, "p": 2}, "a": True}
        assert canonical_json(data) == canonical_json(
            json.loads(canonical_json(data)))

    @given(JSON_VALUES)
    @settings(deadline=None, max_examples=400)
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == dumps_reference(value)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], {"a": {}}, (), (1, (2, 3), [True, 4]),
        [0, True, 1, False, -(2 ** 70), 2 ** 53],
        [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324],
        {"é\u2028\x00\x1f\"\\\ud800": "\U0001f600\x7f\t"},
        {1: "a", 2 ** 60: [True]}, {2.5: 0, -0.0: 1}, {True: 0, False: 1}, {None: 0},
    ])
    def test_edge_values(self, value):
        assert canonical_json(value) == dumps_reference(value)

    @pytest.mark.parametrize("value", [
        [-1, 0, 1023, 1024, 2 ** 53], [1024, True, -1, False, 2 ** 53],
        [[-1, 0], [1023, 1024, 2 ** 53], [], [True, 1]], [(0, 1), (2 ** 53,), [5]],
        ([[1, 2]], ((3,), [4, False])), {"facets": [[1, 2], (3,)], "n": [[]]},
    ])
    def test_int_arrays(self, value):
        assert canonical_json(value) == dumps_reference(value)

    def test_key_orders_share_no_heads(self):
        # one key set in two insertion orders, then beside a non-str key
        first, second = {"b": 1, "a": [2]}, {"a": [2], "b": 1}
        assert canonical_json(first) == canonical_json(second) == dumps_reference(first)
        assert canonical_json([first, second]) == dumps_reference([first, second])
        for mixed in ({"b": 1, "a": 2, 3: 4}, {3: 4, "a": 2, "b": 1}):
            with pytest.raises(TypeError):
                dumps_reference(mixed)
            with pytest.raises(TypeError):
                canonical_json(mixed)
        # equal keys of other types spell themselves: 1 and True hash alike
        for keyed in ({1: "a"}, {True: "a"}, {1.0: "a"}, {"1": "a"}):
            assert canonical_json(keyed) == dumps_reference(keyed)

    def test_deep_nesting(self):
        value = 0
        for depth in range(60):
            value = [1, {"d": value}] if depth % 2 else {"k": value, "": []}
        assert canonical_json(value) == dumps_reference(value)

    def test_rejects_what_json_rejects(self):
        for bad in ({1: 2, "a": 3}, {(1,): 2}, {1, 2}, object()):
            with pytest.raises(TypeError):
                canonical_json(bad)

    @given(JSON_VALUES)
    @settings(deadline=None, max_examples=200)
    def test_encoded_values_splice_at_any_depth(self, value):
        # strings holding newlines stay escaped, so re-indenting is exact
        plain = {"k": [value, {"in\n": value}], "top": value}
        spliced = {"k": [Encoded(value), {"in\n": Encoded(value)}], "top": Encoded(value)}
        assert canonical_json(spliced) == dumps_reference(plain)
        assert canonical_json(Encoded(value)) == dumps_reference(value)

    def test_encoded_values_decode_for_json_dumps(self):
        value = {"facets": [[1, 2], [3]], "s": "a\nb", "n": None}
        with pytest.raises(TypeError):
            json.dumps([Encoded(value)])
        assert json.loads(json.dumps([Encoded(value)], default=Encoded.decoded)) == [value]

    def test_rejects_records(self):
        for record in (NefPartition(((0,), (1,))), WeightTuple((2, 3))):
            with pytest.raises(TypeError):
                canonical_json({"r": [record]})
            with pytest.raises(TypeError):
                canonical_json([[1, 2], record, [3]])
            with pytest.raises(TypeError):
                canonical_json([[1, 2], [record]])

    def test_encoded_inside_int_arrays(self):
        value = {"facets": [[1, 2], [3]]}
        for wrapped, plain in (([[1], [Encoded(value)]], [[1], [value]]),
                               ([[1], Encoded([2, 3])], [[1], [2, 3]])):
            assert canonical_json(wrapped) == dumps_reference(plain)


class TestIntEncoding:
    def test_small_stays_int(self):
        assert encode_int(42) == 42
        assert encode_int(-(2 ** 52)) == -(2 ** 52)

    def test_large_becomes_string(self):
        big = 2 ** 53
        assert encode_int(big) == str(big)
        assert encode_int(-big) == str(-big)

    def test_past_the_digit_limit(self):
        huge = 10 ** sys.get_int_max_str_digits()
        with pytest.raises(ResourceLimitError,
                           match=f"^report holds an integer of more than "
                                 f"{sys.get_int_max_str_digits()} digits"):
            encode_int(huge)
        assert encode_int(huge // 10) == "1" + "0" * (sys.get_int_max_str_digits() - 1)

    def test_decode_both_forms(self):
        assert decode_int(7, "x") == 7
        assert decode_int("123456789012345678901", "x") == 123456789012345678901
        assert decode_int("-5", "x") == -5

    def test_decode_rejects_junk(self):
        for bad in (True, 1.5, "12x", "", None, [1], "\u00b2", "-\u0662", "+5", "1_0"):
            with pytest.raises(InputError):
                decode_int(bad, "x")

    @given(st.integers(-(2 ** 80), 2 ** 80))
    @settings(deadline=None)
    def test_round_trip(self, n):
        assert decode_int(encode_int(n), "x") == n


class TestPair:
    def test_round_trip(self):
        wt, dg = pair_from_json(pair_to_json((1, 6, 10, 15), (16, 21)))
        assert tuple(wt) == (1, 6, 10, 15)
        assert tuple(dg) == (16, 21)

    def test_degrees_optional(self):
        wt, dg = pair_from_json({"weights": [2, 3]})
        assert tuple(wt) == (2, 3) and len(dg) == 0

    def test_big_weights_survive(self):
        big = 2 ** 61 + 1
        wt, _ = pair_from_json(pair_to_json((big,), ()))
        assert wt[0] == big

    def test_rejects_bad_shapes(self):
        for bad in ([1, 2], {"degrees": [2]}, {"weights": "no"}):
            with pytest.raises(InputError):
                pair_from_json(bad)

    @pytest.mark.parametrize("bad,error,problem", [
        (True, InputError, "must be an integer, got True"),
        (0, InputError, "must be positive, got 0"),
        (-3, InputError, "must be positive, got -3"),
        (2.0, InputError, "must be an integer or decimal string, got 2.0"),
        ("1e3", InputError, "must be an integer or decimal string, got '1e3'"),
        ("7" * 5000, ResourceLimitError, f"holds an integer of more than "
         f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for integer strings"),
    ])
    def test_bad_entries_named(self, bad, error, problem):
        # an all-int array skips the per-entry decoding; any other takes it
        with pytest.raises(error) as exc:
            pair_from_json({"weights": [2, bad, 0], "degrees": [4]})
        assert str(exc.value) == f"weight {problem}"
        with pytest.raises(error) as exc:
            pair_from_json({"weights": [2], "degrees": [bad, 0]})
        assert str(exc.value) == f"degree {problem}"

    def test_decimal_strings_and_empty_degrees_accepted(self):
        wt, dg = pair_from_json({"weights": [2, "12"], "degrees": ["12"]})
        assert (wt, dg) == ((2, 12), (12,))
        assert type(wt[1]) is int and type(dg[0]) is int
        assert pair_from_json({"weights": [2], "degrees": []}) == ((2,), ())

    def test_large_ints_written_as_strings(self):
        assert pair_to_json((2 ** 53, 3), (2 ** 53 - 1,)) == {
            "weights": [str(2 ** 53), 3], "degrees": [2 ** 53 - 1]}


class TestComplexJson:
    def test_round_trip(self):
        cx = Complex.from_facets(5, [{0, 1, 2}, {2, 3}, {4}])
        assert complex_from_json(complex_to_json(cx)) == cx

    def test_facets_sorted(self):
        cx = Complex.from_facets(3, [{1, 2}, {0, 1}])
        assert complex_to_json(cx)["facets"] == [[0, 1], [1, 2]]

    def test_rejects_bad_shapes(self):
        for bad in ({}, {"n_vertices": 2}, {"n_vertices": "2", "facets": []},
                    {"n_vertices": 2, "facets": [0]}):
            with pytest.raises(InputError):
                complex_from_json(bad)


class TestFamilyJson:
    def test_round_trip(self):
        rho, mu = (1, 6, 10, 15), (16, 21, 25, 30)
        fam = build_admissible_family(rho, mu)
        back = family_from_json(family_to_json(fam), rho)
        assert back == fam

    def test_domains_rebuilt_from_weights(self):
        rho, mu = (1, 6, 10, 15), (16, 21, 25, 30)
        fam = build_admissible_family(rho, mu)
        back = family_from_json(family_to_json(fam), rho)
        assert back.domains[2] == (1, 2)

    def test_missing_table(self):
        with pytest.raises(InputError):
            family_from_json({"im_phi": [2], "injections": {}}, (2, 4))


class TestPartitionJson:
    def test_round_trip(self):
        p = NefPartition(((0, 1), (2,), (3, 4)))
        assert partition_from_json(partition_to_json(p)) == p

    def test_rejects_bad_shapes(self):
        for bad in ({}, {"parts": 3}, {"parts": [3]}):
            with pytest.raises(InputError):
                partition_from_json(bad)


class TestRealizationJson:
    def test_weights_are_strings(self):
        res = realize_weights(skeleton(4, 1))
        data = realization_to_json(res)
        assert data["weights"] == ["30", "154", "273", "715"]
        assert all(isinstance(p, int) for p in data["prime_assignment"].values())
        assert list(data["prime_assignment"]) == [
            "0,1", "0,2", "0,3", "1,2", "1,3", "2,3"]
