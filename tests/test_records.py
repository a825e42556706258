"""Semantics every record type of the package keeps: repr text, equality
and hashing, immutable fields, pickling, validation and normalisation."""

import copy
import pickle

import pytest

from wciq.arith import DegreeTuple, WeightTuple
from wciq.complexes import Complex, SRPresentation, WeightedComplex
from wciq.errors import InputError
from wciq.maps import AdmissibleFamily, MapValidation, PosetMapReport, WeightedMap
from wciq.nef import NefClassification, NefPartition
from wciq.realize import ContractionInstance, MapInstance, RealizationResult
from wciq.regularity import RegularityReport

EDGE = Complex(2, frozenset({frozenset({0, 1})}))
POINT = Complex(1, frozenset({frozenset({0})}))
EDGE_REPR = "Complex(n_vertices=2, facets=frozenset({frozenset({0, 1})}))"
POINT_REPR = "Complex(n_vertices=1, facets=frozenset({frozenset({0})}))"


def weighted_map():
    return WeightedMap(WeightedComplex(EDGE, {0: 2, 1: 4}),
                       WeightedComplex(POINT, {0: 2}), {0: 0, 1: 0})


WEIGHTED_MAP_REPR = (
    "WeightedMap(source=WeightedComplex(complex=" + EDGE_REPR
    + ", vertex_weights={0: 2, 1: 4}), target=WeightedComplex(complex="
    + POINT_REPR + ", vertex_weights={0: 2}), vertex_assignment={0: 0, 1: 0})")

#: (build, repr text, hashable) for each of the fifteen record types.
RECORDS = [
    (lambda: WeightTuple((1, 2, 2)), "WeightTuple(weights=(1, 2, 2))", True),
    (lambda: DegreeTuple((4, 6)), "DegreeTuple(degrees=(4, 6))", True),
    (lambda: EDGE, EDGE_REPR, True),
    (lambda: WeightedComplex(EDGE, {1: 4, 0: 2}),
     "WeightedComplex(complex=" + EDGE_REPR + ", vertex_weights={1: 4, 0: 2})", False),
    (lambda: SRPresentation((0, 1), (2, 4), (frozenset({0, 1}),)),
     "SRPresentation(vertices=(0, 1), variable_degrees=(2, 4), "
     "generators=(frozenset({0, 1}),))", True),
    (weighted_map, WEIGHTED_MAP_REPR, False),
    (lambda: MapValidation(True, None, False, (0,), None),
     "MapValidation(simplicial=True, simplicial_witness=None, weighted=False, "
     "weighted_witness=(0,), contracts_face=None)", True),
    (lambda: AdmissibleFamily((2,), {2: [0, 1]}, {2: {0: 1, 1: 2}}),
     "AdmissibleFamily(im_phi=(2,), domains={2: (0, 1)}, "
     "injections={2: {0: 1, 1: 2}})", False),
    (lambda: PosetMapReport((), True, None, True, (((0,), 1, True),), True, None,
                            True, None, "all-faces"),
     "PosetMapReport(family_violations=(), property1=True, property1_witness=None, "
     "property2=True, property2_records=(((0,), 1, True),), property3=True, "
     "property3_witness=None, order_preserving=True, order_witness=None, "
     "scope='all-faces')", True),
    (lambda: NefPartition(((2,), (1, 0))), "NefPartition(parts=((2,), (0, 1)))", True),
    (lambda: NefClassification(True, True, False),
     "NefClassification(valid=True, nice=True, strong=False)", True),
    (lambda: RealizationResult(WeightTuple((2,)), {frozenset({0}): 2}),
     "RealizationResult(weights=WeightTuple(weights=(2,)), "
     "prime_assignment={frozenset({0}): 2})", False),
    (lambda: ContractionInstance(WeightTuple((1, 2)), DegreeTuple((4,)), (1,)),
     "ContractionInstance(weights=WeightTuple(weights=(1, 2)), "
     "degrees=DegreeTuple(degrees=(4,)), image_simplex=(1,))", True),
    (lambda: MapInstance(WeightTuple((2, 4)), DegreeTuple((2,)), weighted_map()),
     "MapInstance(weights=WeightTuple(weights=(2, 4)), degrees=DegreeTuple(degrees=(2,)), "
     "planted=" + WEIGHTED_MAP_REPR + ")", False),
    (lambda: RegularityReport(True, False, True, None, True, ((0, 1),), ()),
     "RegularityReport(well_formed=True, linear_cone=False, strictly_regular=True, "
     "violating_subset=None, pair_trivial=True, nondivisible_facets=((0, 1),), "
     "strongly_nondivisible_facets=())", True),
]
IDS = [text.split("(", 1)[0] for _, text, _ in RECORDS]


@pytest.mark.parametrize("build,text,hashable", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_repr(self, build, text, hashable):
        assert repr(build()) == text

    def test_equal_records(self, build, text, hashable):
        a, b = build(), build()
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_fields_are_read_only(self, build, text, hashable):
        record = build()
        field = text.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert repr(record) == text

    def test_pickle_round_trip(self, build, text, hashable):
        record = build()
        for clone in copies(record):
            assert clone == record and type(clone) is type(record)
            assert repr(clone) == text


def copies(record):
    """The record through pickle at every protocol, copy and deepcopy."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))
    yield copy.copy(record)
    yield copy.deepcopy(record)


def test_pickle_after_cached_classes():
    wt = WeightTuple((3, 1, 3))
    assert wt.classes == {1: (1,), 3: (0, 2)}
    for clone in copies(wt):
        assert clone == wt and clone.classes == wt.classes
        assert len(clone) == 3 and list(clone) == [3, 1, 3] and clone[2] == 3


class TestValidation:
    def test_empty_weight_tuple(self):
        with pytest.raises(InputError, match="^weight tuple must be nonempty$"):
            WeightTuple(())

    def test_non_positive_degree(self):
        with pytest.raises(InputError, match="^degree must be positive, got 0$"):
            DegreeTuple((3, 0))

    @pytest.mark.parametrize("bad,problem", [
        (True, "an integer, got True"), (0, "positive, got 0"), (-3, "positive, got -3"),
        (2.0, "an integer, got 2.0"), ("12", "an integer, got '12'"),
        ("1e3", "an integer, got '1e3'"), ("7" * 5000, f"an integer, got '{'7' * 5000}'"),
    ])
    def test_first_bad_entry_named(self, bad, problem):
        # an all-int tuple is checked in one pass; any other names its first bad entry
        with pytest.raises(InputError) as exc:
            WeightTuple((2, bad, 0))
        assert str(exc.value) == f"weight must be {problem}"
        with pytest.raises(InputError) as exc:
            DegreeTuple((bad, True))
        assert str(exc.value) == f"degree must be {problem}"

    def test_valid_entries_kept(self):
        assert DegreeTuple(()) == () and WeightTuple([2 ** 80, 1]) == (2 ** 80, 1)
        assert type(WeightTuple((1,))) is WeightTuple

    def test_weights_must_cover_vertices(self):
        with pytest.raises(InputError, match=(
                r"^vertex weights must cover exactly the complex vertices; "
                r"got keys \[0\] for vertices \[0, 1\]$")):
            WeightedComplex(EDGE, {0: 2})


class TestNormalisation:
    def test_partition_parts_sorted(self):
        assert NefPartition([[3, 1], (2, 0)]).parts == ((1, 3), (0, 2))

    def test_weighted_complex_copies_its_dict(self):
        weights = {0: 2, 1: 4}
        wc = WeightedComplex(EDGE, weights)
        weights[0] = 6
        assert wc.vertex_weights == {0: 2, 1: 4}

    def test_weighted_map_copies_its_dict(self):
        assignment = {0: 0, 1: 0}
        wm = WeightedMap(WeightedComplex(EDGE, {0: 2, 1: 4}),
                         WeightedComplex(POINT, {0: 2}), assignment)
        assignment[1] = 5
        assert wm.vertex_assignment == {0: 0, 1: 0}

    def test_family_copies_its_dicts(self):
        domains, inner = {2: [0, 1]}, {0: 1, 1: 2}
        injections = {2: inner}
        fam = AdmissibleFamily((2,), domains, injections)
        domains[2].append(5)
        domains[4] = (0,)
        inner[0] = 9
        injections[4] = {}
        assert fam.domains == {2: (0, 1)}
        assert fam.injections == {2: {0: 1, 1: 2}}

    def test_realization_copies_its_dicts(self):
        primes = {frozenset({0}): 2}
        res = RealizationResult(WeightTuple((2,)), primes)
        primes[frozenset({0})] = 5
        primes[frozenset({1})] = 3
        assert res.face_values == {frozenset({0}): 2}
        assert res.prime_assignment == {frozenset({0}): 2}
