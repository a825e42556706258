"""Regularity criteria on a weight tuple and a degree tuple.

Covers well-formedness of the weighted projective space, the linear-cone
test, strict regularity (every index set with a common divisor above 1 must
see at least as many representable degrees as it has members), and the
divisibility combinatorics of weight subsets:

* a subset is non-divisible when no member weight divides another;
* it is strongly non-divisible when no member weight divides the lcm of
  the pairwise gcds of its members (that lcm is 1 for singletons);
* the pair of complexes they span is trivial when the two families agree.

Strong non-divisibility implies non-divisibility, and both families are
closed under subsets, so each is represented by its maximal members. Both
are evaluated over the indices of weight above 1; weight-1 indices never
matter for divisibility obstructions, and the command line reports the
literal all-indices reading separately when it differs.

Strict regularity sweeps the value sets with gcd above 1, and the
divisibility complexes come from a face oracle over the distinct heavy
values by `complexes._dualize`; each counts its nodes against
`errors.DEFAULT_NODE_BUDGET` and raises ResourceLimitError past it.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb, gcd, inf, lcm
from typing import NamedTuple

from wciq.arith import (
    DEFAULT_DP_CAP,
    DegreesLike,
    PairFacts,
    ValueFacts,
    ValuePairFacts,
    WeightFacts,
    WeightsLike,
    as_degrees,
    as_weights,
    choices,
    picked,
    weight_facts,
)
from wciq.complexes import Complex, _dualize, _value_faces
from wciq.errors import DEFAULT_NODE_BUDGET, checked_indices, node_budget


class RegularityReport(NamedTuple):
    """Aggregate verdicts. Degree-dependent fields are None when no degree
    tuple was supplied."""

    well_formed: bool
    linear_cone: bool | None
    strictly_regular: bool | None
    violating_subset: tuple[int, ...] | None
    pair_trivial: bool
    nondivisible_facets: tuple[tuple[int, ...], ...]
    strongly_nondivisible_facets: tuple[tuple[int, ...], ...]


def is_wellformed_wps(weights: WeightsLike) -> bool:
    """Well-formedness: dropping any one weight leaves overall gcd 1.

    With a single weight the remaining collection is empty and its gcd is
    taken as 0, so length-1 tuples are never well-formed here.
    """
    wt = as_weights(weights)
    # prefix[i] is the gcd of wt[:i], suffix[i] that of wt[i:]; gcd(0, a) = a.
    prefix = list(accumulate(wt, gcd, initial=0))
    suffix = list(accumulate(reversed(wt), gcd, initial=0))[::-1]
    return all(gcd(prefix[i], suffix[i + 1]) == 1 for i in range(len(wt)))


def is_linear_cone(weights: WeightsLike, degrees: DegreesLike) -> bool:
    """Does some weight equal some degree?"""
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    return bool(set(wt) & set(dg))


def _validate_subset(wt, subset) -> tuple[int, ...]:
    return tuple(sorted(set(checked_indices(subset, len(wt), "index"))))


def _non_divisible(ws) -> bool:
    """No entry of the weight list divides another entry."""
    return not any(b % a == 0 or a % b == 0 for a, b in combinations(ws, 2))


def _strongly_non_divisible(ws) -> bool:
    """No entry divides the lcm of the pairwise gcds of the entries."""
    bound = lcm(*(gcd(a, b) for a, b in combinations(ws, 2)))
    return all(bound % a != 0 for a in ws)


def is_non_divisible(weights: WeightsLike, subset) -> bool:
    """No member weight divides another member weight (distinct indices).

    Two indices carrying equal weights divide each other, so repeated
    values rule a subset out.
    """
    wt = as_weights(weights)
    return _non_divisible([wt[i] for i in _validate_subset(wt, subset)])


def is_strongly_non_divisible(weights: WeightsLike, subset) -> bool:
    """No member weight divides the lcm of the pairwise gcds of members.

    The empty lcm is 1, so a singleton passes exactly when its weight is
    above 1, and the empty set passes vacuously.
    """
    wt = as_weights(weights)
    return _strongly_non_divisible([wt[i] for i in _validate_subset(wt, subset)])


def _value_class_facets(w: WeightFacts, strong: bool) -> tuple[tuple[int, ...], ...]:
    """The facets of the non-divisible or the strongly non-divisible
    complex over the heavy indices, lex sorted: both families take at most
    one index per value, so each maximal value set takes one per value.
    Their number is charged to a budget before any is built."""
    return tuple(choices([picked(w.members, mask) for mask in w.v.once(_divisibility)[strong]],
                         node_budget(DEFAULT_NODE_BUDGET, "divisibility facet expansion")))


def _value_class_complex(weights: WeightsLike, strong: bool) -> Complex:
    w = weight_facts(as_weights(weights))
    return Complex(len(w.wt), frozenset(map(frozenset, _value_class_facets(w, strong))))


def nondivisible_complex(weights: WeightsLike) -> Complex:
    """Facets of the non-divisible subsets over indices of weight above 1."""
    return _value_class_complex(weights, False)


def strongly_nondivisible_complex(weights: WeightsLike) -> Complex:
    """Facets of the strongly non-divisible subsets over indices of weight
    above 1."""
    return _value_class_complex(weights, True)


def pair_nontriviality_witness(weights: WeightsLike) -> frozenset[int] | None:
    """The (cardinality, lex) least non-divisible face that is not strongly
    non-divisible, or None when the two families agree."""
    return _pair_witness(weight_facts(as_weights(weights)))


def _pair_witness(w: WeightFacts) -> frozenset[int] | None:
    """`pair_nontriviality_witness` from the divisibility search: the
    lex-least realization, by the least index of each value, of the failing
    value sets of least size."""
    failing = w.v.once(_divisibility)[2]
    return (frozenset(min(_least_realization(picked(w.members, m), m.bit_count())
                          for m in failing)) if failing else None)


def _least_realization(classes: list[tuple[int, ...]], size: int) -> tuple[int, ...]:
    """The lex-least set of `size` indices meeting every class (ascending
    index tuples) and drawn from their union: each class's least index,
    then the smallest of the rest."""
    rest = sorted(i for c in classes for i in c[1:])
    return tuple(sorted([c[0] for c in classes] + rest[:size - len(classes)]))


def _divisibility(v: ValueFacts) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The maximal non-divisible and strongly non-divisible value masks,
    each from `_dualize` with its test, and the failing masks
    (non-divisible, not strongly) of least size. The proper subsets of a
    least failing mask are strongly non-divisible, so these are the least
    minimal non-faces of the strong complex that are non-divisible. The
    pair is trivial when there are none. Both tests read a mask's pairs
    and charge their number to the budget both runs share."""
    verts = range(len(v.values))
    spend = node_budget(DEFAULT_NODE_BUDGET, "divisibility search")

    def test(holds):
        def is_face(mask: int) -> bool:
            spend(comb(mask.bit_count(), 2))
            return holds(v.values_of(mask))
        return is_face

    facets, nonfaces = _dualize(verts, test(_strongly_non_divisible), spend)
    failing = [m for m in nonfaces if _non_divisible(v.values_of(m))]
    least = min(map(int.bit_count, failing), default=0)
    return (tuple(_dualize(verts, test(_non_divisible), spend)[0]), tuple(facets),
            tuple(m for m in failing if m.bit_count() == least))


def pair_trivial_all_indices(weights: WeightsLike) -> bool:
    """Literal reading over all indices, weight-1 ones included. A weight-1
    singleton is a non-divisible facet that is never strongly
    non-divisible, so any weight-1 index makes this reading non-trivial;
    without ones the vertex set is the heavy set."""
    return _trivial_all_indices(weight_facts(as_weights(weights)))


def _trivial_all_indices(w: WeightFacts) -> bool:
    # the search first: its budget holds for this reading, ones or not
    return not w.v.once(_divisibility)[2] and not w.wt.ones()


def is_strictly_regular(weights: WeightsLike, degrees: DegreesLike, *,
                        dp_cap: int = DEFAULT_DP_CAP):
    """Strict regularity with a canonical witness on failure.

    Returns (True, None) or (False, witness). Representable degree counts
    depend only on the set of distinct weight values, so the search runs
    over value subsets with gcd above 1 and compares against the full
    index multiplicity of each value set. On failure the witness is the
    minimal-cardinality, then lexicographically least, violating index
    subset. A failing value set V violates at sizes of |V| and more, and
    the subsets come by size, so the sweep stops at the first subset
    larger than the least violation size found; a True verdict sweeps
    every subset.
    """
    return PairFacts(weights, degrees, dp_cap).once(_strict_regularity)


def _strict_regularity(facts: PairFacts):
    """`is_strictly_regular` of the pair: the least violating index set
    realized from the kept sweep."""
    size, failing = facts.v.once(_regularity_sweep)
    if not failing:
        return True, None
    # V violates at each size s with ng < s, |V| <= s <= |indices of V|
    return False, min(_least_realization(picked(facts.w.members, m), size) for m in failing)


def _regularity_sweep(pv: ValuePairFacts) -> tuple[float, tuple[int, ...]]:
    """The least violation size and the value masks of the failing value
    sets that violate at it, from the sweep of `is_strictly_regular`: V
    fails when its ng admissible degrees are fewer than the indices
    carrying it, and then violates at max(|V|, ng + 1). Each value set
    swept spends one node."""
    spend = node_budget(DEFAULT_NODE_BUDGET, "strict-regularity sweep")
    failing, size = [], inf
    for mask in _value_faces(pv.v):
        if mask.bit_count() > size:
            break
        spend()
        ng = len(pv.admissible(mask))
        if ng < sum(picked(pv.mults, mask)):
            s = max(mask.bit_count(), ng + 1)
            failing.append((mask, s))
            size = min(size, s)
    return size, tuple(m for m, s in failing if s == size)


def pair_is_trivial(weights: WeightsLike, degrees: DegreesLike | None = None, *,
                    dp_cap: int = DEFAULT_DP_CAP) -> RegularityReport:
    """Full regularity report for a weight tuple, degree-aware when a
    degree tuple is supplied."""
    facts = PairFacts(weights, () if degrees is None else degrees, dp_cap)
    w = facts.w
    return RegularityReport(
        **_regularity_verdicts(facts, with_degrees=degrees is not None),
        nondivisible_facets=_value_class_facets(w, False),
        strongly_nondivisible_facets=_value_class_facets(w, True),
    )


def _regularity_verdicts(facts: PairFacts, with_degrees: bool) -> dict:
    """The fields of the regularity report but its two facet lists."""
    linear_cone: bool | None = None
    regular: bool | None = None
    witness: tuple[int, ...] | None = None
    if with_degrees:
        # first: a refusal of the sweep shows before one of the divisibility search
        regular, witness = facts.once(_strict_regularity)
        linear_cone = is_linear_cone(facts.wt, facts.dg)
    w = facts.w
    return {
        "well_formed": w.once(_well_formed),
        "linear_cone": linear_cone,
        "strictly_regular": regular,
        "violating_subset": witness,
        "pair_trivial": not w.v.once(_divisibility)[2],
    }


def _well_formed(w: WeightFacts) -> bool:
    return is_wellformed_wps(w.wt)
