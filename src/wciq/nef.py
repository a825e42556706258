"""Nef partitions of weighted complete intersection data.

A partition I_0, I_1, ..., I_c of the weight indices is a nef partition
when the weights in I_j sum to the j-th degree for every j >= 1; the
leftover part I_0 then sums to the Fano index automatically. It is nice
when I_0 contains a weight-one index, and strong when I_0 consists of
weight-one indices only and every weight in I_j divides the j-th degree.

Since I_0 sums to the Fano index, no partition exists when the index is
negative and no nice one when it is below 1: find_nef_partition answers
those in closed form, and its None is a proof of nonexistence either way.

Two ways in: a direct combinatorial search over distributions of the
repeated heavy weights (find_nef_partition), and the structural
construction from an admissible injection family, whose vertex fibers
force the heavy part of each I_j (construct_strong_nef_partition). The
construction only needs the four stated preconditions; everything else
it checks at runtime and reports as an internal error if violated,
because the input data cannot cause those failures.
"""

from __future__ import annotations

from operator import floordiv
from typing import Iterable, NamedTuple, Sequence

from wciq import errors
from wciq.arith import (
    DEFAULT_DP_CAP,
    DegreesLike,
    PairFacts,
    WeightsLike,
    as_degrees,
    as_weights,
)
from wciq.errors import (
    DEFAULT_NODE_BUDGET,
    InputError,
    InternalConsistencyError,
    PreconditionFailure,
    checked_indices,
)
from wciq.maps import AdmissibleFamily, _family, vertex_fibers
from wciq.regularity import _pair_witness, _strict_regularity, is_linear_cone

_MODES = ("any", "nice", "strong")


def fano_index(weights: WeightsLike, degrees: DegreesLike) -> int:
    """Sum of weights minus sum of degrees. Positive for Fano data."""
    return as_weights(weights).total - as_degrees(degrees).total


class _PartitionFields(NamedTuple):
    parts: tuple[tuple[int, ...], ...]


class NefPartition(_PartitionFields):
    """parts[0] is the leftover part I_0; parts[j] pairs with degree j."""

    __slots__ = ()

    def __new__(cls, parts: tuple[tuple[int, ...], ...]):
        return super().__new__(cls, tuple(tuple(sorted(p)) for p in parts))

    @property
    def leftover(self) -> tuple[int, ...]:
        return self.parts[0]


class NefClassification(NamedTuple):
    valid: bool
    nice: bool
    strong: bool

    def satisfies(self, mode: str) -> bool:
        if mode == "any":
            return self.valid
        if mode == "nice":
            return self.nice
        if mode == "strong":
            return self.strong
        raise InputError(f"unknown mode {mode!r}; expected one of {_MODES}")


def classify_partition(weights: WeightsLike, degrees: DegreesLike,
                       partition: NefPartition) -> NefClassification:
    """Classify a structurally well-formed partition.

    Structure errors (wrong part count, overlap, indices missed or out of
    range) are input errors; failing the sum conditions is a verdict.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    if len(partition.parts) != len(dg) + 1:
        raise InputError(
            f"expected {len(dg) + 1} parts for {len(dg)} degrees, "
            f"got {len(partition.parts)}")
    seen: set[int] = set()
    for i in checked_indices([i for p in partition.parts for i in p], len(wt), "index"):
        if i in seen:
            raise InputError(f"index {i} appears in more than one part")
        seen.add(i)
    if len(seen) != len(wt):
        missing = sorted(set(range(len(wt))) - seen)
        raise InputError(f"indices {missing} belong to no part")

    paired = list(zip(dg, partition.parts[1:]))
    valid = all(sum(wt[i] for i in part) == d for d, part in paired)
    nice = valid and any(wt[i] == 1 for i in partition.leftover)
    strong = (valid
              and all(wt[i] == 1 for i in partition.leftover)
              and all(d % wt[i] == 0 for d, part in paired for i in part))
    return NefClassification(valid, nice, strong)


def find_nef_partition(weights: WeightsLike, degrees: DegreesLike,
                       mode: str = "strong", *,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> NefPartition | None:
    """Bounded search for a partition of the requested kind.

    I_0 sums to the Fano index, so no partition exists when the index is
    negative, and no nice one when it is below 1 or there is no weight-one
    index; these closed forms answer before any search. Otherwise
    weight-one indices are interchangeable, so the search runs over
    distributions of each repeated heavy value across the parts (values
    ascending, each distribution ascending in (k_0, ..., k_c)) and fills
    the remaining deficits with ones. Each part has a room: d_j less its
    heavy mass for j >= 1, and for I_0 the heavy mass it may still take
    (the index, less one in nice mode). A value v puts at most room // v
    copies into a part, so every complete distribution is a partition
    and the first one found is the lexicographically first; a branch
    where some value left to place no longer fits into the room of the
    parts it may enter is cut, before the value's first part, at no node
    cost. The search runs in `errors.backtrack`, one level per value and
    part; each k tried is a candidate and counts one node, so a pair with
    no heavy value spends none. None means proven nonexistence within the
    mode, not a timeout; running out of nodes raises instead.
    """
    if mode not in _MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {_MODES}")
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    ones = wt.ones()
    spare = wt.total - dg.total - (mode == "nice")
    if spare < 0 or (mode == "nice" and not ones):
        return None
    degs = list(dg)
    c = len(degs)
    values = wt.heavy_values()
    room = [spare] + degs
    # sizes[vi][j]: the room a copy of values[vi] takes in part j; past every
    # room where it may not enter (in strong mode I_0 and each I_j whose
    # degree it does not divide), so that it fits there 0 times
    never = max(room) + 1
    sizes = [[v if mode != "strong" or j and degs[j - 1] % v == 0 else never
              for j in range(c + 1)] for v in values]
    mults = [len(wt.classes[v]) for v in values]
    # counts[vi][j] = how many copies of values[vi] go to part j
    counts = [[0] * (c + 1) for _ in values]

    def level(i: int):
        """Level i: c + 1 per value, one for each part 0..c."""
        vi, j = divmod(i, c + 1)
        # part 0 goes on only when each value from vi on still fits into
        # its parts' room
        if not j and any(sum(map(floordiv, room, sizes[wi])) < mults[wi]
                         for wi in range(vi, len(values))):
            return
        v, dist = values[vi], counts[vi]
        # k ascending; the later parts, untouched by this value, take the rest
        left = mults[vi] - sum(dist[:j])
        for k in range(max(0, left - sum(map(floordiv, room[j + 1:], sizes[vi][j + 1:]))),
                       min(left, room[j] // sizes[vi][j]) + 1):
            dist[j] = k
            room[j] -= k * v
            yield True
            room[j] += k * v

    if not errors.backtrack(len(values) * (c + 1), level,
                            errors.node_budget(node_budget, "partition search")):
        return None
    return _layout(ones, [len(ones) - sum(room[1:]), *room[1:]],
                   [(wt.classes[v], dist) for v, dist in zip(values, counts)])


def _layout(ones: Sequence[int], fill: Sequence[int],
            heavy: Iterable[tuple[Sequence[int], Sequence[int]]]) -> NefPartition:
    """The partition of the index blocks: the ones fill I_0 with fill[0]
    and then each I_j with its deficit fill[j]; each heavy (indices,
    counts) block puts its next counts[j] indices into I_j, in order."""
    parts: list[list[int]] = [[] for _ in fill]
    for idx, counts in [(ones, fill), *heavy]:
        at = 0
        for part, k in zip(parts, counts):
            part.extend(idx[at:at + k])
            at += k
    return NefPartition(tuple(map(tuple, parts)))


def construct_strong_nef_partition(
        weights: WeightsLike, degrees: DegreesLike, *,
        dp_cap: int = DEFAULT_DP_CAP,
) -> tuple[NefPartition, AdmissibleFamily, tuple[int, ...]]:
    """Build a strong nef partition from an admissible injection family.

    Preconditions, checked in order: the data is not a linear cone, the
    Fano index is positive, the weights are strictly regular for the
    degrees, and every non-divisible face weight set is strongly
    non-divisible. Each failure raises PreconditionFailure naming the
    hypothesis; anything unexpected after that is an internal error.

    Returns the partition, the family it came from, and the per-degree
    slack amounts (how many weight-one indices each part absorbed).
    """
    return PairFacts(weights, degrees, dp_cap).once(_construction)[:3]


def _construction(facts: PairFacts) -> tuple[
        NefPartition, AdmissibleFamily, tuple[int, ...], NefClassification]:
    """`construct_strong_nef_partition` of the pair, with the partition's
    classification (strong, or the construction fails) as fourth member."""
    wt = facts.wt
    dg = facts.dg
    if is_linear_cone(wt, dg):
        raise PreconditionFailure(
            "not_linear_cone", "some weight equals one of the degrees")
    idx = fano_index(wt, dg)
    if idx <= 0:
        raise PreconditionFailure("fano", f"the index {idx} is not positive")
    regular, witness = facts.once(_strict_regularity)
    if not regular:
        raise PreconditionFailure(
            "strictly_regular",
            f"violating index subset {sorted(witness)}", witness=witness)
    pair_witness = _pair_witness(facts.w)
    if pair_witness is not None:
        raise PreconditionFailure(
            "pair_trivial",
            f"non-divisible but not strongly non-divisible subset "
            f"{sorted(pair_witness)}", witness=pair_witness)

    fam = facts.once(_family)
    if fam is None:
        raise InternalConsistencyError(
            "no admissible family exists although all preconditions hold")
    fibers = vertex_fibers(fam)
    heavy = [fibers.get(j, ()) for j in range(1, len(dg) + 1)]
    deltas = []
    for j, (d, f) in enumerate(zip(dg, heavy), 1):
        fiber_sum = sum(wt[i] for i in f)
        if fiber_sum > d:
            raise InternalConsistencyError(
                f"fiber of degree {j} outweighs the degree: {fiber_sum} > {d}")
        deltas.append(d - fiber_sum)
    ones = wt.ones()
    if len(ones) != idx + sum(deltas):
        raise InternalConsistencyError(
            f"{len(ones)} weight-one indices cannot absorb index {idx} "
            f"plus slack {sum(deltas)}")
    # the fibers, in degree order, form one heavy block
    partition = _layout(ones, [idx, *deltas],
                        [([i for f in heavy for i in f], [0, *map(len, heavy)])])
    classification = classify_partition(wt, dg, partition)
    if not classification.strong:
        raise InternalConsistencyError(
            "constructed partition failed its own classification")
    return partition, fam, tuple(deltas), classification
