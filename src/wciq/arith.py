"""Exact integer arithmetic underlying all combinatorial criteria.

Provides a gcd fold, membership in numerical semigroups (is a number a
non-negative integer combination of given generators), and representable
degree sets.

All functions are pure. Python integers are arbitrary precision, so lcm
chains over realized weight tuples cannot overflow.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, product
from typing import Callable, Iterable, Sequence, TypeVar, Union

from wciq.errors import DEFAULT_NODE_BUDGET, InputError, ResourceLimitError

#: Default ceiling for the semigroup membership table. Queries above the
#: ceiling that no shortcut resolves return UNKNOWN instead of guessing.
DEFAULT_DP_CAP = 1_000_000


class _Unknown:
    """Singleton verdict for membership queries beyond the configured cap."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError(
            "representability verdict is UNKNOWN; compare with `is True` or "
            "`is False`, or raise the dp cap"
        )


UNKNOWN = _Unknown()


def _check_positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise InputError(f"{what} must be positive, got {value!r}")
    return value


class _Positives(tuple):
    """Base of the tuples of positive integers: the record is the tuple of
    its entries, so len, iteration, indexing, hashing and pickling are
    tuple's. `unit` names an entry in messages and `field` the entries in
    the repr. Slot-free: each record decides whether it has an instance
    dict."""

    __slots__ = ()
    unit: str
    field: str

    def __new__(cls, items: tuple[int, ...]):
        # all exact ints, least at least 1: valid; else the first bad entry raises
        if not set(map(type, items)) <= {int} or min(items, default=1) < 1:
            for a in items:
                _check_positive_int(a, cls.unit)
        return super().__new__(cls, items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.field}={tuple(self)!r})"

    @classmethod
    def of(cls, values: Iterable[int]):
        return cls(tuple(values))

    @property
    def total(self) -> int:
        return sum(self)


class WeightTuple(_Positives):
    """Ordered tuple of positive integer weights, addressed from 0. No
    __slots__: the cached `classes` lives in the instance dict."""

    unit = "weight"
    field = "weights"
    weights = property(tuple, doc="The weights as a plain tuple.")

    def __new__(cls, weights: tuple[int, ...]):
        if not weights:
            raise InputError("weight tuple must be nonempty")
        return super().__new__(cls, weights)

    @functools.cached_property
    def classes(self) -> dict[int, tuple[int, ...]]:
        """Value classes: each distinct value, ascending, mapped to the
        ascending indices carrying it. Built once per tuple and shared by
        every caller, so it must not be modified."""
        out: dict[int, list[int]] = {}
        for i, a in enumerate(self):
            out.setdefault(a, []).append(i)
        return {a: tuple(out[a]) for a in sorted(out)}

    def ones(self) -> tuple[int, ...]:
        """Indices carrying weight exactly 1, ascending."""
        return self.indices_of(1)

    def heavy(self) -> tuple[int, ...]:
        """Indices carrying weight greater than 1, ascending."""
        return tuple(sorted(chain.from_iterable(
            idx for a, idx in self.classes.items() if a > 1)))

    def heavy_values(self) -> tuple[int, ...]:
        """Distinct weight values greater than 1, ascending."""
        return tuple(a for a in self.classes if a > 1)

    def indices_of(self, value: int) -> tuple[int, ...]:
        return self.classes.get(value, ())

    def divisible_by(self, b: int) -> tuple[int, ...]:
        """Indices whose weight b divides, ascending."""
        return tuple(sorted(i for a, idx in self.classes.items() if a % b == 0
                            for i in idx))


class DegreeTuple(_Positives):
    """Ordered tuple of positive integer degrees, addressed from 1."""

    __slots__ = ()
    unit = "degree"
    field = "degrees"
    degrees = property(tuple, doc="The degrees as a plain tuple.")

    def degree(self, j: int) -> int:
        """The j-th degree, 1-based."""
        if not 1 <= j <= len(self):
            raise InputError(f"degree index {j} outside 1..{len(self)}")
        return self[j - 1]


WeightsLike = Union[WeightTuple, Sequence[int]]
DegreesLike = Union[DegreeTuple, Sequence[int]]
_T = TypeVar("_T")


def as_weights(values: WeightsLike) -> WeightTuple:
    return values if isinstance(values, WeightTuple) else WeightTuple.of(values)


def as_degrees(values: DegreesLike) -> DegreeTuple:
    return values if isinstance(values, DegreeTuple) else DegreeTuple.of(values)


def gcd_of(values: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty collection."""
    vals = tuple(values)
    if not vals:
        raise InputError("gcd of an empty collection is undefined")
    return math.gcd(*vals)


#: Residue tables answer a query when the smallest generator a (after
#: dividing out the gcd) satisfies a <= d >> _TABLE_SHIFT. Nearer to d, one
#: bitset over 0..d is cheaper than the O(k*a) table build.
_TABLE_SHIFT = 8

#: Residue tables kept per process; the least recently used goes first.
_TABLE_CACHE_SIZE = 256

#: Weight tuples whose facts are kept per process (`weight_facts`), value
#: sets whose facts are (`value_facts`), and pairs at value level whose
#: facts are (`value_pair_facts`); the least recently used goes first.
_WEIGHT_CACHE_SIZE = 64

#: Above this many source faces the poset-map check (`maps`) switches to
#: value-class representatives. Also bounds the occurring face weights
#: (`maps`), and the singular faces over the values that a value holder
#: keeps listed (`complexes._value_faces`).
FACE_LIMIT = 4096


def is_representable(d: int, weights: Iterable[int], *,
                     dp_cap: int = DEFAULT_DP_CAP):
    """Is d a non-negative integer combination of the given weights?

    Returns True, False, or UNKNOWN. The verdict depends only on the set of
    distinct weight values. d = 0 is always representable (the empty
    combination). If any single weight divides d the answer is True. Beyond
    dp_cap the verdict is UNKNOWN, never a guess, so dp_cap still caps d.

    Otherwise the gcd g of the weights is divided out (g not dividing d
    means False), and with a the smallest reduced weight: when
    a <= (d // g) >> 8, the answer comes from the residue (Apery) table of
    the reduced weights, built once in O(k*a) steps and then shared by every
    degree; else from a bitset over 0..d // g. At most 256 tables are kept,
    each with a <= dp_cap >> 8 entries (3906 at the default cap).
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise InputError(f"target must be a non-negative integer, got {d!r}")
    rep, unknown = _decide_row((d,), 0, *_prepare(weights), dp_cap)
    return UNKNOWN if unknown else bool(rep)


def _past_cap(what, vals: tuple[int, ...], dp_cap: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"representability of {what} over {list(vals)} exceeds the dp cap {dp_cap}")


def _prepare(weights: Iterable[int]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Validated distinct weights ascending, reduced as by `_reduce`."""
    return _reduce(tuple(sorted({_check_positive_int(a, "weight") for a in weights})))


def _reduce(vals: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Distinct ascending vals, their gcd, and the vals divided by it."""
    g = math.gcd(*vals)
    return vals, g, tuple(a // g for a in vals)


def _decide_row(degrees: tuple[int, ...], rep: int, vals: tuple[int, ...], g: int,
                reduced: tuple[int, ...], dp_cap: int) -> tuple[int, int]:
    """(representable, UNKNOWN) bits of the degrees over distinct ascending
    vals with gcd g, bit j for degrees[j]; the bits in rep are taken as
    decided. The one membership rule: 0 and a degree that a value divides
    are representable; past dp_cap any other degree is UNKNOWN (over no
    values, not representable); within it, one g does not divide is not;
    else, with a the least reduced value and q = d // g, q is read from
    the residue table of the reduced values, fetched at most once per row,
    when a <= q >> _TABLE_SHIFT, and decided by a bitset over 0..q below."""
    unknown, table = 0, None
    for j, d in enumerate(degrees):
        if rep >> j & 1:
            continue
        if not vals or d > dp_cap:
            if not d or any(d % v == 0 for v in vals):
                rep |= 1 << j
            elif vals:
                unknown |= 1 << j
        elif not d % g:
            q, a = d // g, reduced[0]
            if a <= q >> _TABLE_SHIFT:
                table = table or _residue_table(reduced)
                rep |= (q >= table[q % a]) << j
            elif any(d % v == 0 for v in vals) or _bitset_representable(q, reduced):
                rep |= 1 << j
    return rep, unknown


def _bitset_representable(d: int, vals: tuple[int, ...]) -> bool:
    """Membership over distinct ascending vals by a bitset over 0..d."""
    # Bitset closure: bit x of `reach` is set when x is a representable sum.
    mask = (1 << (d + 1)) - 1
    reach = 1
    for a in vals:
        if a > d:
            break
        shift = a
        while shift <= d:
            reach = (reach | (reach << shift)) & mask
            shift <<= 1
        if (reach >> d) & 1:
            return True
    return bool((reach >> d) & 1)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _residue_table(gens: tuple[int, ...]) -> tuple:
    """Entry r is the least representable number congruent to r modulo
    gens[0], or math.inf if there is none (the Apery set of the semigroup).

    Round robin (Boecker & Liptak, "A fast and simple algorithm for the
    money changing problem", Algorithmica 2007): each further generator b
    walks the gcd(a, b) cycles r -> r + b (mod a), each from its least
    entry, so the table costs O(k*a) steps.
    """
    a = gens[0]
    table = [math.inf] * a
    table[0] = 0
    for b in gens[1:]:
        cycles = math.gcd(a, b)
        for p in range(cycles):
            n = min(table[p::cycles])
            if n == math.inf:
                continue
            for _ in range(a // cycles - 1):
                n += b
                r = n % a
                if table[r] < n:
                    n = table[r]
                else:
                    table[r] = n
    return tuple(table)


def representable_degrees(weights: Iterable[int], degrees: DegreesLike, *,
                          dp_cap: int = DEFAULT_DP_CAP) -> frozenset[int]:
    """1-based indices j whose degree is representable over the weights.

    The weights are validated and reduced once for all degrees. An UNKNOWN
    verdict is a hard stop: the caller asked for an exact set, so the
    offending degree is reported as a resource error.
    """
    vals, g, reduced = _prepare(weights)
    dg = as_degrees(degrees)
    return frozenset(_admissible(dg, *_decide_row(dg, 0, vals, g, reduced, dp_cap),
                                 vals, dp_cap))


def _admissible(dg: DegreeTuple, rep: int, unknown: int, vals: tuple[int, ...],
                dp_cap: int) -> tuple[int, ...]:
    """The 1-based indices of the rep bits, ascending; a set unknown bit
    raises ResourceLimitError for its lowest degree."""
    if unknown:
        j = (unknown & -unknown).bit_length()
        raise _past_cap(f"degree d_{j} = {dg.degree(j)}", vals, dp_cap)
    return tuple([j for j in range(1, rep.bit_length() + 1) if rep >> j - 1 & 1])


class _Memo:
    """Facts derived at most once each, kept per holder by their derive."""

    __slots__ = ("_facts",)

    def __init__(self):
        self._facts: dict = {}

    def once(self, derive: Callable[..., _T]) -> _T:
        """derive(self), computed on the first request and kept. A derive
        that raises keeps nothing, so a guard inside it runs on every call
        until it passes."""
        facts = self._facts
        if derive not in facts:
            facts[derive] = derive(self)
        return facts[derive]

    def kept(self, derive: Callable[..., _T]) -> _T | None:
        """What `once(derive)` has kept, or None before it has run."""
        return self._facts.get(derive)

    def metered(self, derive: Callable[..., _T], spend: Callable[[int], int]) -> _T:
        """derive(self, spend), kept with the nodes it charged `spend`, a
        `node_budget`, once it finishes. A later call charges `spend` that
        count at once, so each budget answers alike whatever ran before."""
        facts = self._facts
        if derive not in facts:
            start = spend(0)
            facts[derive] = derive(self, spend), spend(0) - start
        else:
            spend(facts[derive][1])
        return facts[derive][0]


class ValueFacts(_Memo):
    """What is derived about one set of distinct heavy values, each fact at
    most once. Internal: not part of the package interface.

    `value_facts` keeps one holder per ascending tuple of distinct heavy
    values in the process, so every weight tuple with these values shares
    its facts, whatever the order of its weights, their multiplicities and
    its weight-1 padding: the divisibility facets and least failing value
    masks, the occurring face weights with their value masks and covers,
    the coprime base, the singular complex over the values and, apart, its
    minimal non-faces by twin classes, and its faces when they number at
    most FACE_LIMIT. A kept fact grows with the values and with the
    facets and non-faces found over them, never with the indices. A value
    set is a mask: bit k for values[k].
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        super().__init__()
        self.values = values

    def values_of(self, mask: int) -> tuple[int, ...]:
        """The values of a mask, ascending."""
        return tuple(picked(self.values, mask))


def picked(items: Sequence[_T], mask: int) -> list[_T]:
    """The items at the set bits of the mask, in order."""
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def choices(class_lists: Sequence[Sequence[Sequence[_T]]],
            spend: Callable[[int], object]) -> list[tuple[_T, ...]]:
    """Every choice of one member from each class of each list, as sorted
    tuples in lex order; a list without classes has the one empty choice.
    Their number, the sum over the lists of the products of the class
    sizes, is charged to `spend` before any choice is built."""
    spend(sum(math.prod(map(len, classes)) for classes in class_lists))
    return sorted(tuple(sorted(c)) for classes in class_lists for c in product(*classes))


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def value_facts(values: tuple[int, ...]) -> ValueFacts:
    """The holder of a value set's facts, shared by every caller in the
    process; the least recently used of _WEIGHT_CACHE_SIZE goes first."""
    return ValueFacts(values)


class WeightFacts(_Memo):
    """What is derived about one weight tuple that reads its indices or
    multiplicities, each fact at most once. Internal: not part of the
    package interface.

    A thin expander of the value masks kept by `v`, the `value_facts` of
    the distinct heavy values: `members` holds the index class of each
    value, bit k's. `weight_facts` keeps one holder per weight tuple, so
    every pair with these weights shares well-formedness, the singular
    complex, the domains of the occurring face weights, the faces the
    poset-map check reads (at most FACE_LIMIT), and the report sections of
    the weights alone, encoded once; the rest is expanded per call. No
    kept fact reaches a public caller mutable.
    """

    __slots__ = ("wt", "v", "members")

    def __init__(self, wt: WeightTuple):
        super().__init__()
        self.wt = wt
        self.v = value_facts(wt.heavy_values())
        self.members = [wt.classes[v] for v in self.v.values]

    def mask(self, indices: Iterable[int]) -> int:
        """The mask of the values at the given heavy indices."""
        return sum({1 << self.v.values.index(self.wt[i]) for i in indices})

    def indices(self, mask: int) -> tuple[int, ...]:
        """The indices carrying the values of a mask, ascending."""
        return tuple(sorted(chain.from_iterable(picked(self.members, mask))))


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def weight_facts(wt: WeightTuple) -> WeightFacts:
    """The holder of a weight tuple's facts, shared by every caller in the
    process; the least recently used of _WEIGHT_CACHE_SIZE goes first."""
    return WeightFacts(wt)


class ValuePairFacts(_Memo):
    """What is derived about one pair at value level, each fact at most
    once. Internal: not part of the package interface.

    `value_pair_facts` keeps one holder per (distinct heavy values, their
    multiplicities, degrees, dp_cap) in the process, so every pair with
    these shares its facts, whatever the order of its weights and its
    weight-1 padding: the membership rows, the strict-regularity sweep,
    the maximal base-complex value masks and the family's image sets. The
    facts of the values alone live on `v`, the shared `value_facts`. No
    fact here reads an index; each pair expands them on its own holder.
    Each value set has one `row` of verdicts.
    """

    __slots__ = ("v", "mults", "dg", "dp_cap", "_rows")

    def __init__(self, values: tuple[int, ...], mults: tuple[int, ...], dg: DegreeTuple,
                 dp_cap: int):
        super().__init__()
        self.v = value_facts(values)
        self.mults = mults
        self.dg = dg
        self.dp_cap = dp_cap
        self._rows: dict[int, tuple[int, int]] = {}

    def row(self, mask: int) -> tuple[int, int]:
        """Disjoint (representable, UNKNOWN) degree bits of a value set, bit
        j - 1 for degree j. Membership is monotone: the representable bits of
        immediate sub-masks with rows carry over, and only open degrees are
        decided, by one `_decide_row` over the value set reduced once that
        reads table-side degrees in place, so each (value set, degree) is
        decided at most once. The empty mask represents no degree."""
        row = self._rows.get(mask)
        if row is None:
            rep = 0
            for k in range(mask.bit_length()):
                if mask >> k & 1:
                    rep |= self._rows.get(mask ^ 1 << k, (0,))[0]
            dg = self.dg
            row = self._rows[mask] = (rep, 0) if rep == (1 << len(dg)) - 1 else _decide_row(
                dg, rep, *_reduce(self.v.values_of(mask)), self.dp_cap)
        return row

    def admissible(self, mask: int) -> tuple[int, ...]:
        """`representable_degrees` over the value set, ascending, from its row."""
        rep, unknown = self.row(mask)
        # the values only name an UNKNOWN verdict
        return _admissible(self.dg, rep, unknown, unknown and self.v.values_of(mask),
                           self.dp_cap)

    def representable(self, j: int, mask: int) -> bool:
        """Is the j-th degree representable over the value set? Read off its
        row; where the verdict is UNKNOWN, raises ResourceLimitError."""
        rep, unknown = self.row(mask)
        if unknown >> j - 1 & 1:
            raise _past_cap(self.dg.degree(j), self.v.values_of(mask), self.dp_cap)
        return bool(rep >> j - 1 & 1)


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def value_pair_facts(values: tuple[int, ...], mults: tuple[int, ...], dg: DegreeTuple,
                     dp_cap: int) -> ValuePairFacts:
    """The holder of a pair's value-level facts, shared by every caller in
    the process; the least recently used of _WEIGHT_CACHE_SIZE goes first."""
    return ValuePairFacts(values, mults, dg, dp_cap)


class PairFacts(_Memo):
    """What is derived about one pair (weights, degrees, dp_cap) that reads
    its indices, each fact at most once. Internal: not part of the package
    interface.

    One holder per command or public call. It expands to indices the facts
    of `v`, the shared `value_pair_facts` of the pair; those of the weights
    alone live on `w`, the shared `weight_facts` of the tuple, and those of
    their distinct heavy values on `w.v`. A fact is kept at the level it
    reads and nowhere else. node_budget bounds each search run for the
    holder; a search kept on `v` answers each budget as a fresh run would.
    Through `once` the layers keep the base facets, strict regularity's
    witness, the family skeleton, the checked family and the construction.
    """

    __slots__ = ("w", "wt", "dg", "v", "node_budget")

    def __init__(self, weights: WeightsLike, degrees: DegreesLike,
                 dp_cap: int = DEFAULT_DP_CAP, node_budget: int = DEFAULT_NODE_BUDGET):
        super().__init__()
        self.w = weight_facts(as_weights(weights))
        self.wt = self.w.wt
        self.dg = as_degrees(degrees)
        self.v = value_pair_facts(self.w.v.values, tuple(map(len, self.w.members)),
                                  self.dg, dp_cap)
        self.node_budget = node_budget
