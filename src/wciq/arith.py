"""Exact integer arithmetic underlying all combinatorial criteria.

Provides gcd/lcm folds, membership in numerical semigroups (is a number a
non-negative integer combination of given generators), representable degree
sets, and cover relations in finite divisibility posets.

All functions are pure. Python integers are arbitrary precision, so lcm
chains over realized weight tuples cannot overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

from wciq.errors import InputError, ResourceLimitError

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


@dataclass(frozen=True)
class WeightTuple:
    """Ordered tuple of positive integer weights, addressed from 0."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise InputError("weight tuple must be nonempty")
        for a in self.weights:
            _check_positive_int(a, "weight")

    @classmethod
    def of(cls, values: Iterable[int]) -> "WeightTuple":
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]

    @property
    def total(self) -> int:
        return sum(self.weights)

    @functools.cached_property
    def classes(self) -> dict[int, tuple[int, ...]]:
        """Value classes: each distinct value, ascending, mapped to the
        ascending indices carrying it. Built once per tuple and shared by
        every caller, so it must not be modified."""
        out: dict[int, list[int]] = {}
        for i, a in enumerate(self.weights):
            out.setdefault(a, []).append(i)
        return {a: tuple(out[a]) for a in sorted(out)}

    def ones(self) -> tuple[int, ...]:
        """Indices carrying weight exactly 1, ascending."""
        return self.indices_of(1)

    def heavy(self) -> tuple[int, ...]:
        """Indices carrying weight greater than 1, ascending."""
        return tuple(i for i, a in enumerate(self.weights) if a > 1)

    def heavy_values(self) -> tuple[int, ...]:
        """Distinct weight values greater than 1, ascending."""
        return tuple(a for a in self.classes if a > 1)

    def indices_of(self, value: int) -> tuple[int, ...]:
        return self.classes.get(value, ())

    def divisible_by(self, b: int) -> tuple[int, ...]:
        """Indices whose weight b divides, ascending."""
        return tuple(sorted(i for a, idx in self.classes.items() if a % b == 0
                            for i in idx))


@dataclass(frozen=True)
class DegreeTuple:
    """Ordered tuple of positive integer degrees, addressed from 1."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        for d in self.degrees:
            _check_positive_int(d, "degree")

    @classmethod
    def of(cls, values: Iterable[int]) -> "DegreeTuple":
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def degree(self, j: int) -> int:
        """The j-th degree, 1-based."""
        if not 1 <= j <= len(self.degrees):
            raise InputError(f"degree index {j} outside 1..{len(self.degrees)}")
        return self.degrees[j - 1]

    @property
    def total(self) -> int:
        return sum(self.degrees)


WeightsLike = Union[WeightTuple, Sequence[int]]
DegreesLike = Union[DegreeTuple, Sequence[int]]


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


def lcm_or_one(values: Iterable[int]) -> int:
    """Least common multiple, with the empty collection mapped to 1."""
    return math.lcm(*tuple(values))


def common_factor_subsets(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Subsets of the values with gcd above 1, by size, then lexicographic
    in the given order."""
    for r in range(1, len(values) + 1):
        for vs in combinations(values, r):
            if math.gcd(*vs) > 1:
                yield vs


#: Residue tables answer a query when the smallest generator a (after
#: dividing out the gcd) satisfies a <= d >> _TABLE_SHIFT. Nearer to d, one
#: bitset over 0..d is cheaper than the O(k*a) table build.
_TABLE_SHIFT = 8

#: Residue tables kept per process; the least recently used goes first.
_TABLE_CACHE_SIZE = 256


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
    return _decide(d, *_prepare(weights), dp_cap)


def representable(d: int, values: Iterable[int], *,
                  dp_cap: int = DEFAULT_DP_CAP) -> bool:
    """`is_representable` for a positive degree over values taken from a
    validated WeightTuple, which are not validated again. Where that would
    return UNKNOWN, this raises ResourceLimitError instead."""
    vals = tuple(sorted(set(values)))
    return _definite(_decide(d, *_reduce(vals), dp_cap), d, vals, dp_cap)


def _definite(verdict, d: int, vals: tuple[int, ...], dp_cap: int) -> bool:
    """A True or False verdict as it is; UNKNOWN as a resource error."""
    if verdict is UNKNOWN:
        raise ResourceLimitError(
            f"representability of {d} over {list(vals)} exceeds the dp cap {dp_cap}")
    return verdict


def _prepare(weights: Iterable[int]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Validated distinct weights ascending, reduced as by `_reduce`."""
    return _reduce(tuple(sorted({_check_positive_int(a, "weight") for a in weights})))


def _reduce(vals: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Distinct ascending vals, their gcd, and the vals divided by it."""
    g = math.gcd(*vals)
    return vals, g, tuple(a // g for a in vals)


def _decide(d: int, vals: tuple[int, ...], g: int, reduced: tuple[int, ...],
            dp_cap: int):
    if d == 0:
        return True
    if any(d % a == 0 for a in vals):
        return True
    if not vals:
        return False
    if d > dp_cap:
        return UNKNOWN
    if d % g:
        return False
    d //= g
    if reduced[0] <= d >> _TABLE_SHIFT:
        return _table_representable(d, reduced)
    return _bitset_representable(d, reduced)


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


def _table_representable(d: int, gens: tuple[int, ...]) -> bool:
    """Membership over distinct ascending gens by their residue table."""
    return d >= _residue_table(gens)[d % gens[0]]


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
    dg = as_degrees(degrees)
    return _admissible(_prepare(weights), dg, dp_cap, [None] * len(dg))


def _admissible(prepared: tuple, dg: DegreeTuple, dp_cap: int,
                verdicts: list) -> frozenset[int]:
    """`representable_degrees` over prepared values. verdicts[j - 1] holds
    the verdict on degree j once decided (None before), and is filled in."""
    out = set()
    for j, d in enumerate(dg, start=1):
        verdict = verdicts[j - 1]
        if verdict is None:
            verdict = verdicts[j - 1] = _decide(d, *prepared, dp_cap)
        if verdict is UNKNOWN:
            raise ResourceLimitError(
                f"representability of degree d_{j} = {d} over {list(prepared[0])} "
                f"exceeds the dp cap {dp_cap}")
        if verdict:
            out.add(j)
    return frozenset(out)


class PairFacts:
    """What is derived about one pair (weights, degrees, dp_cap), each fact
    at most once. Internal: not part of the package interface.

    The command line builds one holder per command and every public entry
    point one per call; it is dropped with them, so no fact outlives its
    pair and nothing is cached across pairs. It keeps the validated tuples
    and one memo from value set to its membership verdicts: each value set
    is reduced once and each of its degrees decided once, whichever of
    `admissible` and `representable` asks. The layers above keep their
    facts here through `once`: the singular complex (complexes), the
    divisibility complexes and strict regularity (regularity), the
    face-weight skeleton and the checked family (maps), and the
    construction (nef).
    """

    __slots__ = ("wt", "dg", "dp_cap", "_values", "_facts")

    def __init__(self, weights: WeightsLike, degrees: DegreesLike,
                 dp_cap: int = DEFAULT_DP_CAP):
        self.wt = as_weights(weights)
        self.dg = as_degrees(degrees)
        self.dp_cap = dp_cap
        # value set -> [(vals, gcd, reduced), verdict per degree, admissible]
        self._values: dict[frozenset[int], list] = {}
        self._facts: dict = {}

    def once(self, derive):
        """derive(self), computed on the first request and kept. A derive
        that raises keeps nothing."""
        facts = self._facts
        if derive not in facts:
            facts[derive] = derive(self)
        return facts[derive]

    def kept(self, derive):
        """What `once(derive)` has kept, or None before it has run."""
        return self._facts.get(derive)

    def _row(self, values) -> list:
        key = frozenset(values)
        row = self._values.get(key)
        if row is None:
            row = self._values[key] = [
                _reduce(tuple(sorted(key))), [None] * len(self.dg), None]
        return row

    def admissible(self, values) -> frozenset[int]:
        """`representable_degrees` over the values, from the memo."""
        row = self._row(values)
        if row[2] is None:
            row[2] = _admissible(row[0], self.dg, self.dp_cap, row[1])
        return row[2]

    def representable(self, j: int, values) -> bool:
        """`representable` for the j-th degree over the values, from the memo."""
        d = self.dg.degree(j)
        prepared, verdicts, _ = self._row(values)
        verdict = verdicts[j - 1]
        if verdict is None:
            verdict = verdicts[j - 1] = _decide(d, *prepared, self.dp_cap)
        return _definite(verdict, d, prepared[0], self.dp_cap)


def poset_covers(poset: Iterable[int], b: int) -> frozenset[int]:
    """Elements covered by b: maximal proper divisors of b within the poset.

    q is covered by b when q | b, q != b, and no poset element r satisfies
    q | r | b strictly between them.
    """
    elems = frozenset(poset)
    if b not in elems:
        raise InputError(f"{b} is not an element of the poset")
    below = [q for q in elems if q != b and b % q == 0]
    return frozenset(
        q for q in below
        if not any(r != q and r % q == 0 for r in below)
    )


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending. Trial division; fast for the
    smooth integers produced by realization (products of small primes)."""
    _check_positive_int(n, "integer to factor")
    out = []
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            out.append(p)
            while rem % p == 0:
                rem //= p
        p += 1 if p == 2 else 2
    if rem > 1:
        out.append(rem)
    return tuple(out)
