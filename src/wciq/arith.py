"""Exact integer arithmetic underlying all combinatorial criteria.

Provides gcd/lcm folds, membership in numerical semigroups (is a number a
non-negative integer combination of given generators), representable degree
sets, and cover relations in finite divisibility posets.

All functions are pure. Python integers are arbitrary precision, so lcm
chains over realized weight tuples cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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

    def ones(self) -> tuple[int, ...]:
        """Indices carrying weight exactly 1, ascending."""
        return tuple(i for i, a in enumerate(self.weights) if a == 1)

    def heavy(self) -> tuple[int, ...]:
        """Indices carrying weight greater than 1, ascending."""
        return tuple(i for i, a in enumerate(self.weights) if a > 1)

    def heavy_values(self) -> tuple[int, ...]:
        """Distinct weight values greater than 1, ascending."""
        return tuple(sorted({a for a in self.weights if a > 1}))

    def indices_of(self, value: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.weights) if a == value)


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


def lcm_of(values: Iterable[int]) -> int:
    """Least common multiple of a nonempty collection, arbitrary precision."""
    vals = tuple(values)
    if not vals:
        raise InputError("lcm of an empty collection is undefined here; "
                         "use lcm_or_one when the empty case should be 1")
    return math.lcm(*vals)


def lcm_or_one(values: Iterable[int]) -> int:
    """Least common multiple, with the empty collection mapped to 1."""
    return math.lcm(*tuple(values))


def is_representable(d: int, weights: Iterable[int], *,
                     dp_cap: int = DEFAULT_DP_CAP):
    """Is d a non-negative integer combination of the given weights?

    Returns True, False, or UNKNOWN. The verdict depends only on the set of
    distinct weight values. d = 0 is always representable (the empty
    combination). If any single weight divides d the answer is True without
    building a table. Otherwise a membership table over 0..d is built when
    d <= dp_cap; beyond the cap the verdict is UNKNOWN, never a guess.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise InputError(f"target must be a non-negative integer, got {d!r}")
    vals = sorted({_check_positive_int(a, "weight") for a in weights})
    if d == 0:
        return True
    if any(d % a == 0 for a in vals):
        return True
    if not vals:
        return False
    if d > dp_cap:
        return UNKNOWN
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


def representable_degrees(weights: Iterable[int], degrees: DegreesLike, *,
                          dp_cap: int = DEFAULT_DP_CAP) -> frozenset[int]:
    """1-based indices j whose degree is representable over the weights.

    An UNKNOWN verdict is a hard stop: the caller asked for an exact set,
    so the offending degree is reported as a resource error.
    """
    dg = as_degrees(degrees)
    vals = tuple(weights)
    out = set()
    for j, d in enumerate(dg, start=1):
        verdict = is_representable(d, vals, dp_cap=dp_cap)
        if verdict is UNKNOWN:
            raise ResourceLimitError(
                f"representability of degree d_{j} = {d} over {sorted(set(vals))} "
                f"exceeds the dp cap {dp_cap}")
        if verdict:
            out.add(j)
    return frozenset(out)


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
