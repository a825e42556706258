"""The four golden corpora replay byte for byte whatever the process has
kept: with no weight, value or value-level pair facts kept, with the facts
of the other inputs kept (reverse order), after the kept facts were
evicted, with each record's value facts first built from its weights
reversed, with them first built from the same values at other
multiplicities and padding, and with its value-level pair facts first
built from its heavy weights reversed with two more ones.

See `analyze_corpus.py` for what the files hold.
"""

import json

from wciq import arith

from analyze_corpus import (
    GOLDEN,
    GOLDEN_LARGE_DEGREE,
    GOLDEN_REALIZED,
    LOW_CAP,
    analyze_digest,
    low_cap_runs,
)


def _replays():
    """(input, call, expected) for every record of the four files."""
    out = []
    for path in (GOLDEN, GOLDEN_LARGE_DEGREE, GOLDEN_REALIZED):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            args = (rec["weights"], rec["degrees"], rec["mode"])
            out.append((args, analyze_digest, (rec["rc"], rec["digest"])))
    for line in LOW_CAP.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        out.append(((rec["weights"], rec["degrees"], rec["mode"]), low_cap_runs, rec["runs"]))
    return out


def _mismatches(replays) -> list:
    return [args for args, call, expected in replays if call(*args) != expected]


CACHES = (arith.weight_facts, arith.value_facts, arith.value_pair_facts)


def _clear() -> None:
    for cache in CACHES:
        cache.cache_clear()


def _first_mismatches(replays, first) -> list:
    """`_mismatches` where, before each record, the process keeps nothing
    but what the same call on first(weights) derived."""
    out = []
    for (weights, *rest), call, expected in replays:
        _clear()
        call(first(weights), *rest)
        if call(weights, *rest) != expected:
            out.append((weights, *rest))
    return out


def _other_multiplicities(weights: list) -> list:
    """The weights with one more copy of their largest heavy value and one
    more 1: the same values, other multiplicities and padding."""
    return weights + [v for v in (max(weights),) if v > 1] + [1]


def _reversed_and_padded(weights: list) -> list:
    """The heavy weights reversed, in the places of the heavy weights, and
    two more 1s: the same values, multiplicities and degrees, another
    order and padding."""
    heavy = iter([a for a in weights if a > 1][::-1])
    return [a if a == 1 else next(heavy) for a in weights] + [1, 1]


def test_cold_warm_and_evicted_replays_match():
    replays = _replays()
    caches = CACHES
    _clear()
    assert _mismatches(replays) == []
    hits = [cache.cache_info().hits for cache in caches]
    assert _mismatches(replays[::-1]) == []
    assert all(cache.cache_info().hits > h for cache, h in zip(caches, hits))

    size = arith.weight_facts.cache_info().maxsize
    assert [cache.cache_info().maxsize for cache in caches] == [size] * 3
    # each evicting pair has its own values, so all three caches turn over
    evict = [([1, 2, k], [2 * k], "strong") for k in range(101, 103 + size)]
    for args in evict:
        analyze_digest(*args)
    infos = [cache.cache_info() for cache in caches]
    assert [info.currsize for info in infos] == [size] * 3
    assert len(evict) > size
    assert _mismatches(replays) == []
    assert all(cache.cache_info().misses > info.misses for cache, info in zip(caches, infos))

    assert _first_mismatches(replays, lambda weights: weights[::-1]) == []


def test_replays_after_other_multiplicities():
    # a fact kept per value set that read multiplicities or padding
    # would replay the first call's answer here
    assert _first_mismatches(_replays(), _other_multiplicities) == []


def test_replays_after_the_same_pair_at_value_level():
    # the first call keeps the value-level pair facts the record reads; one
    # of them that read an index or a weight-1 index would leak here
    pair_hits = arith.value_pair_facts.cache_info().hits
    assert _first_mismatches(_replays(), _reversed_and_padded) == []
    assert arith.value_pair_facts.cache_info().hits > pair_hits
