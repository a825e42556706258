"""The four golden corpora replay byte for byte whatever the process has
kept: with no weight or value facts kept, with the facts of the other
inputs kept (reverse order), after the kept facts were evicted, with each
record's value facts first built from its weights reversed, and with them
first built from the same values at other multiplicities and padding.

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


def _clear() -> None:
    arith.weight_facts.cache_clear()
    arith.value_facts.cache_clear()


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


def test_cold_warm_and_evicted_replays_match():
    replays = _replays()
    caches = (arith.weight_facts, arith.value_facts)
    _clear()
    assert _mismatches(replays) == []
    hits = [cache.cache_info().hits for cache in caches]
    assert _mismatches(replays[::-1]) == []
    assert all(cache.cache_info().hits > h for cache, h in zip(caches, hits))

    size = arith.weight_facts.cache_info().maxsize
    assert arith.value_facts.cache_info().maxsize == size
    # each evicting pair has its own values, so both caches turn over
    evict = [([1, 2, k], [2 * k], "strong") for k in range(101, 103 + size)]
    for args in evict:
        analyze_digest(*args)
    infos = [cache.cache_info() for cache in caches]
    assert [info.currsize for info in infos] == [size, size]
    assert len(evict) > size
    assert _mismatches(replays) == []
    assert all(cache.cache_info().misses > info.misses for cache, info in zip(caches, infos))

    assert _first_mismatches(replays, lambda weights: weights[::-1]) == []


def test_replays_after_other_multiplicities():
    # a fact kept per value set that read multiplicities or padding
    # would replay the first call's answer here
    assert _first_mismatches(_replays(), _other_multiplicities) == []
