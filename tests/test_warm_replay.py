"""The three golden corpora replay byte for byte whatever the process has
kept: with no weight facts kept, with the facts of the other inputs kept
(reverse order), and after the kept facts were evicted.

See `analyze_corpus.py` for what the files hold.
"""

import json

from wciq import arith

from analyze_corpus import GOLDEN, GOLDEN_LARGE_DEGREE, LOW_CAP, analyze_digest, low_cap_runs


def _replays():
    """(input, call, expected) for every record of the three files."""
    out = []
    for path in (GOLDEN, GOLDEN_LARGE_DEGREE):
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


def test_cold_warm_and_evicted_replays_match():
    replays = _replays()
    arith.weight_facts.cache_clear()
    assert _mismatches(replays) == []
    hits = arith.weight_facts.cache_info().hits
    assert _mismatches(replays[::-1]) == []
    assert arith.weight_facts.cache_info().hits > hits

    size = arith.weight_facts.cache_info().maxsize
    evict = [([1, 2, k], [2 * k], "strong") for k in range(101, 103 + size)]
    for args in evict:
        analyze_digest(*args)
    info = arith.weight_facts.cache_info()
    assert info.currsize == size
    assert len(evict) > size
    assert _mismatches(replays) == []
    assert arith.weight_facts.cache_info().misses > info.misses
