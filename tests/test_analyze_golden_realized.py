"""`wciq analyze` on realized pairs against their golden corpus.

The other corpora hold few heavy values that are products of distinct
primes. These pairs come from planted maps realized by primes, in the
order the realization writes them and with their heavy weights reversed,
plus one padded pair past the face limit. See `analyze_corpus.py` for how
the file was made.
"""

import json

import pytest

from analyze_corpus import GOLDEN_REALIZED, MODES, PAST_FACE_LIMIT_PAIR, analyze_digest

_LINES = GOLDEN_REALIZED.read_text(encoding="utf-8").splitlines()


def test_corpus_shape():
    records = [json.loads(line) for line in _LINES]
    assert len(records) == 111
    assert [r["mode"] for r in records] == list(MODES) * 37
    assert {r["rc"] for r in records} == {0, 1}
    weights, degrees = PAST_FACE_LIMIT_PAIR
    assert [(r["weights"], r["degrees"], r["rc"]) for r in records[-3:]] == \
        [(weights, degrees, 0)] * 3


@pytest.mark.parametrize("chunk", range(4))
def test_reports_match(chunk):
    mismatches = []
    for line in _LINES[chunk::4]:
        rec = json.loads(line)
        got = analyze_digest(rec["weights"], rec["degrees"], rec["mode"])
        if got != (rec["rc"], rec["digest"]):
            mismatches.append((rec["weights"], rec["degrees"], rec["mode"], rec["rc"], got[0]))
    assert not mismatches
