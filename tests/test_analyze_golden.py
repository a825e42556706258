"""`wciq analyze` reports and exit codes against the golden corpus.

See `analyze_corpus.py` for what the corpus holds and how to regenerate it.
"""

import json

import pytest

from analyze_corpus import GOLDEN, analyze_digest

_LINES = GOLDEN.read_text(encoding="utf-8").splitlines()


def test_corpus_shape():
    records = [json.loads(line) for line in _LINES]
    assert len(records) == 400
    assert {r["rc"] for r in records} == {0, 1}
    # the two padded pairs with 21 heavy indices are decided, not refused;
    # exit 3 is pinned by the large-degree and low-cap corpora
    assert [r["rc"] for r in records if sum(w > 1 for w in r["weights"]) == 21] == [0, 0]


@pytest.mark.parametrize("chunk", range(8))
def test_reports_match(chunk):
    mismatches = []
    for line in _LINES[chunk::8]:
        rec = json.loads(line)
        got = analyze_digest(rec["weights"], rec["degrees"], rec["mode"])
        if got != (rec["rc"], rec["digest"]):
            mismatches.append((rec["weights"], rec["degrees"], rec["mode"], rec["rc"], got[0]))
    assert not mismatches
