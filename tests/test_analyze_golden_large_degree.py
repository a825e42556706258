"""`wciq analyze` on large degrees against its golden corpus.

The 400-pair corpus keeps degrees at most 60, where membership always
builds a bitset. These 40 bench items have degrees up to 10^7, so they
answer from residue tables, and two of them exit 3 past the dp cap. See
`analyze_corpus.py` for how the file was made.
"""

import json

import pytest

from analyze_corpus import GOLDEN_LARGE_DEGREE, analyze_digest

_LINES = GOLDEN_LARGE_DEGREE.read_text(encoding="utf-8").splitlines()


def test_corpus_shape():
    records = [json.loads(line) for line in _LINES]
    assert len(records) == 40
    assert [r["rc"] for r in records].count(1) == 38
    assert [r["rc"] for r in records].count(3) == 2


@pytest.mark.parametrize("chunk", range(4))
def test_reports_match(chunk):
    mismatches = []
    for line in _LINES[chunk::4]:
        rec = json.loads(line)
        got = analyze_digest(rec["weights"], rec["degrees"], rec["mode"])
        if got != (rec["rc"], rec["digest"]):
            mismatches.append((rec["weights"], rec["degrees"], rec["mode"], rec["rc"], got[0]))
    assert not mismatches
