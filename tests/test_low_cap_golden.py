"""`wciq analyze` and `wciq complex` at low dp caps against their corpus.

At `--dp-cap 30` and `--dp-cap 200` most of the 440 analyze golden inputs
meet an UNKNOWN membership verdict. Which one is reported first, and with
which message, depends on the order in which the verdicts are read, so the
replay pins that order. See `analyze_corpus.py` for how the file was made.
"""

import json

import pytest

from analyze_corpus import LOW_CAP, LOW_CAPS, low_cap_runs

_LINES = LOW_CAP.read_text(encoding="utf-8").splitlines()


def test_corpus_shape():
    records = [json.loads(line) for line in _LINES]
    assert len(records) == 440
    assert {cap for r in records for cap in r["runs"]} == {str(cap) for cap in LOW_CAPS}
    assert {r["runs"]["30"][0] for r in records} == {0, 1, 3}


@pytest.mark.parametrize("chunk", range(4))
def test_reports_match(chunk):
    mismatches = []
    for line in _LINES[chunk::4]:
        rec = json.loads(line)
        got = low_cap_runs(rec["weights"], rec["degrees"], rec["mode"])
        if got != rec["runs"]:
            mismatches.append((rec["weights"], rec["degrees"], rec["mode"]))
    assert not mismatches
