"""Golden corpus for `wciq analyze`: inputs, exit codes and report digests.

Each line of `data/analyze_golden.jsonl` holds one pair, the nef mode, the
exit code of `wciq analyze`, and the SHA-256 of its stdout and stderr with
the report's `timings` removed. `test_analyze_golden.py` replays the lines.

The corpus is the padded and cli-cold items of the benchmark generators
(seed 3, two blocks each) plus 300 seeded random pairs with repeated
values and weight-1 padding. `data/analyze_golden_large_degree.jsonl` holds
the large-degree items of the same generators (seed 3, two blocks): degrees
up to 10^7, where membership answers from residue tables, plus the two items
whose degree lies past the dp cap.

`data/analyze_golden_realized.jsonl` holds, in all three nef modes, the
pairs that `realize_map_instance` plants in the realized items of the same
generators (seed 3, two blocks), each also with its heavy weights reversed,
and a padded pair past the face limit whose poset-map check runs on
value-class representatives. Their heavy values are products of distinct
primes, a shape no other corpus has.

`data/low_cap_golden.jsonl` replays the 440 inputs of both files with
`--dp-cap 30` and `--dp-cap 200`, through `wciq analyze` and `wciq complex`,
so that which UNKNOWN membership verdict is reported first, and with which
message, cannot drift. Each line holds one input and, per cap, the exit
code and digest of both commands.

Regenerate a file, after a reviewed change to the reports, from the
repository root with

    PYTHONPATH=src python tests/analyze_corpus.py > tests/data/analyze_golden.jsonl
    PYTHONPATH=src python tests/analyze_corpus.py large-degree \
        > tests/data/analyze_golden_large_degree.jsonl
    PYTHONPATH=src python tests/analyze_corpus.py realized \
        > tests/data/analyze_golden_realized.jsonl
    PYTHONPATH=src python tests/analyze_corpus.py low-cap \
        > tests/data/low_cap_golden.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from wciq.cli import main as cli_main

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.jsonl"
GOLDEN_LARGE_DEGREE = Path(__file__).parent / "data" / "analyze_golden_large_degree.jsonl"
GOLDEN_REALIZED = Path(__file__).parent / "data" / "analyze_golden_realized.jsonl"
LOW_CAP = Path(__file__).parent / "data" / "low_cap_golden.jsonl"
LOW_CAPS = (30, 200)
MODES = ("any", "nice", "strong")

#: 44 heavy indices over 2, 3, 5, 7 with 200 ones: more than FACE_LIMIT
#: faces, so the poset-map check reads value-class representatives.
PAST_FACE_LIMIT_PAIR = ([1] * 200 + [2, 3, 5, 7] * 11, [4, 6, 10, 14] * 11)


def analyze_digest(weights, degrees, mode: str,
                   dp_cap: int | None = None) -> tuple[int, str]:
    """Exit code and digest of one in-process `wciq analyze` run."""
    cap = [] if dp_cap is None else ["--dp-cap", str(dp_cap)]
    return cli_digest("analyze", weights, degrees, "--mode", mode, *cap)


def complex_digest(weights, degrees, dp_cap: int) -> tuple[int, str]:
    """Exit code and digest of one in-process `wciq complex` run."""
    return cli_digest("complex", weights, degrees, "--dp-cap", str(dp_cap))


def low_cap_runs(weights, degrees, mode: str) -> dict[str, list]:
    """Per low cap: exit code and digest of `analyze`, then of `complex`."""
    return {str(cap): [*analyze_digest(weights, degrees, mode, cap),
                       *complex_digest(weights, degrees, cap)] for cap in LOW_CAPS}


def cli_digest(command: str, weights, degrees, *options: str) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout and stderr of one in-process
    `wciq <command>` run on the pair, with the report's `timings` removed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps({"weights": list(weights), "degrees": list(degrees)}),
                        encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main([command, "--input", str(path), *options])
    text = out.getvalue()
    if text:
        report = json.loads(text)
        report.pop("timings", None)
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return rc, hashlib.sha256(f"{text}\n--\n{err.getvalue()}".encode()).hexdigest()


def random_pairs(rng: random.Random, n: int):
    """Pairs of 1-4 distinct values from 2..30 with 1-3 copies each (the
    first value at least twice), 0-6 ones, shuffled, and 1-4 degrees."""
    for _ in range(n):
        values = rng.sample(range(2, 31), rng.randint(1, 4))
        weights = [1] * rng.randint(0, 6)
        for k, v in enumerate(values):
            weights += [v] * rng.randint(2 if k == 0 else 1, 3)
        rng.shuffle(weights)
        degrees = [rng.randint(2, 60) for _ in range(rng.randint(1, 4))]
        yield weights, degrees, rng.choice(MODES)


def bench_payloads(name: str):
    """The payloads of two seed-3 blocks of a bench workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    stream = workloads.blocks(name, 3)
    for _ in range(2):
        for item in next(stream):
            yield item.payload


def bench_pairs(name: str):
    """(weights, degrees, mode) of two seed-3 blocks of a bench workload."""
    for payload in bench_payloads(name):
        yield payload["weights"], payload["degrees"], payload["mode"]


def realized_pairs():
    """(weights, degrees) of the pairs planted in two seed-3 blocks of the
    bench realized workload, each followed by its heavy weights reversed,
    then PAST_FACE_LIMIT_PAIR."""
    from wciq.complexes import Complex
    from wciq.realize import realize_map_instance

    for payload in bench_payloads("realized"):
        source = Complex.from_facets(payload["n_vertices"], payload["facets"])
        target = Complex.from_facets(payload["targets"], [range(payload["targets"])])
        inst = realize_map_instance(source, target, dict(enumerate(payload["assignment"])),
                                    payload["pad"], payload["ones"])
        weights, degrees = list(inst.weights), list(inst.degrees)
        yield weights, degrees
        heavy = iter([a for a in weights if a > 1][::-1])
        yield [a if a == 1 else next(heavy) for a in weights], degrees
    yield PAST_FACE_LIMIT_PAIR


def corpus():
    """(weights, degrees, mode) of every golden item, in file order."""
    for name in ("padded", "cli-cold"):
        yield from bench_pairs(name)
    yield from random_pairs(random.Random("wciq-golden"), 300)


def golden_inputs():
    """(weights, degrees, mode) of both analyze golden files, in file order."""
    for path in (GOLDEN, GOLDEN_LARGE_DEGREE):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            yield rec["weights"], rec["degrees"], rec["mode"]


def main(argv: list[str]) -> None:
    if argv == ["low-cap"]:
        for weights, degrees, mode in golden_inputs():
            print(json.dumps({"weights": weights, "degrees": degrees, "mode": mode,
                              "runs": low_cap_runs(weights, degrees, mode)},
                             separators=(",", ":")))
        return
    if argv == ["realized"]:
        pairs = ((weights, degrees, mode) for weights, degrees in realized_pairs()
                 for mode in MODES)
    elif argv == ["large-degree"]:
        pairs = bench_pairs("large-degree")
    else:
        pairs = corpus()
    for weights, degrees, mode in pairs:
        rc, digest = analyze_digest(weights, degrees, mode)
        print(json.dumps({"weights": weights, "degrees": degrees, "mode": mode,
                          "rc": rc, "digest": digest}, separators=(",", ":")))


if __name__ == "__main__":
    main(sys.argv[1:])
