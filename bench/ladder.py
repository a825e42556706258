"""Scaling ladders, outside the benchmark's gate.

    python3 bench/ladder.py [--limit SECONDS] [--only PREFIX]

Grows one dimension at a time (multiplicity, distinct values, degree size,
weight-1 padding) and runs the ROADMAP baseline's pathological inputs. Each
rung runs in its own sequential subprocess under a wall-clock limit and is
recorded as seconds or `timeout`, so an exponential curve shows up as
numbers instead of a hang. Writes `.bench_build/ladder.json` and prints one
row per rung: seconds, result, and the baseline table's reading where the
rung reproduces one of its rows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "ladder.json"

MU = (16, 21, 25, 30)  # degrees of the padded triple in the baseline


def _coprime(m: int):
    """Values 2, 3, 5, 7 with m copies each, each copy planted as a degree of
    twice its value, and one spare weight-1 index (Fano index 1)."""
    heavy = [v for v in (2, 3, 5, 7) for _ in range(m)]
    degrees = [2 * v for v in heavy]
    return [1] * (sum(heavy) + 1) + heavy, degrees


def _padded_triple(ones: int):
    return [1] * ones + [6, 10, 15]


def rung_multiplicity_witness(m):
    from wciq.regularity import pair_nontriviality_witness
    return pair_nontriviality_witness(_coprime(m)[0]) is None


def rung_multiplicity_construct(m):
    from wciq.nef import construct_strong_nef_partition
    weights, degrees = _coprime(m)
    return construct_strong_nef_partition(weights, degrees)[0].parts is not None


def rung_distinct_values(k):
    from wciq.regularity import is_strictly_regular
    return is_strictly_regular([6 * i for i in range(1, k + 1)], (7, 11))[0]


def rung_degree_size(spec):
    from wciq.arith import is_representable
    exponent, values = spec
    return repr(is_representable(10 ** exponent + 1, values))


def rung_padding_analyze(ones):
    import contextlib
    import io
    import wciq.cli
    path = ROOT / ".bench_build" / f"ladder-pair-{os.getpid()}.json"
    path.write_text(json.dumps({"weights": _padded_triple(ones), "degrees": list(MU)}))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return wciq.cli.main(["analyze", "--input", str(path)])
    finally:
        path.unlink()


def rung_padding_literal(ones):
    from wciq.regularity import pair_trivial_all_indices
    return pair_trivial_all_indices(_padded_triple(ones))


def rung_two_value_regularity(_):
    from wciq.regularity import is_strictly_regular
    return is_strictly_regular([1] + [3] * 20 + [2] * 40, [6] * 36)[0]


def rung_singular_prime(p):
    from wciq.complexes import singular_complex
    return len(singular_complex((1, p, 2 * p)).complex.facets)


def rung_construct_coprime_instances(n):
    import random
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import coprime_instance
    from wciq.nef import construct_strong_nef_partition
    rng = random.Random(50)
    pairs = [coprime_instance(rng) for _ in range(n)]
    start = time.perf_counter()
    for weights, degrees in pairs:
        construct_strong_nef_partition(weights, degrees)
    return time.perf_counter() - start


RUNGS = (
    [(f"multiplicity.witness.m{m}", "rung_multiplicity_witness", m) for m in (1, 2, 4, 6, 8, 12, 16)]
    + [(f"multiplicity.construct.m{m}", "rung_multiplicity_construct", m)
       for m in (1, 2, 4, 6, 8, 12, 16)]
    + [(f"distinct_values.k{k}", "rung_distinct_values", k) for k in range(6, 21, 2)]
    + [(f"degree_size.1e{e}+1.{'-'.join(map(str, vs))}", "rung_degree_size", (e, vs))
       for vs in ((6, 10), (2, 3), (6, 10, 15)) for e in range(3, 8)]
    + [(f"padding.analyze.ones{t}", "rung_padding_analyze", t) for t in (62, 100, 200, 400, 1000)]
    + [(f"padding.literal_trivial.ones{t}", "rung_padding_literal", t)
       for t in (62, 100, 200, 400, 1000)]
    + [("pathological.two_values_36_degrees", "rung_two_value_regularity", None),
       ("pathological.singular_p1e9", "rung_singular_prime", 1_000_000_007),
       ("pathological.singular_p1e12", "rung_singular_prime", 1_000_000_000_039),
       ("pathological.construct_50_coprime_instances", "rung_construct_coprime_instances", 50)]
)

#: Cold-process rungs: (name, argv after the interpreter; {pair} is the
#: padded triple's pair file).
COLD = (
    ("cold.python_pass", ["-c", "pass"]),
    ("cold.import_wciq_cli", ["-c", "import wciq.cli"]),
    ("cold.analyze_padded_triple", ["-m", "wciq.cli", "analyze", "--input", "{pair}"]),
)


#: The ROADMAP baseline table's reading of the rungs that reproduce it.
BASELINE = {
    "multiplicity.witness.m4": "45 ms", "multiplicity.witness.m8": "2.5 s",
    "multiplicity.witness.m12": "90 s", "multiplicity.witness.m16": "not finished",
    "multiplicity.construct.m4": "50 ms", "multiplicity.construct.m8": "2.6 s",
    "multiplicity.construct.m12": "116 s", "multiplicity.construct.m16": "not finished",
    "distinct_values.k14": "781 ms",
    "degree_size.1e7+1.6-10": "UNKNOWN (exact: False)",
    "degree_size.1e7+1.2-3": "UNKNOWN (exact: True)",
    "padding.literal_trivial.ones62": "13 ms", "padding.literal_trivial.ones200": "105 ms",
    "padding.analyze.ones62": "~14 ms compute",
    "pathological.two_values_36_degrees": "did not finish in 30 s",
    "pathological.singular_p1e9": "6 ms", "pathological.singular_p1e12": "0.2 s",
    "pathological.construct_50_coprime_instances": "130 ms",
    "cold.python_pass": "205 ms (pyenv shim)",
    "cold.import_wciq_cli": "60-75 ms more than python_pass",
    "cold.analyze_padded_triple": "~300 ms",
}


def child(name: str) -> None:
    sys.path.insert(0, str(SRC))
    import wciq.cli  # noqa: F401  (import time is not part of a rung)
    _, fn, arg = next(r for r in RUNGS if r[0] == name)
    start = time.perf_counter()
    result = globals()[fn](arg)
    elapsed = time.perf_counter() - start
    print(json.dumps({"seconds": elapsed, "result": result}, default=repr))


def _report(rows: list, row: dict) -> None:
    if row["rung"] in BASELINE:
        row["baseline"] = BASELINE[row["rung"]]
    rows.append(row)
    seconds = row.get("seconds")
    shown = f"{seconds:.4f}" if isinstance(seconds, float) else str(seconds)
    print(f"{row['rung']:46s} {shown:>9s}  {str(row.get('result', row.get('error', ''))):22s}"
          f"  {row.get('baseline', '')}", flush=True)


def _run(cmd, limit: float, env=None):
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return "timeout", None, None
    return time.perf_counter() - start, proc.returncode, proc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=10.0, help="seconds per rung")
    parser.add_argument("--only", default="", help="run rungs whose name starts with this")
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung:
        child(args.rung)
        return 0
    if not (SRC / "wciq" / "__init__.py").is_file():
        sys.exit(f"error: no wciq sources under {SRC}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rows = []
    for name, _, _ in RUNGS:
        if not name.startswith(args.only):
            continue
        wall, rc, proc = _run([sys.executable, __file__, "--rung", name], args.limit)
        if wall == "timeout":
            row = {"rung": name, "seconds": "timeout", "limit": args.limit}
        elif rc != 0:
            row = {"rung": name, "seconds": None, "error": proc.stderr.strip().splitlines()[-1]}
        else:
            row = {"rung": name, **json.loads(proc.stdout.strip().splitlines()[-1])}
        _report(rows, row)
    pair = OUT.parent / "ladder-triple.json"
    pair.write_text(json.dumps({"weights": _padded_triple(62), "degrees": list(MU)}))
    for name, tail in COLD:
        if not name.startswith(args.only):
            continue
        times = []
        for _ in range(5):
            wall, rc, _ = _run([sys.executable] + [a.format(pair=pair) for a in tail],
                               args.limit, env)
            times.append(wall)
        best = "timeout" if "timeout" in times else sorted(times)[len(times) // 2]
        _report(rows, {"rung": name, "seconds": best, "result": "median of 5 processes"})
    pair.unlink()
    OUT.write_text(json.dumps({"python": sys.version.split()[0], "limit": args.limit,
                               "rungs": rows}, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
