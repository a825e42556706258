"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py run --base PARENT_CHECKOUT --head CHANGE_CHECKOUT \\
        [--workload W ...] [--pairs 10] [--seconds 20] [--seed 1000] [--trace 0] \\
        --out pairs.jsonl
    python3 bench/compare.py report pairs.jsonl [--benchmark BENCHMARK.json]

`run` needs both checkouts to hold identical `bench/` files (the same
benchmark code and settings on both sides). It runs alternating pairs: pair
k runs both sides on seed `--seed + k`, the parent first in even pairs and
the change first in odd ones, and appends every result to `--out`.

`report` prints one row per workload and metric with each side's median
and quartiles and the change's win share over the pairs, and a verdict:

* `better`: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance. A gain is only claimed with at least ten pairs, and on no
  metric of a workload where the change's median share of failed items
  (`failed / attempted`: verdict errors, crashes, missed limits) is above
  the parent's; that share is printed as its own row, `failed_share`,
  which reads `worse` when it rises.
* `unresolved`: the parent's own spread (interquartile distance over
  median) exceeds the metric's bound from BENCHMARK.json, unless every
  change run beats every parent run.
* `worse`: the change's median is worse than the parent's by more than the
  bound.
* `same`: none of the above.

Other metrics without a bound (per-layer ones) can only be `better` or
`same`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
BENCH_ROOT = Path(__file__).resolve().parents[1]


def _bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "bench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args) -> int:
    base, head = Path(args.base).resolve(), Path(args.head).resolve()
    if _bench_digest(base) != _bench_digest(head):
        sys.exit("error: the two checkouts hold different bench/ code")
    workloads = args.workload or [w["name"] for w in _benchmark(args.benchmark)["workloads"]]
    with open(args.out, "a", encoding="utf-8") as out:
        for k in range(args.pairs):
            order = [("base", base), ("head", head)]
            if k % 2:
                order.reverse()
            for workload in workloads:
                for side, root in order:
                    result = _run_side(root, workload, args.seed + k, args.seconds, args.trace)
                    out.write(json.dumps({"pair": k, "side": side, "workload": workload,
                                          "seed": args.seed + k, "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()
                    print(f"pair {k} {workload} {side} done", flush=True)
    return 0


def _benchmark(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"]


def verdict(base: list[float], head: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float | None,
            fails_more: bool = False) -> tuple[str, float]:
    """(verdict, win share of the change) for one workload and metric.
    `fails_more` says the change fails a larger share of items than the
    parent on this workload, which rules out `better`."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    b1, b_med, b3 = _quartiles(base)
    h_med = statistics.median(head)
    if (len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and sign * (h_med - b_med) > b3 - b1
            and not fails_more):
        return "better", share
    if bound is None:
        return "same", share
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if b_med and (b3 - b1) / abs(b_med) > bound and not all_better:
        return "unresolved", share
    if sign * (h_med - b_med) < -bound * abs(b_med):
        return "worse", share
    return "same", share


def cmd_report(args) -> int:
    spec = _benchmark(args.benchmark)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[tuple[str, int, str], dict] = {}
    for line in Path(args.pairs_file).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        runs[(rec["workload"], rec["pair"], rec["side"])] = rec["result"]
    workloads = sorted({w for w, _, _ in runs})
    print(f"{'workload':14s} {'metric':44s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s} verdict")
    worst = 0
    for workload in workloads:
        pair_ids = sorted({p for w, p, _ in runs if w == workload
                           and (w, p, "base") in runs and (w, p, "head") in runs})
        names = sorted({n for p in pair_ids for n in runs[(workload, p, "base")]["metrics"]})
        base_failed = [_failed_share(runs[(workload, p, "base")]) for p in pair_ids]
        head_failed = [_failed_share(runs[(workload, p, "head")]) for p in pair_ids]
        fails_more = statistics.median(head_failed) > statistics.median(base_failed)
        rows = [("failed_share", base_failed, head_failed, {"better": "lower"})]
        for name in names:
            rows.append((name,
                         [runs[(workload, p, "base")]["metrics"][name]["value"] for p in pair_ids],
                         [runs[(workload, p, "head")]["metrics"][name]["value"] for p in pair_ids],
                         metrics.get(name, {"better": "lower"})))
        for name, base, head, spec_m in rows:
            result, share = verdict(base, head, list(zip(base, head)),
                                    spec_m["better"] == "higher", spec_m.get("bound"),
                                    fails_more)
            if name == "failed_share" and fails_more:
                result = "worse"
            b1, bm, b3 = _quartiles(base)
            h1, hm, h3 = _quartiles(head)
            print(f"{workload:14s} {name:44s} {bm:12.5g} [{b1:.5g}, {b3:.5g}] "
                  f"{hm:12.5g} [{h1:.5g}, {h3:.5g}] {share:6.2f} {result}")
            worst = max(worst, result == "worse")
        if len(pair_ids) < MIN_PAIRS:
            print(f"{workload}: only {len(pair_ids)} pairs; no gain can be claimed "
                  f"with fewer than {MIN_PAIRS}")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="run alternating pairs of parent and change")
    sp.add_argument("--base", required=True, help="checkout of the parent commit")
    sp.add_argument("--head", required=True, help="checkout of the change")
    sp.add_argument("--workload", action="append")
    sp.add_argument("--pairs", type=int, default=MIN_PAIRS)
    sp.add_argument("--seconds", type=float)
    sp.add_argument("--seed", type=int, default=1000)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--benchmark", default=str(BENCH_ROOT / "BENCHMARK.json"))
    sp.set_defaults(func=cmd_run)
    sp = sub.add_parser("report", help="judge recorded pairs")
    sp.add_argument("pairs_file")
    sp.add_argument("--benchmark", default=str(BENCH_ROOT / "BENCHMARK.json"))
    sp.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    if args.command == "run" and args.seconds is None:
        args.seconds = _benchmark(args.benchmark)["run_seconds"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
