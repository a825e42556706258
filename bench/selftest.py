"""Quick self-test of the benchmark itself (a few seconds).

    python3 bench/selftest.py

Checks that the same seed gives the same inputs and another seed other
inputs, that every block has its workload's fixed composition, that the
referee's membership agrees with the brute-force oracle, that planted wrong
verdicts are caught, that compare.py claims no gain for a change that
fails more items, and that BENCHMARK.json names exactly the metrics and
workloads run.py reports.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

import compare
import run
import workloads

ROOT = run.ROOT


def check_determinism() -> list[str]:
    bad = []
    for w in workloads.WORKLOADS:
        def first(seed):
            stream = workloads.blocks(w, seed)
            return [item.to_json() for _ in range(2) for item in next(stream)]
        if first(5) != first(5):
            bad.append(f"{w}: seed 5 gave two different input streams")
        if first(5) == first(6):
            bad.append(f"{w}: seeds 5 and 6 gave the same inputs")
        for block in (next(workloads.blocks(w, 7)) for _ in range(2)):
            if sorted(i.rung for i in block) != sorted(workloads.BLOCKS[w]):
                bad.append(f"{w}: block composition differs from BLOCKS")
    return bad


def check_membership() -> list[str]:
    import referee
    from wciq.oracles import brute_force_representable
    rng = random.Random(11)
    bad = []
    for _ in range(400):
        vals = rng.sample(range(2, 30), rng.randint(1, 4))
        d = rng.randint(0, 300)
        if referee.representable(d, vals) != brute_force_representable(d, vals):
            bad.append(f"membership of {d} over {vals}")
    return bad


def _tamperings(report: dict):
    """(label, tampered report, exit code) for a decided in-scope report."""
    def edit(label, fn, rc=0):
        r = copy.deepcopy(report)
        fn(r)
        return label, r, rc

    def swap_parts(r):
        parts = r["construction"]["partition"]["parts"]
        parts[1][-1], parts[2][-1] = parts[2][-1], parts[1][-1]

    yield edit("construction refused", lambda r: r["construction"].update(
        ok=False, failed_hypothesis="pair_trivial", witness=None))
    yield edit("heavy indices swapped between parts", swap_parts)
    yield edit("regularity flipped", lambda r: r["regularity"].update(
        strictly_regular=False, violating_subset=[len(r["input"]["weights"]) - 1]))
    yield edit("base complex facet dropped", lambda r: r["base_complexes"]["1"].update(
        facets=r["base_complexes"]["1"]["facets"][1:] or [[0]]))
    yield edit("search denies a partition", lambda r: r["search"].update(
        found=False, partition=None))
    yield "exit code flipped", report, 1


def check_planted_errors(workdir: Path) -> list[str]:
    bad = []
    runner = run.Runner("padded", workdir)
    item = next(i for i in next(workloads.blocks("padded", 3)) if i.rung == "m1")
    path = runner.prepare([item])[0]
    rc, text = runner.analyze(path, item.payload["mode"])
    if run.referee_item(item, {"rc": rc, "text": text}):
        bad.append("referee rejects a correct report")
    for label, report, code in _tamperings(json.loads(text)):
        if not run.referee_item(item, {"rc": code, "text": json.dumps(report)}):
            bad.append(f"planted error not caught: {label}")

    runner = run.Runner("realized", workdir)
    item = next(workloads.blocks("realized", 3))[0]
    out = runner.realized(item.payload, path)
    if run.referee_item(item, out):
        bad.append("referee rejects a correct realized item")
    for label, change in (("planted map lost", {"found": None}),
                          ("round trip failed", {"round_trip": False}),
                          ("planted map contracts",
                           {"planted_assignment": dict.fromkeys(out["planted_assignment"], 0)})):
        if not run.referee_item(item, {**out, **change}):
            bad.append(f"planted error not caught: {label}")
    return bad


def check_compare(workdir: Path) -> list[str]:
    """A change that is faster because it fails one item in 40 quickly must
    not be called `better`; the same speed-up without failures must be."""
    bad = []
    for head_failed, expect_rate, expect_failed in ((3, "same", "worse"), (0, "better", "same")):
        pairs_file = workdir / "pairs.jsonl"
        with open(pairs_file, "w", encoding="utf-8") as fh:
            for k in range(compare.MIN_PAIRS):
                for side, rate, failed in (("base", 10.0 + 0.01 * k, 0),
                                           ("head", 12.0 + 0.01 * k, head_failed)):
                    result = {"correct": True, "attempted": 120, "failed": failed,
                              "metrics": {"items_per_s": {"value": rate, "unit": "1/s"}}}
                    fh.write(json.dumps({"pair": k, "side": side, "workload": "padded",
                                         "result": result}) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            compare.main(["report", str(pairs_file), "--benchmark", str(ROOT / "BENCHMARK.json")])
        verdicts = {line.split()[1]: line.split()[-1] for line in out.getvalue().splitlines()[1:]}
        if verdicts.get("items_per_s") != expect_rate:
            bad.append(f"items_per_s with {head_failed} failed items: {verdicts.get('items_per_s')}")
        if verdicts.get("failed_share") != expect_failed:
            bad.append(f"failed_share with {head_failed} failed items: {verdicts.get('failed_share')}")
    return bad


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    end_to_end = {"items_per_s", "item_ms_p50", "item_ms_p90", "decided_ratio",
                  "peak_rss_mb", "setup_s"}
    if {m["name"] for m in spec["end_to_end"]} != end_to_end:
        bad.append("BENCHMARK.json end_to_end differs from run.py")
    layer = run.per_layer_metrics({}, 1.0, {})
    if [m["name"] for m in spec["per_layer"]] != list(layer):
        bad.append("BENCHMARK.json per_layer differs from run.per_layer_metrics")
    for m in spec["per_layer"]:
        if m["unit"] != layer.get(m["name"], {}).get("unit"):
            bad.append(f"unit of {m['name']}")
    return bad


def main() -> int:
    run._check_source()
    run._import_wciq()
    workdir = run.BUILD / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for label, check in (("determinism", check_determinism),
                             ("membership referee", check_membership),
                             ("planted errors", lambda: check_planted_errors(workdir)),
                             ("compare", lambda: check_compare(workdir)),
                             ("BENCHMARK.json", check_benchmark_json)):
            bad = check()
            failures += bool(bad)
            print(f"[selftest] {label}: {'PASS' if not bad else 'FAIL ' + '; '.join(bad[:3])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
