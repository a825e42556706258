"""Layered wciq benchmark: one closed-loop client, one item at a time.

    python3 bench/run.py --workload padded --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `wciq` from `src/`.
Each run generates its inputs from the seed (see `workloads.py`), times
every item from its start to its verdict, referees every output outside
the timed region (see `referee.py`), and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (throughput, item
latency median and p90, decided share, peak RSS, set-up time). With
`--trace 1` the run alternates untraced and traced blocks and reports the
per-layer metrics of `tracing.py` plus the tracing overhead; the spans of
the traced blocks are written to `.bench_build/trace/`.

`failed` counts verdict errors (outputs the referee disagrees with),
crashes and missed per-item limits; any verdict error makes `correct`
false and the exit code 1. Items that end in an explicit resource error
(exit 3) are attempted but undecided, which `decided_ratio` shows. A run
stops at the first block boundary after `--seconds` at which it holds at
least 110 untraced items, so that at least ten lie beyond the p90.

Times are reported at the reference machine speed. The speed of a shared
machine drifts by tens of percent over seconds, so a calibration probe
runs between items (a fixed pure-Python kernel in process, a bare cold
interpreter for cli-cold) and each item's wall time is scaled by the
probe's reference time over its median time around that item. Set-up
children calibrate in their own process. The raw wall-clock throughput,
p50, p90 and set-up time are printed next to the metrics.

`--workload all` (the default) runs every workload in turn, each in a
fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # neither of these imports wciq
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 5
MIN_ITEMS = 110  # untraced items, so that at least ten lie beyond the p90

#: The calibration probes' times on the reference machine (the one the
#: benchmark was written on, when it was quiet): the in-process kernel and a
#: bare cold interpreter. Every reported time is scaled by the reference
#: over the probe's time measured around the item, so that drifts in the
#: speed of a shared machine cancel while changes to wciq's own cost do not.
REFERENCE_CALIBRATION_S = 1.0e-3
REFERENCE_COLD_PROBE_S = 50e-3

#: Per-layer metrics: the spans whose self time is reported, per-item counts
#: (metric, stats field, key) and ratios (metric, numerator, denominator).
SELF_TIMED = (
    "arith.is_representable", "arith.representable_degrees", "arith.distinct_prime_factors",
    "complexes.singular_complex", "complexes.base_complex", "complexes.sr_presentation",
    "complexes.minimal_nonfaces", "complexes.maximal_members",
    "regularity.pair_is_trivial", "regularity.pair_trivial_all_indices",
    "regularity.pair_nontriviality_witness", "regularity.is_strictly_regular",
    "maps.build_admissible_family", "maps.verify_poset_map", "maps.check_family_invariants",
    "maps.find_noncontracting_map", "maps.validate_weighted_map",
    "nef.find_nef_partition", "nef.construct_strong_nef_partition",
    "realize.realize_weights", "realize.realize_map_instance", "realize.verify_realization",
    "serialize.canonical_json", "cli.main",
)
PER_ITEM_COUNTS = (
    ("arith.is_representable.calls", "calls", "arith.is_representable"),
    ("arith.table_builds", "counts", "arith.table_builds"),
    ("arith.unknown", "counts", "arith.unknown"),
    ("complexes.maximal_members.member_calls", "counts", "complexes.maximal_members.member_calls"),
    ("regularity.is_non_divisible.calls", "counts", "regularity.is_non_divisible.calls"),
    ("regularity.is_strongly_non_divisible.calls", "counts",
     "regularity.is_strongly_non_divisible.calls"),
    ("nef.budget_exhausted", "counts", "nef.budget_exhausted"),
)
RATIOS = (
    ("arith.repeat_ratio", "arith.repeats", ("calls", "arith.is_representable")),
    ("maps.family_built_ratio", "maps.family_built", ("counts", "maps.family_attempts")),
    ("maps.verify_poset_map.value_class_share", "maps.verify_value_class",
     ("counts", "maps.verify_reports")),
    ("nef.find_nef_partition.found_ratio", "nef.find_found", ("counts", "nef.find_calls")),
    ("nef.construct_ok_ratio", "nef.construct_ok", ("counts", "nef.construct_calls")),
)
CLI_SPLIT = ("cli.interpreter_s", "cli.import_s", "cli.compute_s")

#: Run in a cold child to time one cold analyze with its phases split.
_COLD_BOOTSTRAP = """\
import sys, time
t_start = time.perf_counter()
bench, src, stats_path = sys.argv[1:4]
sys.path.insert(0, src)
import wciq.cli
t_import = time.perf_counter()
sys.path.insert(0, bench)
import json, tracing
tracer = tracing.Tracer()
tracer.install()
tracer.begin_item(0)
t_main = time.perf_counter()
try:
    rc = wciq.cli.main(sys.argv[4:])
finally:
    t_end = time.perf_counter()
    tracer.end_item()
    with open(stats_path, "w") as fh:
        json.dump({"t_start": t_start, "t_import": t_import, "t_main": t_main,
                   "t_end": t_end, "stats": tracer.stats(),
                   "spans": tracer.spans}, fh)
sys.exit(rc)
"""


def _kernel() -> int:
    """Fixed pure-Python work resembling the library's inner loops (small
    frozensets, gcds, dict lookups, one big-int bitset closure)."""
    from math import gcd
    seen: dict[frozenset, int] = {}
    acc = 0
    for i in range(1, 700):
        s = frozenset((i % 7, i % 11, i % 13, i % 17))
        seen[s] = seen.get(s, 0) + gcd(i, 360)
        acc += len(s | frozenset((i % 5,)))
    reach, mask = 1, (1 << 20001) - 1
    for a in (6, 10, 15):
        shift = a
        while shift <= 20000:
            reach = (reach | (reach << shift)) & mask
            shift <<= 1
    return acc + sum(seen.values()) + reach.bit_count()


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def cold_probe() -> float:
    """Seconds a bare cold interpreter takes to start and exit right now.
    Cold items run in child processes, which the parent's kernel does not
    track (they may run on another CPU), so they are scaled by this."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - start


class ItemTimeout(Exception):
    """Raised by the alarm when an in-process item passes its limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _check_source() -> None:
    if not (SRC / "wciq" / "__init__.py").is_file():
        sys.exit(f"error: no wciq sources under {SRC}; run from a source checkout")


def _import_wciq():
    sys.path.insert(0, str(SRC))
    import wciq
    import wciq.cli
    if Path(wciq.__file__).resolve().parent != SRC / "wciq":
        sys.exit(f"error: imported wciq from {wciq.__file__}, not from {SRC}")
    return wciq


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _write_pair(path: Path, weights, degrees) -> None:
    path.write_text(json.dumps({"weights": list(weights), "degrees": list(degrees)}),
                    encoding="utf-8")


class Runner:
    """Executes items of one workload. In-process items call `wciq` through
    its module attributes at call time, so an installed tracer sees them."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.limit = workloads.ITEM_LIMIT_S[workload]

    def prepare(self, block) -> list[Path]:
        """Write the pair files of a block before it is timed."""
        paths = []
        for k, item in enumerate(block):
            path = self.workdir / f"pair-{k}.json"
            if "weights" in item.payload:
                _write_pair(path, item.payload["weights"], item.payload["degrees"])
            paths.append(path)
        return paths

    def analyze(self, path: Path, mode: str):
        import wciq.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = wciq.cli.main(["analyze", "--input", str(path), "--mode", mode])
        return rc, out.getvalue()

    def realized(self, payload: dict, path: Path) -> dict:
        from wciq import complexes, maps, realize
        source = complexes.Complex.from_facets(payload["n_vertices"], payload["facets"])
        target = complexes.Complex.from_facets(payload["targets"], [range(payload["targets"])])
        assignment = dict(enumerate(payload["assignment"]))
        inst = realize.realize_map_instance(source, target, assignment,
                                            payload["pad"], payload["ones"])
        weights, degrees = tuple(inst.weights), tuple(inst.degrees)
        round_trip = realize.verify_realization(source, weights[payload["ones"]:])
        planted_validation = maps.validate_weighted_map(inst.planted)
        found = maps.find_noncontracting_map(inst.weights, inst.degrees)
        _write_pair(path, weights, degrees)
        rc, text = self.analyze(path, payload["mode"])
        return {"weights": weights, "degrees": degrees, "round_trip": round_trip,
                "planted_validation": planted_validation, "found": found,
                "planted_assignment": inst.planted.vertex_assignment, "rc": rc, "text": text}

    def in_process(self, item, path: Path) -> dict:
        if self.workload == "realized":
            return self.realized(item.payload, path)
        rc, text = self.analyze(path, item.payload["mode"])
        return {"rc": rc, "text": text}

    def cold(self, item, path: Path, traced: bool) -> tuple[dict, float, dict | None]:
        argv = ["analyze", "--input", str(path), "--mode", item.payload["mode"]]
        stats_path = self.workdir / "cold-stats.json"
        if traced:
            cmd = [sys.executable, "-c", _COLD_BOOTSTRAP, str(BENCH), str(SRC),
                   str(stats_path)] + argv
        else:
            cmd = [sys.executable, "-m", "wciq.cli"] + argv
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            text, _ = proc.communicate(timeout=self.limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ItemTimeout() from None
        elapsed = time.perf_counter() - start
        child = None
        if traced:
            child = json.loads(stats_path.read_text(encoding="utf-8"))
            child["t_spawn"] = start
        return {"rc": proc.returncode, "text": text}, elapsed, child

    def run(self, item, path: Path, tracer=None) -> tuple[dict | None, float, str | None, dict | None]:
        """Run one item: (output, seconds, failure kind, cold child data)."""
        if self.workload == "cli-cold":
            try:
                out, elapsed, child = self.cold(item, path, tracer is not None)
            except ItemTimeout:
                return None, self.limit, "timeout", None
            return out, elapsed, None, child
        if tracer is not None:
            tracer.begin_item(item.id)
        failure = out = None
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        start = time.perf_counter()
        try:
            out = self.in_process(item, path)
        except ItemTimeout:
            failure = "timeout"
        except Exception as exc:  # noqa: BLE001  a crash is an undecided item
            failure = f"crash: {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            if failure is None:
                tracer.end_item()
            else:
                tracer.abort_item()
        return out, elapsed, failure, None


def referee_item(item, out: dict) -> list[str]:
    import referee
    payload = item.payload
    report = None
    if out["rc"] in (0, 1):
        try:
            report = json.loads(out["text"])
        except json.JSONDecodeError:
            return ["report is not JSON"]
    if item.workload == "realized":
        bad = referee.check_realized(out)
        weights, degrees = out["weights"], out["degrees"]
    else:
        bad = []
        weights, degrees = payload["weights"], payload["degrees"]
    return bad + referee.check_analyze(list(weights), list(degrees), payload["mode"],
                                       out["rc"], report, item.expect)


def _calibration_median(n: int) -> float:
    for _ in range(3):  # let the interpreter specialise the kernel first
        calibrate()
    return statistics.median(calibrate() for _ in range(n))


def setup_child(workload: str) -> None:
    """Time import of wciq and wciq.cli plus the warm-up, in a fresh process,
    and print it with the calibration kernel's time in the same process."""
    workdir = BUILD / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.warmup_items(workload)
        runner = Runner(workload, workdir)
        paths = [workdir / f"warm-{k}.json" for k in range(len(items))]
        for item, path in zip(items, paths):
            if "weights" in item.payload:
                _write_pair(path, item.payload["weights"], item.payload["degrees"])
        before = _calibration_median(5)
        start = time.perf_counter()
        _import_wciq()
        for item, path in zip(items, paths):
            if workload == "realized":
                runner.realized(item.payload, path)
            else:
                runner.analyze(path, item.payload["mode"])
        elapsed = time.perf_counter() - start
        cal = statistics.median([before, _calibration_median(5)])
        print(json.dumps({"seconds": elapsed, "calibration": cal}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str) -> tuple[float, float]:
    """Median over fresh processes: (normalized seconds, raw seconds)."""
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child",
                               workload], cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(child["seconds"])
        normalized.append(child["seconds"] * REFERENCE_CALIBRATION_S / child["calibration"])
    return statistics.median(normalized), statistics.median(raw)


def _p90(ms: list[float]) -> float:
    return statistics.quantiles(ms, n=10, method="exclusive")[8]


def per_layer_metrics(stats: dict, overhead: float, cold: dict) -> dict:
    n = max(stats.get("items", 0), 1)
    self_s, calls, counts = stats.get("self_s", {}), stats.get("calls", {}), stats.get("counts", {})
    item_s = stats.get("item_s", 0.0)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s/item")
    for metric, field, key in PER_ITEM_COUNTS:
        metrics[metric] = ({"calls": calls, "counts": counts}[field].get(key, 0) / n, "count/item")
    for metric, numerator, (field, key) in RATIOS:
        denominator = {"calls": calls, "counts": counts}[field].get(key, 0)
        metrics[metric] = (counts.get(numerator, 0) / denominator if denominator else 0.0,
                           "ratio")
    metrics["serialize.report_bytes"] = (counts.get("serialize.report_bytes", 0) / n, "bytes/item")
    for name in CLI_SPLIT:
        metrics[name] = (cold.get(name, 0.0) / n, "s/item")
    shares = {}
    for layer in tracing.LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total / n, "s/item")
        shares[layer] = total / item_s if item_s else 0.0
    shares["startup"] = (cold.get("cli.interpreter_s", 0.0) + cold.get("cli.import_s", 0.0)) \
        / item_s if item_s else 0.0
    shares["bench"] = 1.0 - sum(shares.values())
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = (share, "ratio")
    metrics["trace.item_s"] = (item_s / n, "s/item")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def normalize(elapsed: list[tuple[float, int]], cal: list[float],
              reference: float) -> list[float]:
    """Scale each item's seconds to the reference machine speed.

    `elapsed` pairs an item's wall seconds with the index of the
    calibration taken just before it; the item's speed factor is the median
    of the calibrations within eight steps on either side, which follows
    drifts of the machine's speed over seconds but not single-sample
    jitter."""
    out = []
    for seconds, at in elapsed:
        local = statistics.median(cal[max(0, at - 7):at + 9])
        out.append(seconds * reference / local)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    _import_wciq()
    runner = Runner(workload, workdir)
    signal.signal(signal.SIGALRM, _on_alarm)

    errors: list[str] = []
    warm = workloads.warmup_items(workload)
    for item, path in zip(warm, runner.prepare(warm)):
        _, _, failure, _ = runner.run(item, path)
        if failure is not None:
            raise RuntimeError(f"warm-up item failed: {failure}")

    tracer = tracing.Tracer() if trace else None
    stats: dict = {}
    cold = {name: 0.0 for name in CLI_SPLIT}
    if workload == "cli-cold":
        probe, reference = cold_probe, REFERENCE_COLD_PROBE_S
    else:
        probe, reference = calibrate, REFERENCE_CALIBRATION_S
        _calibration_median(1)
    cal = [probe()]
    samples: dict[bool, list[tuple[float, int]]] = {False: [], True: []}
    attempted = decided = failed = verdict_errors = 0
    stream = workloads.blocks(workload, seed)
    start = time.perf_counter()
    blocks_run = 0
    in_process_trace = trace and workload != "cli-cold"
    while True:
        block = next(stream)
        paths = runner.prepare(block)
        traced = trace and blocks_run % 2 == 1
        if traced and in_process_trace:
            tracer.install()
        for item, path in zip(block, paths):
            out, elapsed, failure, child = runner.run(item, path, tracer if traced else None)
            attempted += 1
            samples[traced].append((elapsed, len(cal) - 1))
            if child is not None:
                stats = tracing.merge(stats, child["stats"])
                stats["item_s"] += elapsed - child["stats"]["item_s"]
                tracer.spans.extend(tuple(s[:5]) + (item.id,) for s in child["spans"])
                cold["cli.interpreter_s"] += child["t_start"] - child["t_spawn"]
                cold["cli.import_s"] += child["t_import"] - child["t_start"]
                cold["cli.compute_s"] += child["t_end"] - child["t_main"]
            if traced and in_process_trace:
                tracer.uninstall()
            if failure is not None:
                failed += 1
                errors.append(f"item {item.id} ({item.rung}): {failure}")
            elif bad := referee_item(item, out):
                verdict_errors += 1
                failed += 1
                errors.append(f"item {item.id} ({item.rung}): {'; '.join(bad)}")
            elif out["rc"] in (0, 1):
                decided += 1
            cal.append(probe())
            if traced and in_process_trace:
                tracer.install()
        if traced and in_process_trace:
            tracer.uninstall()
        blocks_run += 1
        if time.perf_counter() - start < seconds:
            continue
        if blocks_run % 2 == 0 if trace else len(samples[False]) >= MIN_ITEMS:
            break

    ms = [s * 1000.0 for s in normalize(samples[False], cal, reference)]
    raw_ms = [s * 1000.0 for s, _ in samples[False]]
    print(f"raw wall times: {len(raw_ms) / (sum(raw_ms) / 1000.0):.6g} items/s, "
          f"p50 {statistics.median(raw_ms):.6g} ms, p90 {_p90(raw_ms):.6g} ms; "
          f"probe median {statistics.median(cal) * 1e3:.4g} ms "
          f"(reference {reference * 1e3:.4g} ms)")
    if trace:
        if in_process_trace:
            stats = tracing.merge(stats, tracer.stats())
        traced_ms = normalize(samples[True], cal, reference)
        overhead = statistics.mean(traced_ms) / statistics.mean(ms) * 1000.0
        metrics = per_layer_metrics(stats, overhead, cold)
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(BUILD / "trace" / f"{workload}-seed{seed}.csv")
    else:
        # Read before the set-up children run, so that for cli-cold the
        # high-water mark is that of the item children alone.
        who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_s, setup_raw_s = measure_setup(workload)
        print(f"raw set-up time: {setup_raw_s:.6g} s")
        metrics = {
            "items_per_s": {"value": len(ms) / (sum(ms) / 1000.0), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "item_ms_p90": {"value": _p90(ms), "unit": "ms"},
            "decided_ratio": {"value": decided / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    return {"correct": verdict_errors == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "verdict_errors": verdict_errors, "decided": decided}


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after the other."""
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all",
                        help="one workload, or all of them in turn (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_source()
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload == "all":
        return run_all(args)
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdict_errors, decided = result.pop("verdict_errors"), result.pop("decided")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted "
          f"{result['attempted']}, decided {decided}, verdict_errors {verdict_errors}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
