"""mcgraph benchmark: time one workload, check every output, print metrics.

    python3 bench/run.py --workload exact-products --seed 1 --seconds 30 --trace 0

runs one workload in this process on one thread.  Set-up is repeated and its
median reported; then whole passes over the workload's ops run until the
next pass would overrun ``--seconds`` (at least one pass).  The last stdout
line is the result object; the line before it holds the run facts, the
resolved inputs and every failed check.  ``--trace 1`` instead alternates
untraced and traced passes and reports per-layer calls, busy and self time
plus the tracing overhead; spans go to ``.bench_out/``.

    python3 bench/run.py --workload all --repeat 10

runs each workload (or the one named) in a fresh child process for seeds
1..10 and prints each end-to-end metric's median, quartiles and spread
against its bound in BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import harness
from harness import ROOT

OUT = ROOT / ".bench_out"
# Set-up runs at least SETUP_MIN_REPEATS times, and more while it has taken
# under SETUP_MIN_SECONDS, so that millisecond set-ups get a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 5, 101, 2.0


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _passes(tracer, prepared, seconds: float, trace: bool) -> tuple[list, list]:
    """Run passes until the next would overrun; returns (untraced, traced).

    A traced run pairs an untraced and a traced pass over the same ops, and
    alternates which of the two goes first.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    pass_no = 0
    while True:
        pass_start = time.perf_counter()
        for on in ((False, True) if pass_no % 2 == 0 else (True, False))[: 1 + trace]:
            (traced if on else untraced).append(
                harness.run_pass(tracer, prepared.ops, pass_no, on)
            )
        pass_no += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return untraced, traced


def _setup(tracer, setup, seed: int, trace: bool):
    """Repeat set-up for a steady median; returns (prepared, [(start, end)])."""
    times: list[tuple[float, float]] = []
    while len(times) < SETUP_MIN_REPEATS or (
        times[-1][1] - times[0][0] < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        prepared = setup(tracer, seed)
        times.append((start, time.perf_counter()))
    if trace:  # one more, traced, whose inputs the passes use
        tracer.enabled = True
        prepared = setup(tracer, seed)
        tracer.enabled = False
    return prepared, times


def _layer_metrics(tracer, traced, clock, layers, products) -> dict:
    metrics = {}
    totals = tracer.layer_totals(len(traced), clock)
    for layer in [*layers, "bench.op"]:
        row = totals.get(layer, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
        metrics[f"{layer}.busy_s"] = _metric(row["busy_s"], "s")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
    per_instance = {name: 0.0 for name, *_ in products}
    for s in tracer.spans:
        if s.name == "exact.mc_exact" and s.op in per_instance:
            per_instance[s.op] += clock.seconds(s.start, s.end) / len(traced)
    for name, seconds in per_instance.items():
        metrics[f"exact.mc_exact.{name}.s"] = _metric(seconds, "s")
    for counter, unit in (("exact.mc_exact.bounds_only", "count"), ("io.bytes_read", "bytes")):
        metrics[counter] = _metric(tracer.counters.get(counter, 0) / len(traced), unit)
    return metrics


def run_workload(args) -> int:
    harness.bootstrap()
    from workloads import KNOWN_DEFECTS, LAYER_EFFECTS, PRODUCTS, WORKLOADS

    tracer = harness.Tracer()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, harness.SpeedProbe() as probe:
        options = {
            "exact-products": {"relabel_inputs": args.relabel},
            "network-families": {"scratch": Path(tmp)},
        }.get(args.workload, {})
        setup = partial(WORKLOADS[args.workload], **options)
        prepared, setup_times = _setup(tracer, setup, args.seed, bool(args.trace))
        untraced, traced = _passes(tracer, prepared, args.seconds, bool(args.trace))

    def pass_seconds(passes, clock=probe):
        return [clock.seconds(p.start, p.end) for p in passes]

    results = [r for p in untraced + traced for r in p.results]
    failed, unexplained = harness.tally(results, KNOWN_DEFECTS)
    exact_calls = sum(r.report.exact_calls for r in results)
    latencies = [probe.seconds(r.start, r.end) for p in untraced for r in p.results]
    op_p90 = harness.p90(latencies)
    summary = {
        "setup_s": harness.median([probe.seconds(a, b) for a, b in setup_times]),
        "wall_s": harness.median(pass_seconds(untraced)),
        "op_p50_ms": 1e3 * harness.median(latencies),
        "op_p90_ms": None if op_p90 is None else 1e3 * op_p90,
        "ops": len(latencies),
        "passes": len(untraced),
        "pass_s": pass_seconds(untraced),
        "raw_pass_s": pass_seconds(untraced, harness.RawClock),
        "raw_setup_s": harness.median([b - a for a, b in setup_times]),
        "host_speed": probe.relative_speed(),
        "ops_failed_frac": len(failed) / len(results),
        "exact_decided_frac": (
            sum(r.report.exact_decided for r in results) / exact_calls if exact_calls else None
        ),
        "exact_calls": exact_calls,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    failures: dict[str, dict] = {}  # each distinct failed check, with its count
    for r in failed:
        for tag, message in r.report.problems:
            entry = failures.setdefault(
                f"{r.name}: {message}",
                {"op": r.name, "check": tag, "message": message, "count": 0,
                 "known_defect": KNOWN_DEFECTS.get((r.name, tag))},
            )
            entry["count"] += 1
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "relabel": args.relabel,
        **harness.run_facts(),
        "instances": prepared.instances,
        "summary": summary,
        "failures": list(failures.values()),
    }

    if args.trace:
        metrics = _layer_metrics(tracer, traced, probe, LAYER_EFFECTS, PRODUCTS)
        overhead = harness.median(pass_seconds(traced)) - summary["wall_s"]
        metrics["bench.trace_overhead_s"] = _metric(overhead, "s")
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        facts["spans"] = str(spans_path.relative_to(ROOT))
        facts["layer_effects"] = LAYER_EFFECTS
        for layer in LAYER_EFFECTS:
            print(
                f"{layer:36s} calls={metrics[layer + '.calls']['value']:9.1f} "
                f"busy_s={metrics[layer + '.busy_s']['value']:9.4f} "
                f"self_s={metrics[layer + '.self_s']['value']:9.4f}  moves {LAYER_EFFECTS[layer]}"
            )
        print(f"tracing overhead: traced minus untraced wall_s = {overhead:+.4f} s")
    else:
        metrics = {
            "setup_s": _metric(summary["setup_s"], "s"),
            "wall_s": _metric(summary["wall_s"], "s"),
            "op_p50_ms": _metric(summary["op_p50_ms"], "ms"),
            "peak_rss_mb": _metric(summary["peak_rss_mb"], "MB"),
        }
    print(_dumps(facts))
    print(_dumps({
        "correct": not unexplained,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_repeat(args) -> int:
    """Run each workload in a child process for k seeds; print the spreads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    table = {}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.repeat + 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            if args.relabel:
                cmd.append("--relabel")
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {child.returncode}\n{child.stderr}", file=sys.stderr)
                return 1
            facts, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append(result)
            s = facts["summary"]
            print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                  + f" ops_failed_frac={s['ops_failed_frac']:.3f} exact_decided_frac="
                  f"{s['exact_decided_frac']} op_p90_ms={s['op_p90_ms']}", flush=True)
            ok &= result["correct"]
        table[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            mid, q1, q3, rel = harness.spread(values)
            table[name][metric["name"]] = {
                "median": mid, "q1": q1, "q3": q3, "spread": rel, "bound": metric["bound"],
            }
            within = "ok" if rel <= metric["bound"] / 3 else ("within bound" if rel <= metric["bound"] else "OVER")
            ok &= rel <= metric["bound"]
            print(f"  {name:18s} {metric['name']:12s} median={mid:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={rel:.3f} bound={metric['bound']} {within}")
    print(_dumps({"repeat": args.repeat, "ok": ok, "spreads": table}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-products", "oracle-sweep", "network-families", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--relabel", action="store_true",
                        help="exact-products: relabel each product's vertices from the seed "
                             "(seed 0 keeps canonical labels)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times in child processes")
    args = parser.parse_args(argv)
    if args.repeat or args.workload == "all":
        args.repeat = args.repeat or 1
        return run_repeat(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
