"""hsd benchmark: certify, build and decide, timed end to end and per layer.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (worker.py), one after another, so every pass pays the cold
catalog cache, empty prover memo and imports that an `hsd` CLI call pays.
Passes repeat until --seconds have gone by; every metric is the median
over passes.  setup_s is also sampled by SETUP_SAMPLES extra interpreters
that only import hsd and load the catalog manifest.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics from the traced ones;
the untraced ones give the tracing overhead and must produce the same
outputs.  The last stdout line is the result object; the line before it
holds the environment and run details, also written to benchmarks/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("certify", "build", "decide")
SETUP_SAMPLES = 9
# A run must end within 180 s; no pass starts after this many seconds.
RUN_LIMIT_S = 170.0
# A fixed string-hash seed keeps dict and set layouts, and with them
# timings and peak RSS, the same from pass to pass.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def worker(args, deadline):
    """Run worker.py; returns its JSON line, or None if it failed."""
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker {args} ran past {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {args} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """Cut point q/100 of statistics.quantiles over the pooled samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else 0.0


def per_layer(traced, untraced) -> dict:
    def med(f):
        return median([f(p) for p in traced])

    def count(name):
        return med(lambda p: p["layers"]["counts"].get(name, 0))

    def self_s(name):
        return med(lambda p: p["layers"]["self_s"].get(name, 0.0))

    out = {}
    for name in spans.LAYERS:
        out[name + "_s"] = (self_s(name), "s")
    for name in spans.COUNTERS:
        out[name] = (count(name), "count")
    verify_s = self_s("core.verify")
    out["core.verify_blocks_per_s"] = (count("core.verify_blocks") / verify_s if verify_s else 0.0, "1/s")
    solve_s = self_s("search.solve")
    out["search.nodes_per_s"] = (count("search.nodes") / solve_s if solve_s else 0.0, "1/s")
    attempts = count("search.attempts")
    settled = count("search.found") + count("search.none")
    out["search.settled_ratio"] = (settled / attempts if attempts else 0.0, "ratio")
    out["prover.undecided_cells"] = (median([p["undecided_cells"] for p in traced]), "count")
    traced_wall = med(lambda p: p["wall_s"])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.spanned_s"] = (med(lambda p: sum(p["layers"]["self_s"].values())), "s")
    out["trace.unspanned_s"] = (med(lambda p: p["wall_s"] - p["layers"]["top_level_s"]), "s")
    out["trace.overhead_s"] = (traced_wall - median([p["wall_s"] for p in untraced]), "s")
    out["trace.spans"] = (med(lambda p: p["layers"]["spans"]), "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hsd" / "__init__.py").is_file():
        print(f"no hsd package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)

    # The first interpreter also writes the bytecode caches; it is not timed.
    if worker(["setup"], deadline) is None:
        return 3
    setups = [worker(["setup"], deadline) for _ in range(SETUP_SAMPLES)]

    passes = []
    crashed = False
    while True:
        # Start another pass only if the measured time should stay within
        # --seconds.
        walls = [p["wall_s"] for p in passes]
        if len(passes) >= 2 and (
                sum(walls) + median(walls) > args.seconds or time.monotonic() > deadline):
            break
        traced = args.trace == 1 and len(passes) % 2 == 1
        full = not passes
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        res = worker(["pass", args.workload, str(args.seed), str(int(traced)),
                      str(int(full)), str(spans_file)], deadline)
        if res is None:
            crashed = True
            break
        res["traced"] = traced
        passes.append(res)

    setup_samples = [s["setup_s"] for s in setups if s] + [p["setup_s"] for p in passes]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["jobs"] for p in passes) or 1
    failed = sum(p["failed"] for p in passes) + (attempted if crashed else 0)
    failed = min(failed, attempted)
    digests = {p["digest"] for p in passes}
    correct = not crashed and failed == 0 and len(digests) == 1 and None not in setups

    if args.trace:
        metrics = per_layer(traced, untraced) if traced and untraced else {}
    else:
        walls = [p["wall_s"] for p in untraced]
        latencies = [x for p in untraced for x in p["latencies_ms"]]
        metrics = {
            "setup_s": (median(setup_samples), "s"),
            "wall_s": (median(walls), "s"),
            "blocks_per_s": (median([p["blocks"] / p["wall_s"] for p in untraced]), "1/s"),
            "job_p50_ms": (percentile(latencies, 50), "ms"),
            "job_p90_ms": (percentile(latencies, 90), "ms"),
            "peak_rss_mb": (median([p["peak_rss_mb"] for p in untraced]), "MB"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": src_lines(),
        "passes": len(passes),
        "setup_samples": len(setup_samples),
        "jobs_per_pass": passes[0]["jobs"] if passes else 0,
        "job_samples": sum(len(p["latencies_ms"]) for p in untraced),
        "fail_ratio": failed / attempted,
        "undecided_cells": passes[0]["undecided_cells"] if passes else None,
        "blocks_per_pass": passes[0]["blocks"] if passes else 0,
        "output_digests": sorted(digests),
        "failures": [p["failures"] for p in passes if p["failures"]][:3],
        "inputs": passes[0]["inputs"] if passes else None,
        "wall_s_per_pass": [round(p["wall_s"], 4) for p in passes],
        "run_s": time.monotonic() - started,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
