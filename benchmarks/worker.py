"""One pass of one workload in a fresh interpreter, as a CLI call pays it.

    python3 benchmarks/worker.py setup
    python3 benchmarks/worker.py pass WORKLOAD SEED TRACED FULL [SPANS_FILE]

Prints one JSON line.  `setup` only imports hsd and loads the catalog
manifest.  `pass` also generates the workload's inputs from SEED, times
one pass, reads peak RSS, and then checks the outputs (FULL = 1 adds the
expensive independent checks).  With TRACED = 1 the pass runs under the
tracing shim and the spans are written to SPANS_FILE.  A job's checks may
run inside the pass, untimed; FULL is therefore never combined with
TRACED, so that no check adds spans.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hsd  # noqa: F401
    import hsd.catalog
    import hsd.quasigroup  # noqa: F401

    hsd.catalog.catalog_list()
    setup_s = time.perf_counter() - t0
    if argv[0] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    _, workload, seed, traced, full = argv[:5]
    if traced == "1" and full == "1":
        raise SystemExit("FULL checks run only in untraced passes")
    import spans
    import workloads

    inputs = workloads.make_inputs(workload, int(seed))
    tracer = spans.Tracer() if traced == "1" else spans.NullTracer()
    t = time.perf_counter()
    try:
        res = workloads.RUN[workload](inputs, tracer, full == "1")
    finally:
        tracer.restore()
    wall_s = time.perf_counter() - t - res.untimed_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workloads.CHECK[workload](res, full == "1")

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "blocks": res.blocks,
        "jobs": res.attempted,
        "latencies_ms": [1000.0 * x for x in res.latencies],
        "failed": len(res.failures),
        "failures": dict(list(res.failures.items())[:5]),
        "digest": res.digest,
        "undecided_cells": workloads.undecided_cells(res),
        "inputs": inputs if workload != "certify" else {"first": inputs["order"][:3]},
    }
    if traced == "1":
        out["layers"] = {
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
            "spans": len(tracer.spans),
            "top_level_s": tracer.top_level_s(),
        }
        tracer.dump(argv[5], workload=workload, seed=int(seed), wall_s=wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
