"""Self-test of the benchmark: its checks catch a corrupted design, each
workload runs at a tiny size, tracing leaves outputs unchanged, and the
runner refuses a directory without the hsd sources.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hsd.catalog as catalog  # noqa: E402
import hsd.core as core  # noqa: E402
import hsd.prover as prover  # noqa: E402
import hsd.quasigroup as quasigroup  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "certify": {"order": ["Ex2.1/3^7 1^1", "A1/3^8 1^1", "GDD/3^4", "S/3^4", "A5/3^7 7^1"]},
    "build": {"types": ["3^27 31^1"], "table": [6, 4]},
    "decide": {"table": [8, 6], "search_nodes": 2_000},
}


def _corrupt(design):
    """The design with one point of its first block swapped for another
    point of the same hole, so only that block changes."""
    blocks = list(design.blocks)
    a, b, c, d = blocks[0]
    hole = design.holes[design.structure.hole_of(a)]
    other = next(p for p in hole if p != a)
    blocks[0] = (other, b, c, d)
    return core.Design(design.holes, blocks)


def _run(workload):
    res = workloads.RUN[workload](TINY[workload], spans.NullTracer(), True)
    workloads.CHECK[workload](res, full=True)
    return res


def test_certify_check_counts_a_corrupted_block():
    e = catalog.catalog_get("Ex2.1/3^7 1^1")
    entry, obj, row, design, _, census = workloads.certify_entry(e)
    bad = _corrupt(design)
    checked = workloads.certify_problems(entry, obj, row, bad, quasigroup.check_frame(bad), census)
    res = workloads.PassResult({"checked": {e.id: checked}}, 1, [0.0], 0)
    workloads.check_certify(res, full=True)
    assert list(res.failures) == [e.id]
    assert "check_frame" in res.failures[e.id]
    assert "frozen digest" in res.failures[e.id]


def test_build_check_counts_a_corrupted_block():
    ty = TINY["build"]["types"][0]
    outcome, design = prover.prove_type(ty, materialize=True, large=True)
    assert workloads.build_problems(outcome.type, outcome, design, full=True)[0] == []
    res = _run("build")
    assert not res.failures
    res.outputs["checked"][ty] = workloads.build_problems(
        outcome.type, outcome, _corrupt(design), full=True)
    res.failures.clear()
    workloads.check_build(res, full=True)
    assert list(res.failures) == [ty]
    assert "verify_design" in res.failures[ty] and "check_frame" in res.failures[ty]


def test_smoke_each_workload_traced_and_untraced_agree():
    originals = (core.verify_design, catalog.verify_design, prover.search_direct,
                 catalog.develop, core.Design.__init__)
    for workload in TINY:
        plain = _run(workload)
        assert not plain.failures, (workload, plain.failures)
        assert plain.attempted and plain.blocks
        tracer = spans.Tracer()
        try:
            traced = workloads.RUN[workload](TINY[workload], tracer, False)
        finally:
            tracer.restore()
        workloads.CHECK[workload](traced, full=False)
        assert not traced.failures, (workload, traced.failures)
        assert traced.digest == plain.digest, workload
        assert (core.verify_design, catalog.verify_design, prover.search_direct,
                catalog.develop, core.Design.__init__) == originals
        self_s = tracer.self_times()
        assert abs(sum(self_s.values()) - tracer.top_level_s()) < 1e-6
        assert tracer.spans and all(s[4] is not None for s in tracer.spans)


def test_tracer_sees_names_imported_into_other_modules():
    # a copy with an empty parse cache, whatever earlier tests loaded
    entry = dataclasses.replace(catalog.catalog_get("Ex2.1/3^7 1^1"), _obj=None)
    tracer = spans.Tracer()
    try:
        workloads.certify_entry(entry)
        pv = prover.Prover(search_seconds=None, search_nodes=100)
        pv.resolve(core.parse_type("1^5"))
    finally:
        tracer.restore()
    self_s = tracer.self_times()
    for layer in ("catalog.load", "files.parse", "development.develop", "core.design_init",
                  "core.verify", "quasigroup.check_frame", "development.census",
                  "prover.plan", "search.direct", "search.solve"):
        assert self_s[layer] > 0, layer
    assert tracer.counts["search.attempts"] == 1
    assert tracer.counts["core.verify_blocks"] == 105


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
