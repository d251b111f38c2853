"""The three workloads, their inputs and their output checks.

Every call into hsd goes through a module attribute looked up at call
time (`catalog.verify_entry`, never a name imported into this file), so
the tracing shim in spans.py sees it.

certify  cold certification of every catalog entry by both checkers
build    prove_type(..., materialize=True, large=True) on big types, plus
         the materialized 13 x 15 existence table
decide   the 30 x 45 existence table planned with a node-bounded prover
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import hsd.catalog as catalog
import hsd.core as core
import hsd.development as development
import hsd.files as files
import hsd.prover as prover
import hsd.quasigroup as quasigroup

FROZEN = json.loads((Path(__file__).parent / "frozen.json").read_text())

# Each pool holds types that share a recipe mix and a similar point count;
# seed s picks pool[s % len(pool)] from each, so seed 0 takes the first.
BUILD_POOLS = (
    # R-FILL-A over R-MUL, 375-393 points
    ("3^88 125^1", "3^88 123^1", "3^88 127^1", "3^88 124^1", "3^88 126^1"),
    # R-FILL-B over R-MUL; no other type of 290-316 points plans to it
    ("3^88 39^1",),
    # R-FILL-B with R-TDW, 196-202 points
    ("3^51 49^1", "3^51 43^1"),
    # R-FILL-A over R-9FAM
    ("3^27 37^1", "3^27 35^1", "3^27 31^1"),
)
BUILD_TABLE = (13, 15)
DECIDE_TABLE = (30, 45)
# Bounds the prover's search fallback by nodes alone, so the result and
# the work done do not depend on machine speed.  1^7 exhausts in 26,681.
DECIDE_SEARCH_NODES = 50_000

clock = time.perf_counter


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "certify":
        order = sorted(e.id for e in catalog.catalog_list())
        random.Random(seed).shuffle(order)
        return {"order": order}
    if workload == "build":
        picks = [pool[seed % len(pool)] for pool in BUILD_POOLS]
        return {"types": picks, "table": list(BUILD_TABLE)}
    if workload == "decide":
        # Fixed: its verdicts and node counts are compared across runs.
        return {"table": list(DECIDE_TABLE), "search_nodes": DECIDE_SEARCH_NODES}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """What one pass produced: outputs for the checks plus its timings."""

    outputs: dict
    attempted: int  # jobs whose outputs are checked
    latencies: list  # seconds per timed job
    blocks: int  # blocks the pass certified, built or proved to exist
    untimed_s: float = 0.0  # time inside the pass spent on output checks
    failures: dict = field(default_factory=dict)  # job -> its problems
    digest: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_table(tr, pv, n_max, u_max, materialize):
    """Run prover.table, timing each cell through its progress callback.

    Returns the table and the latencies of the cells that pass the counting
    conditions; the others are settled by arithmetic in microseconds and
    are not timed as jobs."""
    latencies = []
    last = [0.0]

    def progress(n, u, outcome):
        now = clock()
        if outcome.verdict != prover.INFEASIBLE:
            latencies.append(now - last[0])
        tr.job = f"cell {n},{u + 1}" if u < u_max else f"cell {n + 1},0"
        last[0] = clock()

    tr.job = "cell 4,0"
    last[0] = clock()
    tab = prover.table(n_max, u_max, materialize=materialize, progress=progress, prover=pv)
    return tab, latencies


# ---------------------------------------------------------------------------
# certify


def certify_entry(e):
    """One certify job: verify_entry, then check_frame on the developed
    design, then difference_census for step-1 starters."""
    row = catalog.verify_entry(e)
    obj = e.load()
    design = frame = census = None
    if e.kind != "gdd":
        design = e.design()
        frame = quasigroup.check_frame(design)
        if isinstance(obj, development.StarterSet) and obj.step == 1:
            census = development.difference_census(obj)
    return e, obj, row, design, frame, census


def certify_problems(e, obj, row, design, frame, census):
    """The checks of one certify job: (problems, digest of its text)."""
    text = files.serialize_gdd(obj) if design is None else files.serialize_design(design)
    digest = _sha(text)
    problems = list(row.errors)
    if not row.ok:
        problems.append("verify_entry failed")
    if frame is not None and not frame[0]:
        problems.append(f"check_frame: {frame[1][:2]}")
    if census is not None and not census.ok:
        problems.append(f"difference_census: {census.errors[:2]}")
    if design is not None and len(design.blocks) != e.expected_blocks:
        problems.append(f"{len(design.blocks)} blocks, manifest {e.expected_blocks}")
    if digest != FROZEN["certify"]["entries"].get(e.id):
        problems.append("serialized entry differs from the frozen digest")
    return problems, digest


def run_certify(inputs, tr, full: bool) -> PassResult:
    """Checks each job right after timing it, so that no design outlives
    its job and peak RSS is that of certifying, not of holding results."""
    checked = {}
    latencies = []
    blocks = 0
    untimed = 0.0
    for eid in inputs["order"]:
        tr.job = eid
        t = clock()
        job = certify_entry(catalog.catalog_get(eid))
        done = clock()
        latencies.append(done - t)
        design = job[3]
        blocks += len(design.blocks) if design is not None else 0
        checked[eid] = certify_problems(*job)
        del job, design
        untimed += clock() - done
    return PassResult({"checked": checked}, len(latencies), latencies, blocks, untimed)


def check_certify(res: PassResult, full: bool):
    """Both checkers, the census, manifest block counts and the frozen
    serialize_design digest of every entry, checked job by job during the
    pass; here the results are collected."""
    checked = res.outputs["checked"]
    for eid, (problems, _) in checked.items():
        if problems:
            res.failures[eid] = "; ".join(problems)
    missing = set(FROZEN["certify"]["entries"]) - {e.id for e in catalog.catalog_list()}
    for eid in sorted(missing):
        res.failures[eid] = "entry missing from the catalog"
    res.digest = _sha("".join(checked[eid][1] for eid in sorted(checked)))


# ---------------------------------------------------------------------------
# build


def build_problems(t, outcome, design, full: bool):
    """The checks of one delivered design: (problems, digest of its text).
    With `full` the design must also pass verify_design and, independently,
    check_frame."""
    if design is None:
        return [f"verdict {outcome.verdict}, no design"], ""
    problems = [] if outcome else [f"verdict {outcome.verdict}"]
    if design.type != t:
        problems.append(f"built type {design.type}, wanted {t}")
    want = core.expected_block_count(t)
    if len(design.blocks) != want:
        problems.append(f"{len(design.blocks)} blocks, expected {want}")
    if full:
        report = core.verify_design(design)
        if not report.ok:
            problems.append(f"verify_design: {report.errors[:2]}")
        ok, errors = quasigroup.check_frame(design)
        if not ok:
            problems.append(f"check_frame: {errors[:2]}")
    return problems, _sha(files.serialize_design(design))


def run_build(inputs, tr, full: bool) -> PassResult:
    """Checks each prove_type design right after timing it, so that none
    outlives its job.  The table's designs stay in its prover, as they do
    for any caller."""
    checked = {}
    latencies = []
    blocks = 0
    untimed = 0.0
    for ty in inputs["types"]:
        tr.job = ty
        t = clock()
        outcome, design = prover.prove_type(ty, materialize=True, large=True)
        done = clock()
        latencies.append(done - t)
        blocks += len(design.blocks) if design is not None else 0
        checked[ty] = build_problems(core.parse_type(ty), outcome, design, full)
        del outcome, design
        untimed += clock() - done
    n_max, u_max = inputs["table"]
    pv = prover.Prover()
    tab, cell_latencies = _timed_table(tr, pv, n_max, u_max, materialize=True)
    latencies.extend(cell_latencies)
    blocks += sum(core.expected_block_count(o.type) for o in tab.cells.values() if o)
    return PassResult({"checked": checked, "table": tab, "prover": pv},
                      len(checked) + len(tab.cells), latencies, blocks, untimed)


def check_build(res: PassResult, full: bool):
    """Collects the prove_type checks, checks every table cell's design the
    same way, and compares the table CSV with its frozen digest."""
    digests = []
    for ty, (problems, digest) in res.outputs["checked"].items():
        digests.append(digest)
        if problems:
            res.failures[ty] = "; ".join(problems)
    tab, pv = res.outputs["table"], res.outputs["prover"]
    csv = tab.to_csv()
    csv_ok = _sha(csv) == FROZEN["build"]["table_csv_sha256"].get(f"{tab.n_max}x{tab.u_max}")
    digests.append(_sha(csv))
    for (n, u), outcome in sorted(tab.cells.items()):
        problems = [] if csv_ok else ["table CSV differs from the frozen digest"]
        feasible = core.is_feasible(n, u).feasible
        if outcome.verdict != (prover.EXISTS if feasible else prover.INFEASIBLE):
            problems.append(f"verdict {outcome.verdict}, feasible={feasible}")
        if outcome:
            more, digest = build_problems(outcome.type, outcome, pv.materialize(outcome.recipe), full)
            problems += more
            digests.append(digest)
        if problems:
            res.failures[f"cell {n},{u}"] = "; ".join(problems)
    res.digest = _sha("".join(digests))


# ---------------------------------------------------------------------------
# decide


def run_decide(inputs, tr, full: bool) -> PassResult:
    n_max, u_max = inputs["table"]
    pv = prover.Prover(search_seconds=None, search_nodes=inputs["search_nodes"])
    tab, latencies = _timed_table(tr, pv, n_max, u_max, materialize=False)
    blocks = sum(core.expected_block_count(o.type) for o in tab.cells.values() if o)
    return PassResult({"table": tab}, len(tab.cells), latencies, blocks)


def check_decide(res: PassResult, full: bool):
    """Every verdict agrees with is_feasible, and no cell that was EXISTS
    when the frozen data was taken has lost it."""
    tab = res.outputs["table"]
    unknown_then = {tuple(c) for c in FROZEN["decide"]["unknown_cells"]}
    for (n, u), outcome in sorted(tab.cells.items()):
        feasible = core.is_feasible(n, u).feasible
        if not feasible:
            allowed = {prover.INFEASIBLE}
        elif (n, u) in unknown_then:
            allowed = {prover.EXISTS, prover.UNKNOWN_HERE}
        else:
            allowed = {prover.EXISTS}
        if outcome.verdict not in allowed:
            res.failures[f"cell {n},{u}"] = f"verdict {outcome.verdict}, feasible={feasible}"
    res.digest = _sha(tab.to_csv() + "\n".join(o.describe() for _, o in sorted(tab.cells.items())))


RUN = {"certify": run_certify, "build": run_build, "decide": run_decide}
CHECK = {"certify": check_certify, "build": check_build, "decide": check_decide}


def undecided_cells(res: PassResult) -> int:
    tab = res.outputs.get("table")
    return len(tab.unknown_cells()) if tab is not None else 0

