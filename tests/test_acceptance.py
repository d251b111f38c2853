"""Acceptance criteria, one test per numbered requirement.

Each test is self-contained and prints a one-line summary, so a plain
`pytest -v tests/test_acceptance.py` reads as a checklist.  Expected block
counts and orbit censuses are frozen here on purpose; they were computed
independently (hand arithmetic on the pair-count identity, plus from-scratch
development runs) before being wired into assertions.
"""

import hashlib
import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from hsd.algebra import td
from hsd.catalog import catalog_get, catalog_list, catalog_verify_all
from hsd.cli import main as cli_main
from hsd.constructions import fill_holes_a, fill_holes_b, multiply, weight_inflate
from hsd.core import (
    Design,
    block_forms,
    canonical_block,
    expected_block_count,
    is_feasible,
    parse_type,
    uniform_type,
    verify_design,
)
from hsd.development import StarterSet, develop, difference_census, orbit
from hsd.files import serialize_design, serialize_gdd
from hsd.prover import EXISTS, INFEASIBLE, Prover, prove_type, table
from hsd.quasigroup import check_frame
from hsd.search import NONE, search_direct

REQUIRED_TABLES = {
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
    "B1", "B2", "B3", "C1", "C2", "C3", "D",
    "Ex2.1", "Ex2.2", "L3.7", "L3.16",
}

DOCUMENTED_REPAIRS = {"A5/3^7 7^1", "A5/3^11 7^1", "A6/3^9 8^1"}


def test_criterion_1_catalog_certification(capsys):
    t0 = time.time()
    rows = catalog_verify_all()
    elapsed = time.time() - t0

    assert [r.id for r in rows if not r.ok] == []
    assert elapsed < 120, f"verify-all took {elapsed:.1f}s"
    covered = {e.table for e in catalog_list()}
    assert REQUIRED_TABLES <= covered
    for row in rows:
        if row.kind != "gdd":
            assert row.blocks == row.expected, row.id
    repaired = {e.id for e in catalog_list(status="repaired")}
    assert repaired == DOCUMENTED_REPAIRS
    for e in catalog_list(status="repaired"):
        assert e.note  # the defect and the fix are written down

    # every entry serializes byte for byte as when the digests were frozen
    frozen = Path(__file__).resolve().parents[1] / "benchmarks" / "frozen.json"
    want = json.loads(frozen.read_text())["certify"]["entries"]
    got = {}
    for e in catalog_list():
        text = serialize_gdd(e.load()) if e.kind == "gdd" else serialize_design(e.design())
        got[e.id] = hashlib.sha256(text.encode()).hexdigest()
    assert len(got) == 106
    assert got == want

    assert cli_main(["catalog", "verify-all"]) == 0
    capsys.readouterr()
    print(f"CRITERION 1 PASS: {len(rows)} entries certified in {elapsed:.1f}s, "
          f"repairs limited to {sorted(repaired)}")


def test_criterion_2_worked_example_counts():
    ex21 = develop(catalog_get("Ex2.1").load())
    assert len(ex21.blocks) == 105
    assert verify_design(ex21).ok

    ss22 = catalog_get("Ex2.2").load()
    census22 = Counter(len(orbit(s, ss22.modulus, ss22.step)) for s in ss22.starters)
    assert census22[6] == 3, "expected exactly 3 short orbits of length 6"
    ex22 = develop(ss22)
    assert len(ex22.blocks) == 150
    assert verify_design(ex22).ok

    ss_a1 = catalog_get("A1/3^8 1^1").load()
    census_a1 = Counter(len(orbit(s, ss_a1.modulus, ss_a1.step)) for s in ss_a1.starters)
    assert census_a1[3] == 6, "expected exactly 6 orbits of length 3"
    a1 = develop(ss_a1)
    assert len(a1.blocks) == 138
    assert verify_design(a1).ok

    print("CRITERION 2 PASS: 105 / 150 / 138 blocks, short-orbit censuses "
          f"{dict(census22)} and {dict(census_a1)}")


def test_criterion_3_existence_table(capsys):
    t0 = time.time()
    prover = Prover()
    tb = table(13, 15, materialize=True, prover=prover)
    elapsed = time.time() - t0

    assert elapsed < 600, f"table run took {elapsed:.1f}s"
    assert tb.ok
    exists = infeasible = 0
    for (n, u), out in sorted(tb.cells.items()):
        if is_feasible(n, u).feasible:
            assert out.verdict == EXISTS, (n, u, out.verdict)
            exists += 1
        else:
            assert out.verdict == INFEASIBLE, (n, u, out.verdict)
            infeasible += 1

    # spot re-materializations straight through the public entry point
    rng = random.Random(1)
    pool = [(n, u) for (n, u), o in tb.cells.items() if o.verdict == EXISTS]
    for n, u in rng.sample(pool, 8):
        out, d = prove_type(uniform_type(n, u), materialize=True)
        assert d is not None
        assert len(d.blocks) == expected_block_count(uniform_type(n, u))
        assert verify_design(d).ok

    assert cli_main(["table", "--nmax", "13", "--umax", "15", "--materialize"]) == 0
    capsys.readouterr()
    print(f"CRITERION 3 PASS: {exists} EXISTS / {infeasible} INFEASIBLE cells "
          f"match the arithmetic exactly, materialized in {elapsed:.1f}s")


def test_criterion_4_construction_certifications():
    # multiplication by 3
    tripled = multiply(catalog_get("Ex2.1").design(), 3)
    assert tripled.type == parse_type("9^7 3^1")
    assert len(tripled.blocks) == 945
    assert verify_design(tripled).ok

    # fill holes, single short size, keeping the long hole
    filled = fill_holes_a(
        catalog_get("C1/9^4 1^1").design(), 3, catalog_get("S/3^4").design(), keep_size=1
    )
    assert filled.type == parse_type("3^12 4^1")
    assert len(filled.blocks) == 369
    assert verify_design(filled).ok

    # weighted TD(6,5), then fill both hole sizes
    gdd = td(6, 5)
    weights = {}
    for gi, group in enumerate(gdd.groups):
        for k, p in enumerate(group):
            if gi < 4:
                weights[p] = 3
            elif gi == 4:
                weights[p] = 3 if k == 0 else 0
            else:
                weights[p] = 4 if k < 2 else 0
    supply = {
        parse_type(t): catalog_get("S/" + t).design()
        for t in ["3^4", "3^5", "3^4 4^1", "3^5 4^1"]
    }
    outer = weight_inflate(gdd, weights, supply)
    assert outer.type == parse_type("15^4 3^1 8^1")
    assert verify_design(outer).ok
    final = fill_holes_b(
        outer, 0, catalog_get("S/3^5").design(), Design([(0, 1, 2)], []), keep_size=8
    )
    assert final.type == parse_type("3^21 8^1")
    assert len(final.blocks) == 1197
    assert verify_design(final).ok

    print("CRITERION 4 PASS: 945 / 369 / 1197 blocks, all three verified")


def test_criterion_5_nonexistence_certificates():
    for text in ["1^5", "3^3 1^1"]:
        t0 = time.time()
        res = search_direct(parse_type(text))
        elapsed = time.time() - t0
        assert res.status == NONE, f"{text}: {res.status}"
        assert elapsed < 300
    print("CRITERION 5 PASS: 1^5 and 3^3 1^1 exhausted, no design found")


def test_criterion_6_large_starter_tables():
    entries = catalog_list(table="D")
    assert len(entries) == 6
    assert {str(e.type) for e in entries} == {
        "4^19 30^1", "4^19 31^1", "4^19 33^1", "4^19 34^1", "4^19 35^1", "4^22 34^1",
    }
    for e in entries:
        d = develop(e.load())
        assert len(d.blocks) == e.expected_blocks, e.id
        assert verify_design(d).ok, e.id
    print("CRITERION 6 PASS: all six wide-type starter tables develop and verify")


def test_criterion_7a_two_checker_agreement():
    checked = 0
    for e in catalog_list():
        if e.kind == "gdd":
            continue
        d = e.design()
        design_ok = verify_design(d).ok
        frame_ok, frame_errors = check_frame(d)
        assert design_ok and frame_ok, (e.id, frame_errors)
        checked += 1
    print(f"CRITERION 7a PASS: design-side and quasigroup-side checks agree "
          f"on all {checked} entries")


def test_criterion_7b_canonicalization_and_orbit_fuzz():
    rng = random.Random(20260819)
    for _ in range(10_000):
        pts = rng.sample(range(997), 4)
        if rng.random() < 0.25:
            # a long-hole point x1..x4 over Z_997 is the int 997..1000
            pts[rng.randrange(4)] = 996 + rng.randint(1, 4)
        b = tuple(pts)
        c = canonical_block(b)
        assert canonical_block(c) == c
        assert {canonical_block(f) for f in block_forms(b)} == {c}

    for _ in range(10_000):
        g = 4 * rng.randint(1, 60)
        step = rng.choice([k for k in range(1, g + 1) if g % k == 0])
        blk = tuple(rng.sample(range(g), 4))
        length = len(orbit(blk, g, step))
        assert length >= 1
        assert (g // step) % length == 0
    print("CRITERION 7b PASS: 10^4 canonicalization cases and 10^4 orbit cases")


def test_criterion_7c_census_develop_equivalence():
    step_one = [e for e in catalog_list(kind="starter") if e.load().step == 1]
    assert len(step_one) >= 50
    for e in step_one:
        ss = e.load()
        census_ok = difference_census(ss).ok
        develop_ok = verify_design(develop(ss)).ok
        assert census_ok and develop_ok, e.id

    # the equivalence must also hold in the failing direction: damage a
    # starter coordinate and both certificates give the same verdict
    rng = random.Random(77)
    agreements = disagreements = 0
    for e in rng.sample(step_one, 20):
        base = e.load()
        starters = [list(s) for s in base.starters]
        i = rng.randrange(len(starters))
        j = rng.randrange(4)
        replacement = rng.randrange(base.modulus)
        if replacement in starters[i]:
            continue
        starters[i][j] = replacement
        mutated = StarterSet(
            modulus=base.modulus,
            hole_size=base.hole_size,
            step=1,
            u=base.u,
            starters=tuple(tuple(s) for s in starters),
        )
        census_ok = difference_census(mutated).ok
        develop_ok = verify_design(develop(mutated)).ok
        if census_ok == develop_ok:
            agreements += 1
        else:
            disagreements += 1
    assert disagreements == 0
    print(f"CRITERION 7c PASS: {len(step_one)} step-1 entries certified both "
          f"ways, {agreements} mutations judged identically by both sides")


@pytest.mark.skipif(
    not os.environ.get("HSD_LARGE"),
    reason="large-scale run is optional; set HSD_LARGE=1 to include it",
)
# 3^484 6^1 is planned through a weighted TD(6, 121), so its build needs GF(121)
@pytest.mark.parametrize("n, u, count", [(88, 125, 33726), (484, 6, 530343)])
def test_optional_large_run(n, u, count):
    prover = Prover(large=True)
    out = prover.prove(n, u)
    assert out.verdict == EXISTS
    d = prover.materialize(out.recipe)
    t = uniform_type(n, u)
    assert d.type == t
    assert len(d.blocks) == expected_block_count(t) == count
    assert verify_design(d).ok
    assert check_frame(d).ok
    print(f"OPTIONAL LARGE RUN PASS: {count} blocks verified")
