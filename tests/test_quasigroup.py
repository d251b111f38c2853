"""Quasigroup side of the equivalence, plus the two-checker mutation battery."""

import ast
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hsd.quasigroup
from hsd.catalog import catalog_get, catalog_list
from hsd.constructions import fill_holes_a, multiply
from hsd.core import Design, verify_design
from hsd.quasigroup import check_frame, design_to_frame
from oracles import (
    assert_reports_frozen,
    check_schroder,
    check_weisner_pair,
    design_to_quasigroup,
    is_latin_square,
    quasigroup_to_design,
)


def _transpose(table):
    return {(y, x): z for (x, y), z in table.items()}


def test_design_to_quasigroup_on_unit_holes():
    d = catalog_get("S/1^8").design()
    q = design_to_quasigroup(d)
    rows = [[q[(x, y)] for y in d.points] for x in d.points]
    assert len(q) == len(d.points) ** 2 and is_latin_square(rows)
    assert all(q[(x, x)] == x for x in d.points)
    ok, errors = check_schroder(q)
    assert ok and errors == []


def test_design_to_quasigroup_refuses_bigger_holes():
    with pytest.raises(ValueError):
        design_to_quasigroup(catalog_get("A1/3^8 1^1").design())


# sha256 of repr(sorted(q.items())), recorded before design_to_quasigroup
# was built on design_to_frame
QUASIGROUP_TABLES = {
    "S/1^4": "d8b3a6ea4fa94728451ed8a01fbeff774ffce5e5470b795e53745102cacaec25",
    "S/1^8": "d0599ac8fc3779342e74283c959c4d13d35d6d75d21feef1ee7b9b1ed1a9f1e6",
}


@pytest.mark.parametrize("eid", sorted(QUASIGROUP_TABLES))
def test_design_to_quasigroup_tables_are_frozen(eid):
    d = catalog_get(eid).design()
    q = design_to_quasigroup(d)
    assert sorted({x for x, _ in q}) == list(d.points)
    digest = hashlib.sha256(repr(sorted(q.items())).encode()).hexdigest()
    assert digest == QUASIGROUP_TABLES[eid]


def test_design_to_quasigroup_names_a_doubled_cell():
    d = catalog_get("S/1^4").design()
    with pytest.raises(ValueError, match=r"^product 0\*1 defined twice$"):
        design_to_quasigroup(Design(d.holes, list(d.blocks) + [d.blocks[0]]))
    # a repeated point puts a product on the diagonal
    with pytest.raises(ValueError, match=r"^product 0\*0 defined twice$"):
        design_to_quasigroup(Design(d.holes, [(0, 0, 1, 2)]))
    with pytest.raises(ValueError, match="does not define a total operation"):
        design_to_quasigroup(Design(d.holes, d.blocks[1:]))


def test_quasigroup_design_round_trip():
    d = catalog_get("S/1^8").design()
    q = design_to_quasigroup(d)
    assert quasigroup_to_design(q) == d


def test_quasigroup_to_design_refuses_partial_and_non_idempotent_tables():
    q = design_to_quasigroup(catalog_get("S/1^4").design())
    with pytest.raises(ValueError, match="operation is partial"):
        quasigroup_to_design({cell: z for cell, z in q.items() if cell != (0, 1)})
    with pytest.raises(ValueError, match="operation is partial"):  # 9 names no element
        quasigroup_to_design(q | {(0, 1): 9})
    with pytest.raises(ValueError, match="only idempotent models"):
        quasigroup_to_design(q | {(0, 0): 1, (0, 2): 0})


def test_design_to_frame_refuses_an_unknown_point():
    d = catalog_get("Ex2.1").design()
    bad = Design(d.holes, [d.blocks[0][:3] + (99,)] + list(d.blocks[1:]))
    with pytest.raises(ValueError, match=r"^block \(0, 1, 5, 99\) uses a point outside the holes$"):
        design_to_frame(bad)


def test_weisner_pair_from_design():
    # row product and its transpose come from the same block list, so the
    # orthogonality coupling must hold between them
    q = design_to_quasigroup(catalog_get("S/1^8").design())
    ok, errors = check_weisner_pair(q, _transpose(q))
    assert ok and errors == []


def test_weisner_pair_negative():
    q = design_to_quasigroup(catalog_get("S/1^4").design())
    ok, errors = check_weisner_pair(q, q)  # a square paired with itself
    assert not ok and errors[0] == "identity fails at (0, 1)"


def test_schroder_negative():
    q = design_to_quasigroup(catalog_get("S/1^4").design())
    # swap two off-diagonal entries in one row
    broken = dict(q)
    broken[(0, 1)], broken[(0, 2)] = q[(0, 2)], q[(0, 1)]
    ok, errors = check_schroder(broken)
    assert not ok and errors[0] == "identity fails at (0, 1)"


def test_frame_of_holey_design_is_partial():
    d = catalog_get("A1/3^8 1^1").design()
    q = design_to_frame(d)
    assert len(q) < len(d.points) ** 2
    ok, errors = check_frame(d)
    assert ok and not errors


def test_frame_check_spot_entries():
    for key in ["Ex2.2", "C1/9^4 4^1", "L3.7"]:
        d = catalog_get(key).design()
        assert check_frame(d)[0], key


# --- mutation battery ---------------------------------------------------------
#
# verify_design reads the block list as colored pair coverage; check_frame
# reads the same list as a partial multiplication table.  The two views must
# condemn broken designs together, not just accept good ones together.

def _mutants(d, seed, count):
    rng = random.Random(seed)
    blocks = list(d.blocks)
    points = list(d.points)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        i = rng.randrange(len(blocks))
        if kind == 0:  # drop a block
            out.append(blocks[:i] + blocks[i + 1:])
        elif kind == 1:  # duplicate a block
            out.append(blocks + [blocks[i]])
        elif kind == 2 and not set(points) <= set(blocks[i]):
            # overwrite one coordinate with an outside point
            blk = list(blocks[i])
            j = rng.randrange(4)
            p = rng.choice(points)
            if p in blk:
                continue
            blk[j] = p
            out.append(blocks[:i] + [tuple(blk)] + blocks[i + 1:])
        else:  # transpose the first two coordinates only; kind 2 without an outside point
            a, b, c, e = blocks[i]
            out.append(blocks[:i] + [(b, a, c, e)] + blocks[i + 1:])
    return out


def test_mutations_flagged_by_both_checkers():
    # every block of S/1^4 holds every point, so none has an outside point
    for key in ("A1/3^8 1^1", "S/1^4"):
        d = catalog_get(key).design()
        for k, blocks in enumerate(_mutants(d, seed=20260819, count=20)):
            bad = Design(d.holes, blocks)
            assert not verify_design(bad).ok, f"{key} mutant {k} slipped past the design check"
            assert not check_frame(bad)[0], f"{key} mutant {k} slipped past the frame check"


def test_transpose_involution():
    d = catalog_get("S/1^8").design()
    q = design_to_quasigroup(d)
    t = _transpose(_transpose(q))
    for x in d.points:
        for y in d.points:
            assert t[(x, y)] == q[(x, y)]


# --- the frame check's reports, frozen -----------------------------------------
#
# check_frame certifies on a flat product table and explains a failure from
# the same table.  The digests below freeze every (ok, errors) of both
# checkers on the damage sets; they were recorded when check_frame still
# wrote its messages in a second, cell-by-cell walk, so they pin that walk's
# messages and their order.  verify_design must reach the same verdict.

def test_table_agrees_with_walk_on_catalog_designs():
    s14 = catalog_get("S/1^4").design()
    floated = Design(s14.holes, [(0, 1.0, 2, 3)] + list(s14.blocks[1:]))  # passes at 1.0 == 1
    for d in [e.design() for e in catalog_list() if e.kind != "gdd"] + [floated]:
        assert check_frame(d) == (True, []) and verify_design(d).ok, d


INDEXED_DIGESTS = {
    "verify_design": "ec7417bf3b2619a221ac0e90d9af9980fce8dc0c1441b7425edde9adc1acc904",
    "check_frame": "4290ba0187a4a00fcd024ad2459b9108faed8a2c2cb17b7ac0d7afc0ed8ae239",
}


def test_table_agrees_with_walk_on_indexed_points():
    # points 5p + 3 are not 0..P-1, so the table goes through a point index
    d = catalog_get("A1/3^8 1^1").design()
    moved = Design(
        [[5 * p + 3 for p in hole] for hole in d.holes],
        [tuple(5 * p + 3 for p in blk) for blk in d.blocks],
    )
    assert moved.points != tuple(range(len(moved.points)))
    assert check_frame(moved) == (True, [])
    damaged = [Design(moved.holes, blocks) for blocks in _damaged(moved, random.Random(7)).values()]
    assert not any(check_frame(bad).ok for bad in damaged)
    assert_reports_frozen(damaged, INDEXED_DIGESTS)


def test_table_agrees_with_walk_on_constructions():
    tripled = multiply(catalog_get("Ex2.1").design(), 3)
    filled = fill_holes_a(
        catalog_get("C1/9^4 1^1").design(), 3, catalog_get("S/3^4").design(), keep_size=1
    )
    for d in (tripled, filled):
        assert check_frame(d) == (True, []) and verify_design(d).ok


DAMAGE = ("drop", "duplicate", "drop_and_duplicate", "swap_first_two", "into_own_hole", "unknown_point")


def _damage(d, kind, rng):
    """The block list of d with one kind of damage done at random places."""
    blocks = list(d.blocks)
    i = rng.randrange(len(blocks))
    if kind == "drop":
        return blocks[:i] + blocks[i + 1:]
    if kind == "duplicate":
        return blocks + [blocks[i]]
    if kind == "drop_and_duplicate":  # the block count stays right
        j = rng.choice([j for j in range(len(blocks)) if j != i])
        return blocks[:i] + blocks[i + 1:] + [blocks[j]]
    blk = list(blocks[i])
    if kind == "swap_first_two":
        blk[0], blk[1] = blk[1], blk[0]
    elif kind == "into_own_hole":  # one entry moves into the hole of another
        j, k = rng.sample(range(4), 2)
        hole = d.holes[d.structure.hole_of(blk[k])]
        blk[j] = rng.choice(hole)
    else:
        blk[rng.randrange(4)] = max(d.points) + 1 + rng.randrange(5)
    return blocks[:i] + [tuple(blk)] + blocks[i + 1:]


def _damaged(d, rng):
    return {kind: _damage(d, kind, rng) for kind in DAMAGE}


DAMAGE_DIGESTS = {
    "verify_design": "0aec9e7f19ce415e694757564b8913384331906991b83bd6e4cee7305d2e6efa",
    "check_frame": "86bd8260f551f035b4876945d6105822d5f3a141c9fdfbdaf2a3a41801a4e043",
}


def test_table_agrees_with_walk_on_damage():
    rng = random.Random(20261018)
    damaged = []
    for key in ["Ex2.1", "A1/3^8 1^1", "S/1^8", "C1/9^4 4^1"]:
        d = catalog_get(key).design()
        for _ in range(3):
            damaged += [Design(d.holes, blocks) for blocks in _damaged(d, rng).values()]
    # a block that defines one cell twice, or a cell inside a hole, and a
    # block written three times
    s14 = catalog_get("S/1^4").design()
    for first in [(0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 2)]:
        damaged.append(Design(s14.holes, [first, *s14.blocks[1:]]))
    damaged.append(Design(s14.holes, s14.blocks * 3))
    assert not any(check_frame(bad).ok for bad in damaged)
    assert all(check_frame(bad).errors for bad in damaged)
    assert_reports_frozen(damaged, DAMAGE_DIGESTS)


@given(
    st.sampled_from(["Ex2.1", "S/1^8", "A1/3^8 1^1"]),
    st.sampled_from(DAMAGE),
    st.integers(0, 2**32),
)
def test_table_agrees_with_walk_on_damage_property(key, kind, seed):
    d = catalog_get(key).design()
    bad = Design(d.holes, _damage(d, kind, random.Random(seed)))
    assert not check_frame(bad).ok and not verify_design(bad).ok


def test_frame_check_stays_independent_of_the_design_verifier():
    # verify_design reads the blocks as pair coverage, check_frame as a
    # product table; if the second borrowed from the first, their agreement
    # would certify nothing
    forbidden = {"verify_design", "block_pairs"}
    tree = ast.parse(Path(hsd.quasigroup.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & forbidden


# --- the frame check against the total-quasigroup oracles ------------------------
#
# On unit holes a design is a frame exactly when its total table, diagonal
# included, is an idempotent Schroder quasigroup: a Latin square that
# satisfies (x*y)*(y*x) = x.  The total side runs only the oracles in
# tests/oracles.py, so it shares no code with check_frame.

def _is_schroder_quasigroup(d):
    """The total side's verdict; a table the conversion refuses fails."""
    try:
        q = design_to_quasigroup(d)
    except ValueError:
        return False
    rows = [[q[(x, y)] for y in d.points] for x in d.points]
    return is_latin_square(rows) and check_schroder(q).ok


def test_frame_check_agrees_with_the_total_quasigroup_on_unit_holes():
    rng = random.Random(20261020)
    for key in ("S/1^4", "S/1^8", "S/1^12"):
        d = catalog_get(key).design()
        assert check_frame(d).ok and _is_schroder_quasigroup(d), key
        for _ in range(5):
            for kind, blocks in _damaged(d, rng).items():
                bad = Design(d.holes, blocks)
                verdicts = check_frame(bad).ok, _is_schroder_quasigroup(bad)
                assert verdicts == (False, False), (key, kind)


def test_the_identity_alone_misses_a_swapped_block():
    # (a, b, c, d) -> (b, a, c, d) keeps (x*y)*(y*x) = x on all four cells it
    # touches, but row a then holds d twice: only the Latin check sees it
    d = catalog_get("S/1^8").design()
    bad = Design(d.holes, _damage(d, "swap_first_two", random.Random(1)))
    q = design_to_quasigroup(bad)
    assert check_schroder(q).ok
    assert not _is_schroder_quasigroup(bad) and not check_frame(bad).ok
