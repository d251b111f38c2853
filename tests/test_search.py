"""Exact-cover engine and the four search entry points."""

import hashlib
import random

import pytest

from hsd.catalog import catalog_get
from hsd.core import Design, expected_block_count, parse_type, verify_design
from hsd.development import develop
from hsd.files import serialize_design, serialize_starter
from hsd.search import (
    FOUND,
    NONE,
    TIMEOUT,
    Budget,
    ExactCover,
    _candidates,
    _holes_for,
    search_climb,
    search_direct,
    search_orbits,
    search_starters,
)


def test_budget_counts_nodes():
    b = Budget(node_limit=3)
    ticks = [b.tick() for _ in range(5)]
    assert ticks[:3] == [True, True, True]
    assert not ticks[3] and not ticks[4]
    assert b.nodes == 5


def test_exact_cover_finds_a_partition():
    # items 0..3, rows chosen so only one exact cover exists
    rows = [(0, 1), (2,), (3,), (0, 2), (1, 2, 3)]
    status, chosen = ExactCover(4, rows).solve()
    assert status == FOUND
    assert sorted(i for r in chosen for i in rows[r]) == [0, 1, 2, 3]


def test_exact_cover_reports_exhaustion():
    status, chosen = ExactCover(3, [(0, 1), (1, 2)]).solve()
    assert status == NONE and chosen is None


def test_exact_cover_respects_budget():
    rows = [(i,) for i in range(6)] + [(i, (i + 1) % 6) for i in range(6)]
    status, _ = ExactCover(6, rows).solve(budget=Budget(node_limit=1))
    assert status == TIMEOUT


def test_search_direct_finds_small_designs():
    for text in ["1^4", "3^4"]:
        t = parse_type(text)
        res = search_direct(t)
        assert res and res.status == FOUND
        assert res.design.type == t
        assert len(res.design.blocks) == expected_block_count(t)
        assert verify_design(res.design).ok
        assert res.nodes > 0


def test_search_direct_is_deterministic_per_seed():
    t = parse_type("3^4")
    r1 = search_direct(t, seed=5)
    r2 = search_direct(t, seed=5)
    assert r1.design.blocks == r2.design.blocks


def test_search_direct_certifies_absence():
    # both spaces are small enough to sweep completely in well under a second
    for text in ["1^5", "1^4 2^1", "2^4"]:
        res = search_direct(parse_type(text))
        assert res.status == NONE, text
        assert res.design is None
        assert res.nodes > 0


def test_search_direct_times_out_on_tiny_budget():
    res = search_direct(parse_type("3^4 1^1"), node_limit=5)
    assert res.status == TIMEOUT
    assert not res


def test_search_starters_finds_and_refuses():
    res = search_starters(5, 0)
    assert res.status == FOUND
    ss = res.starter_set
    assert ss.step == 1 and ss.type == parse_type("3^5")
    d = develop(ss)
    assert verify_design(d).ok and len(d.blocks) == 45

    # for four short holes the middle difference class cannot be covered
    # exactly once by full orbits, so the census-driven search exhausts fast
    res = search_starters(4, 0)
    assert res.status == NONE


def test_search_orbits_handles_short_orbits():
    res = search_orbits(4, 1, step=6)
    assert res.status == FOUND
    ss = res.starter_set
    assert ss.step == 6
    d = develop(ss)
    assert d.type == parse_type("3^4 1^1")
    assert len(d.blocks) == expected_block_count(d.type) == 33
    assert verify_design(d).ok


def test_search_climb_finds_unit_hole_design():
    res = search_climb(parse_type("1^4"), seed=0, time_limit=10)
    assert res.status == FOUND
    assert verify_design(res.design).ok


def test_search_climb_never_claims_absence():
    # no design of this type exists; the climber can only time out
    res = search_climb(parse_type("1^5"), seed=0, time_limit=0.3)
    assert res.status == TIMEOUT


def test_search_result_truthiness():
    assert bool(search_direct(parse_type("1^4")))
    assert not bool(search_direct(parse_type("1^5")))


# (search, type or (n, u) or (n, u, step), seed, limit) -> (status, nodes,
# sha256 of the serialized design, or of the serialized starter set for
# "starters"); limit is node_limit, or iter_limit for climb.  A change to
# the candidate builder or the exact-cover engine must reproduce every row,
# so that seeds named in recipes and catalog notes still replay.
FROZEN_SEARCHES = {
    ("direct", "1^4", 0, None): (FOUND, 3, "2b4b046adb07fb0bd1c4eae639e1d0f75f9cd8c439e3a364333e7f94425ed720"),
    ("direct", "3^4", 5, None): (FOUND, 29, "46ad2ade3acaa0cac509c60ccd3844c5a6bfa49503711c756dc82c0b797dc39a"),
    ("direct", "1^5", 0, None): (NONE, 43, None),
    ("direct", "1^4 2^1", 0, None): (NONE, 159, None),
    ("direct", "2^4", 0, None): (NONE, 633, None),
    ("direct", "2^3 1^1", 0, None): (NONE, 49, None),
    ("direct", "2^5", 0, None): (FOUND, 528, "9fc77603a73d21015e06bc4454c08f30153045bf02ba6945afe15e102dc5db65"),
    ("direct", "3^4 1^1", 0, 5): (TIMEOUT, 6, None),
    ("orbits", (4, 1, 6), 0, None): (FOUND, 87, "04a687f7539c3292c7fbf25140fffcb1017c2b390b46a0eef97bc9d09ae73371"),
    ("orbits", (4, 4, 4), 0, None): (FOUND, 218, "e05c97fc561727847b2367fab123ba9f31cff3c53dfff6210205be22fd9c41d3"),
    ("starters", (5, 2), 0, None): (FOUND, 4, "bc8eaa1b942066be597178f9c9dc177b863b046538b05d1c479fb5d192257f98"),
    ("climb", "1^4", 0, 3000): (FOUND, 3, "2b4b046adb07fb0bd1c4eae639e1d0f75f9cd8c439e3a364333e7f94425ed720"),
    ("climb", "1^5", 0, 3000): (TIMEOUT, 3001, None),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SEARCHES, key=repr), ids=repr)
def test_searches_match_frozen_results(case):
    kind, arg, seed, limit = case
    if kind == "direct":
        res = search_direct(parse_type(arg), seed=seed, node_limit=limit)
    elif kind == "orbits":
        n, u, step = arg
        res = search_orbits(n, u, step=step, seed=seed, node_limit=limit)
    elif kind == "starters":
        res = search_starters(*arg, seed=seed, node_limit=limit)
    else:
        res = search_climb(parse_type(arg), seed=seed, iter_limit=limit)
    if kind == "starters":
        found, serialize = res.starter_set, serialize_starter
    else:
        found, serialize = res.design, serialize_design
    digest = None if found is None else hashlib.sha256(serialize(found).encode()).hexdigest()
    assert (res.status, res.nodes, digest) == FROZEN_SEARCHES[case]


@pytest.mark.parametrize("text", ["1^4", "1^8", "3^4"])
def test_derived_direct_entries_replay_their_oracle(text):
    # the catalog note names search_direct's candidates solved in mrv order
    entry = catalog_get("S/" + text)
    assert entry.note.startswith(f"search_direct('{text}', seed=0) candidates")
    holes = _holes_for(parse_type(text))
    item_id, blocks, items = _candidates(holes)
    status, picked = ExactCover(len(item_id), items).solve(random.Random(0), order="mrv")
    assert status == FOUND
    assert Design(holes, [blocks[ci] for ci in picked]).blocks == entry.design().blocks
