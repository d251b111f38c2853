"""Exact-cover engine and the four search entry points."""

import ast
import hashlib
import os
import random
import re

import pytest
from hypothesis import given, strategies as st

from hsd import search
from hsd.catalog import catalog_get, catalog_list
from hsd.core import Design, expected_block_count, parse_type, verify_design
from hsd.development import StarterSet, develop
from hsd.files import serialize_design, serialize_starter
from hsd.search import (
    FOUND,
    NONE,
    TIMEOUT,
    Budget,
    ExactCover,
    _candidates,
    _class_rep,
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


def _instance(seed):
    """A small seeded exact-cover instance; even seeds hide a cover."""
    rng = random.Random(seed)
    n_items = rng.randint(6, 12)
    n_cands = rng.randint(12, 20)
    cands = []
    if seed % 2 == 0:
        items = list(range(n_items))
        rng.shuffle(items)
        while items:
            k = rng.randint(1, 3)
            cands.append(tuple(sorted(items[:k])))
            items = items[k:]
    while len(cands) < n_cands:
        cands.append(tuple(sorted(rng.sample(range(n_items), rng.randint(1, 3)))))
    rng.shuffle(cands)
    return n_items, cands


def _solve(n_items, cands, seed, order):
    budget = Budget()
    status, chosen = ExactCover(n_items, cands).solve(random.Random(seed), budget, order)
    return status, budget.nodes, None if chosen is None else tuple(chosen)


# seed of `_instance` -> (status, nodes, chosen) in order "lex", then "mrv",
# solved with random.Random(seed).  These pin the branching rule in the
# `ExactCover` docstring: which item is chosen, the order of its options
# and where the node count ticks.
FROZEN_INSTANCES = {
    0: ((FOUND, 7, (0, 6, 16, 5, 15)), (FOUND, 5, (0, 15, 6, 16, 5))),
    1: ((FOUND, 6, (2, 3, 6, 8, 9, 11)), (FOUND, 5, (3, 10, 9, 6, 12))),
    2: ((FOUND, 8, (3, 6, 2, 0, 10)), (FOUND, 5, (6, 2, 0, 3, 11))),
    3: ((FOUND, 5, (7, 12, 5, 10, 9)), (FOUND, 5, (7, 8, 13, 2, 6))),
    4: ((FOUND, 6, (13, 5, 10, 0)), (FOUND, 4, (10, 9, 4, 14))),
    5: ((NONE, 1, None), (NONE, 1, None)),
    6: ((FOUND, 8, (6, 1, 11, 2, 10, 3)), (FOUND, 6, (11, 3, 6, 1, 2, 10))),
    7: ((NONE, 1, None), (NONE, 1, None)),
    8: ((FOUND, 4, (10, 3, 8, 12)), (FOUND, 8, (7, 6, 11, 8, 4))),
    9: ((FOUND, 12, (14, 4, 15, 9)), (FOUND, 6, (15, 14, 9, 4))),
    10: ((FOUND, 7, (11, 4, 0, 2, 6, 10)), (FOUND, 5, (11, 0, 4, 6, 3))),
    11: ((FOUND, 8, (7, 15, 9, 8)), (FOUND, 5, (2, 5, 18, 6, 17))),
    12: ((FOUND, 13, (7, 4, 10, 3, 0)), (FOUND, 8, (7, 4, 3, 10, 6))),
    13: ((FOUND, 5, (13, 15, 12, 6)), (FOUND, 4, (15, 6, 2, 8))),
    14: ((FOUND, 5, (18, 14, 5, 17, 2)), (FOUND, 3, (19, 4, 10))),
    15: ((NONE, 10, None), (NONE, 2, None)),
    16: ((FOUND, 5, (0, 14, 2)), (FOUND, 5, (17, 18, 3))),
    17: ((FOUND, 6, (6, 3, 9, 16, 15)), (FOUND, 5, (6, 9, 3, 16, 2))),
    18: ((FOUND, 4, (9, 6, 3, 0)), (FOUND, 4, (9, 6, 3, 0))),
    19: ((NONE, 1, None), (NONE, 2, None)),
    20: ((FOUND, 5, (13, 9, 8, 11, 10)), (FOUND, 6, (8, 13, 10, 11, 5, 6))),
    21: ((NONE, 8, None), (NONE, 12, None)),
    22: ((FOUND, 4, (14, 6, 0)), (FOUND, 3, (14, 0, 6))),
    23: ((NONE, 1, None), (NONE, 1, None)),
    24: ((FOUND, 7, (9, 12, 16, 15, 5, 4)), (FOUND, 5, (9, 2, 12, 16, 5))),
    25: ((NONE, 7, None), (NONE, 8, None)),
    26: ((FOUND, 7, (6, 4, 2, 14, 0, 7)), (FOUND, 6, (6, 4, 14, 0, 10, 7))),
    27: ((FOUND, 14, (4, 0, 6, 11, 12, 3)), (FOUND, 6, (11, 6, 12, 0, 3, 4))),
    28: ((FOUND, 4, (5, 10, 1)), (FOUND, 5, (5, 13, 10))),
    29: ((NONE, 1, None), (NONE, 3, None)),
    30: ((FOUND, 7, (5, 12, 3, 15)), (FOUND, 6, (3, 11, 6, 1, 0, 15))),
    31: ((FOUND, 4, (11, 7, 4, 5)), (FOUND, 4, (4, 11, 17, 10))),
    32: ((FOUND, 5, (8, 11, 1, 7)), (FOUND, 3, (14, 5, 10))),
    33: ((NONE, 5, None), (NONE, 4, None)),
    34: ((FOUND, 6, (9, 14, 10, 6, 5, 7)), (FOUND, 6, (5, 0, 6, 16, 2))),
    35: ((FOUND, 9, (14, 2, 16, 3)), (FOUND, 4, (3, 2, 16, 14))),
    36: ((FOUND, 6, (4, 10, 11, 6)), (FOUND, 4, (4, 11, 10, 6))),
    37: ((NONE, 1, None), (NONE, 2, None)),
    38: ((FOUND, 8, (8, 12, 14, 1, 7)), (FOUND, 5, (7, 12, 14, 8, 1))),
    39: ((FOUND, 5, (12, 15, 6, 1)), (FOUND, 4, (12, 15, 1, 6))),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_INSTANCES))
def test_exact_cover_matches_frozen_instances(seed):
    n_items, cands = _instance(seed)
    got = tuple(_solve(n_items, cands, seed, order) for order in ("lex", "mrv"))
    assert got == FROZEN_INSTANCES[seed]


def _has_cover(n_items, cands):
    # every union of pairwise disjoint candidates, as an item mask
    unions = {0}
    for items in cands:
        mask = sum(1 << it for it in items)
        unions |= {u | mask for u in unions if not u & mask}
    return (1 << n_items) - 1 in unions


@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4).map(sorted),
                 max_size=20),
    )),
    st.integers(0, 2**16),
    st.sampled_from(["lex", "mrv"]),
)
def test_exact_cover_agrees_with_brute_force(instance, seed, order):
    n_items, cands = instance
    status, chosen = ExactCover(n_items, cands).solve(random.Random(seed), order=order)
    assert status in (FOUND, NONE)
    assert (status == FOUND) == _has_cover(n_items, cands)
    if status == FOUND:
        covered = sorted(it for ci in chosen for it in cands[ci])
        assert covered == list(range(n_items))


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


@pytest.mark.parametrize("step", [0, 5, 24])
def test_search_orbits_refuses_a_step_that_does_not_divide_the_modulus(step):
    with pytest.raises(ValueError, match="does not divide"):
        search_orbits(4, 1, step=step)


def test_search_climb_finds_unit_hole_design():
    res = search_climb(parse_type("1^4"), seed=0, node_limit=3000)
    assert res.status == FOUND
    assert verify_design(res.design).ok


def test_search_climb_never_claims_absence():
    # no design of this type exists; the climber can only time out
    res = search_climb(parse_type("1^5"), seed=0, node_limit=3000)
    assert res.status == TIMEOUT
    assert res.nodes == 3001


def test_search_climb_requires_a_node_limit():
    # without one, a type with no design (1^5) would climb forever
    with pytest.raises(TypeError):
        search_climb(parse_type("1^5"))
    with pytest.raises(TypeError):
        search_climb(parse_type("1^5"), 0, 3000)  # keyword only


def test_search_result_truthiness():
    assert bool(search_direct(parse_type("1^4")))
    assert not bool(search_direct(parse_type("1^5")))


# (search, type or (n, u, step) for "orbits" or (n, u[, hole_size]) for
# "starters", seed, limit) -> (status, nodes, sha256 of the serialized
# design, or of the serialized starter set for "starters"); limit is
# node_limit.  A change to the candidate builder or
# the exact-cover engine must reproduce every row, so that seeds named in
# recipes and catalog notes still replay.
FROZEN_SEARCHES = {
    ("direct", "1^4", 0, None): (FOUND, 3, "2b4b046adb07fb0bd1c4eae639e1d0f75f9cd8c439e3a364333e7f94425ed720"),
    ("direct", "3^4", 5, None): (FOUND, 29, "46ad2ade3acaa0cac509c60ccd3844c5a6bfa49503711c756dc82c0b797dc39a"),
    ("direct", "1^5", 0, None): (NONE, 43, None),
    ("direct", "1^4 2^1", 0, None): (NONE, 159, None),
    ("direct", "2^4", 0, None): (NONE, 633, None),
    ("direct", "2^3 1^1", 0, None): (NONE, 49, None),
    ("direct", "2^5", 0, None): (FOUND, 528, "9fc77603a73d21015e06bc4454c08f30153045bf02ba6945afe15e102dc5db65"),
    ("direct", "3^4 1^1", 0, 5): (TIMEOUT, 6, None),
    ("direct", "1^6", 0, None): (NONE, 565, None),
    ("direct", "1^5 2^1", 0, None): (FOUND, 81, "c32bfeb8d25d1c4d429c9157797a5a041a996e5215d886ccdb47e9a448f92b82"),
    ("direct", "1^7", 0, None): (NONE, 26681, None),
    ("direct", "1^7 3^1", 0, 50000): (TIMEOUT, 50001, None),
    ("orbits", (4, 1, 6), 0, None): (FOUND, 87, "04a687f7539c3292c7fbf25140fffcb1017c2b390b46a0eef97bc9d09ae73371"),
    ("orbits", (4, 4, 4), 0, None): (FOUND, 218, "e05c97fc561727847b2367fab123ba9f31cff3c53dfff6210205be22fd9c41d3"),
    ("orbits", (4, 0, 4), 0, None): (NONE, 535, None),
    ("orbits", (4, 4, 4), 0, 30): (TIMEOUT, 31, None),
    ("starters", (5, 2), 0, None): (FOUND, 4, "bc8eaa1b942066be597178f9c9dc177b863b046538b05d1c479fb5d192257f98"),
    ("starters", (9, 0, 1), 0, None): (NONE, 25, None),
    ("starters", (9, 2, 1), 0, None): (FOUND, 30, "6bf463f4bea5a610bb88a34274e4dcd1d52d1984ca4c10d06b55e4186758cbea"),
    ("starters", (11, 1, 1), 0, 500): (TIMEOUT, 501, None),
    ("starters", (5, 1, 3), 0, None): (NONE, 0, None),
    ("starters", (7, 3, 3), 1, None): (FOUND, 635, "d3d80fcc0c5a60972c7c027fba586389619a03c66791cdcad72c945098e0e485"),
    ("starters", (9, 0, 3), 0, 2000): (TIMEOUT, 2001, None),
    ("starters", (4, 0, 4), 0, None): (NONE, 65, None),
    ("starters", (4, 2, 4), 0, None): (FOUND, 238, "7a3df9a5ae7b27056ec5c807804e1cbfedbaee03ee754628d88c9f55253b340c"),
    ("starters", (6, 2, 4), 1, None): (FOUND, 299, "30ce120c38368cda052b65074c77a183bdf732ce09b6e83fecb8cd0a57d41131"),
    ("starters", (5, 0, 4), 0, 2000): (TIMEOUT, 2001, None),
    ("climb", "1^4", 0, 3000): (FOUND, 3, "2b4b046adb07fb0bd1c4eae639e1d0f75f9cd8c439e3a364333e7f94425ed720"),
    ("climb", "1^5", 0, 3000): (TIMEOUT, 3001, None),
    # 40,000 climb steps, one exact-cover repair, then the budget runs out
    ("climb", "1^5", 0, 41_000): (TIMEOUT, 41001, None),
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
        res = search_climb(parse_type(arg), seed=seed, node_limit=limit)
    if kind == "starters":
        found, serialize = res.starter_set, serialize_starter
    elif kind == "orbits":
        # the digests were recorded when search_orbits also returned the design
        found = None if res.starter_set is None else develop(res.starter_set)
        serialize = serialize_design
    else:
        found, serialize = res.design, serialize_design
    digest = None if found is None else hashlib.sha256(serialize(found).encode()).hexdigest()
    assert (res.status, res.nodes, digest) == FROZEN_SEARCHES[case]


def test_equal_calls_return_equal_results():
    # a result holds no clock reading, so a repeated call compares equal
    for search_once in (lambda: search_direct(parse_type("1^5 2^1")),
                        lambda: search_orbits(4, 1, step=6),
                        lambda: search_starters(5, 2),
                        lambda: search_climb(parse_type("1^4"), node_limit=3000)):
        first = search_once()
        assert first and search_once() == first


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


def _reference_search_starters(n, u, hole_size=3, seed=0, node_limit=None):
    """The set-based `search_starters` that removes covered classes from
    shared sets and adds them back on backtracking; returns (status,
    nodes, starter set or None)."""
    g = hole_size * n
    same = {(j * n) % g for j in range(1, hole_size)}
    if g % 2 == 0 and (g // 2) not in same:
        return NONE, 0, None
    reps = [d for d in range(1, g // 2 + 1) if d not in same and d != g - d]
    unc = {c: set(reps) for c in (1, 2, 3)}
    budget = Budget(node_limit)
    rng = random.Random(seed)
    chosen = []

    def descend(labels_left):
        k1 = len(unc[1])
        if k1 == 0:
            return FOUND if labels_left == 0 else NONE
        if labels_left > k1 or (k1 - labels_left) % 2:
            return NONE
        if not budget.tick():
            return TIMEOUT
        d_star = min(unc[1])
        cands = []
        if labels_left:
            for p2 in (d_star, g - d_star):
                for p4 in range(g):
                    if p4 == 0 or p4 == p2:
                        continue
                    r2, r3 = _class_rep(p4 - p2, g), _class_rep(p4, g)
                    if r2 in unc[2] and r3 in unc[3]:
                        cands.append((p2, None, p4, (d_star,), (r2,), (r3,)))
        for p3 in range(g):
            if p3 == 0 or p3 == d_star:
                continue
            r2a = _class_rep(p3, g)
            if r2a not in unc[2]:
                continue
            r3b = _class_rep(p3 - d_star, g)
            if r3b not in unc[3]:
                continue
            for p4 in range(g):
                if p4 == 0 or p4 == d_star or p4 == p3:
                    continue
                r1b = _class_rep(p4 - p3, g)
                if r1b == d_star or r1b not in unc[1]:
                    continue
                r2b = _class_rep(p4 - d_star, g)
                if r2b == r2a or r2b not in unc[2]:
                    continue
                r3a = _class_rep(p4, g)
                if r3a == r3b or r3a not in unc[3]:
                    continue
                cands.append((d_star, p3, p4, (d_star, r1b), (r2a, r2b), (r3b, r3a)))
        rng.shuffle(cands)
        saw_timeout = False
        for p2, p3, p4, *classes in cands:
            for c, rs in zip((1, 2, 3), classes):
                unc[c].difference_update(rs)
            if p3 is None:
                chosen.append((0, p2, g + u - labels_left, p4))
                status = descend(labels_left - 1)
            else:
                chosen.append((0, p2, p3, p4))
                status = descend(labels_left)
            if status == FOUND:
                return FOUND
            chosen.pop()
            for c, rs in zip((1, 2, 3), classes):
                unc[c].update(rs)
            if status == TIMEOUT:
                saw_timeout = True
                break
        return TIMEOUT if saw_timeout else NONE

    status = descend(u)
    ss = None
    if status == FOUND:
        ss = StarterSet(modulus=g, hole_size=hole_size, step=1, u=u, starters=tuple(chosen))
    return status, budget.nodes, ss


def test_search_starters_matches_the_set_based_reference():
    # 288 cases: every status, both label branches, four hole sizes
    statuses = set()
    for h in range(1, 5):
        for n in range(4, 10):
            for u in range(6):
                for seed in (0, 1):
                    res = search_starters(n, u, hole_size=h, seed=seed, node_limit=400)
                    want = _reference_search_starters(n, u, h, seed, 400)
                    assert (res.status, res.nodes, res.starter_set) == want, (h, n, u, seed)
                    statuses.add(res.status)
    assert statuses == {FOUND, NONE, TIMEOUT}


_ORACLE_CALL = re.compile(r"\b(search_starters|search_orbits|search_climb)\([^)]*\)")
# replays that take more than a second (S/3^13 about a minute)
_SLOW_ORACLES = {"C2/9^5 2^1", "S/1^8 3^1", "S/3^13", "S/3^4 2^1", "S/3^8", "S/3^8 6^1"}


def _oracle_entries():
    out = []
    for e in catalog_list(status="derived"):
        if _ORACLE_CALL.search(e.note):
            slow = pytest.mark.skipif(
                e.id in _SLOW_ORACLES and not os.environ.get("HSD_LARGE"),
                reason="slow replay; set HSD_LARGE=1 to include it",
            )
            out.append(pytest.param(e, id=e.id, marks=slow))
    return out


@pytest.mark.parametrize("entry", _oracle_entries())
def test_derived_entries_replay_their_oracle(entry):
    # the note names the search call that generated the entry; run it again
    call = ast.parse(_ORACLE_CALL.search(entry.note).group(0), mode="eval").body
    args = [ast.literal_eval(a) for a in call.args]
    kwargs = {k.arg: ast.literal_eval(k.value) for k in call.keywords}
    if call.func.id == "search_climb":
        res = search_climb(parse_type(args[0]), **kwargs)
        assert res.status == FOUND
        assert res.design.blocks == entry.design().blocks
    else:
        res = getattr(search, call.func.id)(*args, **kwargs)
        assert res.status == FOUND
        assert res.starter_set == entry.load()
