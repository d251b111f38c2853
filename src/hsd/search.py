"""Backtracking searches: whole designs and starter sets.

`search_direct` is an exact-cover search over canonical candidate blocks:
items are (cross pair, color) slots, every slot must be covered exactly
once.  It is exhaustive, so status "none" is a nonexistence certificate;
"timeout" means the node budget ran out and says nothing.  Every search
is bounded by its node count alone and nothing here reads the clock, so
the same call returns an equal `SearchResult` on any machine.

`search_starters` works over Z_g at step 1 and tracks signed difference
classes per color instead of pairs, which cuts the state down by a factor
of g.  Representatives are normalized (first entry 0, branch class in the
second slot, labels in the third), so each orbit class is tried once.

Both exact searches, `ExactCover` and `search_starters`, hand their whole
state down the recursion as ints and fill in the answer on the way back
up, so backtracking has nothing to undo.

`search_orbits` is the step-k cousin: exact cover whose candidates are
whole shift orbits, for types whose modulus rules step 1 out.  Both only
reach shift-invariant designs.  `search_climb` drops completeness
altogether and hill-climbs with exact-cover repair; it is the tool of last
resort for small types that exist but carry no usable symmetry.

Nothing here consults feasibility or the catalog; callers that want the
cheap answer first should ask those directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Optional

from hsd.core import COLORS, Design, TypeSpec, block_pairs, pair
from hsd.development import StarterSet, orbit

FOUND = "found"
NONE = "none"
TIMEOUT = "timeout"


@dataclass
class SearchResult:
    """A search's status and node count, with the design (`search_direct`,
    `search_climb`) or the starter set (`search_starters`, `search_orbits`)
    it found."""

    status: str
    design: Optional[Design] = None
    starter_set: Optional[StarterSet] = None
    nodes: int = 0

    def __bool__(self):
        return self.status == FOUND


class Budget:
    """Node count and optional node limit, shared by all searches; the
    limit is the only way a search stops early."""

    def __init__(self, node_limit=None):
        self.node_limit = node_limit
        self.nodes = 0

    def tick(self) -> bool:
        """Count a node; True means keep going."""
        self.nodes += 1
        return self.node_limit is None or self.nodes <= self.node_limit


class ExactCover:
    """Cover every item exactly once using the given candidate item-sets.

    Bitset Algorithm X (Knuth, TAOCP 7.2.2.1) on Python ints.  A candidate
    is live while it shares no item with a placed one, so the whole search
    state is two ints handed down the recursion, the open items and the
    live candidates, and backtracking has nothing to undo.

    The branching rule is fixed, because frozen search results and
    catalog notes replay through it.  At each node: return "found" when no
    item is open, then count the node with `budget.tick()`.  Scan the open
    items in ascending order; an item's count is its number of live
    candidates, and a count of 0 returns "none".  Order "lex" branches on
    the first open item (still scanning all of them for a 0), "mrv" on the
    first item of least count, stopping the scan at a count of 1.  The
    options are that item's live candidates in ascending index, shuffled
    by `rng` when one is given.  The first "timeout" below ends the node.
    """

    def __init__(self, n_items: int, cand_items: list):
        self.cand_items = cand_items
        self.item_mask = [0] * n_items  # bit ci set when candidate ci covers the item
        for ci, items in enumerate(cand_items):
            for it in items:
                self.item_mask[it] |= 1 << ci

    def solve(self, rng=None, budget: Optional[Budget] = None, order: str = "mrv"):
        """Returns (status, list of candidate indices or None).

        order "mrv" picks the scarcest open item, "lex" the lowest
        numbered one; lex plus shuffled candidates behaves better on the
        denser design searches, mrv on thin ones.
        """
        budget = budget or Budget()
        cand_items, item_mask = self.cand_items, self.item_mask
        use_mrv = order == "mrv"
        chosen: list = []  # filled from the leaf up once a cover is found

        def descend(open_items, live):
            if not open_items:
                return FOUND
            if not budget.tick():
                return TIMEOUT
            best, best_count = -1, None
            rest = open_items
            while rest:
                low = rest & -rest
                rest ^= low
                it = low.bit_length() - 1
                c = (live & item_mask[it]).bit_count()
                if c == 0:
                    return NONE
                if best_count is None or (use_mrv and c < best_count):
                    best, best_count = it, c
                    if use_mrv and c == 1:
                        break
            options = []
            rest = live & item_mask[best]
            while rest:
                low = rest & -rest
                rest ^= low
                options.append(low.bit_length() - 1)
            if rng is not None:
                rng.shuffle(options)
            for ci in options:
                cover = clash = 0
                for it in cand_items[ci]:
                    cover |= 1 << it
                    clash |= item_mask[it]
                status = descend(open_items & ~cover, live & ~clash)
                if status == FOUND:
                    chosen.append(ci)
                    return FOUND
                if status == TIMEOUT:
                    return TIMEOUT
            return NONE

        status = descend((1 << len(item_mask)) - 1, (1 << len(cand_items)) - 1)
        return status, (chosen[::-1] if status == FOUND else None)


def _holes_for(t: TypeSpec) -> list:
    holes, next_pt = [], 0
    for size in t.sizes():
        holes.append(list(range(next_pt, next_pt + size)))
        next_pt += size
    return holes


def _candidates(holes: list):
    """Exact-cover input shared by the block-level searches.

    Returns (item_id, blocks, items): item_id numbers every (cross pair,
    color) slot, and each candidate block, on four distinct holes with its
    least point first in each of the six orders of the other three, comes
    with the item numbers it covers.  Points are taken in increasing order.
    """
    hole_of = {p: hi for hi, hole in enumerate(holes) for p in hole}
    points = sorted(hole_of)

    item_id = {}
    for p, q in combinations(points, 2):
        if hole_of[p] != hole_of[q]:
            for c in COLORS:
                item_id[(pair(p, q), c)] = len(item_id)

    blocks, items = [], []
    for quad in combinations(points, 4):
        if len({hole_of[p] for p in quad}) != 4:
            continue
        for rest in permutations(quad[1:]):
            blk = quad[:1] + rest
            blocks.append(blk)
            items.append(tuple(item_id[k] for k in block_pairs(blk)))
    return item_id, blocks, items


def search_direct(t: TypeSpec, seed: int = 0, node_limit=None) -> SearchResult:
    """Exhaustive exact-cover search for a design of the given type.

    Meant for small types (say up to ~20 points); the candidate list grows
    like points^4.  "none" is only returned when the space was fully
    exhausted within budget.
    """
    holes = _holes_for(t)
    item_id, cand_blocks, cand_items = _candidates(holes)
    budget = Budget(node_limit)
    rng = random.Random(seed)
    status, picked = ExactCover(len(item_id), cand_items).solve(rng, budget, "lex")
    design = None
    if status == FOUND:
        design = Design(holes, [cand_blocks[ci] for ci in picked])
    return SearchResult(status, design=design, nodes=budget.nodes)


def search_climb(t: TypeSpec, seed: int = 0, *, node_limit: int) -> SearchResult:
    """Stochastic design finder: min-conflict block insertion with eviction,
    plus exact-cover repair of the residue when the climb plateaus.

    Finds designs that stall the exhaustive search, but can never prove
    nonexistence: the only statuses are "found" and "timeout".  The nodes
    counted against `node_limit` are climb steps; each repair runs its own
    exact cover of at most 30,000 nodes, which the count leaves out.  The
    limit is required: a type with no design would keep the climb going
    forever.
    """
    holes = _holes_for(t)
    item_id, cand_blocks, cand_items = _candidates(holes)
    n_items = len(item_id)
    by_item = [[] for _ in range(n_items)]
    for ci, items in enumerate(cand_items):
        for it in items:
            by_item[it].append(ci)

    rng = random.Random(seed)
    budget = Budget(node_limit)
    owner = [-1] * n_items  # covering candidate per item, -1 if none
    placed: set = set()
    missing = list(range(n_items))
    out_of_budget = False

    def evict(prev):
        placed.discard(prev)
        for kt in cand_items[prev]:
            if owner[kt] == prev:
                owner[kt] = -1
                missing.append(kt)

    def climb(steps):
        # Insert a block on a random missing item, evicting as few placed
        # blocks as possible; ties break at random.  `missing` holds only
        # unowned items here: it is refiltered after every placement and
        # repair, and `evict` adds only items it has just unowned.
        nonlocal missing, out_of_budget
        k = 0
        while missing and k < steps:
            k += 1
            if not budget.tick():
                out_of_budget = True
                return
            it = missing[rng.randrange(len(missing))]
            best, best_evictions = [], None
            for cand in by_item[it]:
                hit = set()
                for jt in cand_items[cand]:
                    prev = owner[jt]
                    if prev != -1:
                        hit.add(prev)
                e = len(hit)
                if best_evictions is None or e < best_evictions:
                    best_evictions, best = e, [cand]
                elif e == best_evictions:
                    best.append(cand)
            ci = best[rng.randrange(len(best))]
            for jt in cand_items[ci]:
                prev = owner[jt]
                if prev != -1 and prev != ci:
                    evict(prev)
            for jt in cand_items[ci]:
                owner[jt] = ci
            placed.add(ci)
            missing = [m for m in missing if owner[m] == -1]

    def repair(node_budget):
        # Drop a few blocks, then ask the exhaustive solver to recover the
        # freed items exactly.  Returns True when everything got covered.
        nonlocal missing
        if placed:
            drop = min(len(placed), 4 + rng.randrange(8))
            for prev in rng.sample(sorted(placed), drop):
                evict(prev)
        missing = [m for m in missing if owner[m] == -1]
        free = sorted(set(missing))
        remap = {it: i for i, it in enumerate(free)}
        free_set = set(free)
        sub_cands, sub_real = [], []
        considered = set()
        for it in free:
            for ci in by_item[it]:
                if ci in considered:
                    continue
                considered.add(ci)
                its = cand_items[ci]
                if all(jt in free_set for jt in its):
                    sub_cands.append(tuple(remap[jt] for jt in its))
                    sub_real.append(ci)
        status, chosen = ExactCover(len(free), sub_cands).solve(
            random.Random(rng.randrange(1 << 30)), Budget(node_budget), "mrv"
        )
        if status == FOUND:
            for sci in chosen:
                real = sub_real[sci]
                for jt in cand_items[real]:
                    owner[jt] = real
                placed.add(real)
            missing = [m for m in missing if owner[m] == -1]
        return not missing

    climb(40000)
    while missing and not out_of_budget:
        if repair(30000):
            break
        climb(2000)

    if missing:
        return SearchResult(TIMEOUT, nodes=budget.nodes)
    design = Design(holes, [cand_blocks[ci] for ci in placed])
    return SearchResult(FOUND, design=design, nodes=budget.nodes)


def search_orbits(
    n: int,
    u: int,
    hole_size: int = 3,
    step: int = 1,
    seed: int = 0,
    node_limit=None,
) -> SearchResult:
    """Exact cover at orbit granularity: candidates are whole orbits of a
    block under x -> x + step (mod hole_size * n), so one decision commits
    orbit-length blocks at once.

    Only designs invariant under the shift are reachable, which is the
    point: the tree is tiny, and small types that grind the block-level
    searches often carry exactly this symmetry.  A "none" here therefore
    says nothing about existence at large.  Short orbits are enumerated
    like any other candidate, so even-modulus types are fine.  A find is
    returned as its starter set, which `develop` turns into the design.
    """
    geometry = StarterSet(modulus=hole_size * n, hole_size=hole_size, step=step, u=u, starters=())
    g = geometry.modulus
    item_id, cand_blocks, _ = _candidates(geometry.holes())
    starters, orbit_items = [], []
    seen = set()
    for blk in cand_blocks:
        orb = orbit(blk, g, step)
        rep = min(orb)
        if rep in seen:
            continue
        seen.add(rep)
        items = [item_id[k] for b in orb for k in block_pairs(b)]
        if len(set(items)) != len(items):
            continue  # the orbit steps on itself
        starters.append(rep)
        orbit_items.append(tuple(items))

    budget = Budget(node_limit)
    rng = random.Random(seed)
    status, picked = ExactCover(len(item_id), orbit_items).solve(rng, budget, "mrv")
    ss = None
    if status == FOUND:
        ss = replace(geometry, starters=tuple(sorted(starters[ci] for ci in picked)))
    return SearchResult(status, starter_set=ss, nodes=budget.nodes)


def _class_rep(d: int, g: int) -> int:
    d %= g
    return min(d, g - d)


def search_starters(
    n: int,
    u: int,
    hole_size: int = 3,
    seed: int = 0,
    node_limit=None,
) -> SearchResult:
    """Backtracking search for a step-1 starter set of type h^n u^1.

    Covers signed difference classes per color.  Normal form per orbit:
    first entry 0, the branched color-1 class in the second slot, labels
    used in a fixed order and only in the third slot.  Exhaustive within
    budget, so "none" certifies that no step-1 starter set exists.

    The state is three ints handed down the recursion, one per color,
    with bit r set while class r of that color is uncovered; the branch
    class is the lowest bit left in color 1.  The first "timeout" below
    ends the node.
    """
    geometry = StarterSet(modulus=hole_size * n, hole_size=hole_size, step=1, u=u, starters=())
    g = geometry.modulus
    same = geometry.same_hole_differences()
    if g % 2 == 0 and (g // 2) not in same:
        # any step-1 slot of difference g/2 covers its pairs twice over
        return SearchResult(NONE)

    reps = [d for d in range(1, g // 2 + 1) if d not in same and d != g - d]
    full = sum(1 << d for d in reps)
    budget = Budget(node_limit)
    rng = random.Random(seed)
    chosen: list = []  # filled from the leaf up once a starter set is found

    def descend(labels_left: int, m1: int, m2: int, m3: int):
        k1 = m1.bit_count()
        if k1 == 0:
            return FOUND if labels_left == 0 else NONE
        if labels_left > k1 or (k1 - labels_left) % 2:
            return NONE
        if not budget.tick():
            return TIMEOUT
        d_star = (m1 & -m1).bit_length() - 1
        cands = []  # (block, labels left below it, class bits it covers per color)
        if labels_left:
            label = g + u - labels_left
            for p2 in (d_star, g - d_star):
                for p4 in range(g):
                    if p4 == 0 or p4 == p2:
                        continue
                    r2, r3 = _class_rep(p4 - p2, g), _class_rep(p4, g)
                    if m2 >> r2 & 1 and m3 >> r3 & 1:
                        cands.append(((0, p2, label, p4), labels_left - 1,
                                      1 << d_star, 1 << r2, 1 << r3))
        for p3 in range(g):
            if p3 == 0 or p3 == d_star:
                continue
            r2a = _class_rep(p3, g)
            if not m2 >> r2a & 1:
                continue
            r3b = _class_rep(p3 - d_star, g)
            if not m3 >> r3b & 1:
                continue
            for p4 in range(g):
                if p4 == 0 or p4 == d_star or p4 == p3:
                    continue
                r1b = _class_rep(p4 - p3, g)
                if r1b == d_star or not m1 >> r1b & 1:
                    continue
                r2b = _class_rep(p4 - d_star, g)
                if r2b == r2a or not m2 >> r2b & 1:
                    continue
                r3a = _class_rep(p4, g)
                if r3a == r3b or not m3 >> r3a & 1:
                    continue
                cands.append(((0, d_star, p3, p4), labels_left, 1 << d_star | 1 << r1b,
                              1 << r2a | 1 << r2b, 1 << r3b | 1 << r3a))
        rng.shuffle(cands)
        for block, left, b1, b2, b3 in cands:
            status = descend(left, m1 & ~b1, m2 & ~b2, m3 & ~b3)
            if status == FOUND:
                chosen.append(block)
            if status != NONE:
                return status
        return NONE

    status = descend(u, full, full, full)
    ss = replace(geometry, starters=tuple(reversed(chosen))) if status == FOUND else None
    return SearchResult(status, starter_set=ss, nodes=budget.nodes)
