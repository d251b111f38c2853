"""Test oracles: the total-quasigroup and Latin-square views.

The package states HSD <=> frame idempotent Schroder quasigroup once, as
`design_to_frame` and `check_frame`.  The functions here check the same
equivalence from the total side, so only tests run them.

A Schroder quasigroup satisfies (x*y)*(y*x) = x.  An idempotent model of
order v is the same thing as a design of type 1^v: the block (a, b, c, d)
encodes a*b = c, b*a = d, c*d = a, d*c = b, and the identity makes the
four equations consistent.  A quasigroup is its product table, a plain
dict {(x, y): x*y}, and its identity checks return `VerificationReport`.
Latin squares are plain row lists, as `algebra.mols` builds them.

`assert_reports_frozen` holds the package's two checkers to each other
and to digests of what they said about a list of designs.

`reference_search_climb` is `search_climb` with redundant state: beside
`owner` and `missing` it keeps the placed set, a budget flag and a seen
set for the repair's candidates, and it re-checks ownership that the
climb's invariant already settles.  The search tests hold the two to
equal results and equal repair sub-problems.
"""

import hashlib
import random

from hsd.core import (Design, Diagnostics, TypeSpec, VerificationReport, canonical_block,
                      verify_design)
from hsd.quasigroup import check_frame, design_to_frame
from hsd.search import FOUND, TIMEOUT, Budget, ExactCover, SearchResult, _candidates, _holes_for


def check_schroder(table: dict) -> VerificationReport:
    """Does (x*y)*(y*x) = x hold for every product in the table?"""
    errors = Diagnostics()
    for x, y in sorted(table):
        if table.get((table[(x, y)], table.get((y, x)))) != x:
            errors.note(f"identity fails at ({x!r}, {y!r})")
    return VerificationReport(not errors, errors)


def check_weisner_pair(l1: dict, l2: dict) -> VerificationReport:
    """Check the pairing condition linking two squares on the same cells.

    Whenever l1(x, y) = z and l2(x, y) = w, it must follow that
    l1(z, w) = x and l2(z, w) = y.  With l2 the transpose of l1 this is
    equivalent to l1 being Schroder.
    """
    errors = Diagnostics()
    for x, y in sorted(l1.keys() | l2.keys()):
        zw = l1.get((x, y)), l2.get((x, y))
        if l1.get(zw) != x or l2.get(zw) != y:
            errors.note(f"identity fails at ({x!r}, {y!r})")
    return VerificationReport(not errors, errors)


def design_to_quasigroup(design: Design) -> dict:
    """Idempotent Schroder quasigroup from a design with all holes size 1."""
    if any(len(h) != 1 for h in design.holes):
        raise ValueError(f"type {design.type} has holes larger than 1")
    # a block that repeats a point defines its diagonal cell twice, so
    # design_to_frame already refuses it
    table = design_to_frame(design)
    table.update({(p, p): p for p in design.points})
    if len(table) != len(design.points) ** 2:
        raise ValueError("block list does not define a total operation")
    return table


def quasigroup_to_design(table: dict) -> Design:
    """Inverse of design_to_quasigroup.  Requires an idempotent model."""
    elements = sorted({p for cell, z in table.items() for p in (*cell, z)})
    if len(table) != len(elements) ** 2:
        raise ValueError("operation is partial")
    if any(table[(x, x)] != x for x in elements):
        raise ValueError("only idempotent models correspond to size-1 holes")
    blocks = {canonical_block((x, y, z, table[(y, x)]))
              for (x, y), z in table.items() if x != y}
    return Design([[p] for p in elements], blocks)


def is_latin_square(rows) -> bool:
    n = len(rows)
    want = set(range(n))
    for i in range(n):
        if set(rows[i]) != want:
            return False
        if {rows[j][i] for j in range(n)} != want:
            return False
    return True


def check_orthogonal(a, b) -> bool:
    n = len(a)
    seen = {(a[i][j], b[i][j]) for i in range(n) for j in range(n)}
    return len(seen) == n * n


def assert_reports_frozen(designs, digests: dict) -> None:
    """`verify_design` and `check_frame` reach the same verdict on every
    design, and the sha256 of every `(ok, errors)` each returns, one per
    line, is the one in `digests`, keyed by the checker's name."""
    for d in designs:
        assert verify_design(d).ok == check_frame(d).ok, d.blocks
    got = {}
    for check in (verify_design, check_frame):
        text = "\n".join(repr((rep.ok, list(rep.errors))) for rep in map(check, designs))
        got[check.__name__] = hashlib.sha256(text.encode()).hexdigest()
    assert got == digests


def reference_search_climb(t: TypeSpec, seed: int = 0, *, node_limit: int) -> SearchResult:
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
