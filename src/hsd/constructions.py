"""Recursive constructions: multiply, weighting over a GDD, filling holes.

Each numbers the points of its result as it creates them and builds the
result once; the result carries no labels.  None of them trusts its
inputs blindly: hole arithmetic is checked up front, and the caller is
expected to run verify_design on the output, which the test suite does.
"""

from __future__ import annotations

from collections import Counter

from hsd.algebra import GDD, mols
from hsd.core import Design, TypeSpec


def multiply(design: Design, m: int) -> Design:
    """Blow every point up into m copies using an orthogonal square pair.

    Type h1^n1 h2^n2 ... becomes (m*h1)^n1 (m*h2)^n2 ...; each block turns
    into m^2 blocks.  Any orthogonal pair works, so m = 2 and 6 are
    impossible and other orders 2 (mod 4) are not built here (see mols).
    The copies of the k-th point are m*k .. m*k + m - 1.
    """
    a, b = ([[0]], [[0]]) if m == 1 else mols(m, 2)
    first = {p: m * k for k, p in enumerate(design.points)}
    holes = [[first[p] + i for p in hole for i in range(m)] for hole in design.holes]
    blocks = []
    for (w, x, y, z) in design.blocks:
        w, x, y, z = first[w], first[x], first[y], first[z]
        for i in range(m):
            for j in range(m):
                blocks.append((w + i, x + j, y + a[i][j], z + b[i][j]))
    return Design(holes, blocks)


def weight_inflate(gdd: GDD, weights, supply) -> Design:
    """Weighting construction over a lambda = 1 GDD.

    Each point x becomes weights[x] copies; each GDD block is replaced by
    an ingredient design whose hole type is the multiset of its points'
    nonzero weights.  `supply` is a dict from TypeSpec to such a design;
    `weights` is a dict from points to non-negative integers, a missing
    point weighing 0.  Groups whose weight sums to zero disappear from the
    result.
    """
    if gdd.lam != 1:
        raise ValueError(f"weighting needs lambda = 1, got {gdd.lam}")
    for p in gdd.points:
        if weights.get(p, 0) < 0:
            raise ValueError(f"negative weight on {p!r}")

    # the copies of p are first[p] .. first[p] + weights[p] - 1, numbered group by group
    first, holes, top = {}, [], 0
    for grp in gdd.groups:
        start = top
        for p in grp:
            first[p] = top
            top += weights.get(p, 0)
        if top > start:
            holes.append(list(range(start, top)))

    blocks = []
    for blk in gdd.blocks:
        # stable, so equal weights keep block order; the ingredient's holes ascend by size
        weighted = sorted((p for p in blk if weights.get(p, 0)), key=weights.__getitem__)
        if not weighted:
            continue
        spec = TypeSpec.of(*(weights[p] for p in weighted))
        ingredient = supply[spec]
        if ingredient.type != spec:
            raise ValueError(f"supplied type {ingredient.type}, block needs {spec}")
        mapping = {q: first[p] + i for p, hole in zip(weighted, ingredient.holes)
                   for i, q in enumerate(hole)}
        for ib in ingredient.blocks:
            blocks.append(tuple(mapping[q] for q in ib))
    return Design(holes, blocks)


def _fill(outer: Design, v: int, inner_by_size, keep_size) -> Design:
    top = outer.points[-1] + 1
    fresh = list(range(top, top + v))
    kept = None
    if keep_size is not None:
        for idx, hole in enumerate(outer.holes):
            if len(hole) == keep_size:
                kept = idx
                break
        else:
            raise ValueError(f"no hole of size {keep_size} to keep")

    holes = []
    blocks = [tuple(blk) for blk in outer.blocks]
    long_hole = list(fresh)
    for idx, hole in enumerate(outer.holes):
        if idx == kept:
            long_hole.extend(hole)
            continue
        inner = inner_by_size[len(hole)]
        inner_sizes = Counter(len(h) for h in inner.holes)
        if v and not inner_sizes.get(v):
            raise ValueError(f"inner design {inner.type} lacks a hole of size {v} to share")
        body = len(inner.points) - v
        if body != len(hole):
            raise ValueError(
                f"inner type {inner.type} fills {body} points, hole has {len(hole)}"
            )
        # map the inner's holes onto a partition of this hole, one hole of
        # size v onto the shared fresh points
        mapping = {}
        cursor = 0
        shared_done = False
        for ih in inner.holes:
            if v and not shared_done and len(ih) == v:
                for q, f in zip(ih, fresh):
                    mapping[q] = f
                shared_done = True
                continue
            part = hole[cursor : cursor + len(ih)]
            cursor += len(ih)
            for q, p in zip(ih, part):
                mapping[q] = p
            holes.append(list(part))
        for ib in inner.blocks:
            blocks.append(tuple(mapping[q] for q in ib))
    if long_hole:
        holes.append(long_hole)
    return Design(holes, blocks)


def fill_holes_a(outer: Design, v: int, inner: Design, keep_size=None) -> Design:
    """Fill every hole (except an optional kept one) with copies of `inner`.

    The inner design must consist of one hole of size v, shared across all
    copies as v fresh points, plus holes partitioning the outer hole.  The
    kept hole and the fresh points merge into the new long hole.
    """
    return _fill(outer, v, {len(h): inner for h in outer.holes}, keep_size)


def fill_holes_b(outer: Design, v: int, inner_s: Design, inner_t: Design, keep_size) -> Design:
    """Like fill_holes_a but with two hole sizes to fill.

    inner_s fills the big holes, inner_t the one odd-sized hole; both share
    the same v fresh points.  Degenerate inner designs with a single hole
    and no blocks are allowed (they leave their hole as is).
    """
    sizes = {}
    body = lambda d: len(d.points) - v  # noqa: E731
    sizes[body(inner_s)] = inner_s
    sizes[body(inner_t)] = inner_t
    return _fill(outer, v, sizes, keep_size)
