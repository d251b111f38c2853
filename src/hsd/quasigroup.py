"""The frame view of a design: a partial Schroder quasigroup.

A design corresponds to a frame idempotent Schroder quasigroup: a
partial product table, here a plain dict {(x, y): x*y}, where x*y is
defined exactly when x and y sit in different holes, and where
(x*y)*(y*x) = x.  The block (a, b, c, d) encodes a*b = c, b*a = d,
c*d = a and d*c = b.  `design_to_frame` builds that table, and
`hsd convert quasigroup` prints it.

`check_frame` re-derives a design's validity purely on the table side
(each row and column a permutation of the points outside its hole, plus
the identity), which gives an independent second route to verification.
It certifies on a flat P*P product table and walks the table cell by
cell only to explain a failure; neither pass borrows from `core`'s
verifier, so the two checkers stay two.  They share only the report type
and its capped error list.
"""

from __future__ import annotations

from collections import Counter

from hsd.core import Design, Diagnostics, VerificationReport


def design_to_frame(design: Design) -> dict:
    """Partial Schroder quasigroup of any design: products only across holes.

    Raises on a point outside the holes and on doubly-defined cells;
    completeness and the Latin/identity conditions are check_frame's
    business.
    """
    points = set(design.points)
    table = {}
    for blk in design.blocks:
        if not points.issuperset(blk):
            raise ValueError(f"block {blk!r} uses a point outside the holes")
        a, b, c, d = blk
        for x, y, z in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
            if (x, y) in table:
                raise ValueError(f"product {x!r}*{y!r} defined twice")
            table[(x, y)] = z
    return table


def check_frame(design: Design) -> VerificationReport:
    """Table-side validity check, independent of verify_design.

    Reads the blocks only as a partial multiplication table: the block
    (a, b, c, d) defines a*b = c, b*a = d, c*d = a and d*c = b.  The design
    is a frame when every cell across two holes is defined once, row x
    and column x are permutations of the points outside x's hole, and
    (x*y)*(y*x) = x for every defined cell.

    A valid design is certified on one flat P*P product table (see
    `_fills_frame_table`).  Any failure walks the table again by cells,
    which writes the diagnostics (at most `MAX_ERRORS`).
    """
    if _fills_frame_table(design):
        return VerificationReport(True, [])
    return _walk_frame_table(design)


def _fills_frame_table(design: Design) -> bool:
    """True when the design is a frame; False on its first failure, with no
    diagnostics.

    Points are indexed 0..P-1 and cell (x, y) is tab[x*P + y], -1 when
    undefined.  Each block sets its four cells, which must be unset and
    lie across four distinct holes.  With 4 * blocks equal to the number
    of cross cells, every row and column slice sorts to its hole's
    template: one -1 per point of the hole, then the points outside it.

    The identity (x*y)*(y*x) = x needs no pass of its own.  The block
    (a, b, c, d) is the only writer of its four cells, so for (x, y) =
    (a, b), (b, a), (c, d) or (d, c) the pair (x*y, y*x) is (c, d), (d, c),
    (a, b) or (b, a), whose product is a, b, c or d: x each time.
    """
    st = design.structure
    hole_of = st._hole_of
    pts = st.points
    P = len(pts)
    blocks = design.blocks
    if 4 * len(blocks) != P * P - sum(len(h) ** 2 for h in st.holes):
        return False
    index = None if pts == tuple(range(P)) else {p: i for i, p in enumerate(pts)}
    tab = [-1] * (P * P)
    try:
        for blk in blocks:
            a, b, c, d = blk
            if len({hole_of[a], hole_of[b], hole_of[c], hole_of[d]}) != 4:
                return False
            if index is not None:
                a, b, c, d = index[a], index[b], index[c], index[d]
            ab, ba, cd, dc = a * P + b, b * P + a, c * P + d, d * P + c
            if tab[ab] >= 0 or tab[ba] >= 0 or tab[cd] >= 0 or tab[dc] >= 0:
                return False
            tab[ab], tab[ba], tab[cd], tab[dc] = c, d, a, b
    except (KeyError, TypeError, ValueError):  # a point outside the holes, a non-int cell index
        return False

    hole_at = [hole_of[p] for p in pts]
    for h, hole in enumerate(st.holes):
        want = [-1] * len(hole) + [i for i in range(P) if hole_at[i] != h]
        for p in hole:
            x = p if index is None else index[p]
            row = tab[x * P:(x + 1) * P]
            col = tab[x::P]
            if sorted(row) != want or sorted(col) != want:
                return False
    return True


def _walk_frame_table(design: Design) -> VerificationReport:
    """The cell-by-cell frame check: same verdict as `check_frame`, plus
    the diagnostics it reports."""
    st = design.structure
    errors = Diagnostics()
    cells = Counter()
    table = {}
    for blk in design.blocks:
        if len(blk) != 4 or any(p not in st._hole_of for p in blk):
            errors.note(f"malformed block {blk!r}")
            continue
        a, b, c, d = blk
        for x, y, z in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
            cells[(x, y)] += 1
            table[(x, y)] = z
    for (x, y), k in cells.items():
        if k > 1:
            errors.note(f"product {x!r}*{y!r} defined {k} times")

    pts = st.points
    for x in pts:
        outside = [q for q in pts if not st.same_hole(x, q)]
        want = set(outside)
        row = [table.get((x, y)) for y in outside]
        col = [table.get((y, x)) for y in outside]
        if set(row) != want:
            errors.note(f"row {x!r} is not a permutation of the points outside its hole")
        if set(col) != want:
            errors.note(f"column {x!r} is not a permutation of the points outside its hole")
    for (x, y), z in table.items():
        if st.same_hole(x, y):
            errors.note(f"product {x!r}*{y!r} crosses no hole boundary")
            continue
        w = table.get((y, x))
        if w is None or table.get((z, w)) != x:
            errors.note(f"identity fails at ({x!r}, {y!r})")
    return VerificationReport(not errors, errors)
