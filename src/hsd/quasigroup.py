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
It makes one pass that fills a flat P*P product table, and explains a
failure from that table; nothing in it borrows from `core`'s verifier,
so the two checkers stay two.  They share only the report type and its
capped error list.
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

    One pass fills a flat P*P table: points are indexed 0..P-1, cell
    (x, y) is tab[x*P + y], -1 while undefined, and every cell inside a
    hole holds P.  A block of four known points whose four cells are
    distinct and undefined sets them at once.  Any other block sets them
    one at a time, since it may repeat a cell of its own: it counts each
    cell defined again and keeps a product inside a hole apart, in
    `inside`.  A block with an unknown point is noted and skipped.  Then
    row x and column x must each sort to the points outside x's hole
    followed by one P per point of the hole.

    When every block took the first path the identity needs no pass of
    its own.  The block (a, b, c, d) is then the only writer of its four
    cells, so for (x, y) = (a, b), (b, a), (c, d) or (d, c) the pair
    (x*y, y*x) is (c, d), (d, c), (a, b) or (b, a), whose product is a, b,
    c or d: x each time.  Otherwise the defined cells, in the order they
    were first defined, name the cells defined more than once, the cells
    inside a hole and the failures of the identity.  At most `MAX_ERRORS`
    messages are kept.
    """
    st = design.structure
    pts = st.points
    P = len(pts)
    index = {p: i for i, p in enumerate(pts)}
    hole_at = [st._hole_of[p] for p in pts]
    tab = [-1] * (P * P)
    for hole in st.holes:
        ids = [index[p] for p in hole]
        for i in ids:
            for j in ids:
                tab[i * P + j] = P
    inside = {}  # cell inside a hole -> its product, set only one at a time
    errors = Diagnostics()
    extra = Counter()  # cell -> definitions past the first
    for blk in design.blocks:
        try:
            a, b, c, d = index[blk[0]], index[blk[1]], index[blk[2]], index[blk[3]]
        except KeyError:
            errors.note(f"malformed block {blk!r}")
            continue
        ab, ba, cd, dc = a * P + b, b * P + a, c * P + d, d * P + c
        if ab != cd and ab != dc and tab[ab] < 0 and tab[ba] < 0 and tab[cd] < 0 and tab[dc] < 0:
            tab[ab], tab[ba], tab[cd], tab[dc] = c, d, a, b
            continue
        for x, y, z in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
            cell = x * P + y
            if hole_at[x] == hole_at[y]:
                again, inside[cell] = cell in inside, z
            else:
                again, tab[cell] = tab[cell] >= 0, z
            if again:
                extra[cell] += 1

    cells = {}
    if extra or inside:  # some block set its cells one at a time
        cells = dict.fromkeys(
            index[x] * P + index[y]
            for a, b, c, d in design.blocks if all(p in index for p in (a, b, c, d))
            for x, y in ((a, b), (b, a), (c, d), (d, c))
        )
        for cell in cells:
            if extra[cell]:
                x, y = divmod(cell, P)
                errors.note(f"product {pts[x]!r}*{pts[y]!r} defined {extra[cell] + 1} times")

    bad = []  # (x, 0) for row x, (x, 1) for column x
    for h, hole in enumerate(st.holes):
        want = [i for i in range(P) if hole_at[i] != h] + [P] * len(hole)
        for p in hole:
            x = index[p]
            if sorted(tab[x * P:(x + 1) * P]) != want:
                bad.append((x, 0))
            if sorted(tab[x::P]) != want:
                bad.append((x, 1))
    for x, column in sorted(bad):
        line = "column" if column else "row"
        errors.note(f"{line} {pts[x]!r} is not a permutation of the points outside its hole")

    for cell in cells:
        x, y = divmod(cell, P)
        if hole_at[x] == hole_at[y]:
            errors.note(f"product {pts[x]!r}*{pts[y]!r} crosses no hole boundary")
            continue
        w = tab[y * P + x]
        zw = tab[cell] * P + w
        if w < 0 or inside.get(zw, tab[zw]) != x:
            errors.note(f"identity fails at ({pts[x]!r}, {pts[y]!r})")
    return VerificationReport(not errors, errors)
