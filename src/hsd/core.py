"""Core objects: hole types, blocks, designs, feasibility, verification.

A holey Schroder design (HSD) lives on a point set partitioned into holes.
Its blocks are ordered 4-tuples (a, b, c, d) meeting every hole at most
once.  Each block carries six pairs in three "colors":

    color 1: {a, b}, {c, d}
    color 2: {a, c}, {b, d}
    color 3: {a, d}, {b, c}

and the defining condition is that every pair of points from two distinct
holes occurs exactly once in every color.  Blocks are identified up to the
rewriting

    (a, b, c, d) ~ (b, a, d, c) ~ (c, d, a, b) ~ (d, c, b, a)

which leaves the colored pairs untouched; `canonical_block` picks the
lexicographically least of the four forms.

`verify_design` certifies a design in one pass over its blocks, reading
them as colored pair coverage, and explains a failure from what that pass
recorded; `quasigroup.check_frame` is the independent second checker.

Points are plain integers, so every ordering below is natural integer
order.  The long-hole points of a starter set, written "x1", "x2", ... in
files, are the integers g, g+1, ... just past Z_g; a Design remembers where
such labels start (`label_base`) only so that it can be written out again
with them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, NamedTuple, Optional

Block = tuple  # 4-tuple of int points

COLORS = (1, 2, 3)

# The most diagnostics a verifier reports for one object.
MAX_ERRORS = 8


def pair(p: int, q: int) -> tuple:
    """Unordered pair as a sorted 2-tuple."""
    return (p, q) if p <= q else (q, p)


def block_forms(block: Block) -> tuple:
    a, b, c, d = block
    return ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))


def canonical_block(block: Block) -> Block:
    """Least of the four equivalent forms of a block."""
    return min(block_forms(block))


def block_pairs(block: Block) -> list:
    """The six (pair, color) items a block covers."""
    a, b, c, d = block
    return [
        (pair(a, b), 1),
        (pair(c, d), 1),
        (pair(a, c), 2),
        (pair(b, d), 2),
        (pair(a, d), 3),
        (pair(b, c), 3),
    ]


# ---------------------------------------------------------------------------
# hole types


@dataclass(frozen=True)
class TypeSpec:
    """Multiset of hole sizes, e.g. parse_type("3^8 2^1").

    Equality is multiset equality, so "3^4 3^1" and "3^5" are the same
    TypeSpec.  str() renders sizes largest-multiplicity first, which
    reproduces the usual h^n u^1 notation.
    """

    items: tuple  # ((size, count), ...) sorted by size

    def __post_init__(self):
        for size, count in self.items:
            if size < 1 or count < 1:
                raise ValueError(f"bad hole type entry {size}^{count}")

    @staticmethod
    def from_counts(counts) -> "TypeSpec":
        items = tuple(sorted((int(s), int(c)) for s, c in dict(counts).items() if c))
        return TypeSpec(items)

    @staticmethod
    def of(*sizes: int) -> "TypeSpec":
        return TypeSpec.from_counts(Counter(sizes))

    def sizes(self) -> list:
        """All hole sizes with multiplicity, ascending."""
        out = []
        for size, count in self.items:
            out.extend([size] * count)
        return out

    @property
    def points(self) -> int:
        return sum(s * c for s, c in self.items)

    @property
    def holes(self) -> int:
        return sum(c for _, c in self.items)

    def split(self, h: int):
        """Read the type as h^n u^1: (n, u), with u = 0 for plain h^n, or
        None for any other shape.  The inverse of `uniform_type(n, u, h)`,
        which folds u = h into the short holes."""
        rest = dict(self.items)
        n = rest.pop(h, 0)
        if not n or len(rest) > 1:
            return None
        if not rest:
            return n, 0
        ((u, count),) = rest.items()
        return (n, u) if count == 1 else None

    def __str__(self) -> str:
        ordered = sorted(self.items, key=lambda sc: (-sc[1], sc[0]))
        return " ".join(f"{s}^{c}" for s, c in ordered)


_TYPE_TOKEN = re.compile(r"(\d+)\^(\d+)$")


def parse_type(text: str) -> TypeSpec:
    """Parse a hole type like "3^8 2^1" into a TypeSpec."""
    counts: Counter = Counter()
    tokens = text.split()
    if not tokens:
        raise ValueError("empty hole type")
    for tok in tokens:
        m = _TYPE_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad hole type token {tok!r} in {text!r}")
        size, count = int(m.group(1)), int(m.group(2))
        if size < 1 or count < 1:
            raise ValueError(f"hole sizes and counts must be positive: {tok!r}")
        counts[size] += count
    return TypeSpec.from_counts(counts)


def uniform_type(n: int, u: int, h: int = 3) -> TypeSpec:
    """The h^n u^1 type (u = 0 gives plain h^n)."""
    counts = Counter({h: n})
    if u:
        counts[u] += 1
    return TypeSpec.from_counts(counts)


def expected_block_count(t: TypeSpec) -> int:
    """Cross pairs / 2; raises if the count is not an integer.

    Each block covers two pairs per color, so a design of this type has
    (C(P,2) - sum C(hole,2)) / 2 blocks.  A non-integral value means no
    design of this type can exist and is reported loudly rather than
    rounded.
    """
    cross = comb(t.points, 2) - sum(c * comb(s, 2) for s, c in t.items)
    if cross % 2:
        raise ValueError(f"type {t} has an odd cross-pair count {cross}")
    return cross // 2


# ---------------------------------------------------------------------------
# feasibility for the 3^n u^1 family


@dataclass
class FeasibilityReport:
    n: int
    u: int
    feasible: bool
    checks: list  # (label, passed, detail)

    def failed(self) -> list:
        return [label for label, ok, _ in self.checks if not ok]

    def __bool__(self) -> bool:
        return self.feasible


def is_feasible(n: int, u: int) -> FeasibilityReport:
    """Necessary conditions for a design of type 3^n u^1.

    The three conditions are: at least four short holes, the long hole not
    more than 3(n-1)/2, and n(n + 2u - 1) divisible by 4.  They rule out
    n = 2 (mod 4) entirely and force the parity of u when n is odd.
    """
    checks = []
    checks.append(("n >= 4", n >= 4, f"n = {n}"))
    checks.append(("u >= 0", u >= 0, f"u = {u}"))
    checks.append(
        ("2u <= 3(n - 1)", 2 * u <= 3 * (n - 1), f"2u = {2 * u}, 3(n-1) = {3 * (n - 1)}")
    )
    prod = n * (n + 2 * u - 1)
    checks.append(
        ("n(n + 2u - 1) = 0 (mod 4)", prod % 4 == 0, f"n(n + 2u - 1) = {prod} = {prod % 4} (mod 4)")
    )
    feasible = all(ok for _, ok, _ in checks)
    return FeasibilityReport(n=n, u=u, feasible=feasible, checks=checks)


def paper_region(n: int, u: int) -> bool:
    """Is 3^n u^1 a cell where the paper's theorem says a design exists?

    That is every cell with n >= 4 and n(n + 2u - 1) = 0 (mod 4) that also
    has u <= 15 and 3n >= 3 + 2u, or u <= n and n not 29 or 43 (the
    paper's possible exceptions).
    """
    return (n >= 4 and u >= 0 and n * (n + 2 * u - 1) % 4 == 0
            and ((u <= 15 and 3 * n >= 3 + 2 * u) or (u <= n and n not in (29, 43))))


# ---------------------------------------------------------------------------
# hole structures and designs


class HoleStructure:
    """A partition of the point set into nonempty, pairwise disjoint holes."""

    def __init__(self, holes: Iterable[Iterable[int]]):
        # deterministic hole order: by (size, points)
        self.holes = tuple(sorted((tuple(sorted(hole)) for hole in holes), key=lambda h: (len(h), h)))
        if not self.holes:
            raise ValueError("a hole structure needs at least one hole")
        if not self.holes[0]:  # an empty hole sorts first
            raise ValueError("empty hole")
        self._hole_of = {}
        for idx, hole in enumerate(self.holes):
            for p in hole:
                if not isinstance(p, int):
                    raise ValueError(f"point {p!r} is not an integer")
                if p in self._hole_of:
                    raise ValueError(f"point {p!r} appears in two holes")
                self._hole_of[p] = idx
        self.points = tuple(sorted(self._hole_of))

    def hole_of(self, p: int) -> int:
        return self._hole_of[p]

    def type(self) -> TypeSpec:
        return TypeSpec.from_counts(Counter(len(h) for h in self.holes))

    def __eq__(self, other):
        return isinstance(other, HoleStructure) and self.holes == other.holes

    def __hash__(self):
        return hash(self.holes)

    def __repr__(self):
        return f"HoleStructure({self.type()}, {len(self.points)} points)"


class Design:
    """A hole structure plus a block list (blocks stored canonically sorted).

    Each block is kept in its canonical form and the list is sorted, so
    copies of one block sit side by side; `verify_design` relies on this
    to name a repeated block.

    Points from `label_base` on are the long-hole points a file writes as
    "x1", "x2", ...; None means every point is written as a number.
    """

    def __init__(self, holes, blocks: Iterable[Block], label_base: Optional[int] = None):
        self.structure = holes if isinstance(holes, HoleStructure) else HoleStructure(holes)
        self.blocks = tuple(sorted(canonical_block(tuple(b)) for b in blocks))
        self.label_base = label_base

    @property
    def holes(self) -> tuple:
        return self.structure.holes

    @property
    def points(self) -> tuple:
        return self.structure.points

    @property
    def type(self) -> TypeSpec:
        return self.structure.type()

    def __eq__(self, other):
        return (
            isinstance(other, Design)
            and self.structure == other.structure
            and self.blocks == other.blocks
            and self.label_base == other.label_base
        )

    def __hash__(self):
        return hash((self.structure, self.blocks, self.label_base))

    def __repr__(self):
        return f"Design({self.type}, {len(self.blocks)} blocks)"


class VerificationReport(NamedTuple):
    """What every checker returns: its verdict and its diagnostics.
    Unpacks as `ok, errors` and is truthy exactly when ok."""

    ok: bool
    errors: list

    def __bool__(self) -> bool:
        return self.ok


class Diagnostics(list):
    """A checker's error list: `note` keeps the first `MAX_ERRORS` messages
    and counts the rest in `dropped`."""

    dropped = 0

    def note(self, msg: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(msg)
        else:
            self.dropped += 1


def verify_design(design: Design) -> VerificationReport:
    """Certify a design from scratch, in one pass over its blocks.

    Points are indexed 0..P-1 and each color keeps P*P flags, one per
    pair slot, with the slots inside a hole flagged before the pass.  Each
    block of four known points flags its six (pair, color) slots, which
    must all be clear: a block meeting a hole twice, or repeating a point,
    finds one of its slots already flagged.  With no slot flagged twice
    and exactly `expected_block_count` blocks, the 6 * expected slots, all
    of them cross pairs, cover every cross pair once in every color.
    Nothing is borrowed from the construction that produced the design.

    A failure is noted where the pass finds it: a block with an unknown
    point, a block meeting a hole twice, a repeated block (copies sit side
    by side, as `Design` keeps its blocks sorted), and each slot flagged
    again, which is counted.  Only then do short loops add the pairs
    covered more than once, in the order they were first covered, the
    pairs missing and a wrong block count, up to `MAX_ERRORS` messages.
    """
    st = design.structure
    try:
        expected = expected_block_count(st.type())
    except ValueError as exc:
        # A parity-impossible type can still be reported on, with no blocks valid.
        return VerificationReport(False, [str(exc)])
    pts = st.points
    P = len(pts)
    index = {p: i for i, p in enumerate(pts)}
    hole_at = [st._hole_of[p] for p in pts]
    inside = bytearray(P * P)
    for hole in st.holes:
        ids = [index[p] for p in hole]
        for i in ids:
            for j in ids:
                inside[i * P + j] = 1
    flags = one, two, three = inside, bytearray(inside), bytearray(inside)
    errors = Diagnostics()
    extra = Counter()  # (color, slot) -> covers past the first
    prev = repeated = None
    for blk in design.blocks:
        try:
            a, b, c, d = index[blk[0]], index[blk[1]], index[blk[2]], index[blk[3]]
        except KeyError:
            errors.note(f"block {blk!r} uses unknown points")
            continue
        ab = a * P + b if a < b else b * P + a
        cd = c * P + d if c < d else d * P + c
        ac = a * P + c if a < c else c * P + a
        bd = b * P + d if b < d else d * P + b
        ad = a * P + d if a < d else d * P + a
        bc = b * P + c if b < c else c * P + b
        if one[ab] or one[cd] or two[ac] or two[bd] or three[ad] or three[bc]:
            if len({hole_at[a], hole_at[b], hole_at[c], hole_at[d]}) != 4:
                errors.note(f"block {blk!r} meets a hole twice")
                continue
            if blk == prev != repeated:
                errors.note(f"block {blk!r} occurs more than once")
                repeated = blk
            for color, slot in ((1, ab), (1, cd), (2, ac), (2, bd), (3, ad), (3, bc)):
                if flags[color - 1][slot]:
                    extra[color, slot] += 1
        one[ab] = one[cd] = two[ac] = two[bd] = three[ad] = three[bc] = 1
        prev = blk
    if extra:
        for blk in design.blocks:
            if all(p in index for p in blk) and len({st._hole_of[p] for p in blk}) == 4:
                for pr, color in block_pairs(blk):
                    key = color, index[pr[0]] * P + index[pr[1]]
                    if key in extra:
                        errors.note(f"pair {pr!r} covered {extra.pop(key) + 1} times in color {color}")
    if errors or len(design.blocks) != expected:
        gaps = (((pts[i], pts[j]), color) for i in range(P) for j in range(i + 1, P)
                for color in COLORS if not flags[color - 1][i * P + j])
        for pr, color in islice(gaps, max(MAX_ERRORS - len(errors), 0)):
            errors.note(f"pair {pr!r} missing in color {color}")
        if len(design.blocks) != expected:
            errors.note(f"{len(design.blocks)} blocks, expected {expected}")
    return VerificationReport(not errors, errors)


def relabel(design: Design, mapping=None) -> Design:
    """Rename points.  Default mapping: integers 0..P-1 in hole order.

    The result carries no labels: every point is written as a number.
    """
    if mapping is None:
        mapping = {}
        counter = 0
        for hole in design.holes:
            for p in hole:
                mapping[p] = counter
                counter += 1
    holes = [[mapping[p] for p in hole] for hole in design.holes]
    blocks = [tuple(mapping[p] for p in blk) for blk in design.blocks]
    return Design(holes, blocks)
