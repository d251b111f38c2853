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
"""

import hashlib

from hsd.core import Design, Diagnostics, VerificationReport, canonical_block, verify_design
from hsd.quasigroup import check_frame, design_to_frame


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
