"""Plain-text formats for designs, starter sets, and GDDs.

Three line-oriented formats, each opened by a magic line:

    hsd-design v1     holes and blocks, fully expanded
    hsd-starter v1    starters over Z_g with fixed labels
    gdd v1            groups and unordered blocks

Lines are `key: tokens`; `#` starts a comment; blank lines are skipped.
Unknown keys are rejected rather than ignored, so a typo in a data file
fails loudly.  Finite points are integers; long-hole points are labels
"x1", "x2", ... (the forms "x_3", "x_{3}" and "x{3}" are accepted on
input and normalized on output).  GDD points are integers only.

This module is the only place where labels meet the integer points used
everywhere else: a starter's label xk is the point g+k-1 (g the modulus),
and a design file's label xk is the point b+k-1, b one past its largest
integer point; the design keeps b as its `label_base` to write the labels
again.  parse(serialize(obj)) == obj, and serialize never renames points.
"""

from __future__ import annotations

import re

from hsd.algebra import GDD
from hsd.core import Design, parse_type
from hsd.development import StarterSet

DESIGN_MAGIC = "hsd-design v1"
STARTER_MAGIC = "hsd-starter v1"
GDD_MAGIC = "gdd v1"

_INT = re.compile(r"-?\d+$")
_LABEL = re.compile(r"x_?(?:([1-9]\d*)|\{([1-9]\d*)\})")


def _token(tok: str) -> tuple:
    """(False, value) for an integer token, (True, k) for a label xk."""
    if _INT.match(tok):
        return False, int(tok)
    m = _LABEL.fullmatch(tok)
    if m:
        return True, int(m.group(1) or m.group(2))
    raise ValueError(f"bad point token {tok!r}: expected an integer or a label x1, x2, ...")


def _int_token(tok: str) -> int:
    if not _INT.match(tok):
        raise ValueError(f"bad point token {tok!r}: expected an integer")
    return int(tok)


def point_label(p: int, label_base) -> str:
    """How a file writes point p: a number, or xk from label_base on."""
    if label_base is None or p < label_base:
        return str(p)
    return f"x{p - label_base + 1}"


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header_and_items(text: str, magic: str, allowed: set):
    """Common scan: check the magic line, split `key: value` rows."""
    rows = list(_lines(text))
    if not rows or rows[0][1] != magic:
        raise ValueError(f"expected first line {magic!r}")
    items = []
    for lineno, line in rows[1:]:
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        items.append((lineno, key, value.strip()))
    return items


def detect_format(text: str) -> str:
    for _, line in _lines(text):
        if line == DESIGN_MAGIC:
            return "design"
        if line == STARTER_MAGIC:
            return "starter"
        if line == GDD_MAGIC:
            return "gdd"
        raise ValueError(f"unrecognized first line {line!r}")
    raise ValueError("empty file")


# ---------------------------------------------------------------------------
# designs


def parse_design(text: str) -> Design:
    items = _header_and_items(text, DESIGN_MAGIC, {"type", "points", "hole", "block"})
    holes, blocks = [], []
    declared_type, declared_points = None, None
    for lineno, key, value in items:
        if key == "hole":
            holes.append([_token(t) for t in value.split()])
        elif key == "block":
            pts = [_token(t) for t in value.split()]
            if len(pts) != 4:
                raise ValueError(f"line {lineno}: block needs 4 points, got {len(pts)}")
            blocks.append(pts)
        elif key == "type":
            declared_type = parse_type(value)
        elif key == "points":
            declared_points = int(value)
    tokens = [tok for row in holes + blocks for tok in row]
    base = max((v for is_label, v in tokens if not is_label), default=-1) + 1

    def point(tok):
        is_label, v = tok
        return base + v - 1 if is_label else v

    design = Design(
        [[point(t) for t in row] for row in holes],
        [tuple(point(t) for t in row) for row in blocks],
        label_base=base if any(is_label for is_label, _ in tokens) else None,
    )
    if declared_type is not None and design.type != declared_type:
        raise ValueError(f"declared type {declared_type} but holes give {design.type}")
    if declared_points is not None and declared_points != len(design.points):
        raise ValueError(f"declared {declared_points} points but holes hold {len(design.points)}")
    return design


def serialize_design(design: Design) -> str:
    out = [DESIGN_MAGIC]
    out.append(f"type: {design.type}")
    out.append(f"points: {len(design.points)}")
    base = design.label_base
    for hole in design.holes:
        out.append("hole: " + " ".join(point_label(p, base) for p in hole))
    for blk in design.blocks:
        out.append("block: " + " ".join(point_label(p, base) for p in blk))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# starter sets


def parse_starter(text: str) -> StarterSet:
    items = _header_and_items(
        text, STARTER_MAGIC, {"type", "modulus", "hole-size", "step", "infinite", "starter"}
    )
    modulus = hole_size = None
    step = 1
    infinite: list = []
    starters = []  # (lineno, tokens)
    declared_type = None
    for lineno, key, value in items:
        if key == "starter":
            pts = [_token(t) for t in value.split()]
            if len(pts) != 4:
                raise ValueError(f"line {lineno}: starter needs 4 entries, got {len(pts)}")
            starters.append((lineno, pts))
        elif key == "modulus":
            modulus = int(value)
        elif key == "hole-size":
            hole_size = int(value)
        elif key == "step":
            step = int(value)
        elif key == "infinite":
            infinite.extend(_token(t) for t in value.split())
        elif key == "type":
            declared_type = parse_type(value)
    if modulus is None or hole_size is None:
        raise ValueError("starter file needs 'modulus:' and 'hole-size:' lines")
    u = len(infinite)
    if sorted(infinite) != [(True, k) for k in range(1, u + 1)]:
        raise ValueError(f"'infinite:' must list the labels x1..x{u}, each once")

    def point(lineno, tok):
        is_label, v = tok
        if not (1 <= v <= u if is_label else 0 <= v < modulus):
            entry = f"x{v}" if is_label else v
            raise ValueError(f"line {lineno}: starter entry {entry} outside Z_{modulus} and x1..x{u}")
        return modulus + v - 1 if is_label else v

    ss = StarterSet(
        modulus=modulus,
        hole_size=hole_size,
        step=step,
        u=u,
        starters=tuple(tuple(point(lineno, t) for t in row) for lineno, row in starters),
    )
    if declared_type is not None and ss.type != declared_type:
        raise ValueError(f"declared type {declared_type} but geometry gives {ss.type}")
    return ss


def serialize_starter(ss: StarterSet) -> str:
    out = [STARTER_MAGIC]
    out.append(f"type: {ss.type}")
    out.append(f"modulus: {ss.modulus}")
    out.append(f"hole-size: {ss.hole_size}")
    out.append(f"step: {ss.step}")
    if ss.u:
        out.append("infinite: " + " ".join(f"x{k}" for k in range(1, ss.u + 1)))
    for blk in ss.starters:
        out.append("starter: " + " ".join(point_label(p, ss.modulus) for p in blk))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# GDDs


def parse_gdd(text: str) -> GDD:
    items = _header_and_items(text, GDD_MAGIC, {"lambda", "type", "points", "group", "block"})
    lam = 1
    groups, blocks = [], []
    declared_type, declared_points = None, None
    for lineno, key, value in items:
        if key == "group":
            groups.append([_int_token(t) for t in value.split()])
        elif key == "block":
            pts = [_int_token(t) for t in value.split()]
            if len(pts) < 2:
                raise ValueError(f"line {lineno}: block needs at least 2 points")
            blocks.append(tuple(pts))
        elif key == "lambda":
            lam = int(value)
        elif key == "type":
            declared_type = parse_type(value)
        elif key == "points":
            declared_points = int(value)
    g = GDD(groups, blocks, lam=lam)
    if declared_type is not None and g.type != declared_type:
        raise ValueError(f"declared type {declared_type} but groups give {g.type}")
    if declared_points is not None and declared_points != len(g.points):
        raise ValueError(f"declared {declared_points} points but groups hold {len(g.points)}")
    return g


def serialize_gdd(gdd: GDD) -> str:
    out = [GDD_MAGIC]
    out.append(f"lambda: {gdd.lam}")
    out.append(f"type: {gdd.type}")
    out.append(f"points: {len(gdd.points)}")
    for grp in gdd.groups:
        out.append("group: " + " ".join(map(str, grp)))
    for blk in gdd.blocks:
        out.append("block: " + " ".join(map(str, blk)))
    return "\n".join(out) + "\n"
