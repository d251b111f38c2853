"""Plain-text formats for designs, starter sets, and GDDs.

Three line-oriented formats, each opened by a magic line:

    hsd-design v1     holes and blocks, fully expanded
    hsd-starter v1    starters over Z_g with fixed labels
    gdd v1            groups and unordered blocks

Lines are `key: tokens`; `#` starts a comment; blank lines are skipped.
Unknown keys are rejected rather than ignored, so a typo in a data file
fails loudly; so do a second line for a key such as `step:` that a file
states once and a bad integer, each naming its line.  Finite points are
integers; long-hole points are labels "x1", "x2", ... (the forms "x_3",
"x_{3}" and "x{3}" are accepted on input and normalized on output).  GDD
points are integers only.

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


# per format: magic line, keys that may repeat, keys that may appear once
_FORMATS = {
    "design": (DESIGN_MAGIC, ("hole", "block"), ("type", "points")),
    "starter": (STARTER_MAGIC, ("starter", "infinite"), ("type", "modulus", "hole-size", "step")),
    "gdd": (GDD_MAGIC, ("group", "block"), ("type", "points", "lambda")),
}


def _scan(text: str, kind: str):
    """Check the magic line and sort the `key: value` rows by key: a list
    of (lineno, value) for each repeated key, one (lineno, value) for each
    single key present."""
    magic, repeated, single = _FORMATS[kind]
    rows = list(_lines(text))
    if not rows or rows[0][1] != magic:
        raise ValueError(f"expected first line {magic!r}")
    lists = {key: [] for key in repeated}
    once = {}
    for lineno, line in rows[1:]:
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in lists:
            lists[key].append((lineno, value.strip()))
        elif key not in single:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        elif key in once:
            raise ValueError(f"line {lineno}: second {key!r} line (the first is line {once[key][0]})")
        else:
            once[key] = (lineno, value.strip())
    return lists, once


def _single(once: dict, key: str, convert, default=None):
    """A single key's value through `convert`; a bad value names its line."""
    if key not in once:
        return default
    lineno, value = once[key]
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad {key} {value!r}: {exc}") from None


def _check_declared(once: dict, t, points, source: str) -> None:
    """The optional `type:` and `points:` lines must match what `source` gives."""
    declared = _single(once, "type", parse_type)
    if declared is not None and declared != t:
        raise ValueError(f"declared type {declared} but the {source} give {t}")
    declared = _single(once, "points", int)
    if declared is not None and declared != points:
        raise ValueError(f"declared {declared} points but the {source} hold {points}")


def detect_format(text: str) -> str:
    for _, line in _lines(text):
        for kind, (magic, _, _) in _FORMATS.items():
            if line == magic:
                return kind
        raise ValueError(f"unrecognized first line {line!r}")
    raise ValueError("empty file")


# ---------------------------------------------------------------------------
# designs


def parse_design(text: str) -> Design:
    rows, once = _scan(text, "design")
    holes = [[_token(t) for t in value.split()] for _, value in rows["hole"]]
    blocks = []
    for lineno, value in rows["block"]:
        pts = [_token(t) for t in value.split()]
        if len(pts) != 4:
            raise ValueError(f"line {lineno}: block needs 4 points, got {len(pts)}")
        blocks.append(pts)
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
    _check_declared(once, design.type, len(design.points), "holes")
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
    rows, once = _scan(text, "starter")
    modulus = _single(once, "modulus", int)
    hole_size = _single(once, "hole-size", int)
    if modulus is None or hole_size is None:
        raise ValueError("starter file needs 'modulus:' and 'hole-size:' lines")
    infinite = [_token(t) for _, value in rows["infinite"] for t in value.split()]
    u = len(infinite)
    if sorted(infinite) != [(True, k) for k in range(1, u + 1)]:
        raise ValueError(f"'infinite:' must list the labels x1..x{u}, each once")

    def point(lineno, tok):
        is_label, v = tok
        if not (1 <= v <= u if is_label else 0 <= v < modulus):
            entry = f"x{v}" if is_label else v
            raise ValueError(f"line {lineno}: starter entry {entry} outside Z_{modulus} and x1..x{u}")
        return modulus + v - 1 if is_label else v

    starters = []
    for lineno, value in rows["starter"]:
        pts = [_token(t) for t in value.split()]
        if len(pts) != 4:
            raise ValueError(f"line {lineno}: starter needs 4 entries, got {len(pts)}")
        starters.append(tuple(point(lineno, t) for t in pts))
    ss = StarterSet(
        modulus=modulus,
        hole_size=hole_size,
        step=_single(once, "step", int, 1),
        u=u,
        starters=tuple(starters),
    )
    _check_declared(once, ss.type, None, "modulus and hole size")
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
    rows, once = _scan(text, "gdd")
    groups = [[_int_token(t) for t in value.split()] for _, value in rows["group"]]
    blocks = []
    for lineno, value in rows["block"]:
        pts = [_int_token(t) for t in value.split()]
        if len(pts) < 2:
            raise ValueError(f"line {lineno}: block needs at least 2 points")
        blocks.append(tuple(pts))
    g = GDD(groups, blocks, lam=_single(once, "lambda", int, 1))
    _check_declared(once, g.type, len(g.points), "groups")
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
