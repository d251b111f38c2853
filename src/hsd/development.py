"""Cyclic development of starter blocks over Z_g with fixed infinite points.

A starter set for type h^n u^1 lives on Z_g (g = h*n) plus u fixed
points, the integers g..g+u-1 (written "x1".."xu" in files).  The cyclic
holes are {i, i+n, ..., i+(h-1)n} for 0 <= i < n, and the fixed points
form the long hole.  Developing means adding the step to every entry
below g of every starter, modulo g, until a translate is one of the
starter's four forms again, so some starters have short orbits.

For step 1 there is an arithmetic shortcut, `difference_census`: a starter
set develops into a valid design exactly when, in every color, the signed
differences of its finite pairs hit each cross-hole difference class once,
and every label occurs in exactly one starter.  The census never builds
the design, which makes it a useful independent check on `develop`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from hsd.core import (
    COLORS,
    Design,
    Diagnostics,
    TypeSpec,
    VerificationReport,
    block_forms,
    block_pairs,
    uniform_type,
)


@dataclass(frozen=True)
class StarterSet:
    """Starters plus the geometry needed to develop them.

    The u long-hole points are modulus, modulus+1, ..., modulus+u-1.
    """

    modulus: int
    hole_size: int
    step: int
    u: int  # size of the long hole (may be 0)
    starters: tuple  # blocks over Z_modulus and the long-hole points

    def __post_init__(self):
        g, h = self.modulus, self.hole_size
        if g < 1 or h < 1 or g % h:
            raise ValueError(f"modulus {g} is not a multiple of hole size {h}")
        if self.step < 1 or g % self.step:
            raise ValueError(f"step {self.step} does not divide modulus {g}")
        if self.u < 0:
            raise ValueError(f"negative long hole size {self.u}")
        for blk in self.starters:
            if len(blk) != 4:
                raise ValueError(f"starter {blk!r} does not have 4 entries")
            for p in blk:
                if not isinstance(p, int) or not (0 <= p < g + self.u):
                    raise ValueError(f"starter entry {p!r} outside Z_{g} plus {self.u} fixed points")

    @property
    def n(self) -> int:
        return self.modulus // self.hole_size

    @property
    def type(self) -> TypeSpec:
        return uniform_type(self.n, self.u, self.hole_size)

    def holes(self) -> list:
        g, n, h = self.modulus, self.n, self.hole_size
        out = [[i + j * n for j in range(h)] for i in range(n)]
        if self.u:
            out.append(list(range(g, g + self.u)))
        return out

    def same_hole_differences(self) -> set:
        """Nonzero differences internal to the cyclic holes."""
        g, n, h = self.modulus, self.n, self.hole_size
        return {(j * n) % g for j in range(1, h)}


def orbit(block, modulus: int, step: int = 1) -> list:
    """Distinct translates of a block under repeated shifting.

    The k-th translate shifts the entries below modulus by k * step and
    leaves the long-hole points fixed.  The list starts with the k = 0
    translate and stops before the first later one that is a form of the
    block, so short orbits come out short; shifting by span * step, span =
    modulus / gcd(modulus, step), is the identity, so the list never runs
    past one span.  Entries below modulus are taken as elements of
    Z_modulus (0 <= p).
    """
    forms = block_forms(block)
    out = []
    for k in range(0, modulus // gcd(modulus, step) * step, step):
        t = tuple(p if p >= modulus else (p + k) % modulus for p in block)
        if out and t in forms:
            break
        out.append(t)
    return out


def develop(ss: StarterSet) -> Design:
    """Expand a starter set into a full design.

    Orbits are concatenated as-is; if two starters generate the same orbit
    the duplicate blocks survive into the design and verification reports
    them, rather than being papered over here.
    """
    blocks = []
    for starter in ss.starters:
        blocks.extend(orbit(starter, ss.modulus, ss.step))
    return Design(ss.holes(), blocks, label_base=ss.modulus if ss.u else None)


def difference_census(ss: StarterSet) -> VerificationReport:
    """Validate a step-1 starter set by difference counting alone.

    In every color the finite pairs of the starters must realize each
    difference in Z_g minus the hole differences exactly once (counting a
    pair {p, q} as both p-q and q-p), and each long-hole point must appear
    in exactly one starter.  For step 1 this is equivalent to developing and
    verifying the design; larger steps need the real expansion and are
    refused here.
    """
    if ss.step != 1:
        raise ValueError(f"difference census only applies to step 1, got step {ss.step}")
    g = ss.modulus
    same = ss.same_hole_differences()
    target = set(range(1, g)) - same
    errors = Diagnostics()
    label_seen = Counter()
    per_color = {c: Counter() for c in COLORS}
    for starter in ss.starters:
        if len(set(starter)) != 4:
            errors.note(f"starter {starter!r} repeats an entry")
            continue
        labels_here = [p for p in starter if p >= g]
        if len(labels_here) > 1:
            errors.note(f"starter {starter!r} holds two long-hole points")
        for lab in labels_here:
            label_seen[lab] += 1
        for (p, q), color in block_pairs(starter):
            if q >= g:  # p <= q, so a long-hole point is q
                continue
            per_color[color][(p - q) % g] += 1
            per_color[color][(q - p) % g] += 1

    for lab in range(g, g + ss.u):
        if label_seen[lab] != 1:
            errors.note(f"long-hole point {lab} appears in {label_seen[lab]} starters, wants 1")

    for color in COLORS:
        got = per_color[color]
        for d in sorted(target):
            c = got.get(d, 0)
            if c != 1:
                errors.note(f"color {color}: difference {d} realized {c} times, wants 1")
        for d in sorted(set(got) - target):
            kind = "zero" if d == 0 else "same-hole" if d in same else "alien"
            errors.note(f"color {color}: {kind} difference {d} realized {got[d]} times")

    if errors.dropped:
        errors.append("... further problems suppressed")
    return VerificationReport(not errors, errors)
