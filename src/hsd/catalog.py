"""Embedded catalog: every starter table plus the derived base designs.

Entries live as data files under hsd/data with a checksummed manifest.
Canonical ids are "<table>/<type>" ("A1/3^8 1^1", "C2/9^5 2^1", "S/3^5",
"GDD/3^4"); lookup also accepts a bare table name when unique ("Ex2.1")
and the type of a design or starter entry ("3^13 16^1"), of which there
is one per type.

Statuses:
    verbatim  transcribed as printed
    repaired  minimal fix applied; the note quotes the defective line
    derived   regenerated content; the note names the generating oracle

The three repaired entries are A5/3^7 7^1 (missing commas), A5/3^11 7^1
(unclosed bracket), A6/3^9 8^1 (truncated label).  C2/9^5 2^1 is derived:
the printed table duplicates the u = 8 table and its real content is
unrecoverable, so a searched step-1 starter set stands in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

from hsd.algebra import verify_gdd
from hsd.core import Design, TypeSpec, parse_type, verify_design
from hsd.development import StarterSet, develop
from hsd.files import parse_design, parse_gdd, parse_starter

_PARSERS = {"starter": parse_starter, "design": parse_design, "gdd": parse_gdd}


def _data_dir():
    return resources.files("hsd") / "data"


@dataclass
class CatalogEntry:
    id: str
    table: str
    type: TypeSpec
    kind: str  # starter | design | gdd
    status: str  # verbatim | repaired | derived
    file: str
    sha256: str
    expected_blocks: object  # int, or None for gdd entries
    note: str = ""
    _obj: object = field(default=None, repr=False)

    def load(self):
        """Parse the data file (cached), checking its manifest checksum."""
        if self._obj is None:
            self._obj = _PARSERS[self.kind](self.text())
        return self._obj

    def text(self) -> str:
        """Raw file content, checksum-checked against the manifest."""
        text = (_data_dir() / self.file).read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.sha256:
            raise ValueError(
                f"{self.file}: checksum mismatch "
                f"(manifest {self.sha256[:12]}.., file {digest[:12]}..)"
            )
        return text

    def design(self) -> Design:
        """The entry as a concrete design (starters are developed)."""
        obj = self.load()
        if isinstance(obj, StarterSet):
            return develop(obj)
        if isinstance(obj, Design):
            return obj
        raise TypeError(f"{self.id} is a GDD, not a design")


_cache = None
_by_type = None  # TypeSpec -> the design or starter entry of that type


def _entries() -> list:
    global _cache, _by_type
    if _cache is None:
        manifest = json.loads((_data_dir() / "manifest.json").read_text())
        if manifest.get("format") != 1:
            raise ValueError(f"unsupported manifest format {manifest.get('format')!r}")
        _cache = [
            CatalogEntry(
                id=row["id"],
                table=row["table"],
                type=parse_type(row["type"]),
                kind=row["kind"],
                status=row["status"],
                file=row["file"],
                sha256=row["sha256"],
                expected_blocks=row["expected_block_count"],
                note=row["note"],
            )
            for row in manifest["entries"]
        ]
        _by_type = {e.type: e for e in _cache if e.kind != "gdd"}
    return _cache


def catalog_for_type(t: TypeSpec):
    """The design or starter entry of type t, or None."""
    _entries()
    return _by_type.get(t)


def catalog_list(table=None, status=None, kind=None) -> list:
    out = []
    for e in _entries():
        if table is not None and e.table != table:
            continue
        if status is not None and e.status != status:
            continue
        if kind is not None and e.kind != kind:
            continue
        out.append(e)
    return out


def catalog_get(key: str) -> CatalogEntry:
    """Resolve an id, a unique table name, or the type of a design or
    starter entry."""
    entries = _entries()
    for e in entries:
        if e.id == key:
            return e
    hits = [e for e in entries if e.table == key]
    if len(hits) > 1:
        raise KeyError(f"{key!r} is ambiguous: " + ", ".join(e.id for e in hits))
    if hits:
        return hits[0]
    try:
        hit = catalog_for_type(parse_type(key))
    except ValueError:
        hit = None
    if hit is None:
        raise KeyError(f"no catalog entry {key!r}")
    return hit


@dataclass
class CatalogRow:
    id: str
    status: str
    kind: str
    ok: bool
    blocks: int
    expected: object
    errors: list


def verify_entry(e: CatalogEntry) -> CatalogRow:
    """Develop (if needed) and certify one entry from scratch."""
    if e.kind == "gdd":
        g = e.load()
        errors = list(verify_gdd(g).errors)
        blocks = len(g.blocks)
        if g.type != e.type:
            errors.append(f"manifest type {e.type}, file holds {g.type}")
    else:
        d = e.design()
        errors = list(verify_design(d).errors)
        blocks = len(d.blocks)
        if d.type != e.type:
            errors.append(f"manifest type {e.type}, entry develops to {d.type}")
        if blocks != e.expected_blocks:
            errors.append(f"{blocks} blocks, manifest expects {e.expected_blocks}")
    return CatalogRow(
        id=e.id,
        status=e.status,
        kind=e.kind,
        ok=not errors,
        blocks=blocks,
        expected=e.expected_blocks,
        errors=errors,
    )


def catalog_verify_all() -> list:
    """One `CatalogRow` per entry, in catalog order."""
    return [verify_entry(e) for e in _entries()]
