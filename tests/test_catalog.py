"""Bundled data catalog: manifest integrity, lookup, per-entry certification."""

import dataclasses

import pytest

from hsd.catalog import (
    CatalogEntry,
    catalog_for_type,
    catalog_get,
    catalog_list,
    verify_entry,
)
from hsd.core import expected_block_count, parse_type

EXPECTED_TABLES = {
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
    "B1", "B2", "B3", "C1", "C2", "C3", "D",
    "Ex2.1", "Ex2.2", "L3.7", "L3.16", "S", "GDD",
}


def test_catalog_inventory():
    ids = [e.id for e in catalog_list()]
    assert len(ids) == 106
    assert len(set(ids)) == 106
    assert {e.table for e in catalog_list()} == EXPECTED_TABLES


def test_every_entry_loads_under_checksum():
    for e in catalog_list():
        assert e.text()  # would raise on checksum mismatch
        e.load()


def test_checksum_tamper_detection():
    e = catalog_get("Ex2.1")
    forged = dataclasses.replace(e, sha256="0" * 64, _obj=None)
    with pytest.raises(ValueError):
        forged.load()


def test_expected_blocks_match_type_arithmetic():
    for e in catalog_list():
        if e.kind == "gdd":
            assert e.expected_blocks is None
        else:
            assert e.expected_blocks == expected_block_count(e.type), e.id


def test_lookup_by_id_table_and_type():
    assert catalog_get("Ex2.1").id == "Ex2.1/3^7 1^1" or catalog_get("Ex2.1").table == "Ex2.1"
    assert catalog_get("L3.16").type == parse_type("3^13 16^1")
    assert catalog_get("5^5 2^1").table == "L3.7"
    assert catalog_get("9^4 4^1").table == "C1"
    # a type held by both a design entry and the GDD resolves to the design
    assert catalog_get("3^4").id == "S/3^4"
    assert catalog_get("GDD/3^4").kind == catalog_get("GDD").kind == "gdd"
    with pytest.raises(KeyError):
        catalog_get("A1")  # four entries share this table name
    with pytest.raises(KeyError):
        catalog_get("no-such-entry")


def test_each_design_type_has_one_entry():
    entries = [e for e in catalog_list() if e.kind != "gdd"]
    assert len({e.type for e in entries}) == len(entries)
    for e in entries:
        assert catalog_for_type(e.type) is e
    assert catalog_for_type(parse_type("3^100")) is None


def test_list_filters():
    assert len(catalog_list(table="C1")) == 9
    assert len(catalog_list(kind="gdd")) == 1
    assert {e.id for e in catalog_list(status="repaired")} == {
        "A5/3^7 7^1",
        "A5/3^11 7^1",
        "A6/3^9 8^1",
    }
    assert len(catalog_list(table="D")) == 6


def test_repaired_entries_document_the_defect():
    for e in catalog_list(status="repaired"):
        assert e.note, f"{e.id} repaired without a note"


def test_verify_entry_starter_kind():
    row = verify_entry(catalog_get("Ex2.2"))
    assert row.ok and not row.errors
    assert row.blocks == 150 == row.expected


def test_verify_entry_design_kind():
    row = verify_entry(catalog_get("S/1^8 3^1"))
    assert row.ok and row.kind == "design"


def test_verify_entry_gdd_kind():
    row = verify_entry(catalog_get("GDD/3^4"))
    assert row.ok and row.kind == "gdd"
    assert row.blocks == 9


@pytest.mark.parametrize(
    "key, field, wrong, message",
    [
        ("GDD/3^4", "type", parse_type("3^5"), "manifest type 3^5, file holds 3^4"),
        ("S/3^4", "type", parse_type("3^5"), "manifest type 3^5, entry develops to 3^4"),
        ("S/3^4", "expected_blocks", 28, "27 blocks, manifest expects 28"),
    ],
)
def test_verify_entry_names_a_manifest_mismatch(key, field, wrong, message):
    row = verify_entry(dataclasses.replace(catalog_get(key), **{field: wrong}))
    assert not row.ok and row.errors == [message]


def test_verify_entry_repaired_rows_pass():
    for e in catalog_list(status="repaired"):
        assert verify_entry(e).ok, e.id


def test_design_accessor_refuses_gdd():
    with pytest.raises(TypeError):
        catalog_get("GDD/3^4").design()


def test_derived_entries_name_their_oracle():
    for e in catalog_list(status="derived"):
        assert e.note, f"{e.id} has no generation note"
