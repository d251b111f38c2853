"""Text formats: detection, parsing, canonical serialization, round trips."""

import pytest

from hsd.catalog import catalog_get
from hsd.core import Design, parse_type
from hsd.files import (
    detect_format,
    parse_design,
    parse_gdd,
    parse_starter,
    serialize_design,
    serialize_gdd,
    serialize_starter,
)


def test_detect_format():
    assert detect_format(catalog_get("Ex2.1").text()) == "starter"
    assert detect_format(catalog_get("S/1^4").text()) == "design"
    assert detect_format(catalog_get("GDD/3^4").text()) == "gdd"
    with pytest.raises(ValueError):
        detect_format("no magic here\n")


def test_design_round_trip():
    d = catalog_get("S/1^8 3^1").design()
    text = serialize_design(d)
    again = parse_design(text)
    assert again == d
    # canonical: serializing the reparse reproduces the text byte for byte
    assert serialize_design(again) == text


def test_starter_round_trip():
    ss = catalog_get("Ex2.2").load()
    text = serialize_starter(ss)
    again = parse_starter(text)
    assert again == ss
    assert serialize_starter(again) == text


def test_gdd_round_trip():
    g = catalog_get("GDD/3^4").load()
    text = serialize_gdd(g)
    again = parse_gdd(text)
    assert again.groups == g.groups
    assert sorted(again.blocks) == sorted(g.blocks)
    assert serialize_gdd(again) == text


def test_catalog_files_reserialize_identically():
    # bundled files are canonical except for their provenance comment line
    for key in ["Ex2.1", "A1/3^8 1^1", "D/4^22 34^1"]:
        text = catalog_get(key).text()
        stripped = "".join(
            line + "\n" for line in text.splitlines() if not line.startswith("#")
        )
        assert serialize_starter(parse_starter(text)) == stripped


def test_comment_lines_are_ignored():
    lines = serialize_design(catalog_get("S/1^4").design()).splitlines(keepends=True)
    text = "".join(lines[:1] + ["# scratch note\n"] + lines[1:])
    assert parse_design(text) == catalog_get("S/1^4").design()


def test_serialize_rejects_compound_points():
    # points are integers; a hand-built design with tuple points must be
    # refused rather than written unreadably
    with pytest.raises(ValueError):
        serialize_design(Design([[(0, 0), (0, 1)], [(1, 0), (1, 1)]], []))


EX21 = catalog_get("Ex2.1").text()


@pytest.mark.parametrize("form", ["x_1", "x_{1}", "x{1}"])
def test_label_forms_read_as_x1(form):
    ss = parse_starter(EX21.replace("starter: 0 1 5 x1", f"starter: 0 1 5 {form}"))
    assert ss == parse_starter(EX21)
    assert ss.starters[0] == (0, 1, 5, 21)  # x1 over Z_21 is the point 21


@pytest.mark.parametrize("form", ["x{1", "x1}", "x_{1", "x0", "x01"])
def test_malformed_label_is_rejected(form):
    with pytest.raises(ValueError, match="bad point token"):
        parse_starter(EX21.replace("starter: 0 1 5 x1", f"starter: 0 1 5 {form}"))


@pytest.mark.parametrize("entry", ["x2", "21", "-1"])
def test_starter_entry_outside_z_g_and_x1_to_xu_is_rejected(entry):
    # 21 would collide with the point that x1 stands for
    with pytest.raises(ValueError, match=f"entry {entry} outside Z_21 and x1..x1"):
        parse_starter(EX21.replace("starter: 0 1 5 x1", f"starter: 0 1 5 {entry}"))


@pytest.mark.parametrize("line", ["infinite: x2", "infinite: x1 x1", "infinite: 7"])
def test_infinite_line_must_list_x1_to_xu(line):
    with pytest.raises(ValueError, match="must list the labels x1..x"):
        parse_starter(EX21.replace("infinite: x1", line))


def test_design_labels_start_past_the_largest_integer():
    d = catalog_get("A1/3^8 1^1").design()
    assert d.label_base == 24 and d.holes[0] == (24,)
    text = serialize_design(d)
    assert "hole: x1\n" in text
    assert parse_design(text) == d


def test_parse_design_rejects_malformed_input():
    good = serialize_design(catalog_get("S/1^4").design())
    with pytest.raises(ValueError):
        parse_design(good.replace("design", "desgin", 1))
    with pytest.raises(ValueError):
        parse_design(good + "bogus: 1\n")
    # a block line with the wrong arity
    bad = good.replace("\nblock: ", "\nblock: 0 ", 1)
    assert bad != good
    with pytest.raises(ValueError):
        parse_design(bad)


def test_parse_starter_rejects_wrong_kind():
    with pytest.raises(ValueError):
        parse_starter(catalog_get("S/1^4").text())


def test_design_round_trip_survives_relabeled_large_entry():
    d = catalog_get("A7/3^8 10^1").design()
    assert parse_design(serialize_design(d)) == d


def test_second_line_for_a_single_key_is_rejected():
    text = EX21.replace("step: 1\n", "step: 1\nstep: 3\n")
    with pytest.raises(ValueError, match=r"line 7: second 'step' line \(the first is line 6\)"):
        parse_starter(text)


def test_bad_integer_names_its_line():
    with pytest.raises(ValueError, match="line 4: bad modulus 'abc'"):
        parse_starter(EX21.replace("modulus: 21", "modulus: abc"))


S14 = catalog_get("S/1^4").text()
GDD34 = catalog_get("GDD/3^4").text()


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (detect_format, "# a comment and nothing else\n", "empty file"),
        (parse_design, S14 + "no colon here\n", "line 12: expected 'key: value', got 'no colon here'"),
        (parse_design, S14.replace("type: 1^4", "type: 1^5"), "declared type 1^5 but the holes give 1^4"),
        (parse_design, S14.replace("points: 4", "points: 5"), "declared 5 points but the holes hold 4"),
        (parse_starter, EX21.replace("modulus: 21\n", ""),
         "starter file needs 'modulus:' and 'hole-size:' lines"),
        (parse_starter, EX21.replace("starter: 0 2 12 1", "starter: 0 2 12"),
         "line 9: starter needs 4 entries, got 3"),
        (parse_gdd, GDD34.replace("block: 0 3 6 9", "block: 0"), "line 10: block needs at least 2 points"),
        (parse_gdd, GDD34.replace("block: 0 3 6 9", "block: 0 3 6 x1"),
         "bad point token 'x1': expected an integer"),
        (parse_type, "0^3", "hole sizes and counts must be positive: '0^3'"),
        (parse_design, S14.replace("hole: 0\n", "hole:\n"), "empty hole"),
        (parse_design, "".join(line for line in S14.splitlines(True) if not line.startswith("hole:")),
         "a hole structure needs at least one hole"),
        (parse_starter, "hsd-starter v1\nmodulus: 10\nhole-size: 3\nstarter: 0 1 2 3\n",
         "modulus 10 is not a multiple of hole size 3"),
        (parse_gdd, GDD34.replace("group: 3 4 5", "group: 3 4 0"), "point 0 in two groups"),
    ],
    ids=["empty", "no-colon", "declared-type", "declared-points", "no-modulus", "short-starter",
         "one-point-block", "label-in-gdd", "zero-hole-size", "empty-hole", "no-hole",
         "modulus-not-a-multiple", "point-in-two-groups"],
)
def test_input_errors_name_the_problem(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message
