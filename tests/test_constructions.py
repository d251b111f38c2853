"""Multiplication, weighting, and hole-filling constructions."""

import pytest

from hsd.algebra import td
from hsd.catalog import catalog_get
from hsd.constructions import fill_holes_a, fill_holes_b, multiply, weight_inflate
from hsd.core import Design, expected_block_count, parse_type, verify_design


def _cat(key):
    return catalog_get(key).design()


def test_multiply_triples_a_small_design():
    d = multiply(_cat("S/3^4"), 3)
    assert d.type == parse_type("9^4")
    assert len(d.blocks) == 27 * 9 == expected_block_count(d.type)
    assert verify_design(d).ok


def test_multiply_by_one_is_identity_up_to_relabeling():
    base = _cat("S/3^4")
    d = multiply(base, 1)
    assert d.type == base.type
    assert len(d.blocks) == len(base.blocks)
    assert verify_design(d).ok


def test_multiply_carries_the_long_hole():
    d = multiply(_cat("Ex2.1"), 3)
    assert d.type == parse_type("9^7 3^1")
    assert len(d.blocks) == 945
    assert verify_design(d).ok


def test_multiply_rejects_orders_without_square_pairs():
    base = _cat("S/3^4")
    for m in (2, 6):
        with pytest.raises(ValueError):
            multiply(base, m)


def test_weight_inflate_unit_weights():
    g = td(4, 3)
    d = weight_inflate(g, {p: 1 for p in g.points}, {parse_type("1^4"): _cat("S/1^4")})
    assert d.type == parse_type("3^4")
    assert len(d.blocks) == 9 * 3
    assert verify_design(d).ok


def test_weight_inflate_uniform_weight_three():
    g = td(4, 3)
    d = weight_inflate(g, {p: 3 for p in g.points}, {parse_type("3^4"): _cat("S/3^4")})
    assert d.type == parse_type("9^4")
    assert len(d.blocks) == 9 * 27 == expected_block_count(parse_type("9^4"))
    assert verify_design(d).ok


def test_weight_inflate_mixed_weights():
    # zero weights shrink a block's ingredient type
    g = td(5, 4)
    weights = {}
    for gi, group in enumerate(g.groups):
        for k, p in enumerate(group):
            weights[p] = 0 if (gi == 4 and k > 0) else 3
    supply = {
        parse_type("3^5"): _cat("S/3^5"),
        parse_type("3^4"): _cat("S/3^4"),
    }
    d = weight_inflate(g, weights, supply)
    assert d.type == parse_type("12^4 3^1")
    assert verify_design(d).ok


def test_weight_inflate_dict_supply():
    # the supply is looked up by block type: an extra entry goes unused and
    # a missing one is a KeyError
    g = td(4, 3)
    weights = {p: 1 for p in g.points}
    supply = {parse_type("1^4"): _cat("S/1^4"), parse_type("3^4"): _cat("S/3^4")}
    assert verify_design(weight_inflate(g, weights, supply)).ok
    with pytest.raises(KeyError):
        weight_inflate(g, weights, {parse_type("3^4"): _cat("S/3^4")})


def test_weight_inflate_rejects_higher_index():
    from hsd.algebra import GDD

    g = GDD(groups=[(0, 1), (2, 3)], blocks=[(0, 2), (0, 3), (1, 2), (1, 3)], lam=2)
    with pytest.raises(ValueError):
        weight_inflate(g, {p: 1 for p in g.points}, {parse_type("1^4"): _cat("S/1^4")})


def test_fill_holes_a_with_kept_hole():
    d = fill_holes_a(_cat("C1/9^4 1^1"), 3, _cat("S/3^4"), keep_size=1)
    assert d.type == parse_type("3^12 4^1")
    assert len(d.blocks) == 369
    assert verify_design(d).ok


def test_fill_holes_a_block_arithmetic():
    # outer blocks survive untouched; each filled hole contributes one inner copy
    outer = _cat("C1/9^4 1^1")
    inner = _cat("S/3^4")
    d = fill_holes_a(outer, 3, inner, keep_size=1)
    assert len(d.blocks) == len(outer.blocks) + 4 * len(inner.blocks)


def test_fill_holes_a_type_mismatch():
    with pytest.raises(ValueError):
        # inner covers 9 + 3 points but its type must be 3^4 1^... of the
        # right shape; a 1^4 ingredient cannot tile a size-9 hole
        fill_holes_a(_cat("C1/9^4 1^1"), 3, _cat("S/1^4"), keep_size=1)


def test_fill_holes_a_refuses_unmatched_hole():
    # without keep_size the odd size-1 hole has no matching ingredient
    with pytest.raises(ValueError):
        fill_holes_a(_cat("C1/9^4 1^1"), 3, _cat("S/3^4"))


def _weighted_td65():
    # TD(6,5) with weights 3/3/3/3, one point of group five kept at 3, and
    # group six carrying 4+4: inflates to a design with two short hole sizes
    g = td(6, 5)
    weights = {}
    for gi, group in enumerate(g.groups):
        for k, p in enumerate(group):
            if gi < 4:
                weights[p] = 3
            elif gi == 4:
                weights[p] = 3 if k == 0 else 0
            else:
                weights[p] = 4 if k < 2 else 0
    supply = {
        parse_type("3^4"): _cat("S/3^4"),
        parse_type("3^5"): _cat("S/3^5"),
        parse_type("3^4 4^1"): _cat("S/3^4 4^1"),
        parse_type("3^5 4^1"): _cat("S/3^5 4^1"),
    }
    return weight_inflate(g, weights, supply)


def test_weighted_td_with_two_hole_sizes():
    d = _weighted_td65()
    assert d.type == parse_type("15^4 3^1 8^1")
    assert len(d.blocks) == 1017
    assert verify_design(d).ok


def test_fill_holes_b_two_hole_sizes():
    outer = _weighted_td65()
    inner_s = _cat("S/3^5")          # tiles each size-15 hole
    trivial = Design([(0, 1, 2)], [])  # a size-3 hole needs no blocks at all
    d = fill_holes_b(outer, 0, inner_s, trivial, keep_size=8)
    assert d.type == parse_type("3^21 8^1")
    assert len(d.blocks) == len(outer.blocks) + 4 * 45 == 1197
    assert verify_design(d).ok


def test_trivial_inner_design_verifies():
    t = Design([(0, 1, 2)], [])
    assert verify_design(t).ok
    assert t.type == parse_type("3^1")
