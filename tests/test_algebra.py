"""Finite fields, Latin squares, transversal designs, GDD verification."""

import hashlib
import json

import pytest

from hsd.algebra import (
    GDD,
    divisors,
    gf,
    mols,
    mols_capacity,
    prime_factors,
    td,
    td_constructible,
    verify_gdd,
)
from hsd.core import parse_type
from oracles import check_orthogonal, is_latin_square


def test_prime_factors():
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(49) == {7: 2}


def test_divisors_match_brute_force():
    top = 5000
    sieve = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for multiple in range(d, top + 1, d):
            sieve[multiple].append(d)
    for n in range(1, top + 1):
        assert divisors(n) == sieve[n], n
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


# sha256 of json.dumps([add, mul]) for each field, recorded when every
# modulus came from a fixed table: the first-irreducible rule must pick it
FIELD_DIGESTS = {
    2: "eb374c239a915ab0cb686d49dec7c1be5c3a70338f7090d90829e52bc91af497",
    3: "bc0b374670218a300476b8457641bebbd1992ba1b214a7bacd82bba9fc74bac1",
    4: "559f09956e1ddb3d9425d0626cf3e47dc77392f65b46c5f6bf41976c74264e61",
    5: "e48277cf07becbe8ad9c4ea95f7a8c8dfe6ba19bc0910b3841261cdfdb3766f2",
    7: "e171f79966102eb0ecff7b012b35774319a5a8071b7cac0548f031325978eb2b",
    8: "b21ac862c3f06b598852feb50e8b033f3ab052f20e9402207907bd0469f75094",
    9: "79bb4cd8f52a31aa701959e41c288364385ff3d4044788e4d4c4f0357da07adc",
    11: "6a992e78445678a0f0e4282a3d733ab4a4b1a721fcc7f7f76d92b3cbeb0461c3",
    13: "05fb0d82089e0de7eee9ac583fbb8a77bfc5e98efea2f489d0a418728b2b97be",
    16: "f55fc9ff7c2051e46907f4ab2525ad072c5b224c0c0218377eae27f9584719a5",
    25: "bd1af02ecfa747e3eca14e9804e74687d037aa9b0dc99c88b607ada0511ae756",
    27: "b6c57edae35fabf7eb40addc6cc30b0622fdfc1c484bfc70578a242b630594a7",
    32: "07e33e11b09ebf04c2513d9eeb64a6fa0b0809e5e6deaa33fc496be706ec43de",
    49: "724368665479c6a6a7b508ddc504cc19311b9c2e02f7b85b53fc7f9b127aeb54",
    64: "304cb29736223800325c234791c33f7cab72b8882b88560dc52b5a09a4e0c2f5",
    81: "b9614211aadf4dcc6a27538b6feb7660712000668073bf6acbbcdf503ceed1ca",
}


@pytest.mark.parametrize("q", sorted(FIELD_DIGESTS))
def test_field_tables_are_frozen(q):
    digest = hashlib.sha256(json.dumps(gf(q)).encode()).hexdigest()
    assert digest == FIELD_DIGESTS[q]


@pytest.mark.parametrize("q", [*sorted(FIELD_DIGESTS), 121, 125, 128])
def test_field_axioms(q):
    add, mul = gf(q)
    els = range(q)  # 0 and 1 encode the field's zero and one
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a].count(0) == 1  # one negative
        if a:
            assert mul[a].count(1) == 1  # one inverse
        assert [add[b][a] for b in els] == list(add[a])
        assert [mul[b][a] for b in els] == list(mul[a])
        times_a = mul[a]
        for b in els:
            plus_ab = add[times_a[b]]
            # a(b + c) = ab + ac for every c
            assert [times_a[bc] for bc in add[b]] == [plus_ab[ac] for ac in times_a]


def test_gf_rejects_composite_orders():
    for q in (6, 12, 15):
        with pytest.raises(ValueError):
            gf(q)


def test_latin_square_predicate():
    assert is_latin_square([[0, 1], [1, 0]])
    assert not is_latin_square([[0, 1], [0, 1]])
    assert not is_latin_square([[0, 1], [1, 0], [0, 1]])


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 11, 12])
def test_mols_pairs(m):
    a, b = mols(m, 2)
    assert is_latin_square(a) and is_latin_square(b)
    assert check_orthogonal(a, b)


def test_mols_builds_every_order_it_claims():
    for m in range(1, 126):
        k = min(4, mols_capacity(m))
        if k >= 2:
            squares = mols(m, k)
            assert len(squares) == k, m
            assert {len(row) for sq in squares for row in sq} == {m} == {len(sq) for sq in squares}


def test_mols_capacity_and_limits():
    assert mols_capacity(5) == 4
    assert mols_capacity(9) == 8
    assert mols_capacity(12) >= 2
    assert mols_capacity(6) < 2          # no orthogonal pair of order 6
    for m in (2, 6):
        with pytest.raises(ValueError):
            mols(m, 2)
    with pytest.raises(ValueError):
        mols(5, 9)  # more squares than the construction can give


def test_mols_three_wide():
    squares = mols(8, 3)
    assert len(squares) == 3
    for i in range(3):
        assert is_latin_square(squares[i])
        for j in range(i + 1, 3):
            assert check_orthogonal(squares[i], squares[j])


def test_orthogonality_negative():
    a, _ = mols(4, 2)
    assert not check_orthogonal(a, a)


def test_td_shapes():
    g = td(4, 3)
    assert g.type == parse_type("3^4")
    assert len(g.blocks) == 9
    assert {len(b) for b in g.blocks} == {4}
    assert verify_gdd(g).ok

    g = td(6, 5)
    assert g.type == parse_type("5^6")
    assert len(g.blocks) == 25
    assert verify_gdd(g).ok


def test_td_availability_predicates():
    assert td_constructible(6, 5)
    assert td_constructible(6, 7)
    assert td_constructible(10, 9)
    assert not td_constructible(6, 4)   # would need 4 orthogonal squares of order 4
    assert not td_constructible(6, 12)


def test_td_rejects_unbuildable_parameters():
    with pytest.raises(ValueError):
        td(6, 6)


def test_gdd_accessors():
    g = GDD(groups=[(0, 1), (2, 3), (4, 5)], blocks=[(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])
    assert g.type == parse_type("2^3")
    assert g.points == (0, 1, 2, 3, 4, 5)
    assert {len(b) for b in g.blocks} == {3}
    assert verify_gdd(g).ok


def test_verify_gdd_flags_missing_and_double_coverage():
    g = GDD(groups=[(0, 1), (2, 3), (4, 5)], blocks=[(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])
    assert not verify_gdd(GDD(g.groups, g.blocks[:-1])).ok
    assert not verify_gdd(GDD(g.groups, list(g.blocks) + [(0, 2, 5)])).ok


def test_verify_gdd_flags_group_interior_pair():
    g = GDD(groups=[(0, 1), (2, 3)], blocks=[(0, 1)])
    assert not verify_gdd(g).ok


@pytest.mark.parametrize(
    "block, message",
    [((0, 2, 2), "block (0, 2, 2) repeats a point"), ((0, 2, 9), "block (0, 2, 9) uses unknown points")],
)
def test_verify_gdd_names_a_bad_block(block, message):
    g = GDD(groups=[(0, 1), (2, 3), (4, 5)], blocks=[(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])
    rep = verify_gdd(GDD(g.groups, list(g.blocks[1:]) + [block]))
    assert not rep.ok and rep.errors[0] == message


def test_bundled_gdd_entry_verifies():
    from hsd.catalog import catalog_get

    g = catalog_get("GDD/3^4").load()
    assert g.type == parse_type("3^4")
    assert verify_gdd(g).ok
