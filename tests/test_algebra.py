"""Finite fields, Latin squares, transversal designs, GDD verification."""

import pytest

from hsd import algebra
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


@pytest.mark.parametrize("q", sorted({2, 3, 5, 7, *algebra._IRREDUCIBLE}))
def test_field_axioms(q):
    f = gf(q)
    els = range(q)  # 0 and 1 encode the field's zero and one
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert [f.add(a, b) for b in els].count(0) == 1  # one negative
        if a:
            assert [f.mul(a, b) for b in els].count(1) == 1  # one inverse
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            ab, times_a = f.mul(a, b), f.mul_table[a]
            for c, bc in enumerate(f.add_table[b]):
                assert times_a[bc] == f.add(ab, times_a[c])  # a(b + c) = ab + ac


def test_gf_rejects_a_reducible_modulus(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2), so x + 1 has no inverse
    monkeypatch.setitem(algebra._IRREDUCIBLE, 4, (1, 0, 1))
    with pytest.raises(ValueError, match="modulus for GF\\(4\\) is reducible"):
        algebra.GF(4)


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


def test_bundled_gdd_entry_verifies():
    from hsd.catalog import catalog_get

    g = catalog_get("GDD/3^4").load()
    assert g.type == parse_type("3^4")
    assert verify_gdd(g).ok
