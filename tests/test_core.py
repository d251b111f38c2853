"""Block algebra, type arithmetic, feasibility, and the design verifier."""

import random
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import hsd.core as core_mod
from hsd.algebra import GDD, verify_gdd
from hsd.core import (
    MAX_ERRORS,
    Design,
    Diagnostics,
    HoleStructure,
    TypeSpec,
    block_forms,
    block_pairs,
    canonical_block,
    expected_block_count,
    is_feasible,
    pair,
    paper_region,
    parse_type,
    relabel,
    uniform_type,
    verify_design,
    VerificationReport,
)
from hsd.catalog import catalog_get
from hsd.constructions import fill_holes_a, multiply
from hsd.development import difference_census
from hsd.quasigroup import check_frame
from oracles import assert_reports_frozen


# --- blocks -----------------------------------------------------------------

def test_pair_is_order_free():
    assert pair(3, 1) == (1, 3)
    assert pair(1, 3) == (1, 3)
    assert pair(21, 5) == (5, 21)  # x1 over Z_21 is 21, after the finite points


def test_block_forms_are_the_four_rotations():
    forms = block_forms((1, 2, 3, 4))
    assert forms == ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def test_canonical_block_agrees_across_forms():
    b = (7, 2, 9, 4)
    c = canonical_block(b)
    for f in block_forms(b):
        assert canonical_block(f) == c
    assert canonical_block(c) == c


def test_block_pairs_colors():
    got = block_pairs((1, 2, 3, 4))
    assert got == [
        ((1, 2), 1),
        ((3, 4), 1),
        ((1, 3), 2),
        ((2, 4), 2),
        ((1, 4), 3),
        ((2, 3), 3),
    ]


def test_block_pairs_multiset_invariant_under_equivalence():
    b = (5, 21, 2, 8)
    want = sorted(map(repr, block_pairs(b)))
    for f in block_forms(b):
        assert sorted(map(repr, block_pairs(f))) == want


# points of Z_401 plus the long-hole points x1..x3, which are 401..403
points_st = st.lists(
    st.one_of(st.integers(0, 400), st.sampled_from([401, 402, 403])),
    min_size=4,
    max_size=4,
    unique=True,
)


@given(points_st)
def test_canonicalization_idempotent_property(pts):
    b = tuple(pts)
    c = canonical_block(b)
    assert canonical_block(c) == c
    assert c in block_forms(b)
    for f in block_forms(b):
        assert canonical_block(f) == c


# --- types ------------------------------------------------------------------

def test_parse_str_roundtrip():
    for text in ["3^8 2^1", "9^4 1^1", "1^12", "4^22 34^1", "15^4 3^1 8^1"]:
        t = parse_type(text)
        assert parse_type(str(t)) == t
        assert str(t) == text


def test_same_size_exponents_merge():
    # a long hole of size 3 is indistinguishable from another short hole
    assert parse_type("3^7 3^1") == parse_type("3^8")
    assert str(parse_type("3^7 3^1")) == "3^8"


def test_uniform_type():
    assert uniform_type(8, 2) == parse_type("3^8 2^1")
    assert uniform_type(8, 3) == parse_type("3^9")
    assert uniform_type(8, 0) == parse_type("3^8")
    assert uniform_type(4, 0, h=9) == parse_type("9^4")


def _grid_types():
    """Every type with one to three distinct sizes in 1..6, counts 1..6."""
    for k in (1, 2, 3):
        for sizes in combinations(range(1, 7), k):
            for counts in product(range(1, 7), repeat=k):
                yield TypeSpec.from_counts(dict(zip(sizes, counts)))


def _three_family_reference(t):
    """The prover's former reader of 3^n and 3^n u^1, kept as the
    reference for `TypeSpec.split(3)`."""
    items = dict(t.items)
    if set(items) == {3}:
        return items[3], 0
    if len(items) == 2 and 3 in items:
        (u,) = [s for s in items if s != 3]
        if items[u] == 1:
            return items[3], u
    return None


def test_split_matches_the_three_family_reference():
    types = list(_grid_types())
    assert len(types) == 4896
    for t in types:
        assert t.split(3) == _three_family_reference(t), t


def test_split_inverts_uniform_type():
    uniform = {(uniform_type(n, u, h=h), h)
               for h in range(1, 8) for n in range(1, 8) for u in range(8)}
    for t in _grid_types():
        for h in range(1, 8):
            nu = t.split(h)
            if nu is None:
                assert (t, h) not in uniform, (t, h)
            else:
                assert uniform_type(*nu, h=h) == t, (t, h)
    assert parse_type("3^8 2^1").split(3) == (8, 2)
    assert parse_type("2^5 3^1").split(2) == (5, 3)
    assert parse_type("9^4").split(9) == (4, 0)
    assert parse_type("3^8 2^2").split(3) is None
    assert parse_type("3^8 1^1 2^1").split(3) is None
    assert parse_type("1^5").split(3) is None


def test_of_and_from_counts():
    assert TypeSpec.of(3, 3, 3, 3) == parse_type("3^4")
    assert TypeSpec.of(3, 3, 1, 3, 3) == parse_type("3^4 1^1")
    assert TypeSpec.from_counts({3: 8, 2: 1}) == parse_type("3^8 2^1")


def test_points_and_hole_count():
    t = parse_type("3^8 2^1")
    assert t.points == 26
    assert t.holes == 9
    assert parse_type("9^4 1^1").points == 37


def test_parse_rejects_garbage():
    for bad in ["", "junk", "3^", "^4", "3^x"]:
        with pytest.raises(ValueError):
            parse_type(bad)


@given(st.dictionaries(st.integers(1, 40), st.integers(1, 9), min_size=1, max_size=5))
def test_parse_str_roundtrip_property(counts):
    t = TypeSpec.from_counts(counts)
    assert parse_type(str(t)) == t


# --- block count identity ---------------------------------------------------

# cross pairs / 2, spot values recomputed by hand from C(P,2) minus hole pairs
EXPECTED_COUNTS = {
    "3^7 1^1": 105,
    "3^8 2^1": 150,
    "3^8 1^1": 138,
    "9^4 1^1": 261,
    "5^5 2^1": 150,
    "3^13 16^1": 663,
    "3^12 4^1": 369,
    "9^7 3^1": 945,
    "3^21 8^1": 1197,
    "4^19 30^1": 2508,
    "1^4": 3,
}


def test_expected_block_count_spot_values():
    for text, n in EXPECTED_COUNTS.items():
        assert expected_block_count(parse_type(text)) == n, text


def test_expected_block_count_rejects_odd_cross():
    # 1^2 has a single cross pair; no integer block count exists
    with pytest.raises(ValueError):
        expected_block_count(parse_type("1^2"))


@given(st.dictionaries(st.integers(1, 20), st.integers(1, 6), min_size=1, max_size=4))
def test_expected_block_count_matches_pair_arithmetic(counts):
    t = TypeSpec.from_counts(counts)
    p = t.points
    cross = p * (p - 1) // 2 - sum(h * (h - 1) // 2 * k for h, k in t.items)
    if cross % 2:
        with pytest.raises(ValueError):
            expected_block_count(t)
    else:
        assert expected_block_count(t) == cross // 2


# --- feasibility ------------------------------------------------------------

def test_feasibility_spot_cells():
    assert is_feasible(8, 2).feasible
    assert is_feasible(4, 0).feasible
    assert is_feasible(5, 0).feasible
    assert is_feasible(13, 16).feasible
    assert not is_feasible(9, 1).feasible
    assert not is_feasible(6, 0).feasible   # n = 2 (mod 4), no u works
    assert not is_feasible(7, 0).feasible   # needs odd u here
    assert not is_feasible(3, 1).feasible   # too few short holes
    assert not is_feasible(4, 5).feasible   # long hole too big


def test_paper_region_lies_inside_feasibility():
    grid = [(n, u) for n in range(60) for u in range(-1, 60)]
    region = {cell for cell in grid if paper_region(*cell)}
    feasible = {cell for cell in grid if is_feasible(*cell).feasible}
    assert region <= feasible
    assert paper_region(8, 2) and paper_region(47, 15) and paper_region(45, 30)
    assert is_feasible(20, 22).feasible and not paper_region(20, 22)  # u > n, u > 15
    # with u <= n the theorem leaves out only its possible exceptions, the
    # 21 feasible cells at n = 29 and 43 past u = 15
    assert sorted((n, u) for n, u in feasible - region if u <= n) == (
        [(29, u) for u in range(16, 29, 2)] + [(43, u) for u in range(17, 44, 2)])


def test_feasibility_failure_names():
    assert is_feasible(9, 1).failed() == ["n(n + 2u - 1) = 0 (mod 4)"]
    assert "n >= 4" in is_feasible(3, 1).failed()
    assert "2u <= 3(n - 1)" in is_feasible(4, 5).failed()
    assert "u >= 0" in is_feasible(8, -1).failed()


def test_feasibility_report_bool():
    assert bool(is_feasible(8, 2))
    assert not bool(is_feasible(9, 1))


def test_n_two_mod_four_always_infeasible():
    for n in (6, 10, 14, 18, 22):
        for u in range(0, 3 * (n - 1) // 2 + 1):
            assert not is_feasible(n, u).feasible, (n, u)


def test_feasible_cells_admit_integer_block_count():
    for n in range(4, 30):
        for u in range(0, 50):
            if is_feasible(n, u).feasible:
                expected_block_count(uniform_type(n, u))  # must not raise


# --- hole structures and the verifier ---------------------------------------

def test_hole_structure_basics():
    st_ = HoleStructure([(0, 1, 2), (3, 4, 5), (6,)])
    assert st_.type() == parse_type("3^2 1^1")
    # hole indices are an internal ordering; only membership is contractual
    assert st_.hole_of(3) == st_.hole_of(4) != st_.hole_of(0)


def test_hole_structure_rejects_duplicate_points():
    with pytest.raises(ValueError):
        HoleStructure([(0, 1), (1, 2)])


def test_verify_accepts_bundled_small_design():
    d = catalog_get("S/1^4").design()
    rep = verify_design(d)
    assert rep.ok and not rep.errors
    assert len(d.blocks) == 3


def test_verify_flags_missing_block():
    d = catalog_get("S/1^4").design()
    rep = verify_design(Design(d.holes, d.blocks[:-1]))
    assert not rep.ok and rep.errors


def test_verify_flags_duplicate_block():
    d = catalog_get("S/1^4").design()
    rep = verify_design(Design(d.holes, list(d.blocks) + [d.blocks[0]]))
    assert not rep.ok


def test_verify_flags_degenerate_block():
    d = catalog_get("A1/3^8 1^1").design()
    a, b, _, c = d.blocks[0]
    rep = verify_design(Design(d.holes, list(d.blocks[:-1]) + [(a, b, a, c)]))
    assert not rep.ok


# --- one report for every checker -------------------------------------------
#
# The diagnostics below were recorded before the checkers shared a report
# type; the shared type must keep every message.

def _broken_ex21():
    """Ex2.1 (3^7 1^1) with one point of its first block moved to another
    point of the same hole; its starter set with the first starter's first
    two entries swapped; and GDD/3^4 with the last point of its first block
    taken from its second."""
    d = catalog_get("Ex2.1").design()
    blocks = list(d.blocks)
    assert blocks[0] == (0, 1, 5, 21)
    blocks[0] = (7, 1, 5, 21)
    ss = catalog_get("Ex2.1").load()
    w, x, y, z = ss.starters[0]
    starters = replace(ss, starters=((x, w, y, z),) + ss.starters[1:])
    g = catalog_get("GDD/3^4").load()
    gblocks = list(g.blocks)
    gblocks[0] = gblocks[0][:3] + gblocks[1][3:]
    assert gblocks[0] == (0, 3, 6, 10)
    return Design(d.holes, blocks), starters, GDD(g.groups, gblocks)


_DESIGN_ERRORS = [
    "pair (1, 7) covered 2 times in color 1",
    "pair (5, 7) covered 2 times in color 2",
    "pair (7, 21) covered 2 times in color 3",
    "pair (0, 1) missing in color 1",
    "pair (0, 5) missing in color 2",
    "pair (0, 21) missing in color 3",
]
_FRAME_ERRORS = [
    "product 1*7 defined 2 times",
    "product 7*1 defined 2 times",
    "row 0 is not a permutation of the points outside its hole",
    "column 0 is not a permutation of the points outside its hole",
    "row 1 is not a permutation of the points outside its hole",
    "column 1 is not a permutation of the points outside its hole",
    "row 5 is not a permutation of the points outside its hole",
    "row 7 is not a permutation of the points outside its hole",
]
_CENSUS_ERRORS = [
    "color 2: difference 4 realized 2 times, wants 1",
    "color 2: difference 5 realized 0 times, wants 1",
    "color 2: difference 16 realized 0 times, wants 1",
    "color 2: difference 17 realized 2 times, wants 1",
    "color 3: difference 4 realized 0 times, wants 1",
    "color 3: difference 5 realized 2 times, wants 1",
    "color 3: difference 16 realized 2 times, wants 1",
    "color 3: difference 17 realized 0 times, wants 1",
]
_GDD_ERRORS = [
    "pair {0, 9} in 0 blocks, wants 1",
    "pair {0, 10} in 2 blocks, wants 1",
    "pair {3, 9} in 0 blocks, wants 1",
    "pair {3, 10} in 2 blocks, wants 1",
    "pair {6, 9} in 0 blocks, wants 1",
    "pair {6, 10} in 2 blocks, wants 1",
]


def test_every_checker_returns_one_falsy_report_on_a_failure():
    design, starters, gdd = _broken_ex21()
    for check, obj, want in (
        (verify_design, design, _DESIGN_ERRORS),
        (check_frame, design, _FRAME_ERRORS),
        (difference_census, starters, _CENSUS_ERRORS),
        (verify_gdd, gdd, _GDD_ERRORS),
    ):
        rep = check(obj)
        assert isinstance(rep, VerificationReport), check.__name__
        assert not rep, check.__name__
        ok, errors = rep
        assert ok is False and rep[0] is False and rep.ok is False, check.__name__
        assert errors == rep[1] == rep.errors == want, check.__name__


def test_every_checker_returns_one_truthy_report_on_a_pass():
    e = catalog_get("Ex2.1")
    for rep in (verify_design(e.design()), check_frame(e.design()),
                difference_census(e.load()), verify_gdd(catalog_get("GDD/3^4").load())):
        assert isinstance(rep, VerificationReport) and rep
        assert tuple(rep) == (True, [])


def test_diagnostics_keep_the_first_messages():
    errors = Diagnostics()
    for i in range(MAX_ERRORS + 3):
        errors.note(f"problem {i}")
    assert errors == [f"problem {i}" for i in range(MAX_ERRORS)]


def test_diagnostics_count_what_they_drop():
    errors = Diagnostics()
    for i in range(MAX_ERRORS):
        errors.note(f"problem {i}")
    assert errors.dropped == 0
    errors.note("one too many")
    errors.note("two too many")
    assert errors.dropped == 2 and len(errors) == MAX_ERRORS


def _census_case(name):
    """A broken starter set and the number of census problems it has."""
    ss = catalog_get(name.split(":")[0]).load()
    starters = list(ss.starters)
    if name == "Ex2.1:one swap":
        starters[0] = (1, 0, 5, 21)  # as in _broken_ex21
        return replace(ss, starters=tuple(starters)), 8
    if name == "Ex2.1:two swaps":
        starters[0], starters[1] = (1, 0, 5, 21), (2, 0, 12, 1)
        return replace(ss, starters=tuple(starters)), 16
    assert starters[0] == (0, 1, 2, 33)
    starters[0] = (0, 1, 33, 2)
    return replace(ss, starters=tuple(starters)), 8


@pytest.mark.parametrize("name", ["Ex2.1:one swap", "Ex2.1:two swaps", "A1/3^11 1^1"])
def test_census_says_suppressed_only_when_a_problem_was_dropped(monkeypatch, name):
    ss, problems = _census_case(name)
    with monkeypatch.context() as m:
        m.setattr(core_mod, "MAX_ERRORS", 100)
        assert len(difference_census(ss).errors) == problems
    errors = difference_census(ss).errors
    suppressed = "... further problems suppressed"
    if problems > MAX_ERRORS:
        assert len(errors) == MAX_ERRORS + 1 and errors[-1] == suppressed
    else:
        assert len(errors) == problems and suppressed not in errors


def test_design_equality_ignores_block_form_and_order():
    d = catalog_get("S/1^4").design()
    shuffled = [block_forms(b)[i % 4] for i, b in enumerate(reversed(d.blocks))]
    assert Design(d.holes, shuffled) == d


def test_relabel_to_integers():
    d = catalog_get("A1/3^8 1^1").design()  # has an x1 label
    r = relabel(d)
    assert r.points == tuple(range(25))
    assert verify_design(r).ok
    assert len(r.blocks) == len(d.blocks)


def test_relabel_with_explicit_mapping_preserves_verification():
    d = catalog_get("S/1^4").design()
    perm = {p: (p * 3 + 1) % 11 for p in d.points}
    r = relabel(d, perm)
    assert verify_design(r).ok


# --- both checkers on valid and damaged designs -------------------------------
#
# verify_design and check_frame each certify a valid design in one pass and
# explain a failure from what that pass recorded.  The digests below freeze
# every (ok, errors) of both checkers on the damage sets; they were recorded
# when each checker still wrote its messages in a second, cell-by-cell or
# pair-counting pass, so they pin that pass's messages and their order.  The
# two checkers must also reach the same verdict on every design.

@lru_cache(maxsize=None)
def _valid_designs():
    s34 = catalog_get("S/3^4").design()
    spread = {p: 5 * p + 3 for p in s34.points}  # points not 0..P-1
    return (
        catalog_get("S/1^4").design(),
        catalog_get("Ex2.1").design(),  # long-hole point 21
        relabel(s34, spread),
        multiply(s34, 3),
        fill_holes_a(catalog_get("C1/9^4 1^1").design(), 3, s34, keep_size=1),
    )


def _drop(holes, blocks, rng):
    del blocks[rng.randrange(len(blocks))]


def _duplicate(holes, blocks, rng):
    blocks.append(rng.choice(blocks))


def _drop_and_duplicate(holes, blocks, rng):
    # the block count still matches; only the coverage is wrong
    i, j = rng.sample(range(len(blocks)), 2)
    blocks[i] = blocks[j]


def _meet_a_hole_twice(holes, blocks, rng):
    i = rng.randrange(len(blocks))
    blk = list(blocks[i])
    hole = next((h for h in holes if blk[0] in h), holes[0])  # blk[0] may be unknown
    blk[rng.randrange(1, 4)] = rng.choice(hole)  # may repeat blk[0] itself
    blocks[i] = tuple(blk)


def _move_point_across_holes(holes, blocks, rng):
    src, dst = rng.sample(range(len(holes)), 2)
    holes[dst].append(holes[src].pop(rng.randrange(len(holes[src]))))
    holes[:] = [h for h in holes if h]


def _use_unknown_point(holes, blocks, rng):
    top = max(p for h in holes for p in h)
    i = rng.randrange(len(blocks))
    blk = list(blocks[i])
    blk[rng.randrange(4)] = rng.choice([-1, top + 1, top + 7])
    blocks[i] = tuple(blk)


def _swap_points_between_blocks(holes, blocks, rng):
    i, j = rng.sample(range(len(blocks)), 2)
    bi, bj = list(blocks[i]), list(blocks[j])
    ki, kj = rng.randrange(4), rng.randrange(4)
    bi[ki], bj[kj] = bj[kj], bi[ki]
    blocks[i], blocks[j] = tuple(bi), tuple(bj)


MUTATIONS = (
    _drop,
    _duplicate,
    _drop_and_duplicate,
    _meet_a_hole_twice,
    _move_point_across_holes,
    _use_unknown_point,
    _swap_points_between_blocks,
)


def _mutated(d, mutations, seed):
    rng = random.Random(seed)
    holes = [list(h) for h in d.holes]
    blocks = list(d.blocks)
    for mutate in mutations:
        if len(blocks) >= 2 and len(holes) >= 2:  # what every mutation needs
            mutate(holes, blocks, rng)
    return Design(holes, blocks)


def test_verifiers_agree_on_valid_designs():
    s14 = catalog_get("S/1^4").design()
    floated = Design(s14.holes, [(0, 1.0, 2, 3)] + list(s14.blocks[1:]))  # passes at 1.0 == 1
    assert isinstance(floated.blocks[0][1], float)
    for d in _valid_designs() + (floated,):
        assert verify_design(d) == (True, []) and check_frame(d) == (True, [])


DAMAGE_DIGESTS = {
    "drop": {
        "verify_design": "bcddd81a702256c131a3e5e2b1cd25d35a988e6b795de26331d645a8eca657b2",
        "check_frame": "95981bae6a64c4480dc5418654e0e1abe835e78daedb81a2cc4797450d117b00",
    },
    "duplicate": {
        "verify_design": "525bfe41cf9525caa675dfd76ad475ef8b8d1b00cc7f63ec20d2caad7ef8a37f",
        "check_frame": "7a37fece325092534feeb9360b7683c9bc9afce5d7591e44391d2e0f081944e3",
    },
    "drop_and_duplicate": {
        "verify_design": "a6eb3bf517ecb5cf9af8123a0023d741785e043c9a2e51310f57dd9bf6bb652f",
        "check_frame": "2c82cbd6e68247bdd88efc242ed072b67f8f6ca6a1a18357d93a6590eb600bed",
    },
    "meet_a_hole_twice": {
        "verify_design": "cbb63f00c8174ba02b838425c7dfd0dc5938e2cee0ddc923208fc9869e609aa9",
        "check_frame": "d0f3c3ac9e709b189780225553580faedd562e71643639a3748ecc6573b1f9ae",
    },
    "move_point_across_holes": {
        "verify_design": "d057965eafaaf457d4d1d51aff5a932311d807cb8d027039f8984411836498d1",
        "check_frame": "8de613581cdcb834f7db04d552c712f69287dc60b796d0faf51a40d311d41c32",
    },
    "use_unknown_point": {
        "verify_design": "152b549d63b3785d07b05905b88b13d6c3a9cface84288967cd9059163fad39a",
        "check_frame": "94af0dcced81ba627c32f7c57dc8aa797ea58058b627182d69bf3e438a09d70b",
    },
    "swap_points_between_blocks": {
        "verify_design": "39fe8d8eedf85e48020de03ca7248e94bdf4866d5ca505a13c894fb9e8d576cc",
        "check_frame": "58cf3905f94730864927fb5bfb61cdbac66a7efe480f65e68397968e2af54059",
    },
}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__.strip("_"))
def test_verifiers_agree_on_each_damage(mutate):
    damaged = [_mutated(d, [mutate], seed) for d in _valid_designs() for seed in range(3)]
    assert_reports_frozen(damaged, DAMAGE_DIGESTS[mutate.__name__.strip("_")])
    if mutate is not _swap_points_between_blocks:  # a swap may change nothing
        assert not any(verify_design(d).ok for d in damaged)


PARITY_DIGESTS = {
    "verify_design": "88e553f8fb8e81294d46969a8e783364f70662e83874598959398f7e8feafdb0",
    "check_frame": "3bb857a3b8e108bc3511d45db003ac2fce7c9a51f659483c6cd2e054be0fa097",
}


def test_verifiers_agree_on_parity_impossible_types():
    s14 = catalog_get("S/1^4").design()
    designs = [
        Design([(0,), (1,), (2,)], []),  # 1^3: three cross pairs
        Design([(0, 1), (2,), (3,)], s14.blocks),  # 2^1 1^2: five cross pairs
    ]
    for d in designs:
        with pytest.raises(ValueError):
            expected_block_count(d.type)
        rep = verify_design(d)
        assert not rep.ok and "odd cross-pair count" in rep.errors[0]
    assert_reports_frozen(designs, PARITY_DIGESTS)


@given(
    st.integers(0, 4),
    st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_verifiers_agree_on_mutated_designs(base, mutations, seed):
    d = _mutated(_valid_designs()[base], mutations, seed)
    assert verify_design(d).ok == check_frame(d).ok


def _random_block_fuzz(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        pts = rng.sample(range(600), 4)
        if rng.random() < 0.2:
            pts[rng.randrange(4)] = 599 + rng.randint(1, 3)  # x1..x3 over Z_600
        b = tuple(pts)
        c = canonical_block(b)
        assert canonical_block(c) == c
        assert {canonical_block(f) for f in block_forms(b)} == {c}


def test_canonicalization_fuzz_small():
    # the full 10^4-case sweep lives in the acceptance suite
    _random_block_fuzz(7, 500)
