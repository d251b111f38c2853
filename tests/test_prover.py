"""Existence prover: rule chain, materialization, and the bounded table."""

import dataclasses
import hashlib
import itertools
import random

import pytest

import hsd.prover as prover_mod
from hsd.algebra import td_constructible
from hsd.catalog import catalog_list
from hsd.core import (
    Design,
    TypeSpec,
    expected_block_count,
    is_feasible,
    paper_region,
    parse_type,
    uniform_type,
    verify_design,
)
from hsd.files import serialize_design
from hsd.prover import (
    EXISTS,
    INFEASIBLE,
    UNKNOWN_HERE,
    Outcome,
    Prover,
    prove_type,
    table,
)
from hsd.quasigroup import check_frame


@pytest.fixture(scope="module")
def prover():
    # one shared instance so the memo and design cache carry across tests
    return Prover()


def test_prove_infeasible_cell(prover):
    out = prover.prove(9, 1)
    assert out.verdict == INFEASIBLE
    assert not out
    assert out.report is not None
    assert out.report.failed() == ["n(n + 2u - 1) = 0 (mod 4)"]


def test_prove_via_filling(prover):
    out = prover.prove(12, 4)
    assert out.verdict == EXISTS and out
    assert out.recipe.rule == "R-FILL-A"
    assert dict(out.recipe.params) == {"s": 3, "m": 4, "v": 3, "w": 1}
    d = prover.materialize(out.recipe)
    assert len(d.blocks) == 369
    assert d.type == parse_type("3^12 4^1")
    assert verify_design(d).ok


def test_fill_b_sizes_its_shapes_by_the_type():
    # the outer 39^4 3^1 12^1 has s = 13; shapes stopped at s = 12 before
    pv = Prover()
    out = pv.prove(53, 12)
    assert out.verdict == EXISTS and out.recipe.rule == "R-FILL-B"
    assert dict(out.recipe.params) == {"s": 13, "m": 4, "t": 1, "v": 0, "w": 12}
    d = pv.materialize(out.recipe)
    assert len(d.blocks) == 7155 and d.type == parse_type("3^53 12^1")
    assert verify_design(d).ok and check_frame(d).ok


def test_prove_via_catalog(prover):
    out = prover.prove(13, 16)
    assert out.verdict == EXISTS
    assert out.recipe.rule == "R-CAT"
    assert out.paper_backed
    d = prover.materialize(out.recipe)
    assert len(d.blocks) == 663


def test_prove_unknown_with_frontier_note(prover):
    out = prover.prove(29, 16)
    assert out.verdict == UNKNOWN_HERE
    assert out.recipe is None
    assert any("blocked on unsettled ingredients" in n for n in out.notes)


def test_derived_recipes_are_not_paper_backed(prover):
    out = prover.prove(12, 4)
    assert not out.paper_backed  # leaf 3^4 comes from a derived search entry


def test_resolve_search_rule(prover):
    out = prover.resolve(parse_type("2^5"))
    assert out.verdict == EXISTS
    assert out.recipe.rule == "R-SEARCH"
    d = prover.materialize(out.recipe)
    assert len(d.blocks) == expected_block_count(parse_type("2^5")) == 20
    assert verify_design(d).ok


def test_search_recipe_replays_in_a_fresh_prover():
    # the shared prover caches the searched design; a fresh one must rerun it
    recipe = Prover().resolve(parse_type("2^5")).recipe
    d = Prover().materialize(recipe)
    assert d.type == parse_type("2^5") and len(d.blocks) == 20


def test_resolve_exhausted_search_stays_unknown(prover):
    out = prover.resolve(parse_type("1^5"))
    assert out.verdict == UNKNOWN_HERE
    assert any("exhaustive search" in n for n in out.notes)


def test_resolve_infeasible_three_family_types(prover):
    for text in ["3^6", "3^9 1^1", "3^3 1^1"]:
        out = prover.resolve(parse_type(text))
        assert out.verdict == INFEASIBLE, text


def test_resolve_tdw_rule(prover):
    out = prover.resolve(parse_type("15^4 3^1 8^1"))
    assert out.verdict == EXISTS
    assert out.recipe.rule == "R-TDW"
    d = prover.materialize(out.recipe)
    assert len(d.blocks) == 1017
    assert verify_design(d).ok


def test_resolve_nine_family_rule(prover):
    out = prover.resolve(parse_type("9^9 20^1"))
    assert out.verdict == EXISTS
    assert out.recipe.rule == "R-9FAM"
    d = prover.materialize(out.recipe)
    assert len(d.blocks) == expected_block_count(parse_type("9^9 20^1")) == 2268
    assert verify_design(d).ok


# The weight readings as they stood before one weight list per rule fed
# planning, building and inflation; kept as references.

def _reference_tdw_shapes(t):
    items = dict(t.items)
    out = []
    for size in sorted(items):
        if size % 3 or items[size] not in (4, 5):
            continue
        m = size // 3
        if m < 4 or not td_constructible(6, m):
            continue
        rest = sorted(s for s in items if s != size)
        if any(items[s] != 1 for s in rest) or len(rest) > 2:
            continue
        if items[size] == 5:
            options = [(m, 0)] if not rest else ([(m, rest[0])] if len(rest) == 1 else [])
        elif not rest:
            options = [(0, 0)]
        elif len(rest) == 1:
            x = rest[0]
            options = ([(x // 3, 0)] if x % 3 == 0 and x // 3 <= m else []) + [(0, x)]
        else:
            x, y = rest
            options = [(kk // 3, uu) for kk, uu in ((x, y), (y, x))
                       if kk % 3 == 0 and kk // 3 <= m]
        out.extend((m, k, u) for k, u in options if not (u % 2 or u > 4 * m))
    return out


def _reference_tdw_ingredients(m, k, u):
    fours, rem = divmod(u, 4)
    g6 = [4] * fours + ([2] if rem else [])
    w6 = set(g6 + [0] * (m - len(g6)))
    w5 = ({3} if k > 0 else set()) | ({0} if k < m else set())
    needed = {TypeSpec.of(*[3, 3, 3, 3] + ([a] if a else []) + ([b] if b else []))
              for a in w5 for b in w6}
    return sorted(needed, key=str)


def test_tdw_shapes_and_ingredients_match_the_reference():
    checked = shapes_seen = 0
    others = [()] + [(x,) for x in range(1, 60)] + list(
        itertools.combinations_with_replacement(range(1, 60), 2))
    for m in range(4, 14):
        for count in (4, 5):
            for extra in others:
                t = TypeSpec.of(*[3 * m] * count, *extra)
                if t.points > 300:
                    continue
                shapes = list(prover_mod._tdw_shapes(t))
                assert shapes == _reference_tdw_shapes(t), t
                for mm, k, u in shapes:
                    groups = prover_mod._tdw_groups(mm, k, u)
                    assert TypeSpec.of(*(s for s in map(sum, groups) if s)) == t
                    assert all(len(g) == mm for g in groups)
                    got = sorted(prover_mod._td_ingredients(groups), key=str)
                    assert got == _reference_tdw_ingredients(mm, k, u), (t, mm, k, u)
                    shapes_seen += 1
                checked += 1
    assert checked > 20_000 and shapes_seen > 1_000


def test_nine_family_ingredients_match_the_reference():
    for k in range(10):
        want = ([parse_type("1^9 4^1")] if k > 0 else []) + (
            [parse_type("1^9 2^1")] if k < 9 else [])
        groups = prover_mod._9fam_groups(k)
        assert prover_mod._td_ingredients(groups) == want
        assert TypeSpec.of(*map(sum, groups)) == uniform_type(9, 18 + 2 * k, 9)


def test_weighted_td_ingredients_are_catalog_entries():
    # why R-TDW and R-9FAM never note an unsettled ingredient: every type a
    # weighting can ask for is in the catalog
    tdw = {TypeSpec.of(3, 3, 3, 3, *(w for w in extra if w)) for extra in
           itertools.product((0, 3), (0, 2, 4))}
    nine = {parse_type("1^9 2^1"), parse_type("1^9 4^1")}
    asked = {}  # the ingredients depend on each group's set of weights alone
    for m in range(4, 40):
        for k in range(m + 1):
            for u in range(0, 4 * m + 1, 2):
                groups = prover_mod._tdw_groups(m, k, u)
                weights = tuple(map(frozenset, groups))
                if weights not in asked:
                    asked[weights] = prover_mod._td_ingredients(groups)
    assert set().union(*asked.values()) == tdw
    for k in range(10):
        assert set(prover_mod._td_ingredients(prover_mod._9fam_groups(k))) <= nine
    pv = Prover()
    for t in sorted(tdw | nine, key=str):
        out = pv.resolve(t)
        assert out.verdict == EXISTS and out.recipe.rule == "R-CAT", t


@pytest.mark.parametrize("text, rule, digest", [
    # recorded before one weight list per rule fed planning and building
    ("3^51 49^1", "R-TDW", "cdaeddd7f024dd6dbe26389593fb2318293ab3004a2fd0142c388776ff062357"),
    # its sixth group mixes weights 4 and 2
    ("3^51 43^1", "R-TDW", "e3e9267c010e19a190ba2ff45a791ba8810be2c9c71ada0bb055adf7abcab902"),
    ("3^27 31^1", "R-9FAM", "d8b2590192cc24f55f7ca51a2efce45c50d4ecbe6e195b4a987f2bc52e028006"),
], ids=["tdw", "tdw-mixed", "9fam"])
def test_weighted_designs_are_frozen(text, rule, digest):
    out, d = prove_type(text, materialize=True, large=True)
    assert rule in out.recipe.describe()
    assert hashlib.sha256(serialize_design(d).encode()).hexdigest() == digest


def test_desk_scale_cap(prover):
    out = prover.resolve(parse_type("3^88 125^1"))
    assert out.verdict == UNKNOWN_HERE
    assert any("beyond scale cap" in n for n in out.notes)


def test_cap_comes_after_trivial_types_and_feasibility():
    out = Prover().resolve(parse_type("3^101 1^1"))
    assert out.verdict == INFEASIBLE == Prover().prove(101, 1).verdict
    out = Prover().resolve(parse_type("400^1"))
    assert out.verdict == EXISTS and out.recipe.rule == "R-TRIV"


def test_9fam_needs_one_long_hole():
    # R-9FAM weights a TD(10, 9) into 9^9 u^1; a long hole that repeats is
    # another type, which the rule must leave alone
    for text in ["9^9 20^2", "9^9 18^3", "9^9 36^2"]:
        assert Prover().resolve(parse_type(text)).verdict == UNKNOWN_HERE, text
    out = Prover().resolve(parse_type("9^9 20^1"))
    assert out.verdict == EXISTS and out.recipe.rule == "R-9FAM"
    assert dict(out.recipe.params) == {"k": 1}


def test_prove_and_resolve_agree_beyond_the_cap():
    cap = Prover().max_points
    cells = [(n, u) for n in range(4, 121) for u in range(46) if 3 * n + u > cap]
    assert len(cells) == 1280
    for n, u in cells:
        assert Prover().prove(n, u).verdict == Prover().resolve(uniform_type(n, u)).verdict, (n, u)


def test_resolve_takes_every_design_entry_from_the_catalog():
    for e in catalog_list():
        if e.kind != "gdd":
            recipe = Prover().resolve(e.type).recipe
            assert recipe.rule == "R-CAT" and dict(recipe.params)["id"] == e.id, e.id


def test_large_scale_plan():
    big = Prover(large=True)
    out = big.prove(88, 125)
    assert out.verdict == EXISTS
    assert out.recipe.rule == "R-FILL-A"


def test_trivial_types(prover):
    for text in ["3^1", "7^1"]:
        out = prover.resolve(parse_type(text))
        assert out.verdict == EXISTS
        assert out.recipe.rule == "R-TRIV"
        d = prover.materialize(out.recipe)
        assert d.type == parse_type(text)
        assert len(d.blocks) == 0
        assert verify_design(d).ok


def test_default_prover_bounds_searches_by_nodes_only():
    # no module but the CLI reads the clock (tests/test_imports.py), so
    # only the node budget can stop the search
    out = Prover(search_nodes=1000).resolve(parse_type("1^7 3^1"))
    assert out.verdict == UNKNOWN_HERE
    assert out.notes == ("search hit its budget (1001 nodes)",)


def test_odd_cross_pair_types_run_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("search_direct called")

    monkeypatch.setattr(prover_mod, "search_direct", no_search)
    for text, cross in (("1^6 2^1", 27), ("1^7", 21), ("1^6", 15), ("1^7 2^1", 35)):
        out = Prover().resolve(parse_type(text))
        assert out.verdict == UNKNOWN_HERE
        assert out.notes == (f"type {text} has an odd cross-pair count {cross}, so no "
                             "design exists; verdict stays UNKNOWN_HERE by policy",)


def test_searched_designs_are_verified(monkeypatch):
    # a search that hands back a design one block short must not get past
    # materialize, whether the design came from the plan or a replay
    real = prover_mod.search_direct

    def one_block_short(t, **kwargs):
        res = real(t, **kwargs)
        if res:
            d = res.design
            res = dataclasses.replace(res, design=Design(d.structure, d.blocks[1:]))
        return res

    monkeypatch.setattr(prover_mod, "search_direct", one_block_short)
    with pytest.raises(AssertionError, match="failed verification"):
        prove_type("1^5 2^1", materialize=True)


def test_resolve_calls_are_frozen(monkeypatch):
    # the sequence of resolve calls that plans table(30, 45), recorded
    # before the two filling rules shared one loop
    calls = []
    resolve = Prover.resolve

    def record(self, t):
        calls.append(str(t))
        return resolve(self, t)

    monkeypatch.setattr(Prover, "resolve", record)
    tab = table(30, 45, prover=Prover(search_nodes=50_000))
    assert len(calls) == 4465
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert digest == "18abc51368f81bf47ad370c7f24af3f49e30a6d94a094f76d4816957112b64d0"
    assert len(tab.unknown_cells()) == 50
    # and what the plan says of each cell: the CSV and every verdict's
    # description, recorded before the three gates moved into _resolve
    report = tab.to_csv() + "\n".join(o.describe() for _, o in sorted(tab.cells.items()))
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == "1f357fc9bc575cb034f570d57196ad926e8b8ba5018eba7aa8c328ced2904dff"


# The undecided cells of table(45, 45) inside the paper's theorem region,
# recorded when `paper_region` was added (the same 29 at 2,000 and at
# 50,000 search nodes).  A change that settles one of them shrinks this
# list; a change that unsettles a cell fails.
OPEN_IN_REGION_45 = [
    (16, 3), (17, 0), (17, 6), (17, 12), (19, 1), (19, 9), (19, 15), (23, 1),
    (23, 9), (23, 15), (23, 21), (24, 1), (24, 23), (27, 1), (27, 3), (27, 5),
    (27, 7), (28, 0), (28, 2), (29, 6), (29, 12), (31, 1), (43, 1), (43, 5),
    (43, 7), (43, 9), (43, 11), (43, 13), (43, 15),
]


def test_undecided_cells_in_the_paper_region_only_shrink():
    tab = table(45, 45, prover=Prover(search_nodes=2_000))
    inside = [cell for cell in tab.unknown_cells() if paper_region(*cell)]
    assert set(inside) <= set(OPEN_IN_REGION_45)


def test_no_rule_reenters_a_type_it_is_resolving(monkeypatch):
    # resolve keeps no guard against a type that needs itself; this is why
    # it does not need one
    stack, reentered = set(), []
    resolve = Prover._resolve

    def tracked(self, t):
        if t in stack:
            reentered.append(str(t))
            return Outcome(UNKNOWN_HERE, t)  # cut the cycle so the plan ends
        stack.add(t)
        try:
            return resolve(self, t)
        finally:
            stack.discard(t)

    monkeypatch.setattr(Prover, "_resolve", tracked)
    table(45, 45, prover=Prover(search_nodes=2_000))
    assert reentered == []


def test_a_recipe_materializes_in_any_prover():
    # the replay runs on the recipe's own seed and node count, not on the
    # search budget of the prover that materializes it
    t = parse_type("1^5 2^1")
    recipe = Prover().resolve(t).recipe
    assert recipe.rule == "R-SEARCH" and dict(recipe.params)["nodes"] == 81
    d = Prover(search_nodes=50).materialize(recipe)
    assert d.type == t and verify_design(d).ok


def test_search_seconds_takes_only_none():
    with pytest.raises(ValueError, match="bounded by nodes only"):
        Prover(search_seconds=5)
    out = Prover(search_seconds=None).resolve(parse_type("1^5"))
    assert out.verdict == UNKNOWN_HERE
    assert out.notes[0].startswith("exhaustive search: no design of type 1^5 exists (43 nodes)")


def test_recipes_are_deterministic_across_instances():
    sample = ["3^12 4^1", "3^21 8^1", "9^9 20^1", "3^16 9^1"]
    a, b = Prover(), Prover()
    for text in sample:
        t = parse_type(text)
        ra = a.resolve(t)
        rb = b.resolve(t)
        assert ra.verdict == rb.verdict
        if ra.recipe is not None:
            assert ra.recipe.describe() == rb.recipe.describe()


def test_no_exists_on_infeasible_cells(prover):
    # cheap sweep: every infeasible cell must come back INFEASIBLE, and the
    # prove() gate must never contradict the arithmetic
    checked = 0
    for n in range(0, 40):
        for u in range(0, 40):
            if is_feasible(n, u).feasible:
                continue
            out = prover.prove(n, u)
            assert out.verdict == INFEASIBLE, (n, u)
            checked += 1
    assert checked > 900


def test_sampled_exists_cells_materialize(prover):
    rng = random.Random(404)
    cells = [
        (n, u)
        for n in range(4, 22)
        for u in range(0, 16)
        if is_feasible(n, u).feasible
    ]
    for n, u in rng.sample(cells, 12):
        out = prover.prove(n, u)
        if out.verdict != EXISTS:
            continue  # undecided cells are exercised elsewhere
        d = prover.materialize(out.recipe)
        t = uniform_type(n, u)
        assert d.type == t
        assert len(d.blocks) == expected_block_count(t)
        assert verify_design(d).ok


def test_outcome_describe_mentions_rules(prover):
    text = prover.prove(12, 4).describe()
    assert "EXISTS" in text and "R-FILL-A" in text
    text = prover.prove(9, 1).describe()
    assert "INFEASIBLE" in text


# --- the bounded existence table ---------------------------------------------

def test_table_matches_feasibility(prover):
    tb = table(13, 15, prover=prover)
    assert tb.ok
    for (n, u), out in tb.cells.items():
        want = EXISTS if is_feasible(n, u).feasible else INFEASIBLE
        assert out.verdict == want, (n, u)


def test_table_text_layout(prover):
    text = table(6, 4, prover=prover).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("type 3^n u^1")
    assert any(line.startswith("n=") for line in lines)


def test_table_csv_identical_between_plan_and_materialize():
    csv_plan = table(8, 8).to_csv()
    csv_mat = table(8, 8, materialize=True).to_csv()
    assert csv_plan == csv_mat
    header = csv_plan.splitlines()[0]
    assert header == "n,u,verdict,blocks,rule,witness"


def test_table_csv_block_column(prover):
    tb = table(8, 8, prover=prover)
    for line in tb.to_csv().splitlines()[1:]:
        n, u, verdict, blocks, rule, witness = line.split(",")
        if verdict == EXISTS:
            assert int(blocks) == expected_block_count(uniform_type(int(n), int(u)))
            assert witness in ("paper", "new")
        else:
            assert blocks == ""


def test_prove_type_entry_point():
    out, design = prove_type(parse_type("3^12 4^1"), materialize=True)
    assert out.verdict == EXISTS
    assert design is not None and len(design.blocks) == 369
    out, design = prove_type(parse_type("3^29 16^1"))
    assert out.verdict == UNKNOWN_HERE and design is None
    # one hole has no cross pairs: the empty design, not a failed 3^n u^1 cell
    out, design = prove_type("3^1", materialize=True)
    assert out.verdict == EXISTS and out.recipe.rule == "R-TRIV"
    assert design.blocks == () and verify_design(design).ok
