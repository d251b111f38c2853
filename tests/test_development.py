"""Starter sets, orbits, development, and the difference census."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from hsd.catalog import catalog_get, catalog_list
from hsd.core import canonical_block, parse_type, verify_design
from hsd.development import (
    StarterSet,
    develop,
    difference_census,
    orbit,
)


def _starter(key):
    return catalog_get(key).load()


def test_starter_set_shape():
    ss = _starter("Ex2.1")
    assert ss.modulus == 21 and ss.step == 1
    assert ss.n == 7 and ss.u == 1
    assert ss.holes()[-1] == [21]  # x1 is the point just past Z_21
    assert ss.type == parse_type("3^7 1^1")
    assert len(ss.holes()) == 8


def test_same_hole_differences():
    ss = _starter("Ex2.1")
    # holes are {i, i+7, i+14} mod 21, so the interior differences are 7 and 14
    assert ss.same_hole_differences() == {7, 14}


def test_shift_block_fixes_labels():
    # translates shift the entries below the modulus and keep the labels
    assert orbit((0, 1, 21, 5), 21, 4)[1] == (4, 5, 21, 9)
    assert orbit((20, 0, 1, 2), 21, 1)[1] == (0, 1, 2, 3)


def test_full_orbit():
    blks = orbit((0, 1, 3, 7), 24, 1)
    assert len(blks) == 24
    assert len(set(blks)) == 24


def test_short_orbits_in_bundled_starters():
    ss = _starter("A1/3^8 1^1")
    assert ss.modulus == 24 and ss.step == 4
    census = Counter(len(orbit(s, ss.modulus, ss.step)) for s in ss.starters)
    assert census == {3: 6, 6: 20}
    short = next(s for s in ss.starters if len(orbit(s, ss.modulus, ss.step)) == 3)
    blks = orbit(short, ss.modulus, ss.step)
    assert len(blks) == 3 == len(set(blks))


def test_orbit_length_divides_orbit_bound():
    rng = random.Random(11)
    for _ in range(300):
        g = 4 * rng.randint(2, 50)
        step = rng.choice([k for k in range(1, g + 1) if g % k == 0])
        b = tuple(rng.sample(range(g), 4))
        blks = orbit(b, g, step)
        assert (g // step) % len(blks) == 0
        assert len(set(blks)) == len(blks)


def test_develop_worked_example():
    ss = _starter("Ex2.1")
    d = develop(ss)
    assert len(d.blocks) == 105
    assert d.type == parse_type("3^7 1^1")
    assert verify_design(d).ok


def test_develop_counts_short_orbits_once():
    ss = _starter("Ex2.2")
    census = Counter(len(orbit(s, ss.modulus, ss.step)) for s in ss.starters)
    assert census == {6: 3, 12: 11}
    d = develop(ss)
    assert len(d.blocks) == 3 * 6 + 11 * 12 == 150


def test_starter_set_validation():
    with pytest.raises(ValueError):
        StarterSet(modulus=12, hole_size=3, step=5, u=0, starters=((0, 1, 2, 3),))
    with pytest.raises(ValueError):  # 22 would be x2, but the long hole has one point
        StarterSet(modulus=21, hole_size=3, step=1, u=1, starters=((0, 1, 2, 22),))
    with pytest.raises(ValueError):  # 30 is outside Z_21
        StarterSet(modulus=21, hole_size=3, step=1, u=0, starters=((0, 1, 2, 30),))


def test_census_passes_on_step_one_starters():
    for key in ["Ex2.1", "A2/3^9 2^1", "A10/3^13 14^1"]:
        ss = _starter(key)
        assert ss.step == 1
        rep = difference_census(ss)
        assert rep.ok, (key, rep.errors)


@pytest.mark.parametrize(
    "key, i, starter, message",
    [
        ("Ex2.1", 1, (0, 2, 2, 1), "starter (0, 2, 2, 1) repeats an entry"),
        ("A2/3^9 2^1", 0, (0, 1, 28, 27), "starter (0, 1, 28, 27) holds two long-hole points"),
    ],
)
def test_census_names_a_bad_starter(key, i, starter, message):
    ss = _starter(key)
    assert ss.step == 1
    rep = difference_census(replace(ss, starters=ss.starters[:i] + (starter,) + ss.starters[i + 1:]))
    assert not rep.ok and rep.errors[0] == message


def test_census_refuses_larger_steps():
    with pytest.raises(ValueError):
        difference_census(_starter("A1/3^8 1^1"))


def test_census_matches_develop_verdict_on_mutations():
    # the two certificates must agree: break one starter entry and both
    # the census and the developed design have to go red together
    base = _starter("Ex2.1")
    rng = random.Random(3)
    for _ in range(12):
        starters = [list(s) for s in base.starters]
        i = rng.randrange(len(starters))
        j = rng.randrange(4)
        old = starters[i][j]
        new = rng.randrange(base.modulus)
        if new == old or new in starters[i]:
            continue
        starters[i][j] = new
        ss = StarterSet(
            modulus=base.modulus,
            hole_size=base.hole_size,
            step=base.step,
            u=base.u,
            starters=tuple(tuple(s) for s in starters),
        )
        census_ok = difference_census(ss).ok
        dev_ok = verify_design(develop(ss)).ok
        assert census_ok == dev_ok


@given(st.integers(1, 30), st.integers(0, 200))
def test_orbit_closes_property(mult, start):
    g = 4 * mult
    b = (start % g, (start + 1) % g, (start + 2) % g, g)  # g is the fixed point x1
    blks = orbit(b, g, 1)
    # the orbit closes: developing its last translate gives the same blocks,
    # and its length divides the modulus
    assert set(orbit(blks[-1], g, 1)) == set(blks)
    assert g % len(blks) == 0


# --- orbits against the seen-set loop -----------------------------------------

def _shift(block, amount, modulus):
    """Shift the entries below modulus; the long-hole points stay fixed."""
    return tuple(p if p >= modulus else (p + amount) % modulus for p in block)


def _orbit_by_seen_set(block, modulus, step=1):
    """The orbit as it was first written: shift until a translate repeats."""
    out = []
    seen = set()
    cur = tuple(block)
    while True:
        key = canonical_block(cur)
        if key in seen:
            break
        seen.add(key)
        out.append(cur)
        cur = _shift(cur, step, modulus)
    return out


def test_orbit_matches_seen_set_loop_on_catalog_starters():
    steps, short = set(), 0
    for e in catalog_list(kind="starter"):
        ss = e.load()
        steps.add(ss.step)
        for s in ss.starters:
            want = _orbit_by_seen_set(s, ss.modulus, ss.step)
            assert orbit(s, ss.modulus, ss.step) == want, (e.id, s)
            assert (ss.modulus // ss.step) % len(want) == 0, (e.id, s)
            short += len(want) < ss.modulus // ss.step
    assert steps - {1} and short  # steps above 1 and short orbits were both seen


@given(
    st.integers(1, 60),
    st.integers(0, 3),
    st.integers(1, 130),
    st.lists(st.integers(0, 200), min_size=4, max_size=4),
)
@example(24, 1, 9, [0, 8, 24, 16])  # step 9 does not divide 24: span 8, orbit 8
@example(12, 2, 4, [3, 3, 13, 12])  # repeated entry and both long-hole points
def test_orbit_matches_seen_set_loop_property(g, u, step, raw):
    # long-hole points, repeated entries and steps that do not divide g
    block = tuple(p % (g + u) for p in raw)
    want = _orbit_by_seen_set(block, g, step)
    assert orbit(block, g, step) == want
