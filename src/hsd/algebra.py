"""Small finite fields, orthogonal Latin squares, transversal designs, GDDs.

Everything here is desk scale: a field is its addition and multiplication
tables, built over the first irreducible modulus in a fixed order, squares
are plain row lists, and composite orders take a MacNeish-style product.
Orders 2 and 6 admit no orthogonal pair at all; other orders of the form
4t+2 admit one in the literature but not through the product, and asking
for those raises NotImplementedError so the caller can tell "cannot
exist" from "not built here".  The squares are built here and checked in
the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import isqrt

from hsd.core import Diagnostics, TypeSpec, VerificationReport


def prime_factors(m: int) -> Counter:
    out: Counter = Counter()
    d, rest = 2, m
    while d * d <= rest:
        while rest % d == 0:
            out[d] += 1
            rest //= d
        d += 1
    if rest > 1:
        out[rest] += 1
    return out


def divisors(n: int) -> list:
    """Divisors of n in ascending order."""
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


@lru_cache(maxsize=None)
def gf(q: int) -> tuple:
    """The addition and multiplication tables of GF(q), as tuples of rows.

    Elements are 0..q-1 read as base-p digits, digit i the coefficient of
    x^i, so 0 and 1 are the field's zero and one.  For q = p^k the modulus
    is the first monic x^k + c_{k-1}x^{k-1} + ... + c_0, with
    (c_{k-1}, ..., c_0) tried in lexicographic order, modulo which every
    nonzero element has an inverse.
    """
    fac = prime_factors(q)
    if q < 2 or len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    top = q // p  # place value of the x^(k-1) digit
    add = []
    for a in range(q):  # the low digit mod p, the higher digits from row a // p
        high = add[a // p] if a >= p else range(q)
        add.append([(a + b) % p + p * high[b // p] for b in range(q)])
    for coeffs in product(range(p), repeat=k):
        minus_low = 0  # x^k = -(c_{k-1}x^{k-1} + ... + c_0)
        for c in coeffs:
            minus_low = minus_low * p + (-c) % p
        carry = [0]  # carry[t] = t*x^k, for t the digit that x*a shifts out
        for _ in range(1, p):
            carry.append(add[carry[-1]][minus_low])
        times_x = [add[a % top * p][carry[a // top]] for a in range(q)]
        mul = []
        for a in range(q):  # a*b = x*(a*(b // p)) + a*(b % p)
            row = [0] * q
            for b in range(1, p):
                row[b] = add[row[b - 1]][a]
            for b in range(p, q):
                row[b] = add[times_x[row[b // p]]][row[b % p]]
            if a and 1 not in row:
                break  # a has no inverse: the modulus is reducible
            mul.append(row)
        else:
            return tuple(map(tuple, add)), tuple(map(tuple, mul))


# ---------------------------------------------------------------------------
# Latin squares


def _mols_prime_power(q: int, k: int) -> list:
    add, mul = gf(q)
    return [[list(add[mul[a][x]]) for x in range(q)] for a in range(1, min(k + 1, q))]


def _mols_product(sq1, sq2, n1, n2) -> list:
    # squares on Z_{n1} x Z_{n2}, flattened as x1*n2 + x2
    out = []
    for a, b in zip(sq1, sq2):
        rows = []
        for x1 in range(n1):
            for x2 in range(n2):
                rows.append(
                    [a[x1][y1] * n2 + b[x2][y2] for y1 in range(n1) for y2 in range(n2)]
                )
        out.append(rows)
    return out


def mols_capacity(m: int) -> int:
    """How many mutually orthogonal squares of order m this module can build."""
    if m == 1:
        return 0
    return min(p**e for p, e in prime_factors(m).items()) - 1


def mols(m: int, k: int) -> list:
    """k mutually orthogonal Latin squares of order m, as row lists.

    Prime powers use a*x + y over GF(m); composite orders take the
    componentwise product over their prime-power parts, which supports
    min(q_i) - 1 squares.  Orders 2 and 6 have no orthogonal pair at all;
    for other orders with a lone factor of 2 a pair exists but is beyond
    the product construction, hence NotImplementedError.
    """
    if m < 1 or k < 1:
        raise ValueError(f"order and count must be positive, got m = {m}, k = {k}")
    cap = mols_capacity(m)
    if k > cap:
        if k == 2 and m in (2, 6):
            raise ValueError(f"no pair of orthogonal Latin squares of order {m} exists")
        if k == 2 and m % 4 == 2:
            raise NotImplementedError(
                f"order {m} needs a construction beyond the prime-power product"
            )
        raise ValueError(f"only {cap} mutually orthogonal squares of order {m} on hand, wanted {k}")
    parts = sorted(prime_factors(m).items())
    q0 = parts[0][0] ** parts[0][1]
    squares = _mols_prime_power(q0, k)
    size = q0
    for p, e in parts[1:]:
        q = p**e
        squares = _mols_product(squares, _mols_prime_power(q, k), size, q)
        size *= q
    return squares


# ---------------------------------------------------------------------------
# GDDs and transversal designs


class GDD:
    """Group divisible design: groups partition the points, every
    cross-group pair lies in exactly lam blocks."""

    def __init__(self, groups, blocks, lam: int = 1):
        self.groups = tuple(tuple(sorted(g)) for g in groups)
        self.blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        self.lam = lam
        self._group_of = {}
        for i, g in enumerate(self.groups):
            for p in g:
                if p in self._group_of:
                    raise ValueError(f"point {p!r} in two groups")
                self._group_of[p] = i

    @property
    def points(self) -> tuple:
        return tuple(sorted(self._group_of))

    @property
    def type(self) -> TypeSpec:
        return TypeSpec.from_counts(Counter(len(g) for g in self.groups))

    def __repr__(self):
        return f"GDD({self.type}, {len(self.blocks)} blocks, lambda={self.lam})"


def verify_gdd(gdd: GDD) -> VerificationReport:
    errors = Diagnostics()
    cover = Counter()
    for blk in gdd.blocks:
        if len(set(blk)) != len(blk):
            errors.note(f"block {blk!r} repeats a point")
            continue
        if any(p not in gdd._group_of for p in blk):
            errors.note(f"block {blk!r} uses unknown points")
            continue
        hit = [gdd._group_of[p] for p in blk]
        if len(set(hit)) != len(hit):
            errors.note(f"block {blk!r} meets a group twice")
            continue
        for i, p in enumerate(blk):
            for q in blk[i + 1 :]:
                cover[frozenset((p, q))] += 1

    pts = gdd.points
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if gdd._group_of[p] == gdd._group_of[q]:
                continue
            c = cover.get(frozenset((p, q)), 0)
            if c != gdd.lam:
                errors.note(f"pair {{{p!r}, {q!r}}} in {c} blocks, wants {gdd.lam}")
    return VerificationReport(not errors, errors)


def td(k: int, m: int) -> GDD:
    """Transversal design TD(k, m) built from k - 2 orthogonal squares.

    Group i holds the points i*m .. i*m + m - 1.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if m == 1:
        return GDD([[i] for i in range(k)], [tuple(range(k))])
    squares = mols(m, k - 2) if k > 2 else []
    groups = [[i * m + x for x in range(m)] for i in range(k)]
    blocks = []
    for x in range(m):
        for y in range(m):
            blk = [x, m + y]
            for s, sq in enumerate(squares):
                blk.append((2 + s) * m + sq[x][y])
            blocks.append(tuple(blk))
    return GDD(groups, blocks)


def td_constructible(k: int, m: int) -> bool:
    return m == 1 or k <= mols_capacity(m) + 2
