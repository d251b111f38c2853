"""Small finite fields, orthogonal Latin squares, transversal designs, GDDs.

Everything here is desk scale: fields up to order 81 with hard-coded
irreducible polynomials, squares as plain row lists, and a MacNeish-style
product for composite orders.  Orders 2 and 6 admit no orthogonal pair at
all; other orders of the form 4t+2 admit one in the literature but not
through the product, and asking for those raises NotImplementedError so
the caller can tell "cannot exist" from "not built here".  The squares
are built here and checked in the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import isqrt

from hsd.core import Diagnostics, TypeSpec, VerificationReport

# irreducible over GF(p), coefficients low degree first
_IRREDUCIBLE = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (1, 0, 1),          # x^2 + 1
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
    25: (2, 0, 1),         # x^2 + 2
    27: (1, 2, 0, 1),      # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    49: (1, 0, 1),         # x^2 + 1
    64: (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    81: (2, 1, 0, 0, 1),   # x^4 + x + 2
}


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


class GF:
    """GF(q) with full add/mul tables; elements are 0..q-1 in base-p digits."""

    def __init__(self, q: int):
        fac = prime_factors(q)
        if q < 2 or len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        (self.p, self.k), = fac.items()
        self.q = q
        if self.k == 1:
            self.add_table = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul_table = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            if q not in _IRREDUCIBLE:
                raise ValueError(f"no modulus polynomial on file for GF({q})")
            self._mod = _IRREDUCIBLE[q]
            self.add_table = [
                [self._enc(tuple((x + y) % self.p for x, y in zip(self._dec(a), self._dec(b))))
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul_table = [[self._polymul(a, b) for b in range(q)] for a in range(q)]
        for a in range(1, q):
            if 1 not in self.mul_table[a]:
                raise ValueError(f"{a} has no inverse; modulus for GF({q}) is reducible")

    def _dec(self, a: int) -> tuple:
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _enc(self, digits) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _polymul(self, a: int, b: int) -> int:
        da, db, p = self._dec(a), self._dec(b), self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the modulus polynomial (monic of degree k)
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, m in enumerate(self._mod[:-1]):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * m) % p
        return self._enc(prod[: self.k])

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


# ---------------------------------------------------------------------------
# Latin squares


def _mols_prime_power(q: int, k: int) -> list:
    f = gf(q)
    squares = []
    for a in range(1, min(k + 1, q)):
        squares.append([[f.add(f.mul(a, x), y) for y in range(q)] for x in range(q)])
    return squares


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
    expected = 0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if gdd._group_of[p] == gdd._group_of[q]:
                continue
            expected += 1
            c = cover.get(frozenset((p, q)), 0)
            if c != gdd.lam:
                errors.note(f"pair {{{p!r}, {q!r}}} in {c} blocks, wants {gdd.lam}")
    stray = sum(cover.values()) - gdd.lam * expected
    if not errors and stray:
        errors.note(f"{stray} extra pair slots beyond the cross-group pairs")
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
