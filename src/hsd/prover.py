"""Existence engine: decide EXISTS / INFEASIBLE / UNKNOWN_HERE for a type.

The resolver runs three gates, then six rules, each of which gives a
recipe or nothing.  The gates settle trivial types, infeasible types and
types past the scale cap; the rules are the bundled catalog, a tiny
exhaustive search, and the recursive constructions (weighting a
transversal design, multiplying by an orthogonal square pair, filling
holes, the nine-hole family).  `materialize` replays a recipe into an
actual design and verifies it.  INFEASIBLE is only ever issued through
the counting conditions on types 3^n u^1, so a NONE from the search
fallback is reported as UNKNOWN_HERE with a note rather than upgraded.

Verdicts for a whole rectangle of (n, u) cells come from `table`, which
renders as an aligned text grid or CSV.  The CSV is independent of
whether designs were materialized, so plan and materialize runs are
byte-identical.
"""

from dataclasses import dataclass, field
import io
import itertools
import math

from .core import (
    Design,
    TypeSpec,
    expected_block_count,
    is_feasible,
    parse_type,
    uniform_type,
    verify_design,
)
from .algebra import divisors, mols_capacity, td, td_constructible
from .catalog import catalog_for_type, catalog_get
from .constructions import fill_holes_a, fill_holes_b, multiply, weight_inflate
from .search import NONE, search_direct

EXISTS = "EXISTS"
INFEASIBLE = "INFEASIBLE"
UNKNOWN_HERE = "UNKNOWN_HERE"

# Search fallback stays tiny: it exists to settle degenerate types, not to
# compete with the constructions.
SEARCH_MAX_POINTS = 10
SEARCH_NODES = 200_000

DESK_MAX_POINTS = 300
LARGE_MAX_POINTS = 1500


@dataclass(frozen=True)
class Recipe:
    """One node of a construction plan: rule name, target type, parameters,
    and the recipes for whatever ingredient designs the rule consumes."""

    rule: str
    target: TypeSpec
    params: tuple = ()  # ((key, value), ...) with printable values
    children: tuple = ()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        head = f"{pad}{self.rule} {self.target}" + (f" [{args}]" if args else "")
        return "\n".join([head] + [c.describe(indent + 1) for c in self.children])

    def leaves(self):
        if not self.children:
            yield self
        for c in self.children:
            yield from c.leaves()


@dataclass
class Outcome:
    verdict: str
    type: TypeSpec
    recipe: object = None  # Recipe when verdict == EXISTS
    report: object = None  # FeasibilityReport when INFEASIBLE
    notes: tuple = ()

    def __bool__(self):
        return self.verdict == EXISTS

    @property
    def paper_backed(self) -> bool:
        """True when every leaf is a transcribed (or minimally repaired)
        catalog entry; False once a searched or otherwise derived witness
        enters the plan."""
        if self.recipe is None:
            return False
        for leaf in self.recipe.leaves():
            d = dict(leaf.params)
            if leaf.rule == "R-CAT" and d.get("status") in ("verbatim", "repaired"):
                continue
            if leaf.rule == "R-TRIV":
                continue
            return False
        return True

    def describe(self) -> str:
        lines = [f"{self.verdict} {self.type}"]
        if self.report is not None:
            for label, ok, detail in self.report.checks:
                if not ok:
                    lines.append(f"  fails: {label} ({detail})")
        if self.recipe is not None:
            lines.append(self.recipe.describe(indent=1))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _tdw_shapes(t: TypeSpec):
    """The (m, k, u) for which t = (3m)^4 (3k)^1 u^1 comes from weighting a
    TD(6, m), in the order R-TDW tries them.  Four holes of size 3m go to
    four groups; the rest (at most two, of distinct sizes) are the 3k hole
    and the u hole, and a fifth 3m hole is the 3k hole."""
    for size, count in t.items:
        m, r = divmod(size, 3)
        if r or count not in (4, 5) or m < 4 or not td_constructible(6, m):
            continue
        rest = [s for s in t.sizes() if s != size]
        if len(rest) + count > 6 or len(set(rest)) < len(rest):
            continue
        if count == 5:
            options = [(m, rest)]
        else:
            options = [(x // 3, [y for y in rest if y != x])
                       for x in rest if x % 3 == 0 and x // 3 <= m]
            if len(rest) <= 1:
                options.append((0, rest))
        for k, left in options:
            u = sum(left)
            if u % 2 == 0 and u <= 4 * m:
                yield m, k, u


def _tdw_groups(m: int, k: int, u: int) -> list:
    """Weights on the six groups of a TD(6, m): 3 on four groups and on k
    points of the fifth, and {4, 2, 0} summing to u (even) on the sixth."""
    fours, twos = u // 4, u % 4 // 2
    return [[3] * m] * 4 + [[3] * k + [0] * (m - k),
                            [4] * fours + [2] * twos + [0] * (m - fours - twos)]


def _9fam_groups(k: int) -> list:
    """Weights on the ten groups of a TD(10, 9): 1 on nine groups, and 4 on
    k points and 2 on the rest of the last."""
    return [[1] * 9] * 9 + [[4] * k + [2] * (9 - k)]


def _td_ingredients(groups) -> list:
    """Hole types of the blocks of a TD weighted by `groups`, in first-seen
    order.  A block meets every group once, and when at most two groups mix
    weights every combination of the groups' distinct weights occurs in
    some block, since the TD puts each pair from two groups in a block."""
    kinds = [dict.fromkeys(ws) for ws in groups]
    return list(dict.fromkeys(TypeSpec.of(*(w for w in combo if w))
                              for combo in itertools.product(*kinds)))


class Prover:
    """Memoized existence resolver over one rule chain.

    One instance per job: the memo table assumes a fixed point cap, so a
    desk-scale and a large-scale query should not share an instance.
    Searches stop after `search_nodes` nodes, so verdicts and notes do not
    depend on machine speed.  `search_seconds` can do nothing: searches
    have no clock.  It is accepted as None only because the benchmark's
    callers still pass `search_seconds=None`; any other value raises.
    """

    def __init__(self, large: bool = False, search_nodes: int = SEARCH_NODES,
                 search_seconds=None):
        if search_seconds is not None:
            raise ValueError("searches are bounded by nodes only")
        self.max_points = LARGE_MAX_POINTS if large else DESK_MAX_POINTS
        self.search_nodes = search_nodes
        self._memo = {}
        self._designs = {}  # TypeSpec -> verified Design

    # -- resolution ---------------------------------------------------

    def prove(self, n: int, u: int) -> Outcome:
        """Verdict for the cell 3^n u^1 (the long hole folds into the
        short ones when u is 0 or 3)."""
        rep = is_feasible(n, u)
        t = uniform_type(n, u)
        if not rep.feasible:
            return Outcome(INFEASIBLE, t, report=rep)
        return self.resolve(t)

    def resolve(self, t: TypeSpec) -> Outcome:
        """Memoized verdict for any type.  No rule re-enters the type it is
        resolving: every ingredient has fewer points than t, except a fill
        outer with v = 0, which has no 3^n u^1 reading for a fill rule."""
        if t not in self._memo:
            self._memo[t] = self._resolve(t)
        return self._memo[t]

    def _resolve(self, t: TypeSpec) -> Outcome:
        """Three gates, then six rules, each of which gives a recipe or
        nothing: R-TRIV for at most one hole (no cross pairs), INFEASIBLE
        by `is_feasible`, UNKNOWN_HERE past `max_points`, then the chain."""
        if t.holes <= 1:
            return Outcome(EXISTS, t, recipe=Recipe("R-TRIV", t))
        nu = t.split(3)
        if nu is not None and not (rep := is_feasible(*nu)).feasible:
            return Outcome(INFEASIBLE, t, report=rep)
        if t.points > self.max_points:
            return Outcome(UNKNOWN_HERE, t, notes=(
                f"beyond scale cap ({t.points} points > {self.max_points})",))
        notes = []
        for rule in (self._r_catalog, self._r_search, self._r_tdw, self._r_mul,
                     self._r_fill, self._r_9fam):
            recipe = rule(t, notes)
            if recipe is not None:
                return Outcome(EXISTS, t, recipe=recipe)
        return Outcome(UNKNOWN_HERE, t, notes=tuple(notes))

    # -- rules, in chain order ----------------------------------------

    def _r_catalog(self, t, notes):
        e = catalog_for_type(t)
        if e is None:
            return None
        return Recipe("R-CAT", t, (("id", e.id), ("status", e.status)))

    def _r_search(self, t, notes):
        if t.points > SEARCH_MAX_POINTS:
            return None
        try:
            expected_block_count(t)
        except ValueError as exc:
            notes.append(f"{exc}, so no design exists; verdict stays UNKNOWN_HERE by policy")
            return None
        res = search_direct(t, seed=0, node_limit=self.search_nodes)
        if res:
            return Recipe("R-SEARCH", t, (("seed", 0), ("nodes", res.nodes)))
        if res.status == NONE:
            notes.append(f"exhaustive search: no design of type {t} exists "
                         f"({res.nodes} nodes); verdict stays UNKNOWN_HERE by policy")
        else:
            notes.append(f"search hit its budget ({res.nodes} nodes)")
        return None

    def _r_tdw(self, t, notes):
        """Weight a TD(6, m) by `_tdw_groups` into (3m)^4 (3k)^1 u^1, for
        each shape `_tdw_shapes` reads off t.  Every ingredient is one of
        3^4, 3^5, 3^4 2^1, 3^4 4^1, 3^5 2^1 and 3^5 4^1, all catalog
        entries, so the rule has no frontier to note."""
        for m, k, u in _tdw_shapes(t):
            needed = sorted(_td_ingredients(_tdw_groups(m, k, u)), key=str)
            plans = [self.resolve(spec) for spec in needed]
            if all(plans):
                params = (("m", m), ("k", k), ("u", u))
                return Recipe("R-TDW", t, params, tuple(p.recipe for p in plans))
        return None

    def _r_mul(self, t, notes):
        g = math.gcd(*(s for s, _ in t.items))
        blocked = []
        for m in divisors(g):
            if mols_capacity(m) < 2:
                continue
            base = TypeSpec(tuple((s // m, c) for s, c in t.items))
            child = self.resolve(base)
            if child:
                return Recipe("R-MUL", t, (("m", m),), (child.recipe,))
            if child.verdict == UNKNOWN_HERE:
                blocked.append(str(base))
        _note_frontier(notes, "multiplying", blocked)
        return None

    def _r_fill(self, t, notes):
        """R-FILL-A, then R-FILL-B: 3^(s*m+tt) (w+v)^1 from an outer (3s)^m
        (3tt)^1 w^1 (no 3tt hole in R-FILL-A), whose big holes take 3^s
        v^1 and whose odd one takes 3^tt v^1, all sharing v new points."""
        nu = t.split(3)
        if nu is None:
            return None
        n, u = nu
        shapes_a = [(s, n // s, 0) for s in divisors(n) if s >= 3 and n // s >= 3]
        shapes_b = [(s, m, n - s * m) for s in range(3, n // 4 + 1)
                    for m in range(4, n // s + 1) if 1 <= n - s * m < s]
        return (self._fill(t, notes, u, shapes_a, "R-FILL-A", "hole filling")
                or self._fill(t, notes, u, shapes_b, "R-FILL-B", "two-size hole filling"))

    def _fill(self, t, notes, u, shapes, rule, what):
        """The planning loop of both filling rules.  Each shape (s, m, tt)
        names an outer (3s)^m (3tt)^1 w^1, with no 3tt hole when tt is 0;
        for each split u = w + v the inners 3^s v^1 (and 3^tt v^1) are
        resolved first, then the outer."""
        blocked = []
        for s, m, tt in shapes:
            sizes = (s, tt) if tt else (s,)
            for v in range(0, min(u, (3 * (s - 1)) // 2) + 1):
                w = u - v
                if w == 0 and m < 4:  # an outer (3s)^3 has too few holes
                    continue
                inners = []
                for size in sizes:
                    inner = self.resolve(uniform_type(size, v))
                    if not inner:
                        break
                    inners.append(inner.recipe)
                if len(inners) < len(sizes):
                    continue
                extra = ([3 * tt] if tt else []) + ([w] if w else [])
                outer_t = TypeSpec.of(*[3 * s] * m, *extra)
                outer = self.resolve(outer_t)
                if not outer:
                    if outer.verdict == UNKNOWN_HERE:
                        blocked.append(str(outer_t))
                    continue
                params = ((("s", s), ("m", m)) + ((("t", tt),) if tt else ())
                          + (("v", v), ("w", w)))
                return Recipe(rule, t, params, (outer.recipe, *inners))
        _note_frontier(notes, what, blocked)
        return None

    def _r_9fam(self, t, notes):
        """9^9 u^1 for even u in 18..36: weight a TD(10, 9) with 1 on nine
        groups and {4, 2} on the last, u = 18 + 2k for k points of weight 4."""
        n, u = t.split(9) or (0, 0)
        if n != 9 or u % 2 or not 18 <= u <= 36:
            return None
        k = (u - 18) // 2
        plans = [self.resolve(spec) for spec in _td_ingredients(_9fam_groups(k))]
        if all(plans):
            return Recipe("R-9FAM", t, (("k", k),),
                          tuple(p.recipe for p in plans))
        return None

    # -- materialization ----------------------------------------------

    def materialize(self, recipe: Recipe) -> Design:
        """Replay a recipe bottom-up into a design, verifying each type
        once.  Results are cached per type, so shared ingredients are
        built a single time."""
        t = recipe.target
        if t in self._designs:
            return self._designs[t]
        d = self._build(recipe)
        if d.type != t:
            raise AssertionError(f"recipe for {t} produced {d.type}")
        report = verify_design(d)
        if not report.ok:
            raise AssertionError(
                f"recipe for {t} failed verification: {report.errors[:3]}")
        self._designs[t] = d
        return d

    def _build(self, recipe: Recipe) -> Design:
        rule = recipe.rule
        p = dict(recipe.params)
        kids = recipe.children
        if rule == "R-TRIV":
            return Design([list(range(recipe.target.points))], [])  # at most one hole
        if rule == "R-CAT":
            return catalog_get(p["id"]).design()
        if rule == "R-SEARCH":
            # the recorded seed and node count find the same design again,
            # whatever this prover's own search budget
            res = search_direct(recipe.target, seed=p["seed"], node_limit=p["nodes"])
            if not res:
                raise AssertionError(f"search replay lost {recipe.target}")
            return res.design
        if rule == "R-TDW":
            return self._weight_td(_tdw_groups(p["m"], p["k"], p["u"]), kids)
        if rule == "R-MUL":
            return multiply(self.materialize(kids[0]), p["m"])
        if rule in ("R-FILL-A", "R-FILL-B"):
            outer, *inners = [self.materialize(kid) for kid in kids]
            fill = fill_holes_a if rule == "R-FILL-A" else fill_holes_b
            return fill(outer, p["v"], *inners, keep_size=p["w"] or None)
        if rule == "R-9FAM":
            return self._weight_td(_9fam_groups(p["k"]), kids)
        raise ValueError(f"rule {rule} cannot be materialized")

    def _weight_td(self, group_weights, kids):
        """Inflate a TD(k, m), k = len(group_weights) and m the length of
        each group's list: point i of group j gets weight
        group_weights[j][i], and the kids' designs are the ingredients."""
        g = td(len(group_weights), len(group_weights[0]))
        weights = {q: w for group, ws in zip(g.groups, group_weights)
                   for q, w in zip(group, ws)}
        supply = {kid.target: self.materialize(kid) for kid in kids}
        return weight_inflate(g, weights, supply)


def _note_frontier(notes, what, blocked):
    if blocked:
        shown = list(dict.fromkeys(blocked))[:3]
        more = "" if len(set(blocked)) <= 3 else ", .."
        notes.append(f"{what} blocked on unsettled ingredients: "
                     + ", ".join(shown) + more)


# ---------------------------------------------------------------------------
# the (n, u) rectangle


@dataclass
class ExistenceTable:
    n_max: int
    u_max: int
    cells: dict = field(default_factory=dict)  # (n, u) -> Outcome

    @property
    def ok(self) -> bool:
        """True when no cell was left undecided."""
        return all(o.verdict != UNKNOWN_HERE for o in self.cells.values())

    def unknown_cells(self):
        return sorted(k for k, o in self.cells.items() if o.verdict == UNKNOWN_HERE)

    def to_text(self) -> str:
        mark = {EXISTS: "E", INFEASIBLE: ".", UNKNOWN_HERE: "?"}
        out = io.StringIO()
        head = "      " + " ".join(f"{u:>2}" for u in range(self.u_max + 1))
        out.write("type 3^n u^1   E = exists, . = infeasible, ? = undecided\n")
        out.write(head + "\n")
        for n in range(4, self.n_max + 1):
            row = " ".join(f"{mark[self.cells[(n, u)].verdict]:>2}"
                           for u in range(self.u_max + 1))
            out.write(f"n={n:>3}  {row}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        # Stable across runs and across plan/materialize: block counts come
        # from the counting formula, never from a built design.
        lines = ["n,u,verdict,blocks,rule,witness"]
        for (n, u) in sorted(self.cells):
            o = self.cells[(n, u)]
            blocks = ""
            if o.verdict == EXISTS:
                blocks = str(expected_block_count(o.type))
            rule = ""
            witness = ""
            if o.recipe is not None:
                d = dict(o.recipe.params)
                rule = o.recipe.rule + (f":{d['id']}" if "id" in d else "")
                witness = "paper" if o.paper_backed else "new"
            lines.append(f"{n},{u},{o.verdict},{blocks},{rule},{witness}")
        return "\n".join(lines) + "\n"


def table(n_max: int, u_max: int, materialize: bool = False,
          progress=None, prover: Prover = None) -> ExistenceTable:
    """Resolve every cell 4 <= n <= n_max, 0 <= u <= u_max.

    With materialize=True each EXISTS cell is actually built and verified
    (shared ingredients are reused), so a returned table carries designs
    behind every claim."""
    pv = prover if prover is not None else Prover()
    tab = ExistenceTable(n_max=n_max, u_max=u_max)
    for n in range(4, n_max + 1):
        for u in range(0, u_max + 1):
            out = pv.prove(n, u)
            if out and materialize:
                pv.materialize(out.recipe)
            tab.cells[(n, u)] = out
            if progress is not None:
                progress(n, u, out)
    return tab


def prove_type(spec, materialize: bool = False, large: bool = False):
    """One-shot verdict for a TypeSpec or type string.  Returns (outcome,
    design-or-None)."""
    t = spec if isinstance(spec, TypeSpec) else parse_type(spec)
    pv = Prover(large=large)
    out = pv.resolve(t)
    d = pv.materialize(out.recipe) if (out and materialize) else None
    return out, d
