"""Command line front end.

Verbs: verify, develop, feasible, catalog (list / get / verify-all),
prove, table, search (direct / starters / orbits / climb), multiply,
fill (a / b), convert quasigroup.

Conventions: `-` means stdin or stdout; results go to stdout, progress
and diagnostics to stderr.  Exit codes: 0 for a positive result, 1 for a
definite negative (verification failure, infeasible, search exhausted),
2 for inconclusive outcomes (undecided cells, search node budget hit), 3
for usage or input errors.  Randomized commands take --seed with a fixed
default, and searches stop on a node count (--nodes), never on the clock,
so runs are reproducible: a search's "timeout" means its node budget ran
out.  This is the one module of the package that reads the clock: it
times `catalog verify-all`, `table` and `search` itself.
"""

import argparse
import sys
import time

from .algebra import GDD, verify_gdd
from .catalog import catalog_get, catalog_list, catalog_verify_all
from .constructions import fill_holes_a, fill_holes_b, multiply
from .core import (
    Design,
    expected_block_count,
    is_feasible,
    paper_region,
    parse_type,
    uniform_type,
    verify_design,
)
from .development import develop
from .files import (
    detect_format,
    parse_design,
    parse_gdd,
    parse_starter,
    point_label,
    serialize_design,
    serialize_starter,
)
from .prover import EXISTS, INFEASIBLE, Prover, prove_type, table as existence_table
from .quasigroup import check_frame, design_to_frame
from . import search as searchers

OK, NEGATIVE, UNDECIDED, USAGE = 0, 1, 2, 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_design(path: str, gdd_ok: bool = False):
    """The design in a file, a starter file developed; with `gdd_ok` a GDD
    file gives its GDD."""
    text = _read(path)
    kind = detect_format(text)
    if kind == "design":
        return parse_design(text)
    if kind == "starter":
        return develop(parse_starter(text))
    if gdd_ok:
        return parse_gdd(text)
    raise ValueError(f"{path}: expected a design or starter file, found {kind}")


def _passes(report, heading: str = None) -> bool:
    """True when `report` passed; else its diagnostics go to stderr, after
    `heading` if one is given."""
    if not report.ok:
        lines = [f"  {err}" for err in report.errors]
        print("\n".join([heading, *lines] if heading else lines), file=sys.stderr)
    return report.ok


def _load_inputs(*paths):
    """The designs in `paths`, or None when one fails verification: a
    broken input is named, with its diagnostics, before anything is built."""
    designs = [_load_design(path) for path in paths]
    ok = [_passes(verify_design(d), f"input {path} fails verification:")
          for path, d in zip(paths, designs)]
    return designs if all(ok) else None


def _deliver(result: Design, output, what: str) -> int:
    """Verify a built design, then write it and report it as `what`; on a
    failure print the diagnostics instead."""
    if not _passes(verify_design(result)):
        return NEGATIVE
    _write(output, serialize_design(result))
    print(f"{what}: {len(result.blocks)} blocks, verified", file=sys.stderr)
    return OK


# ---------------------------------------------------------------------------
# verbs


def cmd_verify(args) -> int:
    worst = OK
    for path in args.files:
        obj = _load_design(path, gdd_ok=True)
        name = "stdin" if path == "-" else path
        is_gdd = isinstance(obj, GDD)
        report = verify_gdd(obj) if is_gdd else verify_design(obj)
        label = f"{'GDD ' if is_gdd else ''}{obj.type} ({len(obj.blocks)} blocks)"
        print(f"{'PASS' if report.ok else 'FAIL'} {name}: {label}")
        if not _passes(report):
            worst = NEGATIVE
    return worst


def cmd_develop(args) -> int:
    ss = parse_starter(_read(args.file))
    design = develop(ss)
    _write(args.output, serialize_design(design))
    print(f"developed {design.type}: {len(design.blocks)} blocks", file=sys.stderr)
    return OK


_CHECK_SLUGS = {
    "n >= 4": "needs at least four short holes",
    "u >= 0": "negative long hole",
    "2u <= 3(n - 1)": "size bound",
    "n(n + 2u - 1) = 0 (mod 4)": "congruence",
}


def cmd_feasible(args) -> int:
    rep = is_feasible(args.n, args.u)
    if rep.feasible:
        blocks = expected_block_count(uniform_type(args.n, args.u))
        print(f"feasible, expected {blocks} blocks")
        return OK
    slug = _CHECK_SLUGS[rep.failed()[0]]
    print(f"infeasible: {slug}")
    return NEGATIVE


def cmd_catalog(args) -> int:
    if args.action == "list":
        for e in catalog_list(table=args.table, status=args.status, kind=args.kind):
            blocks = "-" if e.expected_blocks is None else e.expected_blocks
            print(f"{e.id:24} {e.kind:8} {e.status:9} {blocks:>5}")
        return OK
    if args.action == "get":
        entry = catalog_get(args.id)
        _write(args.output, entry.text())
        if entry.note:
            print(f"note: {entry.note}", file=sys.stderr)
        return OK
    # verify-all
    started = time.perf_counter()
    rows = catalog_verify_all()
    elapsed = time.perf_counter() - started
    for row in rows:
        state = "ok  " if row.ok else "FAIL"
        blocks = (f"{row.blocks} blocks" if row.expected is None
                  else f"{row.blocks}/{row.expected} blocks")
        print(f"{state} {row.id:24} {row.kind:8} {row.status:9} {blocks}")
        for err in row.errors:
            print(f"     {err}", file=sys.stderr)
    n_bad = sum(not row.ok for row in rows)
    print(f"{len(rows)} entries, {n_bad} failures ({elapsed:.1f}s)")
    return NEGATIVE if n_bad else OK


def cmd_prove(args) -> int:
    outcome, design = prove_type(args.type, materialize=args.materialize,
                                 large=args.large)
    print(outcome.describe())
    if design is not None:
        print(f"materialized: {len(design.blocks)} blocks, verified")
        if args.output:
            _write(args.output, serialize_design(design))
    if outcome.verdict == EXISTS:
        return OK
    return NEGATIVE if outcome.verdict == INFEASIBLE else UNDECIDED


def cmd_table(args) -> int:
    prover = Prover(large=args.large)
    started = time.perf_counter()
    tab = existence_table(args.nmax, args.umax, materialize=args.materialize,
                          prover=prover)
    elapsed = time.perf_counter() - started
    if args.csv is not None:
        _write(args.csv, tab.to_csv())
    else:
        _write(args.output, tab.to_text())
    undecided = tab.unknown_cells()
    inside = sum(paper_region(n, u) for n, u in undecided)
    note = (f", undecided: {undecided} ({inside} inside the paper's theorem region)"
            if undecided else "")
    print(f"{len(tab.cells)} cells in {elapsed:.1f}s"
          f"{' (materialized + verified)' if args.materialize else ''}{note}",
          file=sys.stderr)
    return OK if tab.ok else UNDECIDED


def _split_uniform(t):
    """h^n u^1 reading of a type, for the starter searches: h is the one
    size that repeats, or the only size."""
    repeated = [s for s, c in t.items if c > 1] or [s for s, _ in t.items]
    nu = t.split(repeated[0]) if len(repeated) == 1 else None
    if nu is not None:
        return (repeated[0], *nu)
    raise ValueError(f"type {t} is not of the h^n u^1 shape these searches need")


def cmd_search(args) -> int:
    t = parse_type(args.type)
    started = time.perf_counter()
    if args.mode == "direct":
        res = searchers.search_direct(t, seed=args.seed, node_limit=args.nodes)
    elif args.mode == "climb":
        res = searchers.search_climb(t, seed=args.seed, node_limit=args.nodes)
    else:
        h, n, u = _split_uniform(t)
        if args.mode == "starter":
            res = searchers.search_starters(n, u, hole_size=h, seed=args.seed,
                                            node_limit=args.nodes)
        else:
            res = searchers.search_orbits(n, u, hole_size=h, step=args.step,
                                          seed=args.seed, node_limit=args.nodes)
    elapsed = time.perf_counter() - started
    print(f"{res.status}: {res.nodes} nodes, {elapsed:.2f}s", file=sys.stderr)
    if res:
        if res.starter_set is not None:
            _write(args.output, serialize_starter(res.starter_set))
        else:
            _write(args.output, serialize_design(res.design))
        return OK
    return NEGATIVE if res.status == searchers.NONE else UNDECIDED


def cmd_multiply(args) -> int:
    inputs = _load_inputs(args.file)
    if inputs is None:
        return NEGATIVE
    (design,) = inputs
    result = multiply(design, args.m)
    return _deliver(result, args.output, f"{design.type} x {args.m} -> {result.type}")


def cmd_fill(args) -> int:
    if args.variant == "a":
        fill, paths = fill_holes_a, (args.outer, args.inner)
    else:
        fill, paths = fill_holes_b, (args.outer, args.inner_s, args.inner_t)
    inputs = _load_inputs(*paths)
    if inputs is None:
        return NEGATIVE
    outer, *inners = inputs
    result = fill(outer, args.new_points, *inners, keep_size=args.keep)
    return _deliver(result, args.output, f"filled -> {result.type}")


def cmd_convert(args) -> int:
    design = _load_design(args.file)
    ok, errors = check_frame(design)
    try:
        table = design_to_frame(design)
    except ValueError:  # a cell defined twice or an unknown point, which check_frame reports
        table = None
    if table is not None:
        elems = design.points
        names = {e: point_label(e, design.label_base) for e in elems}
        width = max(map(len, names.values())) + 1
        cell = lambda s: f"{s:>{width}}"  # noqa: E731
        print(cell("*") + "".join(cell(names[e]) for e in elems))
        for x in elems:
            row = [names[table[(x, y)]] if (x, y) in table else "." for y in elems]
            print(cell(names[x]) + "".join(cell(z) for z in row))
    print(f"frame check: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    for err in errors:
        print(f"  {err}", file=sys.stderr)
    return OK if ok else NEGATIVE


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="hsd",
        description="Holey Schroder designs: verify, build, search, decide.")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("verify", help="verify design, starter, or GDD files")
    p.add_argument("files", nargs="+", help="files to check, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("develop", help="develop a starter file into a design")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("feasible", help="necessary conditions for type 3^n u^1")
    p.add_argument("n", type=int)
    p.add_argument("u", type=int)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("catalog", help="the bundled design catalog")
    cat = p.add_subparsers(dest="action", required=True)
    q = cat.add_parser("list", help="list entries")
    q.add_argument("--table")
    q.add_argument("--status", choices=["verbatim", "repaired", "derived"])
    q.add_argument("--kind", choices=["starter", "design", "gdd"])
    q.set_defaults(func=cmd_catalog)
    q = cat.add_parser("get", help="print one entry's file")
    q.add_argument("id")
    q.add_argument("-o", "--output", default="-")
    q.set_defaults(func=cmd_catalog)
    q = cat.add_parser("verify-all", help="verify every entry")
    q.set_defaults(func=cmd_catalog)

    p = sub.add_parser("prove", help="decide existence of a type")
    p.add_argument("type", help="e.g. '3^12 4^1'")
    p.add_argument("--materialize", action="store_true",
                   help="actually build and verify the design")
    p.add_argument("--large", action="store_true",
                   help="lift the desk-scale point cap")
    p.add_argument("-o", "--output", help="write the materialized design here")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("table", help="existence over a rectangle of 3^n u^1")
    p.add_argument("--nmax", type=int, default=13)
    p.add_argument("--umax", type=int, default=15)
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="FILE",
                   help="emit CSV (to FILE, or stdout without a value)")
    p.add_argument("--large", action="store_true")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="look for a design or starter set")
    p.add_argument("mode", choices=["direct", "starter", "orbits", "climb"])
    p.add_argument("--type", required=True)
    p.add_argument("--step", type=int, default=1, help="orbit step (orbits mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=1_000_000,
                   help="node budget (default 1,000,000)")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("multiply", help="scale every hole by m")
    p.add_argument("file")
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("fill", help="fill holes with smaller designs")
    fil = p.add_subparsers(dest="variant", required=True)
    q = fil.add_parser("a", help="one inner design for every filled hole")
    q.add_argument("outer")
    q.add_argument("inner")
    q.add_argument("--new-points", type=int, default=0, metavar="V")
    q.add_argument("--keep", type=int, default=None, metavar="SIZE")
    q.add_argument("-o", "--output", default="-")
    q.set_defaults(func=cmd_fill)
    q = fil.add_parser("b", help="two inner designs for two hole sizes")
    q.add_argument("outer")
    q.add_argument("inner_s")
    q.add_argument("inner_t")
    q.add_argument("--new-points", type=int, default=0, metavar="V")
    q.add_argument("--keep", type=int, default=None, metavar="SIZE")
    q.add_argument("-o", "--output", default="-")
    q.set_defaults(func=cmd_fill)

    p = sub.add_parser("convert", help="other views of a design")
    con = p.add_subparsers(dest="view", required=True)
    q = con.add_parser("quasigroup", help="print the frame quasigroup table")
    q.add_argument("file")
    q.set_defaults(func=cmd_convert)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return OK
    except (ValueError, KeyError, TypeError, OSError, NotImplementedError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
