"""Command-line surface: wording, exit statuses, pipelines, determinism."""

import io
import itertools
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hsd.catalog import catalog_get
from hsd.cli import _split_uniform, main
from hsd.core import Design, TypeSpec, parse_type, verify_design
from hsd.files import parse_design, parse_starter, serialize_design
from hsd.prover import prove_type


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- feasible ------------------------------------------------------------------

def test_feasible_yes(capsys):
    code, out, _ = run(capsys, "feasible", "8", "2")
    assert code == 0
    assert out == "feasible, expected 150 blocks\n"


def test_feasible_congruence(capsys):
    code, out, _ = run(capsys, "feasible", "9", "1")
    assert code == 1
    assert out == "infeasible: congruence\n"


def test_feasible_other_failures(capsys):
    code, out, _ = run(capsys, "feasible", "3", "1")
    assert code == 1 and out == "infeasible: needs at least four short holes\n"
    code, out, _ = run(capsys, "feasible", "4", "5")
    assert code == 1 and out == "infeasible: size bound\n"


# --- develop / verify ------------------------------------------------------------

def test_develop_verify_pipeline(tmp_path, capsys):
    starter = tmp_path / "ex21.starter"
    starter.write_text(catalog_get("Ex2.1").text())
    out_file = tmp_path / "ex21.design"

    code, _, err = run(capsys, "develop", str(starter), "-o", str(out_file))
    assert code == 0
    assert "105 blocks" in err

    assert "hole: x1\n" in out_file.read_text()

    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert out.startswith("PASS")
    assert "3^7 1^1" in out and "105 blocks" in out


def test_develop_output_round_trips_bit_identically(tmp_path, capsys):
    starter = tmp_path / "a1.starter"
    starter.write_text(catalog_get("A1/3^8 1^1").text())
    out_file = tmp_path / "a1.design"
    run(capsys, "develop", str(starter), "-o", str(out_file))
    text = out_file.read_text()
    assert serialize_design(parse_design(text)) == text


def test_verify_rejects_damaged_design(tmp_path, capsys):
    d = catalog_get("S/1^4").design()
    lines = serialize_design(d).splitlines(keepends=True)
    damaged = "".join(line for line in lines if not line.startswith("block: 0 1 "))
    f = tmp_path / "bad.design"
    f.write_text(damaged)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 1
    assert out.startswith("FAIL")
    assert err  # at least one diagnostic line


VERIFY_DIAGNOSTICS = {
    "missing": (
        "FAIL {f}: 3^7 1^1 (104 blocks)\n",
        "  pair (0, 1) missing in color 1\n"
        "  pair (0, 5) missing in color 2\n"
        "  pair (0, 21) missing in color 3\n"
        "  pair (1, 5) missing in color 3\n"
        "  pair (1, 21) missing in color 2\n"
        "  pair (5, 21) missing in color 1\n"
        "  104 blocks, expected 105\n",
    ),
    "doubled": (
        "FAIL {f}: 3^7 1^1 (106 blocks)\n",
        "  block (0, 1, 5, 21) occurs more than once\n"
        "  pair (0, 1) covered 2 times in color 1\n"
        "  pair (5, 21) covered 2 times in color 1\n"
        "  pair (0, 5) covered 2 times in color 2\n"
        "  pair (1, 21) covered 2 times in color 2\n"
        "  pair (0, 21) covered 2 times in color 3\n"
        "  pair (1, 5) covered 2 times in color 3\n"
        "  106 blocks, expected 105\n",
    ),
}


@pytest.mark.parametrize("damage", sorted(VERIFY_DIAGNOSTICS))
def test_verify_diagnostics_are_frozen(tmp_path, capsys, damage):
    text = serialize_design(catalog_get("Ex2.1").design())
    first = next(line for line in text.splitlines(keepends=True) if line.startswith("block: "))
    assert first == "block: 0 1 5 x1\n"
    f = tmp_path / "bad.design"
    f.write_text(text.replace(first, "") if damage == "missing" else text + first)
    code, out, err = run(capsys, "verify", str(f))
    want_out, want_err = VERIFY_DIAGNOSTICS[damage]
    assert (code, out, err) == (1, want_out.format(f=f), want_err)


def test_verify_many_files_worst_status_wins(tmp_path, capsys):
    good = tmp_path / "good.design"
    good.write_text(serialize_design(catalog_get("S/1^4").design()))
    bad = tmp_path / "bad.design"
    bad.write_text(serialize_design(catalog_get("S/1^4").design()).replace(
        "block: 0 1 2 3\n", "", 1))
    code, out, _ = run(capsys, "verify", str(good), str(bad))
    assert code == 1
    assert out.count("PASS") == 1 and out.count("FAIL") == 1


def test_verify_accepts_gdd_files(tmp_path, capsys):
    f = tmp_path / "g.gdd"
    f.write_text(catalog_get("GDD/3^4").text())
    code, out, _ = run(capsys, "verify", str(f))
    assert (code, out) == (0, f"PASS {f}: GDD 3^4 (9 blocks)\n")


def test_verify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(catalog_get("S/1^4").text()))
    code, out, _ = run(capsys, "verify", "-")
    assert (code, out) == (0, "PASS stdin: 1^4 (3 blocks)\n")


def test_verify_accepts_starter_files_by_developing(tmp_path, capsys):
    f = tmp_path / "ex22.starter"
    f.write_text(catalog_get("Ex2.2").text())
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "150 blocks" in out


# --- catalog ------------------------------------------------------------------

def test_catalog_list_filter(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--table", "C1")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_catalog_get_roundtrip(capsys):
    code, out, _ = run(capsys, "catalog", "get", "Ex2.1")
    assert code == 0
    assert out == catalog_get("Ex2.1").text()


def test_catalog_get_prints_the_note_on_stderr(capsys):
    code, out, err = run(capsys, "catalog", "get", "S/1^4")
    assert code == 0
    assert out == catalog_get("S/1^4").text()
    assert err == f"note: {catalog_get('S/1^4').note}\n"
    assert err.startswith("note: search_direct('1^4'")


def test_catalog_get_unknown_key(capsys):
    code, _, err = run(capsys, "catalog", "get", "nope")
    assert code == 3
    assert "error" in err


def test_catalog_get_unknown_key_prints_its_message_unquoted(capsys):
    code, out, err = run(capsys, "catalog", "get", "nosuch")
    assert code == 3
    assert out == ""
    assert err == "error: no catalog entry 'nosuch'\n"


# --- prove ------------------------------------------------------------------

def test_prove_exists(capsys):
    code, out, _ = run(capsys, "prove", "3^12 4^1", "--materialize")
    assert code == 0
    assert "EXISTS" in out and "R-FILL-A" in out
    assert "materialized: 369 blocks, verified" in out


def test_prove_infeasible(capsys):
    code, out, _ = run(capsys, "prove", "3^6")
    assert code == 1
    assert "INFEASIBLE" in out


def test_prove_unknown(capsys):
    code, out, _ = run(capsys, "prove", "3^29 16^1")
    assert code == 2
    assert "UNKNOWN_HERE" in out


@pytest.mark.parametrize("text, code", [
    ("3^12 4^1", 0), ("3^6", 1), ("3^29 16^1", 2), ("15^4 3^1 8^1", 0), ("3^1", 0)])
def test_prove_prints_prove_type_verdict(capsys, text, code):
    got, out, _ = run(capsys, "prove", text)
    assert out == prove_type(text)[0].describe() + "\n"
    assert got == code


def test_prove_materialize_to_file(tmp_path, capsys):
    f = tmp_path / "got.design"
    code, _, _ = run(capsys, "prove", "3^12 4^1", "--materialize", "-o", str(f))
    assert code == 0
    d = parse_design(f.read_text())
    assert d.type == parse_type("3^12 4^1")
    assert verify_design(d).ok


# --- table ------------------------------------------------------------------

def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--nmax", "8", "--umax", "6")
    assert code == 0
    assert out.splitlines()[0].startswith("type 3^n u^1")
    assert "undecided" not in err


def test_table_counts_the_undecided_cells_inside_the_paper_region(capsys):
    code, _, err = run(capsys, "table", "--nmax", "16", "--umax", "18")
    assert code == 2
    assert err.rstrip().endswith(
        "undecided: [(13, 18), (16, 3)] (1 inside the paper's theorem region)")


def test_table_csv_deterministic(capsys):
    code1, out1, _ = run(capsys, "table", "--nmax", "8", "--umax", "8", "--csv")
    code2, out2, _ = run(capsys, "table", "--nmax", "8", "--umax", "8", "--csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "n,u,verdict,blocks,rule,witness"


def test_table_csv_to_file(tmp_path, capsys):
    f = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--nmax", "6", "--umax", "4", "--csv", str(f))
    assert code == 0 and out == ""
    assert f.read_text().startswith("n,u,verdict")


# --- search ------------------------------------------------------------------

def test_search_direct_found(capsys):
    code, out, err = run(capsys, "search", "direct", "--type", "3^4")
    assert code == 0
    assert "found" in err
    d = parse_design(out)
    assert verify_design(d).ok


def test_search_direct_none(capsys):
    code, _, err = run(capsys, "search", "direct", "--type", "1^5")
    assert code == 1
    assert "none" in err


def test_search_starter_found(capsys):
    code, out, err = run(capsys, "search", "starter", "--type", "3^5")
    assert code == 0
    ss = parse_starter(out)
    assert ss.type == parse_type("3^5")


def test_search_starter_none(capsys):
    code, _, err = run(capsys, "search", "starter", "--type", "3^4")
    assert code == 1


def test_search_orbits_found(capsys):
    code, out, _ = run(capsys, "search", "orbits", "--type", "3^4 1^1", "--step", "6")
    assert code == 0
    assert parse_starter(out).step == 6


def test_search_climb_timeout(capsys):
    # --nodes reaches climb: the frozen climb row for 1^5 at 3000 nodes
    code, _, err = run(capsys, "search", "climb", "--type", "1^5", "--nodes", "3000")
    assert code == 2
    assert err.startswith("timeout: 3001 nodes")


@pytest.mark.parametrize("argv, code, head", [
    (("direct", "--type", "1^7"), 1, "none: 26681 nodes"),
    (("orbits", "--type", "3^4", "--step", "4"), 1, "none: 535 nodes"),
    (("climb", "--type", "1^5", "--nodes", "3000"), 2, "timeout: 3001 nodes"),
], ids=["direct", "orbits", "climb"])
def test_search_verdicts_ignore_the_clock(capsys, argv, code, head):
    # only the node budget stops a search: no module but the CLI reads the
    # clock (tests/test_imports.py), and the CLI only prints the time
    got, _, err = run(capsys, "search", *argv)
    assert got == code
    assert err.startswith(head)


def _split_uniform_reference(t):
    """The CLI's former h^n u^1 reader, kept as the reference for
    `_split_uniform`."""
    items = list(t.items)
    if len(items) == 1:
        return items[0][0], items[0][1], 0
    if len(items) == 2:
        bodies = [(s, c) for s, c in items if c > 1]
        if len(bodies) == 1:
            (h, n) = bodies[0]
            (u,) = [s for s, c in items if c == 1 and s != h]
            return h, n, u
    raise ValueError(f"type {t} is not of the h^n u^1 shape these searches need")


def _outcome(f, t):
    try:
        return f(t)
    except ValueError as exc:
        return str(exc)


def test_split_uniform_matches_the_reference():
    grid = [TypeSpec.from_counts(dict(zip(sizes, counts)))
            for k in (1, 2, 3)
            for sizes in itertools.combinations(range(1, 7), k)
            for counts in itertools.product(range(1, 7), repeat=k)]
    assert len(grid) == 4896
    shapes = 0
    for t in grid:
        want = _outcome(_split_uniform_reference, t)
        assert _outcome(_split_uniform, t) == want, t
        shapes += isinstance(want, tuple)
    assert shapes == 6 * 6 + 15 * 2 * 5  # h^n, and h^n u^1 with n > 1


# --- constructions ------------------------------------------------------------

def test_multiply_command(tmp_path, capsys):
    f = tmp_path / "base.design"
    f.write_text(serialize_design(catalog_get("S/3^4").design()))
    code, out, _ = run(capsys, "multiply", str(f), "3")
    assert code == 0
    d = parse_design(out)
    assert d.type == parse_type("9^4")
    assert len(d.blocks) == 243


# S/3^4 short of its first block, and what `verify` says of it
_S34_SHORT_ERRORS = [
    "  pair (0, 3) missing in color 1",
    "  pair (0, 7) missing in color 3",
    "  pair (0, 11) missing in color 2",
    "  pair (3, 7) missing in color 2",
    "  pair (3, 11) missing in color 3",
    "  pair (7, 11) missing in color 1",
    "  26 blocks, expected 27",
]


def _s34_short(tmp_path):
    base = catalog_get("S/3^4").design()
    f = tmp_path / "short.design"
    f.write_text(serialize_design(Design(base.structure, base.blocks[1:], base.label_base)))
    return f


def test_multiply_prints_the_diagnostics_of_a_product_that_fails(tmp_path, capsys):
    # a base design short of one block would multiply to a design short of
    # nine; the base is checked first, so its own diagnostics are printed
    f = _s34_short(tmp_path)
    code, out, err = run(capsys, "multiply", str(f), "3")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"input {f} fails verification:", *_S34_SHORT_ERRORS]


@pytest.mark.parametrize("m", ["0", "-3"])
def test_multiply_rejects_an_order_below_one(tmp_path, capsys, m):
    f = tmp_path / "base.design"
    f.write_text(serialize_design(catalog_get("S/1^4").design()))
    code, out, err = run(capsys, "multiply", str(f), m)
    assert code == 3 and out == ""
    assert err == f"error: order and count must be positive, got m = {m}, k = 2\n"


@pytest.mark.parametrize("argv, message", [
    (["multiply", "{s14}", "10"], "order 10 needs a construction beyond the prime-power product"),
    (["multiply", "{gdd}", "3"], "{gdd}: expected a design or starter file, found gdd"),
    (["fill", "a", "{outer}", "{inner}", "--new-points", "3", "--keep", "5"],
     "no hole of size 5 to keep"),
], ids=["multiply-order-10", "multiply-gdd", "fill-keep-absent-size"])
def test_construction_input_errors_name_the_problem(tmp_path, capsys, argv, message):
    files = {}
    for name, key in [("s14", "S/1^4"), ("gdd", "GDD/3^4"), ("outer", "C1/9^4 1^1"),
                      ("inner", "S/3^4")]:
        files[name] = str(tmp_path / f"{name}.txt")
        Path(files[name]).write_text(catalog_get(key).text())
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (3, "")
    assert err == f"error: {message.format(**files)}\n"


def test_fill_command(tmp_path, capsys):
    outer = tmp_path / "outer.design"
    outer.write_text(catalog_get("C1/9^4 1^1").text())
    inner = tmp_path / "inner.design"
    inner.write_text(serialize_design(catalog_get("S/3^4").design()))
    code, out, _ = run(
        capsys, "fill", "a", str(outer), str(inner),
        "--new-points", "3", "--keep", "1",
    )
    assert code == 0
    d = parse_design(out)
    assert d.type == parse_type("3^12 4^1")
    assert len(d.blocks) == 369


def test_fill_names_an_inner_design_that_fails(tmp_path, capsys):
    outer = tmp_path / "outer.design"
    outer.write_text(catalog_get("C1/9^4 1^1").text())
    inner = _s34_short(tmp_path)
    code, out, err = run(
        capsys, "fill", "a", str(outer), str(inner),
        "--new-points", "3", "--keep", "1",
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"input {inner} fails verification:", *_S34_SHORT_ERRORS]


def test_fill_b_command(tmp_path, capsys):
    # 15^4 3^1 8^1: the four 15-holes take 3^5, the 3-hole takes 3^1
    outer = tmp_path / "outer.design"
    code, _, _ = run(capsys, "prove", "15^4 3^1 8^1", "--materialize", "-o", str(outer))
    assert code == 0
    inner_s = tmp_path / "s.starter"
    inner_s.write_text(catalog_get("S/3^5").text())
    inner_t = tmp_path / "t.design"
    inner_t.write_text(serialize_design(Design([[0, 1, 2]], [])))
    code, out, err = run(
        capsys, "fill", "b", str(outer), str(inner_s), str(inner_t), "--keep", "8",
    )
    assert code == 0
    assert err == "filled -> 3^21 8^1: 1197 blocks, verified\n"
    d = parse_design(out)
    assert d.type == parse_type("3^21 8^1")
    assert len(d.blocks) == 1197
    assert verify_design(d).ok


def test_convert_quasigroup(tmp_path, capsys):
    f = tmp_path / "q.design"
    f.write_text(serialize_design(catalog_get("S/1^4").design()))
    code, out, err = run(capsys, "convert", "quasigroup", str(f))
    assert code == 0
    assert "frame check: PASS" in err
    grid = [line.split() for line in out.strip().splitlines()]
    assert grid[0][0] == "*"  # header corner, then column labels
    assert grid[1][1] == "."  # hole-interior cells print as dots
    assert grid[1][2] == "2"  # 0 * 1 from the first block

    # a developed starter keeps its long-hole label in the table
    f = tmp_path / "ex21.starter"
    f.write_text(catalog_get("Ex2.1").text())
    code, out, err = run(capsys, "convert", "quasigroup", str(f))
    assert code == 0
    assert "frame check: PASS" in err
    grid = [line.split() for line in out.strip().splitlines()]
    assert grid[0][-1] == "x1" and grid[-1][0] == "x1"
    assert grid[1][21] == "x1"  # 0 * 20 = x1, from the developed starter 0 1 5 x1


def _ex21_damaged(tmp_path, name, edit):
    d = catalog_get("Ex2.1").design()
    f = tmp_path / name
    f.write_text(serialize_design(Design(d.holes, edit(list(d.blocks)), label_base=d.label_base)))
    return f


def test_convert_quasigroup_missing_block_diagnostics(tmp_path, capsys):
    # the table prints with holes where the block was; stderr is pinned line for line
    f = _ex21_damaged(tmp_path, "missing.design", lambda b: b[1:])
    code, out, err = run(capsys, "convert", "quasigroup", str(f))
    assert code == 1
    assert len(out.splitlines()) == 23
    assert err.splitlines() == [
        "frame check: FAIL",
        "  row 0 is not a permutation of the points outside its hole",
        "  column 0 is not a permutation of the points outside its hole",
        "  row 1 is not a permutation of the points outside its hole",
        "  column 1 is not a permutation of the points outside its hole",
        "  row 5 is not a permutation of the points outside its hole",
        "  column 5 is not a permutation of the points outside its hole",
        "  row 21 is not a permutation of the points outside its hole",
        "  column 21 is not a permutation of the points outside its hole",
    ]


def test_convert_quasigroup_doubled_block_is_a_negative(tmp_path, capsys):
    # no table can hold a cell defined twice: the verdict and the
    # diagnostics still come out, as a definite negative
    f = _ex21_damaged(tmp_path, "doubled.design", lambda b: b + [b[0]])
    code, out, err = run(capsys, "convert", "quasigroup", str(f))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "frame check: FAIL",
        "  product 0*1 defined 2 times",
        "  product 1*0 defined 2 times",
        "  product 5*21 defined 2 times",
        "  product 21*5 defined 2 times",
    ]


def test_convert_quasigroup_refuses_an_unknown_point(tmp_path, capsys):
    # no table can hold a point outside the holes: no table prints, and
    # the frame check names the block
    f = _ex21_damaged(tmp_path, "unknown.design", lambda b: [b[0][:3] + (99,)] + b[1:])
    code, out, err = run(capsys, "convert", "quasigroup", str(f))
    assert code == 1
    assert out == ""
    assert err.splitlines()[:2] == ["frame check: FAIL", "  malformed block (0, 1, 5, 99)"]


# --- error handling ------------------------------------------------------------

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_missing_argument_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["multiply"])
    assert exc.value.code == 3


def test_missing_file_reports_usage_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.design")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["catalog", "get", "Ex2.1", "-o", "{dir}"],
], ids=["read", "write"])
def test_io_errors_exit_with_the_usage_code(tmp_path, capsys, argv):
    # a directory where a file belongs: exit 3 and one line, no traceback
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# --- README transcripts -----------------------------------------------------------

README_COMMANDS = ['feasible 8 2', 'feasible 9 1', 'prove "3^12 4^1" --materialize']


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_transcript_matches_the_cli(capsys, command):
    # the README shows each command's prompt line followed by its exact stdout
    _, out, _ = run(capsys, *shlex.split(command))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"$ hsd {command}\n{out}" in readme


# --- console script and stdin plumbing -------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _env_with_src():
    """The environment with src/ on PYTHONPATH, so subprocesses import this hsd."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_script_pipeline(tmp_path):
    starter = tmp_path / "p.starter"
    starter.write_text(catalog_get("Ex2.1").text())
    pipeline = f"{sys.executable} -m hsd.cli develop - < {starter} | {sys.executable} -m hsd.cli verify -"
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True, timeout=120,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS")


def test_console_script_entry_point():
    # the installed `hsd` script and `python -m hsd` both call hsd.cli:main
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'hsd = "hsd.cli:main"' in scripts.splitlines()
    proc = subprocess.run(
        [sys.executable, "-m", "hsd", "feasible", "8", "2"],
        capture_output=True, text=True, timeout=60, env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "feasible, expected 150 blocks\n"
