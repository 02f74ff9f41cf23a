"""End-to-end command tests, run in-process through main(argv)."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from projcalc import ZFC, ast, cli, parser
from projcalc.cli import build_parser, main
from projcalc.derivation import serialize
from projcalc.games import BUDGET_ENV, FiniteGame, compile_target_expr, dumps_game, solve
from projcalc.infer import infer_set

from .oracles import brute_force_winner, reference_solve
from .progen import compl_nest, corpus, doubling_chain, game_corpus, linear_chain, neg_nest, space_nest

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """\
space X = baire
space Y = cantor
set A in X : sigma 1
set B in X : pi 2
func f : prod(X, Y) -> reals : delta 2
kernel q : X ~> Y : delta 1
let U = union(A, compl(B))
assert class(U) <= sigma 2
assert class(A) == sigma 1
"""

GATED = PROGRAM + "assert level(integral(f, q)) <= delta 5\n"


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.pjc"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


@pytest.fixture
def gated(tmp_path):
    path = tmp_path / "gated.pjc"
    path.write_text(GATED, encoding="utf-8")
    return str(path)


# --- infer ----------------------------------------------------------------------


def test_infer_green(program, capsys):
    assert main(["infer", program]) == 0
    out = capsys.readouterr().out
    assert "let U: class sigma 2" in out
    assert "assert class(U) <= sigma 2 -> ok" in out
    assert "all checks hold" in out


def test_infer_gate_and_pd(gated, capsys):
    assert main(["infer", gated]) == 1
    out = capsys.readouterr().out
    assert "AxiomRequired: F-INT" in out  # diagnostic names the blocking rule
    assert main(["infer", gated, "--assume-pd"]) == 0


def test_infer_failed_assertion(tmp_path):
    path = tmp_path / "p.pjc"
    path.write_text(PROGRAM + "assert class(B) <= sigma 1\n", encoding="utf-8")
    assert main(["infer", str(path)]) == 1


def test_infer_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.pjc"
    path.write_text("set Z in\n", encoding="utf-8")
    assert main(["infer", str(path)]) == 2
    assert "1:" in capsys.readouterr().err


def test_infer_resolution_error(tmp_path):
    path = tmp_path / "p.pjc"
    path.write_text("space X = baire\nassert class(ghost) <= sigma 1\n", encoding="utf-8")
    assert main(["infer", str(path)]) == 2


@pytest.mark.parametrize("line,error", [
    ("set A in X : delta 0", "error: 2:20: level must be at least 1"),
    ("set A in X : sigma 1\nassert class(A) <= sigma 0", "error: 3:26: level must be at least 1"),
    ("let U = union i in nat of A_i in X with levels bounded sigma 0", "error: 2:62: level must be at least 1"),
    ("func f : X -> X : delta 0", "error: 2:25: level must be at least 1"),
    ("func f : X -> X : delta 70000", "error: LevelOverflow: level 70000 exceeds cap 65535"),
    ("kernel q : X ~> X : delta 65536", "error: LevelOverflow: level 65536 exceeds cap 65535"),
    ("func f : X -> X : delta 1\nassert level(f) <= delta 0", "error: 3:26: level must be at least 1"),
])
def test_level_token_out_of_range_exits_two(line, error, tmp_path, capsys):
    path = tmp_path / "p.pjc"
    path.write_text(f"space X = baire\n{line}\n", encoding="utf-8")
    assert main(["infer", str(path)]) == 2
    assert capsys.readouterr().err == error + "\n"


@pytest.mark.parametrize("line,rc,error", [
    (f"set A in X : sigma {'9' * 5000}", 2, f"error: LevelOverflow: level {'9' * 5000} exceeds cap 65535\n"),
    (f"set A in X : sigma {'9' * 4300}", 2, f"error: LevelOverflow: level {'9' * 4300} exceeds cap 65535\n"),
    (f"func u : X -> reals : delta 1\nlet S = sublevel(u, <, {'9' * 5000})", 2,
     "error: 3:24: integer of 5000 digits is too long\n"),
    (f"set A in prod(X, X) : sigma 1\nlet P = proj[{'9' * 5000}](A)", 2,
     "error: 3:14: integer of 5000 digits is too long\n"),
    (f"set A in X : sigma {'0' * 5000}1\nassert class(A) == sigma 1", 0, ""),
], ids=["level", "level-4300", "rational", "axis", "leading-zeros"])
def test_huge_integer_tokens(line, rc, error, tmp_path, capsys):
    # int() refuses strings of more than 4300 digits; the parser checks first
    path = tmp_path / "p.pjc"
    path.write_text(f"space X = baire\n{line}\n", encoding="utf-8")
    assert main(["infer", str(path), "--json"]) == rc
    assert capsys.readouterr().err == error


def test_integer_tokens_without_a_digit_limit(monkeypatch, tmp_path, capsys):
    # interpreters before 3.10.7 have neither the limit nor its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    path = tmp_path / "p.pjc"
    path.write_text(
        "space X = baire\nset A in prod(X, X) : sigma 1\nfunc u : X -> reals : delta 1\n"
        "let P = proj[1](A)\nlet S = sublevel(u, <, 3/2)\nassert class(P) <= sigma 1\n",
        encoding="utf-8",
    )
    assert main(["infer", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_function_level_past_the_cap(tmp_path, capsys):
    # a derived level past the cap is a failed verdict, and a row that claims
    # one fails the check
    path = tmp_path / "cap.pjc"
    path.write_text(
        "space X = baire\nfunc f : X -> X : delta 40000\nfunc g : X -> X : delta 40000\n"
        "let h = compose(f, g)\n",
        encoding="utf-8",
    )
    assert main(["infer", str(path), "--json"]) == 1
    [row] = json.loads(capsys.readouterr().out)["bindings"]
    assert row["detail"] == "LevelOverflow: level 80000 exceeds cap 65535"
    rows = [
        ("DECL", [], "f", 40000),
        ("DECL", [], "g", 40000),
        ("F-COMP", [0, 1], "compose(f, g)", 80000),
    ]
    nodes = [
        {"judgment": f"level delta {level}", "premises": premises, "rule": rule, "subject": subject}
        for rule, premises, subject, level in rows
    ]
    forged = tmp_path / "h.pjd"
    forged.write_text(json.dumps({"mode": "ZFC", "nodes": nodes, "schema": "projcalc/3"}), encoding="utf-8")
    assert main(["check", str(forged), str(path)]) == 1
    assert capsys.readouterr().out == "check failed at /: level 80000 exceeds cap 65535\n"


def test_infer_missing_file(capsys):
    assert main(["infer", "/nonexistent/x.pjc"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["infer", "BAD"], ["fmt", "BAD"], ["check", "PJD", "BAD"], ["check", "BAD", "PJC"], ["game", "BAD"],
], ids=["infer", "fmt", "check-program", "check-derivation", "game"])
def test_non_utf8_input_exits_two(argv, derivation, gated, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"space X = baire\n\xff\n")
    files = {"BAD": str(bad), "PJD": derivation, "PJC": gated}
    capsys.readouterr()
    assert main([files.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot read {bad}: not UTF-8 text (byte 16)\n"


def test_infer_json_deterministic(gated, capsys):
    assert main(["infer", gated, "--assume-pd", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["infer", gated, "--assume-pd", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical: no timing in machine reports
    doc = json.loads(first)
    assert doc["schema"] == "projcalc/1"
    assert doc["mode"] == "ZFC_PD"
    assert doc["ok"] is True
    assert doc["bindings"][0] == {
        "kind": "set", "name": "U", "ok": True, "conclusion": "class sigma 2",
    }
    assert [a["ok"] for a in doc["assertions"]] == [True, True, True]
    assert "ms" not in first


def test_infer_emitted_derivations_check(gated, tmp_path, capsys):
    out_dir = tmp_path / "derivs"
    assert main(["infer", gated, "--assume-pd", "--json", "--emit-derivations", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["derivations"]
    assert sorted(doc["derivations"]) == sorted(str(p) for p in out_dir.iterdir())
    for path in doc["derivations"]:
        assert main(["check", path, gated]) == 0


def test_emit_derivations_onto_a_file_exits_two(gated, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["infer", gated, "--assume-pd", "--json", "--emit-derivations", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {taken}: ") and "Traceback" not in err


def test_derivations_frozen(tmp_path, capsys):
    # over the corpus and three chains, in both modes: every infer report and
    # exit code, and every emitted file's check output and exit code, frozen
    # before subjects became references and unchanged by it, or by lets
    # citing the files of the lets they use; and the .pjd bytes themselves,
    # frozen for schema projcalc/3 with those citations
    reports, checks, files = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    texts = corpus() + [doubling_chain(12), linear_chain(200), compl_nest(150)]
    for i, text in enumerate(texts):
        path = tmp_path / f"p{i}.pjc"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--assume-pd"]):
            out_dir = tmp_path / f"d{i}{''.join(flags)}"
            rc = main(["infer", str(path), "--json", "--emit-derivations", str(out_dir), *flags])
            stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
            reports.update(f"{rc}\n{stdout}".encode())
            for pjd in sorted(out_dir.iterdir()):
                files.update(pjd.name.encode() + b"\n" + pjd.read_bytes())
                rc = main(["check", str(pjd), str(path)])
                checks.update(f"{pjd.name}\n{rc}\n{capsys.readouterr().out}".encode())
    assert reports.hexdigest() == "084c1d671b6cbfb1de6a8ecb09fa8557af9664dcf1af7f3ebab4107896d34ce1"
    assert checks.hexdigest() == "bcfabb71d5d7d8eaa46a6eaabdd83342ab459a4ab84d56e6ed1de80596b44a50"
    assert files.hexdigest() == "cb18d00cf6820cab12a6bde36c44c9c5c7898bb675a7dce09d1602d630e778de"


def _fresh_cli(argv):
    # a fresh interpreter, so the stack is as deep as a command-line run gets
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "projcalc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _fresh_run(argv, text, tmp_path):
    path = tmp_path / "deep.pjc"
    path.write_text(text, encoding="utf-8")
    return _fresh_cli([argv[0], str(path), *argv[1:]])


@pytest.mark.parametrize("command,text", [
    ("infer", compl_nest(2000)),
    ("infer", neg_nest(2000)),
    ("infer", compl_nest(100_000)),
    ("fmt", compl_nest(2000)),
    ("fmt", compl_nest(100_000)),
    ("infer", space_nest("prod", 2000)),
    ("infer", space_nest("measures", 2000)),
    ("fmt", space_nest("prod", 2000)),
    ("fmt", space_nest("measures", 2000)),
], ids=[
    "infer-nest-2000", "infer-neg-nest-2000", "infer-nest-100000", "fmt-nest-2000", "fmt-nest-100000",
    "infer-prod-2000", "infer-measures-2000", "fmt-prod-2000", "fmt-measures-2000",
])
def test_deep_nest_runs(command, text, tmp_path, capsys):
    # expressions and space values are walked with explicit stacks, so
    # nesting depth is free
    out_dir = tmp_path / "d"
    flags = ["--json", "--emit-derivations", str(out_dir)] if command == "infer" else []
    run = _fresh_run([command, *flags], text, tmp_path)
    assert run.returncode == 0, run.stderr
    if command == "fmt":
        assert run.stdout == text.replace(" in X ", " in baire ")  # spaces print structurally
        return
    assert json.loads(run.stdout)["ok"] is True
    emitted = sorted(out_dir.iterdir())
    assert [p.name for p in emitted] == ["let_N.pjd"]
    assert main(["check", str(emitted[0]), str(tmp_path / "deep.pjc")]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_nest_derivations_grow_linearly(tmp_path, capsys):
    # each row names its subexpression's row instead of spelling it, so a
    # nest twice as deep writes about twice the bytes
    sizes = {}
    for depth in (750, 1500, 3000):
        path = tmp_path / f"nest{depth}.pjc"
        path.write_text(compl_nest(depth), encoding="utf-8")
        out_dir = tmp_path / f"d{depth}"
        assert main(["infer", str(path), "--emit-derivations", str(out_dir)]) == 0
        sizes[depth] = (out_dir / "let_N.pjd").stat().st_size
    assert sizes[1500] < 2.2 * sizes[750] and sizes[3000] < 2.2 * sizes[1500]
    assert sizes[3000] < 1_000_000


def test_doubling_spaces_compare_at_once(tmp_path):
    # S40 and T40 are declared apart but equal: the carrier checks of union
    # and proj must not take a step per leaf, 2**40 of them
    lines = [f"space {c}0 = baire" for c in "ST"]
    lines += [f"space {c}{i} = prod({c}{i - 1}, {c}{i - 1})" for c in "ST" for i in range(1, 41)]
    lines += ["set A in S40 : sigma 1", "set B in T40 : sigma 1", "let U = union(A, B)", "let P = proj[1](A)"]
    out_dir = tmp_path / "d"
    run = _fresh_run(["infer", "--emit-derivations", str(out_dir)], "\n".join(lines) + "\n", tmp_path)
    assert run.returncode == 0, run.stderr
    emitted = sorted(out_dir.iterdir())
    assert [p.name for p in emitted] == ["let_P.pjd", "let_U.pjd"]
    for pjd in emitted:
        done = _fresh_cli(["check", str(pjd), str(tmp_path / "deep.pjc")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok: ")


def test_long_let_chain_infers(tmp_path):
    # one engine infers the lets in order, so chain length costs no stack
    run = _fresh_run(["infer", "--json"], linear_chain(3000), tmp_path)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["ok"] is True
    assert doc["bindings"][-1] == {
        "kind": "set", "name": "A3000", "ok": True, "conclusion": "class sigma 1",
    }


def test_one_engine_per_infer_run(tmp_path, monkeypatch, capsys):
    # each let's derivation is the premise of the next one's: the chain is
    # built once, not once per binding
    n = 50
    path = tmp_path / "linear.pjc"
    path.write_text(linear_chain(n), encoding="utf-8")
    roots = []
    monkeypatch.setattr(cli, "serialize", lambda d, cites=None: roots.append(d) or "")
    assert main(["infer", str(path), "--emit-derivations", str(tmp_path / "d")]) == 0
    assert len(roots) == n
    for before, after in zip(roots, roots[1:]):
        assert after.premises[0] is before
    seen, stack = set(), list(roots)
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen.add(id(d))
            stack.extend(d.premises)
    assert len(seen) == n + 1  # the declaration of A0 and one complement per let


# --- check ----------------------------------------------------------------------


@pytest.fixture
def derivation(gated, tmp_path):
    out_dir = tmp_path / "d"
    main(["infer", gated, "--assume-pd", "--emit-derivations", str(out_dir)])
    return str(out_dir / "let_U.pjd")


def test_check_ok(derivation, gated, capsys):
    assert main(["check", derivation, gated]) == 0
    assert "ok: " in capsys.readouterr().out


def test_check_tampered_rule(derivation, gated, tmp_path, capsys):
    doc = json.loads(open(derivation, encoding="utf-8").read())
    doc["nodes"][-1]["rule"] = "S-COMPL"  # wrong arity for the union's two premises
    bad = tmp_path / "bad.pjd"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(bad), gated]) == 1
    assert "check failed at /" in capsys.readouterr().out


def test_check_wrong_environment(derivation, tmp_path):
    # same shape, different declared class for A: the leaf no longer matches
    other = tmp_path / "other.pjc"
    other.write_text(PROGRAM.replace("set A in X : sigma 1", "set A in X : pi 1"), encoding="utf-8")
    assert main(["check", derivation, str(other)]) == 1


def test_check_malformed_document(gated, tmp_path):
    bad = tmp_path / "junk.pjd"
    bad.write_text("{", encoding="utf-8")
    assert main(["check", str(bad), gated]) == 2


@pytest.mark.parametrize("text", [
    # the tree-shaped layout that preceded the node table
    '{"judgment": "class sigma 1", "premises": [], "rule": "DECL", "subject": "A"}',
    "[" * 200_000,
], ids=["tree-format", "nested-200k"])
def test_check_unreadable_document_exits_two(text, gated, tmp_path, capsys):
    bad = tmp_path / "bad.pjd"
    bad.write_text(text, encoding="utf-8")
    assert main(["check", str(bad), gated]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("edit,error", [
    (lambda doc: doc["nodes"][-1].update(subject="union(A, #2)"),
     "error: #2 at /nodes/3 names no premise\n"),
    (lambda doc: doc["nodes"][-1].update(subject="union(A, #1.0.0)"),
     "error: #1.0.0 at /nodes/3 names no premise\n"),
    (lambda doc: doc.update(schema="projcalc/2"),
     "error: unsupported schema 'projcalc/2'; expected 'projcalc/3'\n"),
], ids=["past-the-premises", "below-a-leaf", "schema-2"])
def test_check_unreadable_reference_exits_two(edit, error, derivation, gated, tmp_path, capsys):
    doc = json.loads(open(derivation, encoding="utf-8").read())
    assert doc["nodes"][-1]["subject"] == "union(A, #1)"
    edit(doc)
    bad = tmp_path / "bad.pjd"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(bad), gated]) == 2
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("bottom,subject", [
    ("f", "add(#0, #1)"),
    ("", "#0#1"),
], ids=["doubling-text", "doubling-visits"])
def test_check_refuses_a_subject_that_doubles_per_row(bottom, subject, program, tmp_path, capsys):
    # every row names the row before it twice, so the root's subject spells
    # 2**60 copies of the bottom row's; each judgment re-derives, so check
    # passes, and writing the ok line stops within the document's length
    rows = [
        {"judgment": "level delta 2", "premises": [], "rule": "DECL", "subject": "f"},
        {"judgment": "level delta 2", "premises": [0], "rule": "F-ARITH", "subject": bottom},
    ]
    rows += [
        {"judgment": "level delta 2", "premises": [i, i], "rule": "F-ARITH", "subject": subject}
        for i in range(1, 61)
    ]
    bad = tmp_path / "doubling.pjd"
    bad.write_text(json.dumps({"mode": "ZFC", "nodes": rows, "schema": "projcalc/3"}), encoding="utf-8")
    assert main(["check", str(bad), program]) == 2
    assert capsys.readouterr() == ("", "error: the derivation's subject is longer than the program's own text\n")


def test_check_prints_a_shared_subject_the_program_spells(tmp_path, capsys):
    # the engine merges equal rows, so a balanced tree of equal halves
    # writes one row a level while the program spells every leaf
    expr = "A"
    for _ in range(12):
        expr = f"union({expr}, {expr})"
    program = tmp_path / "balanced.pjc"
    program.write_text(f"space X = baire\nset A in X : sigma 1\nlet U = {expr}\n", encoding="utf-8")
    assert main(["infer", str(program), "--emit-derivations", str(tmp_path / "d")]) == 0
    path = tmp_path / "d" / "let_U.pjd"
    assert len(path.read_text(encoding="utf-8")) < len(expr)
    capsys.readouterr()
    assert main(["check", str(path), str(program)]) == 0
    assert capsys.readouterr().out == f"ok: {expr} : class sigma 1 [ZFC]\n"


PUM_PAST_THE_CAP = {"rule": "P-UM", "subject": "sigma 99999999",
                    "judgment": "prop universally measurable: sigma 99999999"}
OVERFLOW = "LevelOverflow: level 99999999 exceeds cap 65535"


@pytest.mark.parametrize("mode,row,rc,out,err", [
    # the P-UM subject is read in both modes: a failed check, not a crash
    ("ZFC", PUM_PAST_THE_CAP, 1, f"check failed at /: {OVERFLOW}\n", ""),
    ("ZFC_PD", PUM_PAST_THE_CAP, 1, f"check failed at /: {OVERFLOW}\n", ""),
    ("ZFC", {"rule": "DECL", "subject": "A", "judgment": "class sigma 99999999"}, 2, "",
     f"error: bad judgment at /nodes/0: {OVERFLOW}\n"),
], ids=["pum-zfc", "pum-zfc-pd", "class-judgment"])
def test_check_level_past_the_cap(mode, row, rc, out, err, gated, tmp_path, capsys):
    bad = tmp_path / "bad.pjd"
    bad.write_text(json.dumps({"mode": mode, "nodes": [dict(row, premises=[])], "schema": "projcalc/3"}),
                   encoding="utf-8")
    assert main(["check", str(bad), gated]) == rc
    assert capsys.readouterr() == (out, err)


def test_check_tampered_shared_row(tmp_path, capsys):
    # a file with every row inline, as serialize writes with no citations
    program = tmp_path / "doubling.pjc"
    program.write_text(doubling_chain(4), encoding="utf-8")
    _, env = parser.parse(doubling_chain(4))
    path = tmp_path / "let_A4.pjd"
    path.write_text(serialize(infer_set(ast.NamedSet("A4"), env, ZFC)[1]), encoding="utf-8")
    assert main(["check", str(path), str(program)]) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    uses = [0] * len(doc["nodes"])
    for row in doc["nodes"]:
        for p in row["premises"]:
            uses[p] += 1
    shared = max(i for i, n in enumerate(uses) if n >= 2 and doc["nodes"][i]["rule"] == "S-CU")
    doc["nodes"][shared]["judgment"] = "class delta 3"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(path), str(program)]) == 1
    # the row is named twice; the path is its first visit in premise order
    assert capsys.readouterr().out == (
        "check failed at /premises/0: conclusion 'class delta 3' does not match "
        "recomputed 'class delta 2' for rule S-CU\n"
    )


# --- citations --------------------------------------------------------------------


def _emit(tmp_path, text: str, *flags: str, name: str = "d"):
    """The program at tmp_path/<name>.pjc, its files emitted into tmp_path/<name>,
    and a fresh front end, so no file of it counts as verified yet."""
    program = tmp_path / f"{name}.pjc"
    program.write_text(text, encoding="utf-8")
    out_dir = tmp_path / name
    assert main(["infer", str(program), "--emit-derivations", str(out_dir), *flags]) == 0
    cli._front_end.cache_clear()
    return str(program), out_dir


def _rows(path) -> tuple[dict, list]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc, doc["nodes"]


def _sha(path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_let_cites_the_lets_it_uses(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    _, rows = _rows(out / "let_A3.pjd")
    assert rows == [
        {"digest": _sha(out / "let_A2.pjd"), "judgment": "class sigma 1", "premises": [], "rule": "LET",
         "subject": "A2"},
        {"judgment": "class pi 1", "premises": [0], "rule": "S-COMPL", "subject": "compl(A2)"},
    ]
    capsys.readouterr()
    assert main(["check", str(out / "let_A3.pjd"), program]) == 0
    assert capsys.readouterr().out == "ok: compl(A2) : class pi 1 [ZFC]\n"


def test_check_missing_cited_file(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    (out / "let_A1.pjd").unlink()
    capsys.readouterr()
    assert main(["check", str(out / "let_A3.pjd"), program]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {out / 'let_A1.pjd'}: ")


def test_check_cited_file_edited_after_emit(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    cited = out / "let_A1.pjd"
    digest = _sha(cited)
    cited.write_text(cited.read_text(encoding="utf-8") + " ", encoding="utf-8")  # still a valid file
    capsys.readouterr()
    assert main(["check", str(out / "let_A2.pjd"), program]) == 1
    assert capsys.readouterr().out == f"check failed at /premises/0: no verified let_A1.pjd hashes to {digest}\n"


def test_check_failure_inside_cited_file(tmp_path, capsys):
    # a cited file whose own row is wrong, cited by its new digest
    program, out = _emit(tmp_path, linear_chain(3))
    doc, rows = _rows(out / "let_A1.pjd")
    rows[-1]["rule"] = "S-PROJ"
    (out / "let_A1.pjd").write_text(json.dumps(doc), encoding="utf-8")
    doc, rows = _rows(out / "let_A2.pjd")
    rows[0]["digest"] = _sha(out / "let_A1.pjd")
    (out / "let_A2.pjd").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(out / "let_A2.pjd"), program]) == 1
    assert capsys.readouterr().out == (
        f"check failed at {out / 'let_A1.pjd'}#/: conclusion 'class pi 1' does not match "
        "recomputed 'class sigma 1' for rule S-PROJ\n"
    )


def test_check_cited_judgment_differs(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    doc, rows = _rows(out / "let_A2.pjd")
    rows[0]["judgment"] = "class sigma 1"
    (out / "let_A2.pjd").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(out / "let_A2.pjd"), program]) == 1
    assert capsys.readouterr().out == (
        "check failed at /premises/0: let_A1.pjd concludes class pi 1 in ZFC, not class sigma 1 in ZFC\n"
    )


@pytest.mark.parametrize("subject,reason", [
    ("A0", "no set let named 'A0'"),
    ("Q", "no set let named 'Q'"),
    ("../d/let_A1", "no set let named '../d/let_A1'"),
])
def test_check_cite_of_no_let(subject, reason, tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    doc, rows = _rows(out / "let_A2.pjd")
    rows[0]["subject"] = subject
    (out / "let_A2.pjd").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(out / "let_A2.pjd"), program]) == 1
    assert capsys.readouterr().out == f"check failed at /premises/0: {reason}\n"


def test_check_cited_file_in_the_other_mode(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(3))
    _, pd_out = _emit(tmp_path, linear_chain(3), "--assume-pd", name="pd")
    (out / "let_A1.pjd").write_bytes((pd_out / "let_A1.pjd").read_bytes())
    doc, rows = _rows(out / "let_A2.pjd")
    rows[0]["digest"] = _sha(out / "let_A1.pjd")
    (out / "let_A2.pjd").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(out / "let_A2.pjd"), program]) == 1
    assert capsys.readouterr().out == (
        "check failed at /premises/0: let_A1.pjd concludes class pi 1 in ZFC_PD, not class pi 1 in ZFC\n"
    )


def test_an_alias_is_cited_under_its_first_name(tmp_path, capsys):
    text = "space X = baire\nset A0 in X : sigma 1\nlet A = compl(A0)\nlet B = A\nlet C = compl(B)\n"
    program, out = _emit(tmp_path, text)
    assert (out / "let_B.pjd").read_bytes() == (out / "let_A.pjd").read_bytes()
    _, rows = _rows(out / "let_C.pjd")
    assert [(r["rule"], r["subject"]) for r in rows] == [("LET", "A"), ("S-COMPL", "compl(B)")]
    capsys.readouterr()
    files = [str(out / f"let_{name}.pjd") for name in "CBA"]
    assert main(["check", *files, program]) == 0
    assert capsys.readouterr().out == (
        "ok: compl(B) : class sigma 1 [ZFC]\nok: compl(A0) : class pi 1 [ZFC]\nok: compl(A0) : class pi 1 [ZFC]\n"
    )


def test_check_many_files_in_one_run(tmp_path, capsys):
    program, out = _emit(tmp_path, linear_chain(12))
    files = sorted(out.iterdir())  # as a shell glob lists them: let_A1, let_A10, let_A11, let_A12, let_A2, ...
    capsys.readouterr()
    assert main(["check", *map(str, files), program]) == 0
    lines = capsys.readouterr().out.splitlines()
    for path, line in zip(files, lines, strict=True):
        assert main(["check", str(path), program]) == 0
        assert capsys.readouterr().out == line + "\n"
    doc, rows = _rows(out / "let_A11.pjd")
    rows[-1]["judgment"] = "class sigma 1"
    (out / "let_A11.pjd").write_text(json.dumps(doc), encoding="utf-8")
    cli._front_end.cache_clear()  # else let_A12, verified above with the file it cites then, stays verified
    assert main(["check", *map(str, files), program]) == 1
    bad = [name for name, line in zip(files, capsys.readouterr().out.splitlines(), strict=True)
           if not line.startswith("ok: ")]
    assert bad == [out / "let_A11.pjd", out / "let_A12.pjd"]


def test_a_verified_file_is_not_read_again(tmp_path, monkeypatch, capsys):
    program, out = _emit(tmp_path, linear_chain(5))
    reads = []
    read = cli._read_bytes
    monkeypatch.setattr(cli, "_read_bytes", lambda path: reads.append(os.path.basename(path)) or read(path))
    for name in ("A5", "A3", "A5"):
        assert main(["check", str(out / f"let_{name}.pjd"), program]) == 0
    assert reads == ["d.pjc", "let_A5.pjd", "let_A4.pjd", "let_A3.pjd", "let_A2.pjd",
                     "let_A1.pjd", "d.pjc", "let_A3.pjd", "d.pjc", "let_A5.pjd"]


def test_chain_files_grow_linearly(tmp_path):
    # each let's file cites the one before instead of copying it
    sizes = {}
    for n in (200, 400, 800):
        _, out = _emit(tmp_path, linear_chain(n), name=f"linear{n}")
        sizes[n] = sum(p.stat().st_size for p in out.iterdir())
    assert sizes[400] < 2.2 * sizes[200] and sizes[800] < 2.2 * sizes[400]
    assert sizes[800] < 1 << 20


def test_long_let_chain_checks(tmp_path):
    # let_A3000.pjd cites a chain of 3000 files, deeper than the recursion limit
    program, out = _emit(tmp_path, linear_chain(3000))
    done = _fresh_cli(["check", str(out / "let_A3000.pjd"), program])
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok: compl(A2999) : class sigma 1 [ZFC]\n", "")


def test_deep_nest_derivations_check(tmp_path, capsys):
    # 600 nested complements: serialize, deserialize and check walk it without recursion
    expr = "A0"
    for _ in range(600):
        expr = f"compl({expr})"
    program = tmp_path / "nest.pjc"
    program.write_text(
        f"space X = baire\nset A0 in X : sigma 1\nlet N = {expr}\nassert class(N) == sigma 1\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "d"
    assert main(["infer", str(program), "--json", "--emit-derivations", str(out_dir)]) == 0
    emitted = json.loads(capsys.readouterr().out)["derivations"]
    assert len(emitted) == 2
    for path in emitted:
        assert main(["check", path, str(program)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("ok: ") and "Traceback" not in captured.err


# --- oracle ---------------------------------------------------------------------


def test_oracle_all_green(capsys):
    assert main(["oracle", "all", "--seed", "42", "--count", "3", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 15
    rows = [json.loads(line) for line in lines]
    assert all(r["ok"] for r in rows)
    assert {r["identity"] for r in rows} == {
        "INFSUP-PROJ", "SUM-PRE", "PROD-POS", "EPS-E", "FUBINI-DIRAC",
    }


def test_oracle_replayable_seeds(capsys):
    assert main(["oracle", "EPS-E", "--seed", "7", "--count", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", "EPS-E", "--seed", "7", "--count", "2", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_unknown_suite(capsys):
    assert main(["oracle", "NOPE"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["all", "EPS-E"])
def test_oracle_negative_count_is_malformed(suite, capsys):
    assert main(["oracle", suite, "--count", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --count must be 0 or more, got -1\n"
    assert main(["oracle", suite, "--count", "0", "--json"]) == 0


def test_oracle_counterexample_exits_one(monkeypatch, capsys):
    import projcalc.identities as mod

    monkeypatch.setitem(
        mod._CHECKERS, "PROD-POS", lambda case: mod.Counterexample("PROD-POS", "x=x0", "forced")
    )
    assert main(["oracle", "PROD-POS", "--count", "1", "--json"]) == 1
    row = json.loads(capsys.readouterr().out.splitlines()[0])
    assert row["ok"] is False and row["witness"] == "x=x0"


# --- game -----------------------------------------------------------------------


def game_file(tmp_path, name: str, game: FiniteGame) -> str:
    path = tmp_path / name
    path.write_text(dumps_game(game), encoding="utf-8")
    return str(path)


def test_game_trivial_targets(tmp_path, capsys):
    full = game_file(tmp_path, "full.pjg", FiniteGame(2, 0, mask=0xF))
    assert main(["game", full]) == 0
    assert "winner: I" in capsys.readouterr().out
    empty = game_file(tmp_path, "empty.pjg", FiniteGame(2, 0, mask=0))
    assert main(["game", empty]) == 0
    assert "winner: II" in capsys.readouterr().out


def test_game_matches_oracle(tmp_path, capsys):
    pred = compile_target_expr("a0 == b0 and a1 == b1", 1)
    path = game_file(
        tmp_path, "diag.pjg",
        FiniteGame(2, 1, predicate=pred, expr="a0 == b0 and a1 == b1"),
    )
    assert main(["game", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["winner"] == brute_force_winner(2, 1, pred)
    assert doc["strategy"]  # table present, sorted by history
    hists = [tuple(e["history"]) for e in doc["strategy"]]
    assert hists == sorted(hists)


def test_game_malformed(tmp_path, capsys):
    path = tmp_path / "bad.pjg"
    path.write_text('{"schema": "projcalc/1"}', encoding="utf-8")
    assert main(["game", str(path)]) == 2


def test_game_huge_integer_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.pjg"
    path.write_text('{"N": ' + "9" * 5000 + ', "k": 2, "schema": "projcalc/1", "target": "0x1"}', encoding="utf-8")
    assert main(["game", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed JSON: an integer has too many digits\n"


def test_game_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.pjg"
    path.write_text('{"a": ' * 200_000, encoding="utf-8")
    assert main(["game", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("depth", [1000, 10_000])
def test_game_nested_target_exits_two(depth, tmp_path):
    # the compiler gives up with RecursionError, the parser with MemoryError;
    # both are a malformed game, not a program past the stack
    doc = {"schema": "projcalc/1", "k": 2, "N": 0, "target": {"expr": "-" * depth + "a0 == 0"}}
    run = _fresh_run(["game"], json.dumps(doc), tmp_path)
    assert run.returncode == 2, run.stderr
    assert run.stderr == "error: bad target expression: nested too deeply\n"
    assert run.stdout == ""


def test_game_budget_exit(tmp_path, monkeypatch):
    path = game_file(tmp_path, "big.pjg", FiniteGame(4, 4, mask=0))
    monkeypatch.setenv("PROJCALC_NODE_BUDGET", "100")
    assert main(["game", path]) == 3


def test_game_bad_budget_exits_two(tmp_path, monkeypatch):
    # a budget that is not an integer is malformed input: one error line
    path = game_file(tmp_path, "g.pjg", FiniteGame(2, 0, mask=0))
    monkeypatch.setenv(BUDGET_ENV, "abc")
    run = _fresh_cli(["game", path])
    assert run.returncode == 2
    assert run.stderr == f"error: {BUDGET_ENV} must be an integer, got 'abc'\n"
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


def test_game_bitset_past_play_count_budget_exit(tmp_path, capsys):
    # 2**82 plays: loading must not overflow, and the budget refuses the solve
    path = tmp_path / "huge.pjg"
    path.write_text('{"schema": "projcalc/1", "k": 2, "N": 40, "target": "0x1"}', encoding="utf-8")
    assert main(["game", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("target", ['"0x1"', '{"expr": "a0 == b0"}'], ids=["mask", "expr"])
def test_huge_horizon_game_exits_three_fast(target, tmp_path):
    # N = 10**9: the loader and the budget check must size nothing first
    path = tmp_path / "huge.pjg"
    path.write_text(f'{{"schema": "projcalc/1", "k": 2, "N": 1000000000, "target": {target}}}', encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop(BUDGET_ENV, None)
    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "projcalc.cli", "game", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - started
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("error: ResourceLimit: ")
    assert "Traceback" not in run.stderr
    assert run.stdout == ""
    assert elapsed < 1.0


def _cli_to(stdout, argv):
    """A fresh ``python -m projcalc.cli`` run whose stdout is the given file descriptor."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "projcalc.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_full_stdout_is_one_error_line(program):
    # at the interpreter's exit the text still held goes to /dev/null, not
    # into a second error
    with open("/dev/full", "w") as full:
        run = _cli_to(full, ["infer", program, "--json"])
    assert (run.returncode, run.stderr) == (2, "error: cannot write stdout: No space left on device\n")


def test_a_closed_stdout_is_one_error_line():
    # the reader of the pipe is gone before the first write, as with
    # ``projcalc game ... --json | head -c 10`` once head has its bytes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _cli_to(write_end, ["game", str(ROOT / "demos" / "games" / "parity.pjg"), "--json"])
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, "error: cannot write stdout: Broken pipe\n")


def test_the_console_script_is_the_process_boundary():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'projcalc = "projcalc.cli:script"' in text and callable(cli.script)


def _seeded_games(seed: int = 24) -> list[tuple[str, FiniteGame]]:
    """Games a size past the corpus's, with k = 2, 3 and 4 and an expression target."""
    rng = random.Random(seed)
    games = [(f"mask-k{k}-N{n}", FiniteGame(k, n, mask=rng.getrandbits(k ** (2 * n + 2))))
             for k, n in ((2, 5), (3, 3), (4, 2))]
    expr = " + ".join(f"{rng.randint(1, 6)}*{p}{i}" for i in range(5) for p in "ab") + " < 20"
    games.append(("expr-k2-N4", FiniteGame(2, 4, predicate=compile_target_expr(expr, 4), expr=expr)))
    return games


@pytest.mark.parametrize("game", [pytest.param(g, id=label) for label, g in game_corpus() + _seeded_games()])
def test_game_reports_match_reference(game, tmp_path, capsys):
    # the report is written from the strategy's codes, not from a dict: it
    # must list solve's entries in order, as json.dumps would print them,
    # and solve must agree with the node-by-node reference
    path = game_file(tmp_path, "g.pjg", game)
    winner, strategy = solve(game)
    assert (winner, strategy) == reference_solve(game)
    as_dict = dict(strategy)
    assert as_dict == strategy and list(as_dict.items()) == list(strategy.items())
    entries = list(strategy.items())
    assert entries == sorted(reference_solve(game)[1].items())

    assert main(["game", path, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert [(tuple(e["history"]), e["move"]) for e in doc["strategy"]] == entries
    expected = {
        "schema": "projcalc/1",
        "winner": winner,
        "strategy": [{"history": list(h), "move": mv} for h, mv in entries],
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    assert main(["game", path]) == 0
    *lines, timing = capsys.readouterr().out.splitlines()
    assert lines == [f"winner: {winner}"] + [
        f"  {' '.join(map(str, h)) or '(start)'} -> {mv}" for h, mv in entries
    ]
    assert re.fullmatch(r"\[\d+\.\d ms\]", timing)


# --- fmt ------------------------------------------------------------------------


def test_fmt_idempotent(program, tmp_path, capsys):
    assert main(["fmt", program]) == 0
    once = capsys.readouterr().out
    again_path = tmp_path / "fmted.pjc"
    again_path.write_text(once, encoding="utf-8")
    assert main(["fmt", str(again_path)]) == 0
    assert capsys.readouterr().out == once


def test_fmt_parse_error(tmp_path):
    path = tmp_path / "bad.pjc"
    path.write_text("func f :\n", encoding="utf-8")
    assert main(["fmt", str(path)]) == 2


# --- one error boundary ---------------------------------------------------------


@pytest.mark.parametrize("command,text,error", [
    ("infer", "set A in X : sigma 1\nlet U = img[f](A)", "undeclared function 'f'"),
    ("infer", "func h : X -> X on E : delta 2", "undeclared set 'E'"),
    ("infer", "space Y = cantor\nset D in Y : delta 1\nfunc h : X -> X on D : delta 2",
     "declared domain set 'D' lives on a different space"),
    ("check", "space Y = cantor\nset A in X : sigma 1\nset B in Y : sigma 1\nlet U = union(A, B)",
     "members of a finite union/intersection must share a carrier"),
    ("fmt", "func f : X -> X : delta 70000", "LevelOverflow: level 70000 exceeds cap 65535"),
    ("fmt", "func f :",
     "2:9: unexpected end of line; expected one of: baire, cantor, measures, nat, prod, reals, xreal, space name"),
], ids=["infer-resolution-img", "infer-resolution-on", "infer-signature", "check-signature", "fmt-level", "fmt-parse"])
def test_program_errors_exit_two(command, text, error, derivation, tmp_path, capsys):
    # the command raises and main alone prints the one error line
    path = tmp_path / "p.pjc"
    path.write_text(f"space X = baire\n{text}\n", encoding="utf-8")
    argv = [command, derivation, str(path)] if command == "check" else [command, str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("expr,error", [
    ("a0 % b0 == 0", "error: bad target expression: division by zero on play 0 0 0 0\n"),
    ("a0 // 0", "error: bad target expression: division by zero on play 0 0 0 0\n"),
    ("b0 == 0 or a0 % a1 == 0", "error: bad target expression: division by zero on play 0 1 0 0\n"),
], ids=["mod", "floordiv", "first-failing-play"])
def test_game_target_dividing_by_zero_exits_two(expr, error, tmp_path, capsys):
    path = tmp_path / "zero.pjg"
    path.write_text(json.dumps({"schema": "projcalc/1", "k": 2, "N": 1, "target": {"expr": expr}}), encoding="utf-8")
    assert main(["game", str(path)]) == 2
    assert capsys.readouterr() == ("", error)  # one error line, no traceback


# --- one parser per process -----------------------------------------------------


def test_parser_factory_builds_fresh_parsers():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()


def _outcomes(argvs, capsys):
    rows = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        rows.append((rc, captured.out, captured.err))
    return rows


def test_shared_parser_keeps_no_state_between_calls(derivation, gated, monkeypatch, capsys):
    argvs = [
        ["infer", gated, "--assume-pd", "--json"],
        ["infer", gated, "--json"],
        ["check", derivation, gated],
        ["infer", gated, "--no-such-flag"],
        ["infer", gated, "--json"],
    ]
    shared = _outcomes(argvs, capsys)
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _outcomes(argvs, capsys)
    assert shared == fresh
    assert [row[0] for row in shared] == [0, 1, 0, ("SystemExit", 2), 1]
    assert shared[0][1] != shared[1][1]  # --assume-pd did not stick


# --- one front end per program --------------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """Every text parser.parse_program reads, counted from an empty memo."""
    seen = []
    original = parser.parse_program

    def counting(text):
        seen.append(text)
        return original(text)

    monkeypatch.setattr(parser, "parse_program", counting)
    cli._front_end.cache_clear()
    yield seen
    cli._front_end.cache_clear()


def test_infer_and_its_checks_parse_the_program_once(gated, tmp_path, parses, capsys):
    assert main(["infer", gated, "--json"]) == 1
    capsys.readouterr()
    out_dir = tmp_path / "derivs"
    assert main(["infer", gated, "--assume-pd", "--json", "--emit-derivations", str(out_dir)]) == 0
    emitted = json.loads(capsys.readouterr().out)["derivations"]
    assert len(emitted) >= 2
    for path in emitted:
        assert main(["check", path, gated]) == 0
    assert len(parses) == 1


def test_an_edited_program_is_parsed_again(program, parses, capsys):
    assert main(["infer", program]) == 0
    Path(program).write_text(PROGRAM + "assert class(B) <= sigma 1\n", encoding="utf-8")
    assert main(["infer", program]) == 1
    assert "assert class(B) <= sigma 1 -> FAIL" in capsys.readouterr().out
    assert len(parses) == 2


@pytest.mark.parametrize("text,error", [
    ("space X = baire\nset Z in\n", "error: 2:"),
    ("space X = baire\nspace Y = cantor\nset A in X : sigma 1\nset B in Y : sigma 1\n"
     "let U = union(A, B)\n", "error: members of a finite union/intersection must share a carrier"),
], ids=["parse", "bind"])
def test_a_program_that_fails_is_not_remembered(text, error, tmp_path, parses, capsys):
    path = tmp_path / "broken.pjc"
    path.write_text(text, encoding="utf-8")
    errors = []
    for _ in range(2):
        assert main(["infer", str(path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith(error)
    assert len(parses) == 2


def test_the_memo_keeps_one_program(program, gated, parses):
    assert [main(["infer", path]) for path in (program, gated, program, gated)] == [0, 1, 0, 1]
    assert len(parses) == 4


def test_shared_front_end_matches_a_fresh_one(tmp_path, capsys):
    # infer in both modes, check every emitted file and fmt, all in one
    # process: the Program and Env they shared are still what a fresh
    # parse and bind of the same text give
    for i, text in enumerate([GATED] + corpus(count=12)):
        path = tmp_path / f"p{i}.pjc"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--assume-pd"]):
            out_dir = tmp_path / f"d{i}{''.join(flags)}"
            main(["infer", str(path), "--json", "--emit-derivations", str(out_dir), *flags])
            for pjd in sorted(out_dir.iterdir()):
                assert main(["check", str(pjd), str(path)]) == 0
        assert main(["fmt", str(path)]) == 0
        capsys.readouterr()
        hits = cli._front_end.cache_info().hits
        shared_program, shared_env = cli._front_end(text)
        assert cli._front_end.cache_info().hits == hits + 1
        program, env = parser.parse(text)
        assert shared_env is not env
        assert shared_program == program
        for kind in ("spaces", "sets", "funcs", "kernels"):
            shared, fresh = getattr(shared_env, kind), getattr(env, kind)
            assert list(shared) == list(fresh)
            for name, entry in fresh.items():
                assert shared[name] == entry, (kind, name)
        assert shared_env == env
    for entry in (*shared_env.sets.values(), *shared_env.funcs.values(), *shared_env.kernels.values()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.space = None


# --- the benchmark's tracer -----------------------------------------------------

TRACED = """\
space W = prod(baire, baire)
set G in W : pi 3
let F = proj[1](G)
let H = compl(F)
assert class(H) <= pi 4
"""


def _bench_tracing():
    """bench/tracing.py, loaded from its file without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_walks_what_infer_returns(tmp_path, capsys):
    # the tracer wraps the functions the CLI looks up and walks the
    # derivations they return by rule, premises and conclusion: an infer and
    # a check of its assertion's file, each one traced op, read what they ran
    tracing = _bench_tracing()
    path, out_dir = tmp_path / "traced.pjc", tmp_path / "out"
    path.write_text(TRACED, encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.op_span({"command": "infer"}):
            rc_infer = main(["infer", str(path), "--json", "--emit-derivations", str(out_dir)])
        (emitted,) = out_dir.glob("assert_*.pjd")
        with tracer.op_span({"command": "check"}):
            rc_check = main(["check", str(emitted), str(path)])
    assert capsys.readouterr().out.endswith("ok: compl(F) : class pi 4 [ZFC]\n")
    assert (rc_infer, rc_check) == (0, 0)
    infer_op, check_op = tracer.ops
    assert (infer_op["built"], infer_op["rules"]) == (3, {"DECL": 1, "S-PROJ": 1, "S-COMPL": 1})
    assert "derivation.check" in {s.name for s in tracer.spans if s.op == 1}
    assert check_op["built"] == 0  # check reads rows, and the tracer counts no Derivation there
