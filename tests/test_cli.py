"""End-to-end command tests, run in-process through main(argv)."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from projcalc import cli
from projcalc.cli import build_parser, main
from projcalc.games import BUDGET_ENV, FiniteGame, compile_target_expr, dumps_game

from .oracles import brute_force_winner, reference_solve
from .progen import compl_nest, corpus, doubling_chain, game_corpus, linear_chain

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


def test_infer_missing_file(capsys):
    assert main(["infer", "/nonexistent/x.pjc"]) == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_derivations_frozen(tmp_path, capsys):
    # every verdict, report byte and emitted .pjd of the corpus and three
    # chains, frozen: refactoring the engine must not move any of them
    h = hashlib.sha256()
    texts = corpus() + [doubling_chain(12), linear_chain(200), compl_nest(150)]
    for i, text in enumerate(texts):
        path = tmp_path / f"p{i}.pjc"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--assume-pd"]):
            out_dir = tmp_path / f"d{i}{''.join(flags)}"
            rc = main(["infer", str(path), "--json", "--emit-derivations", str(out_dir), *flags])
            stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
            h.update(f"{rc}\n{stdout}".encode())
            for pjd in sorted(out_dir.iterdir()):
                h.update(pjd.name.encode() + b"\n" + pjd.read_bytes())
    assert h.hexdigest() == "2a407ca0fa3d435a16b256e62ef0dc20edd31bfa2c20e8ae7e9632128b3126ed"


def _fresh_run(argv, text, tmp_path):
    # a fresh interpreter, so the stack is as deep as a command-line run gets
    path = tmp_path / "deep.pjc"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "projcalc.cli", argv[0], str(path), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv,text", [
    (["infer"], compl_nest(2000)),
    (["fmt"], compl_nest(2000)),
], ids=["infer-nest-2000", "fmt-nest-2000"])
def test_past_the_stack_exits_three(argv, text, tmp_path):
    run = _fresh_run(argv, text, tmp_path)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("error: DepthLimit: ")
    assert run.stdout == ""
    assert "Traceback" not in run.stderr


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
    monkeypatch.setattr(cli, "serialize", lambda d: roots.append(d) or "")
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
    '{"cite": "", "conclusion": {"judgment": "class sigma 1", "mode": "ZFC", "subject": "A"},'
    ' "premises": [], "rule": "DECL"}',
    "[" * 200_000,
], ids=["tree-format", "nested-200k"])
def test_check_unreadable_document_exits_two(text, gated, tmp_path, capsys):
    bad = tmp_path / "bad.pjd"
    bad.write_text(text, encoding="utf-8")
    assert main(["check", str(bad), gated]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_tampered_shared_row(tmp_path, capsys):
    program = tmp_path / "doubling.pjc"
    program.write_text(doubling_chain(4), encoding="utf-8")
    assert main(["infer", str(program), "--emit-derivations", str(tmp_path / "d")]) == 0
    path = tmp_path / "d" / "let_A4.pjd"
    assert main(["check", str(path), str(program)]) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    uses = [0] * len(doc["nodes"])
    for row in doc["nodes"]:
        for p in row["premises"]:
            uses[p] += 1
    shared = max(i for i, n in enumerate(uses) if n >= 2 and doc["nodes"][i]["rule"] == "S-CU")
    doc["nodes"][shared]["conclusion"]["judgment"] = "class delta 3"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(path), str(program)]) == 1
    assert "check failed at /premises/" in capsys.readouterr().out


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


def test_game_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.pjg"
    path.write_text('{"a": ' * 200_000, encoding="utf-8")
    assert main(["game", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_game_budget_exit(tmp_path, monkeypatch):
    path = game_file(tmp_path, "big.pjg", FiniteGame(4, 4, mask=0))
    monkeypatch.setenv("PROJCALC_NODE_BUDGET", "100")
    assert main(["game", path]) == 3


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


@pytest.mark.parametrize("game", [pytest.param(g, id=label) for label, g in game_corpus()])
def test_game_reports_match_reference(game, tmp_path, capsys):
    path = game_file(tmp_path, "g.pjg", game)
    winner, strategy = reference_solve(game)
    entries = sorted(strategy.items())

    assert main(["game", path, "--json"]) == 0
    doc = {
        "schema": "projcalc/1",
        "winner": winner,
        "strategy": [{"history": list(h), "move": mv} for h, mv in entries],
    }
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert capsys.readouterr().out == expected

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
