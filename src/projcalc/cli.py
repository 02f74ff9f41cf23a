"""Command-line front end.

Subcommands: infer (run a program's assertions), check (re-verify a saved
derivation against a program's declarations), oracle (randomized identity
suites on finite models), game (solve a finite game file), fmt (canonical
program formatting).

Exit codes are a function of verdicts alone.  JSON reports never include
timing, so identical inputs give byte-identical output; the human-readable
variants do print elapsed time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .derivation import ZFC, ZFC_PD, check, deserialize, serialize
from .errors import (
    AxiomRequiredError,
    CheckError,
    FormatError,
    LevelOverflowError,
    ParseError,
    ProjcalcError,
    ResolutionError,
    ResourceLimitError,
    SignAnnotationMissingError,
    SignatureError,
    UnboundedScheduleError,
    depth_limited,
)
from .formatter import format_program
from .games import loads_game, solve
from .identities import IDENTITIES, run_suite
from .infer import Engine, evaluate_assertions
# infer_set and infer_func are looked up on this module by bench/tracing.py
from .infer import infer_func, infer_set  # noqa: F401
from .parser import parse, parse_program
from . import ast

SCHEMA = "projcalc/1"

# inference-level refusals: the program is well-formed but the judgment is
# not available (axiom gates, unbounded schedules, missing sign annotations)
_VERDICT_ERRORS = (
    AxiomRequiredError,
    LevelOverflowError,
    SignAnnotationMissingError,
    UnboundedScheduleError,
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_program(path: str):
    return parse(_read(path))


def _json_out(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False))


def _infer_bindings(program, engine: Engine) -> list[dict]:
    # in program order, so each let finds the lets it uses already inferred
    rows = []
    for stmt in program.statements:
        if isinstance(stmt, ast.LetSet):
            kind, run = "set", lambda s=stmt: engine.set_class(ast.NamedSet(s.name))
        elif isinstance(stmt, ast.LetFunc):
            kind, run = "func", lambda s=stmt: engine.func_level(ast.NamedFunc(s.name))
        else:
            continue
        row = {"name": stmt.name, "kind": kind}
        try:
            _, d = run()
            row["ok"] = True
            row["conclusion"] = d.conclusion.judgment.render()
            row["derivation"] = d
        except _VERDICT_ERRORS as exc:
            row["ok"] = False
            row["detail"] = str(exc)
        rows.append(row)
    return rows


def cmd_infer(args) -> int:
    started = time.perf_counter()
    try:
        program, env = _load_program(args.program)
    except (ParseError, ResolutionError, SignatureError, FormatError) as exc:
        _fail(str(exc))
        return 2
    mode = ZFC_PD if args.assume_pd else ZFC
    try:
        engine = Engine(env, mode)
        bindings = _infer_bindings(program, engine)
        results = evaluate_assertions(program, env, mode, engine)
    except (ResolutionError, SignatureError) as exc:
        _fail(str(exc))
        return 2

    emitted: list[str] = []
    if args.emit_derivations:
        out_dir = Path(args.emit_derivations)
        out_dir.mkdir(parents=True, exist_ok=True)
        for row in bindings:
            cert = row.pop("derivation", None)
            if cert is not None:
                path = out_dir / f"let_{row['name']}.pjd"
                path.write_text(serialize(cert), encoding="utf-8")
                emitted.append(str(path))
        for res in results:
            if res.derivation is not None:
                path = out_dir / f"assert_{res.line:03d}.pjd"
                path.write_text(serialize(res.derivation), encoding="utf-8")
                emitted.append(str(path))
    else:
        for row in bindings:
            row.pop("derivation", None)

    ok = all(r["ok"] for r in bindings) and all(r.ok for r in results)
    if args.json:
        _json_out({
            "schema": SCHEMA,
            "mode": mode,
            "ok": ok,
            "bindings": bindings,
            "assertions": [
                {"line": r.line, "text": r.text, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "derivations": emitted,
        })
    else:
        print(f"mode: {mode}")
        for row in bindings:
            verdict = row.get("conclusion") if row["ok"] else f"FAIL ({row['detail']})"
            print(f"let {row['name']}: {verdict}")
        for r in results:
            mark = "ok" if r.ok else "FAIL"
            print(f"line {r.line}: {r.text} -> {mark} ({r.detail})")
        for path in emitted:
            print(f"wrote {path}")
        failed = sum(1 for r in results if not r.ok) + sum(1 for r in bindings if not r["ok"])
        total = len(results) + len(bindings)
        verdict = "all checks hold" if ok else f"{failed} of {total} checks failed"
        elapsed = (time.perf_counter() - started) * 1000
        print(f"{verdict} [{elapsed:.1f} ms]")
    return 0 if ok else 1


def cmd_check(args) -> int:
    try:
        _, env = _load_program(args.program)
        d = deserialize(_read(args.derivation))
    except (ParseError, ResolutionError, SignatureError, FormatError) as exc:
        _fail(str(exc))
        return 2
    try:
        check(d, env)
    except CheckError as exc:
        print(f"check failed at {exc.path or '/'}: {exc.reason}")
        return 1
    print(f"ok: {d.conclusion.subject} : {d.conclusion.judgment.render()} [{d.conclusion.mode}]")
    return 0


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    if args.suite != "all" and args.suite not in IDENTITIES:
        _fail(f"unknown suite {args.suite!r}; choose one of {', '.join(IDENTITIES)} or 'all'")
        return 2
    rows = list(run_suite(args.suite, args.seed, args.count))
    for row in rows:
        print(json.dumps(row, sort_keys=True, ensure_ascii=False))
    bad = [row for row in rows if not row["ok"]]
    if not args.json:
        elapsed = (time.perf_counter() - started) * 1000
        print(
            f"{len(rows)} cases, {len(bad)} counterexamples [{elapsed:.1f} ms]",
            file=sys.stderr,
        )
    return 1 if bad else 0


def _game_json(winner: str, strategy: dict, k: int) -> str:
    """The game report exactly as ``_json_out`` would print it.

    Spelled out by hand because ``json.dumps`` with ``indent`` falls back to
    its pure-Python encoder, which dominates on large strategies.  The
    strategy is never empty (the winner moves at depth 0 or 1) and its
    entries already come in sorted history order.
    """
    pieces = [f"\n        {m}" for m in range(k)]
    entries = []
    for hist, move in strategy.items():
        shown = f'[{",".join(map(pieces.__getitem__, hist))}\n      ]' if hist else "[]"
        entries.append(f'    {{\n      "history": {shown},\n      "move": {move}\n    }}')
    return (
        f'{{\n  "schema": {json.dumps(SCHEMA)},\n  "strategy": [\n'
        + ",\n".join(entries)
        + f'\n  ],\n  "winner": {json.dumps(winner)}\n}}\n'
    )


def cmd_game(args) -> int:
    started = time.perf_counter()
    try:
        g = loads_game(_read(args.game))
    except FormatError as exc:
        _fail(str(exc))
        return 2
    winner, strategy = solve(g)
    if args.json:
        sys.stdout.write(_game_json(winner, strategy, g.k))
    else:
        print(f"winner: {winner}")
        for h, mv in strategy.items():
            hist = " ".join(map(str, h)) or "(start)"
            print(f"  {hist} -> {mv}")
        elapsed = (time.perf_counter() - started) * 1000
        print(f"[{elapsed:.1f} ms]")
    return 0


def cmd_fmt(args) -> int:
    try:
        program = parse_program(_read(args.program))
    except (ParseError, FormatError) as exc:
        _fail(str(exc))
        return 2
    sys.stdout.write(format_program(program))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projcalc",
        description="pointclass inference, derivation checking, finite-model oracles, and finite games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run a .pjc program's assertions")
    p.add_argument("program")
    p.add_argument("--assume-pd", action="store_true", help="enable determinacy-gated rules")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--emit-derivations", metavar="DIR", help="write .pjd files for every certificate")
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("check", help="re-verify a .pjd derivation against a program")
    p.add_argument("derivation")
    p.add_argument("program")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("oracle", help="randomized identity suites on finite models")
    p.add_argument("suite", help="identity id or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--json", action="store_true", help="suppress the human summary line")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("game", help="solve a .pjg finite game")
    p.add_argument("game")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(run=cmd_game)

    p = sub.add_parser("fmt", help="canonically format a .pjc program")
    p.add_argument("program")
    p.set_defaults(run=cmd_fmt)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process.

    Building the five subparsers takes longer than checking a small
    derivation, and ``parse_args`` leaves no state behind in the parser,
    so a caller that runs ``main`` many times in one process builds it once.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return depth_limited(args.run)(args)
    except ResourceLimitError as exc:
        _fail(str(exc))
        return 3
    except ProjcalcError as exc:  # uncategorized: treat as input error
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
