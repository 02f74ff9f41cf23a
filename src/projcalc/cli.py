"""Command-line front end.

Subcommands: infer (run a program's assertions), check (re-verify saved
derivations against a program's declarations), oracle (randomized identity
suites on finite models), game (solve a finite game file), fmt (canonical
program formatting).

``infer --emit-derivations`` writes the lets' files in program order, and
a let's file cites each earlier let it uses by the SHA-256 digest of that
let's file, in one LET row, instead of copying its rows.  ``check`` reads
a derivation as one table of rows, the one form the checker takes, and
checks every row in file order, each distinct rule step once; the files
it cites, read from beside it, are verified first, each once.  ``check``
takes one or more derivations and prints one line for each, in order.

``main`` may run many times in one process, and a run checks every
derivation it emits against the same program.  So the last program loaded
keeps its parse and bind, and the digests of the files verified against
it: a command on identical program text reuses them, and a file with a
digest verified before is not read again, while any other text, an edited
file included, is read afresh.

A command returns its verdict, 0 or 1, and raises on anything else;
``main`` alone turns a package error into ``error: ...`` on stderr and an
exit code: 3 for the game solver's node budget (expressions and space
values nest as deep as memory allows, so no other limit exists), 2 for
every other error, a full or closed stdout included.  JSON reports never
include timing, so identical inputs give byte-identical output; the
human-readable variants print elapsed time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import islice
from pathlib import Path

from .derivation import ZFC, ZFC_PD, RowTable, check, expand, read_table, serialize
# deserialize is looked up on this module by bench/tracing.py
from .derivation import read_table as deserialize  # noqa: F401
from .errors import VERDICT_ERRORS, CheckError, FormatError, ProjcalcError, ResourceLimitError
from .formatter import format_program
from .games import loads_game, solve
from .infer import Engine, evaluate_assertions
# infer_set and infer_func are looked up on this module by bench/tracing.py
from .infer import infer_func, infer_set  # noqa: F401
from .parser import parse, parse_program
from . import ast

SCHEMA = "projcalc/1"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode(path: str, data: bytes) -> str:
    """data as ``Path.read_text`` reads it: UTF-8, with universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read(path: str) -> str:
    return _decode(path, _read_bytes(path))


def _digest(data: bytes) -> str:
    import hashlib  # here, not at the top: importing it takes longer than a small check

    return f"sha256:{hashlib.sha256(data).hexdigest()}"


class _Loaded(tuple):
    """A program text's (Program, Env), and in ``verified`` the digest of
    each .pjd file checked against it so far, with its (mode, root judgment)."""


def _load(text: str) -> _Loaded:
    loaded = _Loaded(parse(text))
    loaded.verified = {}
    return loaded


# one entry bounds the memory it holds; the shared (Program, Env) is never
# changed after binding, a text that fails to parse or bind is not kept,
# and the files verified against a program are forgotten with it
_front_end = functools.lru_cache(maxsize=1)(_load)


def _load_program(path: str) -> _Loaded:
    return _front_end(_read(path))


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
        except VERDICT_ERRORS as exc:
            row["ok"] = False
            row["detail"] = str(exc)
        rows.append(row)
    return rows


def cmd_infer(args) -> int:
    started = time.perf_counter()
    program, env = _load_program(args.program)
    mode = ZFC_PD if args.assume_pd else ZFC
    engine = Engine(env, mode)
    bindings = _infer_bindings(program, engine)
    results = evaluate_assertions(program, env, mode, engine)

    lets = [(row["name"], row.pop("derivation", None)) for row in bindings]
    emitted: list[str] = []
    if args.emit_derivations:
        out_dir = Path(args.emit_derivations)
        # a let's derivation -> (name, digest) of the first let file that
        # proves it; a leaf is one row either way, and is never cited
        cites: dict = {}

        def emit(name: str, text: str) -> bytes:
            path = out_dir / name
            data = text.encode("utf-8")
            path.write_bytes(data)
            emitted.append(str(path))
            return data

        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, d in lets:  # in program order: a let cites only the lets before it
                if d is not None:
                    data = emit(f"let_{name}.pjd", serialize(d, cites))
                    if d.premises:
                        cites.setdefault(d, (name, _digest(data)))
            for res in results:
                if res.derivation is not None:
                    emit(f"assert_{res.line:03d}.pjd", serialize(res.derivation))
        except OSError as exc:
            raise FormatError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None

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


def _let_bound(env, name: str) -> bool:
    entry = env.sets.get(name) or env.funcs.get(name)
    return entry is not None and entry.expr is not None


def _verify(path: str, env, verified: dict) -> tuple[str, RowTable]:
    """The text and rows of the file at path, once it and the files it cites check.

    A LET row cites let_<name>.pjd beside the file it is in.  Each cited
    file not verified yet is read, hashed and checked before the file that
    cites it, on an explicit stack of files, so citations may chain as far
    as memory allows; a digest already in ``verified`` is not read again,
    and every file that checks is added.  A failure inside a cited file is
    raised at that file's path, followed by the row's path in it."""
    data = _read_bytes(path)
    text = _decode(path, data)
    rows = read_table(text)
    files = [(path, _digest(data), rows, iter(rows.cites.items()))]
    while files:
        file, digest, t, cites = files[-1]
        for i, cite in cites:  # resumes after the last file pushed
            name = t.subjects[i]
            if cite in verified or not _let_bound(env, name):
                continue  # a row that names no let fails in check
            cited = os.path.join(os.path.dirname(file), f"let_{name}.pjd")
            data = _read_bytes(cited)
            if _digest(data) != cite:
                continue  # check finds no verified file for the row
            cited_text = _decode(cited, data)
            try:
                ct = read_table(cited_text)
            except FormatError as exc:
                raise FormatError(f"{cited}: {exc}") from None
            files.append((cited, cite, ct, iter(ct.cites.items())))
            break
        else:
            if digest not in verified:
                try:
                    check(t, env, verified)
                except CheckError as exc:
                    if len(files) == 1:
                        raise
                    raise CheckError(f"{file}#{exc.path or '/'}", exc.reason) from None
                verified[digest] = (t.mode, t.judgments[-1])
            files.pop()
    return text, rows


def cmd_check(args) -> int:
    loaded = _load_program(args.program)
    program, env = loaded
    failed = False
    for path in args.derivations:
        try:
            text, rows = _verify(path, env, loaded.verified)
        except CheckError as exc:
            print(f"check failed at {exc.path or '/'}: {exc.reason}")
            failed = True
            continue
        # check recomputes judgments, not subjects.  A subject the engine wrote
        # restates an expression of the program, so its text is no longer than
        # the document or, where equal rows were merged, the program's canonical
        # text; a longer one comes from rows that name their premises over and
        # over, and could take time and memory exponential in the document's size.
        subject = expand(rows, len(text))
        if subject is None:
            subject = expand(rows, len(format_program(program)))
        if subject is None:
            raise FormatError("the derivation's subject is longer than the program's own text")
        print(f"ok: {subject} : {rows.judgments[-1].render()} [{rows.mode}]")
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    # the identity suites and finite models load only when asked for
    from .identities import IDENTITIES, run_suite

    started = time.perf_counter()
    if args.suite != "all" and args.suite not in IDENTITIES:
        raise ProjcalcError(f"unknown suite {args.suite!r}; choose one of {', '.join(IDENTITIES)} or 'all'")
    if args.count < 0:
        raise ProjcalcError(f"--count must be 0 or more, got {args.count}")
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


# entries per write: the report is written piece by piece, never held whole
_CHUNK = 4096

# A report entry is high + low (see ``Strategy.spell``): the high piece opens
# the entry and closes the history if it ends there; the low piece goes on
# with the rest of the history and the move.


def _json_high(moves: tuple, ends: bool) -> str:
    shown = ",".join(f"\n        {m}" for m in moves)
    closed = ("\n      ]" if moves else "]") if ends else ""
    return f'    {{\n      "history": [{shown}{closed}'


def _json_low(moves: tuple, move: int) -> str:
    shown = "".join(f",\n        {m}" for m in moves)
    closed = "\n      ]" if moves else ""
    return f'{shown}{closed},\n      "move": {move}\n    }}'


def _text_high(moves: tuple, ends: bool) -> str:
    return f"  {' '.join(map(str, moves)) or '(start)'}"


def _text_low(moves: tuple, move: int) -> str:
    return "".join(f" {m}" for m in moves) + f" -> {move}\n"


def _write_entries(entries, sep: str) -> None:
    """Write the entries joined by ``sep`` to stdout, ``_CHUNK`` at a time.

    The strategy is never empty (the winner moves at depth 0 or 1) and no
    entry's text is empty, so an empty chunk means the entries are done.
    """
    out = sys.stdout
    out.write(sep.join(islice(entries, _CHUNK)))
    while chunk := sep.join(islice(entries, _CHUNK)):
        out.write(sep)
        out.write(chunk)


def cmd_game(args) -> int:
    started = time.perf_counter()
    g = loads_game(_read(args.game))
    winner, strategy = solve(g)
    # the report is spelled out by hand: ``json.dumps`` with ``indent``
    # falls back to its pure-Python encoder, and would need it all in memory
    if args.json:
        sys.stdout.write(f'{{\n  "schema": {json.dumps(SCHEMA)},\n  "strategy": [\n')
        _write_entries(strategy.spell(_json_high, _json_low), ",\n")
        sys.stdout.write(f'\n  ],\n  "winner": {json.dumps(winner)}\n}}\n')
    else:
        print(f"winner: {winner}")
        _write_entries(strategy.spell(_text_high, _text_low), "")
        elapsed = (time.perf_counter() - started) * 1000
        print(f"[{elapsed:.1f} ms]")
    return 0


def cmd_fmt(args) -> int:
    program = parse_program(_read(args.program))
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

    p = sub.add_parser("check", help="re-verify .pjd derivations, and the files they cite, against a program")
    p.add_argument("derivations", nargs="+", metavar="derivation")
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


def _flush() -> None:
    if sys.stdout is not None:  # None in a process started with fd 1 closed
        sys.stdout.flush()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        verdict = args.run(args)
        _flush()  # a full or closed stdout fails here at the latest
        return verdict
    except ResourceLimitError as exc:
        _fail(str(exc))
        return 3
    except ProjcalcError as exc:  # every other package error: malformed input
        _fail(str(exc))
        return 2
    except OSError as exc:  # the commands turn every file error of theirs into a FormatError
        _fail(f"cannot write stdout: {exc.strerror or exc}")
        return 2


def script() -> int:
    """``main`` as a process: the ``projcalc`` script and ``python -m projcalc.cli``.

    On a closed or full stdout, which ``main`` has reported, fd 1 is pointed
    at /dev/null, as the Python docs' note on SIGPIPE does, so that the
    interpreter's last flush of the text still held prints nothing more.
    """
    try:
        return main()
    finally:
        try:
            _flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    raise SystemExit(script())
