"""Work the benchmark runs in a fresh interpreter.

    python3 bench/child.py setup ROOT INPUTS
        import projcalc.cli from ROOT/src and read the .pjc and .pjg files
        under INPUTS:
        what a user pays before the first op (timed by the parent).
    python3 bench/child.py probe ROOT -- ARGV...
        run one CLI op under a memory cap; print {"rc", "stdout", "error"}.
    python3 bench/child.py verify-game ROOT GAME STDOUT
        check the winner's printed strategy against the game file; print
        {"error": null} or the reason it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

PROBE_MEMORY = 1 << 30  # address-space cap for a probe op


def _import_cli(root: str):
    sys.path.insert(0, str(Path(root) / "src"))
    from projcalc import cli

    return cli


def setup(root: str, inputs: str) -> None:
    _import_cli(root)
    for pattern in ("*.pjc", "*.pjg"):
        for path in sorted(Path(inputs).rglob(pattern)):
            path.read_bytes()


def probe(root: str, argv: list[str]) -> dict:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY, PROBE_MEMORY))
    cli = _import_cli(root)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue(), "error": None}
    except (Exception, SystemExit) as exc:  # an escape from cli.main is the finding
        return {"rc": None, "stdout": out.getvalue(), "error": f"{type(exc).__name__} escaped cli.main"}


def verify_game(root: str, game_path: str, stdout_path: str) -> dict:
    _import_cli(root)
    from projcalc.games import loads_game, verify_strategy

    game = loads_game(Path(game_path).read_text(encoding="utf-8"))
    doc = json.loads(Path(stdout_path).read_text(encoding="utf-8"))
    strategy = {tuple(entry["history"]): entry["move"] for entry in doc["strategy"]}
    if not verify_strategy(game, strategy, doc["winner"]):
        return {"error": f"strategy printed for Player {doc['winner']} does not win"}
    return {"error": None}


def main(argv: list[str]) -> int:
    role, root, rest = argv[0], argv[1], argv[2:]
    if role == "setup":
        setup(root, rest[0])
        return 0
    if role == "probe":
        print(json.dumps(probe(root, rest[1:] if rest[:1] == ["--"] else rest)))
        return 0
    if role == "verify-game":
        print(json.dumps(verify_game(root, rest[0], rest[1])))
        return 0
    print(f"unknown role {role!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
