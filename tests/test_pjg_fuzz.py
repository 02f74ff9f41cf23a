"""Structured fuzzing of ``projcalc game`` on .pjg files.

Each example applies a few random edits to the JSON of
demos/games/parity.pjg or of a bitset game: a value replaced by random
JSON or by a word that leads the loader down one of its paths, a key
deleted, a value turned into another JSON type, k or N set huge, the
target nested deeply or written with forbidden syntax.  Running
``game --json`` on the result through cli.main must exit 0, 1, 2 or 3,
print no traceback, and finish within a time bound.  The node budget is
set low, so the games that are solved stay small and a bigger one exits 3.
"""

import contextlib
import copy
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projcalc import cli
from projcalc.games import BUDGET_ENV

BASES = {
    "parity": json.loads(
        (Path(__file__).resolve().parents[1] / "demos" / "games" / "parity.pjg").read_text(encoding="utf-8")
    ),
    "bitset": {"N": 2, "k": 2, "schema": "projcalc/1", "target": "9a5c"},  # 16 plays, one bit each
}
BUDGET = 5000  # tree nodes: k = 2 up to N = 5, k = 3 up to N = 3

FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

HUGE = [0, 1, 2, 3, 5, 6, -1, 10**6, 10**18, 2**63, 10**400, 99999999]
TARGETS = [
    "a0 == b0", "(a0 + b0) % 2 == 0 and a1 == b1", "a1 == 0", "a9 == 0", "c0 == 1", "a0 // (b0 - b0)",
    "a0 % b0 == 0", "not a0", "-a0 < +b0", "a0 != b0 or b1", "True", "1", "0", "", "a0 ==", "a0 +* b0",
    "9" * 5000, "a0 * " + "9" * 4000, "a0" + " == a0" * 1000, "a0 and " * 1000 + "b0",
]
FORBIDDEN = [
    "__import__('os')", "a0 / b0", "a0 ** 2", "[a0]", "a0 if b0 else 1", "(lambda: 1)()", "a0.real",
    "'x' == 'x'", "1.5 < a0", "a0 @ b0", "a0 << 1", "{a0}", "(a0 := 1)", "open('x')", "b0[0]", "f'{a0}'",
]
BITSETS = ["0", "f", "ff", "ffff", "0x1", "1" * 5, "-1", "zz", "", " f", "f" * 2000, "10000"]
LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(TARGETS + BITSETS + ["projcalc/1", "expr", "k", "N"])
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["expr", "k", "N"]), kids, max_size=2),
    max_leaves=6,
)


def deep(depth: int) -> list[str]:
    """Target expressions nested depth deep, each in its own way."""
    return ["(" * depth + "a0" + ")" * depth, "-" * depth + "a0", "not " * depth + "a0", "a0" + " + a0" * depth]


def slots(doc) -> list:
    """(container, key or index) of every value below doc, in a fixed order."""
    out, stack = [], [doc]
    while stack:
        c = stack.pop()
        items = c.items() if isinstance(c, dict) else enumerate(c) if isinstance(c, list) else ()
        for k, v in items:
            out.append((c, k))
            stack.append(v)
    return out


def retype(value):
    """value as another JSON type: a string of a number, a number of a string, or a list."""
    if isinstance(value, str):
        return int(value) if value.isdigit() and len(value) < 100 else [value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return {"expr": value} if not isinstance(value, dict) else json.dumps(value)


@st.composite
def mutants(draw) -> str:
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["value", "word", "delete", "retype", "huge", "deep", "forbidden"]))
        if edit == "huge":
            doc[draw(st.sampled_from(["k", "N"]))] = draw(st.sampled_from(HUGE))
        elif edit in ("deep", "forbidden"):
            words = deep(draw(st.sampled_from([50, 1000, 200_000]))) if edit == "deep" else FORBIDDEN
            doc["target"] = {"expr": draw(st.sampled_from(words))}
        elif slots(doc):
            c, k = draw(st.sampled_from(slots(doc)))
            if edit == "value":
                c[k] = draw(VALUES)
            elif edit == "word":
                c[k] = draw(st.sampled_from(TARGETS + BITSETS))
            elif edit == "delete":
                del c[k]
            else:
                c[k] = retype(c[k])
    return json.dumps(doc)


@pytest.fixture(scope="module")
def game_path(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(BUDGET_ENV, str(BUDGET))
        yield tmp_path_factory.mktemp("pjg") / "game.pjg"


def run_game(path: Path, text: str) -> tuple[int, str, str]:
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["game", str(path), "--json"])
    return rc, out.getvalue(), err.getvalue()


@FUZZ
@given(mutants())
def test_game_of_edited_files_exits_cleanly(game_path, text):
    start = time.perf_counter()
    rc, out, err = run_game(game_path, text)
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 0:
        assert err == "" and json.loads(out)["winner"] in ("I", "II")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unedited_games_solve(game_path):
    # the mutants start from games that load and solve within the budget
    for doc in BASES.values():
        rc, out, err = run_game(game_path, json.dumps(doc))
        assert (rc, err) == (0, "") and json.loads(out)["winner"] in ("I", "II")
