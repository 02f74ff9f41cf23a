"""Byte-level fuzzing of the three file formats.

Each example flips, inserts or deletes a few bytes of one canonical file:
the engine-written let_A3.pjd of a doubling chain (it cites let_A2.pjd by
digest), demos/games/parity.pjg or demos/models/two_by_three.pjm.  A .pjd
mutant goes through ``check`` and a .pjg mutant through ``game --json``,
both by cli.main; each must exit 0, 1, 2 or 3 with no traceback, and
print an error line when it exits 2 or 3.  No command reads a .pjm, so a
.pjm mutant goes to loads_model, which may raise only a ProjcalcError.
The node budget is set low, so a game mutant that grows N or k stays cheap.
"""

import contextlib
import io
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projcalc import cli
from projcalc.errors import ProjcalcError
from projcalc.finitemodel import loads_model
from projcalc.games import BUDGET_ENV

from .progen import doubling_chain

DEMOS = Path(__file__).resolve().parents[1] / "demos"
FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
BUDGET = 5000  # game tree nodes


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """kind -> (canonical bytes, path a mutant is written to), and the program a .pjd is checked against."""
    root = tmp_path_factory.mktemp("bytes")
    program = root / "chain.pjc"
    program.write_text(doubling_chain(3), encoding="utf-8")
    out = root / "emitted"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["infer", str(program), "--emit-derivations", str(out)]) == 0
    canonical = {
        "pjd": (out / "let_A3.pjd").read_bytes(),
        "pjg": (DEMOS / "games" / "parity.pjg").read_bytes(),
        "pjm": (DEMOS / "models" / "two_by_three.pjm").read_bytes(),
    }
    assert b'"rule": "LET"' in canonical["pjd"]
    # a .pjd mutant sits beside the files it may cite
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(BUDGET_ENV, str(BUDGET))
        yield {kind: (data, out / f"mutant.{kind}") for kind, data in canonical.items()}, str(program)


@st.composite
def mutants(draw) -> tuple[str, bytes]:
    kind = draw(st.sampled_from(["pjd", "pjg", "pjm"]))
    return kind, draw(st.lists(edits(), min_size=1, max_size=4))


@st.composite
def edits(draw):
    """(what, where as a fraction of the length, bytes or a count)."""
    what = draw(st.sampled_from(["flip", "insert", "delete"]))
    where = draw(st.floats(0, 1))
    if what == "flip":
        return what, where, draw(st.integers(1, 255))
    if what == "insert":
        return what, where, draw(st.binary(min_size=1, max_size=4) | st.sampled_from(
            [b"\xff", b"\xc3", b"\x00", b"\r", b"\n", b"{", b"[", b"9" * 30, b'"', b"-", b"\\"]))
    return what, where, draw(st.integers(1, 8))


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for what, where, arg in edits:
        i = min(int(where * len(out)), max(len(out) - 1, 0))
        if what == "flip" and out:
            out[i] ^= arg
        elif what == "insert":
            out[i:i] = arg
        elif what == "delete":
            del out[i:i + arg]
    return bytes(out)


def run(kind: str, path: Path, program: str) -> tuple[int, str]:
    """Exit code and stderr of the command that reads a file of kind."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["check", str(path), program] if kind == "pjd" else ["game", "--json", str(path)])
    return rc, err.getvalue()


def load_model(data: bytes) -> str:
    """"ok", or the name of the ProjcalcError loads_model raised on data read as text."""
    try:
        loads_model(data.decode("utf-8", errors="replace"))
    except ProjcalcError as exc:
        return type(exc).__name__
    return "ok"


@FUZZ
@given(mutants())
def test_byte_mutants_exit_cleanly(files, mutant):
    (canonical, program), (kind, edit_list) = files, mutant
    data, path = canonical[kind]
    data = mutate(data, edit_list)
    start = time.perf_counter()
    if kind == "pjm":
        load_model(data)  # anything but a ProjcalcError escapes and fails the test
    else:
        path.write_bytes(data)
        rc, err = run(kind, path, program)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err
        assert rc < 2 or err.startswith("error: ")  # malformed input or a resource limit is named
    assert time.perf_counter() - start < 2.0


def test_unedited_files_read(files):
    # the mutants start from files that read cleanly
    canonical, program = files
    for kind in ("pjd", "pjg"):
        data, path = canonical[kind]
        path.write_bytes(data)
        assert run(kind, path, program) == (0, "")
    assert load_model(canonical["pjm"][0]) == "ok"
