"""Structured fuzzing of ``projcalc check`` on emitted .pjd files.

The let files of a linear and a doubling chain are emitted once, in both
modes; each let's file cites the one before it in a LET row.  Each example
edits the JSON of a few of one chain's files: a LET row's subject, digest,
judgment or premises replaced, its digest dropped, any value replaced by
random JSON or a word, an entry deleted, a file removed.  It may then cite
every edited file by its new digest, so that the checker reads it.  Running
``check`` on the chain's last file through cli.main must exit 0, 1 or 2,
with no traceback, and within a time bound.
"""

import contextlib
import copy
import hashlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projcalc import cli

from .progen import doubling_chain, linear_chain

FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

CHAINS = {"linear": (linear_chain(5), 5), "doubling": (doubling_chain(4), 4)}
MODES = {"ZFC": [], "ZFC_PD": ["--assume-pd"]}

SUBJECTS = ["A1", "A2", "A3", "A4", "A5", "A0", "Q", "", "A1 ", "../ZFC/let_A1", "compl(A1)", "levels bounded sigma 2"]
JUDGMENTS = ["class sigma 1", "class pi 1", "class delta 2", "level delta 1", "prop x", "class sigma 99999999999", ""]
PREMISES = [[], [0], [1], [5], [-1], [True], "0", None]
DIGESTS = ["sha256:" + "0" * 64, "sha256:" + "F" * 64, "sha256:abc", "sha1:" + "0" * 40, "", 0, None]
LEAVES = st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=6) | st.sampled_from(SUBJECTS + JUDGMENTS)
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3), max_leaves=6)


def _sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """(chain, mode) -> (program text, {let name: file text}), and a work directory."""
    root = tmp_path_factory.mktemp("pjd")
    files = {}
    for chain, (text, n) in CHAINS.items():
        program = root / f"{chain}.pjc"
        program.write_text(text, encoding="utf-8")
        for mode, flags in MODES.items():
            out = root / f"{chain}-{mode}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["infer", str(program), "--emit-derivations", str(out), *flags]) == 0
            files[chain, mode] = text, {f"A{i}": (out / f"let_A{i}.pjd").read_text(encoding="utf-8")
                                        for i in range(1, n + 1)}
    return files, root / "work"


def _slots(doc) -> list:
    """(container, key or index) of every value below doc."""
    out, stack = [], [doc]
    while stack:
        c = stack.pop()
        items = c.items() if isinstance(c, dict) else enumerate(c) if isinstance(c, list) else ()
        for k, v in items:
            out.append((c, k))
            stack.append(v)
    return out


@st.composite
def cases(draw):
    chain = draw(st.sampled_from(sorted(CHAINS)))
    mode = draw(st.sampled_from(sorted(MODES)))
    n = CHAINS[chain][1]
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        name = f"A{draw(st.integers(1, n))}"
        kind = draw(st.sampled_from(["subject", "digest", "judgment", "premises", "drop", "value", "delete",
                                     "remove"]))
        what = {
            "subject": st.sampled_from(SUBJECTS), "judgment": st.sampled_from(JUDGMENTS),
            "premises": st.sampled_from(PREMISES),
            "digest": st.sampled_from(DIGESTS) | st.sampled_from([f"A{i}" for i in range(1, n + 1)]),
        }.get(kind, VALUES)
        edits.append((name, kind, draw(what), draw(st.integers(0, 10**6))))
    return chain, mode, edits, draw(st.booleans())


def _recite(doc, texts: dict) -> bool:
    """Point each LET row of doc at the text now written for the let it
    names, if any; whether a digest changed."""
    moved = False
    for c, k in _slots(doc):
        if k == "digest" and isinstance(c, dict) and isinstance(c.get("subject"), str):
            text = texts.get(c["subject"])
            if text is not None and c[k] != _sha(text):
                c[k], moved = _sha(text), True
    return moved


def _apply(files: dict, edits: list, recite: bool) -> dict:
    """The chain's file texts after the edits, None for a removed file."""
    docs = {name: json.loads(text) for name, text in files.items()}
    changed = set()
    for name, kind, value, pick in edits:
        doc = docs[name]
        if doc is None:
            continue
        changed.add(name)
        rows = doc.get("nodes") if isinstance(doc, dict) else None
        lets = [row for row in rows if isinstance(row, dict) and row.get("rule") == "LET"] if isinstance(rows, list) else []
        if kind == "remove":
            docs[name] = None
        elif kind in ("subject", "judgment", "premises", "digest", "drop") and lets:
            row = lets[pick % len(lets)]
            if kind == "drop":
                row.pop("digest", None)
            elif kind == "digest" and value in files:
                row["digest"] = _sha(files[value])  # another let's file, as emitted
            else:
                row[kind] = value
        else:
            slots = _slots(doc)
            if not slots:
                continue
            c, k = slots[pick % len(slots)]
            if kind == "delete":
                del c[k]
            else:
                c[k] = copy.deepcopy(value)
    texts = {}
    for name, doc in docs.items():  # in program order: a let cites only the lets before it
        if doc is not None and recite and _recite(doc, texts):
            changed.add(name)
        texts[name] = None if doc is None else json.dumps(doc) if name in changed else files[name]
    return texts


def _run_check(work, program_text: str, texts: dict) -> tuple[int, str, str]:
    work.mkdir(exist_ok=True)
    for old in work.iterdir():
        old.unlink()
    program = work / "p.pjc"
    program.write_text(program_text, encoding="utf-8")
    for name, text in texts.items():
        if text is not None:
            (work / f"let_{name}.pjd").write_text(text, encoding="utf-8")
    cli._front_end.cache_clear()  # nothing verified in an earlier run counts
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["check", str(work / f"let_A{len(texts)}.pjd"), str(program)])
    return rc, out.getvalue(), err.getvalue()


@FUZZ
@given(cases())
def test_check_of_edited_chains_exits_cleanly(emitted, case):
    files, work = emitted
    chain, mode, edits, recite = case
    program_text, pristine = files[chain, mode]
    texts = _apply(pristine, edits, recite)
    start = time.perf_counter()
    rc, out, err = _run_check(work, program_text, texts)
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 1, 2) and "Traceback" not in err
    assert (rc == 0) == out.startswith("ok: ")


def test_unedited_chains_check(emitted):
    # the examples start from files that check, and recited they stay the same
    files, work = emitted
    for program_text, pristine in files.values():
        assert _apply(pristine, [], recite=True) == pristine
        rc, out, err = _run_check(work, program_text, pristine)
        assert (rc, err) == (0, "") and out.startswith("ok: ")
