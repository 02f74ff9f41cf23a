"""Fuzzing of the DSL front end through ``projcalc fmt`` and ``projcalc infer``.

Each example is a program text: a random stream of the lexer's token kinds
and the DSL's keywords, or a program of ``tests/progen.py`` with one token
deleted, replaced, duplicated, or preceded by another.  ``fmt`` and
``infer --json`` of it through cli.main must exit 0, 1 or 2 with no
exception and no traceback, and text that ``fmt`` prints formats to itself.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projcalc import cli
from projcalc.parser import FUNC_KEYWORDS, SET_KEYWORDS, SPACE_KEYWORDS

from .progen import HEADER, corpus, doubling_chain

FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

PROGRAMS = corpus(count=12) + [doubling_chain(3)]

# one token of each lexer kind (comment, string, operator, identifier,
# integer, and a character no token starts with), the DSL's keywords, and
# the names, atoms and indices that progen's programs declare
OPERATORS = ["->", "~>", "<=", ">=", "==", "(", ")", "[", "]", ",", ":", "=", "<", ">", "/", "@", "-"]
KEYWORDS = sorted({
    *SET_KEYWORDS, *FUNC_KEYWORDS, *SPACE_KEYWORDS,
    "space", "set", "func", "kernel", "let", "assert", "class", "level", "um", "sigma", "pi", "delta",
    "borel", "analytic", "lsa", "usa", "in", "nat", "of", "with", "levels", "bounded", "constant", "from",
    "unbounded", "on", "nonneg",
})
NAMES = sorted(set(re.findall(r"\b[A-Za-z_]\w*\b", HEADER)) - set(KEYWORDS)) + ["V_i", "w_i", "i", "a0", "Q"]
OTHER = ["# note", '"text"', "0", "1", "2", "3/2", "65535", "65536", "99999999999", "$", "é", "\t", "\n"]
VOCABULARY = OPERATORS + KEYWORDS + NAMES + OTHER

TOKEN = re.compile(r"->|~>|<=|>=|==|[A-Za-z_]\w*|[0-9]+|\S")


@st.composite
def mutants(draw):
    """A progen program with one token deleted, replaced, duplicated or preceded by another."""
    text = draw(st.sampled_from(PROGRAMS))
    spans = [m.span() for m in TOKEN.finditer(text)]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    kind = draw(st.sampled_from(["delete", "replace", "duplicate", "insert"]))
    if kind == "delete":
        return text[:a] + text[b:]
    if kind == "duplicate":
        return text[:b] + " " + text[a:]
    word = draw(st.sampled_from(VOCABULARY))
    if kind == "replace":
        return text[:a] + word + text[b:]
    return text[:a] + word + " " + text[a:]


STREAMS = st.lists(st.sampled_from(VOCABULARY), max_size=40).map(" ".join)


def _run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@FUZZ
@given(STREAMS | mutants())
def test_front_end_exits_cleanly(tmp_path, text):
    program = tmp_path / "p.pjc"
    program.write_text(text, encoding="utf-8")
    for argv in (["infer", "--json", str(program)], ["fmt", str(program)]):
        rc, out, err = _run(argv)
        assert rc in (0, 1, 2) and "Traceback" not in err, (argv[0], rc, err)
    if rc == 0:
        program.write_text(out, encoding="utf-8")
        assert _run(["fmt", str(program)]) == (0, out, "")
