"""Structured fuzzing of the .pjm loader.

Each example applies a few random edits to the JSON of
demos/models/two_by_three.pjm: a value replaced by random JSON or by a word
that leads the loader down one of its paths, an entry deleted, a key renamed,
a list entry repeated.  loads_model must return a model or raise
FormatError, never another exception, and within a time bound; a model that
loads comes back equal from dumps_model: its product carriers, hash-consed,
compare equal only when they are the same objects.
"""

import copy
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projcalc.ast import ProductSpace
from projcalc.errors import FormatError
from projcalc.finitemodel import dumps_model, loads_model

BASE = json.loads(
    (Path(__file__).resolve().parents[1] / "demos" / "models" / "two_by_three.pjm").read_text(encoding="utf-8")
)

FUZZ = settings(
    derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

WORDS = [
    "X", "Y", "Z", "x0", "x1", "y0", "y2", "A", "f", "q", "mu", "projcalc/1", "",
    "prod(X, Y)", "prod(Y, X)", "prod(X, prod(X, Y))", "PROD(Y,Y)", "prod(X, Y", "prod(X Y)",
    "xreal", "XREAL", "Reals", "nat", "measures(X)", "prod(X, xreal)",
    "prod(" * 30 + "X" + ", X)" * 30, "prod(" * 600 + "X" + ", Y)" * 600,
    "1/3", "-5/2", "0/1", "1/1", "1/0", "2.5", " 1 ", "+inf", "-inf", "1e9", "1e3000000",
]
KEYS = [
    "schema", "spaces", "sets", "funcs", "measures", "kernels", "carrier", "members", "dom",
    "cod", "table", "space", "weights", "src", "dst", "rows", "X", "Y", "A", "D", "f", "x0", "y1",
]
LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False)
    | st.sampled_from(WORDS) | st.text(max_size=6)
)
VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=8,
)


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


@st.composite
def mutants(draw) -> str:
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        c, k = draw(st.sampled_from(slots(doc)))
        edit = draw(st.sampled_from(["value", "word", "delete", "rename", "repeat"]))
        if edit == "value":
            c[k] = draw(VALUES)
        elif edit == "word":
            c[k] = draw(st.sampled_from(WORDS))
        elif edit == "delete":
            del c[k]
        elif edit == "rename" and isinstance(c, dict):
            c[draw(st.sampled_from(KEYS))] = c.pop(k)
        elif edit == "repeat" and isinstance(c, list):
            c.append(copy.deepcopy(c[k]))
        if not slots(doc):
            break
    return json.dumps(doc)


@FUZZ
@given(mutants())
def test_loads_model_gives_a_model_or_a_format_error(text):
    start = time.perf_counter()
    try:
        m = loads_model(text)
    except FormatError:
        m = None
    assert time.perf_counter() - start < 1.0
    if m is not None:
        assert loads_model(dumps_model(m)) == m  # product carriers compare by identity


def test_base_model_round_trips():
    # the mutants start from a model that loads
    m = loads_model(json.dumps(BASE))
    assert loads_model(dumps_model(m)) == m and m.sets["D"].carrier is ProductSpace("X", "Y")
