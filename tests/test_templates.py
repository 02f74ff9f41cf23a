"""The engine's template rows are set identities, tested on finite models.

Most rows of a derivation are syntax-directed: their subject is their
constructor applied to their premises' subjects.  A template row is not:
it derives its subject from premises about other sets, and is sound only
if an identity ties the two together.  For each template, the test takes
the premises from real engine output, ``expand(read_table(serialize(p)))``
of each premise row, builds the template's side of the identity from them,
and evaluates both sides with ``finitemodel.evaluate`` on seeded random
finite models:

- the pi-target preimage: ``pre[f](B)`` with ``f : delta 2`` and
  ``B : pi 1`` equals ``compl`` of its ``F-PRE-Σ`` premise,
  ``pre[f](compl(B))``;
- ``F-UNGRAPH``: ``select(A)`` equals ``from_graph`` over its premises,
  ``graph(select(A))`` and ``proj[1](A)``;
- ``section`` as a one-premise ``S-BPRE``: a section of ``D`` at a point
  ``x`` equals the preimage of its premise ``D`` under the embedding
  y -> (x, y) (x -> (x, y) for the second axis), a Borel map.

Out of scope: the partial ``img`` template, since finite-model functions
are total, and ``F-EPS``, which has no finite semantics.  The identities are
not in ``identities.IDENTITIES``, so ``projcalc oracle all`` does not run
them.
"""

import random

import pytest

from projcalc import ast, infer_func, infer_set, parse
from projcalc.derivation import expand, read_table, serialize
from projcalc.finitemodel import FiniteModel, FuncData, SetData, evaluate

MODELS = 250

HEADER = """\
space X = baire
space Y = cantor
set A in prod(X, Y) : pi 1
set B in Y : pi 1
set D in prod(X, Y) : delta 1
func f : X -> Y : delta 2
"""
_, ENV = parse(HEADER)
XY = ast.ProductSpace("X", "Y")

# template -> (the node, its derivation's root rule, the template's side
# built from the premises' expressions)
TEMPLATES = {
    "pi-preimage": ("pre[f](B)", "S-COMPL", lambda p: ast.Complement(p[0])),
    "F-UNGRAPH": ("select(A)", "F-UNGRAPH", lambda p: ast.FromGraph(p[0], p[1])),
    "section-1": ("section[1 @ x0](D)", "S-BPRE", lambda p: ast.Preimage(ast.NamedFunc("at_x0"), p[0])),
    "section-2": ("section[2 @ y0](D)", "S-BPRE", lambda p: ast.Preimage(ast.NamedFunc("at_y0"), p[0])),
}


def expr_of(text: str):
    """The expression that a let after the header binds to text."""
    program, _ = parse(HEADER + f"let Q = {text}\n")
    return program.statements[-1].expr


def random_model(rng: random.Random) -> FiniteModel:
    m = FiniteModel()
    m.spaces["X"] = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
    m.spaces["Y"] = tuple(f"y{i}" for i in range(rng.randint(1, 4)))
    for name, carrier in (("A", XY), ("B", "Y"), ("D", XY)):
        m.sets[name] = SetData(carrier, frozenset(p for p in m.points(carrier) if rng.randrange(2)))
    m.funcs["f"] = FuncData("X", "Y", {x: rng.choice(m.spaces["Y"]) for x in m.spaces["X"]})
    # the embeddings of the sections' points into the product
    m.funcs["at_x0"] = FuncData("Y", XY, {y: ("x0", y) for y in m.spaces["Y"]})
    m.funcs["at_y0"] = FuncData("X", XY, {x: (x, "y0") for x in m.spaces["X"]})
    m.validate()
    return m


@pytest.mark.parametrize("template", TEMPLATES)
def test_template_is_an_identity_on_finite_models(template):
    text, rule, build = TEMPLATES[template]
    node = expr_of(text)
    infer = infer_func if isinstance(node, ast.FuncExpr) else infer_set
    _, d = infer(node, ENV)
    assert d.rule == rule
    other = build([expr_of(expand(read_table(serialize(p)))) for p in d.premises])
    for seed in range(MODELS):
        m = random_model(random.Random(seed))
        assert evaluate(node, m) == evaluate(other, m), seed
