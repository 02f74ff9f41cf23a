"""Engine-level golden results and gating behavior.

Every golden entry replays one rule application end to end: build the
expression, infer, compare against a hand-computed value, and re-check the
emitted derivation with the independent checker.
"""

from fractions import Fraction

import pytest

from projcalc import ast, infer, sema
from projcalc.derivation import ZFC, ZFC_PD, check, expand, read_table, serialize
from projcalc.errors import (
    AxiomRequiredError,
    SignAnnotationMissingError,
    SignatureError,
    UnboundedScheduleError,
)
from projcalc.infer import (
    Certificate,
    Refusal,
    evaluate_assertions,
    eps_selector_certificate,
    infer_func,
    infer_set,
    select_certificate,
    universal_measurability,
)
from projcalc.formatter import format_expr
from projcalc.parser import parse
from projcalc.pointclass import (
    BoundedBy,
    ExplicitList,
    Unbounded,
    delta,
    pi,
    sigma,
)

from .progen import compl_nest, corpus, linear_chain

BASE = """\
space X = baire
space Y = cantor
set A in X : sigma 1
set B in X : pi 2
set C in Y : sigma 2
set D in prod(X, Y) : delta 2
set E in X : delta 3
set P in prod(X, Y) : pi 1
set G0 in prod(X, Y) : delta 2
set G1 in X : delta 2
func f : prod(X, Y) -> reals : delta 2
func f3 : prod(X, Y) -> reals : delta 3
func g : X -> reals : delta 3
func h : X -> X on E : delta 2
func h2 : X -> X on G1 : delta 2
func b : X -> X : borel
func nn : X -> reals : delta 2 nonneg
kernel q : X ~> Y : delta 1
kernel q2 : X ~> Y : delta 2
"""


@pytest.fixture(scope="module")
def env():
    _, e = parse(BASE)
    return e


def N(name):
    return ast.NamedSet(name)


def F(name):
    return ast.NamedFunc(name)


SET_GOLDEN = [
    ("decl", N("A"), sigma(1)),
    ("compl-sigma", ast.Complement(N("A")), pi(1)),
    ("compl-delta", ast.Complement(N("D")), delta(2)),
    ("union", ast.FiniteUnion((N("A"), N("B"))), pi(2)),
    ("inter", ast.FiniteIntersection((N("A"), ast.Complement(N("B")))), sigma(2)),
    (
        "countable-union",
        ast.CountableUnion("i", "A", None, BoundedBy(sigma(2))),
        sigma(2),
    ),
    (
        "countable-inter-list",
        ast.CountableIntersection("i", "A", None, ExplicitList((delta(1), delta(3), delta(2)))),
        delta(3),
    ),
    ("prod-same-kind", ast.Product(N("A"), N("C")), sigma(2)),
    ("prod-mixed", ast.Product(N("B"), N("C")), delta(3)),
    ("prod-delta", ast.Product(N("D"), N("C")), sigma(2)),
    ("proj-delta", ast.Projection(N("D"), 1), sigma(2)),
    ("proj-pi", ast.Projection(N("P"), 1), sigma(2)),
    ("image", ast.BorelImage("b", N("A")), sigma(1)),
    ("pre-borel", ast.Preimage(F("b"), N("B")), pi(2)),
    ("pre-delta", ast.Preimage(F("g"), N("E")), delta(6)),
    ("pre-sigma", ast.Preimage(F("g"), N("A")), sigma(3)),
    ("pre-pi", ast.Preimage(F("g"), N("B")), pi(4)),
    ("section", ast.Section(N("D"), 1), delta(2)),
    ("graph", ast.Graph(F("f")), delta(3)),
    ("graph-partial", ast.Graph(F("h")), delta(4)),
    ("graph-partial-frozen", ast.Graph(F("h2")), delta(3)),
    ("sublevel", ast.Sublevel(F("g"), "<", Fraction(0)), delta(3)),
    ("measure-level1", ast.MeasureThreshold(N("A"), Fraction(1, 2)), sigma(1)),
]

FUNC_GOLDEN = [
    ("decl", F("f"), 2),
    ("decl-partial", F("h"), 3),
    ("pair", ast.PairFunc(F("g"), F("b")), 3),
    ("cylinder", ast.CylinderExtend(F("g"), ast.Cantor()), 3),
    ("compose-borel", ast.Compose(F("g"), F("b")), 3),
    ("compose", ast.Compose(F("g"), F("h")), 6),
    ("fsection", ast.SectionOf(F("f"), 1), 3),
    ("sum", ast.Sum(F("g"), F("g")), 3),
    ("min", ast.MinOp(F("g"), ast.Compose(F("g"), F("b"))), 3),
    ("pow-nonneg", ast.Power(F("nn"), 2), 2),
    ("csup", ast.CountableSup("i", "u", ast.Baire(), BoundedBy(delta(2))), 2),
    ("cinf-sigma-bound", ast.CountableInf("i", "u", ast.Baire(), BoundedBy(sigma(2))), 3),
    ("partial-inf", ast.PartialInf(F("f"), N("D")), 3),
    ("partial-sup-frozen", ast.PartialSup(F("f3"), N("D")), 4),
    ("from-graph", ast.FromGraph(N("G0"), N("A")), 3),
]


@pytest.mark.parametrize("label,expr,expected", SET_GOLDEN, ids=[t[0] for t in SET_GOLDEN])
def test_set_golden(env, label, expr, expected):
    got, d = infer_set(expr, env, ZFC)
    assert got == expected
    check(read_table(serialize(d)), env)
    # determinacy never changes an ungated answer
    got_pd, d_pd = infer_set(expr, env, ZFC_PD)
    assert got_pd == expected
    check(read_table(serialize(d_pd)), env)


@pytest.mark.parametrize("label,expr,expected", FUNC_GOLDEN, ids=[t[0] for t in FUNC_GOLDEN])
def test_func_golden(env, label, expr, expected):
    got, d = infer_func(expr, env, ZFC)
    assert got.level == expected
    check(read_table(serialize(d)), env)
    got_pd, d_pd = infer_func(expr, env, ZFC_PD)
    assert got_pd.level == expected
    check(read_table(serialize(d_pd)), env)


def test_let_bindings_expand(env):
    src = BASE + "let U = union(A, B)\nlet k = compose(g, b)\n"
    _, e = parse(src)
    got, d = infer_set(N("U"), e, ZFC)
    assert got == pi(2)
    check(read_table(serialize(d)), e)
    fl, d = infer_func(F("k"), e, ZFC)
    assert fl.level == 3
    check(read_table(serialize(d)), e)


def test_integral_gated(env):
    expr = ast.IntegralKernel(F("f"), "q")
    with pytest.raises(AxiomRequiredError) as exc:
        infer_func(expr, env, ZFC)
    assert "F-INT" in str(exc.value)
    fl, d = infer_func(expr, env, ZFC_PD)
    assert fl.level == 5  # 2 + 1 + 2
    check(read_table(serialize(d)), env)
    fl2, _ = infer_func(ast.IntegralKernel(F("f3"), "q2"), env, ZFC_PD)
    assert fl2.level == 7  # 3 + 2 + 2


def test_measure_threshold_gated(env):
    expr = ast.MeasureThreshold(N("C"), Fraction(1, 2))
    with pytest.raises(AxiomRequiredError) as exc:
        infer_set(expr, env, ZFC)
    assert "S-WR" in str(exc.value)
    got, d = infer_set(expr, env, ZFC_PD)
    assert got == sigma(2)
    check(read_table(serialize(d)), env)
    # a pi operand lifts by one before the gate test
    got2, _ = infer_set(ast.MeasureThreshold(ast.Complement(N("A")), Fraction(1, 3)), env, ZFC_PD)
    assert got2 == sigma(2)


def test_select_stage_zero(env):
    cert = select_certificate(N("P"), env, ZFC)
    assert isinstance(cert, Certificate)
    assert cert.conclusion == "level delta 4"
    assert cert.note == "derived bound"
    check(read_table(serialize(cert.derivation)), env)


def test_select_stage_one_gated(env):
    with pytest.raises(AxiomRequiredError) as exc:
        select_certificate(N("D"), env, ZFC)
    assert "F-SELECT" in str(exc.value)
    cert = select_certificate(N("D"), env, ZFC_PD)
    assert cert.conclusion == "level delta 5"
    check(read_table(serialize(cert.derivation)), env)


def test_select_expression_form(env):
    fl, d = infer_func(ast.Select(N("P")), env, ZFC)
    assert fl.level == 4
    check(read_table(serialize(d)), env)


def test_eps_selector(env):
    with pytest.raises(AxiomRequiredError):
        eps_selector_certificate(N("D"), F("f"), Fraction(1, 10), "inf", env, ZFC)
    cert = eps_selector_certificate(N("D"), F("f"), Fraction(1, 10), "inf", env, ZFC_PD)
    assert cert.conclusion == "level delta 5"
    check(read_table(serialize(cert.derivation)), env)
    assert cert.derivation.rule == "F-EPS"
    # sup direction lands at the same level
    cert2 = eps_selector_certificate(N("D"), F("f"), Fraction(1, 4), "sup", env, ZFC_PD)
    assert cert2.conclusion == "level delta 5"
    check(read_table(serialize(cert2.derivation)), env)


def test_eps_selector_bad_direction(env):
    with pytest.raises(ValueError):
        eps_selector_certificate(N("D"), F("f"), Fraction(1, 10), "fwd", env, ZFC_PD)


def test_eps_selector_rejects_float_eps(env):
    # a float would be rounded through binary into the derivation's subjects
    with pytest.raises(TypeError):
        eps_selector_certificate(N("D"), F("f"), 0.1, "inf", env, ZFC_PD)
    cert = eps_selector_certificate(N("D"), F("f"), Fraction(1, 10), "inf", env, ZFC_PD)
    assert cert.derivation.conclusion.subject == "eps_inf(D, f, 1/10)"


@pytest.mark.parametrize("build,text", [
    (lambda env: eps_selector_certificate(N("D"), F("f"), Fraction(0), "inf", env, ZFC_PD),
     "eps_inf(D, f, 0)"),
    (lambda env: eps_selector_certificate(N("D"), F("f"), Fraction(-1), "inf", env, ZFC_PD),
     "eps_inf(D, f, -1)"),
    (lambda env: eps_selector_certificate(N("A"), F("f"), Fraction(1, 4), "inf", env, ZFC_PD),
     "eps_inf(A, f, 1/4)"),
    (lambda env: eps_selector_certificate(N("D"), F("g"), Fraction(1, 4), "sup", env, ZFC_PD),
     "eps_sup(D, g, 1/4)"),
    (lambda env: select_certificate(N("A"), env, ZFC_PD), "select(A)"),
], ids=["eps-zero", "eps-negative", "constraint-off-product", "objective-off-carrier", "select-off-product"])
def test_certificates_check_signatures(env, build, text):
    # the public certificate functions refuse what a program's binder refuses,
    # with the same message
    with pytest.raises(SignatureError) as bound:
        parse(BASE + f"let T = {text}\n")
    with pytest.raises(SignatureError) as built:
        build(env)
    assert str(built.value) == str(bound.value)


def test_certificate_subjects_are_what_their_derivations_expand_to():
    # the engine names a certificate's subject from the expression, not by
    # reading its own derivation back: every selector of a corpus program,
    # and a select of every set and an eps-selection of every set under every
    # function that the signatures admit, says what check would print of it
    compared = 0
    for text in corpus(80, 5):
        program, prog_env = parse(text)
        stack = [s.expr for s in program.statements if getattr(s, "expr", None) is not None]
        selectors = []
        while stack:
            e = stack.pop()
            stack.extend(ast.children(e))
            if isinstance(e, (ast.Select, ast.EpsSelector)):
                selectors.append(e)
        sets = [N(name) for name in prog_env.sets]
        selectors += [ast.Select(s) for s in sets]
        selectors += [ast.EpsSelector(s, F(f), Fraction(1, 4), "inf") for s in sets for f in prog_env.funcs]
        for e in selectors:
            try:
                if isinstance(e, ast.Select):
                    cert = select_certificate(e.operand, prog_env, ZFC_PD)
                else:
                    cert = eps_selector_certificate(e.dom, e.func, e.eps, e.direction, prog_env, ZFC_PD)
            except SignatureError:
                continue
            assert cert.subject == expand(read_table(serialize(cert.derivation))) == format_expr(e)
            compared += 1
    assert compared >= 500


def test_unbounded_schedule(env):
    expr = ast.CountableUnion("i", "A", None, Unbounded("levels grow with the index"))
    with pytest.raises(UnboundedScheduleError) as exc:
        infer_set(expr, env, ZFC)
    assert "grow with the index" in str(exc.value)


def test_power_needs_sign_annotation(env):
    with pytest.raises(SignAnnotationMissingError):
        infer_func(ast.Power(F("g"), 2), env, ZFC)


def _let_chain(n: int) -> str:
    lines = [f"let f{i} = add(f{i - 1}, f0)" for i in range(1, n + 1)]
    return "space X = baire\nfunc f0 : X -> reals : delta 2 nonneg\n" + "\n".join(lines) + "\n"


def test_function_let_chain_binds_and_infers():
    # bind stores each let's signature and sign once; no use re-walks its definition
    _, e = parse(_let_chain(400))
    assert e.funcs["f400"].nonneg and e.funcs["f400"].cod == ast.Reals()
    fl, d = infer_func(ast.Power(F("f400"), Fraction(3, 2)), e, ZFC)
    assert fl.level == 2
    check(read_table(serialize(d)), e)


def test_union_let_chain_infers():
    # the union branches of bind and infer add no frame of their own per let
    lines = [f"let A{i} = union(A{i - 1}, A0)" for i in range(1, 401)]
    _, e = parse("space X = baire\nset A0 in X : sigma 1\n" + "\n".join(lines) + "\n")
    cls, d = infer_set(N("A400"), e, ZFC)
    assert cls == sigma(1)
    check(read_table(serialize(d)), e)


def test_deep_space_binds_in_process():
    # space values are read and walked with explicit stacks too
    for atom, real in (("reals", True), ("baire", False)):
        space = "prod(reals, " * 5000 + atom + ")" * 5000
        _, e = parse(f"space S = {space}\n")
        assert sema.is_real_vector(e.spaces["S"]) is real


def test_deep_nests_infer_in_process():
    parse(compl_nest(5000))
    _, e = parse(compl_nest(1))
    deep = N("A0")
    for _ in range(5000):
        deep = ast.Complement(deep)
    cls, d = infer_set(deep, e, ZFC)
    assert cls == sigma(1)
    check(read_table(serialize(d)), e)
    _, e = parse(linear_chain(3000))
    cls, d = infer_set(N("A3000"), e, ZFC)
    assert cls == sigma(1)
    check(read_table(serialize(d)), e)


def test_nest_subjects_render_in_linear_calls():
    # each node spells only its own constructor, so the engine writes a
    # constant number of characters per level, and expand writes the whole
    # text once
    for depth in (400, 800):
        text = compl_nest(depth)
        _, e = parse(text)
        cls, d = infer_set(N("N"), e, ZFC)
        written, node = 0, d
        while node.premises:
            written += len(node.conclusion.subject)
            (node,) = node.premises
        assert cls == sigma(1) and written == len("compl(#0)") * (depth - 1) + len("compl(A0)")
        assert expand(read_table(serialize(d))) == text.split(" = ")[-1].strip()


def _pow_nest(depth: int, sign: str) -> str:
    expr = "pow(" * depth + "u" + ", 2)" * depth
    return f"space X = baire\nfunc u : X -> reals : delta 1{sign}\nlet N = {expr}\n"


def test_pow_nest_signs_in_linear_work(monkeypatch):
    # each node's sign travels up the engine's walk with its level, so no
    # pow walks its operand again: bind's sign walk of the let body visits
    # u and the depth pows, and the engine's walk those and N once more
    depth = 2000
    calls = 0
    original = sema.nonneg_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(sema, "nonneg_rule", counted)
    monkeypatch.setattr(infer, "nonneg_rule", counted)
    _, e = parse(_pow_nest(depth, " nonneg"))
    fl, d = infer_func(F("N"), e, ZFC)
    assert fl.level == 1 and calls == (depth + 1) + (depth + 2)
    check(read_table(serialize(d)), e)


def test_pow_sign_failure_names_the_innermost_pow():
    # signs are settled children first, so the first pow over an unsigned
    # operand is the innermost one
    _, e = parse(_pow_nest(3, ""))
    with pytest.raises(SignAnnotationMissingError, match=r"^pow\(u, 2\): operand needs a nonneg annotation$"):
        infer_func(F("N"), e, ZFC)


def test_power_sign_through_lets():
    _, e = parse(_let_chain(3) + "let g = neg(f0)\nlet k = add(f3, g)\n")
    assert infer_func(ast.Power(F("f3"), 2), e, ZFC)[0].level == 2
    for name in ("g", "k"):
        with pytest.raises(SignAnnotationMissingError):
            infer_func(ast.Power(F(name), 2), e, ZFC)


def test_unknown_mode(env):
    with pytest.raises(ValueError):
        infer_set(N("A"), env, "ZF")


def test_universal_measurability_levels():
    assert isinstance(universal_measurability(sigma(1), ZFC), Certificate)
    assert isinstance(universal_measurability(delta(1), ZFC), Certificate)
    r = universal_measurability(sigma(2), ZFC)
    assert isinstance(r, Refusal)
    assert "independent" in r.reason
    cert = universal_measurability(sigma(2), ZFC_PD)
    assert isinstance(cert, Certificate)
    assert cert.derivation.rule == "P-UM"


def test_derivation_modes_are_uniform(env):
    _, d = infer_set(ast.FiniteUnion((N("A"), ast.Complement(N("B")))), env, ZFC_PD)

    def modes(t):
        yield t.conclusion.mode
        for p in t.premises:
            yield from modes(p)

    assert set(modes(d)) == {ZFC_PD}


def test_evaluate_assertions_zfc():
    src = BASE + (
        "assert class(union(A, B)) <= pi 2\n"
        "assert class(A) == sigma 1\n"
        "assert level(g) <= delta 3\n"
        "assert level(compose(g, h)) == delta 6\n"
        "assert class(inter(A, C0)) <= sigma 1\n"
        "assert um(A)\n"
        "assert um(C)\n"
        "assert class(measure_ge(C, 1/2)) <= sigma 2\n"
    )
    src = src.replace("inter(A, C0)", "inter(A, compl(B))")
    prog, e = parse(src)
    results = evaluate_assertions(prog, e, ZFC)
    flags = [r.ok for r in results]
    assert flags == [True, True, True, True, False, True, False, False]
    assert "sigma 2" in results[4].detail  # inferred class reported on failure
    assert "independent" in results[6].detail
    assert "AxiomRequired" in results[7].detail
    # with determinacy the refusal and the gate both clear
    results_pd = evaluate_assertions(prog, e, ZFC_PD)
    assert [r.ok for r in results_pd] == [True, True, True, True, False, True, True, True]


def test_assertion_lines_and_text():
    src = BASE + "assert class(A) <= sigma 1\n"
    prog, e = parse(src)
    (res,) = evaluate_assertions(prog, e, ZFC)
    assert res.line == len(BASE.splitlines()) + 1
    assert res.text.startswith("assert class(")
    assert res.derivation is not None
