"""DSL front end: parsing, binding, canonical formatting."""

import hashlib
import itertools
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from projcalc import ast, formatter
from projcalc.errors import ParseError, ProjcalcError, ResolutionError, SignatureError
from projcalc.formatter import format_expr, format_program, format_statement
from projcalc.parser import (
    FUNC_KEYWORDS,
    SET_KEYWORDS,
    SPACE_KEYWORDS,
    _lex_line,
    parse,
    parse_program,
)
from projcalc.pointclass import BoundedBy, ExplicitList, Unbounded, delta, pi, sigma
from projcalc.sema import bind

from .oracles import reference_lex_line
from .progen import ASSERTS, HEADER, SYNTAX_EXTRAS, TEMPLATES, compl_nest, corpus

BASE = """\
space X = baire
space Y = nat
space Z = prod(X, Y)
set A in X : sigma 1
set B in Y : pi 2
set D in Z : delta 2
func f : Z -> xreal on D : delta 2
func g : X -> Y : borel
kernel q : X ~> Y : delta 1
"""


class TestParseBasics:
    def test_declarations(self):
        prog, env = parse(BASE)
        assert env.sets["A"].cls == sigma(1)
        assert env.sets["A"].space == ast.Baire()
        assert env.funcs["f"].annot == ast.FuncAnnot("declared", 2)
        assert env.funcs["f"].domain_set == "D"
        assert env.kernels["q"].level == 1

    def test_keywords_case_insensitive(self):
        prog, env = parse("space X = baire\nset A in X : Sigma 1\n")
        assert env.sets["A"].cls == sigma(1)

    def test_lsa_collapses_to_level_two(self):
        prog, env = parse("space X = baire\nfunc f : X -> xreal : lsa\n")
        assert env.funcs["f"].annot == ast.FuncAnnot("lsa", 2)

    def test_borel_and_analytic_set_classes(self):
        prog, env = parse("space X = baire\nset A in X : borel\nset B in X : analytic\n")
        assert env.sets["A"].cls == delta(1)
        assert env.sets["B"].cls == sigma(1)

    def test_undeclared_name_is_resolution_error(self):
        with pytest.raises(ResolutionError):
            parse("space X = baire\nlet B = proj[X](A)\n")

    def test_comments_and_blank_lines(self):
        prog, env = parse("# nothing\n\nspace X = baire  # trailing\n")
        assert env.spaces["X"] == ast.Baire()

    def test_countable_family_line(self):
        text = BASE + "let U = union i in nat of A_i in X with levels bounded delta 2\n"
        prog, env = parse(text)
        expr = env.sets["U"].expr
        assert isinstance(expr, ast.CountableUnion)
        assert expr.schedule == BoundedBy(delta(2))

    def test_carrierless_family_resolves_via_member_zero(self):
        text = "space X = baire\nset E_0 in X : sigma 1\nlet U = union i in nat of E_i with levels constant sigma 1\n"
        prog, env = parse(text)
        assert env.sets["U"].space == ast.Baire()

    def test_explicit_and_unbounded_schedules(self):
        text = BASE + 'let U = inter i in nat of A_i in X with levels from [delta 1, delta 3, delta 2]\n'
        prog, env = parse(text)
        assert env.sets["U"].expr.schedule == ExplicitList((delta(1), delta(3), delta(2)))
        text2 = BASE + 'let V = union i in nat of A_i in X with levels unbounded "level_i = i"\n'
        prog2, env2 = parse(text2)
        assert env2.sets["V"].expr.schedule == Unbounded("level_i = i")

    def test_let_alias_and_assertions(self):
        text = BASE + "let C = compl(A)\nassert class(C) <= pi 1\nassert level(f) == delta 2\nassert um(A)\n"
        prog, env = parse(text)
        kinds = [type(a).__name__ for a in prog.assertions]
        assert kinds == ["AssertClass", "AssertLevel", "AssertUM"]

    def test_rationals(self):
        text = BASE + "let S = sublevel(f, <, -3/2)\n"
        prog, env = parse(text)
        assert env.sets["S"].expr.bound == Fraction(-3, 2)


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("space X = baire\nset A in X :\n")
        assert exc.value.line == 2
        assert exc.value.expected  # names the candidate tokens

    def test_unknown_leading_keyword(self):
        with pytest.raises(ParseError) as exc:
            parse("definitely not a statement\n")
        assert exc.value.line == 1
        assert "space" in exc.value.expected

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("set A in X : sigma 1 !\n")

    def test_set_class_rejects_lsa(self):
        with pytest.raises(ParseError):
            parse("space X = baire\nset A in X : lsa\n")

    def test_func_annot_rejects_sigma(self):
        with pytest.raises(ParseError):
            parse("space X = baire\nfunc f : X -> xreal : sigma 2\n")

    def test_duplicate_identifier(self):
        with pytest.raises(ResolutionError):
            parse("space X = baire\nset X in X : sigma 1\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("space X = baire extra\n")


def _lexed(lex, line: str):
    """Tokens of a line, or the text of the ParseError it raises."""
    try:
        return lex(line, 7)
    except ParseError as exc:
        return f"ParseError: {exc}"


DEMO_PROGRAMS = sorted((Path(__file__).resolve().parents[1] / "demos" / "programs").glob("*.pjc"))
HAND_LINES = [
    "$", ";", '"', "\t", "σ", "# a comment and nothing else", "", "   ",
    "set A in X : sigma 1   ", "set A in X : sigma 1 # trailing $ comment",
    'let U = union i in nat of A_i with levels unbounded "open', "let x = f $",
    "a->b~>c<=d>=e==f(g)[h],i:j=k<l>m/n@o-p", "0042abc_9 _x", "\x0bx\u2003y",
    "bounded\ndelta 2", '"two\nlines" # and\n$',
]


class TestLexer:
    """The one-match-per-token lexer against the match-per-gap reference."""

    def test_corpus_lines(self):
        lines = [line for text in corpus() for line in text.splitlines()]
        assert lines
        for line in lines:
            assert _lexed(_lex_line, line) == _lexed(reference_lex_line, line), line

    @pytest.mark.parametrize("path", DEMO_PROGRAMS, ids=lambda p: p.name)
    def test_demo_program_lines(self, path):
        for line in path.read_text(encoding="utf-8").splitlines():
            assert _lexed(_lex_line, line) == _lexed(reference_lex_line, line), line

    @pytest.mark.parametrize("line", HAND_LINES)
    def test_hand_written_lines(self, line):
        assert _lexed(_lex_line, line) == _lexed(reference_lex_line, line)


# one declaration of the name x for each namespace; "let" reads the set A
DECLARE_X = {
    "space": ast.SpaceDecl("x", ast.Baire()),
    "set": ast.SetDecl("x", ast.Baire(), sigma(1)),
    "func": ast.FuncDecl("x", ast.Baire(), ast.Reals(), ast.FuncAnnot("declared", 1)),
    "kernel": ast.KernelDecl("x", ast.Baire(), ast.Cantor(), 1),
    "let": ast.LetSet("x", ast.NamedSet("A")),
}


class TestBind:
    @pytest.mark.parametrize("first,second", list(itertools.product(DECLARE_X, repeat=2)))
    def test_duplicate_across_namespaces(self, first, second):
        # parse() stops duplicates before bind runs, so build the AST by hand
        head = ast.SetDecl("A", ast.Baire(), sigma(1))
        env = bind(ast.Program((head, DECLARE_X[first])))
        assert "x" in {**env.spaces, **env.sets, **env.funcs, **env.kernels}
        with pytest.raises(ResolutionError, match="duplicate identifier 'x'"):
            bind(ast.Program((head, DECLARE_X[first], DECLARE_X[second])))

    def test_declarations_bind_in_linear_time(self):
        n = 10_000
        text = "space X = baire\n" + "".join(f"set A{i} in X : sigma 1\n" for i in range(n))
        started = time.perf_counter()
        _, env = parse(text)
        elapsed = time.perf_counter() - started
        assert len(env.sets) == n
        assert elapsed < 2.0  # a quadratic duplicate check takes seconds at this size


class TestSignatures:
    def test_union_carrier_mismatch(self):
        with pytest.raises(SignatureError):
            parse(BASE + "let U = union(A, B)\n")

    def test_preimage_codomain_mismatch(self):
        # g maps into Y but A lives on X
        with pytest.raises(SignatureError):
            parse(BASE + "let P = pre[g](A)\n")

    def test_preimage_ok(self):
        prog, env = parse(BASE + "let P = pre[g](B)\n")
        assert env.sets["P"].space == ast.Baire()

    def test_projection_needs_product(self):
        with pytest.raises(SignatureError):
            parse(BASE + "let P = proj[1](A)\n")

    def test_projection_by_space_name(self):
        prog, env = parse(BASE + "let P = proj[X](D)\n")
        assert env.sets["P"].space == ast.Baire()

    def test_ambiguous_axis_on_square(self):
        text = "space X = baire\nspace W = prod(X, X)\nset S in W : sigma 1\nlet P = proj[X](S)\n"
        with pytest.raises(SignatureError):
            parse(text)

    def test_img_requires_level_one(self):
        with pytest.raises(SignatureError):
            parse(BASE + "func h : X -> Y : delta 2\nlet I = img[h](A)\n")

    def test_compose_chain_signature(self):
        text = BASE + "func h : Y -> reals : delta 3\nlet c = compose(h, g)\n"
        prog, env = parse(text)
        assert env.funcs["c"].dom == ast.Baire()
        assert env.funcs["c"].cod == ast.Reals()

    def test_eps_requires_positive(self):
        with pytest.raises(SignatureError):
            parse(BASE + "let e = eps_inf(D, f, 0)\n")

    def test_pow_requires_positive_exponent(self):
        with pytest.raises(SignatureError):
            parse(BASE + "func n : X -> reals : delta 1 nonneg\nlet p = pow(n, -1)\n")

    def test_integral_signature(self):
        prog, env = parse(BASE + "let l = integral(f, q)\n")
        assert env.funcs["l"].dom == ast.Baire()
        assert env.funcs["l"].cod == ast.XRealLine()

    def test_domain_set_must_match_space(self):
        with pytest.raises(SignatureError):
            parse("space X = baire\nset D in X : delta 1\nfunc f : prod(X, X) -> xreal on D : delta 2\n")


ROUND_TRIP_SOURCES = [
    BASE,
    BASE + "let C = compl(A)\nlet U = union(C, A)\nassert class(U) <= delta 2\n",
    BASE + "let G = graph(f)\nlet P = proj[1](G)\n",
    BASE + "let S = sublevel(f, >=, 5/3)\nlet M = measure_ge(A, 1/2)\n",
    BASE + "let W = prod(A, B)\nlet T = section[2 @ a0](W)\n",
    BASE + "let e = eps_sup(D, f, 1/10)\nassert level(e) <= delta 5\n",
    BASE + "let s = select(D)\nlet fg = from_graph(graph(g), A)\n",
    BASE + "let v = sup i in nat of h_i in X with levels bounded delta 2\n",
    BASE + "let m = min(fsection[1 @ a](f), fsection[1 @ b](f))\nlet n = neg(m)\n",
    BASE + "let pi_f = inf_over(f, D)\nlet c2 = cyl[Y](pi_f)\n",
    BASE + "func u : X -> reals : delta 1 nonneg\nlet pw = pow(u, 3/2)\nlet ip = inner(u, u)\n",
]


class TestSpaceValues:
    def test_equal_structures_are_one_object(self):
        a = ast.ProductSpace(ast.MeasureSpace(ast.Reals()), ast.Baire())
        b = ast.ProductSpace(ast.MeasureSpace(ast.Reals()), ast.Baire())
        assert a is b and a == b and hash(a) == hash(b)
        assert ast.Cantor() is ast.Cantor()
        _, env = parse("space S = prod(measures(reals), baire)\n")
        assert env.spaces["S"] is a

    def test_swapped_factors_are_unequal(self):
        a = ast.ProductSpace(ast.Reals(), ast.Baire())
        b = ast.ProductSpace(ast.Baire(), ast.Reals())
        assert a != b and a is not b
        assert ast.MeasureSpace(a) != ast.MeasureSpace(b)
        assert ast.Reals() != ast.XRealLine()

    def test_two_parses_share_space_values(self):
        (_, first), (_, second) = parse(HEADER), parse(HEADER)
        assert first.spaces.keys() == second.spaces.keys()
        assert all(first.spaces[name] is second.spaces[name] for name in first.spaces)
        assert all(first.sets[name].space is second.sets[name].space for name in first.sets)

    def test_corpus_round_trips(self):
        for text in corpus() + [HEADER + "\n".join(SYNTAX_EXTRAS) + "\n"]:
            prog = parse_program(text)
            assert parse_program(format_program(prog)) == prog


class TestFormatter:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES, ids=range(len(ROUND_TRIP_SOURCES)))
    def test_parse_format_identity(self, source):
        prog = parse_program(source)
        text = format_program(prog)
        assert parse_program(text) == prog
        # canonical text is a fixed point
        assert format_program(parse_program(text)) == text

    def test_canonical_spacing(self):
        prog = parse_program("space   X =   baire\nset A in X :   sigma   1\n")
        assert format_program(prog) == "space X = baire\nset A in baire : sigma 1\n"

    def test_space_references_print_structurally(self):
        prog = parse_program(BASE)
        line = format_statement(prog.statements[6])
        assert line == "func f : prod(baire, nat) -> xreal on D : delta 2"

    def test_countable_formatting(self):
        prog = parse_program(BASE + "let U = union i in nat of A_i in X with levels bounded delta 2\n")
        assert (
            format_statement(prog.statements[-1])
            == "let U = union i in nat of A_i in baire with levels bounded delta 2"
        )

    def test_set_expr_text(self):
        prog, env = parse(BASE + "let P = pre[g](B)\n")
        assert format_expr(env.sets["P"].expr) == "pre[g](B)"


# -- the syntax digests: every keyword form of the DSL, frozen

_WORD_RE = re.compile(r'->|~>|<=|>=|==|"[^"]*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S')


def _syntax_lines() -> list[tuple[str, str]]:
    """(context, line) pairs: each header line under the ones before it,
    then each template, assert and extra line under the whole header."""
    header = HEADER.splitlines()
    pairs = [("".join(h + "\n" for h in header[:i]), line) for i, line in enumerate(header)]
    for tag in sorted(TEMPLATES):
        pairs += [(HEADER, line) for line in TEMPLATES[tag]("0")]
    pairs += [(HEADER, line) for line in ASSERTS + SYNTAX_EXTRAS]
    return pairs


def _variants(line: str) -> list[str]:
    """The line cut before each token, with each token deleted, and with
    each of ')', ',' and '[' inserted before each token."""
    out = []
    for m in _WORD_RE.finditer(line):
        a, b = m.span()
        out += [line[:a], line[:a] + line[b:]]
        out += [line[:a] + p + line[a:] for p in ")[,"]
    return out


def test_parse_error_texts_frozen():
    # hashed at a commit before the parser and formatter shared one syntax
    # table: the table must not move any parsed program or error text
    h = hashlib.sha256()
    for context, line in _syntax_lines():
        for variant in [line] + _variants(line):
            try:
                out = format_program(parse_program(context + variant + "\n"))
            except (ParseError, ResolutionError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            h.update(f"{variant}\n{out}\n".encode())
    assert h.hexdigest() == "80b29bc848d971ac95ab092fcc9c6b416cda94e13dafc01e613ae4a5da56f902"


def _bound(text: str) -> str:
    """What parse (read and bind) says of text: "ok", or its error."""
    try:
        parse(text)
    except ProjcalcError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_fmt_is_idempotent_on_the_digest_variants():
    # every variant behind the syntax digest that reads formats to a fixed
    # point, and binding the formatted text says what binding the text does
    variants = read = 0
    for context, line in _syntax_lines():
        for variant in [line] + _variants(line):
            variants += 1
            text = context + variant + "\n"
            try:
                out = format_program(parse_program(text))
            except (ParseError, ResolutionError):
                continue
            assert format_program(parse_program(out)) == out, variant
            assert _bound(out) == _bound(text), variant
            read += 1
    assert (variants, read) == (2871, 120)


def test_syntax_lines_spell_every_keyword():
    # the frozen digests reach a keyword form only through these lines
    words = {w.lower() for _, line in _syntax_lines() for w in _WORD_RE.findall(line)}
    assert SET_KEYWORDS | FUNC_KEYWORDS | SPACE_KEYWORDS <= words


@pytest.mark.parametrize("word", ["compl", "neg"])
def test_deep_nest_formats_in_process(word):
    # read and written with explicit stacks: deeper than the interpreter's recursion limit
    depth = 5000
    inner = "A" if word == "compl" else "u"
    nest = f"{word}(" * depth + inner + ")" * depth
    text = f"space X = baire\nset A in X : sigma 1\nfunc u : X -> reals : delta 1\nlet N = {nest}\n"
    assert format_program(parse_program(text)).endswith(f"\nlet N = {nest}\n")


def test_deep_nest_formats_in_linear_time(monkeypatch):
    # one writer appends every token to one list: pieces() is asked once per
    # node and hands back short tokens with the subexpression left in place,
    # where copying each child's finished text makes pieces as long as the
    # nest below them
    depth = 40_000
    program = parse_program(compl_nest(depth))
    original = formatter.pieces
    calls, longest = 0, 0

    def counting(e):
        nonlocal calls, longest
        calls += 1
        out = original(e)
        longest = max([longest] + [len(p) for p in out if type(p) is str])
        return out

    monkeypatch.setattr(formatter, "pieces", counting)
    assert format_program(program).endswith(f"let N = {'compl(' * depth}A0{')' * depth}\n")
    assert calls == depth + 1
    assert longest <= len("compl(")
