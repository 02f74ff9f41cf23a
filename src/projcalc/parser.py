"""Recursive-descent parser for the line-oriented DSL.

One statement per line; '#' starts a comment.  Keywords are matched
case-insensitively, identifiers are case-sensitive.  Space names resolve
eagerly (programs have no forward references), so parsed declarations carry
structural space values.  parse() also binds, reporting undeclared names as
ResolutionError and carrier mismatches as SignatureError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import ast
from .errors import ParseError, ResolutionError, depth_limited
from .pointclass import (
    BoundedBy,
    ConstantClass,
    ExplicitList,
    Kind,
    PointClass,
    Unbounded,
)
from .sema import Env, bind

# One match per token: the whitespace before a token is absorbed into the
# token's own match, and "bad" catches the first character no token can
# start with.  A match with no named group is trailing whitespace or the end
# of the line.  The operator tokens share one group because their first
# characters are disjoint from identifiers' and integers'.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<comment>\#.*)
      | (?P<string>"[^"]*")
      | (?P<op>->|~>|<=|>=|==|[()\[\],:=<>/@-])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<bad>.)
    )?
    """,
    re.VERBOSE,
)

SET_KEYWORDS = {
    "compl", "union", "inter", "prod", "proj", "img", "pre",
    "section", "graph", "sublevel", "measure_ge",
}
FUNC_KEYWORDS = {
    "pair", "cyl", "compose", "fsection", "add", "neg", "mul", "min", "max",
    "inner", "pow", "sup", "inf", "inf_over", "sup_over", "integral",
    "select", "eps_inf", "eps_sup", "from_graph",
}
SPACE_KEYWORDS = {"reals", "nat", "baire", "cantor", "xreal", "prod", "measures"}


@dataclass(slots=True)
class Token:
    kind: str  # ident / int / string / punct text
    text: str
    line: int
    col: int


def _lex_line(line: str, lineno: int) -> list[Token]:
    toks = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        col = m.start(kind) + 1
        text = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        toks.append(Token(text if kind == "op" else kind, text, lineno, col))
    return toks


class _LineParser:
    def __init__(self, tokens: list[Token], lineno: int, spaces: dict, names: dict):
        self.toks = tokens
        self.i = 0
        self.lineno = lineno
        self.spaces = spaces  # declared space values, for eager resolution
        self.names = names  # identifier -> kind ("set" / "func" / ...)

    # -- token plumbing

    def peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def error(self, expected: tuple[str, ...]):
        tok = self.peek()
        col = tok.col if tok else (self.toks[-1].col + len(self.toks[-1].text) if self.toks else 1)
        got = f"{tok.text!r}" if tok else "end of line"
        raise ParseError(f"unexpected {got}", self.lineno, col, expected)

    def take(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error((kind,))
        self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "ident" and tok.text.lower() in words

    def keyword(self, *words: str) -> str:
        if not self.at_keyword(*words):
            self.error(words)
        return self._advance().text.lower()

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def ident(self) -> str:
        return self.take("ident").text

    def end(self) -> None:
        if self.peek() is not None:
            self.error(("end of line",))

    # -- terminals

    def integer(self) -> int:
        return int(self.take("int").text)

    def rational(self) -> Fraction:
        neg = False
        if self.peek() is not None and self.peek().kind == "-":
            self._advance()
            neg = True
        num = self.integer()
        den = 1
        if self.peek() is not None and self.peek().kind == "/":
            self._advance()
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.lineno, self.toks[self.i - 1].col)
        q = Fraction(num, den)
        return -q if neg else q

    def set_class(self) -> PointClass:
        word = self.keyword("sigma", "pi", "delta", "borel", "analytic")
        if word == "borel":
            return PointClass(Kind.DELTA, 1)
        if word == "analytic":
            return PointClass(Kind.SIGMA, 1)
        return PointClass(Kind(word), self.integer())

    def func_annot(self) -> ast.FuncAnnot:
        word = self.keyword("delta", "borel", "lsa", "usa")
        if word == "delta":
            return ast.FuncAnnot("declared", self.integer())
        if word == "borel":
            return ast.FuncAnnot("borel", 1)
        return ast.FuncAnnot(word, 2)  # semianalytic envelopes sit at level 2

    def space_expr(self) -> ast.SpaceExpr:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.error(tuple(sorted(SPACE_KEYWORDS)) + ("space name",))
        word = tok.text.lower()
        if word == "reals":
            self._advance()
            return ast.Reals()
        if word == "nat":
            self._advance()
            return ast.Naturals()
        if word == "baire":
            self._advance()
            return ast.Baire()
        if word == "cantor":
            self._advance()
            return ast.Cantor()
        if word == "xreal":
            self._advance()
            return ast.XRealLine()
        if word == "prod":
            self._advance()
            self.take("(")
            left = self.space_expr()
            self.take(",")
            right = self.space_expr()
            self.take(")")
            return ast.ProductSpace(left, right)
        if word == "measures":
            self._advance()
            self.take("(")
            inner = self.space_expr()
            self.take(")")
            return ast.MeasureSpace(inner)
        # a declared space name, resolved to its value
        self._advance()
        if tok.text not in self.spaces:
            raise ResolutionError(f"undeclared space {tok.text!r}")
        return self.spaces[tok.text]

    def schedule(self):
        word = self.keyword("bounded", "constant", "from", "unbounded")
        if word == "bounded":
            return BoundedBy(self.set_class())
        if word == "constant":
            return ConstantClass(self.set_class())
        if word == "from":
            self.take("[")
            classes = [self.set_class()]
            while self.peek() is not None and self.peek().kind == ",":
                self._advance()
                classes.append(self.set_class())
            self.take("]")
            return ExplicitList(tuple(classes))
        text = self.take("string").text
        return Unbounded(text[1:-1])

    def axis(self) -> ast.Axis:
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            self._advance()
            return int(tok.text)
        if tok is not None and tok.kind == "ident":
            self._advance()
            return tok.text
        self.error(("axis position", "space name"))

    def family(self, index: str) -> str:
        tok = self.take("ident")
        base, sep, suffix = tok.text.rpartition("_")
        if not sep or suffix != index or not base:
            raise ParseError(
                f"family member must look like <base>_{index}", self.lineno, tok.col
            )
        return base

    def comparator(self) -> str:
        tok = self.peek()
        if tok is not None and tok.kind in ("<", "<=", ">", ">="):
            self._advance()
            return tok.kind
        self.error(("<", "<=", ">", ">="))

    # -- expressions

    def expr_kind_of(self, name: str) -> str:
        kind = self.names.get(name)
        if kind is None:
            raise ResolutionError(f"undeclared identifier {name!r}")
        return kind

    def any_expr(self):
        """A set or function expression, decided by the leading token."""
        tok = self.peek()
        if tok is None:
            self.error(("expression",))
        word = tok.text.lower() if tok.kind == "ident" else None
        if word in SET_KEYWORDS:
            return self.set_expr(), "set"
        if word in FUNC_KEYWORDS:
            return self.func_expr(), "func"
        if tok.kind == "ident":
            kind = self.expr_kind_of(tok.text)
            if kind == "set":
                return self.set_expr(), "set"
            if kind == "func":
                return self.func_expr(), "func"
            raise ResolutionError(f"{tok.text!r} names a {kind}, not a set or function")
        self.error(("expression",))

    def set_expr(self) -> ast.SetExpr:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.error(tuple(sorted(SET_KEYWORDS)) + ("set name",))
        word = tok.text.lower()
        if word == "compl":
            self._advance()
            self.take("(")
            inner = self.set_expr()
            self.take(")")
            return ast.Complement(inner)
        if word in ("union", "inter"):
            self._advance()
            if self.peek() is not None and self.peek().kind == "(":
                self.take("(")
                members = [self.set_expr()]
                while self.peek() is not None and self.peek().kind == ",":
                    self._advance()
                    members.append(self.set_expr())
                self.take(")")
                if len(members) < 2:
                    self.error((",",))
                node = ast.FiniteUnion if word == "union" else ast.FiniteIntersection
                return node(tuple(members))
            return self._countable(word)
        if word == "prod":
            self._advance()
            self.take("(")
            left = self.set_expr()
            self.take(",")
            right = self.set_expr()
            self.take(")")
            return ast.Product(left, right)
        if word == "proj":
            self._advance()
            self.take("[")
            axis = self.axis()
            self.take("]")
            self.take("(")
            inner = self.set_expr()
            self.take(")")
            return ast.Projection(inner, axis)
        if word == "img":
            self._advance()
            self.take("[")
            fn = self.ident()
            self.take("]")
            self.take("(")
            inner = self.set_expr()
            self.take(")")
            return ast.BorelImage(fn, inner)
        if word == "pre":
            self._advance()
            self.take("[")
            fn = self.func_expr()
            self.take("]")
            self.take("(")
            inner = self.set_expr()
            self.take(")")
            return ast.Preimage(fn, inner)
        if word == "section":
            self._advance()
            axis, at = self._axis_with_point()
            self.take("(")
            inner = self.set_expr()
            self.take(")")
            return ast.Section(inner, axis, at)
        if word == "graph":
            self._advance()
            self.take("(")
            fn = self.func_expr()
            self.take(")")
            return ast.Graph(fn)
        if word == "sublevel":
            self._advance()
            self.take("(")
            fn = self.func_expr()
            self.take(",")
            op = self.comparator()
            self.take(",")
            bound = self.rational()
            self.take(")")
            return ast.Sublevel(fn, op, bound)
        if word == "measure_ge":
            self._advance()
            self.take("(")
            inner = self.set_expr()
            self.take(",")
            threshold = self.rational()
            self.take(")")
            return ast.MeasureThreshold(inner, threshold)
        # named set
        self._advance()
        if self.expr_kind_of(tok.text) != "set":
            raise ResolutionError(f"{tok.text!r} is not a set")
        return ast.NamedSet(tok.text)

    def _axis_with_point(self) -> tuple[ast.Axis, str | None]:
        self.take("[")
        axis = self.axis()
        at = None
        if self.peek() is not None and self.peek().kind == "@":
            self._advance()
            at = self.ident()
        self.take("]")
        return axis, at

    def _countable(self, word: str):
        index = self.ident()
        self.keyword("in")
        self.keyword("nat")
        self.keyword("of")
        base = self.family(index)
        carrier = None
        if self.at_keyword("in"):
            self._advance()
            carrier = self.space_expr()
        self.keyword("with")
        self.keyword("levels")
        sched = self.schedule()
        node = ast.CountableUnion if word == "union" else ast.CountableIntersection
        return node(index, base, carrier, sched)

    def _countable_func(self, word: str):
        index = self.ident()
        self.keyword("in")
        self.keyword("nat")
        self.keyword("of")
        base = self.family(index)
        carrier = None
        if self.at_keyword("in"):
            self._advance()
            carrier = self.space_expr()
        self.keyword("with")
        self.keyword("levels")
        sched = self.schedule()
        node = ast.CountableSup if word == "sup" else ast.CountableInf
        return node(index, base, carrier, sched)

    def func_expr(self) -> ast.FuncExpr:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.error(tuple(sorted(FUNC_KEYWORDS)) + ("function name",))
        word = tok.text.lower()
        binary = {"pair": ast.PairFunc, "compose": ast.Compose, "add": ast.Sum,
                  "mul": ast.ProdOp, "min": ast.MinOp, "max": ast.MaxOp,
                  "inner": ast.InnerProduct}
        if word in binary:
            self._advance()
            self.take("(")
            left = self.func_expr()
            self.take(",")
            right = self.func_expr()
            self.take(")")
            return binary[word](left, right)
        if word == "neg":
            self._advance()
            self.take("(")
            inner = self.func_expr()
            self.take(")")
            return ast.Neg(inner)
        if word == "cyl":
            self._advance()
            self.take("[")
            factor = self.space_expr()
            self.take("]")
            self.take("(")
            inner = self.func_expr()
            self.take(")")
            return ast.CylinderExtend(inner, factor)
        if word == "fsection":
            self._advance()
            axis, at = self._axis_with_point()
            self.take("(")
            inner = self.func_expr()
            self.take(")")
            return ast.SectionOf(inner, axis, at)
        if word == "pow":
            self._advance()
            self.take("(")
            inner = self.func_expr()
            self.take(",")
            exponent = self.rational()
            self.take(")")
            return ast.Power(inner, exponent)
        if word in ("sup", "inf"):
            self._advance()
            return self._countable_func(word)
        if word in ("inf_over", "sup_over"):
            self._advance()
            self.take("(")
            fn = self.func_expr()
            self.take(",")
            dom = self.set_expr()
            self.take(")")
            node = ast.PartialInf if word == "inf_over" else ast.PartialSup
            return node(fn, dom)
        if word == "integral":
            self._advance()
            self.take("(")
            fn = self.func_expr()
            self.take(",")
            kernel = self.ident()
            self.take(")")
            return ast.IntegralKernel(fn, kernel)
        if word == "select":
            self._advance()
            self.take("(")
            operand = self.set_expr()
            self.take(")")
            return ast.Select(operand)
        if word in ("eps_inf", "eps_sup"):
            self._advance()
            self.take("(")
            dom = self.set_expr()
            self.take(",")
            fn = self.func_expr()
            self.take(",")
            eps = self.rational()
            self.take(")")
            return ast.EpsSelector(dom, fn, eps, "inf" if word == "eps_inf" else "sup")
        if word == "from_graph":
            self._advance()
            self.take("(")
            graph = self.set_expr()
            self.take(",")
            dom = self.set_expr()
            self.take(")")
            return ast.FromGraph(graph, dom)
        # named function
        self._advance()
        if self.expr_kind_of(tok.text) != "func":
            raise ResolutionError(f"{tok.text!r} is not a function")
        return ast.NamedFunc(tok.text)

    # -- statements

    def statement(self) -> ast.Statement:
        word = self.keyword("space", "set", "func", "kernel", "let", "assert")
        out = getattr(self, f"_stmt_{word}")()
        self.end()
        return out

    def _stmt_space(self):
        name = self.ident()
        self.take("=")
        space = self.space_expr()
        self._register(name, "space")
        self.spaces[name] = space
        return ast.SpaceDecl(name, space, line=self.lineno)

    def _stmt_set(self):
        name = self.ident()
        self.keyword("in")
        space = self.space_expr()
        self.take(":")
        cls = self.set_class()
        self._register(name, "set")
        return ast.SetDecl(name, space, cls, line=self.lineno)

    def _stmt_func(self):
        name = self.ident()
        self.take(":")
        dom = self.space_expr()
        self.take("->")
        cod = self.space_expr()
        domain_set = None
        if self.at_keyword("on"):
            self._advance()
            domain_set = self.ident()
        self.take(":")
        annot = self.func_annot()
        nonneg = False
        if self.at_keyword("nonneg"):
            self._advance()
            nonneg = True
        self._register(name, "func")
        return ast.FuncDecl(name, dom, cod, annot, domain_set, nonneg, line=self.lineno)

    def _stmt_kernel(self):
        name = self.ident()
        self.take(":")
        src = self.space_expr()
        self.take("~>")
        dst = self.space_expr()
        self.take(":")
        word = self.keyword("delta", "borel")
        level = self.integer() if word == "delta" else 1
        self._register(name, "kernel")
        return ast.KernelDecl(name, src, dst, level, line=self.lineno)

    def _stmt_let(self):
        name = self.ident()
        self.take("=")
        expr, kind = self.any_expr()
        self._register(name, kind)
        if kind == "set":
            return ast.LetSet(name, expr, line=self.lineno)
        return ast.LetFunc(name, expr, line=self.lineno)

    def _stmt_assert(self):
        word = self.keyword("class", "level", "um")
        if word == "um":
            self.take("(")
            name = self.ident()
            self.take(")")
            if self.names.get(name) not in ("set", "func"):
                raise ResolutionError(f"undeclared subject {name!r} in um assertion")
            return ast.AssertUM(name, line=self.lineno)
        self.take("(")
        if word == "class":
            expr = self.set_expr()
            self.take(")")
            op = self._assert_cmp()
            cls = self.set_class()
            return ast.AssertClass(expr, op, cls, line=self.lineno)
        expr = self.func_expr()
        self.take(")")
        op = self._assert_cmp()
        self.keyword("delta")
        level = self.integer()
        return ast.AssertLevel(expr, op, level, line=self.lineno)

    def _assert_cmp(self) -> str:
        tok = self.peek()
        if tok is not None and tok.kind in ("<=", "=="):
            self._advance()
            return tok.kind
        self.error(("<=", "==",))

    def _register(self, name: str, kind: str):
        if name in self.names:
            raise ResolutionError(f"duplicate identifier {name!r}")
        self.names[name] = kind


def parse_schedule(text: str):
    """Parse a bare schedule clause, e.g. "bounded delta 2"."""
    tokens = _lex_line(text, 1)
    lp = _LineParser(tokens, 1, {}, {})
    sched = lp.schedule()
    lp.end()
    return sched


def parse_program(text: str) -> ast.Program:
    """Syntax plus name resolution; no carrier checking."""
    statements: list[ast.Statement] = []
    spaces: dict[str, ast.SpaceExpr] = {}
    names: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, lineno)
        if not tokens:
            continue
        lp = _LineParser(tokens, lineno, spaces, names)
        statements.append(lp.statement())
    return ast.Program(tuple(statements))


@depth_limited
def parse(text: str) -> tuple[ast.Program, Env]:
    """Full front end: parse, resolve, and carrier-check a program."""
    program = parse_program(text)
    env = bind(program)
    return program, env
