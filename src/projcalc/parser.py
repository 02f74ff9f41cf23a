"""Parser for the line-oriented DSL.

One statement per line; '#' starts a comment.  Keywords are matched
case-insensitively, identifiers are case-sensitive.  Space names resolve
eagerly (programs have no forward references), so parsed declarations carry
structural space values.  parse() also binds, reporting undeclared names as
ResolutionError and carrier mismatches as SignatureError.

Keyword forms and statements are read from the tables in ast, whose
entries also declare the node classes, so a new constructor or statement is
one table entry plus its rules; the formatter and ast.children read the
tables too.  Only the irregular forms (union/inter, countable families,
eps_*) are spelled here, and a new one is also named in ast.children.
Expressions and space values are each read by one loop over a stack of
partly read forms (_LineParser.expr, space_expr), so they nest as deep as
memory allows.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import ast
from .errors import LevelOverflowError, ParseError, ResolutionError
from .pointclass import (
    LEVEL_CAP,
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
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<comment>\#.*)
      | (?P<string>"[^"]*")
      | (?P<op>->|~>|<=|>=|==|[()\[\],:=<>/@-])
      | (?P<ident>""" + IDENTIFIER.pattern + r""")
      | (?P<int>[0-9]+)
      | (?P<bad>.)
    )?
    """,
    re.VERBOSE,
)

# keyword -> (node constructor, slot steps): ast.FUNC_FORMS and the two eps_* forms
_FUNC_FORMS = {
    **ast.FUNC_FORMS,
    "eps_inf": (partial(ast.EpsSelector, direction="inf"), ast.EPS_STEPS),
    "eps_sup": (partial(ast.EpsSelector, direction="sup"), ast.EPS_STEPS),
}

SET_KEYWORDS = set(ast.SET_FORMS) | {"union", "inter"}
FUNC_KEYWORDS = set(_FUNC_FORMS) | {"sup", "inf"}
SPACE_KEYWORDS = set(ast.SPACE_ATOMS) | set(ast.SPACE_FORMS)
_CAP_DIGITS = len(str(LEVEL_CAP))

# expression kind -> (keyword forms, family keywords, node, kind and noun of a name)
_READS = {
    "set_expr": (ast.SET_FORMS, ("union", "inter"), ast.NamedSet, "set", "set"),
    "func_expr": (_FUNC_FORMS, ("sup", "inf"), ast.NamedFunc, "func", "function"),
}


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
        return self.int_value(self.take("int"))

    def int_value(self, tok: Token) -> int:
        """An int token's value; int() refuses more digits than the interpreter's limit."""
        # the limit and its getter came in 3.11 and 3.10.7; without them there is none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(tok.text) > limit:
            raise ParseError(f"integer of {len(tok.text)} digits is too long", self.lineno, tok.col)
        return int(tok.text)

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

    def level(self) -> int:
        """A hierarchy level, 1 up to LEVEL_CAP."""
        tok = self.take("int")
        text = tok.text
        if len(text) > _CAP_DIGITS:
            text = text.lstrip("0") or "0"
            if len(text) > _CAP_DIGITS:
                # past the cap, and perhaps too long for int(): report the digits
                raise LevelOverflowError(text, LEVEL_CAP)
        level = int(text)
        if level < 1:
            raise ParseError("level must be at least 1", self.lineno, tok.col)
        if level > LEVEL_CAP:
            raise LevelOverflowError(level, LEVEL_CAP)
        return level

    def set_class(self) -> PointClass:
        word = self.keyword("sigma", "pi", "delta", "borel", "analytic")
        if word == "borel":
            return PointClass(Kind.DELTA, 1)
        if word == "analytic":
            return PointClass(Kind.SIGMA, 1)
        return PointClass(Kind(word), self.level())

    def func_annot(self) -> ast.FuncAnnot:
        word = self.keyword("delta", "borel", "lsa", "usa")
        if word == "delta":
            return ast.FuncAnnot("declared", self.level())
        if word == "borel":
            return ast.FuncAnnot("borel", 1)
        return ast.FuncAnnot(word, 2)  # semianalytic envelopes sit at level 2

    def space_expr(self) -> ast.SpaceExpr:
        """One space value, read with a stack of open prod/measures forms."""
        stack = []  # (node class, number of factors, factors read so far)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "ident":
                self.error(tuple(sorted(SPACE_KEYWORDS)) + ("space name",))
            self.i += 1
            word = tok.text.lower()
            if word in ast.SPACE_FORMS:
                self.take("(")
                stack.append((*ast.SPACE_FORMS[word], []))
                continue
            if word in ast.SPACE_ATOMS:
                value = ast.SPACE_ATOMS[word]()
            elif tok.text in self.spaces:  # a declared space name, resolved to its value
                value = self.spaces[tok.text]
            else:
                raise ResolutionError(f"undeclared space {tok.text!r}")
            while stack:  # hand the value to its form; read on if the form wants more
                node, arity, factors = stack[-1]
                factors.append(value)
                if len(factors) < arity:
                    self.take(",")
                    break
                self.take(")")
                value = node(*stack.pop()[2])
            else:
                return value

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

    def point(self) -> tuple[ast.Axis, str | None]:
        axis = self.axis()
        if self.peek() is not None and self.peek().kind == "@":
            self._advance()
            return axis, self.ident()
        return axis, None

    def axis(self) -> ast.Axis:
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            self._advance()
            return self.int_value(tok)
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
        return self.operator("<", "<=", ">", ">=")

    def assert_cmp(self) -> str:
        return self.operator("<=", "==")

    def operator(self, *kinds: str) -> str:
        tok = self.peek()
        if tok is not None and tok.kind in kinds:
            self._advance()
            return tok.kind
        self.error(kinds)

    # -- expressions

    def expr_kind_of(self, name: str) -> str:
        kind = self.names.get(name)
        if kind is None:
            raise ResolutionError(f"undeclared identifier {name!r}")
        return kind

    def any_expr(self):
        """A set or function expression, decided by the leading token."""
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.error(("expression",))
        word = tok.text.lower()
        kind = "set" if word in SET_KEYWORDS else "func" if word in FUNC_KEYWORDS else self.expr_kind_of(tok.text)
        if kind not in ("set", "func"):
            raise ResolutionError(f"{tok.text!r} names a {kind}, not a set or function")
        return self.expr("set_expr" if kind == "set" else "func_expr"), kind

    def expr(self, kind: str):
        """One expression of ``kind``, set_expr or func_expr, read with a stack
        of partly read forms: a form waits on the stack while the expression
        in its open slot is read, then takes that expression's value."""
        stack = []  # [build, slot steps or None for a member list, next step, args]
        while True:
            forms, families, named, name_kind, noun = _READS[kind]
            tok = self.peek()
            if tok is None or tok.kind != "ident":
                self.error(tuple(sorted({*forms, *families})) + (f"{noun} name",))
            self.i += 1
            word = tok.text.lower()
            form = forms.get(word)
            frame = value = None
            if form is not None:
                frame = [form[0], form[1], 0, {}]
                stack.append(frame)
            elif word in families:
                finite, countable = ast.FAMILIES[word]
                if finite is not None and self.peek() is not None and self.peek().kind == "(":
                    self.i += 1
                    frame = [finite, None, 0, []]
                    stack.append(frame)
                else:
                    value = self._countable(countable)
            elif self.expr_kind_of(tok.text) == name_kind:
                value = named(tok.text)
            else:
                raise ResolutionError(f"{tok.text!r} is not a {noun}")
            # hand each finished value to its form; read on until one opens an expression slot
            while True:
                if frame is None:
                    if not stack:
                        return value
                    frame = stack[-1]
                build, steps, i, args = frame
                if value is not None:  # the value of the slot that was open
                    if steps is None:
                        args.append(value)
                    else:
                        args[steps[i - 1][1]] = value
                if steps is None:  # union/inter members, after the "("
                    if not args or (self.peek() is not None and self.peek().kind == ","):
                        if args:
                            self._advance()
                        kind = "set_expr"
                        break
                    self.take(")")
                    if len(args) < 2:
                        self.error((",",))
                    value, frame = build(tuple(args)), None
                    stack.pop()
                    continue
                while i < len(steps):
                    lead, name, slot = steps[i]
                    i += 1
                    for punct in lead.rstrip():
                        self.take(punct)
                    if slot == "set_expr" or slot == "func_expr":
                        break
                    if slot == "point":
                        args["axis"], args["at"] = self.point()
                    else:  # every other kind is a method
                        args[name] = getattr(self, slot)()
                else:
                    self.take(")")
                    value, frame = build(**args), None
                    stack.pop()
                    continue
                frame[2], kind = i, slot
                break

    def _countable(self, node):
        """The family clause after union/inter/sup/inf, as a ``node``."""
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
        return node(index, base, carrier, self.schedule())

    # -- statements

    def statement(self) -> ast.Statement:
        """One statement, read by the steps of its entry in ast.STATEMENT_FORMS."""
        word = self.keyword(*_FIRST_WORDS)
        if _STATEMENT_WORDS[word]:  # assert and its second keyword
            word += " " + self.keyword(*_STATEMENT_WORDS[word])
        node, steps, values = _STATEMENTS[word]
        values, kind = list(values), word  # the fields' values in the class's order, defaults until read
        for lead, position, read, absent in steps:
            if absent and not self.at_keyword(lead[0][1]):
                continue
            for take, token in lead:
                take(self, token)
            if read is not None:
                values[position] = read(self)
        if type(node) is dict:  # a let: its right side is read with its kind, which picks the class
            values[-1], kind = values[-1]
            node = node[kind]
        if word == "assert um":
            if self.names.get(values[0]) not in ("set", "func"):
                raise ResolutionError(f"undeclared subject {values[0]!r} in um assertion")
        elif node._fields[0] == "name":  # a declaration
            if values[0] in self.names:
                raise ResolutionError(f"duplicate identifier {values[0]!r}")
            self.names[values[0]] = kind
            if word == "space":
                self.spaces[values[0]] = values[1]
        self.end()
        return node(*values, self.lineno)

    def kernel_level(self) -> int:
        return self.level() if self.keyword("delta", "borel") == "delta" else 1

    def flag(self) -> bool:
        return True  # its lead word is there


def _statement_steps(node, steps) -> tuple:
    """An ast.STATEMENT_FORMS entry as (node, steps, the fields' defaults), each step
    ((reader, token) per lead word, its field's position in the class, its reader, may be absent)."""
    cls = node if isinstance(node, type) else next(iter(node.values()))
    compiled = []
    for text, field, kind, absent in steps:
        lead = tuple([(_LineParser.keyword if w.isidentifier() else _LineParser.take, w) for w in text.split()])
        read = partial(_LineParser.expr, kind=kind) if kind in _READS else kind and getattr(_LineParser, kind)
        compiled.append((lead, field and cls._fields.index(field), read, absent))
    defaults = cls.__init__.__defaults__  # of the fields that may be absent, then of the line
    return node, tuple(compiled), (None,) * (len(cls._fields) - len(defaults)) + defaults[:-1]


# keyword -> its compiled entry; each first keyword -> the second keywords that may follow it
_STATEMENTS = {word: _statement_steps(*form) for word, form in ast.STATEMENT_FORMS.items()}
_STATEMENT_WORDS = {first: tuple(w.split()[1] for w in _STATEMENTS if w.startswith(first + " "))
                    for first in (word.split()[0] for word in _STATEMENTS)}
_FIRST_WORDS = tuple(_STATEMENT_WORDS)


def _parse_line(text: str, read, spaces: dict):
    """read's value from text, a line with nothing else on it."""
    lp = _LineParser(_lex_line(text, 1), 1, spaces, {})
    value = read(lp)
    lp.end()
    return value


def parse_schedule(text: str):
    """Parse a bare schedule clause, e.g. "bounded delta 2"."""
    return _parse_line(text, _LineParser.schedule, {})


def parse_space(text: str, spaces: dict) -> ast.SpaceExpr:
    """Parse a bare space value, e.g. "prod(X, reals)"; spaces maps each name to its value."""
    return _parse_line(text, _LineParser.space_expr, spaces)


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


def parse(text: str) -> tuple[ast.Program, Env]:
    """Full front end: parse, resolve, and carrier-check a program."""
    program = parse_program(text)
    env = bind(program)
    return program, env
