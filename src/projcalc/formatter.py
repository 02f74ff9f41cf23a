"""Canonical text rendering of programs and expressions.

parse(format(p)) == p for every well-formed program: keywords come out
lowercase, spacing is fixed, space declarations keep their names but later
references are printed structurally (names are resolved at parse time).
Keyword forms and statements are written from the tables in ast, whose
entries also declare the node classes, so a new constructor or statement is
one table entry plus its rules; the parser and ast.children read the tables
too.  Only the irregular forms (union/inter, countable families, eps_*) are
spelled here, and a new one is also named in ast.children.  pieces() gives
one node's text with its subexpressions left in place, and write() expands
such pieces on an explicit stack, appending each token to one list, so an
expression's text costs time linear in its length at any depth, and a space
value's from space_pieces() the same way.  The inference engine spells
each node with spell(), a short reference in place of each subexpression.
"""

from __future__ import annotations

from . import ast
from .pointclass import BoundedBy, ConstantClass, ExplicitList, LevelSchedule, Unbounded

# node class -> (keyword, slot steps) for the forms of ast.SET_FORMS/FUNC_FORMS
_BY_CLASS = {c: (w, steps) for w, (c, steps) in (*ast.SET_FORMS.items(), *ast.FUNC_FORMS.items())}
_LISTS = {finite: w for w, (finite, _) in ast.FAMILIES.items() if finite is not None}
_FAMILIES = {countable: w for w, (_, countable) in ast.FAMILIES.items()}
_ATOM_NAMES = {c: w for w, c in ast.SPACE_ATOMS.items()}
_SPACE_WORDS = {c: w for w, (c, _) in ast.SPACE_FORMS.items()}


def space_pieces(s: ast.SpaceExpr) -> list:
    """s's text as strings and, in ast.space_children order, its factors."""
    name = _ATOM_NAMES.get(type(s))
    return [name] if name is not None else _applied(_SPACE_WORDS[type(s)], ast.space_children(s))


def format_space(s: ast.SpaceExpr) -> str:
    name = _ATOM_NAMES.get(type(s))
    return name if name is not None else write((s,), space_pieces)


def format_schedule(s: LevelSchedule) -> str:
    if isinstance(s, BoundedBy):
        return f"bounded {s.bound}"
    if isinstance(s, ConstantClass):
        return f"constant {s.cls}"
    if isinstance(s, ExplicitList):
        return "from [" + ", ".join(str(c) for c in s.classes) + "]"
    if isinstance(s, Unbounded):
        return f'unbounded "{s.witness}"'
    raise TypeError(f"not a schedule: {s!r}")


def pieces(e) -> list:
    """e's text as strings and, in ast.children order, its subexpressions."""
    if type(e) is ast.NamedSet or type(e) is ast.NamedFunc:
        return [e.name]
    form = _BY_CLASS.get(type(e))
    if form is not None:
        word, steps = form
        out = [word]
        for lead, name, kind in steps:
            if kind == "set_expr" or kind == "func_expr":
                out += lead, getattr(e, name)
            elif kind == "space_expr":
                out.append(lead + format_space(getattr(e, name)))
            elif kind == "point" and e.at is not None:
                out.append(f"{lead}{e.axis} @ {e.at}")
            else:
                out.append(lead + str(getattr(e, name)))
        out.append(")")
        return out
    word = _LISTS.get(type(e))
    if word is not None:
        return _applied(word, e.members)
    if isinstance(e, ast.EpsSelector):
        return [f"eps_{e.direction}(", e.dom, ", ", e.func, f", {e.eps})"]
    word = _FAMILIES.get(type(e))
    if word is not None:
        carrier = f" in {format_space(e.carrier)}" if e.carrier is not None else ""
        levels = format_schedule(e.schedule)
        return [f"{word} {e.index} in nat of {e.base}_{e.index}{carrier} with levels {levels}"]
    raise TypeError(f"not a set or function expression: {e!r}")


def _applied(word: str, args) -> list:
    """The pieces of word(arg, ..., arg)."""
    out = [word + "("]
    for arg in args:
        out += arg, ", "
    if args:
        out.pop()
    out.append(")")
    return out


def spell(e, parts) -> str:
    """e's text with parts[i] written in place of its i-th subexpression."""
    rest = iter(parts)
    return "".join([p if type(p) is str else next(rest) for p in pieces(e)])


def write(top, pieces_of) -> str:
    """The text of the pieces top, each string as it is and each other
    piece x replaced by the text of the pieces pieces_of(x), on a stack of
    iterators rather than interpreter frames."""
    out: list[str] = []
    stack = [iter(top)]
    while stack:
        for p in stack[-1]:
            if type(p) is str:
                out.append(p)
            else:
                stack.append(iter(pieces_of(p)))
                break
        else:
            stack.pop()
    return "".join(out)


def format_expr(e) -> str:
    """Canonical text of a set or function expression."""
    return write((e,), pieces)


# field kind -> the writer of its value's text, if not str
_WRITE_VALUE = {"space_expr": format_space, "set_expr": format_expr, "func_expr": format_expr,
                "any_expr": format_expr, "kernel_level": "delta {}".format, "flag": lambda _: ""}

# statement class -> (keyword, (text before the field, field, writer of its value, may be absent) per step)
_STATEMENTS = {
    cls: (word, tuple([(text, field, _WRITE_VALUE.get(kind, str), absent) for text, field, kind, absent in steps]))
    for word, (node, steps) in ast.STATEMENT_FORMS.items()
    for cls in (node.values() if type(node) is dict else (node,))
}


def format_statement(stmt: ast.Statement) -> str:
    """stmt's text, written by the steps of its entry in ast.STATEMENT_FORMS."""
    if type(stmt) not in _STATEMENTS:
        raise TypeError(f"not a statement: {stmt!r}")
    word, steps = _STATEMENTS[type(stmt)]
    out = [word]
    for text, field, write_value, absent in steps:
        value = getattr(stmt, field) if field else ""  # a closing step has no field
        if value or not absent:  # a field that may be absent is written only when it is there
            out.append(text)
            out.append(write_value(value))
    return "".join(out)


def format_program(program: ast.Program) -> str:
    return "\n".join(format_statement(s) for s in program.statements) + "\n"
