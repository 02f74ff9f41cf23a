"""Canonical text rendering of programs and expressions.

parse(format(p)) == p for every well-formed program: keywords come out
lowercase, spacing is fixed, space declarations keep their names but later
references are printed structurally (names are resolved at parse time).
Keyword forms are written from the tables in ast, which the parser reads too;
only the irregular ones (union/inter, countable families, eps_*) are here.
"""

from __future__ import annotations

from . import ast
from .pointclass import BoundedBy, ConstantClass, ExplicitList, LevelSchedule, Unbounded

# node class -> (keyword, slot steps) for the forms of ast.SET_FORMS/FUNC_FORMS
_SET_BY_CLASS = {c: (w, ast.slot_steps(b, s)) for w, (c, b, s) in ast.SET_FORMS.items()}
_FUNC_BY_CLASS = {c: (w, ast.slot_steps(b, s)) for w, (c, b, s) in ast.FUNC_FORMS.items()}
_ATOM_NAMES = {c: w for w, c in ast.SPACE_ATOMS.items()}


def format_space(s: ast.SpaceExpr) -> str:
    name = _ATOM_NAMES.get(type(s))
    if name is not None:
        return name
    if isinstance(s, ast.ProductSpace):
        return f"prod({format_space(s.left)}, {format_space(s.right)})"
    if isinstance(s, ast.MeasureSpace):
        return f"measures({format_space(s.inner)})"
    raise TypeError(f"not a space: {s!r}")


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


def _family(word: str, e) -> str:
    carrier = f" in {format_space(e.carrier)}" if e.carrier is not None else ""
    return f"{word} {e.index} in nat of {e.base}_{e.index}{carrier} with levels {format_schedule(e.schedule)}"


def format_set(e: ast.SetExpr, memo: dict | None = None) -> str:
    """Canonical text of a set expression.

    ``memo`` maps ``id(node)`` to ``(node, text)`` for subexpressions a
    caller has already rendered; a hit stands for the whole subtree.  A
    caller that renders children before parents and records each text
    spells every node from its children's, in time linear in its text.
    """
    if isinstance(e, ast.NamedSet):
        return e.name
    if memo is not None:
        hit = memo.get(id(e))
        # an entry counts only for this very node: a freed node's id is reused
        if hit is not None and hit[0] is e:
            return hit[1]
    form = _SET_BY_CLASS.get(type(e))
    if form is not None:
        word, steps = form
        text = word
        # inline, not in a helper: one frame per nesting level (as format_func)
        for lead, name, kind in steps:
            value = getattr(e, name)
            if kind == "set_expr":
                text += lead + format_set(value, memo)
            elif kind == "func_expr":
                text += lead + format_func(value, memo)
            elif kind == "space_expr":
                text += lead + format_space(value)
            elif kind == "point" and e.at is not None:
                text += f"{lead}{value} @ {e.at}"
            else:
                text += lead + str(value)
        return text + ")"
    if isinstance(e, ast.FiniteUnion):
        return "union(" + ", ".join(format_set(m, memo) for m in e.members) + ")"
    if isinstance(e, ast.FiniteIntersection):
        return "inter(" + ", ".join(format_set(m, memo) for m in e.members) + ")"
    if isinstance(e, ast.CountableUnion):
        return _family("union", e)
    if isinstance(e, ast.CountableIntersection):
        return _family("inter", e)
    raise TypeError(f"not a set expression: {e!r}")


def format_func(e: ast.FuncExpr, memo: dict | None = None) -> str:
    """Canonical text of a function expression; ``memo`` as in ``format_set``."""
    if isinstance(e, ast.NamedFunc):
        return e.name
    if memo is not None:
        hit = memo.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
    form = _FUNC_BY_CLASS.get(type(e))
    if form is not None:
        word, steps = form
        text = word
        for lead, name, kind in steps:
            value = getattr(e, name)
            if kind == "set_expr":
                text += lead + format_set(value, memo)
            elif kind == "func_expr":
                text += lead + format_func(value, memo)
            elif kind == "space_expr":
                text += lead + format_space(value)
            elif kind == "point" and e.at is not None:
                text += f"{lead}{value} @ {e.at}"
            else:
                text += lead + str(value)
        return text + ")"
    if isinstance(e, ast.CountableSup):
        return _family("sup", e)
    if isinstance(e, ast.CountableInf):
        return _family("inf", e)
    if isinstance(e, ast.EpsSelector):
        word = "eps_inf" if e.direction == "inf" else "eps_sup"
        return f"{word}({format_set(e.dom, memo)}, {format_func(e.func, memo)}, {e.eps})"
    raise TypeError(f"not a function expression: {e!r}")


def format_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.SpaceDecl):
        return f"space {stmt.name} = {format_space(stmt.space)}"
    if isinstance(stmt, ast.SetDecl):
        return f"set {stmt.name} in {format_space(stmt.space)} : {stmt.cls}"
    if isinstance(stmt, ast.FuncDecl):
        on = f" on {stmt.domain_set}" if stmt.domain_set is not None else ""
        nn = " nonneg" if stmt.nonneg else ""
        return (
            f"func {stmt.name} : {format_space(stmt.dom)} -> "
            f"{format_space(stmt.cod)}{on} : {stmt.annot}{nn}"
        )
    if isinstance(stmt, ast.KernelDecl):
        return (
            f"kernel {stmt.name} : {format_space(stmt.src)} ~> "
            f"{format_space(stmt.dst)} : delta {stmt.level}"
        )
    if isinstance(stmt, ast.LetSet):
        return f"let {stmt.name} = {format_set(stmt.expr)}"
    if isinstance(stmt, ast.LetFunc):
        return f"let {stmt.name} = {format_func(stmt.expr)}"
    if isinstance(stmt, ast.AssertClass):
        return f"assert class({format_set(stmt.expr)}) {stmt.op} {stmt.cls}"
    if isinstance(stmt, ast.AssertLevel):
        return f"assert level({format_func(stmt.expr)}) {stmt.op} delta {stmt.level}"
    if isinstance(stmt, ast.AssertUM):
        return f"assert um({stmt.name})"
    raise TypeError(f"not a statement: {stmt!r}")


def format_program(program: ast.Program) -> str:
    return "\n".join(format_statement(s) for s in program.statements) + "\n"
