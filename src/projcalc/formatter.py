"""Canonical text rendering of programs and expressions.

parse(format(p)) == p for every well-formed program: keywords come out
lowercase, spacing is fixed, space declarations keep their names but later
references are printed structurally (names are resolved at parse time).
Keyword forms are written from the tables in ast, which the parser and
ast.children read too; only the irregular ones (union/inter, countable
families, eps_*) are spelled here, and a new one is also named in
ast.children.  spell() writes one node from its children's texts, so
format_expr and the inference engine, which records each node's subject as
it builds it, both walk an expression once, children first, through ast.fold.
"""

from __future__ import annotations

from . import ast
from .pointclass import BoundedBy, ConstantClass, ExplicitList, LevelSchedule, Unbounded

# node class -> (keyword, slot steps) for the forms of ast.SET_FORMS/FUNC_FORMS
_BY_CLASS = {
    c: (w, ast.slot_steps(b, s)) for w, (c, b, s) in (*ast.SET_FORMS.items(), *ast.FUNC_FORMS.items())
}
_LISTS = {finite: w for w, (finite, _) in ast.FAMILIES.items() if finite is not None}
_FAMILIES = {countable: w for w, (_, countable) in ast.FAMILIES.items()}
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


def spell(e, parts) -> str:
    """Canonical text of e, given the texts of its children (ast.children order)."""
    if type(e) is ast.NamedSet or type(e) is ast.NamedFunc:
        return e.name
    form = _BY_CLASS.get(type(e))
    if form is not None:
        word, steps = form
        text, i = word, 0
        for lead, name, kind in steps:
            if kind == "set_expr" or kind == "func_expr":
                text += lead + parts[i]
                i += 1
            elif kind == "space_expr":
                text += lead + format_space(getattr(e, name))
            elif kind == "point" and e.at is not None:
                text += f"{lead}{e.axis} @ {e.at}"
            else:
                text += lead + str(getattr(e, name))
        return text + ")"
    word = _LISTS.get(type(e))
    if word is not None:
        return word + "(" + ", ".join(parts) + ")"
    if isinstance(e, ast.EpsSelector):
        return f"eps_{e.direction}({parts[0]}, {parts[1]}, {e.eps})"
    word = _FAMILIES.get(type(e))
    if word is not None:
        carrier = f" in {format_space(e.carrier)}" if e.carrier is not None else ""
        levels = format_schedule(e.schedule)
        return f"{word} {e.index} in nat of {e.base}_{e.index}{carrier} with levels {levels}"
    raise TypeError(f"not a set or function expression: {e!r}")


def format_expr(e) -> str:
    """Canonical text of a set or function expression."""
    return ast.fold(e, spell)


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
    if isinstance(stmt, (ast.LetSet, ast.LetFunc)):
        return f"let {stmt.name} = {format_expr(stmt.expr)}"
    if isinstance(stmt, ast.AssertClass):
        return f"assert class({format_expr(stmt.expr)}) {stmt.op} {stmt.cls}"
    if isinstance(stmt, ast.AssertLevel):
        return f"assert level({format_expr(stmt.expr)}) {stmt.op} delta {stmt.level}"
    if isinstance(stmt, ast.AssertUM):
        return f"assert um({stmt.name})"
    raise TypeError(f"not a statement: {stmt!r}")


def format_program(program: ast.Program) -> str:
    return "\n".join(format_statement(s) for s in program.statements) + "\n"
