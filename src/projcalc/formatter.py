"""Canonical text rendering of programs and expressions.

parse(format(p)) == p for every well-formed program: keywords come out
lowercase, spacing is fixed, space declarations keep their names but later
references are printed structurally (names are resolved at parse time).
"""

from __future__ import annotations

from fractions import Fraction

from . import ast
from .pointclass import (
    BoundedBy,
    ConstantClass,
    ExplicitList,
    LevelSchedule,
    PointClass,
    Unbounded,
)


def format_space(s: ast.SpaceExpr) -> str:
    if isinstance(s, ast.Reals):
        return "reals"
    if isinstance(s, ast.Naturals):
        return "nat"
    if isinstance(s, ast.Baire):
        return "baire"
    if isinstance(s, ast.Cantor):
        return "cantor"
    if isinstance(s, ast.XRealLine):
        return "xreal"
    if isinstance(s, ast.ProductSpace):
        return f"prod({format_space(s.left)}, {format_space(s.right)})"
    if isinstance(s, ast.MeasureSpace):
        return f"measures({format_space(s.inner)})"
    raise TypeError(f"not a space: {s!r}")


def format_class(c: PointClass) -> str:
    return str(c)


def format_rational(q: Fraction) -> str:
    return str(q)


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


def _axis(axis: ast.Axis, at: str | None = None) -> str:
    inner = str(axis)
    if at is not None:
        inner += f" @ {at}"
    return f"[{inner}]"


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
    if isinstance(e, ast.Complement):
        return f"compl({format_set(e.operand, memo)})"
    if isinstance(e, ast.FiniteUnion):
        return "union(" + ", ".join(format_set(m, memo) for m in e.members) + ")"
    if isinstance(e, ast.FiniteIntersection):
        return "inter(" + ", ".join(format_set(m, memo) for m in e.members) + ")"
    if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
        word = "union" if isinstance(e, ast.CountableUnion) else "inter"
        carrier = f" in {format_space(e.carrier)}" if e.carrier is not None else ""
        return (
            f"{word} {e.index} in nat of {e.base}_{e.index}{carrier} "
            f"with levels {format_schedule(e.schedule)}"
        )
    if isinstance(e, ast.Product):
        return f"prod({format_set(e.left, memo)}, {format_set(e.right, memo)})"
    if isinstance(e, ast.Projection):
        return f"proj{_axis(e.axis)}({format_set(e.operand, memo)})"
    if isinstance(e, ast.BorelImage):
        return f"img[{e.func}]({format_set(e.operand, memo)})"
    if isinstance(e, ast.Preimage):
        return f"pre[{format_func(e.func, memo)}]({format_set(e.operand, memo)})"
    if isinstance(e, ast.Section):
        return f"section{_axis(e.axis, e.at)}({format_set(e.operand, memo)})"
    if isinstance(e, ast.Graph):
        return f"graph({format_func(e.func, memo)})"
    if isinstance(e, ast.Sublevel):
        return f"sublevel({format_func(e.func, memo)}, {e.op}, {format_rational(e.bound)})"
    if isinstance(e, ast.MeasureThreshold):
        return f"measure_ge({format_set(e.operand, memo)}, {format_rational(e.threshold)})"
    raise TypeError(f"not a set expression: {e!r}")


def format_func(e: ast.FuncExpr, memo: dict | None = None) -> str:
    """Canonical text of a function expression; ``memo`` as in ``format_set``."""
    if isinstance(e, ast.NamedFunc):
        return e.name
    if memo is not None:
        hit = memo.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
    if isinstance(e, ast.PairFunc):
        return f"pair({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.CylinderExtend):
        return f"cyl[{format_space(e.factor)}]({format_func(e.func, memo)})"
    if isinstance(e, ast.Compose):
        return f"compose({format_func(e.outer, memo)}, {format_func(e.inner, memo)})"
    if isinstance(e, ast.SectionOf):
        return f"fsection{_axis(e.axis, e.at)}({format_func(e.func, memo)})"
    if isinstance(e, ast.Sum):
        return f"add({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.Neg):
        return f"neg({format_func(e.operand, memo)})"
    if isinstance(e, ast.ProdOp):
        return f"mul({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.MinOp):
        return f"min({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.MaxOp):
        return f"max({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.InnerProduct):
        return f"inner({format_func(e.left, memo)}, {format_func(e.right, memo)})"
    if isinstance(e, ast.Power):
        return f"pow({format_func(e.operand, memo)}, {format_rational(e.exponent)})"
    if isinstance(e, (ast.CountableSup, ast.CountableInf)):
        word = "sup" if isinstance(e, ast.CountableSup) else "inf"
        carrier = f" in {format_space(e.carrier)}" if e.carrier is not None else ""
        return (
            f"{word} {e.index} in nat of {e.base}_{e.index}{carrier} "
            f"with levels {format_schedule(e.schedule)}"
        )
    if isinstance(e, ast.PartialInf):
        return f"inf_over({format_func(e.func, memo)}, {format_set(e.dom, memo)})"
    if isinstance(e, ast.PartialSup):
        return f"sup_over({format_func(e.func, memo)}, {format_set(e.dom, memo)})"
    if isinstance(e, ast.IntegralKernel):
        return f"integral({format_func(e.func, memo)}, {e.kernel})"
    if isinstance(e, ast.Select):
        return f"select({format_set(e.operand, memo)})"
    if isinstance(e, ast.EpsSelector):
        word = "eps_inf" if e.direction == "inf" else "eps_sup"
        dom, func = format_set(e.dom, memo), format_func(e.func, memo)
        return f"{word}({dom}, {func}, {format_rational(e.eps)})"
    if isinstance(e, ast.FromGraph):
        return f"from_graph({format_set(e.graph, memo)}, {format_set(e.dom, memo)})"
    raise TypeError(f"not a function expression: {e!r}")


def format_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.SpaceDecl):
        return f"space {stmt.name} = {format_space(stmt.space)}"
    if isinstance(stmt, ast.SetDecl):
        return f"set {stmt.name} in {format_space(stmt.space)} : {format_class(stmt.cls)}"
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
        return f"assert class({format_set(stmt.expr)}) {stmt.op} {format_class(stmt.cls)}"
    if isinstance(stmt, ast.AssertLevel):
        return f"assert level({format_func(stmt.expr)}) {stmt.op} delta {stmt.level}"
    if isinstance(stmt, ast.AssertUM):
        return f"assert um({stmt.name})"
    raise TypeError(f"not a statement: {stmt!r}")


def format_program(program: ast.Program) -> str:
    return "\n".join(format_statement(s) for s in program.statements) + "\n"
