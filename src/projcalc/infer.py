"""Bottom-up class and level inference over bound expressions.

Every judgment comes with a derivation with shared subproofs: an engine
infers each declared or let-bound name once, and every later use of the
name reuses the same derivation object.  At each node the engine
applies the sharpest applicable rule for that constructor (the one genuine
two-rule node is composition, where an inner level-1 function upgrades
F-COMP to F-COMP-B).  All results are upper bounds by construction; nothing
here claims minimality.

Determinacy gating: F-INT and F-EPS always need ZFC_PD; F-SELECT needs it
beyond stage 0; S-WR needs it beyond level 1.  A gated step in plain ZFC
raises AxiomRequiredError naming the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ast
from .derivation import (
    ZFC,
    ZFC_PD,
    Derivation,
    Judgment,
    class_judgment,
    level_judgment,
    node,
)
from .errors import (
    AxiomRequiredError,
    LevelOverflowError,
    SignAnnotationMissingError,
    UnboundedScheduleError,
    depth_limited,
)
from .formatter import format_func, format_schedule, format_set, format_space, format_statement
from .pointclass import (
    Kind,
    PointClass,
    complement_class,
    delta,
    delta_lift,
    join,
    leq,
    pi,
    product_class,
    projection_class,
    schedule_bound,
    sigma,
    sigma_lift,
)
from .rules import UM_REFUSAL
from .sema import Env, is_nonneg, set_carrier


@dataclass(frozen=True)
class FuncLevel:
    """Measurability level delta(level)."""

    level: int

    def __str__(self) -> str:
        return f"delta {self.level}"


@dataclass(frozen=True)
class Certificate:
    subject: str
    conclusion: str
    mode: str
    derivation: Derivation
    note: str = ""


@dataclass(frozen=True)
class Refusal:
    subject: str
    reason: str
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in (ZFC, ZFC_PD):
        raise ValueError(f"unknown axiom mode {mode!r}")


class Engine:
    """One inference run over one environment and axiom mode.

    Each set, function and kernel name is inferred once per engine, and
    every later use of it, in any expression the engine is given, shares
    that derivation.  Each node's subject is spelled from the subjects the
    engine already rendered for the node's children.
    """

    def __init__(self, env: Env, mode: str):
        _check_mode(mode)
        self.env = env
        self.mode = mode
        # name -> (class or level, derivation) of every set, function and
        # kernel inferred so far; sets, functions and kernels share one
        # namespace
        self.named: dict[str, tuple] = {}
        # id(expr) -> (expr, subject) of every expression rendered so far:
        # the formatter's memo, keyed by identity since hashing a frozen
        # AST node walks its whole subtree
        self.texts: dict[int, tuple] = {}

    def _set_text(self, e: ast.SetExpr) -> str:
        """e's subject, spelled from its children's and recorded for its parent's."""
        text = format_set(e, self.texts)
        self.texts[id(e)] = e, text
        return text

    def _func_text(self, e: ast.FuncExpr) -> str:
        """As ``_set_text``, for a function expression."""
        text = format_func(e, self.texts)
        self.texts[id(e)] = e, text
        return text

    # -- node builders

    def _set_node(self, rule: str, premises, expr_text: str, cls: PointClass) -> Derivation:
        return node(rule, tuple(premises), expr_text, class_judgment(cls), self.mode)

    def _func_node(self, rule: str, premises, expr_text: str, level: int) -> Derivation:
        return node(rule, tuple(premises), expr_text, level_judgment(level), self.mode)

    def _sched_leaf(self, schedule) -> Derivation:
        bound = schedule_bound(schedule)  # raises UnboundedScheduleError
        return node("SCHED", (), f"levels {format_schedule(schedule)}", class_judgment(bound), self.mode)

    # -- sets

    def set_class(self, e: ast.SetExpr) -> tuple[PointClass, Derivation]:
        if isinstance(e, ast.NamedSet):
            # memoized inline: a helper method here would double the
            # frames per nesting level
            hit = self.named.get(e.name)
            if hit is None:
                entry = self.env.set_entry(e.name)
                if entry.expr is not None:
                    hit = self.set_class(entry.expr)
                else:
                    hit = entry.cls, self._set_node("DECL", (), e.name, entry.cls)
                self.named[e.name] = hit
            return hit
        if isinstance(e, ast.Complement):
            c, d = self.set_class(e.operand)
            out = complement_class(c)
            return out, self._set_node("S-COMPL", [d], self._set_text(e), out)
        if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
            rule = "S-CU" if isinstance(e, ast.FiniteUnion) else "S-CI"
            # no comprehension here: it would add a frame per nesting level
            out, premises = None, []
            for m in e.members:
                c, d = self.set_class(m)
                out = c if out is None else join(out, c)
                premises.append(d)
            return out, self._set_node(rule, premises, self._set_text(e), out)
        if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
            rule = "S-CU" if isinstance(e, ast.CountableUnion) else "S-CI"
            leaf = self._sched_leaf(e.schedule)
            out = leaf.conclusion.judgment.cls
            return out, self._set_node(rule, [leaf], self._set_text(e), out)
        if isinstance(e, ast.Product):
            (a, da), (b, db) = self.set_class(e.left), self.set_class(e.right)
            out = product_class(a, b)
            return out, self._set_node("S-PROD", [da, db], self._set_text(e), out)
        if isinstance(e, ast.Projection):
            c, d = self.set_class(e.operand)
            out = projection_class(c)
            return out, self._set_node("S-PROJ", [d], self._set_text(e), out)
        if isinstance(e, ast.BorelImage):
            # the image rule wants the bare level-1 declaration, not an
            # F-DOM lift; a partial domain restricts the operand instead
            entry = self.env.func_entry(e.func)
            leaf = self._func_node("DECL", (), e.func, entry.annot.level)
            c, d = self.set_class(e.operand)
            if entry.domain_set is not None:
                dc, dd = self.set_class(ast.NamedSet(entry.domain_set))
                c = join(c, dc)
                text = f"inter({format_set(e.operand, self.texts)}, {entry.domain_set})"
                d = self._set_node("S-CI", [d, dd], text, c)
            out = projection_class(c)
            return out, self._set_node("S-BIMG", [leaf, d], self._set_text(e), out)
        if isinstance(e, ast.Preimage):
            return self._preimage(e)
        if isinstance(e, ast.Section):
            c, d = self.set_class(e.operand)
            return c, self._set_node("S-BPRE", [d], self._set_text(e), c)
        if isinstance(e, ast.Graph):
            fl, fd = self.func_level(e.func)
            out = delta(fl.level + 1)
            return out, self._set_node("F-GRAPH", [fd], self._set_text(e), out)
        if isinstance(e, ast.Sublevel):
            fl, fd = self.func_level(e.func)
            out = delta(fl.level)
            return out, self._set_node("S-SUBLEV", [fd], self._set_text(e), out)
        if isinstance(e, ast.MeasureThreshold):
            c, d = self.set_class(e.operand)
            out = sigma_lift(c)
            if out.level >= 2 and self.mode != ZFC_PD:
                raise AxiomRequiredError("S-WR", f"threshold sets above level 1 (here {out})")
            return out, self._set_node("S-WR", [d], self._set_text(e), out)
        raise TypeError(f"not a set expression: {e!r}")

    def _preimage(self, e: ast.Preimage) -> tuple[PointClass, Derivation]:
        fl, fd = self.func_level(e.func)
        c, d = self.set_class(e.operand)
        text = self._set_text(e)
        if fl.level == 1:
            return c, self._set_node("S-BPRE", [fd, d], text, c)
        if c.kind is Kind.DELTA:
            out = delta(fl.level + c.level)
            return out, self._set_node("F-PRE-Δ", [fd, d], text, out)
        if c.kind is Kind.SIGMA:
            out = sigma(c.level + fl.level - 1)
            return out, self._set_node("F-PRE-Σ", [fd, d], text, out)
        # pi target: complement, pull back the sigma side, complement again
        func, operand = format_func(e.func, self.texts), format_set(e.operand, self.texts)
        flip = self._set_node("S-COMPL", [d], f"compl({operand})", complement_class(c))
        pulled = sigma(c.level + fl.level - 1)
        inner = self._set_node("F-PRE-Σ", [fd, flip], f"pre[{func}](compl({operand}))", pulled)
        out = complement_class(pulled)
        return out, self._set_node("S-COMPL", [inner], text, out)

    # -- functions

    def func_level(self, e: ast.FuncExpr) -> tuple[FuncLevel, Derivation]:
        if isinstance(e, ast.NamedFunc):
            hit = self.named.get(e.name)
            if hit is None:
                entry = self.env.func_entry(e.name)
                if entry.expr is not None:
                    hit = self.func_level(entry.expr)
                else:
                    lvl = entry.annot.level
                    leaf = self._func_node("DECL", (), e.name, lvl)
                    hit = FuncLevel(lvl), leaf
                    if entry.domain_set is not None:
                        dc, dd = self.set_class(ast.NamedSet(entry.domain_set))
                        lvl = max(lvl, delta_lift(dc).level)
                        hit = FuncLevel(lvl), self._func_node("F-DOM", [leaf, dd], e.name, lvl)
                self.named[e.name] = hit
            return hit
        if isinstance(e, ast.PairFunc):
            (l, dl), (r, dr) = self.func_level(e.left), self.func_level(e.right)
            lvl = max(l.level, r.level)
            return FuncLevel(lvl), self._func_node("F-PAIR", [dl, dr], self._func_text(e), lvl)
        if isinstance(e, ast.CylinderExtend):
            fl, fd = self.func_level(e.func)
            return FuncLevel(fl.level), self._func_node("F-CYL", [fd], self._func_text(e), fl.level)
        if isinstance(e, ast.Compose):
            (o, do), (i, di) = self.func_level(e.outer), self.func_level(e.inner)
            if i.level == 1:
                # inner Borel: preimages of the outer function's targets
                # pull back without cost
                return FuncLevel(o.level), self._func_node(
                    "F-COMP-B", [do, di], self._func_text(e), o.level
                )
            lvl = o.level + i.level
            return FuncLevel(lvl), self._func_node("F-COMP", [do, di], self._func_text(e), lvl)
        if isinstance(e, ast.SectionOf):
            fl, fd = self.func_level(e.func)
            lvl = fl.level + 1
            return FuncLevel(lvl), self._func_node("F-SECT", [fd], self._func_text(e), lvl)
        if isinstance(e, (ast.Sum, ast.Neg, ast.ProdOp, ast.MinOp, ast.MaxOp, ast.InnerProduct)):
            # no comprehension here: it would add a frame per nesting level
            if isinstance(e, ast.Neg):
                pairs = [self.func_level(e.operand)]
            else:
                pairs = [self.func_level(e.left), self.func_level(e.right)]
            lvl = max(fl.level for fl, _ in pairs)
            premises = [d for _, d in pairs]
            return FuncLevel(lvl), self._func_node("F-ARITH", premises, self._func_text(e), lvl)
        if isinstance(e, ast.Power):
            if not is_nonneg(e.operand, self.env):
                raise SignAnnotationMissingError(
                    f"pow({format_func(e.operand)}, {e.exponent}): operand needs a nonneg annotation"
                )
            fl, fd = self.func_level(e.operand)
            return FuncLevel(fl.level), self._func_node(
                "F-ARITH", [fd], self._func_text(e), fl.level
            )
        if isinstance(e, (ast.CountableSup, ast.CountableInf)):
            rule = "F-CSUP" if isinstance(e, ast.CountableSup) else "F-CINF"
            leaf = self._sched_leaf(e.schedule)
            lvl = delta_lift(leaf.conclusion.judgment.cls).level
            return FuncLevel(lvl), self._func_node(rule, [leaf], self._func_text(e), lvl)
        if isinstance(e, (ast.PartialInf, ast.PartialSup)):
            fl, fd = self.func_level(e.func)
            dc, dd = self.set_class(e.dom)
            lvl = max(fl.level, delta_lift(dc).level) + 1
            return FuncLevel(lvl), self._func_node("F-PARTIAL", [fd, dd], self._func_text(e), lvl)
        if isinstance(e, ast.IntegralKernel):
            fl, fd = self.func_level(e.func)
            hit = self.named.get(e.kernel)
            if hit is None:
                kentry = self.env.kernel_entry(e.kernel)
                hit = self.named[e.kernel] = kentry.level, self._func_node("DECL", (), e.kernel, kentry.level)
            if self.mode != ZFC_PD:
                raise AxiomRequiredError("F-INT", "kernel integration is determinacy-gated")
            klevel, kleaf = hit
            lvl = fl.level + klevel + 2
            return FuncLevel(lvl), self._func_node("F-INT", [fd, kleaf], self._func_text(e), lvl)
        if isinstance(e, ast.Select):
            cert = self._select(e)
            lvl = cert.derivation.conclusion.judgment.level
            return FuncLevel(lvl), cert.derivation
        if isinstance(e, ast.EpsSelector):
            cert = self._eps_select(e)
            lvl = cert.derivation.conclusion.judgment.level
            return FuncLevel(lvl), cert.derivation
        if isinstance(e, ast.FromGraph):
            gc, gd = self.set_class(e.graph)
            dc, dd = self.set_class(e.dom)
            lvl = max(delta_lift(gc).level, delta_lift(dc).level) + 1
            return FuncLevel(lvl), self._func_node("F-UNGRAPH", [gd, dd], self._func_text(e), lvl)
        raise TypeError(f"not a function expression: {e!r}")

    # -- selection chains

    def _uniformize(self, d: Derivation, operand_text: str, subject: str) -> Derivation:
        """F-UNGRAPH over a selector's graph (F-SELECT) and domain (S-PROJ)."""
        c = d.conclusion.judgment.cls
        # the least stage m with c <= pi(2m+1) is t // 2, for t the least k
        # with c <= pi(k)
        m = (c.level + 1 if c.kind is Kind.SIGMA else c.level) // 2
        if m >= 1 and self.mode != ZFC_PD:
            raise AxiomRequiredError(
                "F-SELECT", f"selection for {c} needs stage m={m}; only stage 0 is available outright"
            )
        graph_cls = pi(2 * m + 1)
        sel = self._set_node("F-SELECT", [d], f"graph({subject})", graph_cls)
        dom_cls = projection_class(c)
        dom = self._set_node("S-PROJ", [d], f"proj[1]({operand_text})", dom_cls)
        lvl = max(delta_lift(graph_cls).level, delta_lift(dom_cls).level) + 1
        return self._func_node("F-UNGRAPH", [sel, dom], subject, lvl)

    def _select(self, e: ast.Select) -> Certificate:
        d = self.set_class(e.operand)[1]
        subject = self._func_text(e)
        root = self._uniformize(d, format_set(e.operand, self.texts), subject)
        lvl = root.conclusion.judgment.level
        return Certificate(subject, f"level delta {lvl}", self.mode, root, note="derived bound")

    def _eps_select(self, e: ast.EpsSelector) -> Certificate:
        if self.mode != ZFC_PD:
            raise AxiomRequiredError("F-EPS", "eps-optimal selection is determinacy-gated")
        fl, fd = self.func_level(e.func)
        dc, dd = self.set_class(e.dom)
        subject = self._func_text(e)
        q = max(fl.level, delta_lift(dc).level)
        space = set_carrier(e.dom, self.env)
        inf_side = e.direction == "inf"

        # the sectionwise optimum and its cylinder back over the product
        ext_expr = (ast.PartialInf if inf_side else ast.PartialSup)(e.func, e.dom)
        ext = self._func_text(ext_expr)
        fstar = self._func_node("F-PARTIAL", [fd, dd], ext, q + 1)
        cyl_expr = ast.CylinderExtend(ext_expr, space.right)
        cyl = self._func_node("F-CYL", [fstar], self._func_text(cyl_expr), q + 1)
        gap_expr = ast.Sum(e.func, ast.Neg(cyl_expr))
        gap = self._func_node("F-ARITH", [fd, cyl], self._func_text(gap_expr), max(fl.level, q + 1))

        # near-optimal band and the escape band for an infinite optimum
        cmp_op = "<" if inf_side else ">"
        band1 = self._set_node(
            "S-SUBLEV", [gap],
            format_set(ast.Sublevel(gap_expr, cmp_op, e.eps if inf_side else -e.eps), self.texts),
            delta(max(fl.level, q + 1)),
        )
        far_bound = -1 / e.eps if inf_side else 1 / e.eps
        band2 = self._set_node(
            "S-SUBLEV", [fd],
            format_set(ast.Sublevel(e.func, cmp_op, Fraction(far_bound)), self.texts),
            delta(fl.level),
        )
        finite_side = self._set_node(
            "S-SUBLEV", [fstar], f"prod(finite({ext}), {format_space(space.right)})",
            delta(q + 1),
        )
        infinite_side = self._set_node(
            "S-SUBLEV", [fstar], f"prod(infinite({ext}), {format_space(space.right)})",
            delta(q + 1),
        )
        dom = format_set(e.dom, self.texts)
        a1 = self._set_node("S-CI", [dd, band1], f"inter({dom}, near-optimal band)",
                            join(dc, delta(max(fl.level, q + 1))))
        a2 = self._set_node("S-CI", [dd, band2], f"inter({dom}, escape band)",
                            join(dc, delta(fl.level)))
        g1 = self._set_node("S-CI", [a1, finite_side], "near-optimal branch",
                            join(a1.conclusion.judgment.cls, delta(q + 1)))
        g2 = self._set_node("S-CI", [a2, infinite_side], "escape branch",
                            join(a2.conclusion.judgment.cls, delta(q + 1)))
        target = self._set_node("S-CU", [g1, g2], "eps-selection target",
                                join(g1.conclusion.judgment.cls, g2.conclusion.judgment.cls))

        # uniformize the target and read the level off the graph and domain
        un = self._uniformize(target, "eps-selection target", subject)
        lvl = un.conclusion.judgment.level
        root = self._func_node("F-EPS", [un], subject, lvl)
        return Certificate(subject, f"level delta {lvl}", self.mode, root, note="derived bound")


@depth_limited
def infer_set(e: ast.SetExpr, env: Env, mode: str = ZFC) -> tuple[PointClass, Derivation]:
    return Engine(env, mode).set_class(e)


@depth_limited
def infer_func(e: ast.FuncExpr, env: Env, mode: str = ZFC) -> tuple[FuncLevel, Derivation]:
    return Engine(env, mode).func_level(e)


def select_certificate(operand: ast.SetExpr, env: Env, mode: str = ZFC) -> Certificate:
    return Engine(env, mode)._select(ast.Select(operand))


def eps_selector_certificate(
    dom: ast.SetExpr,
    func: ast.FuncExpr,
    eps: Fraction,
    direction: str,
    env: Env,
    mode: str = ZFC,
) -> Certificate:
    if direction not in ("inf", "sup"):
        raise ValueError(f"direction must be 'inf' or 'sup', got {direction!r}")
    if isinstance(eps, float):
        raise TypeError(f"eps must be exact (int or Fraction), got {eps!r}")
    return Engine(env, mode)._eps_select(ast.EpsSelector(dom, func, Fraction(eps), direction))


@dataclass(frozen=True)
class AssertionResult:
    line: int
    text: str
    ok: bool
    detail: str
    derivation: Derivation | None = None


@depth_limited
def evaluate_assertions(
    program: ast.Program, env: Env, mode: str = ZFC, engine: Engine | None = None
) -> list[AssertionResult]:
    """Run every assert statement; axiom gates count as failures, not crashes.

    ``engine``, built over the same env and mode, lets the assertions share
    the names it has already inferred; a fresh engine is used without it.
    """
    eng = Engine(env, mode) if engine is None else engine
    results: list[AssertionResult] = []
    for stmt in program.assertions:
        text = format_statement(stmt)
        try:
            if isinstance(stmt, ast.AssertClass):
                got, d = eng.set_class(stmt.expr)
                if stmt.op == "<=":
                    ok = leq(got, stmt.cls)
                else:
                    ok = got == stmt.cls
                detail = f"inferred {got}"
            elif isinstance(stmt, ast.AssertLevel):
                fl, d = eng.func_level(stmt.expr)
                ok = fl.level <= stmt.level if stmt.op == "<=" else fl.level == stmt.level
                detail = f"inferred delta {fl.level}"
            elif isinstance(stmt, ast.AssertUM):
                if stmt.name in env.sets:
                    got_cls, d = eng.set_class(ast.NamedSet(stmt.name))
                    verdict = universal_measurability(got_cls, mode)
                else:
                    fl, d = eng.func_level(ast.NamedFunc(stmt.name))
                    verdict = universal_measurability(fl, mode)
                if isinstance(verdict, Refusal):
                    results.append(AssertionResult(stmt.line, text, False, verdict.reason, d))
                    continue
                ok = True
                detail = verdict.conclusion
                d = verdict.derivation
            else:
                raise TypeError(f"unknown assertion {stmt!r}")
        except (
            AxiomRequiredError,
            LevelOverflowError,
            SignAnnotationMissingError,
            UnboundedScheduleError,
        ) as exc:
            results.append(AssertionResult(stmt.line, text, False, str(exc), None))
            continue
        results.append(AssertionResult(stmt.line, text, ok, detail, d))
    return results


def universal_measurability(subject: PointClass | FuncLevel, mode: str = ZFC) -> Certificate | Refusal:
    """Certificate that a class or level is universally measurable, or a refusal.

    Level 1 goes through outright; higher levels need ZFC_PD.  The refusal
    is a value, not an exception.
    """
    _check_mode(mode)
    text = str(subject)
    if subject.level >= 2 and mode != ZFC_PD:
        return Refusal(text, UM_REFUSAL, mode)
    d = node("P-UM", (), text, Judgment("prop", text=f"universally measurable: {text}"), mode)
    return Certificate(text, "universally measurable", mode, d)
