"""Bottom-up class and level inference over bound expressions.

Every judgment comes with a derivation with shared subproofs: an engine
infers each declared or let-bound name once, and every later use of the
name reuses the same derivation object.  At each node the engine
applies the sharpest applicable rule for that constructor (the one genuine
two-rule node is composition, where an inner level-1 function upgrades
F-COMP to F-COMP-B).  All results are upper bounds by construction; nothing
here claims minimality.

Each node's subject spells only its own constructor: a name is written as
the name, and any other subexpression as the #i.j... path through the
node's premises to the row that derives it, so building a subject costs
the same at any depth.  A certificate's subject is its expression as the
formatter spells it, so the engine calls nothing of the checker's.

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
from .errors import VERDICT_ERRORS, AxiomRequiredError, SignAnnotationMissingError
from .formatter import format_expr, format_schedule, format_statement, spell
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
from .sema import Env, nonneg_rule, signature


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
    that derivation.  An expression is walked once, children first; each
    node's subject, and the sign that pow needs, are worked out from its
    children's names and signs as the node is built.
    """

    def __init__(self, env: Env, mode: str):
        _check_mode(mode)
        self.env = env
        self.mode = mode
        # name -> (class or level, derivation, name) of every set, function
        # and kernel inferred so far, in one namespace
        self.named: dict[str, tuple] = {}

    def infer(self, e) -> tuple[PointClass, Derivation]:
        """The class of set expression e, or the level delta(n) of function expression e, with its derivation."""
        value, d, _, _ = ast.fold(e, self._combine, self._enter)
        return value, d

    set_class = func_level = infer

    # -- node builders

    def _set_node(self, rule: str, premises, expr_text: str, cls: PointClass) -> Derivation:
        return node(rule, tuple(premises), expr_text, class_judgment(cls), self.mode)

    def _func_node(self, rule: str, premises, expr_text: str, level: int) -> Derivation:
        return node(rule, tuple(premises), expr_text, level_judgment(level), self.mode)

    def _sched_leaf(self, schedule) -> Derivation:
        bound = schedule_bound(schedule)  # raises UnboundedScheduleError
        return node("SCHED", (), f"levels {format_schedule(schedule)}", class_judgment(bound), self.mode)

    # -- the walk

    def _enter(self, e) -> tuple:
        """The nodes e is built from: a name not inferred yet is built from
        its let body or, for a partial function, its domain set.  Refusals
        that come before any premise are raised here."""
        if isinstance(e, ast.NamedSet):
            if e.name not in self.named:
                entry = self.env.set_entry(e.name)
                if entry.expr is not None:
                    return (entry.expr,)
            return ()
        if isinstance(e, ast.NamedFunc):
            if e.name not in self.named:
                entry = self.env.func_entry(e.name)
                if entry.expr is not None:
                    return (entry.expr,)
                if entry.domain_set is not None:
                    return (ast.NamedSet(entry.domain_set),)
            return ()
        if isinstance(e, ast.BorelImage):
            domain_set = self.env.func_entry(e.func).domain_set
            if domain_set is not None:
                return e.operand, ast.NamedSet(domain_set)
        elif isinstance(e, ast.EpsSelector):
            if self.mode != ZFC_PD:
                raise AxiomRequiredError("F-EPS", "eps-optimal selection is determinacy-gated")
            return e.func, e.dom  # in premise order
        return ast.children(e)

    def _combine(self, e, kids: list) -> tuple:
        """(class or level, derivation, name, nonneg) of e from those of the
        nodes ``_enter`` gave it.  The name is None but for a name, which
        stays a name in its parents' subjects; any other child is written
        there as the path #i.j... through the premises to its own row."""
        if isinstance(e, ast.Power) and not kids[0][3]:
            raise SignAnnotationMissingError(
                f"pow({format_expr(e.operand)}, {e.exponent}): operand needs a nonneg annotation"
            )
        return (*self._build(e, kids), nonneg_rule(self.env, e, [k[3] for k in kids]))

    def _build(self, e, kids: list) -> tuple:
        """(class or level, derivation, name) of e, as ``_combine`` describes."""
        if isinstance(e, ast.NamedSet):
            hit = self.named.get(e.name)
            if hit is None:
                if kids:
                    hit = kids[0][0], kids[0][1], e.name
                else:
                    cls = self.env.set_entry(e.name).cls
                    hit = cls, self._set_node("DECL", (), e.name, cls), e.name
                self.named[e.name] = hit
            return hit
        if isinstance(e, ast.NamedFunc):
            hit = self.named.get(e.name)
            if hit is None:
                entry = self.env.func_entry(e.name)
                if entry.expr is not None:
                    fl, d = kids[0][0], kids[0][1]
                else:
                    lvl = entry.annot.level
                    d = self._func_node("DECL", (), e.name, lvl)
                    if entry.domain_set is not None:
                        dc, dd, _, _ = kids[0]
                        lvl = max(lvl, delta_lift(dc).level)
                        d = self._func_node("F-DOM", [d, dd], e.name, lvl)
                    fl = delta(lvl)
                hit = self.named[e.name] = fl, d, e.name
            return hit
        # the i-th kid is the i-th premise, but where a case below says otherwise
        refs = [name or f"#{i}" for i, (_, _, name, _) in enumerate(kids)]
        if isinstance(e, ast.EpsSelector):
            refs.reverse()  # _enter gave (func, dom), the premise order
        # -- sets
        if isinstance(e, ast.Complement):
            c, d, _, _ = kids[0]
            return self._set(e, "S-COMPL", [d], refs, complement_class(c))
        if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
            rule = "S-CU" if isinstance(e, ast.FiniteUnion) else "S-CI"
            out = kids[0][0]
            for k in kids[1:]:
                out = join(out, k[0])
            return self._set(e, rule, [k[1] for k in kids], refs, out)
        if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
            rule = "S-CU" if isinstance(e, ast.CountableUnion) else "S-CI"
            leaf = self._sched_leaf(e.schedule)
            return self._set(e, rule, [leaf], refs, leaf.conclusion.judgment.cls)
        if isinstance(e, ast.Product):
            (a, da, _, _), (b, db, _, _) = kids
            return self._set(e, "S-PROD", [da, db], refs, product_class(a, b))
        if isinstance(e, ast.Projection):
            c, d, _, _ = kids[0]
            return self._set(e, "S-PROJ", [d], refs, projection_class(c))
        if isinstance(e, ast.BorelImage):
            # the image rule wants the bare level-1 declaration, not an
            # F-DOM lift; a partial domain restricts the operand instead
            leaf = self._func_node("DECL", (), e.func, self.env.func_entry(e.func).annot.level)
            c, d, operand, _ = kids[0]
            if len(kids) == 2:
                dc, dd, domain_set, _ = kids[1]
                c = join(c, dc)
                d = self._set_node("S-CI", [d, dd], f"inter({operand or '#0'}, {domain_set})", c)
                return self._set(e, "S-BIMG", [leaf, d], [operand or "#1.0"], projection_class(c))
            return self._set(e, "S-BIMG", [leaf, d], [operand or "#1"], projection_class(c))
        if isinstance(e, ast.Preimage):
            (fl, fd, func, _), (c, d, operand, _) = kids
            if fl.level == 1:
                return self._set(e, "S-BPRE", [fd, d], refs, c)
            if c.kind is Kind.DELTA:
                return self._set(e, "F-PRE-Δ", [fd, d], refs, delta(fl.level + c.level))
            if c.kind is Kind.SIGMA:
                return self._set(e, "F-PRE-Σ", [fd, d], refs, sigma(c.level + fl.level - 1))
            # pi target: complement, pull back the sigma side, complement again
            flip = self._set_node("S-COMPL", [d], f"compl({operand or '#0'})", complement_class(c))
            pulled = sigma(c.level + fl.level - 1)
            inner = self._set_node("F-PRE-Σ", [fd, flip], f"pre[{func or '#0'}](#1)", pulled)
            return self._set(e, "S-COMPL", [inner], [func or "#0.0", operand or "#0.1.0"], complement_class(pulled))
        if isinstance(e, ast.Section):
            c, d, _, _ = kids[0]
            return self._set(e, "S-BPRE", [d], refs, c)
        if isinstance(e, ast.Graph):
            fl, fd, _, _ = kids[0]
            return self._set(e, "F-GRAPH", [fd], refs, delta(fl.level + 1))
        if isinstance(e, ast.Sublevel):
            fl, fd, _, _ = kids[0]
            return self._set(e, "S-SUBLEV", [fd], refs, delta(fl.level))
        if isinstance(e, ast.MeasureThreshold):
            c, d, _, _ = kids[0]
            out = sigma_lift(c)
            if out.level >= 2 and self.mode != ZFC_PD:
                raise AxiomRequiredError("S-WR", f"threshold sets above level 1 (here {out})")
            return self._set(e, "S-WR", [d], refs, out)
        # -- functions
        if isinstance(e, ast.PairFunc):
            (l, dl, _, _), (r, dr, _, _) = kids
            return self._func(e, "F-PAIR", [dl, dr], refs, max(l.level, r.level))
        if isinstance(e, ast.CylinderExtend):
            fl, fd, _, _ = kids[0]
            return self._func(e, "F-CYL", [fd], refs, fl.level)
        if isinstance(e, ast.Compose):
            (o, do, _, _), (i, di, _, _) = kids
            if i.level == 1:
                # inner Borel: preimages of the outer function's targets
                # pull back without cost
                return self._func(e, "F-COMP-B", [do, di], refs, o.level)
            return self._func(e, "F-COMP", [do, di], refs, o.level + i.level)
        if isinstance(e, ast.SectionOf):
            fl, fd, _, _ = kids[0]
            return self._func(e, "F-SECT", [fd], refs, fl.level + 1)
        if isinstance(e, (ast.Sum, ast.Neg, ast.ProdOp, ast.MinOp, ast.MaxOp, ast.InnerProduct, ast.Power)):
            return self._func(e, "F-ARITH", [k[1] for k in kids], refs, max(k[0].level for k in kids))
        if isinstance(e, (ast.CountableSup, ast.CountableInf)):
            rule = "F-CSUP" if isinstance(e, ast.CountableSup) else "F-CINF"
            leaf = self._sched_leaf(e.schedule)
            return self._func(e, rule, [leaf], refs, delta_lift(leaf.conclusion.judgment.cls).level)
        if isinstance(e, (ast.PartialInf, ast.PartialSup)):
            (fl, fd, _, _), (dc, dd, _, _) = kids
            return self._func(e, "F-PARTIAL", [fd, dd], refs, max(fl.level, delta_lift(dc).level) + 1)
        if isinstance(e, ast.IntegralKernel):
            fl, fd, _, _ = kids[0]
            hit = self.named.get(e.kernel)
            if hit is None:
                klevel = self.env.kernel_entry(e.kernel).level
                kleaf = self._func_node("DECL", (), e.kernel, klevel)
                hit = self.named[e.kernel] = klevel, kleaf, e.kernel
            if self.mode != ZFC_PD:
                raise AxiomRequiredError("F-INT", "kernel integration is determinacy-gated")
            klevel, kleaf, _ = hit
            return self._func(e, "F-INT", [fd, kleaf], refs, fl.level + klevel + 2)
        if isinstance(e, ast.Select):
            c, d, operand, _ = kids[0]
            # the least stage m with c <= pi(2m+1) is t // 2, for t the least
            # k with c <= pi(k)
            m = (c.level + 1 if c.kind is Kind.SIGMA else c.level) // 2
            if m >= 1 and self.mode != ZFC_PD:
                raise AxiomRequiredError(
                    "F-SELECT", f"selection for {c} needs stage m={m}; only stage 0 is available outright"
                )
            # F-UNGRAPH over the selector's graph (F-SELECT) and domain (S-PROJ)
            graph_cls, dom_cls = pi(2 * m + 1), projection_class(c)
            ref = operand or "#0"
            sel = self._set_node("F-SELECT", [d], f"graph(select({ref}))", graph_cls)
            dom = self._set_node("S-PROJ", [d], f"proj[1]({ref})", dom_cls)
            level = max(delta_lift(graph_cls).level, delta_lift(dom_cls).level) + 1
            return self._func(e, "F-UNGRAPH", [sel, dom], [operand or "#0.0"], level)
        if isinstance(e, ast.EpsSelector):
            (fl, fd, _, _), (dc, dd, _, _) = kids
            q = max(fl.level, delta_lift(dc).level)
            # the near-optimal and escape bands around the sectionwise
            # optimum (level q+1) make a delta q+1 target; F-UNGRAPH over its
            # selector's pi 2m+1 graph and its sigma q+1 projection gives the
            # level.  Both classes are built so that a level past the cap
            # raises LevelOverflowError.
            m = delta(q + 1).level // 2
            return self._func(e, "F-EPS", [fd, dd], refs, delta(max(2 * m + 2, q + 2)).level + 1)
        if isinstance(e, ast.FromGraph):
            (gc, gd, _, _), (dc, dd, _, _) = kids
            level = max(delta_lift(gc).level, delta_lift(dc).level) + 1
            return self._func(e, "F-UNGRAPH", [gd, dd], refs, level)
        raise TypeError(f"not a set or function expression: {e!r}")

    def _set(self, e, rule: str, premises, refs, cls: PointClass) -> tuple:
        return cls, self._set_node(rule, premises, spell(e, refs), cls), None

    def _func(self, e, rule: str, premises, refs, level: int) -> tuple:
        return delta(level), self._func_node(rule, premises, spell(e, refs), level), None


def infer_set(e: ast.SetExpr, env: Env, mode: str = ZFC) -> tuple[PointClass, Derivation]:
    return Engine(env, mode).set_class(e)


def infer_func(e: ast.FuncExpr, env: Env, mode: str = ZFC) -> tuple[PointClass, Derivation]:
    return Engine(env, mode).func_level(e)


def select_certificate(operand: ast.SetExpr, env: Env, mode: str = ZFC) -> Certificate:
    return _certificate(ast.Select(operand), env, mode)


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
    return _certificate(ast.EpsSelector(dom, func, Fraction(eps), direction), env, mode)


def _certificate(e: ast.FuncExpr, env: Env, mode: str) -> Certificate:
    """A selector's derived bound; ``e`` is signature-checked first, as ``bind`` checks a program's."""
    engine = Engine(env, mode)
    signature(e, env)
    fl, d = engine.func_level(e)
    return Certificate(format_expr(e), f"level delta {fl.level}", mode, d, note="derived bound")


@dataclass(frozen=True)
class AssertionResult:
    line: int
    text: str
    ok: bool
    detail: str
    derivation: Derivation | None = None


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
        except VERDICT_ERRORS as exc:
            results.append(AssertionResult(stmt.line, text, False, str(exc), None))
            continue
        results.append(AssertionResult(stmt.line, text, ok, detail, d))
    return results


def universal_measurability(subject: PointClass, mode: str = ZFC) -> Certificate | Refusal:
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
