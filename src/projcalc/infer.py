"""Bottom-up class and level inference over bound expressions.

Every judgment comes with a derivation with shared subproofs: an engine
infers each declared or let-bound name once, and every later use of the
name reuses the same derivation object.  A constructor whose row has its
children as premises is one _SYNTAX_RULES entry: its rule, and its
conclusion from the children's classes or levels.  The rest are cases of
Engine._build: names, countable families over a SCHED leaf, and the rows
with a gate, a choice of rule (the sharpest that applies) or a template,
a premise that is not a child.  All results are upper bounds by
construction; nothing here claims minimality.

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
from functools import reduce

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


def _join(*values: PointClass) -> PointClass:
    """The least class or level above every value; of one value, that value."""
    return reduce(join, values)


def _above(*values: PointClass) -> PointClass:
    """delta n+1, for delta n the least delta class that holds every value."""
    return delta(max([delta_lift(v).level for v in values]) + 1)


# node class -> (rule, its conclusion from the children's classes or
# levels) of each row whose premises are the node's children, in
# ast.children order, and whose subject spells the node
_SYNTAX_RULES = {
    ast.Complement: ("S-COMPL", complement_class),
    ast.FiniteUnion: ("S-CU", _join),
    ast.FiniteIntersection: ("S-CI", _join),
    ast.Product: ("S-PROD", product_class),
    ast.Projection: ("S-PROJ", projection_class),
    ast.Section: ("S-BPRE", _join),
    ast.Graph: ("F-GRAPH", _above),
    ast.Sublevel: ("S-SUBLEV", _join),
    ast.PairFunc: ("F-PAIR", _join),
    ast.CylinderExtend: ("F-CYL", _join),
    ast.SectionOf: ("F-SECT", _above),
    ast.PartialInf: ("F-PARTIAL", _above),
    ast.PartialSup: ("F-PARTIAL", _above),
    ast.FromGraph: ("F-UNGRAPH", _above),
    **dict.fromkeys((ast.Sum, ast.Neg, ast.ProdOp, ast.MinOp, ast.MaxOp, ast.InnerProduct, ast.Power),
                    ("F-ARITH", _join)),
}

_SETS = frozenset(ast.SetExpr.__args__)  # a row of one of these concludes a class, else a level

# countable family class -> its rule, over one SCHED leaf
_FAMILY_RULES = {ast.CountableUnion: "S-CU", ast.CountableIntersection: "S-CI",
                 ast.CountableSup: "F-CSUP", ast.CountableInf: "F-CINF"}


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

    def _node(self, rule: str, premises, subject: str, value: PointClass, is_set: bool) -> Derivation:
        """A row concluding class value for a set, or level value.level for a function."""
        judgment = class_judgment(value) if is_set else level_judgment(value.level)
        return node(rule, tuple(premises), subject, judgment, self.mode)

    def _row(self, e, rule: str, premises, refs, value: PointClass) -> tuple:
        """(value, the row of e, no name), its subject e spelled with refs for its children."""
        return value, self._node(rule, premises, spell(e, refs), value, type(e) in _SETS), None

    # -- the walk

    def _enter(self, e) -> tuple:
        """The nodes e is built from: a name not inferred yet is built from
        its let body or, for a partial function, its domain set.  Refusals
        that come before any premise are raised here."""
        if isinstance(e, (ast.NamedSet, ast.NamedFunc)):
            if e.name in self.named:
                return ()
            is_set = isinstance(e, ast.NamedSet)
            entry = self.env.set_entry(e.name) if is_set else self.env.func_entry(e.name)
            if entry.expr is not None:
                return (entry.expr,)
            if not is_set and entry.domain_set is not None:
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
                    hit = cls, self._node("DECL", (), e.name, cls, True), e.name
                self.named[e.name] = hit
            return hit
        if isinstance(e, ast.NamedFunc):
            hit = self.named.get(e.name)
            if hit is None:
                entry = self.env.func_entry(e.name)
                if entry.expr is not None:
                    fl, d = kids[0][0], kids[0][1]
                else:
                    fl = delta(entry.annot.level)
                    d = self._node("DECL", (), e.name, fl, False)
                    if entry.domain_set is not None:
                        dc, dd, _, _ = kids[0]
                        fl = delta(max(fl.level, delta_lift(dc).level))
                        d = self._node("F-DOM", [d, dd], e.name, fl, False)
                hit = self.named[e.name] = fl, d, e.name
            return hit
        # the i-th kid is the i-th premise, but where a case below says otherwise
        refs = [name or f"#{i}" for i, (_, _, name, _) in enumerate(kids)]
        entry = _SYNTAX_RULES.get(type(e))
        if entry is not None:
            rule, conclude = entry
            values, premises, _, _ = zip(*kids)
            return self._row(e, rule, premises, refs, conclude(*values))
        rule = _FAMILY_RULES.get(type(e))
        if rule is not None:
            bound = schedule_bound(e.schedule)  # raises UnboundedScheduleError
            leaf = self._node("SCHED", (), f"levels {format_schedule(e.schedule)}", bound, True)
            return self._row(e, rule, [leaf], refs, bound if type(e) in _SETS else delta_lift(bound))
        if isinstance(e, ast.BorelImage):
            # the image rule wants the bare level-1 declaration, not an
            # F-DOM lift; a partial domain restricts the operand instead
            leaf = self._node("DECL", (), e.func, delta(self.env.func_entry(e.func).annot.level), False)
            c, d, operand, _ = kids[0]
            if len(kids) == 2:
                dc, dd, domain_set, _ = kids[1]
                c = join(c, dc)
                restricted = ast.FiniteIntersection((e.operand, ast.NamedSet(domain_set)))
                d = self._node("S-CI", [d, dd], spell(restricted, [operand or "#0", domain_set]), c, True)
                return self._row(e, "S-BIMG", [leaf, d], [operand or "#1.0"], projection_class(c))
            return self._row(e, "S-BIMG", [leaf, d], [operand or "#1"], projection_class(c))
        if isinstance(e, ast.Preimage):
            (fl, fd, func, _), (c, d, operand, _) = kids
            if fl.level == 1:
                return self._row(e, "S-BPRE", [fd, d], refs, c)
            if c.kind is Kind.DELTA:
                return self._row(e, "F-PRE-Δ", [fd, d], refs, delta(fl.level + c.level))
            if c.kind is Kind.SIGMA:
                return self._row(e, "F-PRE-Σ", [fd, d], refs, sigma(c.level + fl.level - 1))
            # pi target: complement, pull back the sigma side, complement
            # again; the inner row is pre[f](compl(B)), spelled as e is
            subject = spell(ast.Complement(e.operand), [operand or "#0"])
            flip = self._node("S-COMPL", [d], subject, complement_class(c), True)
            pulled = sigma(c.level + fl.level - 1)
            inner = self._node("F-PRE-Σ", [fd, flip], spell(e, [func or "#0", "#1"]), pulled, True)
            return self._row(e, "S-COMPL", [inner], [func or "#0.0", operand or "#0.1.0"], complement_class(pulled))
        if isinstance(e, ast.MeasureThreshold):
            c, d, _, _ = kids[0]
            out = sigma_lift(c)
            if out.level >= 2 and self.mode != ZFC_PD:
                raise AxiomRequiredError("S-WR", f"threshold sets above level 1 (here {out})")
            return self._row(e, "S-WR", [d], refs, out)
        if isinstance(e, ast.Compose):
            (o, do, _, _), (i, di, _, _) = kids
            if i.level == 1:
                # inner Borel: preimages of the outer function's targets
                # pull back without cost
                return self._row(e, "F-COMP-B", [do, di], refs, o)
            return self._row(e, "F-COMP", [do, di], refs, delta(o.level + i.level))
        if isinstance(e, ast.IntegralKernel):
            fl, fd, _, _ = kids[0]
            hit = self.named.get(e.kernel)
            if hit is None:
                kl = delta(self.env.kernel_entry(e.kernel).level)
                hit = self.named[e.kernel] = kl, self._node("DECL", (), e.kernel, kl, False), e.kernel
            if self.mode != ZFC_PD:
                raise AxiomRequiredError("F-INT", "kernel integration is determinacy-gated")
            kl, kleaf, _ = hit
            return self._row(e, "F-INT", [fd, kleaf], refs, delta(fl.level + kl.level + 2))
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
            sel = self._node("F-SELECT", [d], spell(ast.Graph(e), [spell(e, [ref])]), graph_cls, True)
            dom = self._node("S-PROJ", [d], spell(ast.Projection(e.operand, 1), [ref]), dom_cls, True)
            return self._row(e, "F-UNGRAPH", [sel, dom], [operand or "#0.0"], _above(graph_cls, dom_cls))
        if isinstance(e, ast.EpsSelector):
            (fl, fd, _, _), (dc, dd, _, _) = kids
            # the near-optimal and escape bands around the sectionwise
            # optimum make a delta q+1 target; F-UNGRAPH over its selector's
            # pi 2m+1 graph and its sigma q+1 projection gives the level.
            # Each class is built, so a level past the cap raises
            # LevelOverflowError.
            target = _above(fl, dc)
            m = target.level // 2
            level = _above(delta(max(2 * m + 2, target.level + 1)))
            return self._row(e, "F-EPS", [fd, dd], refs[::-1], level)  # refs in the text's order
        raise TypeError(f"not a set or function expression: {e!r}")


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
            if isinstance(stmt, ast.AssertUM):
                got, d = eng.infer(ast.NamedSet(stmt.name) if stmt.name in env.sets else ast.NamedFunc(stmt.name))
                verdict = universal_measurability(got, mode)
                if isinstance(verdict, Refusal):
                    results.append(AssertionResult(stmt.line, text, False, verdict.reason, d))
                    continue
                ok, detail, d = True, verdict.conclusion, verdict.derivation
            else:
                got, d = eng.infer(stmt.expr)
                if isinstance(stmt, ast.AssertClass):
                    ok = leq(got, stmt.cls) if stmt.op == "<=" else got == stmt.cls
                else:  # a level is compared as a number, as written
                    ok = got.level <= stmt.level if stmt.op == "<=" else got.level == stmt.level
                detail = f"inferred {got}"
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
