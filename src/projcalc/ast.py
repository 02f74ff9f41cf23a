"""AST for the line-oriented calculus DSL.

Space expressions are hash-consed: two are equal iff they are one object.
Set and function expressions are frozen trees; axis arguments stay as
written (a 1-based position or a space name) and are resolved against
carriers at bind time.  Statement line numbers are carried for diagnostics
but excluded from equality so that parse(format(p)) == p.

The keyword form of each fixed-arity constructor is written down once, in
SET_FORMS and FUNC_FORMS (EPS_FORM for eps_inf/eps_sup, SPACE_ATOMS and
SPACE_FORMS for spaces); the parser reads and the formatter writes every
such form from its entry, and children() reads a node's subexpressions from
it.  The binder, the engine, the formatter and the finite-model evaluator
walk expressions through fold(), the parser with a stack of its own, so
expressions nest as deep as memory allows; so do space values, whose
factors space_children() gives.  A new constructor is its class and one
entry here plus its rules in sema, infer and derivation; an irregular form
is also named in children() and spelled by hand in parser.expr and
formatter.pieces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .pointclass import LevelSchedule, PointClass

# --- spaces ------------------------------------------------------------------

# (class, *factors) -> the space built from them, for as long as it lives
_SPACES = weakref.WeakValueDictionary()


class _HashConsed:
    """The one object of this class and factors (Filliatre and Conchon, 2006)."""

    def __new__(cls, *factors):
        key = (cls, *factors)
        space = _SPACES.get(key)
        if space is None:
            space = _SPACES[key] = object.__new__(cls)
        return space


@dataclass(frozen=True, eq=False)
class Reals(_HashConsed):
    pass


@dataclass(frozen=True, eq=False)
class Naturals(_HashConsed):
    pass


@dataclass(frozen=True, eq=False)
class Baire(_HashConsed):
    pass


@dataclass(frozen=True, eq=False)
class Cantor(_HashConsed):
    pass


@dataclass(frozen=True, eq=False)
class XRealLine(_HashConsed):
    pass


@dataclass(frozen=True, eq=False)
class ProductSpace(_HashConsed):
    left: "SpaceExpr"
    right: "SpaceExpr"


@dataclass(frozen=True, eq=False)
class MeasureSpace(_HashConsed):
    inner: "SpaceExpr"


SpaceExpr = Reals | Naturals | Baire | Cantor | XRealLine | ProductSpace | MeasureSpace

Axis = int | str  # 1-based position, or a space name resolved at bind time

# --- set expressions ---------------------------------------------------------


@dataclass(frozen=True)
class NamedSet:
    name: str


@dataclass(frozen=True)
class Complement:
    operand: "SetExpr"


@dataclass(frozen=True)
class FiniteUnion:
    members: tuple["SetExpr", ...]


@dataclass(frozen=True)
class FiniteIntersection:
    members: tuple["SetExpr", ...]


@dataclass(frozen=True)
class CountableUnion:
    index: str
    base: str
    carrier: SpaceExpr | None
    schedule: LevelSchedule


@dataclass(frozen=True)
class CountableIntersection:
    index: str
    base: str
    carrier: SpaceExpr | None
    schedule: LevelSchedule


@dataclass(frozen=True)
class Product:
    left: "SetExpr"
    right: "SetExpr"


@dataclass(frozen=True)
class Projection:
    operand: "SetExpr"
    axis: Axis


@dataclass(frozen=True)
class BorelImage:
    func: str  # must name a level-1 function
    operand: "SetExpr"


@dataclass(frozen=True)
class Preimage:
    func: "FuncExpr"
    operand: "SetExpr"


@dataclass(frozen=True)
class Section:
    operand: "SetExpr"
    axis: Axis
    at: str | None = None  # concrete coordinate, only meaningful on models


@dataclass(frozen=True)
class Graph:
    func: "FuncExpr"


@dataclass(frozen=True)
class Sublevel:
    func: "FuncExpr"
    op: str  # one of < <= > >=
    bound: Fraction


@dataclass(frozen=True)
class MeasureThreshold:
    operand: "SetExpr"
    threshold: Fraction


SetExpr = (
    NamedSet
    | Complement
    | FiniteUnion
    | FiniteIntersection
    | CountableUnion
    | CountableIntersection
    | Product
    | Projection
    | BorelImage
    | Preimage
    | Section
    | Graph
    | Sublevel
    | MeasureThreshold
)

# --- function expressions ----------------------------------------------------


@dataclass(frozen=True)
class NamedFunc:
    name: str


@dataclass(frozen=True)
class PairFunc:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class CylinderExtend:
    func: "FuncExpr"
    factor: SpaceExpr


@dataclass(frozen=True)
class Compose:
    outer: "FuncExpr"
    inner: "FuncExpr"


@dataclass(frozen=True)
class SectionOf:
    func: "FuncExpr"
    axis: Axis
    at: str | None = None


@dataclass(frozen=True)
class Sum:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Neg:
    operand: "FuncExpr"


@dataclass(frozen=True)
class ProdOp:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class MinOp:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class MaxOp:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class InnerProduct:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Power:
    operand: "FuncExpr"
    exponent: Fraction  # > 0; operand must be nonneg-annotated


@dataclass(frozen=True)
class CountableSup:
    index: str
    base: str
    carrier: SpaceExpr | None  # domain space of the family, if stated
    schedule: LevelSchedule


@dataclass(frozen=True)
class CountableInf:
    index: str
    base: str
    carrier: SpaceExpr | None
    schedule: LevelSchedule


@dataclass(frozen=True)
class PartialInf:
    func: "FuncExpr"
    dom: "SetExpr"


@dataclass(frozen=True)
class PartialSup:
    func: "FuncExpr"
    dom: "SetExpr"


@dataclass(frozen=True)
class IntegralKernel:
    func: "FuncExpr"
    kernel: str


@dataclass(frozen=True)
class Select:
    operand: "SetExpr"


@dataclass(frozen=True)
class EpsSelector:
    dom: "SetExpr"
    func: "FuncExpr"
    eps: Fraction  # > 0
    direction: str  # "inf" or "sup"


@dataclass(frozen=True)
class FromGraph:
    graph: "SetExpr"
    dom: "SetExpr"


FuncExpr = (
    NamedFunc
    | PairFunc
    | CylinderExtend
    | Compose
    | SectionOf
    | Sum
    | Neg
    | ProdOp
    | MinOp
    | MaxOp
    | InnerProduct
    | Power
    | CountableSup
    | CountableInf
    | PartialInf
    | PartialSup
    | IntegralKernel
    | Select
    | EpsSelector
    | FromGraph
)

# --- keyword forms -----------------------------------------------------------
#
# keyword -> (node class, bracket slot or None, paren slots), spelled
# keyword[bracket](slot, ..., slot).  A slot is (field, kind); the kind is the
# grammar category there (set_expr, func_expr, space_expr, ident, axis,
# comparator, rational), read by the parser's method of that name, or point:
# an axis with an optional "@ name", filling the fields axis and at.

SET_FORMS = {
    "compl": (Complement, None, (("operand", "set_expr"),)),
    "prod": (Product, None, (("left", "set_expr"), ("right", "set_expr"))),
    "proj": (Projection, ("axis", "axis"), (("operand", "set_expr"),)),
    "img": (BorelImage, ("func", "ident"), (("operand", "set_expr"),)),
    "pre": (Preimage, ("func", "func_expr"), (("operand", "set_expr"),)),
    "section": (Section, ("axis", "point"), (("operand", "set_expr"),)),
    "graph": (Graph, None, (("func", "func_expr"),)),
    "sublevel": (Sublevel, None, (("func", "func_expr"), ("op", "comparator"), ("bound", "rational"))),
    "measure_ge": (MeasureThreshold, None, (("operand", "set_expr"), ("threshold", "rational"))),
}

FUNC_FORMS = {
    "pair": (PairFunc, None, (("left", "func_expr"), ("right", "func_expr"))),
    "compose": (Compose, None, (("outer", "func_expr"), ("inner", "func_expr"))),
    "add": (Sum, None, (("left", "func_expr"), ("right", "func_expr"))),
    "mul": (ProdOp, None, (("left", "func_expr"), ("right", "func_expr"))),
    "min": (MinOp, None, (("left", "func_expr"), ("right", "func_expr"))),
    "max": (MaxOp, None, (("left", "func_expr"), ("right", "func_expr"))),
    "inner": (InnerProduct, None, (("left", "func_expr"), ("right", "func_expr"))),
    "neg": (Neg, None, (("operand", "func_expr"),)),
    "cyl": (CylinderExtend, ("factor", "space_expr"), (("func", "func_expr"),)),
    "fsection": (SectionOf, ("axis", "point"), (("func", "func_expr"),)),
    "pow": (Power, None, (("operand", "func_expr"), ("exponent", "rational"))),
    "inf_over": (PartialInf, None, (("func", "func_expr"), ("dom", "set_expr"))),
    "sup_over": (PartialSup, None, (("func", "func_expr"), ("dom", "set_expr"))),
    "integral": (IntegralKernel, None, (("func", "func_expr"), ("kernel", "ident"))),
    "select": (Select, None, (("operand", "set_expr"),)),
    "from_graph": (FromGraph, None, (("graph", "set_expr"), ("dom", "set_expr"))),
}

# one class for two keywords, eps_inf and eps_sup, so not in FUNC_FORMS
EPS_FORM = (EpsSelector, None, (("dom", "set_expr"), ("func", "func_expr"), ("eps", "rational")))

# keyword -> (node of "keyword(member, member, ...)" or None, node of
# "keyword i in nat of base_i ... with levels ...")
FAMILIES = {
    "union": (FiniteUnion, CountableUnion),
    "inter": (FiniteIntersection, CountableIntersection),
    "sup": (None, CountableSup),
    "inf": (None, CountableInf),
}

SPACE_ATOMS = {"reals": Reals, "nat": Naturals, "baire": Baire, "cantor": Cantor, "xreal": XRealLine}
# keyword -> (node class, number of factors) of "keyword(factor, ..., factor)"
SPACE_FORMS = {"prod": (ProductSpace, 2), "measures": (MeasureSpace, 1)}


def slot_steps(bracket, slots) -> tuple[tuple[str, str, str], ...]:
    """(text before the slot, field, kind) in reading order; a form ends in ")"."""
    leads = ("[", "](") if bracket else ("(",)
    order = (bracket, *slots) if bracket else slots
    leads += (", ",) * (len(order) - len(leads))
    return tuple((lead, field, kind) for lead, (field, kind) in zip(leads, order))


# node class -> the fields that hold its subexpressions, in reading order,
# and a getter of them (of one field, it returns the value, not a 1-tuple)
_CHILD_FIELDS = {
    c: tuple(f for _, f, k in slot_steps(b, s) if k in ("set_expr", "func_expr"))
    for c, b, s in (*SET_FORMS.values(), *FUNC_FORMS.values(), EPS_FORM)
}
_CHILD_GETTERS = {c: attrgetter(*fields) for c, fields in _CHILD_FIELDS.items()}
_CHILD_GETTERS[FiniteUnion] = _CHILD_GETTERS[FiniteIntersection] = attrgetter("members")
_ONE_CHILD = {c for c, fields in _CHILD_FIELDS.items() if len(fields) == 1}


def children(e) -> tuple:
    """The set and function subexpressions of e, in the order its text spells them."""
    get = _CHILD_GETTERS.get(type(e))
    if get is None:
        return ()
    return (get(e),) if type(e) in _ONE_CHILD else get(e)


def space_children(s) -> tuple:
    """The factors of space s, in the order its text spells them."""
    return tuple(vars(s).values())  # a space's fields are its factors, set in order


def fold(root, combine, kids=children):
    """combine(e, values of kids(e)) for root and every node below it, children first.

    kids(e) is asked for when e is reached, after every node before e in
    post-order is combined.  The stack is a list, not interpreter frames.
    """
    e, below, done = root, kids(root), []  # a node, its kids, their values so far
    stack = []  # the same for each node above e
    while True:
        if len(done) < len(below):
            child = below[len(done)]
            grand = kids(child)
            if grand:
                stack.append((e, below, done))
                e, below, done = child, grand, []
            else:
                done.append(combine(child, ()))
            continue
        value = combine(e, done)
        if not stack:
            return value
        e, below, done = stack.pop()
        done.append(value)


# --- declarations and statements --------------------------------------------


@dataclass(frozen=True)
class FuncAnnot:
    """Declared measurability: origin tracks how the level arose."""

    origin: str  # declared | borel | lsa | usa
    level: int  # borel -> 1; lsa/usa collapse to 2

    def __str__(self) -> str:
        if self.origin == "declared":
            return f"delta {self.level}"
        return self.origin


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    space: SpaceExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SetDecl:
    name: str
    space: SpaceExpr
    cls: PointClass
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FuncDecl:
    name: str
    dom: SpaceExpr
    cod: SpaceExpr
    annot: FuncAnnot
    domain_set: str | None = None
    nonneg: bool = False
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class KernelDecl:
    name: str
    src: SpaceExpr
    dst: SpaceExpr
    level: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LetSet:
    name: str
    expr: SetExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LetFunc:
    name: str
    expr: FuncExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssertClass:
    expr: SetExpr
    op: str  # <= or ==
    cls: PointClass
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssertLevel:
    expr: FuncExpr
    op: str
    level: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssertUM:
    name: str
    line: int = field(default=0, compare=False)


Statement = (
    SpaceDecl
    | SetDecl
    | FuncDecl
    | KernelDecl
    | LetSet
    | LetFunc
    | AssertClass
    | AssertLevel
    | AssertUM
)

Assertion = AssertClass | AssertLevel | AssertUM


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]

    @property
    def assertions(self) -> tuple[Assertion, ...]:
        return tuple(s for s in self.statements if isinstance(s, (AssertClass, AssertLevel, AssertUM)))
