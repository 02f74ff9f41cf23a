"""AST for the line-oriented calculus DSL.

Every node is a _Node: its fields are its class's __slots__, it cannot be
changed once built, and == and hash compare its fields as a frozen
dataclass's do.  Space expressions are hash-consed: two are equal iff they
are one object.  Set and function expressions are trees; axis arguments
stay as written (a 1-based position or a space name) and are resolved
against carriers at bind time.  Statement line numbers are carried for
diagnostics but excluded from equality so that parse(format(p)) == p.

The keyword form of each fixed-arity constructor is written down once, in
SET_FORMS and FUNC_FORMS (EPS_STEPS for eps_inf/eps_sup, SPACE_ATOMS and
SPACE_FORMS for spaces), and each statement's in STATEMENT_FORMS; an entry
declares its node class too, the parser reads and the formatter writes every
such form from its entry, and children() reads a node's subexpressions from
it.  The binder, the engine, the formatter and the finite-model evaluator
walk expressions through fold(), the parser with a stack of its own, so
expressions nest as deep as memory allows; so do space values, whose factors
space_children() gives.  A new constructor or statement is one table entry
plus its rules in sema and infer (and for a constructor in derivation); an
irregular form is declared on its own line below, named in children() and
spelled by hand in parser.expr and formatter.pieces.
"""

from __future__ import annotations

import weakref
from functools import reduce
from operator import attrgetter, or_

# --- nodes ---------------------------------------------------------------------

# (field names, defaults) -> (a function of the fields' slot setters giving
# __init__, __eq__, __hash__)
_COMPILED = {}


def _compiled(fields: tuple, defaults: dict) -> tuple:
    """Compile, once per field list, __eq__, __hash__ and the maker of __init__(self, field, ...)."""
    key = (fields, tuple(defaults.items()))
    if key not in _COMPILED:
        params = "".join(f", {f}={defaults[f]!r}" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"        _set_{f}(self, {f})\n" for f in fields) or "        pass\n"
        setters = ", ".join(f"_set_{f}" for f in fields)
        mine = "".join(f"self.{f}, " for f in fields if f != "line")
        theirs = mine.replace("self.", "other.")
        namespace = {}
        exec(
            f"def make({setters}):\n    def __init__(self{params}):\n{body}    return __init__\n"
            f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n",
            namespace,
        )
        _COMPILED[key] = namespace["make"], namespace["__eq__"], namespace["__hash__"]
    return _COMPILED[key]


class _Node:
    """A node whose fields are its class's own __slots__, in order.

    Each class gets an __init__ compiled for its fields, as dataclasses and
    namedtuple do: positional or keyword arguments, with the defaults the
    class is declared with.  It sets each field through its slot, past the
    __setattr__ that refuses any change.  == and hash are a frozen
    dataclass's: the same class and equal fields, and the hash of the tuple
    of fields; a statement's line is shown but neither compared nor hashed.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        fields = cls._fields = tuple(f for f in vars(cls)["__slots__"] if f != "__weakref__")
        make, cls.__eq__, cls.__hash__ = _compiled(fields, defaults)
        cls.__init__ = make(*[vars(cls)[f].__set__ for f in fields])
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle rebuild a node through its class
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _node(name: str, fields: str = "", base: type = _Node, **defaults) -> type:
    """The node class name on base, its fields named in the string fields."""
    return type(name, (base,), {"__slots__": tuple(fields.split())}, **defaults)


# --- spaces ------------------------------------------------------------------

# (class, *factors) -> the space built from them, for as long as it lives
_SPACES = weakref.WeakValueDictionary()


class _HashConsed(_Node):
    """The one object of this class and factors (Filliatre and Conchon, 2006).

    __new__ may hand back a space that exists; __init__ then sets its
    fields again, to the values they hold."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__(**defaults)
        cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__  # one object per value

    def __new__(cls, *factors):
        key = (cls, *factors)
        space = _SPACES.get(key)
        if space is None:
            space = _SPACES[key] = object.__new__(cls)
        return space


Reals = _node("Reals", base=_HashConsed)
Naturals = _node("Naturals", base=_HashConsed)
Baire = _node("Baire", base=_HashConsed)
Cantor = _node("Cantor", base=_HashConsed)
XRealLine = _node("XRealLine", base=_HashConsed)
ProductSpace = _node("ProductSpace", "left right", _HashConsed)
MeasureSpace = _node("MeasureSpace", "inner", _HashConsed)

SpaceExpr = Reals | Naturals | Baire | Cantor | XRealLine | ProductSpace | MeasureSpace

Axis = int | str  # 1-based position, or a space name resolved at bind time

# --- expressions without a fixed-arity keyword form ----------------------------

NamedSet = _node("NamedSet", "name")
NamedFunc = _node("NamedFunc", "name")
FiniteUnion = _node("FiniteUnion", "members")  # a tuple of set expressions
FiniteIntersection = _node("FiniteIntersection", "members")
# a family base_0, base_1, ... indexed by index; carrier is its space if stated, else None
_FAMILY = "index base carrier schedule"
CountableUnion = _node("CountableUnion", _FAMILY)
CountableIntersection = _node("CountableIntersection", _FAMILY)
CountableSup = _node("CountableSup", _FAMILY)
CountableInf = _node("CountableInf", _FAMILY)
EpsSelector = _node("EpsSelector", "dom func eps direction")  # eps > 0; direction "inf" or "sup"

# --- keyword forms -------------------------------------------------------------
#
# keyword -> (node class name, slot, ..., slot), spelled keyword(slot, ..., slot)
# or, if one slot is written "[field kind]", keyword[that slot](the others).
# Each slot is "field kind", in the order of the class's fields; the kind is
# the grammar category there (set_expr, func_expr, space_expr, ident, axis,
# comparator, rational), read by the parser's method of that name, or point:
# an axis with an optional "@ name", filling that field and a last field at
# (None if no "@").  Each entry becomes keyword -> (node class, slot steps).


def slot_steps(slots) -> tuple[tuple[str, str, str], ...]:
    """(text before the slot, field, kind) in reading order; a form ends in ")"."""
    bracket = [s[1:-1].split() for s in slots if s[0] == "["]
    order = bracket + [s.split() for s in slots if s[0] != "["]
    leads = ("[", "](") if bracket else ("(",)
    leads += (", ",) * (len(order) - len(leads))
    return tuple((lead, field, kind) for lead, (field, kind) in zip(leads, order))


def _forms(declared: dict) -> dict:
    """keyword -> (node class, slot steps), each class built from its entry."""
    forms = {}
    for word, (name, *slots) in declared.items():
        steps = slot_steps(slots)
        fields = [s.strip("[]").split()[0] for s in slots]
        at = {"at": None} if any(kind == "point" for _, _, kind in steps) else {}
        cls = globals()[name] = _node(name, " ".join([*fields, *at]), **at)
        forms[word] = (cls, steps)
    return forms


SET_FORMS = _forms({
    "compl": ("Complement", "operand set_expr"),
    "prod": ("Product", "left set_expr", "right set_expr"),
    "proj": ("Projection", "operand set_expr", "[axis axis]"),
    "img": ("BorelImage", "[func ident]", "operand set_expr"),  # func names a level-1 function
    "pre": ("Preimage", "[func func_expr]", "operand set_expr"),
    "section": ("Section", "operand set_expr", "[axis point]"),  # at: only meaningful on models
    "graph": ("Graph", "func func_expr"),
    "sublevel": ("Sublevel", "func func_expr", "op comparator", "bound rational"),
    "measure_ge": ("MeasureThreshold", "operand set_expr", "threshold rational"),
})

FUNC_FORMS = _forms({
    "pair": ("PairFunc", "left func_expr", "right func_expr"),
    "compose": ("Compose", "outer func_expr", "inner func_expr"),
    "add": ("Sum", "left func_expr", "right func_expr"),
    "mul": ("ProdOp", "left func_expr", "right func_expr"),
    "min": ("MinOp", "left func_expr", "right func_expr"),
    "max": ("MaxOp", "left func_expr", "right func_expr"),
    "inner": ("InnerProduct", "left func_expr", "right func_expr"),
    "neg": ("Neg", "operand func_expr"),
    "cyl": ("CylinderExtend", "func func_expr", "[factor space_expr]"),
    "fsection": ("SectionOf", "func func_expr", "[axis point]"),
    "pow": ("Power", "operand func_expr", "exponent rational"),  # exponent > 0, operand nonneg
    "inf_over": ("PartialInf", "func func_expr", "dom set_expr"),
    "sup_over": ("PartialSup", "func func_expr", "dom set_expr"),
    "integral": ("IntegralKernel", "func func_expr", "kernel ident"),
    "select": ("Select", "operand set_expr"),
    "from_graph": ("FromGraph", "graph set_expr", "dom set_expr"),
})

# the form of eps_inf and eps_sup, one class for two keywords, so not in FUNC_FORMS
EPS_STEPS = slot_steps(("dom set_expr", "func func_expr", "eps rational"))

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

SetExpr = reduce(or_, [NamedSet, FiniteUnion, FiniteIntersection, CountableUnion, CountableIntersection,
                       *(c for c, _ in SET_FORMS.values())])
FuncExpr = reduce(or_, [NamedFunc, CountableSup, CountableInf, EpsSelector, *(c for c, _ in FUNC_FORMS.values())])

# node class -> the fields that hold its subexpressions, in reading order,
# and a getter of them (of one field, it returns the value, not a 1-tuple)
_CHILD_FIELDS = {
    c: tuple(f for _, f, k in steps if k in ("set_expr", "func_expr"))
    for c, steps in (*SET_FORMS.values(), *FUNC_FORMS.values(), (EpsSelector, EPS_STEPS))
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
    return tuple([getattr(s, f) for f in s._fields])  # a space's fields are its factors


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


class FuncAnnot(_Node):
    """Declared measurability: origin (declared | borel | lsa | usa) tracks
    how the level arose; borel gives level 1, lsa and usa collapse to 2."""

    __slots__ = ("origin", "level")

    def __str__(self) -> str:
        if self.origin == "declared":
            return f"delta {self.level}"
        return self.origin


# keyword (one word, or assert and a second) -> (node class name, step, ...).
# A step is "lead ... field kind": the words before the field (keywords if
# names, else punctuation), the field, and the parser's method that reads it;
# a field marked "?" may be absent and is read only when its lead word is
# there, and a step ending in punctuation is all lead.  The fields are the
# required ones, then those that may be absent (None, or False for a flag,
# which its lead alone sets), then the line.  A let names a class per kind.


def _statements(declared: dict) -> dict:
    """keyword -> (node class or kind -> class, (text before the field, field, kind, may be absent) per step)."""
    forms = {}
    for word, (names, *declared_steps) in declared.items():
        steps = []
        for words in map(str.split, declared_steps):
            *lead, field, kind = words if words[-1].isidentifier() else (*words, None, None)
            text = "".join([w if w in "()" else " " + w for w in lead])  # "(" and ")" hug their neighbours
            text += "" if kind in (None, "flag") or text.endswith("(") else " "
            steps.append((text, field and field.rstrip("?"), kind, field and field.endswith("?")))
        defaults = {f: False if kind == "flag" else None for _, f, kind, absent in steps if absent}
        fields = " ".join([*(f for _, f, _, absent in steps if f and not absent), *defaults, "line"])
        built = {k: globals().setdefault(n, _node(n, fields, **defaults, line=0))
                 for k, n in (names.items() if isinstance(names, dict) else [(None, names)])}
        forms[word] = (built.get(None, built), tuple(steps))  # a let's kind -> class, else the class
    return forms


STATEMENT_FORMS = _statements({
    "space": ("SpaceDecl", "name ident", "= space space_expr"),
    "set": ("SetDecl", "name ident", "in space space_expr", ": cls set_class"),
    "func": ("FuncDecl", "name ident", ": dom space_expr", "-> cod space_expr", "on domain_set? ident",
             ": annot func_annot", "nonneg nonneg? flag"),
    "kernel": ("KernelDecl", "name ident", ": src space_expr", "~> dst space_expr", ": level kernel_level"),
    "let": ({"set": "LetSet", "func": "LetFunc"}, "name ident", "= expr any_expr"),
    "assert class": ("AssertClass", "( expr set_expr", ") op assert_cmp", "cls set_class"),  # op is <= or ==
    "assert level": ("AssertLevel", "( expr func_expr", ") op assert_cmp", "delta level level"),
    "assert um": ("AssertUM", "( name ident", ")"),
})

Statement = SpaceDecl | SetDecl | FuncDecl | KernelDecl | LetSet | LetFunc | AssertClass | AssertLevel | AssertUM

Assertion = AssertClass | AssertLevel | AssertUM


class Program(_Node):
    __slots__ = ("statements",)

    @property
    def assertions(self) -> tuple[Assertion, ...]:
        return tuple(s for s in self.statements if isinstance(s, (AssertClass, AssertLevel, AssertUM)))
