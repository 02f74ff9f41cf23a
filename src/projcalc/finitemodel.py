"""Exact semantics on finite models.

A model assigns finite atom sets to space names and explicit data to set,
function, measure, and kernel names.  A carrier is a space name or a
hash-consed ast.ProductSpace of carriers, spelled in .pjm files in the DSL's
own space syntax.  Points of a product carrier are nested pairs mirroring
the binary product structure; all scalar values are extended reals with
exact rational finite parts.

The evaluator interprets the symbolic AST concretely in one ast.fold,
children first.  Each value carries its carrier (a set's SetData, a
function's FuncData), so a node checks its children's carriers against its
own rule without walking them again, and expressions nest as deep as
memory allows.  Constructors whose meaning is inherently about the
hierarchy (measure thresholds, symbolic families without concrete members,
the selection operators) are rejected with UnsupportedConstructorError;
countable families evaluate over the concretely declared members base_0,
base_1, ... .
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat

from . import ast
from .errors import FormatError, ParseError, SignatureError, UnsupportedConstructorError, read_json
from .formatter import format_space
from .parser import IDENTIFIER, SPACE_KEYWORDS, parse_space
from .selectors import least_choice, sectionwise_optimum
from .xreal import (
    NEG_INF,
    POS_INF,
    XReal,
    fin,
    format_xreal,
    integral_lower,
    parse_rational,
    parse_xreal,
    xreal_prod,
    xreal_sum,
)


Carrier = "str | ast.ProductSpace"
XREAL = "xreal"  # codomain marker for scalar-valued tables
# the deepest carrier a .pjm file may give: its points nest as deep, and
# points(), the point readers and writers and tuple hashing recurse on them
MAX_CARRIER_DEPTH = 500


@dataclass
class SetData:
    carrier: Carrier
    members: frozenset


@dataclass
class FuncData:
    dom: Carrier
    cod: Carrier  # a carrier, or the XREAL marker
    table: dict


@dataclass
class MeasureData:
    space: str
    weights: dict[str, Fraction]


@dataclass
class KernelData:
    src: str
    dst: str
    rows: dict[str, dict[str, Fraction]]


@dataclass
class FiniteModel:
    spaces: dict[str, tuple[str, ...]] = field(default_factory=dict)
    sets: dict[str, SetData] = field(default_factory=dict)
    funcs: dict[str, FuncData] = field(default_factory=dict)
    measures: dict[str, MeasureData] = field(default_factory=dict)
    kernels: dict[str, KernelData] = field(default_factory=dict)

    def points(self, carrier: Carrier) -> list:
        """All points of a carrier, left-major for products.

        It recurses once per product factor, and may: a product nested
        deeper than the recursion limit over spaces of two atoms or more
        has over 2**1000 points, which no explicit stack could list."""
        if isinstance(carrier, str):
            try:
                return list(self.spaces[carrier])
            except KeyError:
                raise SignatureError(f"unknown space {carrier!r}") from None
        return [(a, b) for a in self.points(carrier.left) for b in self.points(carrier.right)]

    def validate(self) -> None:
        for name, atoms in self.spaces.items():
            if name.lower() in SPACE_KEYWORDS:  # a carrier would read it as the keyword
                raise FormatError(f"space name {name!r} is reserved: it is a keyword of the space syntax")
            if len(set(atoms)) != len(atoms) or not atoms:
                raise FormatError(f"space {name!r} must list distinct atoms, at least one")
        # every space named is declared, so the carriers below are all names and products
        uses = [(f"set {name!r}", s.carrier) for name, s in self.sets.items()]
        uses += [(f"function {name!r}", c) for name, f in self.funcs.items() for c in (f.dom, f.cod) if c != XREAL]
        uses += [(f"measure {name!r}", m.space) for name, m in self.measures.items()]
        uses += [(f"kernel {name!r}", c) for name, k in self.kernels.items() for c in (k.src, k.dst)]
        for what, carrier in uses:
            for space in _space_names(carrier):
                if not isinstance(space, str) or space not in self.spaces:
                    shown = format_space(space) if isinstance(space, ast.SpaceExpr) else space
                    raise FormatError(f"{what} names unknown space {shown!r}")
        # points are tested against their carrier's structure, never listed
        atoms = {name: frozenset(a) for name, a in self.spaces.items()}
        for name, s in self.sets.items():
            if not all(_on(atoms, s.carrier, p) for p in s.members):
                raise FormatError(f"set {name!r} has members outside its carrier")
        for name, f in self.funcs.items():
            size = math.prod(len(atoms[space]) for space in _space_names(f.dom))
            if len(f.table) != size or not all(_on(atoms, f.dom, p) for p in f.table):
                raise FormatError(f"function {name!r} must be total on its domain")
            if f.cod != XREAL and not all(_on(atoms, f.cod, v) for v in f.table.values()):
                raise FormatError(f"function {name!r} has values outside its codomain")
            if f.cod == XREAL and not all(isinstance(v, XReal) for v in f.table.values()):
                raise FormatError(f"function {name!r} must take extended-real values")
        for name, m in self.measures.items():
            if set(m.weights) != set(self.spaces.get(m.space, ())):
                raise FormatError(f"measure {name!r} must weight every atom of {m.space!r}")
            if any(w < 0 for w in m.weights.values()) or sum(m.weights.values()) != 1:
                raise FormatError(f"measure {name!r} must be a probability vector")
        for name, k in self.kernels.items():
            rows_needed = set(self.spaces.get(k.src, ()))
            if set(k.rows) != rows_needed:
                raise FormatError(f"kernel {name!r} needs one row per atom of {k.src!r}")
            for x, row in k.rows.items():
                if set(row) != set(self.spaces.get(k.dst, ())):
                    raise FormatError(f"kernel {name!r} row {x!r} must weight every atom of {k.dst!r}")
                if any(w < 0 for w in row.values()) or sum(row.values()) != 1:
                    raise FormatError(f"kernel {name!r} row {x!r} must be a probability vector")


# --- carriers ------------------------------------------------------------------


def _space_names(c: Carrier):
    """The space names of a carrier, left to right."""
    stack = [c]
    while stack:
        c = stack.pop()
        if type(c) is ast.ProductSpace:
            stack += (c.right, c.left)
        else:
            yield c


def _on(atoms: dict, c: Carrier, p) -> bool:
    """Whether p is a point of carrier c, whose names all key atoms."""
    stack = [(c, p)]
    while stack:
        c, p = stack.pop()
        if type(c) is not ast.ProductSpace:
            if p not in atoms[c]:
                return False
        elif type(p) is tuple and len(p) == 2:
            stack += (c.left, p[0]), (c.right, p[1])
        else:
            return False
    return True


def _product(c: Carrier, what: str) -> ast.ProductSpace:
    if type(c) is not ast.ProductSpace:
        raise SignatureError(f"{what} needs a product carrier, got {format_space(c)}")
    return c


def _axis_index(carrier: Carrier, axis) -> int:
    _product(carrier, "axis selection")
    if isinstance(axis, int):
        if axis in (1, 2):
            return axis
        raise SignatureError(f"axis must be 1 or 2, got {axis}")
    hits = [i for i, side in ((1, carrier.left), (2, carrier.right)) if side == axis]
    if not hits:
        raise SignatureError(f"space {axis!r} is not a factor of {format_space(carrier)}")
    if len(hits) == 2:
        raise SignatureError(f"axis {axis!r} is ambiguous on a square product; use 1 or 2")
    return hits[0]


# --- wire format (.pjm) --------------------------------------------------------


def _point_to_json(p):
    if isinstance(p, str):
        return p
    return [_point_to_json(p[0]), _point_to_json(p[1])]


def _point_from_json(obj):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list) and len(obj) == 2:
        return (_point_from_json(obj[0]), _point_from_json(obj[1]))
    raise FormatError(f"bad point {obj!r}")


def _frac_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _frac_from_json(text) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"rationals are strings, got {text!r}")
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational {text!r}") from None


# "(" opens a product and ")" closes it: a carrier's products nest as deep as its brackets
_BRACKET_STEP = {"(": 1, ")": -1}


def _carrier_from_json(text) -> Carrier:
    """A carrier from its text, each identifier in it standing for its own name."""
    # the running bracket depth, in C, up to the first step past the bound
    if isinstance(text, str) and MAX_CARRIER_DEPTH + 1 in accumulate(map(_BRACKET_STEP.get, text, repeat(0))):
        raise FormatError("malformed model: a carrier is nested too deeply")
    try:
        return parse_space(text, {name: name for name in IDENTIFIER.findall(text)})
    except ParseError as exc:
        raise FormatError(f"bad carrier {text!r}: {exc}") from None


def _list(obj, what: str) -> list:
    if type(obj) is not list:
        raise FormatError(f"{what} must be a list, got {obj!r}")
    return obj


def model_to_json(m: FiniteModel) -> dict:
    return {
        "schema": "projcalc/1",
        "spaces": {k: list(v) for k, v in sorted(m.spaces.items())},
        "sets": {
            k: {
                "carrier": format_space(s.carrier),
                "members": sorted((_point_to_json(p) for p in s.members), key=json.dumps),
            }
            for k, s in sorted(m.sets.items())
        },
        "funcs": {
            k: {
                "dom": format_space(f.dom),
                "cod": format_space(f.cod),  # the XREAL marker spells itself
                "table": sorted(
                    (
                        [
                            _point_to_json(p),
                            format_xreal(v) if f.cod == XREAL else _point_to_json(v),
                        ]
                        for p, v in f.table.items()
                    ),
                    key=json.dumps,
                ),
            }
            for k, f in sorted(m.funcs.items())
        },
        "measures": {
            k: {"space": mm.space, "weights": {a: _frac_to_json(w) for a, w in sorted(mm.weights.items())}}
            for k, mm in sorted(m.measures.items())
        },
        "kernels": {
            k: {
                "src": kk.src,
                "dst": kk.dst,
                "rows": {
                    x: {y: _frac_to_json(w) for y, w in sorted(row.items())}
                    for x, row in sorted(kk.rows.items())
                },
            }
            for k, kk in sorted(m.kernels.items())
        },
    }


def model_from_json(obj) -> FiniteModel:
    if not isinstance(obj, dict):
        raise FormatError("model document must be an object")
    if obj.get("schema") != "projcalc/1":
        raise FormatError(f"unsupported schema {obj.get('schema')!r}")
    try:
        m = FiniteModel()
        for name, atoms in obj.get("spaces", {}).items():
            m.spaces[name] = tuple(str(a) for a in _list(atoms, f"space {name!r} atoms"))
        for name, s in obj.get("sets", {}).items():
            m.sets[name] = SetData(
                _carrier_from_json(s["carrier"]),
                frozenset(_point_from_json(p) for p in _list(s["members"], f"set {name!r} members")),
            )
        for name, f in obj.get("funcs", {}).items():
            cod = XREAL if f["cod"] == XREAL else _carrier_from_json(f["cod"])
            table = {}
            for entry in f["table"]:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise FormatError(f"bad table entry {entry!r}")
                p = _point_from_json(entry[0])
                v = parse_xreal(entry[1]) if cod == XREAL else _point_from_json(entry[1])
                table[p] = v
            m.funcs[name] = FuncData(_carrier_from_json(f["dom"]), cod, table)
        for name, mm in obj.get("measures", {}).items():
            m.measures[name] = MeasureData(
                mm["space"], {a: _frac_from_json(w) for a, w in mm["weights"].items()}
            )
        for name, kk in obj.get("kernels", {}).items():
            m.kernels[name] = KernelData(
                kk["src"],
                kk["dst"],
                {x: {y: _frac_from_json(w) for y, w in row.items()} for x, row in kk["rows"].items()},
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # e.g. "sets": []
        raise FormatError(f"malformed model: {exc!r}") from None
    m.validate()
    return m


def dumps_model(m: FiniteModel) -> str:
    return json.dumps(model_to_json(m), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def loads_model(text: str) -> FiniteModel:
    return model_from_json(read_json(text))


# --- evaluation ----------------------------------------------------------------


_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _named(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise SignatureError(f"model has no {what} {name!r}") from None


def _family(table: dict, base: str) -> list:
    """The data of a family's members base_0, base_1, ... in a model's table."""
    members = []
    while f"{base}_{len(members)}" in table:
        members.append(table[f"{base}_{len(members)}"])
    if not members:
        raise UnsupportedConstructorError(
            f"symbolic family {base}_* has no concrete members {base}_0, {base}_1, ... in the model"
        )
    return members


_SET_NODES = frozenset(ast.SetExpr.__args__)
_FUNC_NODES = frozenset(ast.FuncExpr.__args__)
# node class -> the class of each child's value, in the order ast.children gives them
_VALUES = {"set_expr": SetData, "func_expr": FuncData}
_SLOTS = {
    c: tuple(_VALUES[k] for _, _, k in steps if k in _VALUES)
    for c, steps in (*ast.SET_FORMS.values(), *ast.FUNC_FORMS.values())
}


def _enter(e) -> tuple:
    """The children e is evaluated from; refusals that come before any child are raised here."""
    t = type(e)
    if t is ast.MeasureThreshold:
        raise UnsupportedConstructorError(
            "measure-threshold sets live on the measure space; they have no finite-model semantics here"
        )
    if t is ast.Section and e.at is None:
        raise UnsupportedConstructorError("sections need a concrete evaluation point '@ atom'")
    if t is ast.EpsSelector:
        raise UnsupportedConstructorError("no finite semantics for EpsSelector")
    return ast.children(e)


def _scalar(f: FuncData, what: str) -> None:
    if f.cod != XREAL:
        raise SignatureError(f"{what} needs extended-real valued operands")


def _iroot(a: int, n: int) -> int:
    """floor(a ** (1/n)) for a >= 0, by integer Newton steps."""
    if a < 2:
        return a
    if n >= a.bit_length():  # 1 <= root < 2, and x ** (n - 1) below would be huge
        return 1
    x = 1 << -(-a.bit_length() // n)  # a power of two at or above the root
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _power(v: XReal, exponent: Fraction, point) -> XReal:
    """v ** exponent as an exact extended real; an irrational power is unsupported."""
    if not v.is_finite:
        return NEG_INF if v == NEG_INF and exponent % 2 else POS_INF
    q = v.fin
    if exponent.denominator == 1:
        return fin(q**exponent.numerator)
    n = exponent.denominator
    if q >= 0:
        num, den = _iroot(q.numerator, n), _iroot(q.denominator, n)
        if num**n == q.numerator and den**n == q.denominator:
            return fin(Fraction(num, den) ** exponent.numerator)
    raise UnsupportedConstructorError(
        f"pow(..., {exponent}) has no exact rational value at {point!r}, where the base is {q}"
    )


def _dot(u, v) -> XReal:
    """The inner product of two values of one shape, nested pairs of extended
    reals: the sum of their entrywise products.  A -inf product makes it
    -inf at any depth of the nesting, and else a +inf one +inf, so one sum
    over all the products, taken on an explicit stack, is the nested one."""
    if isinstance(u, XReal) and isinstance(v, XReal):
        return xreal_prod(u, v)
    products, pairs = [], [(u, v)]
    while pairs:
        u, v = pairs.pop()
        if isinstance(u, XReal) and isinstance(v, XReal):
            products.append(xreal_prod(u, v))
        else:
            (u0, u1), (v0, v1) = u, v
            pairs += ((u1, v1), (u0, v0))
    return xreal_sum(products)


def _vector(c: Carrier) -> bool:
    """Whether c is the XREAL marker or a product of such factors only."""
    return all(s == XREAL for s in _space_names(c))


# One rule per constructor: rule(model, node, *the values of the node's children).


def _named_set(m, e):
    return _named(m.sets, e.name, "set")


def _named_func(m, e):
    return _named(m.funcs, e.name, "function")


def _compl(m, e, s):
    return SetData(s.carrier, frozenset(m.points(s.carrier)) - s.members)


def _finite_join(m, e, *kids):
    if not kids:
        raise SignatureError("a finite union/intersection needs a member")
    for s in kids[1:]:
        if s.carrier != kids[0].carrier:
            raise SignatureError("members of a finite union/intersection must share a carrier")
    join = frozenset.intersection if type(e) is ast.FiniteIntersection else frozenset().union
    return SetData(kids[0].carrier, join(*(s.members for s in kids)))


def _countable_join(m, e):
    parts = _family(m.sets, e.base)
    join = frozenset().union if type(e) is ast.CountableUnion else frozenset.intersection
    return SetData(parts[0].carrier, join(*(s.members for s in parts)))


def _prod(m, e, l, r):
    return SetData(ast.ProductSpace(l.carrier, r.carrier), frozenset((a, b) for a in l.members for b in r.members))


def _proj(m, e, s):
    k = _axis_index(s.carrier, e.axis)
    return SetData(s.carrier.left if k == 1 else s.carrier.right, frozenset(p[k - 1] for p in s.members))


def _img(m, e, s):
    f = _named(m.funcs, e.func, "function")
    return SetData(f.cod, frozenset(f.table[p] for p in s.members if p in f.table))


def _pre(m, e, f, s):
    return SetData(f.dom, frozenset(p for p, v in f.table.items() if v in s.members))


def _section(m, e, s):
    if _axis_index(s.carrier, e.axis) == 1:
        return SetData(s.carrier.right, frozenset(p[1] for p in s.members if p[0] == e.at))
    return SetData(s.carrier.left, frozenset(p[0] for p in s.members if p[1] == e.at))


def _graph(m, e, f):
    return SetData(ast.ProductSpace(f.dom, f.cod), frozenset(f.table.items()))


def _sublevel(m, e, f):
    if f.cod != XREAL:
        raise SignatureError("sublevel sets need an extended-real valued function")
    cmp = _CMP[e.op]
    bound = fin(e.bound)
    return SetData(f.dom, frozenset(p for p, v in f.table.items() if cmp(v, bound)))


def _pair(m, e, l, r):
    table = {p: (v, r.table[p]) for p, v in l.table.items() if p in r.table}
    return FuncData(l.dom, ast.ProductSpace(l.cod, r.cod), table)


def _cyl(m, e, f):
    if not all(type(s) is str for s in _space_names(e.factor)):  # a carrier of model spaces here
        raise UnsupportedConstructorError("cylinder factors must name model spaces in finite evaluation")
    extra = m.points(e.factor)
    return FuncData(ast.ProductSpace(f.dom, e.factor), f.cod, {(p, b): v for p, v in f.table.items() for b in extra})


def _compose(m, e, outer, inner):
    table = {p: outer.table[v] for p, v in inner.table.items() if v in outer.table}
    return FuncData(inner.dom, outer.cod, table)


def _fsection(m, e, f):
    if e.at is None:
        raise UnsupportedConstructorError("function sections need a concrete point '@ atom'")
    if _axis_index(f.dom, e.axis) == 1:
        return FuncData(f.dom.right, f.cod, {p[1]: v for p, v in f.table.items() if p[0] == e.at})
    return FuncData(f.dom.left, f.cod, {p[0]: v for p, v in f.table.items() if p[1] == e.at})


_ARITH = {
    ast.Sum: lambda a, b: xreal_sum([a, b]),
    ast.ProdOp: xreal_prod,
    ast.MinOp: min,
    ast.MaxOp: max,
}


def _arith(m, e, l, r):
    _scalar(l, "pointwise arithmetic"), _scalar(r, "pointwise arithmetic")
    op = _ARITH[type(e)]
    return FuncData(l.dom, XREAL, {p: op(v, r.table[p]) for p, v in l.table.items() if p in r.table})


def _neg(m, e, f):
    _scalar(f, "negation")
    return FuncData(f.dom, XREAL, {p: -v for p, v in f.table.items()})


def _inner(m, e, l, r):
    if l.cod != r.cod or not _vector(l.cod):
        raise SignatureError("inner products need equal codomains of extended-real factors")
    return FuncData(l.dom, XREAL, {p: _dot(v, r.table[p]) for p, v in l.table.items() if p in r.table})


def _pow(m, e, f):
    _scalar(f, "powers")
    return FuncData(f.dom, XREAL, {p: _power(v, e.exponent, p) for p, v in f.table.items()})


def _countable_pick(m, e):
    fams = _family(m.funcs, e.base)
    for f in fams:
        _scalar(f, "countable sup/inf")
    pick = max if type(e) is ast.CountableSup else min
    common = set(fams[0].table).intersection(*(f.table for f in fams[1:]))
    return FuncData(fams[0].dom, XREAL, {p: pick(f.table[p] for f in fams) for p in common})


def _over(m, e, f, d):
    _scalar(f, "inf_over/sup_over")
    dom = _product(f.dom, "inf_over/sup_over")
    if d.carrier != dom:
        raise SignatureError("inf_over/sup_over needs its set on the function's domain")
    direction = "inf" if type(e) is ast.PartialInf else "sup"
    out = sectionwise_optimum((p for p in d.members if p in f.table), f.table, direction)
    return FuncData(dom.left, XREAL, out)


def _integral(m, e, f):
    _scalar(f, "integration")
    k = _named(m.kernels, e.kernel, "kernel")
    if f.dom is not ast.ProductSpace(k.src, k.dst):
        raise SignatureError(f"integral against {e.kernel!r} needs a function on prod({k.src}, {k.dst})")
    ys = m.points(k.dst)
    out = {}
    for x in m.points(k.src):
        section = {y: f.table[x, y] for y in ys if (x, y) in f.table}
        if len(section) == len(ys):  # a partial integrand integrates where its section is whole
            out[x] = integral_lower(section, k.rows[x])
    return FuncData(k.src, XREAL, out)


def _select(m, e, s):
    c = _product(s.carrier, "select")
    return FuncData(c.left, c.right, least_choice(s.members, m.points(c.right)))


def _from_graph(m, e, g, d):
    c = _product(g.carrier, "from_graph")
    out = least_choice(((x, y) for (x, y) in g.members if x in d.members), m.points(c.right))
    return FuncData(c.left, c.right, out)


_RULES = {
    ast.NamedSet: _named_set, ast.NamedFunc: _named_func, ast.Complement: _compl,
    ast.FiniteUnion: _finite_join, ast.FiniteIntersection: _finite_join,
    ast.CountableUnion: _countable_join, ast.CountableIntersection: _countable_join,
    ast.Product: _prod, ast.Projection: _proj, ast.BorelImage: _img, ast.Preimage: _pre,
    ast.Section: _section, ast.Graph: _graph, ast.Sublevel: _sublevel,
    ast.PairFunc: _pair, ast.CylinderExtend: _cyl, ast.Compose: _compose, ast.SectionOf: _fsection,
    ast.Sum: _arith, ast.ProdOp: _arith, ast.MinOp: _arith, ast.MaxOp: _arith,
    ast.Neg: _neg, ast.InnerProduct: _inner, ast.Power: _pow,
    ast.CountableSup: _countable_pick, ast.CountableInf: _countable_pick,
    ast.PartialInf: _over, ast.PartialSup: _over, ast.IntegralKernel: _integral,
    ast.Select: _select, ast.FromGraph: _from_graph,
}


def _combine(m: FiniteModel, e, kids: list) -> SetData | FuncData:
    """e's value from its children's: a set's SetData or a function's FuncData."""
    t = type(e)
    rule = _RULES.get(t)
    if rule is None:
        raise UnsupportedConstructorError(f"no finite semantics for {t.__name__}")
    slots = _SLOTS.get(t) or (SetData,) * len(kids)  # union and inter members are sets
    for i, value in enumerate(kids):
        if type(value) is not slots[i]:  # a child of the other kind
            raise UnsupportedConstructorError(f"no finite semantics for {type(ast.children(e)[i]).__name__}")
    return rule(m, e, *kids)


def evaluate(e, m: FiniteModel) -> SetData | FuncData:
    """The value of e on m, in one walk, children first: a set expression's
    SetData (its members on their carrier) or a function expression's FuncData."""
    return ast.fold(e, partial(_combine, m), _enter)


def eval_set(e: ast.SetExpr, m: FiniteModel) -> frozenset:
    """The subset denoted by e, as a frozenset of points."""
    if type(e) not in _SET_NODES:
        raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")
    return evaluate(e, m).members


def func_data(e: ast.FuncExpr, m: FiniteModel) -> FuncData:
    """Evaluate a function expression to an explicit table.

    Results of partial constructors (inf_over/sup_over, from_graph, select)
    are defined only where the underlying picture provides values; their
    tables are partial and downstream nodes evaluate over the defined points.
    """
    if type(e) not in _FUNC_NODES:
        raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")
    return evaluate(e, m)


def measure_of(m: FiniteModel, measure: str, subset: frozenset) -> Fraction:
    """Mass a named measure assigns to a subset of its space's atoms."""
    mm = m.measures[measure]
    return sum((mm.weights[a] for a in subset), Fraction(0))
