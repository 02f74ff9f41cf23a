"""Exact semantics on finite models.

A model assigns finite atom sets to space names and explicit data to set,
function, measure, and kernel names.  Points of a product carrier are
nested pairs mirroring the binary product structure; all scalar values are
extended reals with exact rational finite parts.

The evaluators interpret the symbolic AST concretely.  Constructors whose
meaning is inherently about the hierarchy (measure thresholds, symbolic
families without concrete members, the selection operators) are rejected
with UnsupportedConstructorError; countable families evaluate over the
concretely declared members base_0, base_1, ... .
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import ast
from .errors import FormatError, SignatureError, UnsupportedConstructorError
from .selectors import least_choice, sectionwise_optimum
from .xreal import (
    NEG_INF,
    POS_INF,
    XReal,
    fin,
    format_xreal,
    integral_lower,
    parse_xreal,
    xreal_prod,
    xreal_sum,
)


@dataclass(frozen=True)
class Prod:
    left: "Carrier"
    right: "Carrier"


Carrier = "str | Prod"
XREAL = "xreal"  # codomain marker for scalar-valued tables


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
        """All points of a carrier, left-major for products."""
        if isinstance(carrier, str):
            try:
                return list(self.spaces[carrier])
            except KeyError:
                raise SignatureError(f"unknown space {carrier!r}") from None
        return [(a, b) for a in self.points(carrier.left) for b in self.points(carrier.right)]

    def validate(self) -> None:
        for name, atoms in self.spaces.items():
            if name == XREAL:
                raise FormatError(f"space name {XREAL!r} is reserved for scalar codomains")
            if len(set(atoms)) != len(atoms) or not atoms:
                raise FormatError(f"space {name!r} must list distinct atoms, at least one")
        for name, s in self.sets.items():
            pts = set(self.points(s.carrier))
            if not s.members <= pts:
                raise FormatError(f"set {name!r} has members outside its carrier")
        for name, f in self.funcs.items():
            pts = set(self.points(f.dom))
            if set(f.table) != pts:
                raise FormatError(f"function {name!r} must be total on its domain")
            if f.cod != XREAL:
                cod_pts = set(self.points(f.cod))
                if not set(f.table.values()) <= cod_pts:
                    raise FormatError(f"function {name!r} has values outside its codomain")
            elif not all(isinstance(v, XReal) for v in f.table.values()):
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


# --- carrier notation ----------------------------------------------------------


def format_carrier(c: Carrier) -> str:
    if isinstance(c, str):
        return c
    return f"prod({format_carrier(c.left)}, {format_carrier(c.right)})"


def parse_carrier(text: str) -> Carrier:
    pos = 0

    def ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def term() -> Carrier:
        nonlocal pos
        ws()
        if text.startswith("prod(", pos):
            pos += len("prod(")
            left = term()
            ws()
            if not text.startswith(",", pos):
                raise FormatError(f"bad carrier {text!r}: expected ','")
            pos += 1
            right = term()
            ws()
            if not text.startswith(")", pos):
                raise FormatError(f"bad carrier {text!r}: expected ')'")
            pos += 1
            return Prod(left, right)
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        if start == pos:
            raise FormatError(f"bad carrier {text!r}: expected a space name")
        return text[start:pos]

    out = term()
    ws()
    if pos != len(text):
        raise FormatError(f"bad carrier {text!r}: trailing text")
    return out


def _axis_index(carrier: Carrier, axis) -> int:
    if not isinstance(carrier, Prod):
        raise SignatureError(f"axis selection needs a product carrier, got {format_carrier(carrier)}")
    if isinstance(axis, int):
        if axis in (1, 2):
            return axis
        raise SignatureError(f"axis must be 1 or 2, got {axis}")
    hits = [i for i, side in ((1, carrier.left), (2, carrier.right)) if side == axis]
    if not hits:
        raise SignatureError(f"space {axis!r} is not a factor of {format_carrier(carrier)}")
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
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational {text!r}") from None


def model_to_json(m: FiniteModel) -> dict:
    return {
        "schema": "projcalc/1",
        "spaces": {k: list(v) for k, v in sorted(m.spaces.items())},
        "sets": {
            k: {
                "carrier": format_carrier(s.carrier),
                "members": sorted((_point_to_json(p) for p in s.members), key=json.dumps),
            }
            for k, s in sorted(m.sets.items())
        },
        "funcs": {
            k: {
                "dom": format_carrier(f.dom),
                "cod": XREAL if f.cod == XREAL else format_carrier(f.cod),
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
            m.spaces[name] = tuple(str(a) for a in atoms)
        for name, s in obj.get("sets", {}).items():
            m.sets[name] = SetData(
                parse_carrier(s["carrier"]),
                frozenset(_point_from_json(p) for p in s["members"]),
            )
        for name, f in obj.get("funcs", {}).items():
            cod = f["cod"]
            cod = XREAL if cod == XREAL else parse_carrier(cod)
            table = {}
            for entry in f["table"]:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise FormatError(f"bad table entry {entry!r}")
                p = _point_from_json(entry[0])
                v = parse_xreal(entry[1]) if cod == XREAL else _point_from_json(entry[1])
                table[p] = v
            m.funcs[name] = FuncData(parse_carrier(f["dom"]), cod, table)
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
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model: {exc!r}") from None
    m.validate()
    return m


def dumps_model(m: FiniteModel) -> str:
    return json.dumps(model_to_json(m), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def loads_model(text: str) -> FiniteModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise FormatError("malformed JSON: nested too deeply") from None
    except ValueError:  # an integer past int()'s limit on digits
        raise FormatError("malformed JSON: an integer has too many digits") from None
    return model_from_json(obj)


# --- evaluation ----------------------------------------------------------------


_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _family_members(m: FiniteModel, base: str, kind: str) -> list[str]:
    table = m.sets if kind == "set" else m.funcs
    names = []
    i = 0
    while f"{base}_{i}" in table:
        names.append(f"{base}_{i}")
        i += 1
    if not names:
        raise UnsupportedConstructorError(
            f"symbolic family {base}_* has no concrete members {base}_0, {base}_1, ... in the model"
        )
    return names


def set_carrier_of(e: ast.SetExpr, m: FiniteModel) -> Carrier:
    """Carrier of a set expression over the model's spaces."""
    if isinstance(e, ast.NamedSet):
        try:
            return m.sets[e.name].carrier
        except KeyError:
            raise SignatureError(f"model has no set {e.name!r}") from None
    if isinstance(e, ast.Complement):
        return set_carrier_of(e.operand, m)
    if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
        return set_carrier_of(e.members[0], m)
    if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
        return m.sets[_family_members(m, e.base, "set")[0]].carrier
    if isinstance(e, ast.Product):
        return Prod(set_carrier_of(e.left, m), set_carrier_of(e.right, m))
    if isinstance(e, ast.Projection):
        c = set_carrier_of(e.operand, m)
        return c.left if _axis_index(c, e.axis) == 1 else c.right
    if isinstance(e, ast.BorelImage):
        return m.funcs[e.func].cod
    if isinstance(e, ast.Preimage):
        return func_data(e.func, m).dom
    if isinstance(e, ast.Section):
        c = set_carrier_of(e.operand, m)
        return c.right if _axis_index(c, e.axis) == 1 else c.left
    if isinstance(e, ast.Graph):
        f = func_data(e.func, m)
        return Prod(f.dom, f.cod)
    if isinstance(e, ast.Sublevel):
        return func_data(e.func, m).dom
    raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")


def eval_set(e: ast.SetExpr, m: FiniteModel) -> frozenset:
    """The subset denoted by e, as a frozenset of points."""
    if isinstance(e, ast.NamedSet):
        try:
            return m.sets[e.name].members
        except KeyError:
            raise SignatureError(f"model has no set {e.name!r}") from None
    if isinstance(e, ast.Complement):
        pts = frozenset(m.points(set_carrier_of(e.operand, m)))
        return pts - eval_set(e.operand, m)
    if isinstance(e, ast.FiniteUnion):
        return frozenset().union(*(eval_set(x, m) for x in e.members))
    if isinstance(e, ast.FiniteIntersection):
        parts = [eval_set(x, m) for x in e.members]
        return frozenset.intersection(*parts)
    if isinstance(e, ast.CountableUnion):
        names = _family_members(m, e.base, "set")
        return frozenset().union(*(m.sets[n].members for n in names))
    if isinstance(e, ast.CountableIntersection):
        names = _family_members(m, e.base, "set")
        return frozenset.intersection(*(m.sets[n].members for n in names))
    if isinstance(e, ast.Product):
        return frozenset((a, b) for a in eval_set(e.left, m) for b in eval_set(e.right, m))
    if isinstance(e, ast.Projection):
        k = _axis_index(set_carrier_of(e.operand, m), e.axis)
        return frozenset(p[k - 1] for p in eval_set(e.operand, m))
    if isinstance(e, ast.BorelImage):
        f = m.funcs[e.func]
        members = eval_set(e.operand, m)
        return frozenset(f.table[p] for p in members if p in f.table)
    if isinstance(e, ast.Preimage):
        f = func_data(e.func, m)
        target = eval_set(e.operand, m)
        return frozenset(p for p, v in f.table.items() if v in target)
    if isinstance(e, ast.Section):
        if e.at is None:
            raise UnsupportedConstructorError("sections need a concrete evaluation point '@ atom'")
        k = _axis_index(set_carrier_of(e.operand, m), e.axis)
        members = eval_set(e.operand, m)
        if k == 1:
            return frozenset(p[1] for p in members if p[0] == e.at)
        return frozenset(p[0] for p in members if p[1] == e.at)
    if isinstance(e, ast.Graph):
        f = func_data(e.func, m)
        return frozenset((p, v) for p, v in f.table.items())
    if isinstance(e, ast.Sublevel):
        f = func_data(e.func, m)
        if f.cod != XREAL:
            raise SignatureError("sublevel sets need an extended-real valued function")
        cmp = _CMP[e.op]
        bound = fin(e.bound)
        return frozenset(p for p, v in f.table.items() if cmp(v, bound))
    if isinstance(e, ast.MeasureThreshold):
        raise UnsupportedConstructorError(
            "measure-threshold sets live on the measure space; they have no finite-model semantics here"
        )
    raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")


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


def _exact_power(q: Fraction, exponent: Fraction, point) -> Fraction:
    """q ** exponent as an exact rational; an irrational power is unsupported."""
    if exponent.denominator == 1:
        return q ** exponent.numerator
    n = exponent.denominator
    if q >= 0:
        num, den = _iroot(q.numerator, n), _iroot(q.denominator, n)
        if num**n == q.numerator and den**n == q.denominator:
            return Fraction(num, den) ** exponent.numerator
    raise UnsupportedConstructorError(
        f"pow(..., {exponent}) has no exact rational value at {point!r}, where the base is {q}"
    )


def _dot(u, v) -> XReal:
    if isinstance(u, XReal) and isinstance(v, XReal):
        return xreal_prod(u, v)
    return xreal_sum([_dot(u[0], v[0]), _dot(u[1], v[1])])


def func_data(e: ast.FuncExpr, m: FiniteModel) -> FuncData:
    """Evaluate a function expression to an explicit table.

    Results of partial constructors (inf_over/sup_over, from_graph, select)
    are defined only where the underlying picture provides values; their
    tables are partial and downstream nodes evaluate over the defined points.
    """
    if isinstance(e, ast.NamedFunc):
        try:
            return m.funcs[e.name]
        except KeyError:
            raise SignatureError(f"model has no function {e.name!r}") from None
    if isinstance(e, ast.PairFunc):
        l, r = func_data(e.left, m), func_data(e.right, m)
        common = [p for p in l.table if p in r.table]
        return FuncData(l.dom, Prod(l.cod, r.cod), {p: (l.table[p], r.table[p]) for p in common})
    if isinstance(e, ast.CylinderExtend):
        f = func_data(e.func, m)
        factor = e.factor  # a model space name or carrier in this context
        if isinstance(factor, (str, Prod)):
            extra = m.points(factor)
        else:
            raise UnsupportedConstructorError(
                "cylinder factors must name model spaces in finite evaluation"
            )
        return FuncData(
            Prod(f.dom, factor),
            f.cod,
            {(p, b): v for p, v in f.table.items() for b in extra},
        )
    if isinstance(e, ast.Compose):
        outer, inner = func_data(e.outer, m), func_data(e.inner, m)
        return FuncData(
            inner.dom,
            outer.cod,
            {p: outer.table[v] for p, v in inner.table.items() if v in outer.table},
        )
    if isinstance(e, ast.SectionOf):
        f = func_data(e.func, m)
        if e.at is None:
            raise UnsupportedConstructorError("function sections need a concrete point '@ atom'")
        k = _axis_index(f.dom, e.axis)
        if k == 1:
            return FuncData(f.dom.right, f.cod, {p[1]: v for p, v in f.table.items() if p[0] == e.at})
        return FuncData(f.dom.left, f.cod, {p[0]: v for p, v in f.table.items() if p[1] == e.at})
    if isinstance(e, (ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp)):
        l, r = func_data(e.left, m), func_data(e.right, m)
        _scalar(l, "pointwise arithmetic"), _scalar(r, "pointwise arithmetic")
        ops = {
            ast.Sum: lambda a, b: xreal_sum([a, b]),
            ast.ProdOp: xreal_prod,
            ast.MinOp: min,
            ast.MaxOp: max,
        }
        op = ops[type(e)]
        common = [p for p in l.table if p in r.table]
        return FuncData(l.dom, XREAL, {p: op(l.table[p], r.table[p]) for p in common})
    if isinstance(e, ast.Neg):
        f = func_data(e.operand, m)
        _scalar(f, "negation")
        return FuncData(f.dom, XREAL, {p: -v for p, v in f.table.items()})
    if isinstance(e, ast.InnerProduct):
        l, r = func_data(e.left, m), func_data(e.right, m)
        common = [p for p in l.table if p in r.table]
        return FuncData(l.dom, XREAL, {p: _dot(l.table[p], r.table[p]) for p in common})
    if isinstance(e, ast.Power):
        f = func_data(e.operand, m)
        _scalar(f, "powers")
        out = {}
        for p, v in f.table.items():
            if v == POS_INF:
                out[p] = POS_INF
            elif v == NEG_INF:
                out[p] = NEG_INF if e.exponent % 2 else POS_INF
            else:
                out[p] = fin(_exact_power(v.fin, e.exponent, p))
        return FuncData(f.dom, XREAL, out)
    if isinstance(e, (ast.CountableSup, ast.CountableInf)):
        names = _family_members(m, e.base, "func")
        fams = [m.funcs[n] for n in names]
        for f in fams:
            _scalar(f, "countable sup/inf")
        pick = max if isinstance(e, ast.CountableSup) else min
        common = set(fams[0].table)
        for f in fams[1:]:
            common &= set(f.table)
        return FuncData(fams[0].dom, XREAL, {p: pick(f.table[p] for f in fams) for p in common})
    if isinstance(e, (ast.PartialInf, ast.PartialSup)):
        f = func_data(e.func, m)
        _scalar(f, "inf_over/sup_over")
        direction = "inf" if isinstance(e, ast.PartialInf) else "sup"
        out = sectionwise_optimum(eval_set(e.dom, m), f.table, direction)
        return FuncData(f.dom.left if isinstance(f.dom, Prod) else f.dom, XREAL, out)
    if isinstance(e, ast.IntegralKernel):
        f = func_data(e.func, m)
        _scalar(f, "integration")
        k = m.kernels[e.kernel]
        out = {}
        for x in m.spaces[k.src]:
            section = {y: f.table[(x, y)] for y in m.spaces[k.dst]}
            out[x] = integral_lower(section, k.rows[x])
        return FuncData(k.src, XREAL, out)
    if isinstance(e, ast.Select):
        members = eval_set(e.operand, m)
        carrier = set_carrier_of(e.operand, m)
        return FuncData(carrier.left, carrier.right, least_choice(members, m.points(carrier.right)))
    if isinstance(e, ast.FromGraph):
        g = eval_set(e.graph, m)
        dom_set = eval_set(e.dom, m)
        carrier = set_carrier_of(e.graph, m)
        out = least_choice(((x, y) for (x, y) in g if x in dom_set), m.points(carrier.right))
        return FuncData(carrier.left, carrier.right, out)
    raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")


def measure_of(m: FiniteModel, measure: str, subset: frozenset) -> Fraction:
    """Mass a named measure assigns to a subset of its space's atoms."""
    mm = m.measures[measure]
    return sum((mm.weights[a] for a in subset), Fraction(0))
