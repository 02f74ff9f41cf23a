"""Name environment and carrier-space checking.

The binder walks a parsed program once, registering declarations and
validating every expression's carrier spaces.  The same carrier functions
are reused by the inference engine and the finite-model evaluator, so a
bound program can be assumed well-typed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import ResolutionError, SignatureError
from .formatter import format_space


@dataclass
class SetEntry:
    space: ast.SpaceExpr
    cls: object | None = None  # PointClass for declarations
    expr: ast.SetExpr | None = None  # for let-bindings


@dataclass
class FuncEntry:
    dom: ast.SpaceExpr
    cod: ast.SpaceExpr
    annot: ast.FuncAnnot | None = None
    expr: ast.FuncExpr | None = None
    domain_set: str | None = None
    nonneg: bool = False


@dataclass
class KernelEntry:
    src: ast.SpaceExpr
    dst: ast.SpaceExpr
    level: int


@dataclass
class Env:
    spaces: dict[str, ast.SpaceExpr] = field(default_factory=dict)
    sets: dict[str, SetEntry] = field(default_factory=dict)
    funcs: dict[str, FuncEntry] = field(default_factory=dict)
    kernels: dict[str, KernelEntry] = field(default_factory=dict)

    def declare(self, name: str, kind: str, entry) -> None:
        if name in self.spaces or name in self.sets or name in self.funcs or name in self.kernels:
            raise ResolutionError(f"duplicate identifier {name!r}")
        getattr(self, kind)[name] = entry

    def set_entry(self, name: str) -> SetEntry:
        try:
            return self.sets[name]
        except KeyError:
            raise ResolutionError(f"undeclared set {name!r}") from None

    def func_entry(self, name: str) -> FuncEntry:
        try:
            return self.funcs[name]
        except KeyError:
            raise ResolutionError(f"undeclared function {name!r}") from None

    def kernel_entry(self, name: str) -> KernelEntry:
        try:
            return self.kernels[name]
        except KeyError:
            raise ResolutionError(f"undeclared kernel {name!r}") from None


def is_numeric(space: ast.SpaceExpr) -> bool:
    """Scalar spaces that sublevel sets and lattice ops make sense over."""
    return isinstance(space, (ast.Reals, ast.XRealLine))


def is_real_vector(space: ast.SpaceExpr) -> bool:
    if isinstance(space, ast.Reals):
        return True
    if isinstance(space, ast.ProductSpace):
        return is_real_vector(space.left) and is_real_vector(space.right)
    return False


def resolve_axis(space: ast.SpaceExpr, axis: ast.Axis, env: Env) -> int:
    if not isinstance(space, ast.ProductSpace):
        raise SignatureError(f"axis selection needs a product carrier, got {format_space(space)}")
    if isinstance(axis, int):
        if axis in (1, 2):
            return axis
        raise SignatureError(f"axis must be 1 or 2, got {axis}")
    if axis not in env.spaces:
        raise ResolutionError(f"undeclared space {axis!r} used as axis")
    target = env.spaces[axis]
    hits = [i for i, comp in ((1, space.left), (2, space.right)) if comp == target]
    if not hits:
        raise SignatureError(f"space {axis!r} is not a factor of the carrier")
    if len(hits) == 2:
        raise SignatureError(f"axis {axis!r} is ambiguous on a square product; use 1 or 2")
    return hits[0]


def family_carrier(base: str, carrier: ast.SpaceExpr | None, env: Env, want: str) -> ast.SpaceExpr:
    """Carrier of a symbolic indexed family: explicit clause or member 0."""
    if carrier is not None:
        return carrier
    name = f"{base}_0"
    if want == "set" and name in env.sets:
        return env.sets[name].space
    if want == "func" and name in env.funcs:
        return env.funcs[name].dom
    raise SignatureError(
        f"cannot infer the carrier of family {base}_*: declare {name} or add an 'in <space>' clause"
    )


def set_carrier(e: ast.SetExpr, env: Env) -> ast.SpaceExpr:
    """Carrier space of a set expression; raises on any mismatch."""
    if isinstance(e, ast.NamedSet):
        return env.set_entry(e.name).space
    if isinstance(e, ast.Complement):
        return set_carrier(e.operand, env)
    if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
        # no comprehension here: it would add a frame per nesting level
        spaces = []
        for m in e.members:
            spaces.append(set_carrier(m, env))
        if any(s != spaces[0] for s in spaces):
            raise SignatureError("members of a finite union/intersection must share a carrier")
        return spaces[0]
    if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
        return family_carrier(e.base, e.carrier, env, "set")
    if isinstance(e, ast.Product):
        return ast.ProductSpace(set_carrier(e.left, env), set_carrier(e.right, env))
    if isinstance(e, ast.Projection):
        space = set_carrier(e.operand, env)
        k = resolve_axis(space, e.axis, env)
        return space.left if k == 1 else space.right
    if isinstance(e, ast.BorelImage):
        entry = env.func_entry(e.func)
        if entry.annot is None or entry.annot.level != 1:
            raise SignatureError(f"img[{e.func}] needs a level-1 (Borel) function")
        if entry.dom != set_carrier(e.operand, env):
            raise SignatureError(f"img[{e.func}]: function domain differs from operand carrier")
        return entry.cod
    if isinstance(e, ast.Preimage):
        dom, cod = func_signature(e.func, env)
        if cod != set_carrier(e.operand, env):
            raise SignatureError("pre[f](B): codomain of f differs from the carrier of B")
        return dom
    if isinstance(e, ast.Section):
        space = set_carrier(e.operand, env)
        k = resolve_axis(space, e.axis, env)
        return space.right if k == 1 else space.left
    if isinstance(e, ast.Graph):
        dom, cod = func_signature(e.func, env)
        return ast.ProductSpace(dom, cod)
    if isinstance(e, ast.Sublevel):
        dom, cod = func_signature(e.func, env)
        if not is_numeric(cod):
            raise SignatureError("sublevel sets need a real or extended-real valued function")
        return dom
    if isinstance(e, ast.MeasureThreshold):
        return ast.MeasureSpace(set_carrier(e.operand, env))
    raise TypeError(f"not a set expression: {e!r}")


def func_signature(e: ast.FuncExpr, env: Env) -> tuple[ast.SpaceExpr, ast.SpaceExpr]:
    """(domain, codomain) of a function expression; raises on mismatch."""
    if isinstance(e, ast.NamedFunc):
        entry = env.func_entry(e.name)
        return entry.dom, entry.cod
    if isinstance(e, ast.PairFunc):
        ld, lc = func_signature(e.left, env)
        rd, rc = func_signature(e.right, env)
        if ld != rd:
            raise SignatureError("pair(f, g): domains differ")
        return ld, ast.ProductSpace(lc, rc)
    if isinstance(e, ast.CylinderExtend):
        d, c = func_signature(e.func, env)
        return ast.ProductSpace(d, e.factor), c
    if isinstance(e, ast.Compose):
        od, oc = func_signature(e.outer, env)
        idm, ic = func_signature(e.inner, env)
        if ic != od:
            raise SignatureError("compose(f, g): codomain of g differs from domain of f")
        return idm, oc
    if isinstance(e, ast.SectionOf):
        d, c = func_signature(e.func, env)
        k = resolve_axis(d, e.axis, env)
        return (d.right if k == 1 else d.left), c
    if isinstance(e, (ast.Sum, ast.Neg)):
        # no comprehension here: it would add a frame per nesting level
        sigs = []
        for f in ((e.operand,) if isinstance(e, ast.Neg) else (e.left, e.right)):
            sigs.append(func_signature(f, env))
        if any(s[0] != sigs[0][0] for s in sigs):
            raise SignatureError("pointwise arithmetic needs a shared domain")
        cods = [s[1] for s in sigs]
        if all(c == cods[0] and is_real_vector(c) for c in cods):
            return sigs[0][0], cods[0]
        if all(is_numeric(c) for c in cods):
            merged = ast.XRealLine() if any(isinstance(c, ast.XRealLine) for c in cods) else ast.Reals()
            return sigs[0][0], merged
        raise SignatureError("sum/neg needs matching real-vector or scalar codomains")
    if isinstance(e, (ast.ProdOp, ast.MinOp, ast.MaxOp)):
        ld, lc = func_signature(e.left, env)
        rd, rc = func_signature(e.right, env)
        if ld != rd:
            raise SignatureError("pointwise arithmetic needs a shared domain")
        if not (is_numeric(lc) and is_numeric(rc)):
            raise SignatureError("mul/min/max need scalar codomains")
        merged = ast.XRealLine() if any(isinstance(c, ast.XRealLine) for c in (lc, rc)) else ast.Reals()
        return ld, merged
    if isinstance(e, ast.InnerProduct):
        ld, lc = func_signature(e.left, env)
        rd, rc = func_signature(e.right, env)
        if ld != rd or lc != rc or not is_real_vector(lc):
            raise SignatureError("inner(f, g) needs a shared domain and equal real-vector codomains")
        return ld, ast.Reals()
    if isinstance(e, ast.Power):
        if e.exponent <= 0:
            raise SignatureError("pow exponent must be positive")
        d, c = func_signature(e.operand, env)
        if not is_numeric(c):
            raise SignatureError("pow needs a scalar codomain")
        return d, c
    if isinstance(e, (ast.CountableSup, ast.CountableInf)):
        dom = family_carrier(e.base, e.carrier, env, "func")
        return dom, ast.XRealLine()
    if isinstance(e, (ast.PartialInf, ast.PartialSup)):
        d, c = func_signature(e.func, env)
        if not isinstance(d, ast.ProductSpace):
            raise SignatureError("inf_over/sup_over need a function on a product space")
        if not is_numeric(c):
            raise SignatureError("inf_over/sup_over need a scalar codomain")
        if set_carrier(e.dom, env) != d:
            raise SignatureError("inf_over/sup_over: constraint set lives on a different product")
        return d.left, ast.XRealLine()
    if isinstance(e, ast.IntegralKernel):
        d, c = func_signature(e.func, env)
        k = env.kernel_entry(e.kernel)
        if not isinstance(d, ast.ProductSpace) or d != ast.ProductSpace(k.src, k.dst):
            raise SignatureError("integral(f, q): f must live on the product of the kernel's spaces")
        if not is_numeric(c):
            raise SignatureError("integral needs a scalar integrand")
        return k.src, ast.XRealLine()
    if isinstance(e, ast.Select):
        space = set_carrier(e.operand, env)
        if not isinstance(space, ast.ProductSpace):
            raise SignatureError("select(A) needs A on a product space")
        return space.left, space.right
    if isinstance(e, ast.EpsSelector):
        if e.eps <= 0:
            raise SignatureError("eps must be positive")
        space = set_carrier(e.dom, env)
        if not isinstance(space, ast.ProductSpace):
            raise SignatureError("eps selection needs a constraint set on a product space")
        fd, fc = func_signature(e.func, env)
        if fd != space:
            raise SignatureError("eps selection: objective domain differs from the constraint carrier")
        if not is_numeric(fc):
            raise SignatureError("eps selection needs a scalar objective")
        return space.left, space.right
    if isinstance(e, ast.FromGraph):
        g = set_carrier(e.graph, env)
        if not isinstance(g, ast.ProductSpace):
            raise SignatureError("from_graph(G, D): G must live on a product space")
        if set_carrier(e.dom, env) != g.left:
            raise SignatureError("from_graph(G, D): D must live on the first factor of G's carrier")
        return g.left, g.right
    raise TypeError(f"not a function expression: {e!r}")


def is_nonneg(e: ast.FuncExpr, env: Env) -> bool:
    """Conservative syntactic nonnegativity, seeded by declarations."""
    if isinstance(e, ast.NamedFunc):
        return env.func_entry(e.name).nonneg
    if isinstance(e, ast.Power):
        return is_nonneg(e.operand, env)
    if isinstance(e, (ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp)):
        return is_nonneg(e.left, env) and is_nonneg(e.right, env)
    if isinstance(e, (ast.CylinderExtend, ast.SectionOf)):
        return is_nonneg(e.func, env)
    if isinstance(e, ast.Compose):
        return is_nonneg(e.outer, env)
    return False


def bind(program: ast.Program) -> Env:
    """Register declarations in order and type-check every expression."""
    env = Env()
    for stmt in program.statements:
        if isinstance(stmt, ast.SpaceDecl):
            env.declare(stmt.name, "spaces", stmt.space)
        elif isinstance(stmt, ast.SetDecl):
            env.declare(stmt.name, "sets", SetEntry(space=stmt.space, cls=stmt.cls))
        elif isinstance(stmt, ast.FuncDecl):
            if stmt.domain_set is not None:
                dentry = env.set_entry(stmt.domain_set)
                if dentry.space != stmt.dom:
                    raise SignatureError(
                        f"declared domain set {stmt.domain_set!r} lives on a different space"
                    )
            env.declare(
                stmt.name,
                "funcs",
                FuncEntry(
                    dom=stmt.dom,
                    cod=stmt.cod,
                    annot=stmt.annot,
                    domain_set=stmt.domain_set,
                    nonneg=stmt.nonneg,
                ),
            )
        elif isinstance(stmt, ast.KernelDecl):
            env.declare(stmt.name, "kernels", KernelEntry(src=stmt.src, dst=stmt.dst, level=stmt.level))
        elif isinstance(stmt, ast.LetSet):
            space = set_carrier(stmt.expr, env)
            env.declare(stmt.name, "sets", SetEntry(space=space, expr=stmt.expr))
        elif isinstance(stmt, ast.LetFunc):
            # a let's signature and sign are computed once, here; every use
            # of the name reads them back from its entry
            dom, cod = func_signature(stmt.expr, env)
            entry = FuncEntry(dom=dom, cod=cod, expr=stmt.expr, nonneg=is_nonneg(stmt.expr, env))
            env.declare(stmt.name, "funcs", entry)
        elif isinstance(stmt, ast.AssertClass):
            set_carrier(stmt.expr, env)
        elif isinstance(stmt, ast.AssertLevel):
            func_signature(stmt.expr, env)
        elif isinstance(stmt, ast.AssertUM):
            if stmt.name not in env.sets and stmt.name not in env.funcs:
                raise ResolutionError(f"undeclared subject {stmt.name!r} in um assertion")
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return env
