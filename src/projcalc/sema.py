"""Name environment and carrier-space checking.

The binder walks a parsed program once, registering declarations and
validating every expression's carrier spaces.  The inference engine reuses
the same carrier functions, so a bound program can be assumed well-typed
downstream.  The finite-model evaluator works out carriers of its own, over
a model's spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import ast
from .errors import ResolutionError, SignatureError
from .formatter import format_space


@dataclass(frozen=True)
class SetEntry:
    space: ast.SpaceExpr
    cls: object | None = None  # PointClass for declarations
    expr: ast.SetExpr | None = None  # for let-bindings


@dataclass(frozen=True)
class FuncEntry:
    dom: ast.SpaceExpr
    cod: ast.SpaceExpr
    annot: ast.FuncAnnot | None = None
    expr: ast.FuncExpr | None = None
    domain_set: str | None = None
    nonneg: bool = False


@dataclass(frozen=True)
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
    """Reals or a product of real vector spaces; each distinct factor is looked at once."""
    stack, seen = [space], set()
    while stack:
        s = stack.pop()
        if isinstance(s, ast.ProductSpace) and s not in seen:
            seen.add(s)
            stack += s.left, s.right
        elif not isinstance(s, (ast.Reals, ast.ProductSpace)):
            return False
    return True


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


def signature(e, env: Env):
    """Carrier of set expression e, or (domain, codomain) of function expression e."""
    return ast.fold(e, partial(_typed, env))


def _typed(env: Env, e, kids: list):
    """e's signature from its children's: a mismatch inside a child is raised first."""
    if isinstance(e, ast.NamedSet):
        return env.set_entry(e.name).space
    if isinstance(e, ast.Complement):
        return kids[0]
    if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
        if any(s != kids[0] for s in kids):
            raise SignatureError("members of a finite union/intersection must share a carrier")
        return kids[0]
    if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
        return family_carrier(e.base, e.carrier, env, "set")
    if isinstance(e, ast.Product):
        return ast.ProductSpace(kids[0], kids[1])
    if isinstance(e, ast.Projection):
        space = kids[0]
        k = resolve_axis(space, e.axis, env)
        return space.left if k == 1 else space.right
    if isinstance(e, ast.BorelImage):
        entry = env.func_entry(e.func)
        if entry.annot is None or entry.annot.level != 1:
            raise SignatureError(f"img[{e.func}] needs a level-1 (Borel) function")
        if entry.dom != kids[0]:
            raise SignatureError(f"img[{e.func}]: function domain differs from operand carrier")
        return entry.cod
    if isinstance(e, ast.Preimage):
        (dom, cod), space = kids
        if cod != space:
            raise SignatureError("pre[f](B): codomain of f differs from the carrier of B")
        return dom
    if isinstance(e, ast.Section):
        space = kids[0]
        k = resolve_axis(space, e.axis, env)
        return space.right if k == 1 else space.left
    if isinstance(e, ast.Graph):
        dom, cod = kids[0]
        return ast.ProductSpace(dom, cod)
    if isinstance(e, ast.Sublevel):
        dom, cod = kids[0]
        if not is_numeric(cod):
            raise SignatureError("sublevel sets need a real or extended-real valued function")
        return dom
    if isinstance(e, ast.MeasureThreshold):
        return ast.MeasureSpace(kids[0])
    if isinstance(e, ast.NamedFunc):
        entry = env.func_entry(e.name)
        return entry.dom, entry.cod
    if isinstance(e, ast.PairFunc):
        (ld, lc), (rd, rc) = kids
        if ld != rd:
            raise SignatureError("pair(f, g): domains differ")
        return ld, ast.ProductSpace(lc, rc)
    if isinstance(e, ast.CylinderExtend):
        d, c = kids[0]
        return ast.ProductSpace(d, e.factor), c
    if isinstance(e, ast.Compose):
        (od, oc), (idm, ic) = kids
        if ic != od:
            raise SignatureError("compose(f, g): codomain of g differs from domain of f")
        return idm, oc
    if isinstance(e, ast.SectionOf):
        d, c = kids[0]
        k = resolve_axis(d, e.axis, env)
        return (d.right if k == 1 else d.left), c
    if isinstance(e, (ast.Sum, ast.Neg)):
        if any(s[0] != kids[0][0] for s in kids):
            raise SignatureError("pointwise arithmetic needs a shared domain")
        cods = [s[1] for s in kids]
        if all(c == cods[0] and is_real_vector(c) for c in cods):
            return kids[0][0], cods[0]
        if all(is_numeric(c) for c in cods):
            merged = ast.XRealLine() if any(isinstance(c, ast.XRealLine) for c in cods) else ast.Reals()
            return kids[0][0], merged
        raise SignatureError("sum/neg needs matching real-vector or scalar codomains")
    if isinstance(e, (ast.ProdOp, ast.MinOp, ast.MaxOp)):
        (ld, lc), (rd, rc) = kids
        if ld != rd:
            raise SignatureError("pointwise arithmetic needs a shared domain")
        if not (is_numeric(lc) and is_numeric(rc)):
            raise SignatureError("mul/min/max need scalar codomains")
        merged = ast.XRealLine() if any(isinstance(c, ast.XRealLine) for c in (lc, rc)) else ast.Reals()
        return ld, merged
    if isinstance(e, ast.InnerProduct):
        (ld, lc), (rd, rc) = kids
        if ld != rd or lc != rc or not is_real_vector(lc):
            raise SignatureError("inner(f, g) needs a shared domain and equal real-vector codomains")
        return ld, ast.Reals()
    if isinstance(e, ast.Power):
        if e.exponent <= 0:
            raise SignatureError("pow exponent must be positive")
        d, c = kids[0]
        if not is_numeric(c):
            raise SignatureError("pow needs a scalar codomain")
        return d, c
    if isinstance(e, (ast.CountableSup, ast.CountableInf)):
        dom = family_carrier(e.base, e.carrier, env, "func")
        return dom, ast.XRealLine()
    if isinstance(e, (ast.PartialInf, ast.PartialSup)):
        (d, c), space = kids
        if not isinstance(d, ast.ProductSpace):
            raise SignatureError("inf_over/sup_over need a function on a product space")
        if not is_numeric(c):
            raise SignatureError("inf_over/sup_over need a scalar codomain")
        if space != d:
            raise SignatureError("inf_over/sup_over: constraint set lives on a different product")
        return d.left, ast.XRealLine()
    if isinstance(e, ast.IntegralKernel):
        d, c = kids[0]
        k = env.kernel_entry(e.kernel)
        if not isinstance(d, ast.ProductSpace) or d != ast.ProductSpace(k.src, k.dst):
            raise SignatureError("integral(f, q): f must live on the product of the kernel's spaces")
        if not is_numeric(c):
            raise SignatureError("integral needs a scalar integrand")
        return k.src, ast.XRealLine()
    if isinstance(e, ast.Select):
        space = kids[0]
        if not isinstance(space, ast.ProductSpace):
            raise SignatureError("select(A) needs A on a product space")
        return space.left, space.right
    if isinstance(e, ast.EpsSelector):
        if e.eps <= 0:
            raise SignatureError("eps must be positive")
        space, (fd, fc) = kids
        if not isinstance(space, ast.ProductSpace):
            raise SignatureError("eps selection needs a constraint set on a product space")
        if fd != space:
            raise SignatureError("eps selection: objective domain differs from the constraint carrier")
        if not is_numeric(fc):
            raise SignatureError("eps selection needs a scalar objective")
        return space.left, space.right
    if isinstance(e, ast.FromGraph):
        g, space = kids
        if not isinstance(g, ast.ProductSpace):
            raise SignatureError("from_graph(G, D): G must live on a product space")
        if space != g.left:
            raise SignatureError("from_graph(G, D): D must live on the first factor of G's carrier")
        return g.left, g.right
    raise TypeError(f"not a set or function expression: {e!r}")


def is_nonneg(e: ast.FuncExpr, env: Env) -> bool:
    """Conservative syntactic nonnegativity, seeded by declarations."""
    return ast.fold(e, partial(nonneg_rule, env))


def nonneg_rule(env: Env, e, signs: list) -> bool:
    """e's sign from its children's signs, in ast.children order."""
    if isinstance(e, ast.NamedFunc):
        return env.func_entry(e.name).nonneg
    if isinstance(e, (ast.Power, ast.CylinderExtend, ast.SectionOf, ast.Compose)):
        return signs[0]  # the operand, or compose's outer function
    if isinstance(e, (ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp)):
        return signs[0] and signs[1]
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
            space = signature(stmt.expr, env)
            env.declare(stmt.name, "sets", SetEntry(space=space, expr=stmt.expr))
        elif isinstance(stmt, ast.LetFunc):
            # a let's signature and sign are computed once, here; every use
            # of the name reads them back from its entry
            dom, cod = signature(stmt.expr, env)
            entry = FuncEntry(dom=dom, cod=cod, expr=stmt.expr, nonneg=is_nonneg(stmt.expr, env))
            env.declare(stmt.name, "funcs", entry)
        elif isinstance(stmt, (ast.AssertClass, ast.AssertLevel)):
            signature(stmt.expr, env)
        elif isinstance(stmt, ast.AssertUM):
            if stmt.name not in env.sets and stmt.name not in env.funcs:
                raise ResolutionError(f"undeclared subject {stmt.name!r} in um assertion")
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return env
