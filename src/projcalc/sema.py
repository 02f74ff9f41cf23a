"""Name environment and carrier-space checking.

The binder walks a parsed program once, registering declarations and
validating every expression's carrier spaces.  The inference engine reuses
the same carrier functions, so a bound program can be assumed well-typed
downstream.  The finite-model evaluator works out carriers of its own, over
a model's spaces.

Each constructor's signature is one entry of _SIGNATURES, keyed by its node
class, and its sign one of _SIGNS; constructors of one shape share an
entry.  A new constructor is one entry here, as it is one in each other
layer's table (ast's forms, infer's rules, finitemodel's rules); the test
that every constructor has an entry in every layer names the layer a new
one misses.
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


def split_axis(space: ast.SpaceExpr, axis: ast.Axis, env: Env) -> tuple:
    """(the factor of product carrier space at axis, the other factor)."""
    if not isinstance(space, ast.ProductSpace):
        raise SignatureError(f"axis selection needs a product carrier, got {format_space(space)}")
    if not isinstance(axis, int):
        if axis not in env.spaces:
            raise ResolutionError(f"undeclared space {axis!r} used as axis")
        hits = [i for i, comp in ((1, space.left), (2, space.right)) if comp == env.spaces[axis]]
        if not hits:
            raise SignatureError(f"space {axis!r} is not a factor of the carrier")
        if len(hits) == 2:
            raise SignatureError(f"axis {axis!r} is ambiguous on a square product; use 1 or 2")
        axis = hits[0]
    elif axis not in (1, 2):
        raise SignatureError(f"axis must be 1 or 2, got {axis}")
    return (space.left, space.right) if axis == 1 else (space.right, space.left)


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
    rule = _SIGNATURES.get(type(e))
    if rule is None:
        raise TypeError(f"not a set or function expression: {e!r}")
    return rule(env, e, kids)


_REALS, _XREAL = ast.Reals(), ast.XRealLine()


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SignatureError(message)


def _product(space: ast.SpaceExpr, message: str) -> ast.ProductSpace:
    """space, which must be a product."""
    _check(isinstance(space, ast.ProductSpace), message)
    return space


def _scalar(space: ast.SpaceExpr, message: str) -> None:
    _check(is_numeric(space), message)


def _merged(cods: list, message: str) -> ast.SpaceExpr:
    """xreal if any of the codomains, which must be scalar, is; else reals."""
    _check(all(map(is_numeric, cods)), message)
    return _XREAL if _XREAL in cods else _REALS


def _shared_domain(kids: list) -> ast.SpaceExpr:
    _check(all(d == kids[0][0] for d, _ in kids), "pointwise arithmetic needs a shared domain")
    return kids[0][0]


def _named_func(env: Env, e, kids):
    entry = env.func_entry(e.name)
    return entry.dom, entry.cod


def _finite_join(env: Env, e, kids):
    _check(all(s == kids[0] for s in kids), "members of a finite union/intersection must share a carrier")
    return kids[0]


def _img(env: Env, e, kids):
    entry = env.func_entry(e.func)
    _check(entry.annot is not None and entry.annot.level == 1, f"img[{e.func}] needs a level-1 (Borel) function")
    _check(entry.dom == kids[0], f"img[{e.func}]: function domain differs from operand carrier")
    return entry.cod


def _pre(env: Env, e, kids):
    (dom, cod), space = kids
    _check(cod == space, "pre[f](B): codomain of f differs from the carrier of B")
    return dom


def _sublevel(env: Env, e, kids):
    _scalar(kids[0][1], "sublevel sets need a real or extended-real valued function")
    return kids[0][0]


def _pair(env: Env, e, kids):
    (ld, lc), (rd, rc) = kids
    _check(ld == rd, "pair(f, g): domains differ")
    return ld, ast.ProductSpace(lc, rc)


def _compose(env: Env, e, kids):
    (od, oc), (idm, ic) = kids
    _check(ic == od, "compose(f, g): codomain of g differs from domain of f")
    return idm, oc


def _add(env: Env, e, kids):
    dom, cods = _shared_domain(kids), [c for _, c in kids]
    if all(c == cods[0] and is_real_vector(c) for c in cods):
        return dom, cods[0]
    return dom, _merged(cods, "sum/neg needs matching real-vector or scalar codomains")


def _arith(env: Env, e, kids):
    return _shared_domain(kids), _merged([c for _, c in kids], "mul/min/max need scalar codomains")


def _inner(env: Env, e, kids):
    (ld, lc), (rd, rc) = kids
    ok = ld == rd and lc == rc and is_real_vector(lc)
    _check(ok, "inner(f, g) needs a shared domain and equal real-vector codomains")
    return ld, _REALS


def _pow(env: Env, e, kids):
    _check(e.exponent > 0, "pow exponent must be positive")
    _scalar(kids[0][1], "pow needs a scalar codomain")
    return kids[0]


def _over(env: Env, e, kids):
    (d, c), space = kids
    _product(d, "inf_over/sup_over need a function on a product space")
    _scalar(c, "inf_over/sup_over need a scalar codomain")
    _check(space == d, "inf_over/sup_over: constraint set lives on a different product")
    return d.left, _XREAL


def _integral(env: Env, e, kids):
    d, c = kids[0]
    k = env.kernel_entry(e.kernel)
    _check(d == ast.ProductSpace(k.src, k.dst), "integral(f, q): f must live on the product of the kernel's spaces")
    _scalar(c, "integral needs a scalar integrand")
    return k.src, _XREAL


def _select(env: Env, e, kids):
    space = _product(kids[0], "select(A) needs A on a product space")
    return space.left, space.right


def _eps(env: Env, e, kids):
    _check(e.eps > 0, "eps must be positive")
    space, (fd, fc) = kids
    _product(space, "eps selection needs a constraint set on a product space")
    _check(fd == space, "eps selection: objective domain differs from the constraint carrier")
    _scalar(fc, "eps selection needs a scalar objective")
    return space.left, space.right


def _from_graph(env: Env, e, kids):
    g, space = kids
    _product(g, "from_graph(G, D): G must live on a product space")
    _check(space == g.left, "from_graph(G, D): D must live on the first factor of G's carrier")
    return g.left, g.right


# node class -> rule(env, e, kids) of its carrier, or (domain, codomain),
# from its children's, in ast.children order; one entry per shared shape
_SIGNATURES = {
    ast.NamedSet: lambda env, e, kids: env.set_entry(e.name).space,
    ast.Complement: lambda env, e, kids: kids[0],  # its own entry: deep compl nests bind through it
    ast.FiniteUnion: _finite_join, ast.FiniteIntersection: _finite_join,
    **dict.fromkeys((ast.CountableUnion, ast.CountableIntersection),
                    lambda env, e, kids: family_carrier(e.base, e.carrier, env, "set")),
    ast.Product: lambda env, e, kids: ast.ProductSpace(*kids),
    ast.Projection: lambda env, e, kids: split_axis(kids[0], e.axis, env)[0],
    ast.BorelImage: _img, ast.Preimage: _pre,
    ast.Section: lambda env, e, kids: split_axis(kids[0], e.axis, env)[1],
    ast.Graph: lambda env, e, kids: ast.ProductSpace(*kids[0]),
    ast.Sublevel: _sublevel,
    ast.MeasureThreshold: lambda env, e, kids: ast.MeasureSpace(kids[0]),
    ast.NamedFunc: _named_func, ast.PairFunc: _pair,
    ast.CylinderExtend: lambda env, e, kids: (ast.ProductSpace(kids[0][0], e.factor), kids[0][1]),
    ast.Compose: _compose,
    ast.SectionOf: lambda env, e, kids: (split_axis(kids[0][0], e.axis, env)[1], kids[0][1]),
    ast.Sum: _add, ast.Neg: _add, ast.ProdOp: _arith, ast.MinOp: _arith, ast.MaxOp: _arith,
    ast.InnerProduct: _inner, ast.Power: _pow,
    **dict.fromkeys((ast.CountableSup, ast.CountableInf),
                    lambda env, e, kids: (family_carrier(e.base, e.carrier, env, "func"), _XREAL)),
    ast.PartialInf: _over, ast.PartialSup: _over, ast.IntegralKernel: _integral,
    ast.Select: _select, ast.EpsSelector: _eps, ast.FromGraph: _from_graph,
}


def is_nonneg(e: ast.FuncExpr, env: Env) -> bool:
    """Conservative syntactic nonnegativity, seeded by declarations."""
    return ast.fold(e, partial(nonneg_rule, env))


def nonneg_rule(env: Env, e, signs: list) -> bool:
    """e's sign from its children's signs, in ast.children order."""
    rule = _SIGNS.get(type(e))
    return rule is not None and rule(env, e, signs)


# node class -> rule(env, e, signs) of its sign; any other node is not known nonneg
_SIGNS = {
    ast.NamedFunc: lambda env, e, signs: env.func_entry(e.name).nonneg,
    # the operand, or compose's outer function
    **dict.fromkeys((ast.Power, ast.CylinderExtend, ast.SectionOf, ast.Compose), lambda env, e, signs: signs[0]),
    **dict.fromkeys((ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp), lambda env, e, signs: signs[0] and signs[1]),
}


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
                _check(env.set_entry(stmt.domain_set).space == stmt.dom,
                       f"declared domain set {stmt.domain_set!r} lives on a different space")
            entry = FuncEntry(stmt.dom, stmt.cod, stmt.annot, domain_set=stmt.domain_set, nonneg=stmt.nonneg)
            env.declare(stmt.name, "funcs", entry)
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
