"""Randomized desk checks of the five structural identities.

Each identity equates two computations that the symbolic rules treat as
interchangeable.  On a finite model both sides evaluate exactly, and they
are computed through deliberately different code paths: one side goes
through the set-expression evaluator, the other is assembled directly from
the defining formula.  A disagreement is returned as a Counterexample, not
raised, so oracle sweeps can report and continue.

Identity ids:
  INFSUP-PROJ   strict sublevels of a sectionwise infimum are projections
  SUM-PRE       sum sublevels decompose into rational rectangles plus the
                mixed-infinity band
  PROD-POS      the four-part positive/negative product decomposition
  EPS-E         the near-optimal band always projects onto the full domain
  FUBINI-DIRAC  a section's mass equals the Dirac-product mass of the
                unsectioned projection
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import ast
from .finitemodel import (
    XREAL,
    FiniteModel,
    FuncData,
    MeasureData,
    SetData,
    eval_set,
    func_data,
    measure_of,
)
from .selectors import qualifies
from .xreal import NEG_INF, POS_INF, XReal, fin, neg_part, pos_part, xreal_prod, xreal_sum

IDENTITIES = ("INFSUP-PROJ", "SUM-PRE", "PROD-POS", "EPS-E", "FUBINI-DIRAC")

# the fixed carriers of the cases, held here so that no case rebuilds them
_XY = ast.ProductSpace("X", "Y")
_C_XU = ast.ProductSpace("C", ast.ProductSpace("X", "U"))


@dataclass(frozen=True)
class Counterexample:
    identity: str
    witness: str
    detail: str


@dataclass
class IdentityCase:
    identity: str
    model: FiniteModel
    params: dict[str, Fraction] = field(default_factory=dict)


# --- random instances ----------------------------------------------------------

# every finite value _rand_value can draw, keyed by (numerator, denominator)
_FINITE_VALUES = {(a, b): fin(Fraction(a, b)) for a in range(-4, 5) for b in range(1, 4)}


def _rand_value(rng: random.Random) -> XReal:
    roll = rng.randrange(10)
    if roll == 0:
        return NEG_INF
    if roll == 1:
        return POS_INF
    a = rng.randint(-4, 4)
    return _FINITE_VALUES[a, rng.randint(1, 3)]


def _rand_space(rng: random.Random, prefix: str, lo: int = 1, hi: int = 6) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi)))


def _rand_subset(rng: random.Random, points) -> frozenset:
    return frozenset(p for p in points if rng.randrange(2))


def _rand_table(rng: random.Random, points) -> dict:
    return {p: _rand_value(rng) for p in points}


def _rand_measure(rng: random.Random, atoms) -> dict[str, Fraction]:
    raw = [rng.randint(0, 4) for _ in atoms]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {a: Fraction(k, total) for a, k in zip(atoms, raw)}


def generate_case(identity: str, seed: int) -> IdentityCase:
    """One reproducible random instance; same (identity, seed) -> same case."""
    rng = random.Random(seed)
    m = FiniteModel()
    if identity == "INFSUP-PROJ":
        m.spaces["X"] = _rand_space(rng, "x")
        m.spaces["Y"] = _rand_space(rng, "y")
        pts = m.points(_XY)
        m.sets["D"] = SetData(_XY, _rand_subset(rng, pts))
        m.funcs["f"] = FuncData(_XY, XREAL, _rand_table(rng, pts))
        return IdentityCase(identity, m, {"c": Fraction(rng.randint(-4, 4), rng.randint(1, 2))})
    if identity == "SUM-PRE":
        m.spaces["X"] = _rand_space(rng, "x")
        pts = m.points("X")
        m.funcs["f"] = FuncData("X", XREAL, _rand_table(rng, pts))
        m.funcs["g"] = FuncData("X", XREAL, _rand_table(rng, pts))
        return IdentityCase(identity, m, {"c": Fraction(rng.randint(-4, 4), rng.randint(1, 2))})
    if identity == "PROD-POS":
        m.spaces["X"] = _rand_space(rng, "x")
        pts = m.points("X")
        m.funcs["f"] = FuncData("X", XREAL, _rand_table(rng, pts))
        m.funcs["g"] = FuncData("X", XREAL, _rand_table(rng, pts))
        return IdentityCase(identity, m)
    if identity == "EPS-E":
        m.spaces["X"] = _rand_space(rng, "x")
        m.spaces["Y"] = _rand_space(rng, "y")
        pts = m.points(_XY)
        m.sets["D"] = SetData(_XY, _rand_subset(rng, pts))
        m.funcs["f"] = FuncData(_XY, XREAL, _rand_table(rng, pts))
        return IdentityCase(identity, m, {"eps": Fraction(rng.randint(1, 4), rng.randint(1, 4))})
    if identity == "FUBINI-DIRAC":
        m.spaces["C"] = _rand_space(rng, "c", 1, 4)
        m.spaces["X"] = _rand_space(rng, "x", 1, 4)
        m.spaces["U"] = _rand_space(rng, "u", 1, 4)
        m.sets["S"] = SetData(_C_XU, _rand_subset(rng, m.points(_C_XU)))
        m.measures["mu"] = MeasureData("X", _rand_measure(rng, m.spaces["X"]))
        return IdentityCase(identity, m)
    raise ValueError(f"unknown identity {identity!r}")


# --- checkers ------------------------------------------------------------------


def _sectionwise(members, table, pick) -> dict:
    # The oracle's declared second route to the sectionwise optimum, next to
    # selectors.sectionwise_optimum (which the finite-model evaluator calls):
    # it must not call eval_set or func_data, or the check compares the
    # evaluator with itself.
    out: dict = {}
    for (x, y) in members:
        v = table[(x, y)]
        out[x] = v if x not in out else pick(out[x], v)
    return out


def _check_infsup_proj(case: IdentityCase) -> Counterexample | None:
    m, c = case.model, case.params["c"]
    D = m.sets["D"].members
    f = m.funcs["f"].table
    fstar = _sectionwise(D, f, min)
    lhs = {x for x, v in fstar.items() if v < fin(c)}
    rhs = eval_set(
        ast.Projection(
            ast.FiniteIntersection(
                (ast.NamedSet("D"), ast.Sublevel(ast.NamedFunc("f"), "<", c))
            ),
            1,
        ),
        m,
    )
    if lhs != set(rhs):
        x = sorted(lhs ^ set(rhs))[0]
        return Counterexample(case.identity, f"x={x}", f"c={c}: infimum side and projection side disagree at {x}")
    return None


def _sum_candidates(fv, gv, c) -> set[Fraction]:
    """Finitely many r that stand in for the rational union in the sum rule."""
    out = {Fraction(0)}
    slack = [c - b for b in gv]
    for a in fv:
        out.add(a + 1)
        for s in slack:
            out.add((a + s) / 2)
    out.update(s - 1 for s in slack)
    return out


def _sum_rects(points, f: dict, g: dict, c: Fraction, candidates) -> set:
    """Points x with f(x) < r and g(x) < c - r for some r in candidates.

    The oracle's declared second route to the sum sublevel: it must not
    call eval_set or func_data.  One sort of the candidates, then one
    bisection per point: x is in the union exactly when the least candidate
    above f(x) is below c - g(x).  f(x) = -inf takes the least candidate,
    g(x) = -inf bounds nothing, and +inf on either side admits no r.
    """
    cands = sorted(candidates)
    rects = set()
    for x in points:
        fx, gx = f[x], g[x]
        if fx.sign > 0 or gx.sign > 0:
            continue
        i = 0 if fx.sign < 0 else bisect_right(cands, fx.fin)
        if i < len(cands) and (gx.sign < 0 or cands[i] < c - gx.fin):
            rects.add(x)
    return rects


def _check_sum_pre(case: IdentityCase) -> Counterexample | None:
    m, c = case.model, case.params["c"]
    f, g = m.funcs["f"].table, m.funcs["g"].table
    lhs = eval_set(ast.Sublevel(ast.Sum(ast.NamedFunc("f"), ast.NamedFunc("g")), "<", c), m)
    points = m.points("X")
    n_band = {
        x
        for x in points
        if (f[x] == POS_INF and g[x] == NEG_INF) or (f[x] == NEG_INF and g[x] == POS_INF)
    }
    fv = {v.fin for v in f.values() if v.is_finite}
    gv = {v.fin for v in g.values() if v.is_finite}
    rects = _sum_rects(points, f, g, c, _sum_candidates(fv, gv, c))
    rhs = n_band | (rects - n_band)
    if set(lhs) != rhs:
        x = sorted(set(lhs) ^ rhs)[0]
        return Counterexample(case.identity, f"x={x}", f"c={c}: sum sublevel and rectangle union disagree at {x}")
    return None


def _check_prod_pos(case: IdentityCase) -> Counterexample | None:
    m = case.model
    f, g = m.funcs["f"].table, m.funcs["g"].table
    for x in m.points("X"):
        lhs = xreal_prod(f[x], g[x])
        fp, fm = pos_part(f[x]), neg_part(f[x])
        gp, gm = pos_part(g[x]), neg_part(g[x])
        plus = xreal_sum([xreal_prod(fp, gp), xreal_prod(fm, gm)])
        minus = xreal_sum([xreal_prod(fp, gm), xreal_prod(fm, gp)])
        rhs = xreal_sum([plus, -minus])
        if lhs != rhs:
            return Counterexample(
                case.identity, f"x={x}", f"f={f[x]}, g={g[x]}: product {lhs} but decomposition {rhs}"
            )
    return None


def _check_eps_e(case: IdentityCase) -> Counterexample | None:
    m, eps = case.model, case.params["eps"]
    D = m.sets["D"].members
    f = m.funcs["f"].table
    fstar = func_data(ast.PartialInf(ast.NamedFunc("f"), ast.NamedSet("D")), m).table
    lhs = {x for (x, y) in D if qualifies(f[(x, y)], fstar[x], eps, "inf")}  # the near-optimal band's domain
    rhs = eval_set(ast.Projection(ast.NamedSet("D"), 1), m)
    if lhs != set(rhs):
        x = sorted(set(rhs) ^ lhs)[0]
        return Counterexample(
            case.identity, f"x={x}", f"eps={eps}: the near-optimal band misses domain point {x}"
        )
    return None


def _check_fubini_dirac(case: IdentityCase) -> Counterexample | None:
    m = case.model
    S = m.sets["S"].members
    proj_cx = {(d, x) for (d, (x, u)) in S}
    for d in m.spaces["C"]:
        section_proj = eval_set(
            ast.Projection(ast.Section(ast.NamedSet("S"), 1, at=d), 1), m
        )
        lhs = measure_of(m, "mu", section_proj)
        rhs = sum(
            (m.measures["mu"].weights[x] for (dd, x) in proj_cx if dd == d), Fraction(0)
        )
        if lhs != rhs:
            return Counterexample(case.identity, f"d={d}", f"section mass {lhs} != Dirac-product mass {rhs}")
    return None


_CHECKERS = {
    "INFSUP-PROJ": _check_infsup_proj,
    "SUM-PRE": _check_sum_pre,
    "PROD-POS": _check_prod_pos,
    "EPS-E": _check_eps_e,
    "FUBINI-DIRAC": _check_fubini_dirac,
}


def check_identity(case: IdentityCase) -> Counterexample | None:
    """None when both sides agree, a Counterexample otherwise."""
    try:
        checker = _CHECKERS[case.identity]
    except KeyError:
        raise ValueError(f"unknown identity {case.identity!r}") from None
    return checker(case)


# --- seeded sweeps -------------------------------------------------------------


def case_seed(identity: str, seed: int, index: int) -> int:
    """Stable per-case seed; identical across platforms and runs."""
    digest = hashlib.sha256(f"{identity}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_suite(identity: str, seed: int, count: int):
    """Yield one report row per case, in deterministic order."""
    names = IDENTITIES if identity == "all" else (identity,)
    for name in names:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity {name!r}")
    for name in names:
        for i in range(count):
            s = case_seed(name, seed, i)
            cex = check_identity(generate_case(name, s))
            row = {"identity": name, "seed": s, "ok": cex is None}
            if cex is not None:
                row["witness"] = cex.witness
                row["detail"] = cex.detail
            yield row
