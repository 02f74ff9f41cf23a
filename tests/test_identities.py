"""Seeded identity sweeps plus handcrafted agreement cases."""

import hashlib
import itertools
from fractions import Fraction

import pytest

import projcalc.identities as identities
from projcalc import ast
from projcalc.finitemodel import (
    XREAL,
    FiniteModel,
    FuncData,
    MeasureData,
    SetData,
    dumps_model,
)
from projcalc.identities import (
    IDENTITIES,
    Counterexample,
    IdentityCase,
    case_seed,
    check_identity,
    generate_case,
    run_suite,
)
from projcalc.xreal import NEG_INF, POS_INF, fin

from .oracles import reference_sum_rects


def test_suite_all_green():
    rows = list(run_suite("all", seed=20260814, count=60))
    assert len(rows) == 60 * len(IDENTITIES)
    bad = [r for r in rows if not r["ok"]]
    assert bad == []


def test_suite_single_identity_rows():
    rows = list(run_suite("EPS-E", seed=7, count=5))
    assert [r["identity"] for r in rows] == ["EPS-E"] * 5
    assert all(set(r) == {"identity", "seed", "ok"} for r in rows)


def test_suite_deterministic():
    a = list(run_suite("all", seed=3, count=4))
    b = list(run_suite("all", seed=3, count=4))
    assert a == b


def test_suite_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        list(run_suite("NOPE", seed=1, count=1))


def test_case_seed_frozen():
    # sha256-derived, so stable across platforms; freeze one value
    assert case_seed("INFSUP-PROJ", 1, 0) == 15981431781453653154
    assert case_seed("INFSUP-PROJ", 1, 1) != case_seed("INFSUP-PROJ", 1, 0)


def test_generated_cases_frozen():
    # the random stream behind every case, frozen: a cached value table or
    # any other change to case generation must draw the same cases
    h = hashlib.sha256()
    for ident in IDENTITIES:
        for i in range(50):
            case = generate_case(ident, case_seed(ident, 7, i))
            h.update(dumps_model(case.model).encode())
            h.update(repr(sorted(case.params.items())).encode())
    assert h.hexdigest() == "6a145cc10c73ef270313290d20a238620fa1537fd5be268dd7e31cf010469671"


def test_generate_case_reproducible():
    a = generate_case("FUBINI-DIRAC", 12345)
    b = generate_case("FUBINI-DIRAC", 12345)
    assert dumps_model(a.model) == dumps_model(b.model)
    assert a.params == b.params


def test_counterexample_rows(monkeypatch):
    import projcalc.identities as mod

    def broken(case):
        return Counterexample(case.identity, "x=x0", "forced for the report test")

    monkeypatch.setitem(mod._CHECKERS, "PROD-POS", broken)
    (row,) = run_suite("PROD-POS", seed=1, count=1)
    assert row["ok"] is False
    assert row["witness"] == "x=x0"
    assert "forced" in row["detail"]


# --- handcrafted cases ----------------------------------------------------------


def test_infsup_proj_empty_constraint():
    m = FiniteModel(
        spaces={"X": ("x0",), "Y": ("y0",)},
        sets={"D": SetData(ast.ProductSpace("X", "Y"), frozenset())},
        funcs={"f": FuncData(ast.ProductSpace("X", "Y"), XREAL, {("x0", "y0"): fin(0)})},
    )
    m.validate()
    case = IdentityCase("INFSUP-PROJ", m, {"c": Fraction(1)})
    assert check_identity(case) is None


def test_eps_e_flat_objective():
    pts = [("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")]
    m = FiniteModel(
        spaces={"X": ("x0", "x1"), "Y": ("y0", "y1")},
        sets={"D": SetData(ast.ProductSpace("X", "Y"), frozenset(pts))},
        funcs={"f": FuncData(ast.ProductSpace("X", "Y"), XREAL, {p: fin(0) for p in pts})},
    )
    m.validate()
    case = IdentityCase("EPS-E", m, {"eps": Fraction(1)})
    assert check_identity(case) is None


def test_eps_e_degenerate_sections():
    # one section identically +inf, one unbounded below: both band branches
    table = {
        ("x0", "y0"): POS_INF, ("x0", "y1"): POS_INF,
        ("x1", "y0"): NEG_INF, ("x1", "y1"): fin(2),
    }
    m = FiniteModel(
        spaces={"X": ("x0", "x1"), "Y": ("y0", "y1")},
        sets={"D": SetData(ast.ProductSpace("X", "Y"), frozenset(table))},
        funcs={"f": FuncData(ast.ProductSpace("X", "Y"), XREAL, table)},
    )
    m.validate()
    case = IdentityCase("EPS-E", m, {"eps": Fraction(1, 3)})
    assert check_identity(case) is None


def test_fubini_dirac_full_product():
    carrier = ast.ProductSpace("C", ast.ProductSpace("X", "U"))
    m = FiniteModel(
        spaces={"C": ("c0", "c1"), "X": ("x0", "x1"), "U": ("u0",)},
        measures={"mu": MeasureData("X", {"x0": Fraction(1, 4), "x1": Fraction(3, 4)})},
    )
    m.sets["S"] = SetData(carrier, frozenset(m.points(carrier)))
    m.validate()
    assert check_identity(IdentityCase("FUBINI-DIRAC", m)) is None


def test_prod_pos_conventions_point():
    m = FiniteModel(
        spaces={"X": ("p", "q", "r")},
        funcs={
            "f": FuncData("X", XREAL, {"p": POS_INF, "q": fin(0), "r": NEG_INF}),
            "g": FuncData("X", XREAL, {"p": fin(0), "q": NEG_INF, "r": NEG_INF}),
        },
    )
    m.validate()
    assert check_identity(IdentityCase("PROD-POS", m)) is None


def test_sum_pre_mixed_infinities():
    m = FiniteModel(
        spaces={"X": ("p", "q", "r")},
        funcs={
            "f": FuncData("X", XREAL, {"p": POS_INF, "q": NEG_INF, "r": fin(1)}),
            "g": FuncData("X", XREAL, {"p": NEG_INF, "q": POS_INF, "r": fin(-3)}),
        },
    )
    m.validate()
    # +inf + -inf resolves low, so p and q sit under every finite bound
    assert check_identity(IdentityCase("SUM-PRE", m, {"c": Fraction(-1)})) is None
    assert check_identity(IdentityCase("SUM-PRE", m, {"c": Fraction(-2)})) is None


# --- SUM-PRE: the one-pass scan against the per-candidate loop ---------------------


def _rects_both_ways(points, f, g, c, candidates=None):
    if candidates is None:
        fv = [v.fin for v in f.values() if v.is_finite]
        gv = [v.fin for v in g.values() if v.is_finite]
        candidates = identities._sum_candidates(fv, gv, c)
    return (
        identities._sum_rects(points, f, g, c, candidates),
        reference_sum_rects(points, f, g, c, candidates),
    )


@pytest.mark.parametrize("seed", range(4))
def test_sum_rects_match_reference_on_generated_cases(seed):
    for i in range(250):
        case = generate_case("SUM-PRE", case_seed("SUM-PRE", seed, i))
        m, c = case.model, case.params["c"]
        got, want = _rects_both_ways(m.points("X"), m.funcs["f"].table, m.funcs["g"].table, c)
        assert got == want, (seed, i)


_EDGE_VALUES = (NEG_INF, POS_INF, fin(-2), fin(0), fin(Fraction(1, 2)), fin(3))


def test_sum_rects_match_reference_on_mixed_infinities():
    # every pair of values at one point, next to a finite point that sets the
    # candidates, for bounds on both sides of the finite values
    for fx, gx in itertools.product(_EDGE_VALUES, repeat=2):
        f = {"p": fx, "q": fin(1)}
        g = {"p": gx, "q": fin(-1)}
        for c in (Fraction(-5), Fraction(0), Fraction(3, 2), Fraction(7)):
            got, want = _rects_both_ways(("p", "q"), f, g, c)
            assert got == want, (fx, gx, c)
    # all infinite: no finite value feeds the candidates
    for row in itertools.product((NEG_INF, POS_INF), repeat=4):
        f = {"p": row[0], "q": row[1]}
        g = {"p": row[2], "q": row[3]}
        got, want = _rects_both_ways(("p", "q"), f, g, Fraction(0))
        assert got == want, row


def test_sum_rects_match_reference_on_bare_candidates():
    # candidates that sit exactly on f(x) or on c - g(x) test both strict
    # bounds, which the oracle's own candidate set never puts to the test
    pts = tuple(f"x{i}" for i in range(len(_EDGE_VALUES) ** 2))
    pairs = dict(zip(pts, itertools.product(_EDGE_VALUES, repeat=2)))
    f = {x: fx for x, (fx, _) in pairs.items()}
    g = {x: gx for x, (_, gx) in pairs.items()}
    c = Fraction(1)
    for candidates in ([], [Fraction(0)], [Fraction(-2), Fraction(3)], [Fraction(1, 2), Fraction(1)],
                       [Fraction(-1), Fraction(1, 2)], [Fraction(k, 2) for k in range(-8, 9)]):
        got, want = _rects_both_ways(pts, f, g, c, candidates)
        assert got == want, candidates


def test_sum_pre_fails_when_the_evaluator_drops_a_point(monkeypatch):
    # mutation check: a sum sublevel missing one point must be caught, so the
    # faster rectangle scan has not made the SUM-PRE check vacuous
    real = identities.eval_set

    def dropping(expr, m):
        out = real(expr, m)
        if isinstance(expr, ast.Sublevel) and out:
            return out - {min(out)}
        return out

    monkeypatch.setattr(identities, "eval_set", dropping)
    caught = 0
    for i in range(100):
        case = generate_case("SUM-PRE", case_seed("SUM-PRE", 1, i))
        if not real(ast.Sublevel(ast.Sum(ast.NamedFunc("f"), ast.NamedFunc("g")), "<", case.params["c"]), case.model):
            continue
        assert isinstance(check_identity(case), Counterexample), i
        caught += 1
    assert caught > 20
