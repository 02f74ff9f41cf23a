"""Acceptance gate: nine single-function tests, one pass/fail line each.

Every test here replays a shipped guarantee end to end, against independent
oracles where one exists, and asserts its runtime budget where the guarantee
states one.  Nothing in this file may weaken a bound to pass: expected values
are frozen literals or oracle outputs, never engine echoes.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

import projcalc.ast as A
from projcalc import (
    IDENTITIES,
    ZFC,
    ZFC_PD,
    case_seed,
    check,
    evaluate_assertions,
    generate_case,
    infer_func,
    infer_set,
    integral_lower,
    integral_upper,
    join,
    leq,
    meet,
    parse,
    read_table,
    run_suite,
    serialize,
    universal_measurability,
)
from projcalc.derivation import CheckError, Derivation
from projcalc.errors import AxiomRequiredError
from projcalc.games import FiniteGame, solve, verify_strategy
from projcalc.pointclass import delta, pi, sigma
from projcalc.rules import CITATIONS
from projcalc.selectors import eps_select_enumerate, sectionwise_optimum
from projcalc.xreal import NEG_INF, POS_INF, fin

from .oracles import LatticeOracle, brute_force_winner, dual_prefix_holds, token_universe
from .progen import HEADER, corpus


# ---------------------------------------------------------------- criterion 1

# Shared declarations for the golden replay.  Levels are chosen so every
# arithmetic rule fires away from its Borel sharpening.
C1_HEADER = HEADER + """\
space R = reals
set BD in Y : delta 2
set SY in Y : sigma 2
set RD in R : delta 2
set RS in R : sigma 2
func s2 : X -> reals : delta 2
func v2 : X -> R : delta 2
func g2 : X -> Y : delta 2
"""

# rule id, set|func, expression, expected judgment, expected root rule
GOLDEN = [
    ("DECL", "set", "A", "class sigma 1", "DECL"),
    ("SCHED", "set", "union i in nat of V_i in X with levels bounded sigma 2",
     "class sigma 2", "S-CU"),
    ("S-COMPL", "set", "compl(A)", "class pi 1", "S-COMPL"),
    ("S-CU", "set", "union(A, compl(C))", "class sigma 2", "S-CU"),
    ("S-CI", "set", "inter(A, E)", "class delta 3", "S-CI"),
    ("S-PROD", "set", "prod(A, B)", "class delta 3", "S-PROD"),
    ("S-PROJ", "set", "proj[1](D)", "class sigma 2", "S-PROJ"),
    ("S-BIMG", "set", "img[g](A)", "class sigma 1", "S-BIMG"),
    ("S-BPRE", "set", "section[1 @ a0](D)", "class delta 2", "S-BPRE"),
    ("S-SUBLEV", "set", "sublevel(f, <, 1/2)", "class delta 2", "S-SUBLEV"),
    ("S-WR", "set", "measure_ge(E, 1/2)", "class sigma 3", "S-WR"),
    # delta preimage at p=2, n=2: p+n
    ("F-PRE-Δ", "set", "pre[v2](RD)", "class delta 4", "F-PRE-Δ"),
    # sigma preimage at p=2, n=2: n+p-1
    ("F-PRE-Σ", "set", "pre[v2](RS)", "class sigma 3", "F-PRE-Σ"),
    # graph of a level-2 function: n+1
    ("F-GRAPH", "set", "graph(f)", "class delta 3", "F-GRAPH"),
    ("F-DOM", "func", "pf", "level delta 2", "F-DOM"),
    ("F-PAIR", "func", "pair(g, g)", "level delta 1", "F-PAIR"),
    ("F-CYL", "func", "cyl[Y](u)", "level delta 1", "F-CYL"),
    # composition at p=3, q=2: p+q
    ("F-COMP", "func", "compose(h, g2)", "level delta 5", "F-COMP"),
    # Borel inner function keeps the outer level
    ("F-COMP-B", "func", "compose(h, g)", "level delta 3", "F-COMP-B"),
    # function section of a level-2 function: p+1
    ("F-SECT", "func", "fsection[1 @ a0](f)", "level delta 3", "F-SECT"),
    ("F-ARITH", "func", "add(u, s2)", "level delta 2", "F-ARITH"),
    ("F-CSUP", "func", "sup i in nat of w_i in X with levels bounded delta 2",
     "level delta 2", "F-CSUP"),
    ("F-CINF", "func", "inf i in nat of w_i in X with levels bounded delta 3",
     "level delta 3", "F-CINF"),
    # partial extremum of a level-2 function over a delta 2 domain: q+1
    ("F-PARTIAL", "func", "inf_over(f, D)", "level delta 3", "F-PARTIAL"),
    # kernel integration at p=2, r=1: p+r+2
    ("F-INT", "func", "integral(f, q)", "level delta 5", "F-INT"),
    # function recovered from a delta 2 graph: n+1
    ("F-UNGRAPH", "func", "from_graph(graph(g), A)", "level delta 3", "F-UNGRAPH"),
    # selection from a delta 2 constraint set lands at delta 5
    ("F-SELECT", "func", "select(D)", "level delta 5", "F-UNGRAPH"),
    ("F-EPS", "func", "eps_inf(D, f, 1/4)", "level delta 5", "F-EPS"),
]


def _tree_rules(d: Derivation) -> set[str]:
    out = {d.rule}
    for p in d.premises:
        out |= _tree_rules(p)
    return out


def _tree_cites_match(d: Derivation) -> bool:
    if d.cite != CITATIONS[d.rule]:
        return False
    return all(_tree_cites_match(p) for p in d.premises)


def test_c1_rule_table_conformance():
    t0 = time.perf_counter()
    seen_rules = set()
    for rule, kind, expr, expected, root in GOLDEN:
        program, env = parse(C1_HEADER + f"let T = {expr}\n")
        if kind == "set":
            _, d = infer_set(A.NamedSet("T"), env, ZFC_PD)
        else:
            _, d = infer_func(A.NamedFunc("T"), env, ZFC_PD)
        assert d.conclusion.judgment.render() == expected, (rule, expr)
        assert d.rule == root, (rule, expr, d.rule)
        assert rule in _tree_rules(d), (rule, expr)
        assert _tree_cites_match(d), (rule, expr)
        seen_rules |= _tree_rules(d)
    # the one rule with no expression form: a property certificate
    cert = universal_measurability(delta(3), ZFC_PD)
    assert cert.derivation.rule == "P-UM"
    assert cert.derivation.conclusion.judgment.render() == \
        "prop universally measurable: delta 3"
    assert cert.derivation.cite == CITATIONS["P-UM"]
    seen_rules |= _tree_rules(cert.derivation)

    assert len(GOLDEN) + 1 >= 20
    assert seen_rules == set(CITATIONS), sorted(set(CITATIONS) - seen_rules)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------- criterion 2


def test_c2_lattice_laws_vs_closure_oracle():
    t0 = time.perf_counter()
    oracle = LatticeOracle(9)
    classes = [k(n) for n in range(1, 9) for k in (sigma, pi, delta)]
    universe = token_universe(9)

    for a in classes:
        assert leq(a, a)
    for a in classes:
        for b in classes:
            assert leq(a, b) == oracle.leq(a, b), (a, b)
            if leq(a, b) and leq(b, a):
                assert a == b
    for a in classes:
        for b in classes:
            for c in classes:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c), (a, b, c)
    for a in classes:
        for b in classes:
            j = join(a, b)
            m = meet(a, b)
            assert j == oracle.join(a, b), (a, b)
            assert m == oracle.meet(a, b), (a, b)
            # least upper bound / greatest lower bound over the oracle order
            assert oracle.leq(a, j) and oracle.leq(b, j)
            assert oracle.leq(m, a) and oracle.leq(m, b)
            for c in universe:
                if oracle.leq(a, c) and oracle.leq(b, c):
                    assert oracle.leq(j, c), (a, b, c)
                if oracle.leq(c, a) and oracle.leq(c, b):
                    assert oracle.leq(c, m), (a, b, c)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------- criterion 3


def _sweep_header() -> str:
    lines = ["space X = baire", "space Y = cantor", "space Z = prod(X, Y)"]
    for j in range(1, 11):
        lines.append(f"func cf{j} : X -> X : delta {j}")
        lines.append(f"func co{j} : X -> reals : delta {j}")
        lines.append(f"func if{j} : Z -> xreal : delta {j}")
        lines.append(f"kernel kr{j} : X ~> Y : delta {j}")
        lines.append(f"set sd{j} in X : delta {j}")
        lines.append(f"set ss{j} in X : sigma {j}")
    return "\n".join(lines) + "\n"


def test_c3_level_arithmetic_sweep():
    t0 = time.perf_counter()
    _, env = parse(_sweep_header())
    R = range(1, 11)
    for p in R:
        for q in R:
            lvl, _ = infer_func(
                A.Compose(A.NamedFunc(f"co{p}"), A.NamedFunc(f"cf{q}")), env, ZFC)
            # the Borel-inner sharpening is the stated bound at q = 1
            assert lvl.level == (p + q if q >= 2 else p), (p, q)
    for p in R:
        for n in R:
            cls, _ = infer_set(
                A.Preimage(A.NamedFunc(f"cf{p}"), A.NamedSet(f"sd{n}")), env, ZFC)
            # Borel preimages preserve the class at p = 1
            assert cls == (delta(p + n) if p >= 2 else delta(n)), (p, n)
    for p in R:
        for n in R:
            cls, _ = infer_set(
                A.Preimage(A.NamedFunc(f"cf{p}"), A.NamedSet(f"ss{n}")), env, ZFC)
            assert cls == sigma(n + p - 1), (p, n)
    for p in R:
        for r in R:
            lvl, _ = infer_func(
                A.IntegralKernel(A.NamedFunc(f"if{p}"), f"kr{r}"), env, ZFC_PD)
            assert lvl.level == p + r + 2, (p, r)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------- criterion 4


def test_c4_identity_suite_zero_counterexamples():
    t0 = time.perf_counter()
    rows = list(run_suite("all", seed=20260814, count=200))
    assert len(rows) == 1000
    bad = [r for r in rows if not r["ok"]]
    assert bad == []
    counts = {name: 0 for name in IDENTITIES}
    for r in rows:
        counts[r["identity"]] += 1
    assert set(counts) == {"INFSUP-PROJ", "SUM-PRE", "PROD-POS", "EPS-E",
                           "FUBINI-DIRAC"}
    assert all(c == 200 for c in counts.values())
    # generated models stay within the stated carrier bound
    for name in IDENTITIES:
        for i in (0, 1, 199):
            case = generate_case(name, case_seed(name, 20260814, i))
            assert all(len(atoms) <= 6 for atoms in case.model.spaces.values())
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------- criterion 5


def _and_pairs(x: int, half: int) -> int:
    y = 0
    for j in range(half):
        y |= ((x >> (2 * j)) & (x >> (2 * j + 1)) & 1) << j
    return y


def _or_pairs(x: int, half: int) -> int:
    y = 0
    for j in range(half):
        y |= (((x >> (2 * j)) | (x >> (2 * j + 1))) & 1) << j
    return y


def _minimax_16(mask: int) -> int:
    """Backward induction over the depth-4 binary tree, 1 iff player I wins.

    Leaf i is bit i of the mask under the big-endian play index; mover
    alternates I, II, I, II from the root down.
    """
    return _or_pairs(_and_pairs(_or_pairs(_and_pairs(mask, 8), 4), 2), 1)


def _dual_16(mask: int) -> int:
    """Quantifier-dual evaluation over the complement target, 1 iff it holds."""
    comp = ~mask & 0xFFFF
    return _and_pairs(_or_pairs(_and_pairs(_or_pairs(comp, 8), 4), 2), 1)


def test_c5_finite_determinacy():
    t0 = time.perf_counter()

    # tie the bitwise minimax to the play-enumerating reference oracle
    probe = FiniteGame(k=2, n_rounds=1, mask=0)
    plays = list(itertools.product(range(2), repeat=4))
    index = {p: probe.play_index(p) for p in plays}
    for mask in range(0, 1 << 16, 1021):
        hit = {p: bool(mask >> i & 1) for p, i in index.items()}
        assert ("I" if _minimax_16(mask) else "II") == \
            brute_force_winner(2, 1, hit.__getitem__)
        assert bool(_dual_16(mask)) == dual_prefix_holds(2, 1, hit.__getitem__)

    for mask in range(1 << 16):
        g = FiniteGame(k=2, n_rounds=1, mask=mask)
        winner, strategy = solve(g)
        wins_i = _minimax_16(mask)
        dual = _dual_16(mask)
        assert winner == ("I" if wins_i else "II"), mask
        # exactly one winner, and the dual prefix holds iff II is the winner
        assert dual == 1 - wins_i, mask
        if mask % 512 == 0:
            assert verify_strategy(g, strategy, winner), mask

    # at N=2 the verified strategy itself certifies the winner; the dual
    # quantifier string gives an independent second opinion on who it is
    rng = random.Random(5150)
    for _ in range(500):
        mask = rng.getrandbits(64)
        g = FiniteGame(k=2, n_rounds=2, mask=mask)
        winner, strategy = solve(g)
        assert verify_strategy(g, strategy, winner)
        assert dual_prefix_holds(2, 2, g.hits) == (winner == "II")
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------- criterion 6


def test_c6_extended_real_conventions():
    assert NEG_INF + POS_INF == NEG_INF
    assert POS_INF + NEG_INF == NEG_INF
    assert -POS_INF == NEG_INF
    assert +NEG_INF == NEG_INF
    assert fin(0) * POS_INF == fin(0)
    assert fin(0) * NEG_INF == fin(0)
    assert POS_INF * fin(0) == fin(0)
    assert NEG_INF * fin(0) == fin(0)
    # two atoms, masses 1/2 each, values +inf and -inf: the doubly-infinite
    # case resolves downward for the lower integral, upward for the upper
    f = {"a": POS_INF, "b": NEG_INF}
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert integral_lower(f, p) == NEG_INF
    assert integral_upper(f, p) == POS_INF


# ---------------------------------------------------------------- criterion 7


def _rand_value(rng: random.Random):
    roll = rng.randrange(10)
    if roll == 0:
        return NEG_INF
    if roll == 1:
        return POS_INF
    return fin(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))


def _within_band(v, opt, eps, direction) -> bool:
    # the selector bound, restated: within eps of a finite optimum, past the
    # 1/eps escape bound when the optimum is infinite on the approached side
    if direction == "inf":
        if opt == NEG_INF:
            return v < fin(-1 / eps)
        if opt == POS_INF:
            return True
        return v < opt + fin(eps)
    if opt == POS_INF:
        return v > fin(1 / eps)
    if opt == NEG_INF:
        return True
    return v > opt - fin(eps)


def test_c7_eps_selector_property():
    t0 = time.perf_counter()
    branch_hits = {"neg": 0, "pos": 0}
    for direction in ("inf", "sup"):
        rng = random.Random(20260814 if direction == "inf" else 20260815)
        for _ in range(100):
            xs = [f"x{i}" for i in range(rng.randint(1, 6))]
            ys = [f"y{i}" for i in range(rng.randint(1, 6))]
            D = {(x, y) for x in xs for y in ys if rng.randrange(3) < 2}
            f = {pt: _rand_value(rng) for pt in D}
            eps = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            sel = eps_select_enumerate(D, f, eps, direction, ys)
            opt = sectionwise_optimum(D, f, direction)
            assert set(sel) == {x for (x, _) in D}
            for x, y in sel.items():
                assert (x, y) in D
                assert _within_band(f[(x, y)], opt[x], eps, direction), (x, y)
                if opt[x] == NEG_INF:
                    branch_hits["neg"] += 1
                if opt[x] == POS_INF:
                    branch_hits["pos"] += 1
    assert branch_hits["neg"] > 0 and branch_hits["pos"] > 0
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------- criterion 8


def _paths(d: Derivation, prefix=()):
    yield prefix
    for i, p in enumerate(d.premises):
        yield from _paths(p, prefix + (i,))


def _with_judgment(d: Derivation, path, judgment) -> Derivation:
    if not path:
        conc = dataclasses.replace(d.conclusion, judgment=judgment)
        return dataclasses.replace(d, conclusion=conc)
    premises = list(d.premises)
    premises[path[0]] = _with_judgment(premises[path[0]], path[1:], judgment)
    return dataclasses.replace(d, premises=tuple(premises))


def _bumped(judgment):
    if judgment.kind == "class":
        cls = dataclasses.replace(judgment.cls, level=judgment.cls.level + 1)
        return dataclasses.replace(judgment, cls=cls)
    if judgment.kind == "level":
        return dataclasses.replace(judgment, level=judgment.level + 1)
    return dataclasses.replace(judgment, text=judgment.text + " mutated")


def test_c8_derivation_soundness():
    programs = corpus()
    assert len(programs) >= 50

    pool = []
    for text in programs:
        program, env = parse(text)
        for stmt in program.statements:
            if isinstance(stmt, A.LetSet):
                _, d = infer_set(A.NamedSet(stmt.name), env, ZFC_PD)
            elif isinstance(stmt, A.LetFunc):
                _, d = infer_func(A.NamedFunc(stmt.name), env, ZFC_PD)
            else:
                continue
            check(read_table(serialize(d)), env)
            pool.append((d, env))
        for res in evaluate_assertions(program, env, ZFC_PD):
            assert res.ok, (res.line, res.detail)
            if res.derivation is not None:
                check(read_table(serialize(res.derivation)), env)
                pool.append((res.derivation, env))
    assert len(pool) >= 150

    rng = random.Random(828282)
    for _ in range(500):
        d, env = pool[rng.randrange(len(pool))]
        path = rng.choice(list(_paths(d)))
        node = d
        for i in path:
            node = node.premises[i]
        mutant_judgment = _bumped(node.conclusion.judgment)
        assert mutant_judgment != node.conclusion.judgment
        mutant = _with_judgment(d, path, mutant_judgment)
        with pytest.raises(CheckError):
            check(read_table(serialize(mutant)), env)


# ---------------------------------------------------------------- criterion 9


def _run(kind: str, expr: str, mode: str):
    _, env = parse(HEADER + f"let T = {expr}\n")
    if kind == "set":
        return infer_set(A.NamedSet("T"), env, mode)
    return infer_func(A.NamedFunc("T"), env, mode)


def test_c9_axiom_gating():
    # kernel integration: refused outright in ZFC, delta(p+r+2) under PD
    with pytest.raises(AxiomRequiredError) as exc:
        _run("func", "integral(f, q)", ZFC)
    assert exc.value.rule == "F-INT" and "F-INT" in str(exc.value)
    lvl, _ = _run("func", "integral(f, q)", ZFC_PD)
    assert lvl.level == 5  # p=2, r=1

    # measure threshold: allowed at level 1, gated above it, Sigma(n) under PD
    with pytest.raises(AxiomRequiredError) as exc:
        _run("set", "measure_ge(E, 1/2)", ZFC)
    assert exc.value.rule == "S-WR" and "S-WR" in str(exc.value)
    cls, _ = _run("set", "measure_ge(E, 1/2)", ZFC_PD)
    assert cls == sigma(3)
    cls, _ = _run("set", "measure_ge(A, 1/3)", ZFC)
    assert cls == sigma(1)

    # selection: the stage-0 case stands in ZFC, higher stages need PD
    with pytest.raises(AxiomRequiredError) as exc:
        _run("func", "select(D)", ZFC)
    assert exc.value.rule == "F-SELECT" and "F-SELECT" in str(exc.value)
    lvl, _ = _run("func", "select(P)", ZFC)
    assert lvl.level == 4  # pi 1 constraint set
    lvl, _ = _run("func", "select(P)", ZFC_PD)
    assert lvl.level == 4
    lvl, _ = _run("func", "select(D)", ZFC_PD)
    assert lvl.level == 5  # delta 2 constraint set
