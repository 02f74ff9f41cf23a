"""Independent oracles used to freeze expected values.

Nothing in here may import from projcalc's engine routines: the point is a
second route to the same answers.

- lattice order: reflexive-transitive closure of the generating edges over
  an explicit finite token universe, with joins/meets found by scanning
  bound sets (no closed-form shortcuts);
- game winners: exhaustive enumeration of strategy profiles, not the
  solver's quantifier recursion;
- game strategies: the node-by-node recursive walk, not the solver's
  level-by-level reduction;
- game target expressions: evaluated per play with a dict of the move
  names, not compiled once into a function of the play;
- tokens: a match for each token and another for each gap between tokens,
  not the lexer's single match per token;
- SUM-PRE rectangles: every candidate tested at every point, not the
  oracle's one sort and one bisection per point;
- derivation equality: a field-by-field walk over pairs of nodes, not
  serialize's node table;
- .pjd rows: json.dumps of each row as a dict, not serialize's rows
  spelled out piece by piece;
- derivation walks: the node order and the first-visit path of each node
  as two separate walks, a stack of nodes for the order and a second walk
  from the root for each path, not the checker's one walk that yields the
  path with each node;
- eps-selection levels: every class of the bands-and-branches construction
  joined step by step, not F-EPS's closed form;
- finite-model evaluation: the three mutually recursive ladders (set
  members, function tables, set carriers) that finitemodel.evaluate's one
  fold replaced, kept as they were, each walking its operands again for
  their carriers.  They share the model's arithmetic helpers with the
  package, so they pin the walk, not the arithmetic;
- AST nodes: a frozen dataclass made with dataclasses.make_dataclass for
  each node class, as the classes were declared before the syntax table
  declared them, not the node base's compiled __init__ and its own ==,
  hash and repr.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import itertools
import json
import re

from projcalc import ast
from projcalc.errors import ParseError, SignatureError, UnsupportedConstructorError
from projcalc.finitemodel import (
    XREAL,
    Carrier,
    FiniteModel,
    FuncData,
    _axis_index,
    _CMP,
    _dot,
    _power,
    _scalar,
)
from projcalc.parser import Token
from projcalc.pointclass import Kind, PointClass, delta, delta_lift, join, pi, projection_class, sigma
from projcalc.selectors import least_choice, sectionwise_optimum
from projcalc.xreal import NEG_INF, POS_INF, fin, integral_lower, xreal_prod, xreal_sum


def token_universe(max_level: int) -> list[PointClass]:
    out = []
    for n in range(1, max_level + 1):
        out.extend([delta(n), sigma(n), pi(n)])
    return out


def closure_leq(max_level: int) -> dict[tuple[PointClass, PointClass], bool]:
    """Order relation as a table, by transitive closure of generator edges."""
    universe = token_universe(max_level + 1)  # headroom so joins at max_level exist
    edges = set()
    for n in range(1, max_level + 1):
        edges.add((delta(n), sigma(n)))
        edges.add((delta(n), pi(n)))
        edges.add((sigma(n), delta(n + 1)))
        edges.add((pi(n), delta(n + 1)))
    reach = {(a, a) for a in universe}
    reach |= edges
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(universe, repeat=2):
            if (a, b) in reach:
                continue
            if any((a, c) in reach and (c, b) in reach for c in universe):
                reach.add((a, b))
                changed = True
    return {(a, b): (a, b) in reach for a, b in itertools.product(universe, repeat=2)}


class LatticeOracle:
    """Join/meet by scanning upper/lower bound sets in the closed order."""

    def __init__(self, max_level: int):
        self.max_level = max_level
        self.universe = token_universe(max_level + 1)
        self.table = closure_leq(max_level)

    def leq(self, a: PointClass, b: PointClass) -> bool:
        return self.table[(a, b)]

    def join(self, a: PointClass, b: PointClass) -> PointClass:
        ubs = [c for c in self.universe if self.leq(a, c) and self.leq(b, c)]
        least = [c for c in ubs if all(self.leq(c, d) for d in ubs)]
        assert len(least) == 1, f"join({a}, {b}) not unique: {least}"
        return least[0]

    def meet(self, a: PointClass, b: PointClass) -> PointClass:
        lbs = [c for c in self.universe if self.leq(c, a) and self.leq(c, b)]
        greatest = [c for c in lbs if all(self.leq(d, c) for d in lbs)]
        assert len(greatest) == 1, f"meet({a}, {b}) not unique: {greatest}"
        return greatest[0]


def brute_force_winner(k: int, n_rounds: int, target) -> str:
    """Winner of the length-2N+2 alternating game by strategy enumeration.

    Player I strategies are maps from even-length histories to moves,
    player II strategies from odd-length histories; a player wins iff some
    strategy of theirs beats every opponent play.  Exponential and
    deliberately unlike the solver's backward induction.
    """
    length = 2 * n_rounds + 2

    def histories(parity: int) -> list[tuple[int, ...]]:
        out = []
        for m in range(parity, length, 2):
            out.extend(itertools.product(range(k), repeat=m))
        return out

    def plays_against(strategy: dict, mover: int) -> list[tuple[int, ...]]:
        seqs = []

        def walk(prefix: tuple[int, ...]):
            if len(prefix) == length:
                seqs.append(prefix)
                return
            if len(prefix) % 2 == mover:
                walk(prefix + (strategy[prefix],))
            else:
                for mv in range(k):
                    walk(prefix + (mv,))

        walk(())
        return seqs

    for mover, name, wins in ((0, "I", lambda s: target(s)), (1, "II", lambda s: not target(s))):
        hists = histories(mover)
        for choices in itertools.product(range(k), repeat=len(hists)):
            strat = dict(zip(hists, choices))
            if all(wins(s) for s in plays_against(strat, mover)):
                return name
    raise AssertionError("finite game with no winner")


def dual_prefix_holds(k: int, n_rounds: int, target) -> bool:
    """The forall/exists quantifier string over the complement target.

    Pushing the negation of "Player I has a winning strategy" through the
    finite prefix flips every quantifier and complements the target; the
    result holds exactly when Player II wins.  Evaluated directly, without
    strategies.
    """
    length = 2 * n_rounds + 2

    def ev(prefix: tuple[int, ...]) -> bool:
        if len(prefix) == length:
            return not target(prefix)
        branch = all if len(prefix) % 2 == 0 else any
        return branch(ev(prefix + (mv,)) for mv in range(k))

    return ev(())


def reference_solve(g) -> tuple[str, dict]:
    """Winner and least-move strategy of a FiniteGame by recursive walk.

    The solver's deliberate second route: ``games.solve`` reduces whole
    levels of the tree at once from a leaf table, while this visits one node
    at a time and reads each leaf through ``FiniteGame.hits``.  It is the
    solver's earlier implementation, kept verbatim.  Quadratic in plays on
    bitset targets and unbudgeted, so keep the games small.
    """
    s_one: dict = {}
    s_two: dict = {}
    root = _wins(g, (), s_one, s_two)
    return ("I", s_one) if root else ("II", s_two)


def _wins(g, hist: tuple, s_one: dict, s_two: dict) -> bool:
    """Does Player I win from this node with optimal play on both sides?"""
    if len(hist) == g.play_length:
        return g.hits(hist)
    outcomes = [_wins(g, hist + (mv,), s_one, s_two) for mv in range(g.k)]
    if len(hist) % 2 == 0:
        if any(outcomes):
            s_one[hist] = outcomes.index(True)
            return True
        return False
    if all(outcomes):
        return True
    s_two[hist] = outcomes.index(False)
    return False


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<string>"[^"]*")
  | (?P<arrow>->)
  | (?P<karrow>~>)
  | (?P<le><=)
  | (?P<ge>>=)
  | (?P<eqeq>==)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[()\[\],:=<>/@-])
    """,
    re.VERBOSE,
)


def reference_target(source: str, n_rounds: int):
    """Predicate over plays that evaluates a target expression per play.

    ``games.compile_target_expr``'s earlier implementation, without the
    syntax whitelist: a dict from each move name that occurs to its move in
    the play, and ``eval`` of the compiled expression in it, once per play.
    A play on which the expression divides by zero raises ZeroDivisionError.
    """
    tree = pyast.parse(source, mode="eval")
    names = {}
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Name):
            player, i = node.id[0], int(node.id[1:])
            assert player in "ab" and i <= n_rounds, node.id
            names[node.id] = 2 * i + (player == "b")
    code = compile(tree, "<target>", "eval")

    def predicate(play: tuple) -> bool:
        env = {name: play[pos] for name, pos in names.items()}
        return bool(eval(code, {"__builtins__": {}}, env))

    return predicate


def reference_lex_line(line: str, lineno: int) -> list[Token]:
    """Tokens of one line, one anchored match per token and per gap.

    The lexer's earlier implementation, kept verbatim: ``parser._lex_line``
    folds the gap before each token into the token's match and must give
    the same tokens and the same ``ParseError`` on every line.
    """
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        text = m.group()
        if kind in ("arrow", "karrow", "le", "ge", "eqeq", "punct"):
            toks.append(Token(text, text, lineno, m.start() + 1))
        else:
            toks.append(Token(kind, text, lineno, m.start() + 1))
    return toks


def reference_sum_rects(points, f: dict, g: dict, c, candidates) -> set:
    """Points x with f(x) < r and g(x) < c - r for some r in candidates.

    The SUM-PRE oracle's earlier loop, kept verbatim: one extended-real
    comparison per candidate and point.  ``identities._sum_rects`` sorts
    the candidates once and must give the same set.
    """
    rects = set()
    for r in candidates:
        hit = {x for x in points if f[x] < fin(r) and g[x] < fin(c - r)}
        rects |= hit
    return rects


def same_derivation(a, b) -> bool:
    """Structural equality of two derivations, each pair of nodes compared once."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if (x.rule, x.cite, x.conclusion) != (y.rule, y.cite, y.conclusion):
            return False
        if len(x.premises) != len(y.premises):
            return False
        stack.extend(zip(x.premises, y.premises))
    return True


def reference_serialize(d) -> str:
    """The .pjd node table with every row written by json.dumps."""
    rows: dict[str, int] = {}  # rendered row -> row id
    row_of: dict[int, int] = {}  # id(node) -> row id
    stack = [d]
    while stack:
        n = stack[-1]
        if id(n) in row_of:
            stack.pop()
            continue
        todo = [p for p in n.premises if id(p) not in row_of]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        c = n.conclusion
        line = json.dumps(
            {
                "rule": n.rule,
                "premises": [row_of[id(p)] for p in n.premises],
                "subject": c.subject,
                "judgment": c.judgment.render(),
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        row_of[id(n)] = rows.setdefault(line, len(rows))
    mode = json.dumps(d.conclusion.mode, ensure_ascii=False)
    return f'{{"mode": {mode}, "nodes": [\n' + ",\n".join(rows) + '\n], "schema": "projcalc/3"}\n'


def reference_postorder(d) -> list:
    """The distinct nodes below d, d included, each after its premises, in
    first post-order visit order, on an explicit stack."""
    order = []
    done: set[int] = set()
    stack = [d]
    while stack:
        n = stack[-1]
        if id(n) in done:
            stack.pop()
            continue
        todo = [p for p in n.premises if id(p) not in done]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        done.add(id(n))
        order.append(n)
    return order


def reference_path_to(root, target) -> str:
    """The /premises/i... path of target's first visit in a depth-first walk
    from root in premise order, on a stack of [node, next premise] pairs."""
    seen = {id(root)}
    stack = [[root, 0]]
    while stack[-1][0] is not target:
        top = stack[-1]
        n, i = top
        if i == len(n.premises):
            stack.pop()
            continue
        top[1] = i + 1
        p = n.premises[i]
        if id(p) not in seen:
            seen.add(id(p))
            stack.append([p, 0])
    return "".join([f"/premises/{i - 1}" for _, i in stack[:-1]])


def reference_eps_level(p: int, c: PointClass) -> int:
    """Level of eps_inf/eps_sup for a level-p objective over a class-c constraint set.

    Builds each class of the construction in turn, raising LevelOverflowError
    at the first one past the cap: the sectionwise optimum f* sits at level
    q + 1; the near-optimal band {f - f* < eps} and the escape band
    {f < -1/eps} meet the constraint set and the finite / infinite parts of
    f*, and their union is the selection target, which is uniformized.
    """
    q = max(p, delta_lift(c).level)
    near_band, escape_band = delta(max(p, q + 1)), delta(p)
    finite_side = infinite_side = delta(q + 1)
    near = join(join(c, near_band), finite_side)
    escape = join(join(c, escape_band), infinite_side)
    target = join(near, escape)
    # least stage m with target <= pi(2m+1), then the selector's graph and
    # the target's projection
    m = (target.level + 1 if target.kind is Kind.SIGMA else target.level) // 2
    graph, dom = pi(2 * m + 1), projection_class(target)
    return max(delta_lift(graph).level, delta_lift(dom).level) + 1


# --- finite-model evaluation: the recursive ladders ---------------------------


def _exact_power(q, exponent, point):
    # the rational power the ladders call, through the package's helper
    return _power(fin(q), exponent, point).fin


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


def reference_set_carrier_of(e: ast.SetExpr, m: FiniteModel) -> Carrier:
    """Carrier of a set expression over the model's spaces."""
    if isinstance(e, ast.NamedSet):
        try:
            return m.sets[e.name].carrier
        except KeyError:
            raise SignatureError(f"model has no set {e.name!r}") from None
    if isinstance(e, ast.Complement):
        return reference_set_carrier_of(e.operand, m)
    if isinstance(e, (ast.FiniteUnion, ast.FiniteIntersection)):
        return reference_set_carrier_of(e.members[0], m)
    if isinstance(e, (ast.CountableUnion, ast.CountableIntersection)):
        return m.sets[_family_members(m, e.base, "set")[0]].carrier
    if isinstance(e, ast.Product):
        return ast.ProductSpace(reference_set_carrier_of(e.left, m), reference_set_carrier_of(e.right, m))
    if isinstance(e, ast.Projection):
        c = reference_set_carrier_of(e.operand, m)
        return c.left if _axis_index(c, e.axis) == 1 else c.right
    if isinstance(e, ast.BorelImage):
        return m.funcs[e.func].cod
    if isinstance(e, ast.Preimage):
        return reference_func_data(e.func, m).dom
    if isinstance(e, ast.Section):
        c = reference_set_carrier_of(e.operand, m)
        return c.right if _axis_index(c, e.axis) == 1 else c.left
    if isinstance(e, ast.Graph):
        f = reference_func_data(e.func, m)
        return ast.ProductSpace(f.dom, f.cod)
    if isinstance(e, ast.Sublevel):
        return reference_func_data(e.func, m).dom
    raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")



def reference_eval_set(e: ast.SetExpr, m: FiniteModel) -> frozenset:
    """The subset denoted by e, as a frozenset of points."""
    if isinstance(e, ast.NamedSet):
        try:
            return m.sets[e.name].members
        except KeyError:
            raise SignatureError(f"model has no set {e.name!r}") from None
    if isinstance(e, ast.Complement):
        pts = frozenset(m.points(reference_set_carrier_of(e.operand, m)))
        return pts - reference_eval_set(e.operand, m)
    if isinstance(e, ast.FiniteUnion):
        return frozenset().union(*(reference_eval_set(x, m) for x in e.members))
    if isinstance(e, ast.FiniteIntersection):
        parts = [reference_eval_set(x, m) for x in e.members]
        return frozenset.intersection(*parts)
    if isinstance(e, ast.CountableUnion):
        names = _family_members(m, e.base, "set")
        return frozenset().union(*(m.sets[n].members for n in names))
    if isinstance(e, ast.CountableIntersection):
        names = _family_members(m, e.base, "set")
        return frozenset.intersection(*(m.sets[n].members for n in names))
    if isinstance(e, ast.Product):
        return frozenset((a, b) for a in reference_eval_set(e.left, m) for b in reference_eval_set(e.right, m))
    if isinstance(e, ast.Projection):
        k = _axis_index(reference_set_carrier_of(e.operand, m), e.axis)
        return frozenset(p[k - 1] for p in reference_eval_set(e.operand, m))
    if isinstance(e, ast.BorelImage):
        f = m.funcs[e.func]
        members = reference_eval_set(e.operand, m)
        return frozenset(f.table[p] for p in members if p in f.table)
    if isinstance(e, ast.Preimage):
        f = reference_func_data(e.func, m)
        target = reference_eval_set(e.operand, m)
        return frozenset(p for p, v in f.table.items() if v in target)
    if isinstance(e, ast.Section):
        if e.at is None:
            raise UnsupportedConstructorError("sections need a concrete evaluation point '@ atom'")
        k = _axis_index(reference_set_carrier_of(e.operand, m), e.axis)
        members = reference_eval_set(e.operand, m)
        if k == 1:
            return frozenset(p[1] for p in members if p[0] == e.at)
        return frozenset(p[0] for p in members if p[1] == e.at)
    if isinstance(e, ast.Graph):
        f = reference_func_data(e.func, m)
        return frozenset((p, v) for p, v in f.table.items())
    if isinstance(e, ast.Sublevel):
        f = reference_func_data(e.func, m)
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



def reference_func_data(e: ast.FuncExpr, m: FiniteModel) -> FuncData:
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
        l, r = reference_func_data(e.left, m), reference_func_data(e.right, m)
        common = [p for p in l.table if p in r.table]
        return FuncData(l.dom, ast.ProductSpace(l.cod, r.cod), {p: (l.table[p], r.table[p]) for p in common})
    if isinstance(e, ast.CylinderExtend):
        f = reference_func_data(e.func, m)
        factor = e.factor  # a model space name or carrier in this context
        if isinstance(factor, (str, ast.ProductSpace)):
            extra = m.points(factor)
        else:
            raise UnsupportedConstructorError(
                "cylinder factors must name model spaces in finite evaluation"
            )
        return FuncData(
            ast.ProductSpace(f.dom, factor),
            f.cod,
            {(p, b): v for p, v in f.table.items() for b in extra},
        )
    if isinstance(e, ast.Compose):
        outer, inner = reference_func_data(e.outer, m), reference_func_data(e.inner, m)
        return FuncData(
            inner.dom,
            outer.cod,
            {p: outer.table[v] for p, v in inner.table.items() if v in outer.table},
        )
    if isinstance(e, ast.SectionOf):
        f = reference_func_data(e.func, m)
        if e.at is None:
            raise UnsupportedConstructorError("function sections need a concrete point '@ atom'")
        k = _axis_index(f.dom, e.axis)
        if k == 1:
            return FuncData(f.dom.right, f.cod, {p[1]: v for p, v in f.table.items() if p[0] == e.at})
        return FuncData(f.dom.left, f.cod, {p[0]: v for p, v in f.table.items() if p[1] == e.at})
    if isinstance(e, (ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp)):
        l, r = reference_func_data(e.left, m), reference_func_data(e.right, m)
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
        f = reference_func_data(e.operand, m)
        _scalar(f, "negation")
        return FuncData(f.dom, XREAL, {p: -v for p, v in f.table.items()})
    if isinstance(e, ast.InnerProduct):
        l, r = reference_func_data(e.left, m), reference_func_data(e.right, m)
        common = [p for p in l.table if p in r.table]
        return FuncData(l.dom, XREAL, {p: _dot(l.table[p], r.table[p]) for p in common})
    if isinstance(e, ast.Power):
        f = reference_func_data(e.operand, m)
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
        f = reference_func_data(e.func, m)
        _scalar(f, "inf_over/sup_over")
        direction = "inf" if isinstance(e, ast.PartialInf) else "sup"
        out = sectionwise_optimum(reference_eval_set(e.dom, m), f.table, direction)
        return FuncData(f.dom.left if isinstance(f.dom, ast.ProductSpace) else f.dom, XREAL, out)
    if isinstance(e, ast.IntegralKernel):
        f = reference_func_data(e.func, m)
        _scalar(f, "integration")
        k = m.kernels[e.kernel]
        out = {}
        for x in m.spaces[k.src]:
            section = {y: f.table[(x, y)] for y in m.spaces[k.dst]}
            out[x] = integral_lower(section, k.rows[x])
        return FuncData(k.src, XREAL, out)
    if isinstance(e, ast.Select):
        members = reference_eval_set(e.operand, m)
        carrier = reference_set_carrier_of(e.operand, m)
        return FuncData(carrier.left, carrier.right, least_choice(members, m.points(carrier.right)))
    if isinstance(e, ast.FromGraph):
        g = reference_eval_set(e.graph, m)
        dom_set = reference_eval_set(e.dom, m)
        carrier = reference_set_carrier_of(e.graph, m)
        out = least_choice(((x, y) for (x, y) in g if x in dom_set), m.points(carrier.right))
        return FuncData(carrier.left, carrier.right, out)
    raise UnsupportedConstructorError(f"no finite semantics for {type(e).__name__}")


# --- AST nodes: frozen dataclasses ----------------------------------------------

# the defaults of the node fields that have one, besides a statement's line
NODE_DEFAULTS = {"at": None, "domain_set": None, "nonneg": False}


def dataclass_twin(cls) -> type:
    """A frozen dataclass with the name and fields of node class cls.

    A statement's line defaults to 0 and is neither compared nor hashed; a
    space compares and hashes by identity (eq=False)."""
    spec = []
    for name in cls._fields:
        if name == "line":
            spec.append((name, object, dataclasses.field(default=0, compare=False)))
        elif name in NODE_DEFAULTS:
            spec.append((name, object, dataclasses.field(default=NODE_DEFAULTS[name])))
        else:
            spec.append(name)
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=cls not in ast.SpaceExpr.__args__)
