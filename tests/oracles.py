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
- tokens: a match for each token and another for each gap between tokens,
  not the lexer's single match per token;
- SUM-PRE rectangles: every candidate tested at every point, not the
  oracle's one sort and one bisection per point;
- derivation equality: a field-by-field walk over pairs of nodes, not
  serialize's node table;
- .pjd rows: json.dumps of each row as a dict, not serialize's rows
  spelled out piece by piece.
"""

from __future__ import annotations

import itertools
import json
import re

from projcalc.errors import ParseError
from projcalc.parser import Token
from projcalc.pointclass import Kind, PointClass, delta, pi, sigma
from projcalc.xreal import fin


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
                "cite": n.cite,
                "premises": [row_of[id(p)] for p in n.premises],
                "conclusion": {"subject": c.subject, "judgment": c.judgment.render(), "mode": c.mode},
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        row_of[id(n)] = rows.setdefault(line, len(rows))
    return '{"nodes": [\n' + ",\n".join(rows) + '\n], "schema": "projcalc/2"}\n'
