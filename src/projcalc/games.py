"""Finite alternating games solved by backward induction.

A game fixes an alphabet {0..k-1} and a horizon: players alternate for
2N+2 plies, Player I moving first, and Player I wins exactly when the
completed play lands in the target set.  Finite determinacy (exactly one
player has a winning strategy) falls out of the induction; the solver also
extracts the winner's strategy, choosing the least winning move at every
node so results are reproducible.

The induction runs level by level rather than node by node.  The target is
turned into a table of leaf values once, one byte per play in play-index
order; each shallower level is then reduced from the one below it by
k-strided slices, so time is linear in the number of plays and memory is
at most two bytes per play (the levels shrink by a factor of k).

Targets come as bitsets over play indices (big-endian base-k encoding of
the move sequence) or as predicates; game files support a restricted
arithmetic expression form over the move names a0, b0, a1, b1, ...
"""

from __future__ import annotations

import ast as pyast
import json
import os
import re
from dataclasses import dataclass
from itertools import compress, product, repeat
from typing import Callable

from .errors import FormatError, ResourceLimitError, read_json

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV = "PROJCALC_NODE_BUDGET"
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@dataclass
class FiniteGame:
    k: int
    n_rounds: int  # horizon N; plays have 2N+2 moves
    mask: int | None = None
    predicate: Callable[[tuple], bool] | None = None
    expr: str | None = None  # source text when the predicate came from a file

    def __post_init__(self):
        if self.k < 1 or self.n_rounds < 0:
            raise ValueError("need alphabet size k >= 1 and horizon N >= 0")
        if (self.mask is None) == (self.predicate is None):
            raise ValueError("exactly one of mask and predicate must be given")

    @property
    def play_length(self) -> int:
        return 2 * self.n_rounds + 2

    @property
    def play_count(self) -> int:
        return self.k ** self.play_length

    def play_index(self, play: tuple) -> int:
        idx = 0
        for mv in play:
            idx = idx * self.k + mv
        return idx

    def hits(self, play: tuple) -> bool:
        if self.mask is not None:
            return bool((self.mask >> self.play_index(play)) & 1)
        return bool(self.predicate(play))


def _node_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def _capped_pow(k: int, e: int, cap: int) -> int:
    """min(k ** e, cap) for k >= 1, without building a power past cap."""
    if k == 1:
        return min(1, cap)
    out = 1
    for _ in range(e):  # at most log2(cap) + 1 rounds, since k >= 2
        out *= k
        if out >= cap:
            return cap
    return min(out, cap)


def _tree_nodes(k: int, length: int, cap: int) -> int:
    """min(nodes of the full k-ary tree of the given depth, cap), root included."""
    if k == 1:
        return min(length + 1, cap)
    # (k**(length+1) - 1) // (k-1) reaches cap exactly when the power reaches cap*(k-1) + 1
    return (_capped_pow(k, length + 1, cap * (k - 1) + 1) - 1) // (k - 1)


def _leaf_values(g: FiniteGame) -> bytes:
    """Target membership of every play: byte i is 1 iff play i is in the target.

    Plays are in play-index order, which is ``itertools.product`` order.  A
    bitset is read through its binary string once; a predicate is called
    once per play.
    """
    n = g.play_count
    if g.mask is not None:
        bits = format(g.mask, f"0{n}b")[::-1][:n]  # character i is bit i
        return bits.encode("ascii").translate(_BIT_BYTES)
    return bytes(map(bool, map(g.predicate, product(range(g.k), repeat=g.play_length))))


def solve(g: FiniteGame, budget: int | None = None) -> tuple[str, dict]:
    """Winner and the winner's strategy (own-turn history -> move).

    Backward induction, one ply at a time: level d holds, for each of the
    k**d histories of length d in ``itertools.product`` order, whether
    Player I wins from there.  The leaf level is the target's leaf table;
    the node at index j of level d has its children at j*k .. j*k+k-1 of
    level d+1, so the level is ``any`` over the k strided slices of the
    level below on Player I's plies and ``all`` on Player II's.  Time is
    linear in the number of plays, and the stored levels take at most two
    bytes per play.

    The strategy has an entry for every history at which the winner is to
    move and wins, not only the reachable ones, mapping it to the least
    winning move; entries come in sorted history order.  The cost is
    checked against the node budget up front.
    """
    limit = _node_budget(budget)
    if _tree_nodes(g.k, g.play_length, limit + 1) > limit:
        raise ResourceLimitError(limit)
    k, length = g.k, g.play_length
    levels = [_leaf_values(g)]
    for depth in reversed(range(length)):
        pick = any if depth % 2 == 0 else all
        levels.append(bytes(map(pick, _children(levels[-1], k))))
    levels.reverse()

    want = levels[0][0]  # 1 iff Player I wins; also the value of every node the winner wins
    keys, hists, moves = [], [], []
    for depth in range(1 - want, length, 2):
        won = [value == want for value in levels[depth]]
        # sort key: the history's first play, then its length, so that a
        # history sorts before its extensions
        step = k ** (length - depth) * (length + 1)
        keys.extend(compress(range(depth, k ** depth * step, step), won))
        hists.extend(compress(product(range(k), repeat=depth), won))
        moves.extend(map(tuple.index, compress(_children(levels[depth + 1], k), won), repeat(want)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    strategy = dict(zip(map(hists.__getitem__, order), map(moves.__getitem__, order)))
    return ("I" if want else "II"), strategy


def _children(level: bytes, k: int):
    """The k child values of each node of the level above, as tuples."""
    return zip(*(level[m::k] for m in range(k)))


def verify_strategy(g: FiniteGame, strategy: dict, player: str) -> bool:
    """True iff every opponent completion against the strategy wins.

    A history the strategy misses, or a move outside the alphabet, fails.
    """
    if player not in ("I", "II"):
        raise ValueError(f"player must be 'I' or 'II', got {player!r}")
    own_parity = 0 if player == "I" else 1
    moves = range(g.k)
    frontier = [((), 0)]  # (history, index among the histories of its length)
    for depth in range(g.play_length):
        if depth % 2 == own_parity:
            chosen = []
            for hist, idx in frontier:
                mv = strategy.get(hist)
                if mv not in moves:
                    return False
                chosen.append((hist + (mv,), idx * g.k + mv))
            frontier = chosen
        else:
            frontier = [(hist + (mv,), idx * g.k + mv) for hist, idx in frontier for mv in moves]
    leaves = _leaf_values(g)
    want = 1 if player == "I" else 0
    return all(leaves[idx] == want for _, idx in frontier)


# --- expression targets --------------------------------------------------------

_ALLOWED_NODES = (
    pyast.Expression,
    pyast.BoolOp,
    pyast.And,
    pyast.Or,
    pyast.UnaryOp,
    pyast.Not,
    pyast.USub,
    pyast.UAdd,
    pyast.BinOp,
    pyast.Add,
    pyast.Sub,
    pyast.Mult,
    pyast.Mod,
    pyast.FloorDiv,
    pyast.Compare,
    pyast.Eq,
    pyast.NotEq,
    pyast.Lt,
    pyast.LtE,
    pyast.Gt,
    pyast.GtE,
    pyast.Name,
    pyast.Load,
    pyast.Constant,
)


def compile_target_expr(source: str, n_rounds: int) -> Callable[[tuple], bool]:
    """Predicate over plays from an arithmetic expression in a0, b0, a1, ...

    Only boolean/arithmetic operators, comparisons, integer constants and
    the move names are allowed; anything else is rejected.  Only the names
    that occur are mapped, so the horizon costs nothing here.
    """
    names = {}
    # the parser and the compiler each give up on deep nesting in their own
    # way: MemoryError from the parser's stack, RecursionError from compile
    too_deep = "bad target expression: nested too deeply"
    try:
        tree = pyast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise FormatError(f"bad target expression: {exc.msg}") from None
    except (MemoryError, RecursionError):
        raise FormatError(too_deep) from None
    for node in pyast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise FormatError(f"target expression uses forbidden syntax: {type(node).__name__}")
        if isinstance(node, pyast.Constant) and not isinstance(node.value, (int, bool)):
            raise FormatError(f"target expression constant {node.value!r} is not an integer")
        if isinstance(node, pyast.Name) and node.id not in names:
            pos = _move_position(node.id, n_rounds)
            if pos is None:
                raise FormatError(f"unknown move name {node.id!r} in target expression")
            names[node.id] = pos
    try:
        code = compile(tree, "<target>", "eval")
    except (MemoryError, RecursionError):
        raise FormatError(too_deep) from None

    def predicate(play: tuple) -> bool:
        env = {name: play[pos] for name, pos in names.items()}
        try:
            return bool(eval(code, {"__builtins__": {}}, env))
        except ZeroDivisionError:
            # plays are tried in play-index order, so this names the first one
            raise FormatError(
                f"bad target expression: division by zero on play {' '.join(map(str, play))}"
            ) from None

    return predicate


_MOVE_NAME = re.compile(r"([ab])(0|[1-9][0-9]*)")


def _move_position(name: str, n_rounds: int) -> int | None:
    """Ply of move name a<i> (2i) or b<i> (2i+1) for i <= N, else None."""
    match = _MOVE_NAME.fullmatch(name)
    if match is None or len(match[2]) > len(str(n_rounds)):
        return None
    i = int(match[2])
    if i > n_rounds:
        return None
    return 2 * i + (match[1] == "b")


# --- wire format (.pjg) --------------------------------------------------------


def game_to_json(g: FiniteGame) -> dict:
    if g.mask is not None:
        target = hex(g.mask)
    elif g.expr is not None:
        target = {"expr": g.expr}
    else:
        raise FormatError("only bitset and expression targets can be serialized")
    return {"schema": "projcalc/1", "k": g.k, "N": g.n_rounds, "target": target}


def game_from_json(obj) -> FiniteGame:
    if not isinstance(obj, dict):
        raise FormatError("game document must be an object")
    if obj.get("schema") != "projcalc/1":
        raise FormatError(f"unsupported schema {obj.get('schema')!r}")
    try:
        k, n_rounds, target = obj["k"], obj["N"], obj["target"]
    except KeyError as exc:
        raise FormatError(f"malformed game: {exc!r}") from None
    for key, value in (("k", k), ("N", n_rounds)):
        if type(value) is not int:  # not 2.7, true or "3"
            raise FormatError(f"{key} must be an integer, got {type(value).__name__}")
    if k < 1 or n_rounds < 0:
        raise FormatError(f"need k >= 1 and N >= 0, got k={k}, N={n_rounds}")
    if isinstance(target, str):
        try:
            mask = int(target, 16)
        except ValueError:
            raise FormatError(f"bad bitset {target!r}") from None
        if mask < 0:
            raise FormatError("bitsets are nonnegative")
        game = FiniteGame(k, n_rounds, mask=mask)
        bits = mask.bit_length()
        if _capped_pow(k, game.play_length, bits) < bits:
            raise FormatError("bitset has more bits than the game has plays")
        return game
    if isinstance(target, dict) and isinstance(target.get("expr"), str):
        pred = compile_target_expr(target["expr"], n_rounds)
        return FiniteGame(k, n_rounds, predicate=pred, expr=target["expr"])
    raise FormatError("target must be a hex bitset string or {\"expr\": ...}")


def dumps_game(g: FiniteGame) -> str:
    return json.dumps(game_to_json(g), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def loads_game(text: str) -> FiniteGame:
    return game_from_json(read_json(text))
