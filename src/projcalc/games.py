"""Finite alternating games solved by backward induction.

A game fixes an alphabet {0..k-1} and a horizon: players alternate for
2N+2 plies, Player I moving first, and Player I wins exactly when the
completed play lands in the target set.  Finite determinacy (exactly one
player has a winning strategy) falls out of the induction; the solver also
extracts the winner's strategy, choosing the least winning move at every
node so results are reproducible.

The induction runs level by level rather than node by node.  The target is
turned into a table of leaf values once, one byte (0 or 1) per play in
play-index order; each shallower level is then the bitwise OR (Player I's
plies) or AND (Player II's) of the k strided slices of the level below,
each read as one big integer, so the per-node work runs in C.  Time is
linear in the number of plays, and the levels take at most two bytes per
play (they shrink by a factor of k).

``solve`` returns the strategy as a read-only mapping over the levels.
Its entries are listed in sorted history order from one integer code per
entry (about 40 bytes each), spelled through tables of about the square
root of the play count in size, so a report can be written in bounded
pieces.

Targets come as bitsets over play indices (big-endian base-k encoding of
the move sequence) or as predicates; game files support a restricted
arithmetic expression form over the move names a0, b0, a1, b1, ...
"""

from __future__ import annotations

import ast as pyast
import json
import os
import re
import warnings
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import compress, product, repeat
from operator import add, and_, floordiv, mod, or_
from typing import Any, Callable

from .errors import FormatError, ResourceLimitError, read_json

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV = "PROJCALC_NODE_BUDGET"
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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
        raise FormatError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


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
    once per play, and a play on which it divides by zero is a malformed
    target, named in the error as the first such play in play-index order.
    """
    n = g.play_count
    if g.mask is not None:
        bits = format(g.mask, f"0{n}b")[::-1][:n]  # character i is bit i
        return bits.encode("ascii").translate(_BIT_BYTES)
    try:
        return bytes(map(bool, map(g.predicate, product(range(g.k), repeat=g.play_length))))
    except ZeroDivisionError:
        for play in product(range(g.k), repeat=g.play_length):
            try:
                g.predicate(play)
            except ZeroDivisionError:
                shown = " ".join(map(str, play))
                raise FormatError(f"bad target expression: division by zero on play {shown}") from None
        raise


def _reduce(level: bytes, k: int, op) -> bytes:
    """The level above: op (``or_`` or ``and_``) of each node's k children.

    Child m of every node lies in the strided slice ``level[m::k]``; the
    values are 0 and 1 bytes, so one big-integer op combines all the nodes.
    """
    size = len(level) // k
    value = reduce(op, (int.from_bytes(level[m::k], "big") for m in range(k)))
    return value.to_bytes(size, "big")


def _least_ones(good: bytes, k: int) -> bytearray:
    """1 at each node's least child whose byte in ``good`` is 1, 0 elsewhere."""
    size = len(good) // k
    least = bytearray(len(good))
    seen = 0
    for m in range(k):
        mine = int.from_bytes(good[m::k], "big")
        least[m::k] = (mine & ~seen).to_bytes(size, "big")
        seen |= mine
    return least


def solve(g: FiniteGame, budget: int | None = None) -> tuple[str, Strategy]:
    """Winner and the winner's strategy (own-turn history -> move).

    Backward induction, one ply at a time: level d holds, for each of the
    k**d histories of length d in ``itertools.product`` order, whether
    Player I wins from there.  The leaf level is the target's leaf table;
    the node at index j of level d has its children at j*k .. j*k+k-1 of
    level d+1, so the level is the OR of the k strided slices of the level
    below on Player I's plies and their AND on Player II's, each slice read
    as one big integer.  Time is linear in the number of plays, and the
    levels take at most two bytes per play.

    The strategy has an entry for every history at which the winner is to
    move and wins, not only the reachable ones, mapping it to the least
    winning move; entries come in sorted history order.  It is a read-only
    ``Strategy`` over the levels: a lookup reads them directly, and the
    entry codes that iteration and reports use are built on first use,
    one Python int (about 40 bytes) per entry.  The cost is checked against
    the node budget up front.
    """
    limit = _node_budget(budget)
    if _tree_nodes(g.k, g.play_length, limit + 1) > limit:
        raise ResourceLimitError(limit)
    k, length = g.k, g.play_length
    levels = [_leaf_values(g)]
    for depth in reversed(range(length)):
        levels.append(_reduce(levels[-1], k, or_ if depth % 2 == 0 else and_))
    levels.reverse()
    want = levels[0][0]  # 1 iff Player I wins
    return ("I" if want else "II"), Strategy(k, length, want, levels)


def _shifted(value: int, k: int, width: int) -> tuple:
    """The moves that ``width`` base-(k+1) digits spell, each digit one more
    than its move, up to the first 0 digit, which ends the history."""
    digits = []
    for _ in range(width):
        value, digit = divmod(value, k + 1)
        digits.append(digit - 1)
    digits.reverse()
    return tuple(digits[:digits.index(-1)] if -1 in digits else digits)


class Strategy(Mapping):
    """The winner's strategy, read from the solver's levels.

    A read-only mapping from each history at which the winner is to move
    and wins to its least winning move, iterated in sorted history order;
    it compares equal to the dict with the same entries.

    Each entry also has a code: a history h of length d with move m has
    ``(sum((h[i] + 1) * (k + 1) ** (L - 1 - i) for i < d)) * k + m`` for a
    play length L.  Reading the part above the move as L base-(k+1) digits,
    a digit is one more than its move and 0 past the history's end, so
    codes sort as their histories do.  ``codes`` lists them in that order.
    """

    def __init__(self, k: int, length: int, want: int, levels: list[bytes]):
        self.k, self.length = k, length
        self._want, self._levels = want, levels
        self._depths = range(1 - want, length, 2)  # the winner's plies

    def __len__(self) -> int:
        return sum(self._levels[depth].count(self._want) for depth in self._depths)

    def __getitem__(self, history):
        k, want = self.k, self._want
        if not isinstance(history, tuple) or len(history) not in self._depths:
            raise KeyError(history)
        index = 0
        for move in history:
            if not (isinstance(move, int) and 0 <= move < k):
                raise KeyError(history)
            index = index * k + move
        depth = len(history)
        if self._levels[depth][index] != want:
            raise KeyError(history)
        return self._levels[depth + 1].index(want, index * k, index * k + k) - index * k

    def __iter__(self) -> Iterator[tuple]:
        return self.spell(lambda moves, ends: moves, lambda moves, move: moves)

    def items(self) -> ItemsView:
        return _Entries(self)

    @cached_property
    def codes(self) -> list[int]:
        """Every entry's code, ascending.

        Per winner ply, the least winning child of each won node is found
        from the level below with strided slices, and its index c = j*k + m
        splits into a high and a low part, each looked up in a table of
        about the square root of the ply's node count.
        """
        k, length, want = self.k, self.length, self._want
        shifted = [[0]]  # shifted[i][x]: x's i base-k digits, each plus one, read in base k+1
        codes: list[int] = []
        for depth in self._depths:
            below = self._levels[depth + 1]
            good = below if want else below.translate(_FLIP)
            children = list(compress(range(len(below)), _least_ones(good, k)))
            low = depth // 2  # moves in the low part, the entry's move below them
            while len(shifted) <= depth - low:
                shifted.append([x * (k + 1) + m + 1 for x in shifted[-1] for m in range(k)])
            scale = (k + 1) ** (length - depth) * k
            high_scale = (k + 1) ** low * scale
            high_codes = [x * high_scale for x in shifted[depth - low]]
            low_codes = [shifted[low][b // k] * scale + b % k for b in range(k ** (low + 1))]
            split = repeat(k ** (low + 1))
            codes.extend(map(
                add,
                map(high_codes.__getitem__, map(floordiv, children, split)),
                map(low_codes.__getitem__, map(mod, children, split)),
            ))
        codes.sort()  # one ascending run per ply, merged
        return codes

    def spell(self, high: Callable[[tuple, bool], Any], low: Callable[[tuple, int], Any]) -> Iterator:
        """``high(moves, ends) + low(moves, move)`` for every entry, in order.

        A code splits at a fixed digit position: ``high`` gets the history's
        moves above it and whether the history ends there, ``low`` the moves
        below it and the entry's move.  Each is called once per distinct
        value, so the work per entry is a few C-level steps, and entries are
        made one at a time as the iterator is read.  No entry's history ends
        exactly at the split, so a history ends above it iff ``low`` gets no
        moves.
        """
        k, length = self.k, self.length
        width = length // 2 + (length // 2 - self._want) % 2  # parity unlike the winner's plies
        highs = cache(lambda value: high(_shifted(value, k, width), value % (k + 1) == 0))
        lows = cache(lambda value: low(_shifted(value // k, k, length - width), value % k))
        split = repeat((k + 1) ** (length - width) * k)
        return map(add, map(highs, map(floordiv, self.codes, split)), map(lows, map(mod, self.codes, split)))


class _Entries(ItemsView):
    """A strategy's (history, move) pairs, each move read off its entry's
    code rather than looked up in the levels."""

    def __iter__(self):
        strategy = self._mapping
        return zip(strategy, map(mod, strategy.codes, repeat(strategy.k)))


def verify_strategy(g: FiniteGame, strategy: Mapping, player: str) -> bool:
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
    the move names are allowed; anything else is rejected.  Each move name
    that occurs becomes the subscript ``p[ply]`` of the play ``p``, and the
    expression compiles once into ``lambda p: ...`` without builtins, so
    only the names that occur are mapped and the horizon costs nothing.
    The predicate returns the expression's value, true for plays in the
    target, and raises ZeroDivisionError on a play where it divides by zero.
    """
    plies: dict[str, int] = {}
    # the parser and the compiler each give up on deep nesting in their own
    # way: MemoryError from the parser's stack, RecursionError from compile
    too_deep = "bad target expression: nested too deeply"
    try:
        # a text that Python's parser accepts with a warning (such as "1and")
        # is refused, so that no warning reaches stderr beside a report
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
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
        if isinstance(node, pyast.Name) and node.id not in plies:
            pos = _move_position(node.id, n_rounds)
            if pos is None:
                raise FormatError(f"unknown move name {node.id!r} in target expression")
            plies[node.id] = pos
    for node in pyast.walk(tree):
        for field, value in pyast.iter_fields(node):
            if isinstance(value, pyast.Name):
                setattr(node, field, _read_move(value, plies[value.id]))
            elif isinstance(value, list):
                value[:] = [_read_move(v, plies[v.id]) if isinstance(v, pyast.Name) else v for v in value]
    at = _location(tree.body)
    params = pyast.arguments(posonlyargs=[], args=[pyast.arg("p", **at)], kwonlyargs=[], kw_defaults=[], defaults=[])
    try:
        code = compile(pyast.Expression(pyast.Lambda(params, tree.body, **at)), "<target>", "eval")
    except (MemoryError, RecursionError):
        raise FormatError(too_deep) from None
    return eval(code, {"__builtins__": {}})


def _location(node: pyast.AST) -> dict:
    return {key: getattr(node, key) for key in ("lineno", "col_offset", "end_lineno", "end_col_offset")}


def _read_move(name: pyast.Name, ply: int) -> pyast.Subscript:
    """``p[ply]`` in place of a move name, at the name's place in the source."""
    at = _location(name)
    return pyast.Subscript(pyast.Name("p", pyast.Load(), **at), pyast.Constant(ply, **at), pyast.Load(), **at)


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
