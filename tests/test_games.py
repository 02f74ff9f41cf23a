"""Finite determinacy solver vs the strategy-enumeration oracle."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcalc.errors import FormatError, ResourceLimitError
from projcalc.games import (
    BUDGET_ENV,
    FiniteGame,
    compile_target_expr,
    dumps_game,
    game_from_json,
    loads_game,
    solve,
    verify_strategy,
    _capped_pow,
    _tree_nodes,
)

from .oracles import brute_force_winner, dual_prefix_holds, reference_solve, reference_target
from .progen import game_corpus


def mask_game(k: int, n_rounds: int, mask: int) -> FiniteGame:
    return FiniteGame(k, n_rounds, mask=mask)


def test_full_and_empty_targets():
    g = mask_game(2, 0, (1 << 4) - 1)
    assert solve(g) == ("I", {(): 0})
    g = mask_game(2, 0, 0)
    winner, s = solve(g)
    assert winner == "II"
    assert verify_strategy(g, s, "II")


def test_diagonal_game():
    # target: the play lands on the diagonal a0 = b0; II escapes it
    g = FiniteGame(2, 0, predicate=compile_target_expr("a0 == b0", 0))
    winner, s = solve(g)
    assert winner == "II"
    assert s == {(0,): 1, (1,): 0}
    assert verify_strategy(g, s, "II")


def test_verify_examples():
    empty = mask_game(2, 0, 0)
    assert not verify_strategy(empty, {(): 0}, "I")  # nothing lands in the empty target
    off_diag = FiniteGame(2, 0, predicate=compile_target_expr("a0 != b0", 0))
    copy = {(0,): 0, (1,): 1}
    assert verify_strategy(off_diag, copy, "II")
    assert not verify_strategy(off_diag, {(0,): 1, (1,): 0}, "II")
    assert not verify_strategy(off_diag, {}, "II")  # not total on reachable histories
    with pytest.raises(ValueError, match="player"):
        verify_strategy(off_diag, copy, "2")


def test_verify_rejects_moves_outside_alphabet():
    # (1, 5) would index play 7, past the 4 plays, where no target bit is set
    empty = mask_game(2, 0, 0)
    assert verify_strategy(empty, {(0,): 0, (1,): 0}, "II")
    assert not verify_strategy(empty, {(0,): 0, (1,): 5}, "II")
    assert not verify_strategy(empty, {(0,): 0, (1,): -1}, "II")


def test_single_move_alphabet():
    g = mask_game(1, 1, 1)  # the unique play is in the target
    assert solve(g) == ("I", {(): 0, (0, 0): 0})
    g = mask_game(1, 1, 0)
    winner, s = solve(g)
    assert winner == "II"
    assert verify_strategy(g, s, "II")


def test_exhaustive_k2_n0():
    g0 = FiniteGame(2, 0, mask=0)
    for mask in range(1 << g0.play_count):
        g = mask_game(2, 0, mask)
        winner, s = solve(g)
        assert winner == brute_force_winner(2, 0, g.hits)
        assert verify_strategy(g, s, winner)
        assert not verify_strategy(g, s, "II" if winner == "I" else "I")
        # quantifier De Morgan: II wins iff the dual prefix over the
        # complement target holds
        assert (winner == "II") == dual_prefix_holds(2, 0, g.hits)


def test_sampled_k2_n1_against_oracle():
    rng = random.Random(4096)
    masks = {0, (1 << 16) - 1, 0x00FF, 0xAAAA}
    masks.update(rng.getrandbits(16) for _ in range(40))
    for mask in sorted(masks):
        g = mask_game(2, 1, mask)
        winner, s = solve(g)
        assert winner == brute_force_winner(2, 1, g.hits)
        assert verify_strategy(g, s, winner)
        assert (winner == "II") == dual_prefix_holds(2, 1, g.hits)


def test_solve_matches_reference_walk():
    winners: dict[int, set] = {}
    for label, g in game_corpus():
        winner, strategy = solve(g)
        assert (winner, strategy) == reference_solve(g), label
        assert list(strategy) == sorted(strategy), label
        winners.setdefault(g.k, set()).add(winner)
    assert all(w == {"I", "II"} for w in winners.values()), winners


def _reachable(g: FiniteGame, strategy: dict, player: str) -> list[tuple]:
    """The player's own-turn histories that occur in play against the strategy."""
    own_parity = 0 if player == "I" else 1
    frontier, seen = [()], []
    for depth in range(g.play_length):
        if depth % 2 == own_parity:
            seen.extend(frontier)
            frontier = [h + (strategy[h],) for h in frontier]
        else:
            frontier = [h + (mv,) for h in frontier for mv in range(g.k)]
    return seen


@pytest.mark.parametrize("density", [0.3, 0.8])
def test_verify_strategy_k2_n7(density):
    rng = random.Random(707)
    g = mask_game(2, 7, sum(1 << i for i in range(2 ** 16) if rng.random() < density))
    winner, strategy = solve(g)
    assert verify_strategy(g, strategy, winner)
    assert not verify_strategy(g, strategy, "II" if winner == "I" else "I")
    # solve picks the least winning move, so where it picked 1, move 0
    # loses; flipping one reachable such entry must break the strategy
    flippable = [h for h in _reachable(g, strategy, winner) if strategy[h] == 1]
    assert flippable
    hist = flippable[len(flippable) // 2]
    assert not verify_strategy(g, {**strategy, hist: 0}, winner)


def test_strategy_moves_are_least_indexed():
    # I can win with either move; solve must report move 0
    g = mask_game(2, 0, (1 << 4) - 1)
    _, s = solve(g)
    assert s[()] == 0
    # II escapes {(0,0),(1,0),(1,1)} only via (0,1); after a0=1 II loses,
    # so only the (0,) entry is recorded
    g = mask_game(2, 0, 0b1101)
    winner, s = solve(g)
    assert winner == "I" and s == {(): 1}


def test_budget_enforced(monkeypatch):
    big = FiniteGame(3, 5, mask=0)
    with pytest.raises(ResourceLimitError) as exc:
        solve(big, budget=1000)
    assert exc.value.budget == 1000
    monkeypatch.setenv(BUDGET_ENV, "50")
    with pytest.raises(ResourceLimitError):
        solve(FiniteGame(2, 2, mask=0))
    # an explicit budget wins over the environment
    assert solve(FiniteGame(2, 2, mask=0), budget=10_000)[0] == "II"
    # k=2, N=1 has 2**5 - 1 = 31 tree nodes: the bound is exact
    assert solve(FiniteGame(2, 1, mask=0), budget=31)[0] == "II"
    with pytest.raises(ResourceLimitError):
        solve(FiniteGame(2, 1, mask=0), budget=30)
    monkeypatch.setenv(BUDGET_ENV, "plenty")
    with pytest.raises(FormatError, match=BUDGET_ENV):
        solve(FiniteGame(2, 0, mask=0))


def test_game_constructor_rejects():
    with pytest.raises(ValueError):
        FiniteGame(0, 0, mask=0)
    with pytest.raises(ValueError):
        FiniteGame(2, -1, mask=0)
    with pytest.raises(ValueError):
        FiniteGame(2, 0)  # no target at all
    with pytest.raises(ValueError):
        FiniteGame(2, 0, mask=0, predicate=lambda p: True)


def test_target_expr_arithmetic():
    pred = compile_target_expr("(a0 + b0) % 2 == 1 and a1 >= b1", 1)
    assert pred((0, 1, 1, 0))
    assert not pred((1, 1, 1, 0))
    assert not pred((0, 1, 0, 1))


@pytest.mark.parametrize("bad", [
    "__import__('os').system('true')",
    "a0.bit_length()",
    "[a0 for a0 in range(2)]",
    "b9 == 0",
    "a0 == 'x'",
    "a0 ==",
])
def test_target_expr_rejects(bad):
    with pytest.raises(FormatError):
        compile_target_expr(bad, 0)


def test_target_expr_move_names_against_horizon():
    # exactly a0..aN and b0..bN are move names, with no leading zeros and
    # ASCII digits only; each maps to its ply
    play = tuple(range(8))  # N = 3
    assert compile_target_expr("a3 == 6 and b3 == 7 and a0 == 0 and b1 == 3", 3)(play)
    for bad in ("a4", "b4", "a01", "a00", "c0", "a", "b10", "a\u0661", "a" + "9" * 5000):
        with pytest.raises(FormatError, match="unknown move name"):
            compile_target_expr(f"{bad} == 0", 3)


def test_target_expr_on_a_huge_horizon():
    # only the names that occur are mapped, so N costs nothing; a sparse
    # stand-in for the 2 * 10**9 + 2 moves shows which plies are read
    pred = compile_target_expr("a0 == b0 and b999999999 == 0", 10**9)
    assert pred({0: 1, 1: 1, 1_999_999_999: 0})
    assert not pred({0: 1, 1: 0, 1_999_999_999: 0})
    with pytest.raises(FormatError, match="unknown move name 'a1000000001'"):
        compile_target_expr("a1000000001 == 0", 10**9)


def test_capped_sizes_match_exact_sizes():
    for k in range(1, 6):
        for e in range(12):
            nodes = (k ** (e + 1) - 1) // (k - 1) if k > 1 else e + 1
            for cap in range(-3, 300):
                assert _capped_pow(k, e, cap) == min(k**e, cap), (k, e, cap)
                assert _tree_nodes(k, e, cap) == min(nodes, cap), (k, e, cap)
    # huge exponents stop at the cap
    assert _capped_pow(2, 10**12, 1000) == 1000
    assert _capped_pow(1, 10**12, 1000) == 1
    assert _tree_nodes(2, 2 * 10**9 + 2, 10**7 + 1) == 10**7 + 1
    assert _tree_nodes(1, 2 * 10**9 + 2, 10**7 + 1) == 10**7 + 1


def test_from_json_bitset_on_huge_horizons():
    # the bit-length check needs no power of k
    g = game_from_json({"schema": "projcalc/1", "k": 10**50, "N": 3, "target": "0x" + "f" * 1000})
    assert g.mask.bit_length() == 4000
    with pytest.raises(ResourceLimitError):
        solve(g)
    # k = 1 has one play at every horizon
    assert game_from_json({"schema": "projcalc/1", "k": 1, "N": 10**9, "target": "0x1"}).mask == 1
    with pytest.raises(FormatError, match="more bits"):
        game_from_json({"schema": "projcalc/1", "k": 1, "N": 10**9, "target": "0x2"})


def test_game_round_trips():
    g = FiniteGame(2, 1, mask=0xBEEF)
    text = dumps_game(g)
    assert dumps_game(loads_game(text)) == text
    assert loads_game(text).mask == 0xBEEF
    ge = FiniteGame(2, 0, predicate=compile_target_expr("a0 == b0", 0), expr="a0 == b0")
    ge2 = loads_game(dumps_game(ge))
    assert ge2.expr == "a0 == b0"
    assert solve(ge2) == solve(ge)


def test_game_disk_round_trip(tmp_path):
    path = tmp_path / "g.pjg"
    g = FiniteGame(2, 1, mask=0x1234)
    path.write_text(dumps_game(g), encoding="utf-8")
    assert loads_game(path.read_text(encoding="utf-8")).mask == 0x1234


@pytest.mark.parametrize("doc", [
    '{"k": 2, "N": 0, "target": "0x0"}',  # missing schema
    '{"schema": "projcalc/1", "k": 2, "target": "0x0"}',
    '{"schema": "projcalc/1", "k": 0, "N": 0, "target": "0x0"}',
    '{"schema": "projcalc/1", "k": 2, "N": -1, "target": "0x0"}',
    '{"schema": "projcalc/1", "k": 2, "N": 0, "target": "xyz"}',
    '{"schema": "projcalc/1", "k": 2, "N": 0, "target": "-0x1"}',
    '{"schema": "projcalc/1", "k": 2, "N": 0, "target": "0x10"}',  # 5th bit, only 4 plays
    '{"schema": "projcalc/1", "k": 2, "N": 0, "target": 7}',
    '{"schema": "projcalc/1", "k": 2, "N": 0, "target": {"expr": "c0"}}',
    '[1]',
    '{"schema":',
    '{"schema": "projcalc/1", "k": 2.7, "N": 0, "target": "0x0"}',  # not truncated to 2
    '{"schema": "projcalc/1", "k": true, "N": 0, "target": "0x0"}',
    '{"schema": "projcalc/1", "k": 2, "N": "3", "target": "0x0"}',
])
def test_loads_game_rejects(doc):
    with pytest.raises(FormatError):
        loads_game(doc)


def test_target_dividing_by_zero_is_a_format_error():
    # the first play in play-index order whose target divides by zero is named
    g = loads_game('{"schema": "projcalc/1", "k": 2, "N": 1, "target": {"expr": "b0 == 0 or a0 % a1 == 0"}}')
    with pytest.raises(FormatError, match=r"^bad target expression: division by zero on play 0 1 0 0$"):
        solve(g)
    every_reply = {hist: 0 for depth in (1, 3) for hist in product(range(2), repeat=depth)}
    with pytest.raises(FormatError, match="division by zero on play 0 1 0 0"):
        verify_strategy(g, every_reply, "II")


def _target_exprs(n_rounds: int):
    """Whitelisted target expressions over the move names of horizon N."""
    names = [f"{p}{i}" for i in range(n_rounds + 1) for p in "ab"]
    moves = st.sampled_from(names)
    leaves = moves | moves | st.integers(-3, 7).map(str) | st.sampled_from(["True", "False"])

    def grow(sub):
        # % and // come up often, so that plays dividing by zero do too
        binary = st.tuples(sub, st.sampled_from(["+", "-", "*", "%", "%", "//", "//", "==", "!=", "<", "<=",
                                                 ">", ">=", "and", "or"]), sub)
        return (
            binary.map(lambda t: f"({t[0]} {t[1]} {t[2]})")
            | st.tuples(st.sampled_from(["not ", "-", "+"]), sub).map(lambda t: f"({t[0]}{t[1]})")
            | st.tuples(sub, sub, sub).map(lambda t: f"({t[0]} < {t[1]} <= {t[2]})")
        )

    return st.recursive(leaves, grow, max_leaves=12)


def _outcome(predicate, play):
    try:
        return bool(predicate(play))
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([0, 1, 2]), st.data())
def test_compiled_target_matches_env_eval(k, n_rounds, data):
    # the compiled lambda against a per-play eval of the same text: equal
    # on every play, or both divide by zero first on the same play
    expr = data.draw(_target_exprs(n_rounds))
    compiled, reference = compile_target_expr(expr, n_rounds), reference_target(expr, n_rounds)
    for play in product(range(k), repeat=2 * n_rounds + 2):
        outcome = _outcome(compiled, play)
        assert outcome == _outcome(reference, play), (expr, play)
        if outcome is ZeroDivisionError:
            shown = " ".join(map(str, play))
            with pytest.raises(FormatError, match=f"^bad target expression: division by zero on play {shown}$"):
                solve(FiniteGame(k, n_rounds, predicate=compiled, expr=expr))
            break


def test_loads_game_huge_integer():
    # past int()'s 4300-digit limit, json.loads raises a plain ValueError
    doc = '{"N": ' + "9" * 5000 + ', "k": 2, "schema": "projcalc/1", "target": "0x1"}'
    with pytest.raises(FormatError, match="an integer has too many digits"):
        loads_game(doc)


def test_from_json_bitset_on_huge_game():
    # 2**82 plays: the bound check must not build a 2**82-bit integer
    g = game_from_json({"schema": "projcalc/1", "k": 2, "N": 40, "target": "0x1"})
    assert g.mask == 1
    with pytest.raises(ResourceLimitError):
        solve(g)
    # nor at N = 10**9, where k**(2N+2) cannot be built at all
    g = game_from_json({"schema": "projcalc/1", "k": 2, "N": 10**9, "target": "0x1"})
    assert g.mask == 1
    with pytest.raises(ResourceLimitError):
        solve(g)


def test_from_json_play_count_boundary():
    # k=2, N=0 has 4 plays; 0xF is the largest legal bitset
    g = game_from_json({"schema": "projcalc/1", "k": 2, "N": 0, "target": "0xf"})
    assert g.mask == 0xF
