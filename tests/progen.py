"""Deterministic DSL program corpus for the derivation-soundness sweep.

Every program shares one declaration header and mixes binding templates so
that, across the corpus, every set and function constructor shows up at
least once (the first len(TEMPLATES) programs round-robin through the
template list).  All bindings infer cleanly in ZFC_PD mode.

Also a small seeded game corpus, shared by the solver and CLI tests.
"""

from __future__ import annotations

import random
from pathlib import Path

from projcalc.games import FiniteGame, compile_target_expr, loads_game

HEADER = """\
space X = baire
space Y = cantor
space Z = prod(X, Y)
set A in X : sigma 1
set C in X : pi 2
set E in X : delta 3
set B in Y : pi 2
set D in Z : delta 2
set P in Z : pi 1
func f : Z -> xreal : delta 2
func pf : Z -> xreal on D : delta 2
func g : X -> Y : borel
func h : Y -> reals : delta 3
func u : X -> reals : delta 1 nonneg
kernel q : X ~> Y : delta 1
"""

# one entry per surface constructor; the suffix keeps let names unique
TEMPLATES = {
    "compl": lambda s: [f"let Co{s} = compl(A)"],
    "union": lambda s: [f"let Un{s} = union(A, compl(C))"],
    "inter": lambda s: [f"let In{s} = inter(A, E)"],
    "prodset": lambda s: [f"let Pr{s} = prod(A, B)"],
    "proj_axis": lambda s: [f"let Pj{s} = proj[1](D)"],
    "proj_name": lambda s: [f"let Pn{s} = proj[Y](D)"],
    "img": lambda s: [f"let Im{s} = img[g](A)"],
    "pre": lambda s: [f"let Pe{s} = pre[g](B)"],
    "section": lambda s: [f"let Se{s} = section[1 @ a0](D)"],
    "graph": lambda s: [f"let Gr{s} = graph(f)"],
    "graph_partial": lambda s: [f"let Gp{s} = graph(pf)"],
    "sublevel": lambda s: [f"let Sl{s} = sublevel(f, <, 1/2)"],
    "measure": lambda s: [f"let Me{s} = measure_ge(A, 1/3)"],
    "measure_pd": lambda s: [f"let Mp{s} = measure_ge(E, 1/2)"],
    "cunion": lambda s: [f"let Cu{s} = union i in nat of V_i in X with levels bounded sigma 2"],
    "cinter": lambda s: [f"let Ci{s} = inter i in nat of V_i in X with levels constant pi 1"],
    "cexplicit": lambda s: [f"let Ce{s} = union i in nat of V_i in X with levels from [sigma 1, delta 2]"],
    "pair": lambda s: [f"let Pa{s} = pair(g, g)"],
    "cyl": lambda s: [f"let Cy{s} = cyl[Y](u)"],
    "compose": lambda s: [f"let Cm{s} = compose(h, g)"],
    "fsection": lambda s: [f"let Fs{s} = fsection[1 @ a0](f)"],
    "arith": lambda s: [f"let Ar{s} = add(mul(u, u), neg(min(u, max(u, u))))"],
    "inner": lambda s: [f"let Ip{s} = inner(u, u)"],
    "pow": lambda s: [f"let Pw{s} = pow(u, 3/2)"],
    "csup": lambda s: [f"let Cs{s} = sup i in nat of w_i in X with levels bounded delta 2"],
    "cinf": lambda s: [f"let Cf{s} = inf i in nat of w_i in X with levels bounded delta 3"],
    "inf_over": lambda s: [f"let Io{s} = inf_over(f, D)"],
    "sup_over": lambda s: [f"let So{s} = sup_over(f, D)"],
    "integral": lambda s: [f"let Ig{s} = integral(f, q)"],
    "select_zfc": lambda s: [f"let Sz{s} = select(P)"],
    "select_pd": lambda s: [f"let Sp{s} = select(D)"],
    "eps_inf": lambda s: [f"let Ei{s} = eps_inf(D, f, 1/4)"],
    "eps_sup": lambda s: [f"let Es{s} = eps_sup(D, f, 1/8)"],
    "from_graph": lambda s: [f"let Fg{s} = from_graph(graph(g), A)"],
}

ASSERTS = (
    "assert class(A) == sigma 1",
    "assert level(u) <= delta 1",
    "assert class(D) <= delta 2",
    "assert um(A)",
    "assert um(E)",
    "assert level(compose(h, g)) <= delta 4",
)

# read by the syntax digests alongside HEADER, TEMPLATES and ASSERTS, never by
# corpus(): it spells the space forms no declaration or template needs
SYNTAX_EXTRAS = ("space M = measures(prod(nat, reals))",)


def corpus(count: int = 55, seed: int = 11) -> list[str]:
    """count programs; same (count, seed) gives the same list."""
    rng = random.Random(seed)
    tags = sorted(TEMPLATES)
    programs = []
    for i in range(count):
        chosen = {tags[i % len(tags)]}
        chosen.update(rng.sample(tags, k=rng.randint(1, 3)))
        lines = []
        for j, tag in enumerate(sorted(chosen)):
            lines.extend(TEMPLATES[tag](f"{i}x{j}"))
        lines.extend(rng.sample(ASSERTS, k=rng.randint(1, 2)))
        programs.append(HEADER + "\n".join(lines) + "\n")
    return programs


def doubling_chain(n: int) -> str:
    """n lets, each using the previous one twice: 3 * 2**n - 2 nodes as a tree, 2n + 1 distinct."""
    lines = ["space X = baire", "set A0 in X : sigma 1"]
    lines += [f"let A{i} = union(A{i - 1}, compl(A{i - 1}))" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def linear_chain(n: int) -> str:
    """n lets, each the complement of the previous one: n + 1 distinct nodes, depth n."""
    lines = ["space X = baire", "set A0 in X : sigma 1"]
    lines += [f"let A{i} = compl(A{i - 1})" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def compl_nest(depth: int) -> str:
    """One let whose expression is depth nested complements."""
    expr = "compl(" * depth + "A0" + ")" * depth
    return f"space X = baire\nset A0 in X : sigma 1\nlet N = {expr}\n"


def space_nest(word: str, depth: int) -> str:
    """One let whose carriers are depth nested prod(reals, ...) or measures(...) forms."""
    space = ("prod(reals, " if word == "prod" else f"{word}(") * depth + "reals" + ")" * depth
    return (
        f"set B in {space} : sigma 1\nfunc u : reals -> {space} : delta 1\n"
        f"let N = pre[cyl[{space}](u)](B)\n"
    )


def neg_nest(depth: int) -> str:
    """One let whose expression is depth nested negations of a function."""
    expr = "neg(" * depth + "u" + ")" * depth
    return f"space X = baire\nfunc u : X -> reals : delta 1\nlet N = {expr}\n"


# (k, N) of the bitset games; each gets a sparse and a dense target so that
# both players win somewhere for every k
MASK_SHAPES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
               (3, 0), (3, 1), (3, 2), (5, 0), (5, 1)]
TARGET_EXPRS = [
    (2, 0, "a0 == b0"),
    (2, 1, "a0 == b0 and a1 == b1"),
    (3, 1, "(a0 + 2*b0 + a1) % 3 != b1"),
    (2, 3, "(3*a0 + b0 + 5*a1 + 2*b1 + a2 + 4*b2 + 6*a3 + b3) % 7 < 6"),
]
PARITY_GAME = Path(__file__).resolve().parents[1] / "demos" / "games" / "parity.pjg"


def game_corpus(seed: int = 23) -> list[tuple[str, FiniteGame]]:
    """(label, game) pairs: seeded bitsets, expression targets and the demo game.

    Every game can be written back to a .pjg file.
    """
    rng = random.Random(seed)
    games = []
    for k, n_rounds in MASK_SHAPES:
        plays = k ** (2 * n_rounds + 2)
        for density in (0.3, 0.85):
            mask = sum(1 << i for i in range(plays) if rng.random() < density)
            games.append((f"mask-k{k}-N{n_rounds}-{density}", FiniteGame(k, n_rounds, mask=mask)))
    for k, n_rounds, expr in TARGET_EXPRS:
        pred = compile_target_expr(expr, n_rounds)
        games.append((f"expr-k{k}-N{n_rounds}", FiniteGame(k, n_rounds, predicate=pred, expr=expr)))
    games.append(("parity.pjg", loads_game(PARITY_GAME.read_text(encoding="utf-8"))))
    return games
