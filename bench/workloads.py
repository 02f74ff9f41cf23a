"""Seeded inputs for the four benchmark workloads, with their expected answers.

Every workload is a list of jobs.  A job is a program, an oracle sweep or
a game: it holds the CLI ops that run it and the work it counts (one
program, the sweep's identity cases, or the game's plays).
The expected answers come from the generators' own tables and closed
forms, never from the engine, so a wrong verdict shows as a failed op.

The corpus templates are this benchmark's own copy of the constructor
templates in ``tests/progen.py``: an edit to a test cannot change what the
benchmark runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    """One ``projcalc`` command line and the check of its result.

    ``expect(rc, stdout)`` returns a failure message or None.  Ops with
    ``emits`` set write ``.pjd`` files; the runner then checks each of
    them with ``projcalc check`` against ``program``.
    """

    key: str
    command: str
    argv: list[str]
    expect: Callable[[int, str], str | None]
    emits: bool = False
    program: str | None = None
    game: str | None = None  # .pjg whose printed strategy is verified once


@dataclass
class Job:
    units: int  # work credited: programs, identity cases or plays
    ops: list[Op]
    row: tuple[str, str] | None = None  # (family, size) of a scaling row


@dataclass
class Workload:
    jobs: list[Job] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # path under the work directory -> text
    probes: list[Op] = field(default_factory=list)  # known-defect ops, run once


# --- expectations ----------------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc.msg}"


def expect_infer(exit_code: int, conclusions: dict[str, str] | None = None):
    """Exit code and `ok` flag as the generator predicts; optional let classes."""

    def check(rc: int, stdout: str) -> str | None:
        if rc != exit_code:
            return f"exit {rc}, expected {exit_code}"
        doc, err = _json(stdout)
        if err:
            return err
        if doc.get("ok") is not (exit_code == 0):
            return f"report ok={doc.get('ok')} disagrees with exit {rc}"
        for row in doc.get("bindings", ()):
            want = (conclusions or {}).get(row["name"])
            if want is not None and row.get("conclusion") != want:
                return f"let {row['name']}: {row.get('conclusion')}, expected {want}"
        return None

    return check


def expect_check(rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"check exit {rc}: {stdout.strip()[:120]}"
    if not stdout.startswith("ok: "):
        return f"check printed {stdout.strip()[:120]!r}"
    return None


def expect_oracle(identity: str, count: int):
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"oracle exit {rc}"
        rows = [json.loads(line) for line in stdout.splitlines()]
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        bad = [r for r in rows if r.get("identity") != identity or r.get("ok") is not True]
        if bad:
            return f"{len(bad)} counterexamples or foreign rows, first {bad[0]}"
        return None

    return check


def expect_game(rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"game exit {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    if doc.get("winner") not in ("I", "II"):
        return f"winner {doc.get('winner')!r}"
    return None


def expect_probe(conclusion_of: dict[str, str]):
    """Past-the-stack ops pass with the right verdict or a named limit (exit 3)."""
    verdict = expect_infer(0, conclusion_of)

    def check(rc: int, stdout: str) -> str | None:
        return None if rc == 3 else verdict(rc, stdout)

    return check


# --- corpus ------------------------------------------------------------------------

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

TEMPLATES = {
    "compl": "let Co{s} = compl(A)",
    "union": "let Un{s} = union(A, compl(C))",
    "inter": "let In{s} = inter(A, E)",
    "prodset": "let Pr{s} = prod(A, B)",
    "proj_axis": "let Pj{s} = proj[1](D)",
    "proj_name": "let Pn{s} = proj[Y](D)",
    "img": "let Im{s} = img[g](A)",
    "pre": "let Pe{s} = pre[g](B)",
    "section": "let Se{s} = section[1 @ a0](D)",
    "graph": "let Gr{s} = graph(f)",
    "graph_partial": "let Gp{s} = graph(pf)",
    "sublevel": "let Sl{s} = sublevel(f, <, 1/2)",
    "measure": "let Me{s} = measure_ge(A, 1/3)",
    "measure_pd": "let Mp{s} = measure_ge(E, 1/2)",
    "cunion": "let Cu{s} = union i in nat of V_i in X with levels bounded sigma 2",
    "cinter": "let Ci{s} = inter i in nat of V_i in X with levels constant pi 1",
    "cexplicit": "let Ce{s} = union i in nat of V_i in X with levels from [sigma 1, delta 2]",
    "pair": "let Pa{s} = pair(g, g)",
    "cyl": "let Cy{s} = cyl[Y](u)",
    "compose": "let Cm{s} = compose(h, g)",
    "fsection": "let Fs{s} = fsection[1 @ a0](f)",
    "arith": "let Ar{s} = add(mul(u, u), neg(min(u, max(u, u))))",
    "inner": "let Ip{s} = inner(u, u)",
    "pow": "let Pw{s} = pow(u, 3/2)",
    "csup": "let Cs{s} = sup i in nat of w_i in X with levels bounded delta 2",
    "cinf": "let Cf{s} = inf i in nat of w_i in X with levels bounded delta 3",
    "inf_over": "let Io{s} = inf_over(f, D)",
    "sup_over": "let So{s} = sup_over(f, D)",
    "integral": "let Ig{s} = integral(f, q)",
    "select_zfc": "let Sz{s} = select(P)",
    "select_pd": "let Sp{s} = select(D)",
    "eps_inf": "let Ei{s} = eps_inf(D, f, 1/4)",
    "eps_sup": "let Es{s} = eps_sup(D, f, 1/8)",
    "from_graph": "let Fg{s} = from_graph(graph(g), A)",
}

ASSERTS = (
    "assert class(A) == sigma 1",
    "assert level(u) <= delta 1",
    "assert class(D) <= delta 2",
    "assert um(A)",
    "assert um(E)",
    "assert level(compose(h, g)) <= delta 4",
)

# The generator's own answer table: in plain ZFC a program is refused
# (exit 1) exactly when it uses one of these determinacy-gated templates
# or asserts universal measurability of the delta-3 set E.
ZFC_REFUSED_TAGS = frozenset({"measure_pd", "integral", "select_pd", "eps_inf", "eps_sup"})
ZFC_REFUSED_ASSERT = "assert um(E)"

CORPUS_PROGRAMS = 200  # two infer ops each: 400 per pass, over 1000 in a run


class _Deck:
    """Seeded draws that use every item equally often across the corpus.

    Equal template frequencies keep the work per pass nearly the same for
    every seed, so the spread between seeds measures the system, not the
    draw.
    """

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.stack = list(items), rng, []

    def draw(self):
        if not self.stack:
            self.stack = self.items[:]
            self.rng.shuffle(self.stack)
        return self.stack.pop()


def corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    tags = sorted(TEMPLATES)
    tag_deck, assert_deck = _Deck(tags, rng), _Deck(ASSERTS, rng)
    w = Workload()
    for i in range(CORPUS_PROGRAMS):
        chosen = {tags[i % len(tags)]}
        while len(chosen) < 2 + i % 3:
            chosen.add(tag_deck.draw())
        asserts = []
        while len(asserts) < 1 + (i // 3) % 2:
            a = assert_deck.draw()
            if a not in asserts:
                asserts.append(a)
        lines = [TEMPLATES[t].format(s=f"{i}x{j}") for j, t in enumerate(sorted(chosen))]
        path = f"in/corpus/p{i:04d}.pjc"
        w.files[path] = HEADER + "\n".join(lines + asserts) + "\n"
        refused = bool(chosen & ZFC_REFUSED_TAGS) or ZFC_REFUSED_ASSERT in asserts
        ops = []
        for mode, flags, rc in (("zfc", [], 1 if refused else 0), ("pd", ["--assume-pd"], 0)):
            ops.append(Op(
                key=f"{path}:{mode}",
                command="infer",
                argv=["infer", path, "--json", "--emit-derivations", f"out/corpus/p{i:04d}.{mode}"] + flags,
                expect=expect_infer(rc),
                emits=True,
                program=path,
            ))
        w.jobs.append(Job(1, ops))
    return w


# --- chains ------------------------------------------------------------------------

DOUBLING = tuple(range(1, 12))  # n <= 11: 1 s and 14 MiB of .pjd at n = 11
LINEAR = (12, 25, 50, 100)
NEST = (25, 50, 100, 200, 400)
PAST_STACK = (("nest", 600), ("linear", 800))


def _flip(cls: str) -> str:
    kind, level = cls.split()
    return f"{'pi' if kind == 'sigma' else 'sigma'} {level}"


def _chain(family: str, size: int, base: str) -> tuple[str, dict[str, str]]:
    """Program text and the closed-form class of each let."""
    level = int(base.split()[1])
    lines = ["space X = baire", f"set A0 in X : {base}"]
    want: dict[str, str] = {}
    if family == "doubling":
        # union(c, compl(c)) is delta(l+1) for c in sigma l or pi l, and stays there
        for i in range(1, size + 1):
            lines.append(f"let A{i} = union(A{i - 1}, compl(A{i - 1}))")
            want[f"A{i}"] = f"delta {level + 1}"
        last = f"A{size}"
    elif family == "linear":
        for i in range(1, size + 1):
            lines.append(f"let A{i} = compl(A{i - 1})")
            want[f"A{i}"] = base if i % 2 == 0 else _flip(base)
        last = f"A{size}"
    else:
        expr = "A0"
        for _ in range(size):
            expr = f"compl({expr})"
        lines.append(f"let N = {expr}")
        want["N"] = base if size % 2 == 0 else _flip(base)
        last = "N"
    lines.append(f"assert class({last}) == {want[last]}")
    return "\n".join(lines) + "\n", {k: f"class {v}" for k, v in want.items()}


def chains(seed: int) -> Workload:
    base = f"{random.Random(seed).choice(('sigma', 'pi'))} 1"
    w = Workload()
    families = [("doubling", n) for n in DOUBLING] + [("linear", n) for n in LINEAR]
    families += [("nest", d) for d in NEST]
    for family, size in families:
        path = f"in/chains/{family}{size}.pjc"
        text, want = _chain(family, size, base)
        w.files[path] = text
        op = Op(
            key=path,
            command="infer",
            argv=["infer", path, "--json", "--emit-derivations", f"out/chains/{family}{size}"],
            expect=expect_infer(0, want),
            emits=True,
            program=path,
        )
        w.jobs.append(Job(1, [op], row=(family, str(size))))
    for family, size in PAST_STACK:
        path = f"in/chains/{family}{size}.pjc"
        text, want = _chain(family, size, base)
        w.files[path] = text
        argv = ["infer", path, "--json"]
        if family == "nest":
            # the 600-deep nest infers; writing its derivation overflows the stack
            argv += ["--emit-derivations", f"out/chains/{family}{size}"]
        # the 800-line chain already overflows in infer; its tree-shaped .pjd
        # files would run to gigabytes once the recursion limit is gone
        w.probes.append(Op(f"chains/{family}-{size}", "infer", argv, expect_probe(want)))
    return w


# --- oracle ------------------------------------------------------------------------

IDENTITIES = ("INFSUP-PROJ", "SUM-PRE", "PROD-POS", "EPS-E", "FUBINI-DIRAC")
ORACLE_SWEEPS = 4  # per identity and pass
ORACLE_COUNT = 250


def oracle(seed: int) -> Workload:
    w = Workload()
    for ident in IDENTITIES:
        for j in range(ORACLE_SWEEPS):
            s = seed * ORACLE_SWEEPS + j
            argv = ["oracle", ident, "--seed", str(s), "--count", str(ORACLE_COUNT), "--json"]
            op = Op(f"oracle/{ident}/{s}", "oracle", argv, expect_oracle(ident, ORACLE_COUNT))
            w.jobs.append(Job(ORACLE_COUNT, [op]))
    return w


# --- games -------------------------------------------------------------------------

# (k, N, density of the target).  For k = 2 Player I wins a random target
# about when its density exceeds 0.62, so alternating densities give both
# winners across the family while the large games keep one winner per seed.
MASK_GAMES = [(2, n, 0.75 if n % 2 == 0 else 0.45) for n in range(2, 9)]
MASK_GAMES += [(3, 2, 0.8), (3, 3, 0.35), (3, 4, 0.8), (5, 1, 0.35), (5, 2, 0.85)]
EXPR_ROUNDS = (3, 4, 5, 6)  # k = 2


def _mask(rng: random.Random, plays: int, density: float) -> int:
    bits = 0
    for i in range(plays):
        if rng.random() < density:
            bits |= 1 << i
    return bits


def _expr(rng: random.Random, n_rounds: int) -> str:
    """A seeded linear form over the moves, compared modulo 7.

    Every coefficient is a unit mod 7, so the target density is exactly
    t/7; it alternates with N between 6/7 and 2/7.
    """
    names = [f"{p}{i}" for i in range(n_rounds + 1) for p in "ab"]
    terms = " + ".join(f"{rng.randint(1, 6)}*{name}" for name in names)
    return f"({terms}) % 7 < {6 if n_rounds % 2 == 0 else 2}"


def _game_doc(k: int, n_rounds: int, target) -> str:
    return json.dumps({"schema": "projcalc/1", "k": k, "N": n_rounds, "target": target}, indent=2) + "\n"


def games(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    specs = [(k, n, "mask", d) for k, n, d in MASK_GAMES] + [(2, n, "expr", None) for n in EXPR_ROUNDS]
    for k, n_rounds, target, density in specs:
        plays = k ** (2 * n_rounds + 2)
        if target == "mask":
            doc = _game_doc(k, n_rounds, hex(_mask(rng, plays, density)))
        else:
            doc = _game_doc(k, n_rounds, {"expr": _expr(rng, n_rounds)})
        path = f"in/games/{target}-k{k}-N{n_rounds}.pjg"
        w.files[path] = doc
        op = Op(path, "game", ["game", path, "--json"], expect_game, game=path)
        w.jobs.append(Job(plays, [op], row=(target, f"k{k}N{n_rounds}")))
    return w


GENERATORS = {"corpus": corpus, "chains": chains, "oracle": oracle, "games": games}
WORKLOADS = tuple(GENERATORS)


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)


def write_inputs(w: Workload, root: Path) -> None:
    (root / "in").mkdir(parents=True, exist_ok=True)
    for rel, text in w.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
