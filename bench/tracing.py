"""Spans around the public functions the CLI calls, and the per-layer metrics.

The spans are installed from outside the program: each wrapper replaces a
function at the module attribute through which the CLI looks it up, and
the original is put back when the traced pass ends.  Nothing under
``src/`` changes.  Spans stay in memory until the run ends.

Counting derivation nodes happens in a separate ``bench.count`` span that
starts after the wrapped call has returned, so it stays out of every
layer's self time.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name): the lookups the CLI goes through
TARGETS = (
    ("projcalc.parser", "parse_program", "parser.parse_program"),
    ("projcalc.parser", "bind", "sema.bind"),
    ("projcalc.cli", "infer_set", "infer.infer_set"),
    ("projcalc.cli", "infer_func", "infer.infer_func"),
    ("projcalc.cli", "evaluate_assertions", "infer.evaluate_assertions"),
    ("projcalc.cli", "serialize", "derivation.serialize"),
    ("projcalc.cli", "deserialize", "derivation.deserialize"),
    ("projcalc.cli", "check", "derivation.check"),
    ("projcalc.identities", "generate_case", "identities.generate_case"),
    ("projcalc.identities", "check_identity", "identities.check_identity"),
    ("projcalc.cli", "loads_game", "games.loads_game"),
    ("projcalc.cli", "solve", "games.solve"),
)
SPANS = ("cli.main",) + tuple(name for _, _, name in TARGETS)
INFER_SPANS = ("infer.infer_set", "infer.infer_func", "infer.evaluate_assertions")
COMMANDS = ("infer", "check", "oracle", "game")
IDENTITIES = ("INFSUP-PROJ", "SUM-PRE", "PROD-POS", "EPS-E", "FUBINI-DIRAC")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name, self.start, self.parent, self.op, self.attrs = name, start, parent, op, attrs
        self.end = start
        self.child = 0.0  # time covered by child spans

    @property
    def busy(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class NodeCounter:
    """Derivation nodes seen in one op: by object (built) and by structure (distinct).

    Walks by object identity, so a shared subproof is visited once and an
    exponential tree with shared objects costs linear time.  Holds the
    nodes it has seen so their ids cannot be reused within the op.
    """

    def __init__(self):
        self.seen: dict[int, tuple] = {}  # id -> (node, canonical id, depth)
        self.canon: dict[tuple, int] = {}
        self.rules: Counter = Counter()
        self.max_depth = 0

    def add(self, root) -> int:
        before = len(self.seen)
        stack = [(root, False)]
        while stack:
            d, ready = stack.pop()
            if id(d) in self.seen:
                continue
            if not ready:
                stack.append((d, True))
                stack.extend((p, False) for p in d.premises if id(p) not in self.seen)
                continue
            kids = [self.seen[id(p)] for p in d.premises]
            key = (d.rule, d.conclusion, tuple(k[1] for k in kids))
            depth = 1 + max((k[2] for k in kids), default=0)
            self.seen[id(d)] = (d, self.canon.setdefault(key, len(self.canon)), depth)
            self.rules[d.rule] += 1
            self.max_depth = max(self.max_depth, depth)
        return len(self.seen) - before


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.ops: list[dict] = []  # op metadata, indexed by Span.op
        self.op = -1
        self.nodes: NodeCounter | None = None

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, attrs))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child += span.busy

    @contextmanager
    def op_span(self, meta: dict):
        """The root ``cli.main`` span of one CLI op."""
        self.ops.append(meta)
        self.op = len(self.ops) - 1
        self.nodes = NodeCounter()
        index = self.begin("cli.main", {"command": meta["command"]})
        try:
            yield
        finally:
            self.end(index)
            meta["built"] = len(self.nodes.seen)
            meta["distinct"] = len(self.nodes.canon)
            meta["depth"] = self.nodes.max_depth
            meta["rules"] = dict(self.nodes.rules)
            self.nodes = None

    def wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            attrs = _before(span_name, args)
            index = self.begin(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if span_name in _COUNTED:
                index = self.begin("bench.count")
                try:
                    _count(self.nodes, span_name, attrs, args, result)
                finally:
                    self.end(index)
            return result

        return traced


def _before(name: str, args) -> dict:
    """Attributes known before the call; cheap enough to stay inside the caller's span."""
    if name == "parser.parse_program":
        return {"bytes": len(args[0])}  # generated programs are ASCII
    if name == "identities.generate_case":
        return {"identity": args[0]}
    if name == "identities.check_identity":
        return {"identity": args[0].identity}
    if name == "games.solve":
        g = args[0]
        return {"plays": g.play_count, "target": "mask" if g.mask is not None else "expr"}
    return {}


_COUNTED = ("infer.infer_set", "infer.infer_func", "infer.evaluate_assertions",
            "derivation.deserialize", "derivation.serialize", "games.solve")


def _count(nodes: NodeCounter, name: str, attrs: dict, args, result) -> None:
    """Counts taken from a call's result, inside the ``bench.count`` span."""
    if name in ("infer.infer_set", "infer.infer_func"):
        attrs["nodes"] = nodes.add(result[1])
    elif name == "infer.evaluate_assertions":
        attrs["nodes"] = sum(nodes.add(r.derivation) for r in result if r.derivation is not None)
    elif name == "derivation.deserialize":
        attrs["nodes"] = nodes.add(result)
    elif name == "derivation.serialize":
        attrs["bytes"] = len(result.encode("utf-8"))
    elif name == "games.solve":
        g = args[0]
        attrs["entries"] = len(result[1])
        attrs["tree_nodes"] = (g.k ** (g.play_length + 1) - 1) // (g.k - 1) if g.k > 1 else g.play_length + 1


@contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals after."""
    saved = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics -------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _node_budget() -> int:
    from projcalc.games import BUDGET_ENV, DEFAULT_NODE_BUDGET

    return int(os.environ.get(BUDGET_ENV, DEFAULT_NODE_BUDGET))


def summarize_pass(tracer: Tracer, pass_no: int) -> tuple[dict, dict]:
    """Per-layer totals and scaling rows of one traced pass."""
    t: dict = defaultdict(float)
    rows: dict = {}
    ops = tracer.ops
    for span in tracer.spans:
        meta = ops[span.op]
        if meta["pass"] != pass_no:
            continue
        name, busy, attrs = span.name, span.busy, span.attrs or {}
        t[f"{name}.calls"] += 1
        t[f"{name}.busy_s"] += busy
        t[f"{name}.self_s"] += span.self_time
        if name == "cli.main":
            t[f"cli.main.self_s.{attrs['command']}"] += span.self_time
        elif name == "parser.parse_program":
            t["parse_bytes"] += attrs["bytes"]
        elif name == "derivation.serialize":
            t["serialize_bytes"] += attrs["bytes"]
        elif name == "derivation.deserialize":
            t["check_nodes"] += attrs.get("nodes", 0)
        elif name in ("identities.generate_case", "identities.check_identity"):
            t[f"identity_busy.{attrs['identity']}"] += busy
            if name == "identities.check_identity":
                t[f"identities.check_identity.{attrs['identity']}.busy_s"] += busy
                t[f"identity_cases.{attrs['identity']}"] += 1
        elif name == "games.solve":
            t[f"solve_busy.{attrs['target']}"] += busy
            t[f"solve_plays.{attrs['target']}"] += attrs["plays"]
            t["games.strategy_entries"] += attrs["entries"]
            t["games.budget_share"] = max(t["games.budget_share"], attrs["tree_nodes"] / _node_budget())
        row = meta.get("row")
        if row is None:
            continue
        r = rows.setdefault(row, {"family": row[0], "size": row[1], "infer_busy_s": 0.0,
                                  "serialize_busy_s": 0.0, "check_busy_s": 0.0, "solve_busy_s": 0.0})
        if name in INFER_SPANS:
            r["infer_busy_s"] += busy
        elif name == "derivation.serialize":
            r["serialize_busy_s"] += busy
        elif name == "derivation.check":
            r["check_busy_s"] += busy
        elif name == "games.solve":
            r["solve_busy_s"] += busy
    for meta in ops:
        if meta["pass"] != pass_no or meta["command"] != "infer":
            continue
        t["infer.nodes_built"] += meta["built"]
        t["infer.nodes_distinct"] += meta["distinct"]
        t["infer.max_depth"] = max(t["infer.max_depth"], meta["depth"])
        if meta.get("row") is not None:
            r = rows[meta["row"]]
            r["nodes_built"] = r.get("nodes_built", 0) + meta["built"]
            r["nodes_distinct"] = r.get("nodes_distinct", 0) + meta["distinct"]
            rules = r.setdefault("rules", Counter())
            rules.update(meta["rules"])
    return t, rows


def _median_rows(per_pass: list[dict]) -> dict:
    out = {}
    for key in per_pass[0]:
        first = per_pass[0][key]
        row = dict(first)
        for field in ("infer_busy_s", "serialize_busy_s", "check_busy_s", "solve_busy_s"):
            row[field] = statistics.median(p[key][field] for p in per_pass)
        if "rules" in row:
            row["rules"] = dict(sorted(row["rules"].items()))
        out[key] = row
    return out


def _step(rows: dict, family: str, field: str, prefix: str = "") -> float:
    """Busy time at the top size of a family over the size before it.

    Sizes are the row sizes that start with ``prefix``, ordered by the
    number after it ("11" in a chain family, "k2N8" for games).
    """
    sized = [r for r in rows.values() if r["family"] == family and r["size"].startswith(prefix)]
    sized.sort(key=lambda r: int(r["size"][len(prefix):]))
    if len(sized) < 2:
        return 0.0
    return _ratio(sized[-1][field], sized[-2][field])


def per_layer(totals: list[dict], rows_per_pass: list[dict], overhead_share: float,
              extra: dict) -> tuple[dict, list[dict]]:
    """Median over traced passes of every per-layer metric, plus the scaling rows."""

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in totals)

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (med(f"{name}.calls"), "count")
        m[f"{name}.busy_s"] = (med(f"{name}.busy_s"), "s")
        m[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    for cmd in COMMANDS:
        m[f"cli.main.self_s.{cmd}"] = (med(f"cli.main.self_s.{cmd}"), "s")
    m["parser.kib_per_s"] = (_ratio(med("parse_bytes") / 1024, med("parser.parse_program.busy_s")), "KiB/s")

    rows = _median_rows(rows_per_pass)
    built, distinct = med("infer.nodes_built"), med("infer.nodes_distinct")
    m["infer.nodes_built"] = (built, "count")
    m["infer.nodes_distinct"] = (distinct, "count")
    m["infer.distinct_ratio"] = (_ratio(distinct, built), "ratio")
    m["infer.max_depth"] = (med("infer.max_depth"), "count")
    for family in ("doubling", "linear", "nest"):
        m[f"infer.step_ratio.{family}"] = (_step(rows, family, "infer_busy_s"), "ratio")

    m["derivation.serialize.kib_per_s"] = (
        _ratio(med("serialize_bytes") / 1024, med("derivation.serialize.busy_s")), "KiB/s")
    m["derivation.step_ratio.doubling"] = (_step(rows, "doubling", "serialize_busy_s"), "ratio")
    m["derivation.check.nodes_per_s"] = (_ratio(med("check_nodes"), med("derivation.check.busy_s")), "1/s")

    for ident in IDENTITIES:
        m[f"identities.check_identity.{ident}.busy_s"] = (
            med(f"identities.check_identity.{ident}.busy_s"), "s")
        m[f"identities.cases_per_s.{ident}"] = (
            _ratio(med(f"identity_cases.{ident}"), med(f"identity_busy.{ident}")), "1/s")

    for target in ("mask", "expr"):
        m[f"games.solve.plays_per_s.{target}"] = (
            _ratio(med(f"solve_plays.{target}"), med(f"solve_busy.{target}")), "1/s")
    m["games.solve.step_ratio"] = (_step(rows, "mask", "solve_busy_s", "k2N"), "ratio")
    m["games.strategy_entries"] = (med("games.strategy_entries"), "count")
    m["games.budget_share"] = (med("games.budget_share"), "ratio")

    m["trace.overhead_share"] = (overhead_share, "ratio")
    m.update(extra)
    return m, list(rows.values())


def write_spans(tracer: Tracer, path: Path) -> None:
    """All spans as JSON lines: name, start, end, parent, op id and attributes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for i, s in enumerate(tracer.spans):
            rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "op": s.op}
            if s.attrs:
                rec["attrs"] = s.attrs
            out.write(json.dumps(rec) + "\n")
