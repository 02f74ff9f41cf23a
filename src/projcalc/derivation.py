"""Proof traces: derivations with shared subproofs, a node-table wire format, and a re-checker.

A derivation node is {rule, cite, premises, conclusion}; the conclusion is
a rendered judgment (subject, class or level, axiom mode).  Premises may be
shared, so a derivation is a DAG of node objects.  check() visits each
distinct node once and recomputes its conclusion from its premises with
its own copy of the rule arithmetic: it shares the lattice primitives and
the parser with the engine but none of the engine's rule-application
code, so an engine that emits a wrong level is caught here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring as _str

from .errors import CheckError, FormatError
from .pointclass import Kind, PointClass, delta, leq, parse_class_token, pi, sigma
from .rules import ALWAYS_GATED, CITATIONS
from .sema import Env

ZFC = "ZFC"
ZFC_PD = "ZFC_PD"
MODES = (ZFC, ZFC_PD)


@dataclass(frozen=True)
class Judgment:
    kind: str  # "class" | "level" | "prop"
    cls: PointClass | None = None
    level: int | None = None
    text: str | None = None

    def render(self) -> str:
        if self.kind == "class":
            return f"class {self.cls}"
        if self.kind == "level":
            return f"level delta {self.level}"
        return f"prop {self.text}"

    @staticmethod
    def parse(text: str) -> "Judgment":
        head, _, rest = text.partition(" ")
        if head == "class":
            return Judgment("class", cls=parse_class_token(rest))
        if head == "level":
            words = rest.split()
            if len(words) == 2 and words[0] == "delta" and words[1].isdigit():
                return Judgment("level", level=int(words[1]))
            raise ValueError(f"bad level judgment: {text!r}")
        if head == "prop":
            return Judgment("prop", text=rest)
        raise ValueError(f"bad judgment: {text!r}")


def class_judgment(cls: PointClass) -> Judgment:
    return Judgment("class", cls=cls)


def level_judgment(level: int) -> Judgment:
    return Judgment("level", level=level)


@dataclass(frozen=True)
class Conclusion:
    subject: str
    judgment: Judgment
    mode: str


@dataclass(frozen=True, eq=False)
class Derivation:
    """One node; equality and hashing go by identity, since the generated
    structural ones would unfold shared subproofs (compare by serialize)."""

    rule: str
    cite: str
    premises: tuple["Derivation", ...]
    conclusion: Conclusion


def node(rule: str, premises: tuple[Derivation, ...], subject: str, judgment: Judgment, mode: str) -> Derivation:
    return Derivation(rule, CITATIONS[rule], premises, Conclusion(subject, judgment, mode))


# --- wire format --------------------------------------------------------------
#
# A .pjd document is a node table in the style of LRAT proof files: one row
# per distinct node, premises named by the ids of earlier rows, root last.

SCHEMA = "projcalc/2"


def serialize(d: Derivation) -> str:
    """Canonical node table, one JSON row per line, with a trailing newline.

    Rows come in first post-order visit order and structurally equal nodes
    share one row, so the text depends only on the derivation's structure.
    """
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
        # the row json.dumps(..., sort_keys=True, ensure_ascii=False) would
        # write, spelled out: keys in sorted order, default separators
        premises = ", ".join([str(row_of[id(p)]) for p in n.premises])
        line = (
            f'{{"cite": {_str(n.cite)}, "conclusion": {{"judgment": {_str(c.judgment.render())}, '
            f'"mode": {_str(c.mode)}, "subject": {_str(c.subject)}}}, '
            f'"premises": [{premises}], "rule": {_str(n.rule)}}}'
        )
        row_of[id(n)] = rows.setdefault(line, len(rows))
    return '{"nodes": [\n' + ",\n".join(rows) + f'\n], "schema": "{SCHEMA}"}}\n'


def _from_row(obj, where: str, built: list[Derivation]) -> tuple[Derivation, list[int]]:
    if not isinstance(obj, dict):
        raise FormatError(f"derivation row {where} is not an object")
    try:
        rule = obj["rule"]
        cite = obj["cite"]
        premises = obj["premises"]
        conclusion = obj["conclusion"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc} at {where}") from None
    if not isinstance(rule, str) or not isinstance(cite, str) or not isinstance(premises, list):
        raise FormatError(f"bad field types at {where}")
    if not isinstance(conclusion, dict):
        raise FormatError(f"conclusion at {where} is not an object")
    try:
        subject = conclusion["subject"]
        judgment = Judgment.parse(conclusion["judgment"])
        mode = conclusion["mode"]
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise FormatError(f"bad conclusion at {where}: {exc}") from None
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r} at {where}")
    for p in premises:
        # bool is an int subclass; only genuine ints name rows
        if type(p) is not int or not 0 <= p < len(built):
            raise FormatError(f"premise {p!r} at {where} does not name an earlier row")
    kids = tuple(built[p] for p in premises)
    return Derivation(rule, cite, kids, Conclusion(subject, judgment, mode)), premises


def deserialize(text: str) -> Derivation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise FormatError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("derivation document is not an object")
    if doc.get("schema") != SCHEMA:
        raise FormatError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    table = doc.get("nodes")
    if not isinstance(table, list) or not table:
        raise FormatError("derivation document needs a non-empty 'nodes' list")
    built: list[Derivation] = []
    premise_ids: list[list[int]] = []
    for i, obj in enumerate(table):
        d, ids = _from_row(obj, f"/nodes/{i}", built)
        built.append(d)
        premise_ids.append(ids)
    # later rows name earlier ones only, so one backward sweep finds every
    # row the root reaches
    reached = [False] * len(built)
    reached[-1] = True
    for i in range(len(built) - 1, -1, -1):
        if not reached[i]:
            raise FormatError(f"row /nodes/{i} is not reachable from the root")
        for p in premise_ids[i]:
            reached[p] = True
    return built[-1]


# --- independent checking -----------------------------------------------------
#
# Everything below recomputes conclusions from premises.  The arithmetic is
# written out locally on purpose; do not replace it with calls into the
# engine.


def _delta_level(c: PointClass) -> int:
    # least delta containing c
    return c.level if c.kind is Kind.DELTA else c.level + 1


def _sigma_of(c: PointClass) -> PointClass:
    if c.kind is Kind.SIGMA:
        return c
    if c.kind is Kind.DELTA:
        return sigma(c.level)
    return sigma(c.level + 1)


def _join(a: PointClass, b: PointClass) -> PointClass:
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    return delta(a.level + 1)


def _selector_stage(c: PointClass) -> int:
    m = 0
    while not leq(c, pi(2 * m + 1)):
        m += 1
    return m


def _classes(premises, path) -> list[PointClass]:
    out = []
    for i, p in enumerate(premises):
        j = p.conclusion.judgment
        if j.kind != "class":
            raise CheckError(f"{path}/premises/{i}", "expected a class judgment")
        out.append(j.cls)
    return out


def _levels(premises, path) -> list[int]:
    out = []
    for i, p in enumerate(premises):
        j = p.conclusion.judgment
        if j.kind != "level":
            raise CheckError(f"{path}/premises/{i}", "expected a level judgment")
        out.append(j.level)
    return out


def _arity(premises, path, *allowed: int):
    if len(premises) not in allowed:
        raise CheckError(path, f"rule expects {allowed} premises, got {len(premises)}")


def _check_leaf(d: Derivation, env: Env, path: str) -> None:
    name = d.conclusion.subject
    j = d.conclusion.judgment
    if j.kind == "class":
        if name not in env.sets or env.sets[name].cls is None:
            raise CheckError(path, f"no declared set named {name!r}")
        if env.sets[name].cls != j.cls:
            raise CheckError(path, f"declared class of {name!r} is {env.sets[name].cls}, not {j.cls}")
        return
    if j.kind == "level":
        if name in env.funcs and env.funcs[name].annot is not None:
            declared = env.funcs[name].annot.level
        elif name in env.kernels:
            declared = env.kernels[name].level
        else:
            raise CheckError(path, f"no declared function or kernel named {name!r}")
        if declared != j.level:
            raise CheckError(path, f"declared level of {name!r} is {declared}, not {j.level}")
        return
    raise CheckError(path, "declaration leaves carry class or level judgments")


def _check_sched(d: Derivation, path: str) -> None:
    from .parser import parse_schedule  # local import: parser pulls in sema

    subject = d.conclusion.subject
    if not subject.startswith("levels "):
        raise CheckError(path, "schedule leaf subject must start with 'levels '")
    try:
        sched = parse_schedule(subject[len("levels "):])
    except Exception as exc:
        raise CheckError(path, f"unreadable schedule: {exc}") from None
    from .pointclass import schedule_bound

    try:
        bound = schedule_bound(sched)
    except Exception:
        raise CheckError(path, "unbounded schedule cannot conclude a class") from None
    if d.conclusion.judgment != class_judgment(bound):
        raise CheckError(path, f"schedule bound is {bound}, not {d.conclusion.judgment.render()}")


def _expected_judgment(d: Derivation, env: Env, path: str) -> Judgment:
    """Recompute the node's conclusion judgment from its premises."""
    rule = d.rule
    prem = d.premises
    if rule == "S-COMPL":
        _arity(prem, path, 1)
        (c,) = _classes(prem, path)
        flipped = {Kind.SIGMA: pi(c.level), Kind.PI: sigma(c.level), Kind.DELTA: c}[c.kind]
        return class_judgment(flipped)
    if rule in ("S-CU", "S-CI"):
        if not prem:
            raise CheckError(path, "countable combination needs premises")
        cs = _classes(prem, path)
        out = cs[0]
        for c in cs[1:]:
            out = _join(out, c)
        return class_judgment(out)
    if rule == "S-PROD":
        _arity(prem, path, 2)
        a, b = _classes(prem, path)
        if a.kind is b.kind or Kind.DELTA in (a.kind, b.kind):
            return class_judgment(_join(a, b))
        return class_judgment(delta(max(a.level, b.level) + 1))
    if rule in ("S-PROJ", "S-BIMG"):
        if rule == "S-BIMG":
            _arity(prem, path, 2)
            lv = _levels(prem[:1], path)
            if lv[0] != 1:
                raise CheckError(path, "image rule needs a level-1 function premise")
            (c,) = _classes(prem[1:], path)
        else:
            _arity(prem, path, 1)
            (c,) = _classes(prem, path)
        out = sigma(c.level + 1) if c.kind is Kind.PI else sigma(c.level)
        return class_judgment(out)
    if rule == "S-BPRE":
        if len(prem) == 1:
            (c,) = _classes(prem, path)
            return class_judgment(c)
        _arity(prem, path, 2)
        (p,) = _levels(prem[:1], path)
        if p != 1:
            raise CheckError(path, "Borel preimage needs a level-1 function premise")
        (c,) = _classes(prem[1:], path)
        return class_judgment(c)
    if rule == "S-SUBLEV":
        _arity(prem, path, 1)
        (p,) = _levels(prem, path)
        return class_judgment(delta(p))
    if rule == "S-WR":
        _arity(prem, path, 1)
        (c,) = _classes(prem, path)
        return class_judgment(_sigma_of(c))
    if rule == "F-DOM":
        _arity(prem, path, 2)
        (p,) = _levels(prem[:1], path)
        (c,) = _classes(prem[1:], path)
        return level_judgment(max(p, _delta_level(c)))
    if rule == "F-PAIR":
        _arity(prem, path, 2)
        p, q = _levels(prem, path)
        return level_judgment(max(p, q))
    if rule == "F-CYL":
        _arity(prem, path, 1)
        (p,) = _levels(prem, path)
        return level_judgment(p)
    if rule == "F-COMP":
        _arity(prem, path, 2)
        p, q = _levels(prem, path)
        return level_judgment(p + q)
    if rule == "F-COMP-B":
        _arity(prem, path, 2)
        p, q = _levels(prem, path)
        if q != 1:
            raise CheckError(path, "inner function must have level 1")
        return level_judgment(p)
    if rule == "F-PRE-Δ":
        _arity(prem, path, 2)
        (p,) = _levels(prem[:1], path)
        (c,) = _classes(prem[1:], path)
        if c.kind is not Kind.DELTA:
            raise CheckError(path, "delta-preimage rule needs a delta target")
        return class_judgment(delta(p + c.level))
    if rule == "F-PRE-Σ":
        _arity(prem, path, 2)
        (p,) = _levels(prem[:1], path)
        (c,) = _classes(prem[1:], path)
        if c.kind is not Kind.SIGMA:
            raise CheckError(path, "sigma-preimage rule needs a sigma target")
        return class_judgment(sigma(c.level + p - 1))
    if rule == "F-GRAPH":
        _arity(prem, path, 1)
        (p,) = _levels(prem, path)
        return class_judgment(delta(p + 1))
    if rule == "F-UNGRAPH":
        _arity(prem, path, 2)
        g, dcls = _classes(prem, path)
        return level_judgment(max(_delta_level(g), _delta_level(dcls)) + 1)
    if rule == "F-SECT":
        _arity(prem, path, 1)
        (p,) = _levels(prem, path)
        return level_judgment(p + 1)
    if rule == "F-ARITH":
        if not prem:
            raise CheckError(path, "arithmetic needs operands")
        return level_judgment(max(_levels(prem, path)))
    if rule in ("F-CSUP", "F-CINF"):
        _arity(prem, path, 1)
        (c,) = _classes(prem, path)
        return level_judgment(_delta_level(c))
    if rule == "F-PARTIAL":
        _arity(prem, path, 2)
        (p,) = _levels(prem[:1], path)
        (c,) = _classes(prem[1:], path)
        return level_judgment(max(p, _delta_level(c)) + 1)
    if rule == "F-INT":
        _arity(prem, path, 2)
        p, r = _levels(prem, path)
        return level_judgment(p + r + 2)
    if rule == "F-SELECT":
        _arity(prem, path, 1)
        (c,) = _classes(prem, path)
        m = _selector_stage(c)
        return class_judgment(pi(2 * m + 1))
    if rule == "F-EPS":
        _arity(prem, path, 1)
        (p,) = _levels(prem, path)
        return level_judgment(p)
    raise CheckError(path, f"unknown rule id {rule!r}")


def _check_gate(d: Derivation, path: str) -> None:
    mode = d.conclusion.mode
    if d.rule in ALWAYS_GATED and mode != ZFC_PD:
        raise CheckError(path, f"axiom gate: {d.rule} requires mode {ZFC_PD}")
    if d.rule == "F-SELECT":
        (c,) = _classes(d.premises, path)
        if _selector_stage(c) >= 1 and mode != ZFC_PD:
            raise CheckError(path, f"axiom gate: F-SELECT beyond stage 0 requires mode {ZFC_PD}")
    if d.rule == "S-WR":
        (c,) = _classes(d.premises, path)
        if _sigma_of(c).level >= 2 and mode != ZFC_PD:
            raise CheckError(path, f"axiom gate: S-WR beyond level 1 requires mode {ZFC_PD}")
    if d.rule == "P-UM":
        try:
            subject_cls = parse_class_token(d.conclusion.subject)
        except ValueError:
            raise CheckError(path, "P-UM subject must be a class or level token") from None
        if subject_cls.level >= 2 and mode != ZFC_PD:
            raise CheckError(path, f"axiom gate: P-UM beyond level 1 requires mode {ZFC_PD}")


def check(d: Derivation, env: Env) -> None:
    """Raise CheckError unless every node re-derives and every leaf is declared.

    Each distinct node object is checked once, on its first visit in
    depth-first premise order, and errors carry that visit's path.  The walk
    keeps its own stack, so depth is bounded by memory, not by recursion.
    """
    mode = d.conclusion.mode
    seen: set[int] = set()
    stack: list[tuple[Derivation, str, bool]] = [(d, "", False)]
    while stack:
        n, path, premises_done = stack.pop()
        if premises_done:
            _check_own(n, env, path)
            continue
        if id(n) in seen:
            continue
        seen.add(id(n))
        if n.conclusion.mode != mode:
            raise CheckError(path, f"mode mismatch: {n.conclusion.mode} inside a {mode} derivation")
        if n.rule not in CITATIONS:
            raise CheckError(path, f"unknown rule id {n.rule!r}")
        stack.append((n, path, True))
        for i in range(len(n.premises) - 1, -1, -1):
            p = n.premises[i]
            if id(p) not in seen:
                stack.append((p, f"{path}/premises/{i}", False))


def _check_own(d: Derivation, env: Env, path: str) -> None:
    """The node's own checks, run once all of its premises have passed."""
    if d.rule == "DECL":
        if d.premises:
            raise CheckError(path, "declaration leaves have no premises")
        _check_leaf(d, env, path)
    elif d.rule == "SCHED":
        if d.premises:
            raise CheckError(path, "schedule leaves have no premises")
        _check_sched(d, path)
    elif d.rule == "P-UM":
        if d.premises:
            raise CheckError(path, "P-UM nodes have no premises")
        if d.conclusion.judgment.kind != "prop":
            raise CheckError(path, "P-UM concludes a proposition")
        restated = f"universally measurable: {d.conclusion.subject}"
        if d.conclusion.judgment.text != restated:
            raise CheckError(
                path,
                f"proposition {d.conclusion.judgment.text!r} does not restate "
                f"the subject; expected {restated!r}",
            )
        _check_gate(d, path)
    else:
        expected = _expected_judgment(d, env, path)
        if d.conclusion.judgment != expected:
            raise CheckError(
                path,
                f"conclusion {d.conclusion.judgment.render()!r} does not match "
                f"recomputed {expected.render()!r} for rule {d.rule}",
            )
        _check_gate(d, path)
