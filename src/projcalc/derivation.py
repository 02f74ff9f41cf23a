"""Proof traces: derivations with shared subproofs, a node-table wire format, and a re-checker.

A derivation node is {rule, premises, conclusion}; the conclusion is
a rendered judgment (subject, class or level, axiom mode).  Premises may be
shared, so a derivation is a DAG of node objects.  A node's subject spells
only its own constructor and points at its subexpressions' premises with
#i.j... paths, so a derivation's text is linear in its size.  serialize()
writes the nodes as rows, read_table() reads a file's rows as columns and
never as nodes, and check() and expand() take only such a table.  check()
takes the rows in order and checks each by its rule's entry in one rule
table, its own copy of the rule arithmetic and the determinacy gates:
each leaf against the program, any other step once per distinct rule and
judgments.  It shares the lattice primitives and the parser with the
engine but none of the engine's rule-application code, so an engine that
emits a wrong level is caught here.  Only a failure walks the table from
the root, to name the failing row's path.  A LET row cites a let's own
derivation file by digest instead of copying its rows; check() takes the
files already verified and holds the row to the one it cites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from json.encoder import encode_basestring as _str

from .errors import CheckError, FormatError, LevelOverflowError, read_json
from .formatter import write
from .parser import parse_schedule
from .pointclass import LEVEL_CAP, Kind, PointClass, delta, leq, parse_class_token, pi, schedule_bound, sigma
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
    premises: tuple["Derivation", ...]
    conclusion: Conclusion


def node(rule: str, premises: tuple[Derivation, ...], subject: str, judgment: Judgment, mode: str) -> Derivation:
    return Derivation(rule, premises, Conclusion(subject, judgment, mode))


# --- wire format --------------------------------------------------------------
#
# A .pjd document is a node table in the style of LRAT proof files: one row
# per distinct node, premises named by the ids of earlier rows, root last.
# A row's subject spells only its own constructor: each subexpression with
# a row of its own is the path #i.j... to it through the premises (the
# row's i-th premise, that premise's j-th, ...), and a name stays a name.
# The mode is written once, in the header.  A row's rule id names its
# citation in rules.CITATIONS, which no file or node holds, but for a LET
# row: it stands for the derivation of a let proved in a file of its own,
# let_<name>.pjd beside this one, and cites that file by the SHA-256 digest
# of its bytes.

SCHEMA = "projcalc/3"

_REF = re.compile(r"#(\d+(?:\.\d+)*)")
_DIGEST = re.compile(r"sha256:[0-9a-f]{64}")


def _walk(root, premises_of=lambda n: n.premises):
    """Each distinct node (a Derivation or a row id) below root, root included,
    after its premises, in first post-order visit order, on a stack of [node,
    premises, next premise] frames.  A node is marked when first reached and
    yielded with the live frames, which spell the path of that first visit."""
    seen = {root}
    frames = [[root, premises_of(root), 0]]
    while frames:
        top = frames[-1]
        n, premises, i = top
        if i < len(premises):
            top[2] = i + 1
            p = premises[i]
            if p not in seen:
                seen.add(p)
                frames.append([p, premises_of(p), 0])
        else:
            yield n, frames
            frames.pop()


def serialize(d: Derivation, cites: dict | None = None) -> str:
    """Canonical node table, one JSON row per line, with a trailing newline.

    Rows come in first post-order visit order and structurally equal nodes
    share one row, so the text depends only on the derivation's structure.
    Every node must be in the root's mode.  ``cites`` maps nodes to the
    (let name, digest) of a file already written that proves them: each
    such node below the root is written as one LET row citing that file,
    and nothing below it is written.
    """
    mode = d.conclusion.mode
    cites = cites or {}
    rows: dict[str, int] = {}  # rendered row -> row id
    row_of: dict[Derivation, int] = {}  # node -> row id
    for n, _ in _walk(d, lambda n: () if n in cites and n is not d else n.premises):
        c = n.conclusion
        if c.mode != mode:
            raise ValueError(f"a {c.mode} node inside a {mode} derivation")
        # the row json.dumps(..., sort_keys=True, ensure_ascii=False) would
        # write, spelled out: keys in sorted order, default separators
        if n in cites and n is not d:
            (subject, digest), rule, premises = cites[n], "LET", ""
            head = f'{{"digest": {_str(digest)}, '
        else:
            subject, rule, head = c.subject, n.rule, "{"
            premises = ", ".join([str(row_of[p]) for p in n.premises])
        line = (
            f'{head}"judgment": {_str(c.judgment.render())}, "premises": [{premises}], '
            f'"rule": {_str(rule)}, "subject": {_str(subject)}}}'
        )
        row_of[n] = rows.setdefault(line, len(rows))
    return f'{{"mode": {_str(mode)}, "nodes": [\n' + ",\n".join(rows) + f'\n], "schema": "{SCHEMA}"}}\n'


class RowTable:
    """A .pjd document's rows as columns, root last: rule, premise row ids,
    subject, judgment (one object per distinct text), and the digest each
    LET row cites, by row id."""

    __slots__ = ("mode", "rules", "premises", "subjects", "judgments", "cites")

    def __init__(self, mode: str, rules: list, premises: list, subjects: list, judgments: list, cites: dict):
        self.mode, self.rules, self.premises = mode, rules, premises
        self.subjects, self.judgments, self.cites = subjects, judgments, cites


@lru_cache(maxsize=1024)
def _judgment(text: str) -> Judgment:
    """The judgment a text spells, parsed once per process: a Judgment is
    frozen, so every file read shares it, and a chain's files hold few texts."""
    return Judgment.parse(text)


def read_table(text: str) -> RowTable:
    """A .pjd document's rows, each validated as it is read, all reached from the root."""
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise FormatError("derivation document is not an object")
    if doc.get("schema") != SCHEMA:
        raise FormatError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    mode = doc.get("mode")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r} at /mode")
    table = doc.get("nodes")
    if not isinstance(table, list) or not table:
        raise FormatError("derivation document needs a non-empty 'nodes' list")
    rules, premises, subjects, judgments, cites = [], [], [], [], {}
    for i, row in enumerate(table):
        if not isinstance(row, dict):
            raise FormatError(f"derivation row /nodes/{i} is not an object")
        try:
            rule, prem, subject, judgment = row["rule"], row["premises"], row["subject"], row["judgment"]
        except KeyError as exc:
            raise FormatError(f"missing field {exc} at /nodes/{i}") from None
        if not (isinstance(rule, str) and isinstance(prem, list) and isinstance(subject, str)):
            raise FormatError(f"bad field types at /nodes/{i}")
        try:  # a text not a string fails to parse, and is never memoized
            j = _judgment(judgment) if type(judgment) is str else Judgment.parse(judgment)
        except (ValueError, TypeError, AttributeError, LevelOverflowError) as exc:
            raise FormatError(f"bad judgment at /nodes/{i}: {exc}") from None
        for p in prem:
            # bool is an int subclass; only genuine ints name rows
            if type(p) is not int or not 0 <= p < i:
                raise FormatError(f"premise {p!r} at /nodes/{i} does not name an earlier row")
        if rule == "LET":
            cites[i] = row.get("digest")
            if not (isinstance(cites[i], str) and _DIGEST.fullmatch(cites[i])):
                raise FormatError(f"a LET row needs a 'sha256:<64 hex digits>' digest at /nodes/{i}")
        rules.append(rule)
        premises.append(prem)
        subjects.append(subject)
        judgments.append(j)
        if "#" in subject and rule not in LEAF_RULES:
            for path in _REF.findall(subject):
                if _follow(premises, i, path) is None:
                    raise FormatError(f"#{path} at /nodes/{i} names no premise")
    # rows name earlier rows only, so one backward sweep finds all the root reaches
    reached = [False] * (len(table) - 1) + [True]
    for i in range(len(table) - 1, -1, -1):
        if not reached[i]:
            raise FormatError(f"row /nodes/{i} is not reachable from the root")
        for p in premises[i]:
            reached[p] = True
    return RowTable(mode, rules, premises, subjects, judgments, cites)


def _follow(premises: list, i: int, path: str) -> int | None:
    """The row the path i.j... reaches from row i through premises, if any."""
    for step in path.split("."):
        ids = premises[i]
        k = int(step) if len(step) < 10 else len(ids)  # a longer step names no premise either
        if k >= len(ids):
            return None
        i = ids[k]
    return i


class _PastLimit(Exception):
    pass


def expand(t: RowTable, limit: int | None = None) -> str | None:
    """The root's subject in full, each #path replaced by the full text of
    the subject it names, if any, in one pass at any depth.

    Rows that each name the row before twice expand to text exponential in
    the table's size, so a table read from outside should come with a limit:
    each row written costs its own characters, and at least one, and past
    the limit the answer is None, after work linear in the limit."""
    left = float("inf") if limit is None else limit

    def pieces_of(i: int) -> list:
        nonlocal left
        parts = [t.subjects[i]]
        if "#" in parts[0] and t.rules[i] not in LEAF_RULES:
            parts = _REF.split(parts[0])
            for k in range(1, len(parts), 2):
                row = _follow(t.premises, i, parts[k])
                parts[k] = f"#{parts[k]}" if row is None else row
        left -= max(1, sum([len(p) for p in parts if type(p) is str]))
        if left < 0:
            raise _PastLimit
        return parts

    try:
        return write((len(t.rules) - 1,), pieces_of)
    except _PastLimit:
        return None


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


def _declared(t: RowTable, i: int, env: Env, cited: dict) -> Judgment:
    name, j = t.subjects[i], t.judgments[i]
    if t.premises[i]:
        raise CheckError("", "declaration leaves have no premises")
    if j.kind == "class":
        if name not in env.sets or env.sets[name].cls is None:
            raise CheckError("", f"no declared set named {name!r}")
        if env.sets[name].cls != j.cls:
            raise CheckError("", f"declared class of {name!r} is {env.sets[name].cls}, not {j.cls}")
        return j
    if j.kind == "level":
        if name in env.funcs and env.funcs[name].annot is not None:
            declared = env.funcs[name].annot.level
        elif name in env.kernels:
            declared = env.kernels[name].level
        else:
            raise CheckError("", f"no declared function or kernel named {name!r}")
        if declared != j.level:
            raise CheckError("", f"declared level of {name!r} is {declared}, not {j.level}")
        return j
    raise CheckError("", "declaration leaves carry class or level judgments")


def _scheduled(t: RowTable, i: int, env: Env, cited: dict) -> Judgment:
    subject, j = t.subjects[i], t.judgments[i]
    if t.premises[i]:
        raise CheckError("", "schedule leaves have no premises")
    if not subject.startswith("levels "):
        raise CheckError("", "schedule leaf subject must start with 'levels '")
    try:
        sched = parse_schedule(subject[len("levels "):])
    except Exception as exc:
        raise CheckError("", f"unreadable schedule: {exc}") from None
    try:
        bound = schedule_bound(sched)
    except Exception:
        raise CheckError("", "unbounded schedule cannot conclude a class") from None
    if j != class_judgment(bound):
        raise CheckError("", f"schedule bound is {bound}, not {j.render()}")
    return j


def _measurable(t: RowTable, i: int, env: Env, cited: dict) -> Judgment:
    subject, j = t.subjects[i], t.judgments[i]
    if t.premises[i]:
        raise CheckError("", "P-UM nodes have no premises")
    if j.kind != "prop":
        raise CheckError("", "P-UM concludes a proposition")
    restated = f"universally measurable: {subject}"
    if j.text != restated:
        raise CheckError(
            "", f"proposition {j.text!r} does not restate the subject; expected {restated!r}"
        )
    _um_subject(subject)  # read in either mode; a level past the cap raises here
    return j


def _cited(t: RowTable, i: int, env: Env, cited: dict) -> Judgment:
    name, j, digest = t.subjects[i], t.judgments[i], t.cites.get(i)
    if t.premises[i]:
        raise CheckError("", "LET rows have no premises")
    if j.kind not in _KINDS.values():
        raise CheckError("", "LET rows carry class or level judgments")
    entry = (env.sets if j.kind == "class" else env.funcs).get(name)
    if entry is None or entry.expr is None:
        raise CheckError("", f"no {'set' if j.kind == 'class' else 'function'} let named {name!r}")
    if digest not in (cited or {}):
        raise CheckError("", f"no verified let_{name}.pjd hashes to {digest}")
    mode, root = cited[digest]
    if (mode, root) != (t.mode, j):
        raise CheckError("", f"let_{name}.pjd concludes {root.render()} in {mode}, not {j.render()} in {t.mode}")
    return j


def _um_subject(subject: str) -> PointClass:
    try:
        return parse_class_token(subject)
    except ValueError:
        raise CheckError("", "P-UM subject must be a class or level token") from None


def _complement(c: PointClass) -> Judgment:
    if c.kind is Kind.DELTA:
        return class_judgment(c)
    return class_judgment(pi(c.level) if c.kind is Kind.SIGMA else sigma(c.level))


def _countable(*cs: PointClass) -> Judgment:
    if not cs:
        raise CheckError("", "countable combination needs premises")
    return class_judgment(reduce(_join, cs))


def _product(a: PointClass, b: PointClass) -> Judgment:
    if a.kind is b.kind or Kind.DELTA in (a.kind, b.kind):
        return class_judgment(_join(a, b))
    return class_judgment(delta(max(a.level, b.level) + 1))


def _projection(c: PointClass) -> Judgment:
    return class_judgment(sigma(c.level + 1) if c.kind is Kind.PI else sigma(c.level))


def _borel_image(p: int, c: PointClass) -> Judgment:
    if p != 1:
        raise CheckError("", "image rule needs a level-1 function premise")
    return _projection(c)


def _borel_preimage(p: int, c: PointClass) -> Judgment:
    if p != 1:
        raise CheckError("", "Borel preimage needs a level-1 function premise")
    return class_judgment(c)


def _borel_inner(p: int, q: int) -> Judgment:
    if q != 1:
        raise CheckError("", "inner function must have level 1")
    return level_judgment(p)


def _delta_preimage(p: int, c: PointClass) -> Judgment:
    if c.kind is not Kind.DELTA:
        raise CheckError("", "delta-preimage rule needs a delta target")
    return class_judgment(delta(p + c.level))


def _sigma_preimage(p: int, c: PointClass) -> Judgment:
    if c.kind is not Kind.SIGMA:
        raise CheckError("", "sigma-preimage rule needs a sigma target")
    return class_judgment(sigma(c.level + p - 1))


def _arithmetic(*ps: int) -> Judgment:
    if not ps:
        raise CheckError("", "arithmetic needs operands")
    return level_judgment(max(ps))


def _eps_selection(p: int, c: PointClass) -> Judgment:
    # objective at level p, constraint set in class c: the eps-optimal
    # target lies in delta q+1, and its selector is recovered from a
    # pi 2m+1 graph over the target's sigma q+1 projection
    q = max(p, _delta_level(c))
    m = _selector_stage(delta(q + 1))
    return level_judgment(max(2 * m + 2, q + 2) + 1)


# rule -> (premise kinds, conclusion, gate).  The kinds are one letter per
# premise, c for a class judgment and l for a level judgment, or c* and l*
# for one or more of that kind; the conclusion is computed from the
# premises' classes and levels, in premise order.  A one-premise S-BPRE, a
# section, is the entry under ("S-BPRE", 1).  A leaf's kinds are None: its
# conclusion is read off the row, the program and the verified files it may
# cite, (table, row id, env, cited), and its entry raises its own reason
# when they disagree.  The gate, asked outside ZFC_PD only and with the same
# arguments, returns None when the step stands without determinacy, else
# the words that follow the rule id in the refusal.  LET, the one rule the
# engine never applies, cites the file that proves a let (see check).
_RULES = {
    "DECL": (None, _declared, None),
    "SCHED": (None, _scheduled, None),
    "LET": (None, _cited, None),
    "P-UM": (
        None,
        _measurable,
        lambda t, i, env, cited: " beyond level 1" if _um_subject(t.subjects[i]).level >= 2 else None,
    ),
    "S-COMPL": ("c", _complement, None),
    "S-CU": ("c*", _countable, None),
    "S-CI": ("c*", _countable, None),
    "S-PROD": ("cc", _product, None),
    "S-PROJ": ("c", _projection, None),
    "S-BIMG": ("lc", _borel_image, None),
    "S-BPRE": ("lc", _borel_preimage, None),
    ("S-BPRE", 1): ("c", class_judgment, None),
    "S-SUBLEV": ("l", lambda p: class_judgment(delta(p)), None),
    "S-WR": (
        "c",
        lambda c: class_judgment(_sigma_of(c)),
        lambda c: " beyond level 1" if _sigma_of(c).level >= 2 else None,
    ),
    "F-DOM": ("lc", lambda p, c: level_judgment(max(p, _delta_level(c))), None),
    "F-PAIR": ("ll", lambda p, q: level_judgment(max(p, q)), None),
    "F-CYL": ("l", level_judgment, None),
    "F-COMP": ("ll", lambda p, q: level_judgment(p + q), None),
    "F-COMP-B": ("ll", _borel_inner, None),
    "F-PRE-Δ": ("lc", _delta_preimage, None),
    "F-PRE-Σ": ("lc", _sigma_preimage, None),
    "F-GRAPH": ("l", lambda p: class_judgment(delta(p + 1)), None),
    "F-UNGRAPH": ("cc", lambda g, dom: level_judgment(max(_delta_level(g), _delta_level(dom)) + 1), None),
    "F-SECT": ("l", lambda p: level_judgment(p + 1), None),
    "F-ARITH": ("l*", _arithmetic, None),
    "F-CSUP": ("c", lambda c: level_judgment(_delta_level(c)), None),
    "F-CINF": ("c", lambda c: level_judgment(_delta_level(c)), None),
    "F-PARTIAL": ("lc", lambda p, c: level_judgment(max(p, _delta_level(c)) + 1), None),
    "F-INT": ("ll", lambda p, r: level_judgment(p + r + 2), lambda p, r: ""),
    "F-SELECT": (
        "c",
        lambda c: class_judgment(pi(2 * _selector_stage(c) + 1)),
        lambda c: " beyond stage 0" if _selector_stage(c) >= 1 else None,
    ),
    "F-EPS": ("lc", _eps_selection, lambda p, c: ""),
}

# rows whose subject is plain text: a name, a schedule or a class token
LEAF_RULES = frozenset([rule for rule, (kinds, _, _) in _RULES.items() if kinds is None])

_KINDS = {"c": "class", "l": "level"}


def check(t: RowTable, env: Env, cited: dict | None = None) -> None:
    """Raise CheckError unless every row re-derives and every leaf is declared.

    ``cited`` maps the digest of each file already verified to its (mode,
    root judgment); a LET row holds only if the file it cites is there, in
    this table's mode, and concludes the row's judgment.

    The rows are checked in table order, each step once: a step is a leaf
    row, or a rule over a row's own and its premises' judgments.  If one
    fails, a walk from the root checks the rows afresh in first post-order
    visit order and reports the first to fail at the path of its first
    visit, with the path its own checks raise ("" or /premises/i) below."""
    cited = {} if cited is None else cited
    judgments, premises = t.judgments, t.premises
    passed = set()  # the steps that passed: leaf row ids, and (rule, judgment ids...)
    try:
        for i, rule in enumerate(t.rules):
            step = i if rule in LEAF_RULES else (rule, id(judgments[i]), *[id(judgments[p]) for p in premises[i]])
            if step not in passed:
                _check_row(t, i, env, cited=cited)
                passed.add(step)
        return
    except CheckError:
        pass
    for i, frames in _walk(len(t.rules) - 1, premises.__getitem__):
        try:
            _check_row(t, i, env, cited=cited)
        except CheckError as exc:
            raise CheckError(_path_of(frames) + exc.path, exc.reason) from None


def _path_of(frames: list) -> str:
    """The /premises/i... path from the root to the top frame's node."""
    return "".join([f"/premises/{i - 1}" for _, _, i in frames[:-1]])


def _check_row(t: RowTable, i: int, env: Env, cited: dict | None = None) -> None:
    """Row i's own checks, against its premises' judgments."""
    rule, prem, j = t.rules[i], t.premises[i], t.judgments[i]
    if j.level is not None and j.level > LEVEL_CAP:
        raise CheckError("", f"level {j.level} exceeds cap {LEVEL_CAP}")
    entry = _RULES.get(("S-BPRE", 1) if rule == "S-BPRE" and len(prem) == 1 else rule)
    if entry is None:
        raise CheckError("", f"unknown rule id {rule!r}")
    kinds, conclude, gate = entry
    if kinds is None:
        args = (t, i, env, cited)
    else:
        if kinds[-1] == "*":
            kinds = kinds[0] * len(prem)  # conclude() refuses none
        elif len(prem) != len(kinds):
            raise CheckError("", f"rule expects ({len(kinds)},) premises, got {len(prem)}")
        args = []
        for k, kind in enumerate(kinds):
            pj = t.judgments[prem[k]]
            if pj.kind != _KINDS[kind]:
                raise CheckError(f"/premises/{k}", f"expected a {_KINDS[kind]} judgment")
            args.append(pj.cls if kind == "c" else pj.level)
    try:
        expected = conclude(*args)
    except LevelOverflowError as exc:
        # premises, or a P-UM subject, past the cap: no engine run concludes this row
        raise CheckError("", str(exc)) from None
    if j != expected:
        raise CheckError(
            "",
            f"conclusion {j.render()!r} does not match recomputed {expected.render()!r} for rule {rule}",
        )
    if gate is not None and t.mode != ZFC_PD:
        words = gate(*args)
        if words is not None:
            raise CheckError("", f"axiom gate: {rule}{words} requires mode {ZFC_PD}")
