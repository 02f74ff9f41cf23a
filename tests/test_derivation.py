"""Wire format round trips and checker tamper resistance."""

import dataclasses
import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from projcalc import ast, derivation
from projcalc.cli import main
from projcalc.derivation import (
    ZFC,
    ZFC_PD,
    Conclusion,
    Derivation,
    Judgment,
    RowTable,
    check,
    expand,
    node,
    read_table,
    serialize,
)
from projcalc.errors import VERDICT_ERRORS, CheckError, FormatError, LevelOverflowError
from projcalc.infer import (
    Engine,
    eps_selector_certificate,
    evaluate_assertions,
    infer_func,
    infer_set,
    select_certificate,
)
from projcalc.parser import parse
from projcalc.formatter import format_expr, format_schedule
from projcalc.pointclass import BoundedBy, Unbounded, delta, pi, sigma
from projcalc.rules import CITATIONS

from .oracles import (
    reference_eps_level,
    reference_path_to,
    reference_postorder,
    reference_serialize,
    same_derivation,
)
from .progen import compl_nest, corpus, doubling_chain, linear_chain

SRC = """\
space X = baire
space Y = cantor
set A in X : sigma 1
set B in X : pi 2
set D in prod(X, Y) : delta 2
set P in prod(X, Y) : pi 1
func f : prod(X, Y) -> reals : delta 2
func g : X -> reals : delta 3
func b : X -> X : borel
kernel q : X ~> Y : delta 1
"""


@pytest.fixture(scope="module")
def env():
    _, e = parse(SRC)
    return e


def sample_trees(env):
    yield infer_set(ast.FiniteUnion((ast.NamedSet("A"), ast.NamedSet("B"))), env, ZFC)[1]
    yield infer_set(ast.Preimage(ast.NamedFunc("g"), ast.NamedSet("B")), env, ZFC)[1]
    yield infer_set(ast.CountableUnion("i", "A", None, BoundedBy(sigma(2))), env, ZFC)[1]
    yield infer_func(ast.Compose(ast.NamedFunc("g"), ast.NamedFunc("b")), env, ZFC)[1]
    yield infer_func(ast.IntegralKernel(ast.NamedFunc("f"), "q"), env, ZFC_PD)[1]
    yield select_certificate(ast.NamedSet("P"), env, ZFC).derivation
    yield eps_selector_certificate(
        ast.NamedSet("D"), ast.NamedFunc("f"), Fraction(1, 8), "inf", env, ZFC_PD
    ).derivation


def _rows(d: Derivation) -> RowTable:
    """d as projcalc check reads it: written by serialize, read back by read_table."""
    return read_table(serialize(d))


def _rebuilt(d: Derivation, change) -> Derivation:
    """d with each node n replaced by change(n, its rebuilt premises), a shared node rebuilt once."""
    new = {}
    for n, _ in derivation._walk(d):
        new[n] = change(n, tuple([new[p] for p in n.premises]))
    return new[d]


def _walked_columns(d: Derivation) -> tuple:
    """(rules, premise row ids, subjects, judgments) of d's distinct nodes in
    first post-order visit order, structurally equal nodes as one row."""
    rows, row_of = {}, {}
    for n in reference_postorder(d):
        key = (n.rule, tuple([row_of[p] for p in n.premises]), n.conclusion.subject, n.conclusion.judgment)
        row_of[n] = rows.setdefault(key, len(rows))
    return tuple([list(column) for column in zip(*rows)])


def _read_back(d: Derivation, text: str) -> RowTable:
    """text's rows, asserted to be d's own: its nodes in walk order, in d's mode."""
    t = read_table(text)
    assert (t.mode, t.cites) == (d.conclusion.mode, {})
    assert (t.rules, [tuple(p) for p in t.premises], t.subjects, t.judgments) == _walked_columns(d)
    return t


def test_round_trip(env):
    for d in sample_trees(env):
        text = serialize(d)
        assert text == reference_serialize(d)
        _read_back(d, text)


def test_serialized_shape(env):
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC)[1]
    text = serialize(d)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert sorted(obj) == ["mode", "nodes", "schema"]
    assert obj["schema"] == "projcalc/3"
    assert obj["mode"] == "ZFC"
    root = obj["nodes"][-1]
    assert sorted(root) == ["judgment", "premises", "rule", "subject"]
    assert root["rule"] == "S-COMPL"
    assert root["judgment"] == "class pi 1"
    assert root["subject"] == "compl(A)"  # a name stays a name
    assert obj["nodes"][root["premises"][0]]["rule"] == "DECL"
    # one canonical row per line, between the header and the footer
    lines = text.splitlines()
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == obj["nodes"]
    # two serializations of the same derivation are byte-identical
    assert serialize(d) == text


def test_check_accepts_engine_output(env):
    for d in sample_trees(env):
        check(_rows(d), env)


def _with_judgment(d: Derivation, j: Judgment) -> Derivation:
    return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, judgment=j))


def test_bumped_conclusion_rejected(env):
    d = infer_set(ast.FiniteUnion((ast.NamedSet("A"), ast.NamedSet("B"))), env, ZFC)[1]
    bad = _with_judgment(d, Judgment("class", cls=pi(1)))
    with pytest.raises(CheckError) as exc:
        check(_rows(bad), env)
    assert "recomputed" in str(exc.value)


def test_tampered_leaf_rejected(env):
    d = infer_set(ast.NamedSet("A"), env, ZFC)[1]
    bad = _with_judgment(d, Judgment("class", cls=sigma(3)))
    with pytest.raises(CheckError) as exc:
        check(_rows(bad), env)
    assert "declared class" in str(exc.value)


def test_unknown_leaf_name_rejected(env):
    bad = node("DECL", (), "Z", Judgment("class", cls=sigma(1)), ZFC)
    with pytest.raises(CheckError):
        check(_rows(bad), env)


def test_wrong_rule_id_rejected(env):
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC)[1]
    bad = dataclasses.replace(d, rule="S-CU")  # union of one thing keeps sigma 1, not pi 1
    with pytest.raises(CheckError):
        check(_rows(bad), env)
    with pytest.raises(CheckError) as exc:
        check(_rows(dataclasses.replace(d, rule="X-??")), env)
    assert "unknown rule" in str(exc.value)


def test_mode_mismatch_rejected(env):
    # a file has one mode, so a tree of mixed modes is never written
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC_PD)[1]
    flipped = dataclasses.replace(
        d, premises=(dataclasses.replace(d.premises[0], conclusion=dataclasses.replace(d.premises[0].conclusion, mode=ZFC)),)
    )
    with pytest.raises(ValueError, match="^a ZFC node inside a ZFC_PD derivation$"):
        serialize(flipped)


def _demoted(d: Derivation) -> Derivation:
    """d with every node in ZFC."""
    return _rebuilt(d, lambda n, premises: Derivation(
        n.rule, n.cite, premises, dataclasses.replace(n.conclusion, mode=ZFC)))


def test_axiom_gate_rejected_in_checker(env):
    d = infer_func(ast.IntegralKernel(ast.NamedFunc("f"), "q"), env, ZFC_PD)[1]
    with pytest.raises(CheckError) as exc:
        check(_rows(_demoted(d)), env)
    assert "axiom gate" in str(exc.value)


def test_select_gate_rejected_in_checker(env):
    d = select_certificate(ast.NamedSet("D"), env, ZFC_PD).derivation
    with pytest.raises(CheckError) as exc:
        check(_rows(_demoted(d)), env)
    assert "axiom gate" in str(exc.value)


def test_sched_leaf_is_reparsed(env):
    d = infer_set(ast.CountableUnion("i", "A", None, BoundedBy(sigma(2))), env, ZFC)[1]
    leaf = d.premises[0]
    assert leaf.rule == "SCHED"
    # claim a different bound than the schedule states
    bad_leaf = _with_judgment(leaf, Judgment("class", cls=sigma(3)))
    bad = dataclasses.replace(d, premises=(bad_leaf,), conclusion=dataclasses.replace(d.conclusion, judgment=Judgment("class", cls=sigma(3))))
    with pytest.raises(CheckError) as exc:
        check(_rows(bad), env)
    assert "schedule bound" in str(exc.value)
    # garble the subject text itself
    garbled = dataclasses.replace(leaf, conclusion=dataclasses.replace(leaf.conclusion, subject="levels bounded nonsense"))
    with pytest.raises(CheckError):
        check(_rows(dataclasses.replace(d, premises=(garbled,))), env)


def test_error_paths_locate_the_premise(env):
    d = infer_set(ast.FiniteUnion((ast.NamedSet("A"), ast.NamedSet("B"))), env, ZFC)[1]
    bad0 = _with_judgment(d.premises[1], Judgment("class", cls=pi(3)))
    bad = dataclasses.replace(d, premises=(d.premises[0], bad0))
    with pytest.raises(CheckError) as exc:
        check(_rows(bad), env)
    assert exc.value.path == "/premises/1"


def test_wrong_premise_shape_rejected(env):
    decl = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    # S-COMPL with two premises
    two = node("S-COMPL", (decl, decl), "x", Judgment("class", cls=pi(1)), ZFC)
    with pytest.raises(CheckError):
        check(_rows(two), env)
    # level premise where a class is needed
    lvl = node("DECL", (), "g", Judgment("level", level=3), ZFC)
    mixed = node("S-COMPL", (lvl,), "x", Judgment("class", cls=pi(1)), ZFC)
    with pytest.raises(CheckError):
        check(_rows(mixed), env)


def test_decl_with_premises_rejected(env):
    decl = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    stuffed = dataclasses.replace(decl, premises=(decl,))
    with pytest.raises(CheckError) as exc:
        check(_rows(stuffed), env)
    assert "no premises" in str(exc.value)


def test_pum_subject_must_be_class_token(env):
    good = node("P-UM", (), "sigma 1", Judgment("prop", text="universally measurable: sigma 1"), ZFC)
    check(_rows(good), env)
    bad = node("P-UM", (), "whatever", Judgment("prop", text="universally measurable"), ZFC)
    with pytest.raises(CheckError):
        check(_rows(bad), env)
    gated = node("P-UM", (), "sigma 2", Judgment("prop", text="universally measurable: sigma 2"), ZFC)
    with pytest.raises(CheckError) as exc:
        check(_rows(gated), env)
    assert "axiom gate" in str(exc.value)
    check(_rows(node("P-UM", (), "sigma 2", Judgment("prop", text="universally measurable: sigma 2"), ZFC_PD)), env)


@pytest.mark.parametrize("mode", [ZFC, ZFC_PD])
def test_pum_subject_past_the_cap_fails_the_check(env, mode):
    # the subject is read in both modes, so both refuse it as a row, not a crash
    claim = Judgment("prop", text="universally measurable: sigma 99999999")
    past = node("P-UM", (), "sigma 99999999", claim, mode)
    with pytest.raises(CheckError) as exc:
        check(_rows(past), env)
    assert (exc.value.path, exc.value.reason) == ("", "LevelOverflow: level 99999999 exceeds cap 65535")


def _row(rule="DECL", premises=(), subject="A", judgment="class sigma 1"):
    return {"rule": rule, "premises": list(premises), "subject": subject, "judgment": judgment}


def _doc(*rows, **top) -> str:
    """A node-table document; the keyword arguments replace or add top-level keys."""
    doc = {"mode": "ZFC", "nodes": list(rows), "schema": "projcalc/3"}
    doc.update(top)
    return json.dumps(doc)


DECL_A = _row()
COMPL_A = _row("S-COMPL", [0], "compl(A)", "class pi 1")
GOOD_DOCUMENT = _doc(DECL_A, COMPL_A)


def _without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


# each document is GOOD_DOCUMENT with one defect, and the message names it
BAD_DOCUMENTS = [
    ("not json", "{", "malformed JSON"),
    ("not an object", "[1, 2]", "not an object"),
    ("row not an object", _doc(DECL_A, [1, 2]), "row /nodes/1 is not an object"),
    ("missing rule", _doc(DECL_A, _without(COMPL_A, "rule")), "missing field 'rule' at /nodes/1"),
    ("premises not a list", _doc(DECL_A, dict(COMPL_A, premises=3)), "bad field types at /nodes/1"),
    ("subject not a string", _doc(DECL_A, dict(COMPL_A, subject=["compl(A)"])), "bad field types at /nodes/1"),
    ("bad judgment", _doc(_row(judgment="klass sigma 1"), COMPL_A), "bad judgment at /nodes/0"),
    ("bad level judgment", _doc(_row(subject="g", judgment="level delta x"), COMPL_A),
     "bad judgment at /nodes/0"),
    ("judgment a list", _doc(_row(judgment=["class sigma 1"]), COMPL_A),
     "^bad judgment at /nodes/0: 'list' object has no attribute 'partition'$"),
    ("judgment a number", _doc(DECL_A, _row("S-COMPL", [0], "compl(A)", 1)),
     "^bad judgment at /nodes/1: 'int' object has no attribute 'partition'$"),
    ("unknown mode", _doc(DECL_A, COMPL_A, mode="ZFC+V=L"), "unknown mode 'ZFC\\+V=L' at /mode"),
    ("missing mode", json.dumps({"nodes": [DECL_A, COMPL_A], "schema": "projcalc/3"}), "unknown mode None"),
    ("reference past the premises", _doc(DECL_A, _row("S-COMPL", [0], "compl(#1)", "class pi 1")),
     "#1 at /nodes/1 names no premise"),
    ("reference below a leaf", _doc(DECL_A, _row("S-COMPL", [0], "compl(#0.0)", "class pi 1")),
     "#0.0 at /nodes/1 names no premise"),
    ("reference with no premises", _doc(_row("S-COMPL", [], "compl(#0)", "class pi 1")),
     "#0 at /nodes/0 names no premise"),
    ("reference too long", _doc(DECL_A, _row("S-COMPL", [0], "compl(#" + "9" * 5000 + ")", "class pi 1")),
     "names no premise"),
    ("forward premise", _doc(_row(premises=[1]), COMPL_A), "premise 1 at /nodes/0"),
    ("self premise", _doc(DECL_A, _row("S-COMPL", [1], "compl(A)", "class pi 1")), "premise 1 at /nodes/1"),
    ("negative premise", _doc(DECL_A, _row("S-COMPL", [-1], "compl(A)", "class pi 1")),
     "premise -1 at /nodes/1"),
    ("boolean premise", _doc(DECL_A, _row("S-COMPL", [False], "compl(A)", "class pi 1")),
     "premise False at /nodes/1"),
    ("string premise", _doc(DECL_A, _row("S-COMPL", ["0"], "compl(A)", "class pi 1")),
     "premise '0' at /nodes/1"),
    ("empty nodes", _doc(), "non-empty 'nodes' list"),
    ("nodes not a list", _doc(nodes={"0": DECL_A}), "non-empty 'nodes' list"),
    ("unreachable row", _doc(DECL_A, _row(subject="B", judgment="class pi 2"),
                             _row("S-COMPL", [1], "compl(B)", "class sigma 2")),
     "row /nodes/0 is not reachable"),
    ("missing schema", json.dumps({"nodes": [DECL_A, COMPL_A]}), "unsupported schema None"),
    ("wrong schema", _doc(DECL_A, COMPL_A, schema="projcalc/1"), "unsupported schema 'projcalc/1'"),
    ("schema 2", json.dumps({"nodes": [
        {"cite": "", "conclusion": {"judgment": "class sigma 1", "mode": "ZFC", "subject": "A"},
         "premises": [], "rule": "DECL"},
    ], "schema": "projcalc/2"}), "unsupported schema 'projcalc/2'"),
    ("tree format", json.dumps({"rule": "S-COMPL", "premises": [DECL_A], "subject": "compl(A)",
                                "judgment": "class pi 1"}), "unsupported schema None"),
    ("nested too deeply", "[" * 200_000, "nested too deeply"),
    ("huge premise id", GOOD_DOCUMENT.replace("[0]", "[" + "9" * 5000 + "]"), "an integer has too many digits"),
    ("class past the cap", _doc(_row(judgment="class sigma 99999999"), COMPL_A),
     "^bad judgment at /nodes/0: LevelOverflow: level 99999999 exceeds cap 65535$"),
]


def test_good_document_loads_and_checks(env):
    t = read_table(GOOD_DOCUMENT)
    check(t, env)
    assert (t.mode, t.rules, t.premises, t.subjects, t.cites) == (
        ZFC, ["DECL", "S-COMPL"], [[], [0]], ["A", "compl(A)"], {})
    assert t.judgments == [Judgment("class", cls=sigma(1)), Judgment("class", cls=pi(1))]


@pytest.mark.parametrize("label,text,message", BAD_DOCUMENTS, ids=[t[0] for t in BAD_DOCUMENTS])
def test_deserialize_rejects(label, text, message):
    with pytest.raises(FormatError, match=message):
        read_table(text)


def test_format_error_offset():
    with pytest.raises(FormatError) as exc:
        read_table('{"rule": }')
    assert exc.value.offset == 9


def test_judgment_parse_round_trip():
    for j in (Judgment("class", cls=delta(4)), Judgment("level", level=7), Judgment("prop", text="x y z")):
        assert Judgment.parse(j.render()) == j


def test_checked_tree_from_disk(tmp_path, env):
    d = infer_func(ast.Compose(ast.NamedFunc("g"), ast.NamedFunc("b")), env, ZFC)[1]
    p = tmp_path / "tree.json"
    p.write_text(serialize(d), encoding="utf-8")
    loaded = _read_back(d, p.read_text(encoding="utf-8"))
    check(loaded, env)


# --- shared subproofs -----------------------------------------------------------


def test_doubling_chain_is_linear():
    _, chain_env = parse(doubling_chain(18))
    started = time.perf_counter()
    cls, d = infer_set(ast.NamedSet("A18"), chain_env, ZFC)
    text = serialize(d)
    loaded = read_table(text)
    check(loaded, chain_env)
    elapsed = time.perf_counter() - started
    assert cls == delta(2)
    assert len(json.loads(text)["nodes"]) == 1 + 2 * 18
    assert len(text.encode("utf-8")) < 16 * 1024
    assert elapsed < 0.25
    _read_back(d, text)


def test_identity_hash_is_fast_on_shared_subproofs():
    # structural __eq__/__hash__ would unfold the 2^18 paths of the chain
    _, chain_env = parse(doubling_chain(18))
    d = infer_set(ast.NamedSet("A18"), chain_env, ZFC)[1]
    twin = infer_set(ast.NamedSet("A18"), chain_env, ZFC)[1]  # another engine builds other nodes
    started = time.perf_counter()
    hash(d)
    assert d in {d} and twin not in {d}
    assert same_derivation(d, twin)
    assert time.perf_counter() - started < 0.1


def test_same_derivation_sees_a_deep_difference():
    _, chain_env = parse(doubling_chain(6))
    d = infer_set(ast.NamedSet("A6"), chain_env, ZFC)[1]
    first = next(derivation._walk(d))[0]  # the leaf every path of the chain ends in
    other = _rebuilt(d, lambda n, premises: dataclasses.replace(
        n, premises=premises,
        conclusion=dataclasses.replace(n.conclusion, subject="A_other") if n is first else n.conclusion))
    assert json.loads(serialize(other))["nodes"][0]["subject"] == "A_other"
    assert not same_derivation(d, other)
    assert same_derivation(d, _rebuilt(d, lambda n, premises: dataclasses.replace(n, premises=premises)))


def _counting(monkeypatch, name):
    """The arguments of every call to derivation.<name> from now on."""
    calls = []
    original = getattr(derivation, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(derivation, name, counting)
    return calls


def test_check_works_out_each_step_once(monkeypatch):
    # A12's 25 rows hold 4 distinct steps and one leaf: 5 row checks, and
    # a file that passes is never walked
    _, chain_env = parse(doubling_chain(12))
    text = serialize(infer_set(ast.NamedSet("A12"), chain_env, ZFC)[1])
    rows = json.loads(text)["nodes"]
    steps = {(r["rule"], r["judgment"], *[rows[p]["judgment"] for p in r["premises"]]) for r in rows if r["premises"]}
    leaves = [i for i, r in enumerate(rows) if not r["premises"]]
    table = derivation.read_table(text)
    checked = _counting(monkeypatch, "_check_row")
    walks = _counting(monkeypatch, "_walk")
    check(table, chain_env)
    assert (len(rows), len(steps), len(leaves), len(checked)) == (25, 4, 1, 5)
    assert [i for _, i, _ in checked if i in leaves] == leaves
    checked_steps = [(rows[i]["rule"], rows[i]["judgment"], *[rows[p]["judgment"] for p in rows[i]["premises"]])
                     for _, i, _ in checked if i not in leaves]
    assert sorted(checked_steps) == sorted(steps)
    assert walks == []


def test_check_checks_every_leaf_row():
    # a leaf is checked against the program on each of its rows: a second
    # DECL row of equal judgment but another name is not taken as checked
    text = _doc(DECL_A, _row(subject="Z"), _row("S-CU", [0, 1], "union(A, Z)", "class sigma 1"))
    _, prog_env = parse(SRC)
    with pytest.raises(CheckError) as exc:
        check(derivation.read_table(text), prog_env)
    assert (exc.value.path, exc.value.reason) == ("/premises/1", "no declared set named 'Z'")


def _random_dag(rng: random.Random) -> Derivation:
    """A root over up to 14 nodes, each naming up to three earlier ones,
    with shared and repeated premises."""
    built: list[Derivation] = []
    for i in range(rng.randint(1, 14)):
        k = rng.randint(0, min(3, len(built)))
        kids = tuple(rng.choice(built) for _ in range(k))
        built.append(Derivation("S-CU", "", kids, Conclusion(str(i), Judgment("prop", text=""), ZFC)))
    return built[-1]


def test_walk_matches_reference_order_and_paths():
    # one walk gives the row order and, at each node, its first-visit path
    shared = 0
    for seed in range(400):
        root = _random_dag(random.Random(seed))
        walked = [(n, derivation._path_of(frames)) for n, frames in derivation._walk(root)]
        assert [n for n, _ in walked] == reference_postorder(root)
        assert [path for _, path in walked] == [reference_path_to(root, n) for n, _ in walked]
        edges = [id(p) for n, _ in walked for p in n.premises]
        shared += len(edges) > len(set(edges))
    assert shared > 50


def test_check_walks_the_row_ids_once_on_failure(monkeypatch, env):
    leaf = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    bad = node("S-COMPL", (leaf,), "compl(#0)", Judgment("class", cls=sigma(1)), ZFC)
    root = node("S-CU", (leaf, bad), "union(#0, #1)", Judgment("class", cls=sigma(1)), ZFC)
    table = derivation.read_table(serialize(root))
    walks = _counting(monkeypatch, "_walk")
    with pytest.raises(CheckError) as exc:
        check(table, env)
    assert exc.value.path == "/premises/1"
    assert walks == [(2, table.premises.__getitem__)]


def test_let_rows_cite_a_verified_file():
    # serialize writes a cited let as one LET row; check holds it to the
    # (mode, root judgment) recorded for its digest, and read_table keeps it
    _, env = parse(linear_chain(3))
    engine = Engine(env, ZFC)
    (_, a2), (_, a3) = engine.infer(ast.NamedSet("A2")), engine.infer(ast.NamedSet("A3"))
    digest = "sha256:" + hashlib.sha256(serialize(a2).encode()).hexdigest()
    text = serialize(a3, {a2: ("A2", digest), a3: ("A3", "sha256:" + "0" * 64)})  # the root is never cited
    assert json.loads(text)["nodes"] == [
        {"digest": digest, "judgment": "class sigma 1", "premises": [], "rule": "LET", "subject": "A2"},
        {"judgment": "class pi 1", "premises": [0], "rule": "S-COMPL", "subject": "compl(A2)"},
    ]
    table = read_table(text)
    assert (table.rules, table.premises, table.cites) == (["LET", "S-COMPL"], [[], [0]], {0: digest})
    check(table, env, {digest: (ZFC, a2.conclusion.judgment)})
    for cited, reason in [
        ({}, f"no verified let_A2.pjd hashes to {digest}"),
        ({digest: (ZFC_PD, a2.conclusion.judgment)}, "let_A2.pjd concludes class sigma 1 in ZFC_PD, "
                                                      "not class sigma 1 in ZFC"),
    ]:
        with pytest.raises(CheckError) as exc:
            check(table, env, cited)
        assert (exc.value.path, exc.value.reason) == ("/premises/0", reason)


@pytest.mark.parametrize("digest", [None, 7, "", "sha256:abc", "sha256:" + "A" * 64, "md5:" + "0" * 64])
def test_let_rows_need_a_digest(digest):
    row = {"judgment": "class pi 1", "premises": [], "rule": "LET", "subject": "A1"}
    if digest is not None:
        row["digest"] = digest
    with pytest.raises(FormatError, match="a LET row needs a 'sha256:<64 hex digits>' digest at /nodes/0"):
        derivation.read_table(json.dumps({"mode": "ZFC", "nodes": [row], "schema": "projcalc/3"}))


def test_rule_table_covers_every_rule():
    # LET, the one rule the engine never applies, cites another file
    assert {k for k in derivation._RULES if isinstance(k, str)} == set(CITATIONS) | {"LET"}
    assert derivation.LEAF_RULES == {"DECL", "SCHED", "P-UM", "LET"}


def test_deserialize_parses_each_judgment_text_once(monkeypatch):
    # a file holds few distinct judgments, however many rows it has, and
    # the files a process reads share one memo of them, emptied here first
    derivation._judgment.cache_clear()
    _, nest_env = parse(compl_nest(300))
    text = serialize(infer_set(ast.NamedSet("N"), nest_env, ZFC)[1])
    texts = []
    original = Judgment.parse

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(Judgment, "parse", staticmethod(counting))
    loaded = read_table(text)
    assert sorted(texts) == ["class pi 1", "class sigma 1"]
    check(loaded, nest_env)
    read_table(text)
    assert len(texts) == 2


SECOND_PREMISE_CLASS_RULES = ("S-BIMG", "S-BPRE", "F-DOM", "F-PRE-Δ", "F-PRE-Σ", "F-PARTIAL", "F-EPS")


@pytest.mark.parametrize("rule", SECOND_PREMISE_CLASS_RULES)
def test_wrong_second_premise_kind_names_that_premise(env, rule):
    # a level premise where the class premise belongs: the fault is at
    # /premises/1, not at the level premise before it
    b = node("DECL", (), "b", Judgment("level", level=1), ZFC_PD)
    bad = node(rule, (b, b), "b", Judgment("class", cls=delta(1)), ZFC_PD)
    with pytest.raises(CheckError) as exc:
        check(_rows(bad), env)
    assert (exc.value.path, exc.value.reason) == ("/premises/1", "expected a class judgment")


def test_fault_reached_twice_is_reported_at_its_first_visit(env):
    # union(compl(A), A) with A's class forged: the forged row is reached
    # at /premises/0/premises/0 before /premises/1
    forged = node("DECL", (), "A", Judgment("class", cls=sigma(2)), ZFC)
    inner = node("S-COMPL", (forged,), "compl(A)", Judgment("class", cls=pi(2)), ZFC)
    root = node("S-CU", (inner, forged), "union(compl(A), A)", Judgment("class", cls=delta(3)), ZFC)
    with pytest.raises(CheckError) as exc:
        check(_rows(root), env)
    assert str(exc.value) == "/premises/0/premises/0: declared class of 'A' is sigma 1, not sigma 2"


def test_equal_nodes_share_one_row():
    a = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    twin = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    assert a is not twin and same_derivation(a, twin)
    root = node("S-CU", (a, twin), "union(A, A)", Judgment("class", cls=sigma(1)), ZFC)
    rows = json.loads(serialize(root))["nodes"]
    assert len(rows) == 2
    assert rows[1]["premises"] == [0, 0]
    loaded = read_table(serialize(root))
    assert (loaded.rules, loaded.premises, loaded.subjects) == (["DECL", "S-CU"], [[], [0, 0]], ["A", "union(A, A)"])


def test_round_trip_on_generated_programs():
    count = 0
    for text in corpus():
        program, prog_env = parse(text)
        found = [r.derivation for r in evaluate_assertions(program, prog_env, ZFC_PD) if r.derivation is not None]
        for stmt in program.statements:
            if isinstance(stmt, ast.LetSet):
                found.append(infer_set(ast.NamedSet(stmt.name), prog_env, ZFC_PD)[1])
            elif isinstance(stmt, ast.LetFunc):
                found.append(infer_func(ast.NamedFunc(stmt.name), prog_env, ZFC_PD)[1])
        for d in found:
            serialized = serialize(d)
            assert serialized == reference_serialize(d)
            _read_back(d, serialized)
            count += 1
    assert count >= 150


def test_rows_match_json_dumps_on_awkward_text():
    # quotes and backslashes as an unbounded "witness" schedule spells them,
    # control characters, and the non-ASCII rule ids, written as they are
    sched = format_schedule(Unbounded('a "quoted" \\ witness\twith\x01 é'))
    leaf = node("SCHED", (), f"levels {sched}", Judgment("class", cls=sigma(2)), ZFC_PD)
    delta_pre = node("F-PRE-Δ", (leaf, leaf), 'pre[f](\\"x\n")', Judgment("class", cls=delta(3)), ZFC_PD)
    sigma_pre = node("F-PRE-Σ", (delta_pre, leaf), "Σ ∪ Δ", Judgment("class", cls=sigma(4)), ZFC_PD)
    text = serialize(sigma_pre)
    assert text == reference_serialize(sigma_pre)
    assert "F-PRE-Δ" in text and '\\"quoted\\"' in text
    _read_back(sigma_pre, text)


def test_mixed_modes_are_not_written():
    # the mode is written once, for the whole document
    leaf = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    root = node("S-COMPL", (leaf,), "compl(A)", Judgment("class", cls=pi(1)), ZFC_PD)
    with pytest.raises(ValueError, match="a ZFC node inside a ZFC_PD derivation"):
        serialize(root)


# --- eps-selection: one F-EPS row over the objective and the constraint set ------


def _check_rows(tmp_path, capsys, rows) -> tuple[int, str]:
    """projcalc check on a .pjd of (rule, premise rows, subject, judgment) rows over SRC."""
    built: list[Derivation] = []
    for rule, premises, subject, judgment in rows:
        built.append(node(rule, tuple(built[i] for i in premises), subject, Judgment.parse(judgment), ZFC_PD))
    program, pjd = tmp_path / "p.pjc", tmp_path / "d.pjd"
    program.write_text(SRC, encoding="utf-8")
    pjd.write_text(serialize(built[-1]), encoding="utf-8")
    rc = main(["check", str(pjd), str(program)])
    return rc, capsys.readouterr().out


def test_eps_row_over_its_objective_alone_is_rejected(tmp_path, capsys):
    # the objective alone says nothing of the constraint set the selector
    # must stay inside
    rc, out = _check_rows(tmp_path, capsys, [
        ("DECL", [], "f", "level delta 2"),
        ("F-EPS", [0], "eps_inf(D, f, 1/4)", "level delta 2"),
    ])
    assert rc == 1 and out.startswith("check failed at /: rule expects (2,) premises"), out


def test_check_names_the_second_premise(tmp_path, capsys):
    rc, out = _check_rows(tmp_path, capsys, [
        ("DECL", [], "b", "level delta 1"),
        ("F-PRE-Δ", [0, 0], "pre[b](b)", "class delta 2"),
    ])
    assert (rc, out) == (1, "check failed at /premises/1: expected a class judgment\n")


@pytest.mark.parametrize("level,rc", [(4, 1), (5, 0), (6, 1)])
def test_eps_row_level_is_recomputed(tmp_path, capsys, level, rc):
    got, out = _check_rows(tmp_path, capsys, [
        ("DECL", [], "f", "level delta 2"),
        ("DECL", [], "D", "class delta 2"),
        ("F-EPS", [0, 1], "eps_inf(D, f, 1/4)", f"level delta {level}"),
    ])
    assert got == rc, out


def test_level_past_the_cap_fails_the_check():
    # a premise at the cap makes the recomputed class overflow: the row does
    # not follow, which is a failed check, not malformed input
    _, cap_env = parse(SRC + "func top : prod(X, Y) -> reals : delta 65535\n")
    top = node("DECL", (), "top", Judgment("level", level=65535), ZFC_PD)
    dom = node("DECL", (), "D", Judgment("class", cls=delta(2)), ZFC_PD)
    for d in (
        node("F-EPS", (top, dom), "eps_inf(D, top, 1/4)", Judgment("level", level=3), ZFC_PD),
        node("F-GRAPH", (top,), "graph(top)", Judgment("class", cls=delta(3)), ZFC_PD),
    ):
        with pytest.raises(CheckError) as exc:
            check(_rows(d), cap_env)
        assert str(exc.value) == "/: LevelOverflow: level 65536 exceeds cap 65535"


def test_eps_level_matches_the_construction():
    # (objective level, constraint class): every class up to level 11, and
    # the edges of the level cap
    classes = [k(n) for n in range(1, 12) for k in (sigma, pi, delta)]
    cases = [(p, c) for p in range(1, 12) for c in classes]
    cases += [(p, delta(1)) for p in range(65532, 65536)]
    cases += [(1, c) for c in (sigma(65534), pi(65534), delta(65535))]
    header = "space X = baire\nspace Y = cantor\n"
    header += "".join(f"func f{p} : prod(X, Y) -> reals : delta {p}\n" for p in sorted({p for p, _ in cases}))
    header += "".join(f"set D{c.kind}{c.level} in prod(X, Y) : {c}\n" for c in sorted({c for _, c in cases}, key=str))
    _, sweep_env = parse(header)
    compared = 0
    for p, c in cases:
        try:
            want = reference_eps_level(p, c)
        except LevelOverflowError as exc:
            want = str(exc)
        for direction in ("inf", "sup"):
            try:
                cert = eps_selector_certificate(
                    ast.NamedSet(f"D{c.kind}{c.level}"), ast.NamedFunc(f"f{p}"),
                    Fraction(1, 4), direction, sweep_env, ZFC_PD,
                )
            except LevelOverflowError as exc:
                assert str(exc) == want, (p, c, direction)
            else:
                assert cert.derivation.conclusion.judgment.level == want, (p, c, direction)
                check(_rows(cert.derivation), sweep_env)
            compared += 1
    assert compared == 2 * (11 * 33 + 7)


def _roots(text, mode=ZFC_PD):
    """(program, env, engine, [(statement, derivation)]) of every let and assertion of text."""
    program, prog_env = parse(text)
    engine = Engine(prog_env, mode)
    roots = []
    for stmt in program.statements:
        try:
            if isinstance(stmt, ast.LetSet):
                roots.append((stmt, engine.set_class(ast.NamedSet(stmt.name))[1]))
            elif isinstance(stmt, ast.LetFunc):
                roots.append((stmt, engine.func_level(ast.NamedFunc(stmt.name))[1]))
        except VERDICT_ERRORS:
            pass
    results = evaluate_assertions(program, prog_env, mode, engine)
    roots += [(stmt, r.derivation) for stmt, r in zip(program.assertions, results) if r.derivation]
    return program, prog_env, engine, roots


def test_engine_subjects_parse_as_expressions():
    # every non-leaf subject, written out in full, is an expression of its
    # program: read as the body of one more let, it parses and binds
    count = 0
    for text in corpus():
        _, _, _, roots = _roots(text)
        stack = [d for _, d in roots]
        subjects, seen = set(), set()
        while stack:
            d = stack.pop()
            if id(d) not in seen and d.premises:
                seen.add(id(d))
                subjects.add(expand(_rows(d)))
                stack.extend(d.premises)
        lets = "".join(f"let Subject{i} = {s}\n" for i, s in enumerate(sorted(subjects)))
        try:
            parse(text + lets)
        except Exception as exc:
            pytest.fail(f"{exc}\n{lets}")
        count += len(subjects)
    assert count >= 200


def _unfolded(e, prog_env):
    """e, or for a let name the body it stands for, through any chain of lets."""
    while isinstance(e, (ast.NamedSet, ast.NamedFunc)):
        entry = prog_env.set_entry(e.name) if isinstance(e, ast.NamedSet) else prog_env.func_entry(e.name)
        if entry.expr is None:
            break
        e = entry.expr
    return e


def test_expanded_roots_are_the_formatted_expressions():
    # every root written out in full is its let body or assertion
    # expression, with a let name taken as its body, as the formatter spells
    # it; a limit of its length is just enough to write it out
    count = 0
    for text in corpus() + [doubling_chain(6), linear_chain(50), compl_nest(50)]:
        _, prog_env, _, roots = _roots(text)
        for stmt, d in roots:
            if d.rule == "P-UM":
                continue  # an um certificate's subject is the class it certifies
            if isinstance(stmt, ast.AssertUM):
                e = ast.NamedSet(stmt.name) if stmt.name in prog_env.sets else ast.NamedFunc(stmt.name)
            else:
                e = stmt.expr
            want = format_expr(_unfolded(e, prog_env))
            t = _rows(d)
            assert expand(t) == want, stmt
            assert expand(t, len(want)) == want and expand(t, len(want) - 1) is None
            count += 1
    assert count >= 250


def _mutations(row: dict) -> list[dict]:
    """The one-field changes of a row: its judgment one level up, or its
    rule swapped for F-ARITH, S-CU or an unknown id."""
    head, _, rest = row["judgment"].rpartition(" ")
    bumped = [] if row["judgment"].startswith("prop ") else [{"judgment": f"{head} {int(rest) + 1}"}]
    return bumped + [{"rule": rule} for rule in ("F-ARITH", "S-CU", "X-??") if rule != row["rule"]]


def _mutants(doc: dict, copies: list[list[int]]):
    """(row, mutation, text) for each mutation of each row of doc, where
    copies[k] lists the row ids that stand for row k, every one changed."""
    for k, ids in enumerate(copies):
        for change in _mutations(doc["nodes"][ids[0]]):
            rows = list(doc["nodes"])
            for i in ids:
                rows[i] = dict(rows[i], **change)
            yield k, change, json.dumps(dict(doc, nodes=rows))


def _frozen_cases():
    """(program text, env, canonical document, its one-row mutants) for
    every derivation of the first 34 corpus programs, in both modes."""
    for text in corpus()[:34]:
        for mode in (ZFC, ZFC_PD):
            _, prog_env, _, roots = _roots(text, mode)
            for _, d in roots:
                doc = json.loads(serialize(d))
                yield text, prog_env, doc, list(_mutants(doc, [[i] for i in range(len(doc["nodes"]))]))


def _outcome(run) -> list:
    """[path, reason] of the CheckError that run() raises, or ["ok"]."""
    try:
        run()
    except CheckError as exc:
        return [exc.path, exc.reason]
    return ["ok"]


def test_check_outcomes_frozen():
    # the (path, reason) that check gives each one-row mutant of every
    # derivation of the first 34 corpus programs, in both modes: one digest,
    # taken while check was still a branch per rule over a second walk
    outcomes = []
    for _, prog_env, _, mutants in _frozen_cases():
        for _, _, mutant in mutants:
            outcomes.append(_outcome(lambda: check(read_table(mutant), prog_env)))
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert (len(outcomes), digest) == (
        2396, "42f24f54efbd11f26b58a5431ea24ae25de4792050bc1357c0e9278bcacee9db"
    )


def test_cli_check_reports_what_the_tree_check_does(tmp_path, capsys):
    # projcalc check, with its program loading, cited files and report
    # lines, says what check(read_table(...)) says of every frozen mutant
    program, pjd = tmp_path / "p.pjc", tmp_path / "d.pjd"
    compared = 0
    for text, prog_env, _, mutants in _frozen_cases():
        program.write_text(text, encoding="utf-8")
        for _, _, mutant in mutants:
            pjd.write_text(mutant, encoding="utf-8")
            rc = main(["check", str(pjd), str(program)])
            out = capsys.readouterr().out
            want = _outcome(lambda: check(read_table(mutant), prog_env))
            if want == ["ok"]:
                assert rc == 0 and out.startswith("ok: "), out
            else:
                assert (rc, out) == (1, f"check failed at {want[0] or '/'}: {want[1]}\n")
            compared += 1
    assert compared == 2396


def _reordered(doc: dict, rng: random.Random) -> tuple[dict, list[list[int]]]:
    """doc's rows in a random premises-first order, with one row that is
    cited more than once given a copy that some of those citations name
    instead; and, for each row of doc, the ids of the rows that stand for it."""
    rows = [dict(r, premises=list(r["premises"])) for r in doc["nodes"]]
    twice = sorted(p for p, n in Counter(p for r in rows for p in r["premises"]).items() if n > 1)
    if twice:
        d = rng.choice(twice)
        sites = [(c, q) for c, r in enumerate(rows) for q, p in enumerate(r["premises"]) if p == d]
        rows.append(dict(rows[d], premises=list(rows[d]["premises"])))
        for c, q in rng.sample(sites, rng.randint(1, len(sites) - 1)):
            rows[c]["premises"][q] = len(rows) - 1
    # a random topological order: the root, cited by none, comes last
    waiting = [len(r["premises"]) for r in rows]
    users = [[] for _ in rows]
    for c, r in enumerate(rows):
        for p in r["premises"]:
            users[p].append(c)
    ready, order = [i for i, w in enumerate(waiting) if w == 0], []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for c in users[i]:
            waiting[c] -= 1
            if waiting[c] == 0:
                ready.append(c)
    assert order[-1] == len(doc["nodes"]) - 1
    new_id = {old: new for new, old in enumerate(order)}
    nodes = [dict(rows[old], premises=[new_id[p] for p in rows[old]["premises"]]) for old in order]
    copies = [[new_id[k]] for k in range(len(doc["nodes"]))]
    if twice:
        copies[d].append(new_id[len(rows) - 1])
    return dict(doc, nodes=nodes), copies


def _file_order_outcome(text: str, prog_env) -> list:
    """The first row to fail in file order, at its first visit: not what
    check reports."""
    t = derivation.read_table(text)
    for i in range(len(t.rules)):
        try:
            derivation._check_row(t, i, prog_env)
        except CheckError as exc:
            walk = derivation._walk(len(t.rules) - 1, t.premises.__getitem__)
            return [next(derivation._path_of(f) for n, f in walk if n == i) + exc.path, exc.reason]
    return ["ok"]


def test_reordered_and_duplicated_rows_report_what_the_canonical_file_does():
    # each row mutation, made in the canonical file and in a seeded
    # premises-first reordering with one row duplicated (to every copy of
    # the row), gives the same path and reason; reporting the first failure
    # in file order would not
    compared = file_order_wrong = duplicated = 0
    for n, (_, prog_env, doc, mutants) in enumerate(_frozen_cases()):
        other, copies = _reordered(doc, random.Random(n))
        duplicated += len(other["nodes"]) > len(doc["nodes"])
        for (k, change, mutant), (k2, change2, moved) in zip(mutants, _mutants(other, copies), strict=True):
            assert (k, change) == (k2, change2)
            want = _outcome(lambda: check(derivation.read_table(mutant), prog_env))
            assert _outcome(lambda: check(derivation.read_table(moved), prog_env)) == want, (mutant, moved)
            file_order_wrong += _file_order_outcome(moved, prog_env) != want
            compared += 1
    assert compared == 2396
    assert duplicated > 30 and file_order_wrong > 50
