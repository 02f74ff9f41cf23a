"""Wire format round trips and checker tamper resistance."""

import dataclasses
import json
import time
from fractions import Fraction

import pytest

from projcalc import ast, derivation
from projcalc.derivation import (
    ZFC,
    ZFC_PD,
    Conclusion,
    Derivation,
    Judgment,
    check,
    deserialize,
    node,
    serialize,
)
from projcalc.errors import CheckError, FormatError
from projcalc.infer import (
    eps_selector_certificate,
    evaluate_assertions,
    infer_func,
    infer_set,
    select_certificate,
)
from projcalc.parser import parse
from projcalc.formatter import format_schedule
from projcalc.pointclass import BoundedBy, Unbounded, delta, pi, sigma

from .oracles import reference_serialize, same_derivation
from .progen import corpus, doubling_chain

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


def test_round_trip(env):
    for d in sample_trees(env):
        text = serialize(d)
        assert same_derivation(deserialize(text), d)
        # canonical form is a fixed point
        assert serialize(deserialize(text)) == text


def test_serialized_shape(env):
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC)[1]
    text = serialize(d)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert sorted(obj) == ["nodes", "schema"]
    assert obj["schema"] == "projcalc/2"
    root = obj["nodes"][-1]
    assert sorted(root) == ["cite", "conclusion", "premises", "rule"]
    assert root["rule"] == "S-COMPL"
    assert root["conclusion"]["judgment"] == "class pi 1"
    assert root["conclusion"]["mode"] == "ZFC"
    assert obj["nodes"][root["premises"][0]]["rule"] == "DECL"
    # one canonical row per line, between the header and the footer
    lines = text.splitlines()
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == obj["nodes"]
    # two serializations of the same derivation are byte-identical
    assert serialize(d) == text


def test_check_accepts_engine_output(env):
    for d in sample_trees(env):
        check(d, env)


def _with_judgment(d: Derivation, j: Judgment) -> Derivation:
    return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, judgment=j))


def test_bumped_conclusion_rejected(env):
    d = infer_set(ast.FiniteUnion((ast.NamedSet("A"), ast.NamedSet("B"))), env, ZFC)[1]
    bad = _with_judgment(d, Judgment("class", cls=pi(1)))
    with pytest.raises(CheckError) as exc:
        check(bad, env)
    assert "recomputed" in str(exc.value)


def test_tampered_leaf_rejected(env):
    d = infer_set(ast.NamedSet("A"), env, ZFC)[1]
    bad = _with_judgment(d, Judgment("class", cls=sigma(3)))
    with pytest.raises(CheckError) as exc:
        check(bad, env)
    assert "declared class" in str(exc.value)


def test_unknown_leaf_name_rejected(env):
    bad = node("DECL", (), "Z", Judgment("class", cls=sigma(1)), ZFC)
    with pytest.raises(CheckError):
        check(bad, env)


def test_wrong_rule_id_rejected(env):
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC)[1]
    bad = dataclasses.replace(d, rule="S-CU")  # union of one thing keeps sigma 1, not pi 1
    with pytest.raises(CheckError):
        check(bad, env)
    with pytest.raises(CheckError) as exc:
        check(dataclasses.replace(d, rule="X-??"), env)
    assert "unknown rule" in str(exc.value)


def test_mode_mismatch_rejected(env):
    d = infer_set(ast.Complement(ast.NamedSet("A")), env, ZFC_PD)[1]
    flipped = dataclasses.replace(
        d, premises=(dataclasses.replace(d.premises[0], conclusion=dataclasses.replace(d.premises[0].conclusion, mode=ZFC)),)
    )
    with pytest.raises(CheckError) as exc:
        check(flipped, env)
    assert "mode mismatch" in str(exc.value)


def test_axiom_gate_rejected_in_checker(env):
    d = infer_func(ast.IntegralKernel(ast.NamedFunc("f"), "q"), env, ZFC_PD)[1]

    def demote(t: Derivation) -> Derivation:
        return Derivation(
            t.rule,
            t.cite,
            tuple(demote(p) for p in t.premises),
            dataclasses.replace(t.conclusion, mode=ZFC),
        )

    with pytest.raises(CheckError) as exc:
        check(demote(d), env)
    assert "axiom gate" in str(exc.value)


def test_select_gate_rejected_in_checker(env):
    d = select_certificate(ast.NamedSet("D"), env, ZFC_PD).derivation

    def demote(t: Derivation) -> Derivation:
        return Derivation(
            t.rule, t.cite, tuple(demote(p) for p in t.premises), dataclasses.replace(t.conclusion, mode=ZFC)
        )

    with pytest.raises(CheckError) as exc:
        check(demote(d), env)
    assert "axiom gate" in str(exc.value)


def test_sched_leaf_is_reparsed(env):
    d = infer_set(ast.CountableUnion("i", "A", None, BoundedBy(sigma(2))), env, ZFC)[1]
    leaf = d.premises[0]
    assert leaf.rule == "SCHED"
    # claim a different bound than the schedule states
    bad_leaf = _with_judgment(leaf, Judgment("class", cls=sigma(3)))
    bad = dataclasses.replace(d, premises=(bad_leaf,), conclusion=dataclasses.replace(d.conclusion, judgment=Judgment("class", cls=sigma(3))))
    with pytest.raises(CheckError) as exc:
        check(bad, env)
    assert "schedule bound" in str(exc.value)
    # garble the subject text itself
    garbled = dataclasses.replace(leaf, conclusion=dataclasses.replace(leaf.conclusion, subject="levels bounded nonsense"))
    with pytest.raises(CheckError):
        check(dataclasses.replace(d, premises=(garbled,)), env)


def test_error_paths_locate_the_premise(env):
    d = infer_set(ast.FiniteUnion((ast.NamedSet("A"), ast.NamedSet("B"))), env, ZFC)[1]
    bad0 = _with_judgment(d.premises[1], Judgment("class", cls=pi(3)))
    bad = dataclasses.replace(d, premises=(d.premises[0], bad0))
    with pytest.raises(CheckError) as exc:
        check(bad, env)
    assert exc.value.path == "/premises/1"


def test_wrong_premise_shape_rejected(env):
    decl = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    # S-COMPL with two premises
    two = node("S-COMPL", (decl, decl), "x", Judgment("class", cls=pi(1)), ZFC)
    with pytest.raises(CheckError):
        check(two, env)
    # level premise where a class is needed
    lvl = node("DECL", (), "g", Judgment("level", level=3), ZFC)
    mixed = node("S-COMPL", (lvl,), "x", Judgment("class", cls=pi(1)), ZFC)
    with pytest.raises(CheckError):
        check(mixed, env)


def test_decl_with_premises_rejected(env):
    decl = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    stuffed = dataclasses.replace(decl, premises=(decl,))
    with pytest.raises(CheckError) as exc:
        check(stuffed, env)
    assert "no premises" in str(exc.value)


def test_pum_subject_must_be_class_token(env):
    good = node("P-UM", (), "sigma 1", Judgment("prop", text="universally measurable: sigma 1"), ZFC)
    check(good, env)
    bad = node("P-UM", (), "whatever", Judgment("prop", text="universally measurable"), ZFC)
    with pytest.raises(CheckError):
        check(bad, env)
    gated = node("P-UM", (), "sigma 2", Judgment("prop", text="universally measurable: sigma 2"), ZFC)
    with pytest.raises(CheckError) as exc:
        check(gated, env)
    assert "axiom gate" in str(exc.value)
    check(node("P-UM", (), "sigma 2", Judgment("prop", text="universally measurable: sigma 2"), ZFC_PD), env)


def _row(rule="DECL", premises=(), subject="A", judgment="class sigma 1", mode="ZFC"):
    return {"rule": rule, "cite": "", "premises": list(premises),
            "conclusion": {"subject": subject, "judgment": judgment, "mode": mode}}


def _doc(*rows, **top) -> str:
    """A node-table document; the keyword arguments replace or add top-level keys."""
    doc = {"nodes": list(rows), "schema": "projcalc/2"}
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
    ("bad judgment", _doc(_row(judgment="klass sigma 1"), COMPL_A), "bad conclusion at /nodes/0"),
    ("bad level judgment", _doc(_row(subject="g", judgment="level delta x"), COMPL_A),
     "bad conclusion at /nodes/0"),
    ("unknown mode", _doc(DECL_A, _row("S-COMPL", [0], "compl(A)", "class pi 1", mode="ZFC+V=L")),
     "unknown mode 'ZFC\\+V=L' at /nodes/1"),
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
    ("tree format", json.dumps({"rule": "S-COMPL", "cite": "", "premises": [DECL_A],
                                "conclusion": COMPL_A["conclusion"]}), "unsupported schema None"),
    ("nested too deeply", "[" * 200_000, "nested too deeply"),
]


def test_good_document_loads_and_checks(env):
    d = deserialize(GOOD_DOCUMENT)
    check(d, env)
    assert d.premises[0].conclusion.subject == "A"


@pytest.mark.parametrize("label,text,message", BAD_DOCUMENTS, ids=[t[0] for t in BAD_DOCUMENTS])
def test_deserialize_rejects(label, text, message):
    with pytest.raises(FormatError, match=message):
        deserialize(text)


def test_format_error_offset():
    with pytest.raises(FormatError) as exc:
        deserialize('{"rule": }')
    assert exc.value.offset == 9


def test_judgment_parse_round_trip():
    for j in (Judgment("class", cls=delta(4)), Judgment("level", level=7), Judgment("prop", text="x y z")):
        assert Judgment.parse(j.render()) == j


def test_checked_tree_from_disk(tmp_path, env):
    d = infer_func(ast.Compose(ast.NamedFunc("g"), ast.NamedFunc("b")), env, ZFC)[1]
    p = tmp_path / "tree.json"
    p.write_text(serialize(d), encoding="utf-8")
    loaded = deserialize(p.read_text(encoding="utf-8"))
    check(loaded, env)
    assert same_derivation(loaded, d)


# --- shared subproofs -----------------------------------------------------------


def test_doubling_chain_is_linear():
    _, chain_env = parse(doubling_chain(18))
    started = time.perf_counter()
    cls, d = infer_set(ast.NamedSet("A18"), chain_env, ZFC)
    text = serialize(d)
    loaded = deserialize(text)
    check(loaded, chain_env)
    elapsed = time.perf_counter() - started
    assert cls == delta(2)
    assert len(json.loads(text)["nodes"]) == 1 + 2 * 18
    assert len(text.encode("utf-8")) < 16 * 1024
    assert elapsed < 0.25
    assert serialize(loaded) == text


def test_identity_hash_is_fast_on_shared_subproofs():
    # structural __eq__/__hash__ would unfold the 2^18 paths of the chain
    _, chain_env = parse(doubling_chain(18))
    d = infer_set(ast.NamedSet("A18"), chain_env, ZFC)[1]
    twin = deserialize(serialize(d))
    started = time.perf_counter()
    hash(d)
    assert d in {d} and twin not in {d}
    assert same_derivation(d, twin)
    assert time.perf_counter() - started < 0.1


def test_same_derivation_sees_a_deep_difference():
    _, chain_env = parse(doubling_chain(6))
    d = infer_set(ast.NamedSet("A6"), chain_env, ZFC)[1]
    doc = json.loads(serialize(d))
    doc["nodes"][0]["conclusion"]["subject"] = "A_other"
    assert not same_derivation(d, deserialize(json.dumps(doc)))


def test_check_recomputes_each_row_once(monkeypatch):
    _, chain_env = parse(doubling_chain(12))
    text = serialize(infer_set(ast.NamedSet("A12"), chain_env, ZFC)[1])
    inner_rows = sum(1 for row in json.loads(text)["nodes"] if row["premises"])
    calls = []
    original = derivation._expected_judgment

    def counting(d, env, path):
        calls.append(path)
        return original(d, env, path)

    monkeypatch.setattr(derivation, "_expected_judgment", counting)
    check(deserialize(text), chain_env)
    assert len(calls) == inner_rows == 2 * 12
    calls.clear()
    check(infer_set(ast.NamedSet("A12"), chain_env, ZFC)[1], chain_env)
    assert len(calls) == inner_rows


def test_equal_nodes_share_one_row():
    a = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    twin = node("DECL", (), "A", Judgment("class", cls=sigma(1)), ZFC)
    assert a is not twin and same_derivation(a, twin)
    root = node("S-CU", (a, twin), "union(A, A)", Judgment("class", cls=sigma(1)), ZFC)
    rows = json.loads(serialize(root))["nodes"]
    assert len(rows) == 2
    assert rows[1]["premises"] == [0, 0]
    loaded = deserialize(serialize(root))
    assert same_derivation(loaded, root)
    assert loaded.premises[0] is loaded.premises[1]


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
            assert same_derivation(deserialize(serialized), d)
            assert serialize(deserialize(serialized)) == serialized
            count += 1
    assert count >= 150


def test_rows_match_json_dumps_on_awkward_text():
    # quotes and backslashes as an unbounded "witness" schedule spells them,
    # control characters, and the non-ASCII rule ids, written as they are
    sched = format_schedule(Unbounded('a "quoted" \\ witness\twith\x01 é'))
    leaf = node("SCHED", (), f"levels {sched}", Judgment("class", cls=sigma(2)), ZFC)
    delta_pre = node("F-PRE-Δ", (leaf, leaf), 'pre[f](\\"x\n")', Judgment("class", cls=delta(3)), ZFC)
    sigma_pre = node("F-PRE-Σ", (delta_pre, leaf), "Σ ∪ Δ", Judgment("class", cls=sigma(4)), ZFC_PD)
    text = serialize(sigma_pre)
    assert text == reference_serialize(sigma_pre)
    assert "F-PRE-Δ" in text and '\\"quoted\\"' in text
    assert same_derivation(deserialize(text), sigma_pre)
