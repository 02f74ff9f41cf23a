"""Parse a program, infer every binding, and check the evidence independently.

Each inference returns a derivation with shared subproofs.  The checker
re-derives every node from its premises and the declarations alone, so a
tampered derivation is caught no matter where the edit lands.

Run:  python3 demos/02_programs_and_derivations.py
"""

import dataclasses
import json
import pathlib

import projcalc.ast as ast
from projcalc import (ZFC, check, deserialize, evaluate_assertions, infer_set,
                      parse, serialize)
from projcalc.errors import CheckError

source = (pathlib.Path(__file__).parent / "programs" / "hierarchy_tour.pjc").read_text()
program, env = parse(source)

print("== inferred bindings ==")
for stmt in program.statements:
    if isinstance(stmt, ast.LetSet):
        _, d = infer_set(ast.NamedSet(stmt.name), env, ZFC)
        print(f"  let {stmt.name}: {d.conclusion.judgment.render()}")

print("\n== assertion results ==")
for res in evaluate_assertions(program, env, ZFC):
    print(f"  line {res.line}: {'ok' if res.ok else 'FAIL'} - {res.text}")


def show(d, indent="  "):
    c = d.conclusion
    print(f"{indent}{d.rule}: {c.subject} : {c.judgment.render()}")
    for p in d.premises:
        show(p, indent + "    ")


_, deriv = infer_set(ast.NamedSet("F"), env, ZFC)
print("\n== the derivation behind `let F = proj[1](G)` ==")
show(deriv)

# serialization round trip, then independent verification
text = serialize(deriv)
again = deserialize(text)
check(again, env)
rows = json.loads(text)["nodes"]
print(f"\nserialized as {len(rows)} rows, reloaded, and re-checked: ok")

# flip one conclusion and the checker localizes the damage
bad_cls = dataclasses.replace(deriv.conclusion.judgment.cls, level=7)
bad_judgment = dataclasses.replace(deriv.conclusion.judgment, cls=bad_cls)
tampered = dataclasses.replace(
    deriv, conclusion=dataclasses.replace(deriv.conclusion, judgment=bad_judgment))
try:
    check(tampered, env)
except CheckError as exc:
    print(f"tampered copy rejected: {exc}")
