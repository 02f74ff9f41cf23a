"""Parse a program, infer every binding, and check the evidence independently.

Each inference returns a derivation with shared subproofs.  The checker
reads only what is written: the derivation serialized as a table of rows.
It re-derives every row from its premises and the declarations alone, so
a tampered file is caught no matter where the edit lands.

Run:  python3 demos/02_programs_and_derivations.py
"""

import json
import pathlib

import projcalc.ast as ast
from projcalc import (ZFC, check, evaluate_assertions, infer_set, parse,
                      read_table, serialize)
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

# serialize, read the rows back, and verify them independently
text = serialize(deriv)
rows = read_table(text)
check(rows, env)
print(f"\nserialized as {len(rows.rules)} rows, read back, and re-checked: ok")

# raise the level of the root row's class in the written file, and the
# checker localizes the damage
doc = json.loads(text)
root = doc["nodes"][-1]
kind, level = root["judgment"].rsplit(" ", 1)
root["judgment"] = f"{kind} 7"
try:
    check(read_table(json.dumps(doc)), env)
except CheckError as exc:
    print(f"tampered row ({kind} {level} -> {kind} 7) rejected: {exc}")
