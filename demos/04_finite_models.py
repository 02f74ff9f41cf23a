"""Exact evaluation of the operator language on a finite model.

The model file pins two base spaces, a planar constraint set, a partial
scalar function with infinite values, a measure, and a kernel; everything
below evaluates in exact rational arithmetic.  A carrier is the DSL's own
space value: the file spells D's carrier "prod(X, Y)", which reads as the
hash-consed ast.ProductSpace("X", "Y") of the two model spaces.

Run:  python3 demos/04_finite_models.py
"""

import pathlib
from fractions import Fraction

import projcalc.ast as ast
from projcalc import eval_set, func_data, loads_model, measure_of, run_suite
from projcalc.formatter import format_space
from projcalc.xreal import format_xreal

path = pathlib.Path(__file__).parent / "models" / "two_by_three.pjm"
m = loads_model(path.read_text())
print(f"loaded model: spaces {dict((k, len(v)) for k, v in m.spaces.items())}, "
      f"sets {sorted(m.sets)}, funcs {sorted(m.funcs)}")
assert m.sets["D"].carrier is ast.ProductSpace("X", "Y")
print("carrier of D:", format_space(m.sets["D"].carrier))

D = ast.NamedSet("D")
print("\n== set operators ==")
print("  D                 ->", sorted(eval_set(D, m)))
print("  proj[1](D)        ->", sorted(eval_set(ast.Projection(D, 1), m)))
print("  section[1 @ x0](D)->", sorted(eval_set(ast.Section(D, 1, at="x0"), m)))
sub = ast.Sublevel(ast.NamedFunc("f"), "<", Fraction(1, 2))
print("  {f < 1/2}         ->", sorted(eval_set(sub, m)))

print("\n== function operators ==")
lam = func_data(ast.IntegralKernel(ast.NamedFunc("f"), "q"), m)
for x in m.spaces["X"]:
    print(f"  (integral of f against q)({x}) = {format_xreal(lam.table[x])}")
sel = func_data(ast.Select(D), m)
print("  select(D) picks  ->", dict(sorted(sel.table.items())))

print("\n== measures ==")
A = eval_set(ast.NamedSet("A"), m)
print("  mu(A) =", measure_of(m, "mu", A))

print("\n== the identity suite replays such models by the hundreds ==")
rows = list(run_suite("FUBINI-DIRAC", seed=7, count=3))
for r in rows:
    print(f"  {r['identity']} seed {r['seed']}: {'ok' if r['ok'] else 'FAIL'}")
