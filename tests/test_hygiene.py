"""Source hygiene, by stdlib ``ast`` only, so it runs wherever the suite runs.

Every name a package module imports is used there: a name counts as used if
it is read anywhere in the module, listed in its ``__all__``, or imported on
a line marked ``# noqa: F401`` (a re-export that another module looks up by
name); ``from __future__`` imports are exempt.

No walker recurses: in the modules that read, bind, infer and write
expressions and space values, and in the game solver, no function reaches
itself through calls by name, and in the finite-model layer only the
carrier and point helpers do.

Importing the command line leaves the concrete layer unloaded, importing the
package loads none of its modules, and every module parses at the Python
version that pyproject.toml declares as the floor.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "projcalc"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*":
                imported.append((node.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .sema import Env, signature\n"
        "from .infer import infer_set  # noqa: F401\n"
        "from .pointclass import delta\n"
        "__all__ = ['delta']\n"
        "def f(env: Env):\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "signature")]


# the modules that walk set and function expressions and space values, the
# game solver, whose levels, codes and target rewrite are loops too, and the
# derivation checker, whose one walk 100000-deep compl nests go through
WALKERS = ("ast", "parser", "sema", "infer", "formatter", "games", "derivation")


def recursive_functions(source: str) -> list[str]:
    """Every function that reaches itself through calls ``f(...)`` or
    ``self.f(...)`` to functions of the same module."""
    calls: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = calls.setdefault(node.name, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                    called.add(sub.func.id)
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                ):
                    called.add(sub.func.attr)
    out = []
    for name in calls:
        seen, stack = set(), list(calls[name])
        while stack:
            callee = stack.pop()
            if callee == name:
                out.append(name)
                break
            if callee in calls and callee not in seen:
                seen.add(callee)
                stack.extend(calls[callee])
    return sorted(out)


@pytest.mark.parametrize("module", WALKERS)
def test_expression_walkers_do_not_recurse(module):
    found = recursive_functions((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert found == []


def test_finite_model_evaluator_does_not_recurse():
    # the evaluator is one fold; only the model's carrier and point helpers recurse
    found = recursive_functions((PACKAGE / "finitemodel.py").read_text(encoding="utf-8"))
    assert found == ["_point_from_json", "_point_to_json", "points"]


def test_recursion_is_flagged():
    source = (
        "def set_carrier(e):\n"
        "    return func_signature(e.func) if e.func else set_carrier(e.operand)\n"
        "def func_signature(e):\n"
        "    return set_carrier(e.dom)\n"
        "class P:\n"
        "    def set_expr(self):\n"
        "        return [self.set_expr()]\n"
        "    def leaf(self):\n"
        "        return set_carrier(self)\n"
    )
    assert recursive_functions(source) == ["func_signature", "set_carrier", "set_expr"]


STARTUP_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import projcalc.cli
unloaded = [m for m in ("finitemodel", "identities", "xreal", "selectors")
            if "projcalc." + m not in sys.modules]
import projcalc
lazy = projcalc.FiniteModel.__module__
names = {}
exec("from projcalc import *", names)
missing = [n for n in projcalc.__all__ if n not in names]
import tracing
uncallable = [f"{m}.{a}" for m, a, _ in tracing.TARGETS
              if not callable(getattr(importlib.import_module(m), a))]
print(json.dumps({"unloaded": unloaded, "lazy": lazy, "missing": missing, "uncallable": uncallable}))
"""


def test_cli_import_leaves_the_concrete_layer_unloaded():
    # a fresh interpreter: importing the command line does not load the
    # finite models or the identity suites, and every public name and every
    # function the benchmark's tracer wraps still resolves
    root = PACKAGE.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(root / "bench")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    doc = json.loads(done.stdout)
    assert doc["unloaded"] == ["finitemodel", "identities", "xreal", "selectors"]
    assert doc["lazy"] == "projcalc.finitemodel"
    assert doc["missing"] == []
    assert doc["uncallable"] == []


# the public names at the commit that declared each of them once, less FuncLevel
PUBLIC = [
    "AssertionResult", "AxiomRequiredError", "Certificate", "CheckError", "Conclusion", "Counterexample",
    "Derivation", "Engine", "Env", "FiniteGame", "FiniteModel", "FormatError", "FuncData", "IDENTITIES",
    "IdentityCase", "Judgment", "KernelData", "LEVEL_CAP", "LevelOverflowError", "MeasureData", "NEG_INF",
    "POS_INF", "ParseError", "PointClass", "ProjcalcError", "Refusal", "ResolutionError", "ResourceLimitError",
    "SetData", "SignAnnotationMissingError", "SignatureError", "UnboundedScheduleError",
    "UnsupportedConstructorError", "XREAL", "XReal", "ZFC", "ZFC_PD", "__version__", "bind", "case_seed",
    "check", "check_identity", "compile_target_expr", "complement_class", "delta", "dumps_game", "dumps_model",
    "eps_select_enumerate", "eps_selector_certificate", "eval_set", "evaluate_assertions", "expand", "fin",
    "format_xreal", "func_data", "generate_case", "infer_func", "infer_set", "integral_lower", "integral_upper",
    "join", "leq", "loads_game", "loads_model", "measure_of", "meet", "parse", "parse_program", "parse_xreal",
    "pi", "product_class", "projection_class", "read_table", "run_suite", "sectionwise_optimum",
    "select_certificate", "serialize", "sigma", "solve", "universal_measurability", "verify_strategy",
]

EXPORT_PROBE = """
import importlib, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "projcalc" or m.startswith("projcalc."))
import projcalc
bare = loaded()
undir = sorted(set(projcalc.__all__) - set(dir(projcalc)))  # before any name is looked up
import projcalc.cli
cli = loaded()
misplaced = []
for name, module in projcalc._HOME.items():
    home = "projcalc." + module
    value = getattr(projcalc, name)
    if value is not getattr(importlib.import_module(home), name) or getattr(value, "__module__", home) != home:
        misplaced.append(name)
print(json.dumps({"bare": bare, "undir": undir, "cli": cli, "all": projcalc.__all__, "misplaced": misplaced}))
"""


def test_each_public_name_loads_its_module_on_first_use():
    # a fresh interpreter: importing the package loads no module of it, and
    # each public name is the object its home module defines
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", EXPORT_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    doc = json.loads(done.stdout)
    assert doc["bare"] == ["projcalc"]
    cli = ["ast", "cli", "derivation", "errors", "formatter", "games", "infer", "parser", "pointclass", "rules",
           "sema"]
    assert doc["cli"] == ["projcalc"] + [f"projcalc.{m}" for m in cli]
    assert len(set(doc["all"])) == len(doc["all"]) and sorted(doc["all"]) == PUBLIC
    assert doc["misplaced"] == []
    assert doc["undir"] == []


def declared_python_floor() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's requires-python, read without tomllib (3.11+)."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_python_floor())
