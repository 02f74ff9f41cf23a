"""Source hygiene: every name a package module imports is used there.

Stdlib ``ast`` only, so it runs wherever the suite runs.  A name counts as
used if it is read anywhere in the module, listed in its ``__all__``, or
imported on a line marked ``# noqa: F401`` (a re-export that another module
looks up by name); ``from __future__`` imports are exempt.
"""

import ast
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
        "from .sema import Env, set_carrier\n"
        "from .infer import infer_set  # noqa: F401\n"
        "from .pointclass import delta\n"
        "__all__ = ['delta']\n"
        "def f(env: Env):\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "set_carrier")]
