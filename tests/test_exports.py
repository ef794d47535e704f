"""The package exports only names that something uses.

A name re-exported by ``mdslab/__init__.py`` must be read or imported by
another ``mdslab`` module, or be imported by the acceptance suite; anything
else is library surface that only its own tests reach.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdslab"


def _used_names(path: Path) -> set[str]:
    """Names a module reads or imports. A read inside the top-level ``def`` of
    the same name does not count: a function that only calls itself has no user."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_self_recursion_is_not_a_use(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(x):\n    return f(x - 1) if x else g()\n\n\ndef g():\n    return 0\n",
                      encoding="utf-8")
    used = _used_names(module)
    assert "g" in used and "f" not in used


def test_every_export_has_a_user():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = _used_names(ROOT / "tests" / "test_acceptance.py")
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(path)
    unused = sorted(set(exported) - used)
    assert exported and not unused, f"exported but unused: {unused}"
