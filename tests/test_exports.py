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
    """Names a module reads or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


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
