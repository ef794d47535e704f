"""Imports kept only for the benchmark tracer must name a wrapped pair.

A ``src/`` import commented ``bench/tracer.py wraps this name`` keeps a name
that its module no longer calls, so the tracer can still swap it. No linter
flags such an import once the tracer stops wrapping the name there, so every
name is checked against ``BOUNDARIES``; and no linter flags an import nothing
reads, so every unread import must carry the mark. Test files get the same
scan with no mark: an import a test never reads overstates what it exercises.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
MARK = "bench/tracer.py wraps this name"


def _wrapped_pairs() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(attr, mod) for _, attr, mods in tracer.BOUNDARIES for mod in mods}


def _tracer_only_imports() -> list[tuple[str, str, str]]:
    """(attribute, module, where) for each imported name on a marked line."""
    found = []
    for path in sorted((ROOT / "src" / "mdslab").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        marked = {i for i, line in enumerate(lines, 1) if MARK in line}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                found += [(alias.name, path.stem, f"{path.name}:{alias.lineno}")
                          for alias in node.names if alias.lineno in marked]
                marked -= {alias.lineno for alias in node.names}
        assert not marked, f"{path.name} lines {sorted(marked)} carry the mark but import nothing"
    return found


def test_marked_imports_exist():
    assert _tracer_only_imports()


def test_every_tracer_only_import_is_wrapped():
    pairs = _wrapped_pairs()
    stale = [f"{where}: {attr}" for attr, mod, where in _tracer_only_imports()
             if (attr, mod) not in pairs]
    assert not stale, f"tracer-only imports the tracer does not wrap: {stale}"


def _unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each import in ``path`` that no ``Name`` in it loads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(alias.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__")
            for alias in node.names if (alias.asname or alias.name).split(".")[0] not in read]


def test_every_unread_import_is_marked():
    unread = []
    for path in sorted((ROOT / "src" / "mdslab").glob("*.py")):
        lines = path.read_text().splitlines()
        unread += [f"{path.name}:{line}: {name}" for line, name in _unread_imports(path)
                   if MARK not in lines[line - 1]]
    assert not unread, f"imports nothing reads: {unread}"


def test_tests_read_every_import():
    # the tracer wraps library modules only, so no test import may carry the mark
    unread = [f"{path.name}:{line}: {name}"
              for path in sorted((ROOT / "tests").glob("*.py"))
              for line, name in _unread_imports(path)]
    assert not unread, f"test imports nothing reads: {unread}"
