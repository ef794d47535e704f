"""Every public function or class of the library has a reader outside tests/.

A public top-level ``def`` or ``class`` in ``src/mdslab/*.py`` is read when
another ``src/`` module or a ``bench/`` file imports it, when
``bench/tracer.py`` wraps it (``BOUNDARIES``), or when its own module reads
it outside its own definition. A name only the tests read is a test oracle,
and lives in ``tests/conftest.py``.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mdslab"

# Kept until ROADMAP item 9 gives the coupling certificates a CLI path.
ALLOWED_UNREAD = {"coupling_nearest", "check_gw_bound", "check_transport_bound"}


def _public_defs() -> dict[str, tuple[str, ast.AST]]:
    """Each public top-level function or class name -> (module, definition)."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                assert node.name not in defs, f"{node.name} is defined twice"
                defs[node.name] = (path.stem, node)
    return defs


def _imported_from_mdslab(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each name ``path`` imports from an mdslab module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 1:
                module = node.module
            elif node.module.startswith("mdslab."):
                module = node.module.split(".", 1)[1]
            else:
                continue
            found |= {(module, alias.name) for alias in node.names}
    return found


def _wrapped_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, attr, _ in tracer.BOUNDARIES}


def _read_in_own_module(module: str, definition: ast.AST) -> bool:
    """Whether a top-level statement other than ``definition`` loads its name;
    a function or class that binds the name itself reads a local instead."""
    name = definition.name
    for top in ast.parse((SRC / f"{module}.py").read_text()).body:
        if top is definition:
            continue
        nodes = list(ast.walk(top))
        bound = ({node.id for node in nodes
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
                 | {node.arg for node in nodes if isinstance(node, ast.arg)})
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and name in bound:
            continue
        if any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
               for node in nodes):
            return True
    return False


def _unread() -> set[str]:
    defs = _public_defs()
    imports = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        imports |= {(mod, name) for mod, name in _imported_from_mdslab(path)
                    if path.parent != SRC or path.stem != mod}
    wrapped = _wrapped_names()
    return {name for name, (module, node) in defs.items()
            if (module, name) not in imports and name not in wrapped
            and not _read_in_own_module(module, node)}


def test_every_public_name_has_a_library_reader():
    unread = _unread() - ALLOWED_UNREAD
    assert not unread, f"public names only the tests read; move them to tests/: {sorted(unread)}"


def test_allowlist_is_current():
    stale = ALLOWED_UNREAD - _unread()
    assert not stale, f"allowed unread names that are now read or gone: {sorted(stale)}"
