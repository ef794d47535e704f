"""Every module attribute the benchmark tracer wraps must exist.

``bench/tracer.py`` swaps ``mdslab.<module>.<attribute>`` for a timing
wrapper; a renamed or deleted attribute would only surface in the slow
benchmark smoke test, so the pairs are checked here.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(attr, mod) for _, attr, mods in tracer.BOUNDARIES for mod in mods]


@pytest.mark.parametrize("attr, module", _boundaries())
def test_boundary_resolves(attr, module):
    assert callable(getattr(importlib.import_module(f"mdslab.{module}"), attr, None))
