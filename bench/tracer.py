"""Layer spans for the traced benchmark run.

Every call from one mdslab layer into another goes through a module
attribute that is looked up at call time (``mdslab.cli.read_space_csv``,
``mdslab.stability.eigenvalue_quadrature``, ...). The tracer swaps those
attributes for wrappers that record a span and restores them afterwards, so
the spans come from the benchmark's files and ``src/`` is untouched.

A span is ``[name, start, end, parent, amount]``; ``amount`` carries the
work count of the call (matrix cells, file bytes, n**3). Spans stay in
memory and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# Reference eigensolve run next to each eigendecompose call; its time belongs
# to no layer and is left out of every pass time.
REF_EIGH = "bench.ref_eigh"
PASS = "bench.pass"

CLI_COMMANDS = (
    "space_gen", "mds_embed", "mds_krein", "product_check",
    "stability_converge", "torus_check", "sphere_eigen", "sphere_asymptotics",
)

# (span name, attribute, modules whose attribute is wrapped)
BOUNDARIES = (
    ("spaces.validate", "finite_space_from_matrix", ("spaces", "stability", "products")),
    ("spaces.sample", "sample", ("cli", "stability", "products")),
    ("spaces.csv_read", "read_space_csv", ("cli",)),
    ("spaces.csv_write", "write_space_csv", ("cli",)),
    ("mds_core.double_center", "double_center", ("cli", "stability", "products")),
    ("mds_core.eigendecompose", "eigendecompose", ("cli", "stability", "products")),
    ("mds_core.embed", "embed", ("cli", "stability", "products")),
    ("mds_core.embed", "embed_negative", ("cli",)),
    ("mds_core.reconstruct", "reconstruction_matrix", ("cli",)),
    ("mds_core.csv_write", "write_embedding_csv", ("cli",)),
    ("sphere_spectral.quadrature", "eigenvalue_quadrature", ("cli", "stability")),
    ("sphere_spectral.series", "eigenvalue_series", ("cli",)),
    ("sphere_spectral.asymptotic_scan", "asymptotic_scan", ("cli",)),
    ("stability.converge", "convergence_experiment", ("cli",)),
    ("stability.circle_limit_map", "circle_limit_map", ("stability",)),
    ("stability.procrustes", "procrustes", ("stability",)),
    ("stability.gw_cost", "gw_cost", ("stability",)),
    ("stability.hs_gap", "hs_gap", ("stability",)),
    ("products.product_space", "product_space", ("cli", "products")),
    ("products.verify_product_embedding", "verify_product_embedding", ("cli",)),
    ("products.predict", "predict_product_spectrum", ("cli",)),
    ("products.torus_check", "torus_check", ("cli",)),
    ("cli.emit_table", "emit_table", ("cli",)),
)

# Work count recorded with a span, from the call's arguments.
AMOUNTS = {
    "spaces.validate": lambda args: np.shape(args[0])[0] ** 2,
    "spaces.csv_read": lambda args: os.path.getsize(args[0]),
    "spaces.csv_write": lambda args: os.path.getsize(args[1]),
    "mds_core.eigendecompose": lambda args: args[0].n ** 3,
}

# Self-time metrics: the span's duration minus the time its children cover.
SELF_TIME = (
    "cli.emit_table",
    "spaces.validate", "spaces.sample", "spaces.csv_read", "spaces.csv_write",
    "mds_core.double_center", "mds_core.embed", "mds_core.reconstruct", "mds_core.csv_write",
    "sphere_spectral.quadrature", "sphere_spectral.series",
    "sphere_spectral.asymptotic_scan", "sphere_spectral.snowflake_identity",
    "stability.circle_limit_map", "stability.procrustes", "stability.gw_cost", "stability.hs_gap",
    "products.product_space", "products.verify_product_embedding", "products.predict",
    "products.torus_check",
)

LAYERS = ("cli", "spaces", "mds_core", "sphere_spectral", "stability", "products")

COUNT_UNITS = {"spaces.csv_bytes": "bytes"}

PER_LAYER_METRICS = (
    [f"cli.{c}_s" for c in CLI_COMMANDS]
    + ["cli.self_s", "cli.emit_table_s", "cli.calls"]
    + ["spaces.validate_s", "spaces.validate_calls", "spaces.validate_cells", "spaces.sample_s",
       "spaces.csv_read_s", "spaces.csv_write_s", "spaces.csv_bytes", "spaces.bad_input_escapes"]
    + ["mds_core.double_center_s", "mds_core.eigendecompose_s", "mds_core.eigensolve_s",
       "mds_core.postprocess_s", "mds_core.embed_s", "mds_core.reconstruct_s",
       "mds_core.csv_write_s", "mds_core.eigh_calls", "mds_core.eigh_n3"]
    + ["sphere_spectral.quadrature_s", "sphere_spectral.quadrature_calls",
       "sphere_spectral.series_s", "sphere_spectral.series_calls",
       "sphere_spectral.asymptotic_scan_s", "sphere_spectral.snowflake_identity_s"]
    + ["stability.converge_s", "stability.self_s", "stability.circle_limit_map_s",
       "stability.procrustes_s", "stability.gw_cost_s", "stability.hs_gap_s"]
    + ["products.product_space_s", "products.verify_product_embedding_s", "products.predict_s",
       "products.torus_check_s"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return COUNT_UNITS.get(metric, "count")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if amount is not None:
                self.spans[idx][4] = amount(args)
            if name == "mds_core.eigendecompose":
                ref = self.open(REF_EIGH)
                try:
                    np.linalg.eigh(args[0].S)
                except np.linalg.LinAlgError:
                    pass
                finally:
                    self.close(ref)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, attr, modules in BOUNDARIES:
            for mod_name in modules:
                mod = importlib.import_module(f"mdslab.{mod_name}")
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def pass_metrics(spans: list[list], root: int) -> dict:
    """Per-layer metrics of the pass whose root span is ``spans[root]``.

    Spans are stored in opening order, so a pass's spans follow its root and
    every child follows its parent.
    """
    end = root + 1
    while end < len(spans) and spans[end][3] >= root:
        end += 1
    dur = {i: spans[i][2] - spans[i][1] for i in range(root, end)}
    covered = defaultdict(float)
    excluded = defaultdict(float)
    for i in range(end - 1, root, -1):
        parent = spans[i][3]
        covered[parent] += dur[i]
        excluded[parent] += dur[i] if spans[i][0] == REF_EIGH else excluded[i]

    m = {name: 0.0 for name in PER_LAYER_METRICS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in range(root + 1, end):
        name, _, _, _, amount = spans[i]
        if name == REF_EIGH:
            m["mds_core.eigensolve_s"] += dur[i]
            continue
        self_time = dur[i] - covered[i]
        net = dur[i] - excluded[i]
        layer_self[name.split(".", 1)[0]] += self_time
        if name in SELF_TIME:
            m[name + "_s"] += self_time
        command = name[4:] if name.startswith("cli.") else None
        if command in CLI_COMMANDS:
            m[f"cli.{command}_s"] += net
            m["cli.self_s"] += self_time
            m["cli.calls"] += 1
        elif name == "stability.converge":
            m["stability.converge_s"] += net
            m["stability.self_s"] += self_time
        elif name == "mds_core.eigendecompose":
            m["mds_core.eigendecompose_s"] += net
            m["mds_core.eigh_calls"] += 1
            m["mds_core.eigh_n3"] += amount
        elif name == "spaces.validate":
            m["spaces.validate_calls"] += 1
            m["spaces.validate_cells"] += amount
        elif name in ("spaces.csv_read", "spaces.csv_write"):
            m["spaces.csv_bytes"] += amount
        elif name == "sphere_spectral.quadrature":
            m["sphere_spectral.quadrature_calls"] += 1
        elif name == "sphere_spectral.series":
            m["sphere_spectral.series_calls"] += 1
    m["mds_core.postprocess_s"] = m["mds_core.eigendecompose_s"] - m["mds_core.eigensolve_s"]
    wall = dur[root] - excluded[root]
    return {"metrics": m, "layer_self_s": layer_self, "wall_s": wall}
