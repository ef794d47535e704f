"""The three benchmark workloads: seeded inputs, the operations of one pass,
and the output check of each operation.

Each workload is a closed loop with one caller: an operation starts when
the previous one returns. Inputs come from the workload seed and are written
by the benchmark with numpy and scipy; the program sees nothing but the files and
arguments. Output checks use the acceptance tolerances of
``tests/test_acceptance.py`` and no others.

* ``pipeline_io``: file-based finite MDS on external input at n = 640.
  Most of its time is space CSV text I/O and validation; accepted and
  rejected inputs drive validation in opposite directions.
* ``converge``: circle-limit stability on spaces the library builds itself,
  so validation of spaces that are metric by construction dominates and
  text I/O is almost absent.
* ``spectra``: the analytic sphere side. It never touches ``spaces`` or
  ``mds_core``, so it shows sphere-table and per-call CLI costs and should
  not move when validation, I/O or eigensolving change.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi
EXIT_VALIDATION = 2
# Space size of pipeline_io. Above n = 512 mdslab checks the triangle
# inequality on random triples only, so the planted-violation probe tests
# that path; 640 rather than 1024 keeps a pass short enough that a run holds
# several later passes.
N_PIPELINE = 640


@dataclass
class Op:
    """One operation of a pass: a CLI call (``argv``) or a library call."""

    name: str
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    span: Optional[str] = None  # span name of a library call in the traced run
    out: Optional[str] = None  # result CSV whose bytes must repeat across passes
    check: Optional[Callable[["Outcome"], Optional[str]]] = None
    probe: bool = False  # malformed input that must be rejected with exit 2


@dataclass
class Outcome:
    stdout: str
    value: object = None
    path: Optional[str] = None


def write_space(path: str, D: np.ndarray, w: np.ndarray) -> None:
    """Space CSV: ``n,<count>``, the distance rows, then the weight row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n,{w.size}\n")
        np.savetxt(fh, D, fmt="%.17g", delimiter=",")
        np.savetxt(fh, w[None, :], fmt="%.17g", delimiter=",")


def read_rows(path: str, skip: int = 0) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2))


def shortest_path_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Graph metric of a ring plus 4n random chords with integer lengths, so
    every distance is an exact float and the matrix is exactly symmetric."""
    from scipy.sparse.csgraph import shortest_path

    G = np.zeros((n, n))
    ring = np.arange(n)
    G[ring, (ring + 1) % n] = rng.integers(1, 101, size=n)
    a = rng.integers(0, n, size=4 * n)
    b = rng.integers(0, n, size=4 * n)
    keep = a != b
    G[a[keep], b[keep]] = rng.integers(1, 101, size=int(keep.sum()))
    G = np.maximum(G, G.T)
    return shortest_path(G, method="D", directed=False)


def circle_grid(n: int) -> np.ndarray:
    theta = TWO_PI * np.arange(n) / n
    delta = np.abs(theta[:, None] - theta[None, :]) % TWO_PI
    D = np.minimum(delta, TWO_PI - delta)
    np.fill_diagonal(D, 0.0)
    return D


def unit_vectors(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    X = rng.standard_normal(shape)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def sphere_sample(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = unit_vectors(rng, (n, d + 1))
    G = X @ X.T
    D = np.arccos(np.clip((G + G.T) / 2.0, -1.0, 1.0))
    np.fill_diagonal(D, 0.0)
    return D


def _printed_float(out: Outcome) -> float:
    return float(out.stdout.strip().splitlines()[-1])


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, smoke: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> None:
        """Generate the seeded inputs; part of the measured set-up."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


class PipelineIO(Workload):
    name = "pipeline_io"

    def write_inputs(self) -> None:
        n = 64 if self.smoke else N_PIPELINE
        self.n = n
        rng = np.random.default_rng([self.seed, 1])
        D = shortest_path_metric(rng, n)
        w = rng.uniform(0.5, 1.5, size=n)
        w /= w.sum()
        self.D_sq = D**2
        write_space(self.path("metric.csv"), D, w)

        # Probe 1: one planted triangle violation of 1e-6 at a seeded pair.
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        others = np.delete(np.arange(n), [i, j])
        bad = D.copy()
        bad[i, j] = bad[j, i] = float(np.min(D[i, others] + D[others, j])) + 1e-6
        write_space(self.path("probe_triangle.csv"), bad, w)
        # Probe 2: the same space with one NaN distance.
        bad = D.copy()
        bad[i, j] = bad[j, i] = math.nan
        write_space(self.path("probe_nan.csv"), bad, w)

        fc, fs = (8, 8) if self.smoke else (20, 32)  # fc * fs = N_PIPELINE product points
        write_space(self.path("circle.csv"), circle_grid(fc), np.full(fc, 1.0 / fc))
        write_space(self.path("sphere.csv"), sphere_sample(rng, fs, 2), np.full(fs, 1.0 / fs))

    def ops(self) -> list[Op]:
        p = self.path
        n = str(self.n)
        return [
            Op("space gen", ["space", "gen", "--space", "sphere:2", "--mode", "random",
                             "--n", n, "--seed", str(self.seed), "--out", p("sample.csv")],
               out=p("sample.csv"), check=self._check_sample),
            Op("mds embed", ["mds", "embed", "--input", p("sample.csv"), "--m", "3",
                             "--out", p("embed.csv")],
               out=p("embed.csv"), check=self._check_embed),
            Op("mds krein", ["mds", "krein", "--input", p("metric.csv"), "--out", p("krein.csv")],
               out=p("krein.csv"), check=self._check_krein),
            Op("product check", ["product", "check", "--factors",
                                 f"{p('circle.csv')},{p('sphere.csv')}", "--out", p("product.csv")],
               out=p("product.csv"), check=self._check_product),
            Op("probe triangle", ["mds", "embed", "--input", p("probe_triangle.csv"), "--m", "3",
                                  "--out", p("probe_triangle_embed.csv")], probe=True),
            Op("probe nan", ["mds", "embed", "--input", p("probe_nan.csv"), "--m", "3",
                             "--out", p("probe_nan_embed.csv")], probe=True),
        ]

    def _check_sample(self, out: Outcome) -> Optional[str]:
        with open(out.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != f"n,{self.n}" or len(lines) != self.n + 2:
            return f"space CSV has header {lines[0]!r} and {len(lines)} lines"
        return None

    def _check_embed(self, out: Outcome) -> Optional[str]:
        E = read_rows(out.path, skip=1)
        if E.shape != (self.n, 3) or not np.all(np.isfinite(E)):
            return f"embedding has shape {E.shape} or non-finite entries"
        return None

    def _check_krein(self, out: Outcome) -> Optional[str]:
        # Criterion 1: the signed reconstruction from the written table
        # matches D^2 within 1e-8 * max(1, D^2).
        table = read_rows(out.path)
        lam, U = table[0], table[1:]
        KT = (U * lam) @ U.T
        diag = np.diagonal(KT)
        rec = diag[:, None] + diag[None, :] - KT - KT.T
        worst = float(np.max(np.abs(rec - self.D_sq) - 1e-8 * np.maximum(1.0, self.D_sq)))
        return None if worst <= 0.0 else f"reconstruction exceeds tolerance by {worst!r}"

    def _check_product(self, out: Outcome) -> Optional[str]:
        # Criterion 12: merged and direct eigenvalues agree within 1e-8.
        rows = read_rows(out.path, skip=1)
        err = float(np.max(np.abs(rows[:, 1] - rows[:, 2])))
        return None if err <= 1e-8 else f"spectrum merge error {err!r} > 1e-8"


class Converge(Workload):
    name = "converge"

    def ops(self) -> list[Op]:
        p = self.path
        circle = ["--sizes", "16,32,64", "--refine", "2"] if self.smoke else []
        torus_sizes = "4,8" if self.smoke else "8,16"
        return [
            Op("stability converge circle",
               ["stability", "converge", *circle, "--out", p("converge.csv")],
               out=p("converge.csv"), check=self._check_circle),
            Op("stability converge torus",
               ["stability", "converge", "--space", "torus:2", "--sizes", torus_sizes,
                "--out", p("converge_torus.csv")],
               out=p("converge_torus.csv"),
               check=lambda out: self._check_torus_rows(out, torus_sizes)),
            Op("torus check", ["torus", "check", "--n", "256", "--k", "2", "--trunc", "99",
                               "--seed", str(self.seed), "--out", p("torus.csv")],
               out=p("torus.csv"), check=self._check_torus),
        ]

    @staticmethod
    def _check_circle(out: Outcome) -> Optional[str]:
        # Criteria 9 and 10: aligned_L2 strictly decreasing, and the kernel
        # gap bound lhs <= rhs on every row.
        rows = read_rows(out.path, skip=1)
        aligned, lhs, rhs = rows[:, 1], rows[:, 4], rows[:, 5]
        if not np.all(aligned[:-1] > aligned[1:]):
            return f"aligned_L2 not strictly decreasing: {aligned.tolist()}"
        if not np.all(lhs <= rhs):
            return "kernel gap bound violated"
        return None

    @staticmethod
    def _check_torus_rows(out: Outcome, sizes: str) -> Optional[str]:
        rows = read_rows(out.path, skip=1)
        expected = [int(s) for s in sizes.split(",")]
        if rows[:, 0].astype(int).tolist() != expected or not np.all(np.isfinite(rows[:, 1])):
            return f"torus convergence rows {rows[:, :2].tolist()}"
        return None

    @staticmethod
    def _check_torus(out: Outcome) -> Optional[str]:
        err = float(read_rows(out.path, skip=1)[0, 4])
        return None if err <= 0.1 else f"torus max_error {err!r} > 0.1"


class Spectra(Workload):
    name = "spectra"

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.pairs = [(x, y) for x, y in unit_vectors(rng, (20 if self.smoke else 200, 2, 3))]

    def ops(self) -> list[Op]:
        from mdslab.sphere_spectral import snowflake_identity_error

        nmax = 20 if self.smoke else 160
        top_odd = 9 if self.smoke else 99
        top_series = 5 if self.smoke else 41
        ops = [Op("sphere asymptotics",
                  ["sphere", "asymptotics", "--dim", "3", "--nmin", "5", "--nmax", str(nmax),
                   "--out", self.path("asymptotics.csv")],
                  out=self.path("asymptotics.csv"), check=self._check_scan)]
        for d in (2, 3):
            for j in range(1, top_odd + 1, 2):
                ops.append(Op(f"quadrature d={d} j={j}",
                              ["sphere", "eigen", "--dim", str(d), "--degree", str(j),
                               "--method", "quadrature"], check=self._check_positive))
        for j in range(top_series + 1):
            ops.append(Op(f"series d=2 j={j}",
                          ["sphere", "eigen", "--dim", "2", "--degree", str(j), "--method", "series"],
                          check=self._check_finite))
        ops.append(Op("snowflake identity",
                      call=lambda: snowflake_identity_error(2, 99, self.pairs),
                      span="sphere_spectral.snowflake_identity",
                      check=self._check_snowflake))
        return ops

    @staticmethod
    def _check_scan(out: Outcome) -> Optional[str]:
        normalized = read_rows(out.path, skip=1)[:, 2]
        ratio = float(normalized.max() / normalized.min())
        return None if ratio <= 5.0 else f"asymptotic ratio_bound {ratio!r} > 5"

    @staticmethod
    def _check_positive(out: Outcome) -> Optional[str]:
        value = _printed_float(out)
        return None if value > 0.0 else f"odd-degree eigenvalue {value!r} is not positive"

    @staticmethod
    def _check_finite(out: Outcome) -> Optional[str]:
        value = _printed_float(out)
        return None if math.isfinite(value) else f"series eigenvalue {value!r} is not finite"

    @staticmethod
    def _check_snowflake(out: Outcome) -> Optional[str]:
        err = float(out.value)
        return None if err <= 0.05 else f"snowflake identity error {err!r} > 0.05"


WORKLOADS = {cls.name: cls for cls in (PipelineIO, Converge, Spectra)}
