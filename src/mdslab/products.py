"""Metric products of finite spaces and their merged spectra.

The centered kernel of a product space splits as k_T(x, y) =
k_T^(1)(x_1, y_1) + k_T^(2)(x_2, y_2), so the nonzero spectrum of the product
operator is the disjoint union of the factor nonzero spectra, with
eigenfunctions lifted as u (x) 1 and 1 (x) v; every cross term of two
nonconstant eigenfunctions falls in the kernel. Squared embedding distances
are therefore additive across factors, which on the flat torus combines with
the circle identity ||M(x) - M(y)||^2 = pi * dist into the torus form
pi * (d_1 + ... + d_k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mds_core import EmbeddingResult, double_center, eigendecompose, embed
from .spaces import FiniteSpace, Sphere, SampleSpec, _metric_space, sample
from .spaces import finite_space_from_matrix  # noqa: F401  bench/tracer.py wraps this name

TWO_PI = 2.0 * math.pi


def product_space(A: FiniteSpace, B: FiniteSpace) -> FiniteSpace:
    """Explicit product: Cartesian points in C order (A-major), product
    weights, and root-sum-of-squares distances. The l2 product of two
    metrics is a metric, so only the O(n^2) checks run."""
    sq = (A.D**2)[:, None, :, None] + (B.D**2)[None, :, None, :]
    n = A.n * B.n
    D = np.sqrt(sq.reshape(n, n))
    w = np.outer(A.w, B.w).ravel()
    return _metric_space(D, w)


@dataclass(frozen=True, eq=False)
class ProductPrediction:
    """Nonzero product spectrum predicted from the factors.

    ``eigenvalues`` is the merged union sorted descending; ``factor`` and
    ``column`` record where each one came from (0 = left, 1 = right, column
    in that factor's eigenfunction table).
    """

    eigenvalues: np.ndarray
    factor: np.ndarray
    column: np.ndarray
    left: EmbeddingResult
    right: EmbeddingResult

    def lifted_eigenfunction(self, k: int) -> np.ndarray:
        """Eigenfunction k on the product points, flattened A-major."""
        nb = self.right.n
        na = self.left.n
        if self.factor[k] == 0:
            u = self.left.U[:, self.column[k]]
            return np.repeat(u, nb)
        v = self.right.U[:, self.column[k]]
        return np.tile(v, na)

    def embedded_dist_sq(self, i: int, j: int) -> float:
        """Predicted squared embedding distance between flat product indices,
        positive parts at full positive rank: the sum of the factor values."""
        nb = self.right.n
        ia, ib = divmod(i, nb)
        ja, jb = divmod(j, nb)
        out = 0.0
        for res, a, b in ((self.left, ia, ja), (self.right, ib, jb)):
            k = res.positive_count
            if k:
                du = res.U[a, :k] - res.U[b, :k]
                out += float(np.sum(res.eigenvalues[:k] * du * du))
        return out


def predict_product_spectrum(specA: EmbeddingResult, specB: EmbeddingResult) -> ProductPrediction:
    """Merge the factor nonzero spectra into the predicted product spectrum."""
    lams = []
    facs = []
    cols = []
    for f, res in enumerate((specA, specB)):
        for c, lam in enumerate(res.eigenvalues):
            if lam != 0.0:
                lams.append(lam)
                facs.append(f)
                cols.append(c)
    lams = np.array(lams)
    order = np.argsort(-lams, kind="stable")
    return ProductPrediction(
        eigenvalues=lams[order],
        factor=np.array(facs)[order],
        column=np.array(cols)[order],
        left=specA,
        right=specB,
    )


def _dist_sq_matrix(points: np.ndarray) -> np.ndarray:
    sq = np.sum(points**2, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)


def verify_product_embedding(A: FiniteSpace, B: FiniteSpace,
                             tol: Optional[float] = None) -> float:
    """Additivity of squared embedding distances over a finite product.

    Embeds the explicit product space and both factors at full positive rank
    and returns the max over all point pairs of

        | ||M(x)-M(y)||^2 - ||M1(x1)-M1(y1)||^2 - ||M2(x2)-M2(y2)||^2 |.

    Degenerate blocks may mix lifted eigenfunctions across factors; the
    block sums compared here are invariant under that mixing. If ``tol`` is
    given, an AssertionError is raised when it is exceeded.
    """
    prod = product_space(A, B)
    res_p = eigendecompose(double_center(prod))
    res_a = eigendecompose(double_center(A))
    res_b = eigendecompose(double_center(B))
    Ep = embed(res_p, max(res_p.positive_count, 1))
    Ea = embed(res_a, max(res_a.positive_count, 1))
    Eb = embed(res_b, max(res_b.positive_count, 1))
    sq_p = _dist_sq_matrix(Ep)
    sq_a = _dist_sq_matrix(Ea)
    sq_b = _dist_sq_matrix(Eb)
    predicted = (sq_a[:, None, :, None] + sq_b[None, :, None, :]).reshape(prod.n, prod.n)
    err = float(np.max(np.abs(sq_p - predicted)))
    if tol is not None and err > tol:
        raise AssertionError(f"product additivity error {err!r} exceeds {tol!r}")
    return err


@dataclass(frozen=True, eq=False)
class TorusCheck:
    max_error: float
    n_per_factor: int
    k_factors: int
    trunc_degree: int
    factor_dist: np.ndarray
    embedded_sq: np.ndarray
    target: np.ndarray


def torus_check(n_per_factor: int, k_factors: int, trunc: int,
                n_pairs: int = 1000, seed: int = 0) -> TorusCheck:
    """Flat-torus embedding identity through the full finite pipeline.

    Each circle factor is a grid of ``n_per_factor`` points, embedded with
    the coordinates of odd degree up to ``trunc``; by factor additivity the
    torus squared embedding distance is the sum of per-factor values, and it
    is compared against pi * sum_f dist_circle(x_f, y_f) over random grid
    point pairs. Grids must be fine enough that each factor's truncation
    tail stays within the shared error budget.
    """
    if trunc < 1 or trunc % 2 == 0:
        raise ValueError(f"truncation degree must be odd and >= 1, got {trunc}")
    circle = sample(Sphere(1), SampleSpec(mode="grid", n=n_per_factor))
    result = eigendecompose(double_center(circle))
    m = min(trunc + 1, result.positive_count)
    E = embed(result, m)
    sq_one = _dist_sq_matrix(E)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_per_factor, size=(n_pairs, 2, k_factors))
    thetas = TWO_PI * np.arange(n_per_factor) / n_per_factor
    arc = np.abs(thetas[idx[:, 0, :]] - thetas[idx[:, 1, :]])
    arc = np.minimum(arc, TWO_PI - arc)
    embedded_sq = np.sum(sq_one[idx[:, 0, :], idx[:, 1, :]], axis=1)
    dist_sum = np.sum(arc, axis=1)
    target = math.pi * dist_sum
    err = float(np.max(np.abs(embedded_sq - target)))
    return TorusCheck(
        max_error=err,
        n_per_factor=n_per_factor,
        k_factors=k_factors,
        trunc_degree=trunc,
        factor_dist=arc,
        embedded_sq=embedded_sq,
        target=target,
    )
