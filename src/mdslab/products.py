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

import numpy as np

from .mds_core import EmbeddingResult, double_center, eigendecompose, embed
from .spaces import (TWO_PI, FiniteSpace, Sphere, SampleSpec, _circle_arc,
                     _dist_sq_matrix, _kron_sum, _metric_space, sample)
from .spaces import finite_space_from_matrix  # noqa: F401  bench/tracer.py wraps this name


def product_space(A: FiniteSpace, B: FiniteSpace) -> FiniteSpace:
    """Explicit product: Cartesian points in C order (A-major), product
    weights, and root-sum-of-squares distances. The l2 product of two
    metrics is a metric, so only the O(n^2) checks run."""
    return _metric_space(np.sqrt(_kron_sum(A.D**2, B.D**2)), np.outer(A.w, B.w).ravel())


@dataclass(frozen=True, eq=False)
class ProductPrediction:
    """Nonzero product spectrum predicted from the factors: ``eigenvalues``
    is the merged union sorted descending."""

    eigenvalues: np.ndarray
    left: EmbeddingResult
    right: EmbeddingResult


def predict_product_spectrum(specA: EmbeddingResult, specB: EmbeddingResult) -> ProductPrediction:
    """Merge the factor nonzero spectra into the predicted product spectrum."""
    lams = np.concatenate([res.eigenvalues[res.eigenvalues != 0.0] for res in (specA, specB)])
    return ProductPrediction(eigenvalues=lams[np.argsort(-lams, kind="stable")],
                             left=specA, right=specB)


def verify_product_embedding(prediction: ProductPrediction, direct: EmbeddingResult) -> float:
    """Additivity of squared embedding distances over a finite product.

    Embeds the decomposition ``direct`` of the explicit product space and
    the two factor decompositions held by ``prediction`` at full positive
    rank and returns the max over all point pairs of

        | ||M(x)-M(y)||^2 - ||M1(x1)-M1(y1)||^2 - ||M2(x2)-M2(y2)||^2 |.

    Degenerate blocks may mix lifted eigenfunctions across factors; the
    block sums compared here are invariant under that mixing.
    """
    Ep, Ea, Eb = (embed(res, max(res.positive_count, 1))
                  for res in (direct, prediction.left, prediction.right))
    predicted = _kron_sum(_dist_sq_matrix(Ea), _dist_sq_matrix(Eb))
    return float(np.max(np.abs(_dist_sq_matrix(Ep) - predicted)))


@dataclass(frozen=True, eq=False)
class TorusCheck:
    max_error: float
    factor_dist: np.ndarray
    embedded_sq: np.ndarray


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
    if k_factors < 1 or n_pairs < 1:
        raise ValueError(f"need k_factors >= 1 and n_pairs >= 1, got {k_factors} and {n_pairs}")
    circle = sample(Sphere(1), SampleSpec(mode="grid", n=n_per_factor))
    result = eigendecompose(double_center(circle))
    m = min(trunc + 1, result.positive_count)
    E = embed(result, m)
    sq_one = _dist_sq_matrix(E)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_per_factor, size=(n_pairs, 2, k_factors))
    thetas = TWO_PI * np.arange(n_per_factor) / n_per_factor
    arc = _circle_arc(thetas[idx[:, 0, :]], thetas[idx[:, 1, :]])
    embedded_sq = np.sum(sq_one[idx[:, 0, :], idx[:, 1, :]], axis=1)
    err = float(np.max(np.abs(embedded_sq - math.pi * np.sum(arc, axis=1))))
    return TorusCheck(max_error=err, factor_dist=arc, embedded_sq=embedded_sq)
