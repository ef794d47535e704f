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

import numpy as np

from .mds_core import EmbeddingResult, circle_grid_embedding, embed
from .mds_core import double_center, eigendecompose  # noqa: F401  bench/tracer.py wraps this name
from .spaces import (FiniteSpace, _circle_arc, _circle_grid, _dist_sq_matrix, _kron_sum,
                     _metric_space)
from .spaces import finite_space_from_matrix, sample  # noqa: F401  bench/tracer.py wraps this name


def product_space(A: FiniteSpace, B: FiniteSpace) -> FiniteSpace:
    """Explicit product: Cartesian points in C order (A-major), product
    weights, and root-sum-of-squares distances. The l2 product of two
    metrics is a metric, so only the O(n^2) checks run."""
    return _metric_space(np.sqrt(_kron_sum(A.D**2, B.D**2)), np.outer(A.w, B.w).ravel())


def predict_product_spectrum(left: EmbeddingResult, right: EmbeddingResult) -> np.ndarray:
    """The predicted nonzero product spectrum: the factor nonzero spectra
    merged, sorted descending."""
    lams = np.concatenate([res.eigenvalues[res.eigenvalues != 0.0] for res in (left, right)])
    return lams[np.argsort(-lams, kind="stable")]


def verify_product_embedding(direct: EmbeddingResult, left: EmbeddingResult,
                             right: EmbeddingResult) -> float:
    """Additivity of squared embedding distances over a finite product.

    Embeds the decomposition ``direct`` of the explicit product space and
    the factor decompositions ``left`` and ``right`` at full positive rank
    and returns the max over all point pairs of

        | ||M(x)-M(y)||^2 - ||M1(x1)-M1(y1)||^2 - ||M2(x2)-M2(y2)||^2 |.

    Degenerate blocks may mix lifted eigenfunctions across factors; the
    block sums compared here are invariant under that mixing.
    """
    Ep, Ea, Eb = (embed(res, max(res.positive_count, 1)) for res in (direct, left, right))
    predicted = _kron_sum(_dist_sq_matrix(Ea), _dist_sq_matrix(Eb))
    return float(np.max(np.abs(_dist_sq_matrix(Ep) - predicted)))


def torus_check(n_per_factor: int, k_factors: int, trunc: int,
                n_pairs: int = 1000, seed: int = 0) -> float:
    """Flat-torus embedding identity through the finite circle embedding.

    Each circle factor is a grid of ``n_per_factor`` points, embedded with
    its top ``trunc + 1`` coordinates (odd degrees up to ``trunc`` on fine
    grids) by :func:`circle_grid_embedding`; by factor additivity the torus
    squared embedding distance is the sum of per-factor values, and it is
    compared against pi * sum_f dist_circle(x_f, y_f) over random grid point
    pairs; returns the max absolute error. Grids must be fine enough that
    each factor's truncation tail stays within the shared error budget.
    """
    if trunc < 1 or trunc % 2 == 0:
        raise ValueError(f"truncation degree must be odd and >= 1, got {trunc}")
    if k_factors < 1 or n_pairs < 1:
        raise ValueError(f"need k_factors >= 1 and n_pairs >= 1, got {k_factors} and {n_pairs}")
    if n_per_factor < 1:
        raise ValueError(f"n_per_factor must be >= 1, got {n_per_factor}")
    # past the positive rank (< n) the columns are zero and add nothing
    E = circle_grid_embedding(n_per_factor, min(trunc + 1, n_per_factor))
    sq_from_0 = np.sum((E - E[0]) ** 2, axis=1)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_per_factor, size=(n_pairs, 2, k_factors))
    thetas = _circle_grid(n_per_factor)
    arc = _circle_arc(thetas[idx[:, 0, :]], thetas[idx[:, 1, :]])
    # the grid is a group: the squared distance of (a, b) is that of (0, a - b)
    embedded_sq = np.sum(sq_from_0[(idx[:, 0, :] - idx[:, 1, :]) % n_per_factor], axis=1)
    return float(np.max(np.abs(embedded_sq - math.pi * np.sum(arc, axis=1))))
