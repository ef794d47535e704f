"""Stability of the spectral embedding under perturbation of the space.

Couplings between finite spaces, coupling-based distortion costs (upper
bounds on the order-p Gromov-Kantorovich distance), the Hilbert-Schmidt
kernel gap and its two distortion bounds, orthogonal Procrustes alignment,
and the grid convergence experiment that drives all of it end to end:
circle and flat-torus grid embeddings both align to the analytic limit map,
each row from one n-point circle grid embedding (one real DFT of its
circulant kernel, no eigensolver) and a few circle averages (orbit reduction
and product additivity), with no n^k-point torus grid and no fine grid.

Distortion costs are never exact optima: the quadratic assignment underneath
is intractable, and every bound used here is coupling-wise, so explicit
couplings (deterministic nearest-point maps here, the independent product in
the tests) are both sufficient and honest. Outputs are labeled as upper bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mds_core import DimensionMismatch, circle_grid_embedding
from .mds_core import double_center, eigendecompose, embed  # noqa: F401  bench/tracer.py wraps this name
from .spaces import FiniteSpace, Sphere, Torus, _circle_arc, _circle_grid, fourth_moment_norm
from .spaces import finite_space_from_matrix, sample  # noqa: F401  bench/tracer.py wraps this name
from .sphere_spectral import eigenvalue_closed
from .sphere_spectral import eigenvalue_quadrature  # noqa: F401  bench/tracer.py wraps this name

MARGINAL_TOL = 1e-12


class MarginalMismatch(ValueError):
    pass


class UnsupportedSpace(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint probability matrix between two finite spaces with fixed marginals."""

    G: np.ndarray

    @property
    def row_marginal(self) -> np.ndarray:
        return self.G.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.G.sum(axis=0)


def make_coupling(G: np.ndarray, A: FiniteSpace, B: FiniteSpace) -> Coupling:
    G = np.asarray(G, dtype=float)
    if G.shape != (A.n, B.n):
        raise MarginalMismatch(f"coupling shape {G.shape} does not match ({A.n}, {B.n})")
    if G.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(G)), G.shape)
        raise MarginalMismatch(f"negative mass G[{i},{j}]={float(G[i, j])!r}")
    row_err = np.abs(G.sum(axis=1) - A.w)
    if row_err.max() > MARGINAL_TOL:
        i = int(np.argmax(row_err))
        raise MarginalMismatch(f"row {i} sums to {float(G.sum(axis=1)[i])!r}, "
                               f"expected {float(A.w[i])!r}")
    col_err = np.abs(G.sum(axis=0) - B.w)
    if col_err.max() > MARGINAL_TOL:
        j = int(np.argmax(col_err))
        raise MarginalMismatch(f"column {j} sums to {float(G.sum(axis=0)[j])!r}, "
                               f"expected {float(B.w[j])!r}")
    G = G.copy()
    G.setflags(write=False)
    return Coupling(G=G)


def coupling_nearest(A: FiniteSpace, B: FiniteSpace, assign: Sequence[int]) -> Coupling:
    """Deterministic map coupling: all of A's point-i mass goes to B point
    assign[i]. The pushforward of A's weights must reproduce B's weights."""
    assign = np.asarray(assign, dtype=int)
    if assign.shape != (A.n,):
        raise MarginalMismatch(f"assignment has shape {assign.shape}, expected ({A.n},)")
    G = np.zeros((A.n, B.n))
    np.add.at(G, (np.arange(A.n), assign), A.w)
    return make_coupling(G, A, B)


def nearest_grid_assignment(fine_n: int, coarse_n: int) -> np.ndarray:
    """Map each point of a fine circle grid to its nearest coarse grid point
    (ties broken downward), assuming coarse_n divides fine_n. Pushes the
    uniform fine weights forward to the uniform coarse weights exactly."""
    if fine_n % coarse_n:
        raise MarginalMismatch(f"{coarse_n} does not divide {fine_n}")
    r = fine_n // coarse_n
    return ((np.arange(fine_n) + r // 2) // r) % coarse_n


def _coupled_moment(coupling: Coupling, X: np.ndarray, Y: np.ndarray, p: int) -> float:
    """sum_{i,i',j,j'} G_ij G_i'j' |X[i,i'] - Y[j,j']|^p for p in {2, 4}.

    A coupling whose rows each hold one nonzero is a map i -> a[i], and the
    sum is r^T |X - Y[a, a]|^p r over the row marginal r. Otherwise the
    binomial expansion sum_k (-1)^k C(p, k) T_k, with T_0 = r^T X^p r,
    T_p = c^T Y^p c over the column marginal c and
    T_k = sum (G^T X^(p-k) G) * Y^k between, runs in O(n^3) instead of O(n^4);
    it can round slightly below zero, which callers clamp.
    """
    G = coupling.G
    if G.shape != (X.shape[0], Y.shape[0]):
        raise MarginalMismatch(
            f"coupling shape {G.shape} does not match ({X.shape[0]}, {Y.shape[0]})"
        )
    r = coupling.row_marginal
    if np.all((G > 0.0).sum(axis=1) <= 1):
        a = np.argmax(G, axis=1)
        # In place (the acceptance suite's refined circle grids make these
        # n^2 arrays large); p is even, so no abs is needed.
        diff = Y[np.ix_(a, a)] - X
        diff **= p
        return float(r @ diff @ r)
    c = coupling.col_marginal
    terms = ([float(r @ X**p @ r)]
             + [float(np.sum((G.T @ X ** (p - k) @ G) * Y**k)) for k in range(1, p)]
             + [float(c @ Y**p @ c)])
    return sum((-1) ** k * math.comb(p, k) * t for k, t in enumerate(terms))


def gw_cost(coupling: Coupling, A: FiniteSpace, B: FiniteSpace, p: int) -> float:
    """Order-p distortion of a coupling:

        ( sum_{i,i',j,j'} G_ij G_i'j' |d_A(i,i') - d_B(j,j')|^p )^(1/p).

    An upper bound on the order-p Gromov-Kantorovich distance. p in {2, 4}.
    """
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4, got {p}")
    return max(_coupled_moment(coupling, A.D, B.D, p), 0.0) ** (1.0 / p)


def w4_circle_grid(n: int) -> float:
    """Exact order-4 transport distance between the uniform circle measure
    and the uniform n-point grid measure: pi * 5^(-1/4) / n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi * 5.0 ** (-0.25) / n


def hs_gap(A: FiniteSpace, B: FiniteSpace, coupling: Coupling) -> float:
    """Hilbert-Schmidt gap of the raw kernels over the coupled pair measure:
    the L^2(G x G) norm of (d_A^2 - d_B^2) / 2."""
    return 0.5 * math.sqrt(max(_coupled_moment(coupling, A.D**2, B.D**2, 2), 0.0))


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality instance; ``slack`` is rhs - lhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def check_gw_bound(A: FiniteSpace, B: FiniteSpace, coupling: Coupling) -> BoundReport:
    """Kernel gap against the order-4 distortion of the same coupling:

        ||K_A - K_B||_{L^2(G x G)} <= C_A * cost_4 + cost_4^2 / 2,

    with C_A the fourth-moment norm of the reference space A. Holds
    coupling-wise, so single instances are checkable without any infimum.
    """
    cost4 = gw_cost(coupling, A, B, 4)
    lhs = hs_gap(A, B, coupling)
    rhs = fourth_moment_norm(A) * cost4 + 0.5 * cost4**2
    return BoundReport(name="kernel gap vs coupling distortion", lhs=lhs, rhs=rhs)


def check_transport_bound(A: FiniteSpace, B: FiniteSpace, coupling: Coupling,
                          w4: float) -> BoundReport:
    """Kernel gap against an order-4 transport cost, for couplings that come
    from a transport map on a common space:

        ||K_A - K_B||_{L^2(G x G)} <= 2 C_A w4 + 2 w4^2.
    """
    lhs = hs_gap(A, B, coupling)
    rhs = 2.0 * fourth_moment_norm(A) * w4 + 2.0 * w4**2
    return BoundReport(name="kernel gap vs transport cost", lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Procrustes alignment


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Optimal orthogonal alignment Q and the aligned weighted L^2 residual."""

    Q: np.ndarray
    residual: float


def procrustes(Xpts: np.ndarray, Ypts: np.ndarray,
               weights: Optional[np.ndarray] = None) -> AlignmentResult:
    """Minimize sum_i w_i ||X_i - Q Y_i||^2 over the full orthogonal group
    (reflections included), via the polar factor of the weighted
    cross-covariance."""
    X = np.asarray(Xpts, dtype=float)
    Y = np.asarray(Ypts, dtype=float)
    if X.shape != Y.shape or X.ndim != 2:
        raise DimensionMismatch(f"point arrays must share shape, got {X.shape} and {Y.shape}")
    n, m = X.shape
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    C = (X * w[:, None]).T @ Y
    Umat, _, Vt = np.linalg.svd(C)
    Q = Umat @ Vt
    resid = math.sqrt(max(float(np.sum(w[:, None] * (X - Y @ Q.T) ** 2)), 0.0))
    return AlignmentResult(Q=Q, residual=resid)


# ---------------------------------------------------------------------------
# Convergence experiment on circle and torus grids


def circle_limit_map(thetas: np.ndarray, m: int) -> np.ndarray:
    """Limit embedding of the circle at the given angles, first m coordinates:
    pairs (sqrt(lam_k) sqrt(2) cos(k theta), sqrt(lam_k) sqrt(2) sin(k theta))
    over odd degrees k, with lam_k = 1/k^2 from ``eigenvalue_closed``."""
    degrees = range(1, m + 1, 2)
    root = np.array([math.sqrt(eigenvalue_closed(1, k)) * math.sqrt(2.0) for k in degrees])
    angles = np.outer(np.asarray(thetas, dtype=float), degrees)
    out = np.empty((angles.shape[0], m))
    out[:, 0::2] = root * np.cos(angles)
    out[:, 1::2] = root[: m // 2] * np.sin(angles[:, : m // 2])
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    aligned_l2: float
    gw2_images: float
    w4: float
    hs_lhs: float
    hs_rhs: float


def _sum_moment(k: int, x: np.ndarray) -> float:
    """E[(x_1 + ... + x_k)^2] for k independent copies of the values ``x``
    under their uniform mean."""
    return k * float(np.mean(x**2)) + k * (k - 1) * float(np.mean(x)) ** 2


def _nearest_map_columns(n: int, refine: int, k: int) -> tuple[float, float, float]:
    """Kernel gap, fourth-moment norm C of the fine space and order-4 map
    cost of the nearest-point coupling from the ``refine * n`` grid to the
    n grid of ``torus:k`` (k = 1 is the circle), without the fine grid.

    Orbit reduction: rotating the circle by one coarse step maps both grids
    and the assignment onto themselves, so every coupled mean over fine
    pairs (i, i') is the mean over the ``refine`` rows i < refine alone.
    Product additivity: on the torus the squared gaps, squared fine
    distances and squared displacements add up over factors that are
    independent under the product coupling, so each column is
    :func:`_sum_moment` of its circle values.
    """
    fine_n = refine * n
    fine_thetas = _circle_grid(fine_n)
    thetas = _circle_grid(n)
    assign = nearest_grid_assignment(fine_n, n)
    row_thetas, row_grid = fine_thetas[:refine, None], thetas[assign[:refine], None]
    d_sq = _circle_arc(row_thetas, fine_thetas) ** 2
    gap = d_sq - _circle_arc(row_grid, thetas[assign]) ** 2
    disp_sq = _circle_arc(row_thetas, row_grid) ** 2
    return (0.5 * math.sqrt(_sum_moment(k, gap)),
            _sum_moment(k, d_sq) ** 0.25,
            _sum_moment(k, disp_sq) ** 0.25)


def _image_gap(E: np.ndarray, ref: np.ndarray, k: int) -> float:
    """Order-2 identity-coupling distortion between the images of the
    ``torus:k`` grid under ``E`` and ``ref`` per circle factor. The maps are
    equivariant under the grid group, so it is a mean over the pairs (0, y),
    whose squared image distances add up over factors; it runs in chunks of
    the first factor, about 2^20 floats each."""
    a = np.sum((E - E[0]) ** 2, axis=1)
    b = np.sum((ref - ref[0]) ** 2, axis=1)
    A, B = np.zeros(1), np.zeros(1)
    for _ in range(k - 1):
        A, B = np.add.outer(A, a).ravel(), np.add.outer(B, b).ravel()
    step = max(1, (1 << 20) // A.size)
    total = 0.0
    for s in range(0, a.size, step):
        diff = np.sqrt(np.add.outer(a[s:s + step], A)) - np.sqrt(np.add.outer(b[s:s + step], B))
        total += float(np.sum(diff**2))
    return math.sqrt(total / a.size**k)


def _grid_row(k: int, n: int, m: int, refine: int) -> ConvergenceRow:
    """One sweep row on the ``torus:k`` grid of n points per factor (k = 1 is
    the circle) from the n-point circle embedding at ``m // k`` columns, which
    :func:`circle_grid_embedding` takes from one real DFT: the centered torus
    kernel is the sum of the lifted circle kernels, and under the product
    measure the factors' cross-covariance is zero, so the Procrustes rotation
    is block diagonal and the aligned residual is sqrt(k) times the
    circle's. The grid weights are uniform."""
    mc = m // k
    E = circle_grid_embedding(n, mc)
    ref = circle_limit_map(_circle_grid(n), mc)
    gap, c_fine, w4_map = _nearest_map_columns(n, refine, k)
    return ConvergenceRow(
        n=n,
        aligned_l2=math.sqrt(k) * procrustes(ref, E).residual,
        gw2_images=_image_gap(E, ref, k),
        # W_4 to the uniform torus: h (k/80 + k(k-1)/144)^(1/4), h = 2 pi / n,
        # since the Voronoi map is optimal (constant dual potential by
        # symmetry); the factor is exactly 1 on the circle.
        w4=w4_circle_grid(n) * (k * (5 * k + 4) / 9.0) ** 0.25,
        hs_lhs=gap,
        hs_rhs=2.0 * c_fine * w4_map + 2.0 * w4_map**2,
    )


def convergence_experiment(space, sizes: Sequence[int], m: int,
                           refine: int = 4) -> list[ConvergenceRow]:
    """Grid-size sweep of the finite embedding against its limit, on the
    circle or a flat torus.

    Each row reports the orthogonally aligned L^2(mu_n) discrepancy to the
    analytic limit map, an order-2 distortion upper bound between the
    images under the grid coupling, the exact order-4 transport distance to
    the uniform measure, and one kernel-gap bound instance for the
    nearest-point coupling of a ``refine`` times finer grid (per factor).
    Every row decomposes one n-point circle grid by a real DFT, on
    ``torus:k`` too (product additivity and orbit reduction), and builds no
    fine grid and no n x n matrix.
    ``m`` is rounded up to whole degenerate eigenvalue blocks (2k columns
    per odd degree on ``torus:k``): Procrustes cannot align part of a block.
    Repeated sizes raise ``ValueError``, and so does every n < 2 (m // k) - 1,
    whose top m // k circle eigenvalues are not whole positive pairs.
    """
    if not (isinstance(space, Torus) or (isinstance(space, Sphere) and space.d == 1)):
        raise UnsupportedSpace(f"no grid convergence reference for {space!r}")
    if m < 1:
        raise DimensionMismatch(f"embedding dimension must be >= 1, got {m}")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    k = space.k if isinstance(space, Torus) else 1
    m = -(-m // (2 * k)) * 2 * k
    least = 2 * (m // k) - 1
    sizes = sorted(int(n) for n in sizes)
    for prev, n in zip([None] + sizes, sizes):
        if n == prev:
            raise ValueError(f"grid size {n} is repeated in the sweep")
        if n < least:
            raise ValueError(f"grid size {n} gives {n**k} points, but m = {m} needs "
                             f"n >= {least} for whole positive circle blocks")
    return [_grid_row(k, n, m, refine) for n in sizes]
