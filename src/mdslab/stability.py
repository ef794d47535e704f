"""Stability of the spectral embedding under perturbation of the space.

Couplings between finite spaces, coupling-based distortion costs (upper
bounds on the order-p Gromov-Kantorovich distance), the Hilbert-Schmidt
kernel gap and its two distortion bounds, orthogonal Procrustes alignment,
eigenvalue perturbation checks, and the circle convergence experiment that
drives all of it end to end.

Distortion costs are never exact optima: the quadratic assignment underneath
is intractable, and every bound used here is coupling-wise, so explicit
couplings (identity, independent product, deterministic nearest-point maps)
are both sufficient and honest. Outputs are labeled as upper bounds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mds_core import (
    CenteredOperator,
    DimensionMismatch,
    double_center,
    eigendecompose,
    embed,
)
from .spaces import (
    FiniteSpace,
    Sphere,
    Torus,
    SampleSpec,
    _metric_space,
    fourth_moment_norm,
    sample,
)
from .spaces import finite_space_from_matrix  # noqa: F401  bench/tracer.py wraps this name
from .sphere_spectral import eigenvalue_quadrature

MARGINAL_TOL = 1e-12
TWO_PI = 2.0 * math.pi


class MarginalMismatch(ValueError):
    pass


class TooLarge(ValueError):
    pass


class BoundViolated(AssertionError):
    """A proven inequality failed numerically; carries both sides."""


class UnsupportedSpace(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint probability matrix between two finite spaces with fixed marginals."""

    G: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.G.shape

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
        raise MarginalMismatch(f"negative mass G[{i},{j}]={G[i, j]!r}")
    row_err = np.abs(G.sum(axis=1) - A.w)
    if row_err.max() > MARGINAL_TOL:
        i = int(np.argmax(row_err))
        raise MarginalMismatch(f"row {i} sums to {G.sum(axis=1)[i]!r}, expected {A.w[i]!r}")
    col_err = np.abs(G.sum(axis=0) - B.w)
    if col_err.max() > MARGINAL_TOL:
        j = int(np.argmax(col_err))
        raise MarginalMismatch(f"column {j} sums to {G.sum(axis=0)[j]!r}, expected {B.w[j]!r}")
    G = G.copy()
    G.setflags(write=False)
    return Coupling(G=G)


def coupling_identity(A: FiniteSpace) -> Coupling:
    """Diagonal coupling of a space with itself."""
    return make_coupling(np.diag(A.w), A, A)


def coupling_product(A: FiniteSpace, B: FiniteSpace) -> Coupling:
    """Independent coupling w_i * w_j."""
    return make_coupling(np.outer(A.w, B.w), A, B)


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


def _deterministic_assignment(coupling: Coupling) -> Optional[np.ndarray]:
    """Column index of the single nonzero per row, or None if any row splits."""
    G = coupling.G
    nz = G > 0.0
    if np.all(nz.sum(axis=1) <= 1):
        return np.argmax(G, axis=1)
    return None


def gw_cost(coupling: Coupling, A: FiniteSpace, B: FiniteSpace, p: int) -> float:
    """Order-p distortion of a coupling:

        ( sum_{i,i',j,j'} G_ij G_i'j' |d_A(i,i') - d_B(j,j')|^p )^(1/p).

    An upper bound on the order-p Gromov-Kantorovich distance. p in {2, 4}.
    """
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4, got {p}")
    G = coupling.G
    if G.shape != (A.n, B.n):
        raise MarginalMismatch(f"coupling shape {G.shape} does not match ({A.n}, {B.n})")
    assign = _deterministic_assignment(coupling)
    if assign is not None:
        r = coupling.row_marginal
        diff = np.abs(A.D - B.D[np.ix_(assign, assign)]) ** p
        total = float(r @ diff @ r)
        return max(total, 0.0) ** (1.0 / p)
    r = coupling.row_marginal
    c = coupling.col_marginal
    DA, DB = A.D, B.D
    if p == 2:
        total = (
            float(r @ DA**2 @ r)
            - 2.0 * float(np.sum((G.T @ DA @ G) * DB))
            + float(c @ DB**2 @ c)
        )
    else:
        total = (
            float(r @ DA**4 @ r)
            - 4.0 * float(np.sum((G.T @ DA**3 @ G) * DB))
            + 6.0 * float(np.sum((G.T @ DA**2 @ G) * DB**2))
            - 4.0 * float(np.sum((G.T @ DA @ G) * DB**3))
            + float(c @ DB**4 @ c)
        )
    return max(total, 0.0) ** (1.0 / p)


def gw_bruteforce(A: FiniteSpace, B: FiniteSpace, p: int) -> float:
    """Minimum coupling cost over all permutation couplings of two equal-size
    uniform spaces (n <= 8).

    Still only an upper bound on the order-p Gromov-Kantorovich distance:
    optima of the quadratic objective need not be permutations. Used for
    consistency and monotonicity checks, never as exact ground truth.
    """
    if A.n != B.n:
        raise TooLarge(f"need equal sizes, got {A.n} and {B.n}")
    n = A.n
    if n > 8:
        raise TooLarge(f"permutation search is n! work; n={n} > 8")
    for fs in (A, B):
        if np.max(np.abs(fs.w - 1.0 / n)) > MARGINAL_TOL:
            raise MarginalMismatch("permutation couplings need uniform weights")
    best = math.inf
    DA, DB = A.D, B.D
    for perm in itertools.permutations(range(n)):
        idx = np.array(perm)
        cost = float(np.sum(np.abs(DA - DB[np.ix_(idx, idx)]) ** p)) / (n * n)
        best = min(best, cost)
    return best ** (1.0 / p)


def w4_circle_grid(n: int) -> float:
    """Exact order-4 transport distance between the uniform circle measure
    and the uniform n-point grid measure: pi * 5^(-1/4) / n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi * 5.0 ** (-0.25) / n


def w4_circle_grid_numeric(n: int, cells: int = 10_000) -> float:
    """Discretized transport oracle for :func:`w4_circle_grid`: midpoint rule
    over the monotone rearrangement that sends each arc cell to its nearest
    grid point."""
    t = (np.arange(cells) + 0.5) * TWO_PI / cells
    step = TWO_PI / n
    disp = np.abs(((t + step / 2.0) % step) - step / 2.0)
    return float(np.mean(disp**4) ** 0.25)


def coupling_transport_w4(coupling: Coupling, cross_dist: np.ndarray) -> float:
    """Order-4 transport cost of a coupling given cross distances between the
    two point sets: (sum_ij G_ij d(x_i, y_j)^4)^(1/4)."""
    return float(np.sum(coupling.G * cross_dist**4) ** 0.25)


def hs_gap(A: FiniteSpace, B: FiniteSpace, coupling: Coupling) -> float:
    """Hilbert-Schmidt gap of the raw kernels over the coupled pair measure:
    the L^2(G x G) norm of (d_A^2 - d_B^2) / 2."""
    G = coupling.G
    if G.shape != (A.n, B.n):
        raise MarginalMismatch(f"coupling shape {G.shape} does not match ({A.n}, {B.n})")
    assign = _deterministic_assignment(coupling)
    if assign is not None:
        r = coupling.row_marginal
        diff = 0.5 * (A.D**2 - B.D[np.ix_(assign, assign)] ** 2)
        return float(np.sqrt(max(float(r @ diff**2 @ r), 0.0)))
    r = coupling.row_marginal
    c = coupling.col_marginal
    DA2, DB2 = A.D**2, B.D**2
    total = (
        float(r @ DA2**2 @ r)
        - 2.0 * float(np.sum((G.T @ DA2 @ G) * DB2))
        + float(c @ DB2**2 @ c)
    )
    return 0.5 * math.sqrt(max(total, 0.0))


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

    def require(self) -> "BoundReport":
        if not self.ok:
            raise BoundViolated(f"{self.name}: lhs={self.lhs!r} > rhs={self.rhs!r}")
        return self


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
    diagonal_only: bool


def procrustes(Xpts: np.ndarray, Ypts: np.ndarray, weights: Optional[np.ndarray] = None,
               diagonal_only: bool = False) -> AlignmentResult:
    """Minimize sum_i w_i ||X_i - Q Y_i||^2 over the full orthogonal group
    (reflections included), via the polar factor of the weighted
    cross-covariance.

    With ``diagonal_only`` the minimization runs over diagonal sign matrices
    instead; the objective separates over coordinates, so the optimum is the
    per-coordinate sign of the weighted correlation (equivalent to searching
    all 2^m sign patterns).
    """
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
    if diagonal_only:
        signs = np.sign(np.sum(w[:, None] * X * Y, axis=0))
        signs[signs == 0.0] = 1.0
        Q = np.diag(signs)
    else:
        C = (X * w[:, None]).T @ Y
        Umat, _, Vt = np.linalg.svd(C)
        Q = Umat @ Vt
    resid = math.sqrt(max(float(np.sum(w[:, None] * (X - Y @ Q.T) ** 2)), 0.0))
    return AlignmentResult(Q=Q, residual=resid, diagonal_only=diagonal_only)


# ---------------------------------------------------------------------------
# Eigenvalue perturbation (matching and projector bounds)


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """Sorted-order eigenvalue matching against the Hilbert-Schmidt norm of
    the perturbation, plus an optional spectral projector comparison."""

    sup_gap: float
    l2_gap: float
    hs_norm: float
    matching_ok: bool
    projector_gap: Optional[float] = None
    projector_bound: Optional[float] = None
    projector_ok: Optional[bool] = None
    projector_dims_match: Optional[bool] = None


def eigen_perturbation_check(S1: np.ndarray, S2: np.ndarray,
                             projector_index: Optional[int] = None) -> PerturbationReport:
    """Verify eigenvalue stability of symmetric matrices under perturbation.

    Descending-sorted eigenvalues are matched in order; the sup matching gap
    never exceeds the Hilbert-Schmidt (Frobenius) norm of S1 - S2. If
    ``projector_index`` selects an isolated eigenvalue of S1 with isolation
    radius r and the perturbation is at most r/2, the spectral projectors of
    the matched groups satisfy ||P1 - P2||_HS <= (2/r) ||S1 - S2||_HS and
    their ranks agree; both facts are reported, not raised.
    """
    S1 = np.asarray(S1, dtype=float)
    S2 = np.asarray(S2, dtype=float)
    if S1.shape != S2.shape or S1.ndim != 2 or S1.shape[0] != S1.shape[1]:
        raise DimensionMismatch(f"need equal square matrices, got {S1.shape}, {S2.shape}")
    vals1, vecs1 = np.linalg.eigh(S1)
    vals2, vecs2 = np.linalg.eigh(S2)
    vals1, vecs1 = vals1[::-1], vecs1[:, ::-1]
    vals2, vecs2 = vals2[::-1], vecs2[:, ::-1]
    hs = float(np.linalg.norm(S1 - S2))
    gaps = np.abs(vals1 - vals2)
    sup_gap = float(gaps.max())
    l2_gap = float(np.sqrt(np.sum(gaps**2)))
    report = dict(sup_gap=sup_gap, l2_gap=l2_gap, hs_norm=hs, matching_ok=sup_gap <= hs)
    if projector_index is not None:
        k = projector_index
        lam_k = vals1[k]
        others = np.delete(vals1, np.flatnonzero(vals1 == lam_k))
        if others.size == 0:
            raise ValueError("projector check needs a second distinct eigenvalue")
        r = 0.5 * float(np.min(np.abs(others - lam_k)))
        if hs <= r / 2.0:
            sel1 = vals1 == lam_k
            sel2 = np.abs(vals2 - lam_k) <= r
            P1 = vecs1[:, sel1] @ vecs1[:, sel1].T
            P2 = vecs2[:, sel2] @ vecs2[:, sel2].T
            pgap = float(np.linalg.norm(P1 - P2))
            report.update(
                projector_gap=pgap,
                projector_bound=2.0 * hs / r,
                projector_ok=pgap <= 2.0 * hs / r,
                projector_dims_match=int(sel1.sum()) == int(sel2.sum()),
            )
    return PerturbationReport(**report)


def pullback_operator(fine: FiniteSpace, coarse: FiniteSpace,
                      assign: Sequence[int]) -> CenteredOperator:
    """Centered operator of the coarse space pulled back to the fine index
    set through a point map: the kernel at (i, j) is the coarse kernel at
    (assign[i], assign[j]) and the centering uses the fine weights. Shares
    the coarse nonzero spectrum when the map pushes the weights forward.
    The pulled-back distance is a pseudometric because the coarse one is a
    metric, so only the O(n^2) checks run."""
    assign = np.asarray(assign, dtype=int)
    D_pull = coarse.D[np.ix_(assign, assign)]
    return double_center(_metric_space(D_pull, fine.w))


# ---------------------------------------------------------------------------
# Convergence experiment on circle (and torus) grids


def circle_limit_map(thetas: np.ndarray, m: int) -> np.ndarray:
    """Limit embedding of the circle at the given angles, first m coordinates:
    pairs (sqrt(lam_k) sqrt(2) cos(k theta), sqrt(lam_k) sqrt(2) sin(k theta))
    over odd degrees k, with lam_k taken from the quadrature evaluator."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros((thetas.size, m))
    col = 0
    k = 1
    while col < m:
        lam = eigenvalue_quadrature(1, k, "full")
        root = math.sqrt(lam) * math.sqrt(2.0)
        out[:, col] = root * np.cos(k * thetas)
        col += 1
        if col < m:
            out[:, col] = root * np.sin(k * thetas)
            col += 1
        k += 2
    return out


def _image_space(points: np.ndarray, w: np.ndarray) -> FiniteSpace:
    """Euclidean distances between embedded points: a metric by construction."""
    sq = np.sum(points**2, axis=1)
    dist_sq = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    D = np.sqrt(dist_sq)
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return _metric_space(D, w)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    aligned_l2: float
    gw2_images: float
    w4: float
    hs_lhs: float
    hs_rhs: float


def _circle_row(n: int, m: int, refine: int) -> ConvergenceRow:
    space = sample(Sphere(1), SampleSpec(mode="grid", n=n))
    result = eigendecompose(double_center(space))
    E = embed(result, m)
    thetas = TWO_PI * np.arange(n) / n
    L = circle_limit_map(thetas, m)
    aligned = procrustes(L, E, space.w).residual

    image_fin = _image_space(E, space.w)
    image_lim = _image_space(L, space.w)
    gw2 = gw_cost(coupling_identity(image_fin), image_fin, image_lim, 2)

    fine_n = refine * n
    fine = sample(Sphere(1), SampleSpec(mode="grid", n=fine_n))
    assign = nearest_grid_assignment(fine_n, n)
    coup = coupling_nearest(fine, space, assign)
    fine_thetas = TWO_PI * np.arange(fine_n) / fine_n
    disp = np.abs(fine_thetas - thetas[assign])
    disp = np.minimum(disp, TWO_PI - disp)
    w4_map = float(np.sum(fine.w * disp**4) ** 0.25)
    bound = check_transport_bound(fine, space, coup, w4_map)
    return ConvergenceRow(
        n=n,
        aligned_l2=aligned,
        gw2_images=gw2,
        w4=w4_circle_grid(n),
        hs_lhs=bound.lhs,
        hs_rhs=bound.rhs,
    )


def _empirical_rows(space, sizes: Sequence[int], m: int) -> list[ConvergenceRow]:
    """No analytic reference: align each grid embedding to the finest one,
    restricted along the grid refinement. Reference-only columns are NaN."""
    sizes = sorted(sizes)
    finest = sizes[-1]
    for n in sizes:
        if finest % n:
            raise UnsupportedSpace("empirical reference needs nested grid sizes")
    fin_space = sample(space, SampleSpec(mode="grid", n=finest))
    fin_res = eigendecompose(double_center(fin_space))
    fin_E = embed(fin_res, m)
    k = space.k if isinstance(space, Torus) else 1
    rows = []
    for n in sizes:
        fs = sample(space, SampleSpec(mode="grid", n=n))
        E = embed(eigendecompose(double_center(fs)), m)
        step = finest // n
        axis = step * np.arange(n)
        flat = axis.copy()
        for _ in range(k - 1):
            flat = (flat[:, None] * finest + axis[None, :]).ravel()
        ref = fin_E[flat]
        aligned = procrustes(ref, E, fs.w).residual
        image_fin = _image_space(E, fs.w)
        image_ref = _image_space(ref, fs.w)
        gw2 = gw_cost(coupling_identity(image_fin), image_fin, image_ref, 2)
        rows.append(ConvergenceRow(n=n, aligned_l2=aligned, gw2_images=gw2,
                                   w4=math.nan, hs_lhs=math.nan, hs_rhs=math.nan))
    return rows


def convergence_experiment(space, sizes: Sequence[int], m: int,
                           refine: int = 4) -> list[ConvergenceRow]:
    """Grid-size sweep of the finite embedding against its limit.

    For the circle each row reports the orthogonally aligned L^2(mu_n)
    discrepancy to the analytic limit map, an order-2 distortion upper bound
    between the images under the grid coupling, the exact order-4 transport
    distance to the uniform measure, and one kernel-gap bound instance
    against a ``refine`` times finer grid. Other grid spaces report
    empirical-only columns (alignment against the finest grid embedding).
    """
    if isinstance(space, Sphere) and space.d == 1:
        return [_circle_row(int(n), m, refine) for n in sorted(sizes)]
    if isinstance(space, Torus):
        return _empirical_rows(space, sizes, m)
    raise UnsupportedSpace(f"no grid convergence reference for {space!r}")
