"""Shared fixtures: small exactly-solvable spaces, random metric generators
and test oracles."""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from mdslab.mds_core import EmbeddingResult, double_center, eigendecompose
from mdslab.spaces import TWO_PI, FiniteSpace, finite_space_from_matrix
from mdslab.sphere_spectral import _series_log_term, _zonal_values
from mdslab.stability import Coupling, make_coupling


def equilateral_triangle(side: float = 1.0) -> FiniteSpace:
    D = side * (np.ones((3, 3)) - np.eye(3))
    return finite_space_from_matrix(D, np.full(3, 1.0 / 3.0))


def four_cycle() -> FiniteSpace:
    """Graph metric of the 4-cycle: neighbors at 1, opposite corners at 2."""
    D = np.array(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float
    )
    return finite_space_from_matrix(D, np.full(4, 0.25))


def two_points(gap: float = 1.0) -> FiniteSpace:
    return finite_space_from_matrix([[0.0, gap], [gap, 0.0]], [0.5, 0.5])


def shortest_path_completion(raw: np.ndarray) -> np.ndarray:
    """Floyd-Warshall closure of a symmetric nonnegative matrix with zero
    diagonal; the result satisfies the triangle inequality by construction."""
    D = raw.copy()
    n = D.shape[0]
    for k in range(n):
        np.minimum(D, D[:, k][:, None] + D[k, :][None, :], out=D)
    return D


def random_metric_space(rng: np.random.Generator, n: int, uniform: bool = True) -> FiniteSpace:
    raw = rng.uniform(0.2, 3.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    D = shortest_path_completion(raw)
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.5, 1.5, size=n)
        w /= w.sum()
    return finite_space_from_matrix(D, w)


def spectral_embedding(space: FiniteSpace) -> EmbeddingResult:
    return eigendecompose(double_center(space))


def coupling_identity(A: FiniteSpace) -> Coupling:
    """Diagonal coupling of a space with itself."""
    return make_coupling(np.diag(A.w), A, A)


def coupling_product(A: FiniteSpace, B: FiniteSpace) -> Coupling:
    """Independent coupling w_i * w_j."""
    return make_coupling(np.outer(A.w, B.w), A, B)


def gw_bruteforce(A: FiniteSpace, B: FiniteSpace, p: int) -> float:
    """Minimum order-p distortion over all permutation couplings of two
    equal-size uniform spaces (n <= 8, n! work).

    Still only an upper bound on the order-p Gromov-Kantorovich distance:
    optima of the quadratic objective need not be permutations.
    """
    n = A.n
    assert B.n == n <= 8, f"need equal sizes n <= 8, got {A.n} and {B.n}"
    assert np.allclose(A.w, 1.0 / n) and np.allclose(B.w, 1.0 / n), "need uniform weights"
    best = math.inf
    for perm in itertools.permutations(range(n)):
        idx = np.array(perm)
        best = min(best, float(np.sum(np.abs(A.D - B.D[np.ix_(idx, idx)]) ** p)) / (n * n))
    return best ** (1.0 / p)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def w4_circle_grid_numeric(n: int, cells: int = 10_000) -> float:
    """Discretized transport oracle for ``stability.w4_circle_grid``: midpoint
    rule over the monotone rearrangement that sends each arc cell to its
    nearest grid point."""
    t = (np.arange(cells) + 0.5) * TWO_PI / cells
    step = TWO_PI / n
    disp = np.abs(((t + step / 2.0) % step) - step / 2.0)
    return float(np.mean(disp**4) ** 0.25)


class PerturbationReport(NamedTuple):
    sup_gap: float
    hs_norm: float


def eigen_perturbation_check(S1: np.ndarray, S2: np.ndarray) -> PerturbationReport:
    """Sorted eigenvalues of two symmetric matrices matched in order: the largest
    matching gap, which never exceeds the Frobenius norm of S1 - S2, and that norm."""
    return PerturbationReport(
        sup_gap=float(np.max(np.abs(np.linalg.eigvalsh(S1) - np.linalg.eigvalsh(S2)))),
        hs_norm=float(np.linalg.norm(S1 - S2)),
    )


class SignedLog(NamedTuple):
    """A real number as sign * exp(log_abs); sign 0 means zero."""

    sign: int
    log_abs: float


def coeff(kind: str, n: int) -> SignedLog:
    """Taylor coefficient of the zonal kernel in powers of the cosine.

    kind "full" gives the coefficients a_n of -arccos(t)^2 / 2:
    a_0 = -pi^2/8, a_{2j+1} = pi (2j)! / ((2j+1) 2^{2j+1} (j!)^2) > 0,
    a_{2j+2} = -4^j (j!)^2 / (2 (j+1) (2j+1) (2j)!) < 0. kind "snowflake"
    gives the coefficients b_n of -arccos(t) / 2: b_0 = -pi/4,
    b_{2j+1} = a_{2j+1}/pi, and b_n = 0 for even n >= 2. Formed in log space,
    so large n do not overflow.
    """
    if kind not in ("full", "snowflake"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    ln2, lnpi = math.log(2.0), math.log(math.pi)
    if n == 0:
        return SignedLog(-1, 2.0 * lnpi - math.log(8.0) if kind == "full"
                         else lnpi - math.log(4.0))
    if n % 2 == 1:
        j = (n - 1) // 2
        log_b = (math.lgamma(2 * j + 1) - math.log(2 * j + 1) - (2 * j + 1) * ln2
                 - 2.0 * math.lgamma(j + 1))
        return SignedLog(1, lnpi + log_b if kind == "full" else log_b)
    if kind == "snowflake":
        return SignedLog(0, -math.inf)
    j = (n - 2) // 2
    return SignedLog(-1, 2 * j * ln2 + 2.0 * math.lgamma(j + 1) - ln2 - math.log(j + 1)
                     - math.log(2 * j + 1) - math.lgamma(2 * j + 1))


def zonal_value(d: int, j: int, t: np.ndarray) -> np.ndarray:
    """Normalized zonal function G_j of S^d (1 at t = 1) at cosine values t in
    [-1, 1], by the recurrence of ``sphere_spectral._zonal_values``."""
    for g in _zonal_values(d, j, np.asarray(t, dtype=float)):
        pass  # keeps only the latest degree alive
    return g


def theta(d: int, n: int, s: float) -> SignedLog:
    """The series summand theta_j(s) of ``sphere_spectral._series_log_term`` at
    odd degree j = 2n + 1, (sqrt(pi)/8) Gamma(s+n+1/2)^2 / (s! Gamma(s+2n+(d+3)/2));
    always positive."""
    return SignedLog(1, float(_series_log_term(d, 2 * n + 1)(np.array([float(s)]))[0]))


def s_peak(d: int, n: int) -> int:
    """Peak location of theta_{2n+1}: ceil((2n-1)^2 / (2(d+3)) - 1), clamped at 0.

    The term ratio theta_{2n+1}(s+1) / theta_{2n+1}(s) =
    (s+n+1/2)^2 / ((s+1)(s+2n+(d+3)/2)) crosses 1 exactly at
    s* = (2n-1)^2/(2(d+3)) - 1, so the summand increases up to the ceiling
    and decreases after.
    """
    return max(0, ((2 * n - 1) ** 2 - 1) // (2 * (d + 3)))
