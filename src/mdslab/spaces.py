"""Metric measure spaces at desk scale.

Two representations live here: ``FiniteSpace`` (an explicit n-point distance
matrix with probability weights) and a small family of analytic spaces
(spheres with geodesic distance, snowflake transforms d -> d**alpha, flat
tori), each metric written once, in the sampler that draws it down to a
``FiniteSpace``: ``sample(space, mode, n, seed)``, on a grid or by seeded
uniform draws. Products of finite spaces are built in ``products``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi

WEIGHT_SUM_TOL = 1e-12


class SpaceValidationError(ValueError):
    """A metric measure space failed validation."""


class AsymmetricMatrix(SpaceValidationError):
    pass


class NegativeDistance(SpaceValidationError):
    pass


class NonzeroDiagonal(SpaceValidationError):
    pass


class NonFiniteValue(SpaceValidationError):
    """A distance or weight is NaN or infinite."""


class TriangleViolation(SpaceValidationError):
    pass


class BadWeights(SpaceValidationError):
    pass


class GridUnsupported(SpaceValidationError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """n-point metric measure space: distances ``D`` and probability weights ``w``.

    Instances are validated and immutable. Input from outside the library
    goes through :func:`finite_space_from_matrix` (or :func:`read_space_csv`),
    which checks the triangle inequality exactly, ``D[i,j] <= D[i,k] + D[k,j]``
    within tolerance for every triple, in its l-infinity form: no two rows of
    ``D`` differ by more than their distance. Spaces the library builds as
    metrics by construction (:func:`sample`, products, Euclidean images) get
    the O(n^2) checks only.
    """

    D: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.D.max()) if self.n else 0.0


def _metric_space(D: np.ndarray, w: np.ndarray) -> FiniteSpace:
    """``FiniteSpace`` from arrays after the O(n^2) checks only: shape,
    finiteness, symmetry, zero diagonal, nonnegativity and weights.

    For spaces that are metrics by construction; the triangle inequality is
    not checked. The arrays are frozen in place, not copied.
    """
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise AsymmetricMatrix(f"distance matrix must be square, got shape {D.shape}")
    n = D.shape[0]
    if w.shape != (n,):
        raise BadWeights(f"weight vector has length {w.shape}, expected ({n},)")
    if not np.isfinite(D).all():
        i, j = np.argwhere(~np.isfinite(D))[0]
        raise NonFiniteValue(f"D[{i},{j}]={float(D[i, j])!r} is not finite")
    if not np.isfinite(w).all():
        (i,) = np.argwhere(~np.isfinite(w))[0]
        raise NonFiniteValue(f"w[{i}]={float(w[i])!r} is not finite")
    if not np.array_equal(D, D.T):
        i, j = np.argwhere(D != D.T)[0]
        raise AsymmetricMatrix(
            f"D[{i},{j}]={float(D[i, j])!r} != D[{j},{i}]={float(D[j, i])!r}"
        )
    diag = np.abs(np.diagonal(D))
    if diag.max() > 0.0:
        i = int(np.argmax(diag))
        raise NonzeroDiagonal(f"D[{i},{i}]={float(D[i, i])!r} must be 0")
    if D.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(D)), D.shape)
        raise NegativeDistance(f"D[{i},{j}]={float(D[i, j])!r} is negative")
    if w.min() < 0.0:
        i = int(np.argmin(w))
        raise BadWeights(f"w[{i}]={float(w[i])!r} is negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeights(f"weights sum to {float(w.sum())!r}, expected 1 within {WEIGHT_SUM_TOL}")

    D.setflags(write=False)
    w.setflags(write=False)
    return FiniteSpace(D=D, w=w)


def _check_triangle(D: np.ndarray, tol: float) -> None:
    """Exact triangle check: every triple must satisfy
    ``D[i,j] <= D[i,k] + D[k,j] + tol``.

    Read as points of l-infinity (the Frechet-Kuratowski embedding), the rows
    of a symmetric ``D`` with zero diagonal pass exactly when no two rows are
    farther apart than ``D`` says: ``max_j |D[i,j] - D[k,j]| <= D[i,k] + tol``
    for every pair i < k. That is one compiled Chebyshev ``pdist`` over the
    condensed upper triangle, O(n^3) work in n(n-1)/2 floats of memory. On a
    violation, the worst pair and its farthest column name a strict triple
    ``D[i,j] > D[i,k] + D[k,j]``.
    """
    n = D.shape[0]
    if n <= 2:
        return
    # Imported here: the import alone costs a few tenths of a second, and
    # only external input pays for the exact check.
    from scipy.spatial.distance import pdist, squareform

    gap = pdist(D, "chebyshev")
    gap -= squareform(D, checks=False)
    worst = int(np.argmax(gap))
    if gap[worst] <= tol:
        return
    i, k = (int(idx[worst]) for idx in np.triu_indices(n, 1))
    j = int(np.argmax(np.abs(D[i] - D[k])))
    if D[k, j] > D[i, j]:
        i, k = k, i
    raise TriangleViolation(
        f"triangle inequality fails for (i={i}, j={j}, k={k}): "
        f"D[{i},{j}]={float(D[i, j])!r} > D[{i},{k}] + D[{k},{j}]={float(D[i, k] + D[k, j])!r}"
    )


def finite_space_from_matrix(
    D: Sequence[Sequence[float]] | np.ndarray,
    w: Sequence[float] | np.ndarray,
) -> FiniteSpace:
    """Validate a distance matrix and weight vector into a ``FiniteSpace``.

    For input from outside the library. Checks finiteness, symmetry, zero
    diagonal, nonnegativity and that the weights form a probability vector,
    then the triangle inequality exactly: every triple within tolerance
    1e-12 * max(1, max D), checked as one Chebyshev distance pass over the
    rows (O(n^3)). Raises a named :class:`SpaceValidationError` subclass
    pointing at the offending indices. The inputs are copied.
    """
    space = _metric_space(np.array(D, dtype=float), np.array(w, dtype=float))
    _check_triangle(space.D, tol=1e-12 * max(1.0, space.diameter))
    return space


# ---------------------------------------------------------------------------
# Analytic spaces


@dataclass(frozen=True)
class Sphere:
    """Unit sphere S^d with geodesic distance arccos(x . y), diameter pi."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class Snowflake:
    """Base space with its distance raised to the power alpha in (0, 1]."""

    base: "AnalyticSpace"
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"snowflake exponent must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class Torus:
    """Flat k-torus: k circle factors under the product metric."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"torus factor count must be >= 1, got {self.k}")


AnalyticSpace = Union[Sphere, Snowflake, Torus]


def _circle_arc(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray | float:
    """Geodesic distance between circle angles ``a`` and ``b``, both in
    [0, 2 pi]: there |a - b| <= 2 pi, so no reduction modulo 2 pi is needed."""
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(delta, TWO_PI - delta)


def _circle_grid(n: int) -> np.ndarray:
    """Angles 2 pi i / n, i < n, of the uniform n-point circle grid."""
    return TWO_PI * np.arange(n) / n


def _pairwise(space: AnalyticSpace, mode: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(space, Sphere):
        if mode == "grid":
            if space.d != 1:
                raise GridUnsupported(f"no canonical grid on sphere({space.d})")
            theta = _circle_grid(n)
            return _circle_arc(theta[:, None], theta[None, :])
        X = rng.standard_normal((n, space.d + 1))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        G = X @ X.T
        G = (G + G.T) / 2.0
        D = np.arccos(G.clip(-1.0, 1.0, out=G))
        np.fill_diagonal(D, 0.0)
        return D
    if isinstance(space, Snowflake):
        return _pairwise(space.base, mode, n, rng) ** space.alpha
    if isinstance(space, Torus):  # product metric: root of the summed squared factor distances
        S = _pairwise(Sphere(1), mode, n, rng) ** 2
        for _ in range(space.k - 1):
            F = _pairwise(Sphere(1), mode, n, rng) ** 2
            S = _kron_sum(S, F) if mode == "grid" else S + F
        return np.sqrt(S)
    raise TypeError(f"unknown analytic space {space!r}")


def _kron_sum(SL: np.ndarray, SR: np.ndarray) -> np.ndarray:
    """Kronecker sum over product points in C order (left-major): entry
    ((a, b), (a', b')) is SL[a, a'] + SR[b, b']."""
    nl, nr = SL.shape[0], SR.shape[0]
    return (SL[:, None, :, None] + SR[None, :, None, :]).reshape(nl * nr, nl * nr)


def _dist_sq_matrix(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``points``, clipped at 0."""
    sq = np.sum(points**2, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)


def sample(space: AnalyticSpace, mode: str, n: int, seed: int = 0) -> FiniteSpace:
    """Sample an analytic space down to a uniformly weighted ``FiniteSpace``.

    ``mode`` is ``"grid"`` or ``"random"``; for tori ``n`` counts points per
    circle factor in grid mode and total points in random mode. Grid mode is
    deterministic (seed-independent): the circle grid sits at angles
    2*pi*i/n and torus grids are Cartesian products of circle grids.
    Random-mode draws are uniform and reproducible from ``seed``; sphere
    draws are normalized standard Gaussian vectors, which makes the law
    exactly rotation invariant.
    """
    if mode not in ("grid", "random"):
        raise ValueError(f"unknown sample mode {mode!r}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    D = _pairwise(space, mode, n, np.random.default_rng(seed))
    m = D.shape[0]
    return _metric_space(D, np.full(m, 1.0 / m))


def fourth_moment_norm(space: FiniteSpace) -> float:
    """L^4(mu x mu) norm of the distance: (sum_ij w_i w_j d_ij^4)^(1/4)."""
    return float((space.w @ (space.D**4) @ space.w) ** 0.25)


# ---------------------------------------------------------------------------
# CSV persistence (17 significant digits, lossless for doubles)

_FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    """One CSV cell of a mixed-type row: floats at ``_FLOAT_FMT``, else ``str``."""
    if isinstance(x, (float, np.floating)):
        return _FLOAT_FMT % x
    return str(x)


def _write_csv(path: str, lines: Sequence[str], blocks: Sequence[np.ndarray]) -> None:
    """The one text writer (UTF-8, LF): ``lines`` verbatim, then the rows of each
    2-D float block, comma-separated at ``_FLOAT_FMT`` (a single row as ``x[None, :]``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
        for block in blocks:
            np.savetxt(fh, block, fmt=_FLOAT_FMT, delimiter=",")


def _read_csv(path: str, head: int) -> tuple[list[str], np.ndarray]:
    """The one array reader, inverse of :func:`_write_csv`: the first ``head`` lines as
    text, the rest as one float matrix. Blank lines, cell padding and CRLF are ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) <= head:
        raise SpaceValidationError(f"{path!r} has {len(lines)} non-blank lines, need over {head}")
    return lines[:head], np.loadtxt(lines[head:], delimiter=",", comments=None, ndmin=2)


def write_space_csv(space: FiniteSpace, path: str) -> None:
    _write_csv(path, [f"n,{space.n}"], [space.D, space.w[None, :]])


def read_space_csv(path: str) -> FiniteSpace:
    (header,), rows = _read_csv(path, 1)
    head = header.split(",")
    if len(head) != 2 or head[0] != "n":
        raise SpaceValidationError(f"bad header line {header!r}, expected 'n,<count>'")
    n = int(head[1])
    if rows.shape[0] != n + 1:
        raise SpaceValidationError(f"expected {n + 2} lines, found {rows.shape[0] + 1}")
    return finite_space_from_matrix(rows[:n], rows[n])
