"""Metric measure spaces at desk scale.

Two representations live here: ``FiniteSpace`` (an explicit n-point distance
matrix with probability weights) and a small family of analytic spaces
(spheres with geodesic distance, snowflake transforms d -> d**alpha, metric
products, flat tori) that can be measured pointwise or sampled down to a
``FiniteSpace``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi

WEIGHT_SUM_TOL = 1e-12
UNIT_NORM_TOL = 1e-10


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


class PointOffManifold(SpaceValidationError):
    pass


class GridUnsupported(SpaceValidationError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """n-point metric measure space: distances ``D`` and probability weights ``w``.

    Instances are validated and immutable. Input from outside the library
    goes through :func:`finite_space_from_matrix` (or :func:`read_space_csv`),
    which checks the triangle inequality exactly; spaces the library builds
    as metrics by construction (:func:`sample`, products, Euclidean images,
    pullbacks) get the O(n^2) checks only.
    """

    D: np.ndarray
    w: np.ndarray
    labels: Optional[tuple[str, ...]] = None

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
        raise NonFiniteValue(f"D[{i},{j}]={D[i, j]!r} is not finite")
    if not np.isfinite(w).all():
        (i,) = np.argwhere(~np.isfinite(w))[0]
        raise NonFiniteValue(f"w[{i}]={w[i]!r} is not finite")
    if not np.array_equal(D, D.T):
        i, j = np.argwhere(D != D.T)[0]
        raise AsymmetricMatrix(
            f"D[{i},{j}]={D[i, j]!r} != D[{j},{i}]={D[j, i]!r}"
        )
    diag = np.abs(np.diagonal(D))
    if diag.max() > 0.0:
        i = int(np.argmax(diag))
        raise NonzeroDiagonal(f"D[{i},{i}]={D[i, i]!r} must be 0")
    if D.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(D)), D.shape)
        raise NegativeDistance(f"D[{i},{j}]={D[i, j]!r} is negative")
    if w.min() < 0.0:
        i = int(np.argmin(w))
        raise BadWeights(f"w[{i}]={w[i]!r} is negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeights(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_SUM_TOL}")

    D.setflags(write=False)
    w.setflags(write=False)
    return FiniteSpace(D=D, w=w)


def _check_triangle(D: np.ndarray, tol: float) -> None:
    """Exact triangle check: ``D`` must equal its shortest-path closure
    within ``tol``.

    The closure comes from Floyd-Warshall in ``scipy.sparse.csgraph``. The
    graph is built with ``null_value=inf`` so that off-diagonal zeros
    (pseudometric points) stay edges of length 0; a dense input would drop
    them. On a violation, the row with the largest gap always holds a strict
    two-step violation ``D[i,j] > D[i,k] + D[k,j]``, which the error names.
    """
    # Imported here: the import alone costs a few tenths of a second, and
    # only external input pays for the exact check.
    from scipy.sparse.csgraph import csgraph_from_dense, shortest_path

    closure = shortest_path(csgraph_from_dense(D, null_value=np.inf), method="FW")
    gap = D - closure
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    if gap[worst] <= tol:
        return
    i = int(worst[0])
    two_step = D[i, :, None] + D  # [k, j] -> D[i,k] + D[k,j]
    j = int(np.argmax(D[i] - two_step.min(axis=0)))
    k = int(np.argmin(two_step[:, j]))
    raise TriangleViolation(
        f"triangle inequality fails for (i={i}, j={j}, k={k}): "
        f"D[{i},{j}]={D[i, j]!r} > D[{i},{k}] + D[{k},{j}]={D[i, k] + D[k, j]!r}"
    )


def finite_space_from_matrix(
    D: Sequence[Sequence[float]] | np.ndarray,
    w: Sequence[float] | np.ndarray,
    labels: Optional[Sequence[str]] = None,
) -> FiniteSpace:
    """Validate a distance matrix and weight vector into a ``FiniteSpace``.

    For input from outside the library. Checks finiteness, symmetry, zero
    diagonal, nonnegativity and that the weights form a probability vector,
    then the triangle inequality exactly (shortest-path closure, O(n^3)),
    with tolerance 1e-12 * max(1, max D). Raises a named
    :class:`SpaceValidationError` subclass pointing at the offending indices.
    The inputs are copied.
    """
    space = _metric_space(np.array(D, dtype=float), np.array(w, dtype=float))
    _check_triangle(space.D, tol=1e-12 * max(1.0, space.diameter))
    if labels is not None:
        space = FiniteSpace(D=space.D, w=space.w, labels=tuple(labels))
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
class ProductSpace:
    """Metric product: distance is the root of the sum of squared factor distances."""

    left: "AnalyticSpace"
    right: "AnalyticSpace"


@dataclass(frozen=True)
class Torus:
    """Flat k-torus: k circle factors under the product metric."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"torus factor count must be >= 1, got {self.k}")


AnalyticSpace = Union[Sphere, Snowflake, ProductSpace, Torus]


def _circle_arc(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray | float:
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return np.minimum(delta, TWO_PI - delta)


def _sphere_point(space: Sphere, x: Sequence[float]) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (space.d + 1,):
        raise PointOffManifold(
            f"sphere({space.d}) points live in R^{space.d + 1}, got shape {v.shape}"
        )
    if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
        raise PointOffManifold(f"point has norm {np.linalg.norm(v)!r}, expected 1")
    return v


def distance(space: AnalyticSpace, x, y) -> float:
    """Distance between two points of an analytic space.

    Point formats: sphere(d) takes unit vectors in R^{d+1}; snowflake takes
    base-space points; product takes (left, right) pairs; torus(k) takes
    length-k angle vectors.
    """
    if isinstance(space, Sphere):
        xv = _sphere_point(space, x)
        yv = _sphere_point(space, y)
        if np.array_equal(xv, yv):
            return 0.0
        return float(np.arccos(np.clip(np.dot(xv, yv), -1.0, 1.0)))
    if isinstance(space, Snowflake):
        return distance(space.base, x, y) ** space.alpha
    if isinstance(space, ProductSpace):
        dl = distance(space.left, x[0], y[0])
        dr = distance(space.right, x[1], y[1])
        return float(math.hypot(dl, dr))
    if isinstance(space, Torus):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.shape != (space.k,) or ya.shape != (space.k,):
            raise PointOffManifold(f"torus({space.k}) points are length-{space.k} angle vectors")
        arcs = _circle_arc(xa, ya)
        return float(np.sqrt(np.sum(arcs**2)))
    raise TypeError(f"unknown analytic space {space!r}")


@dataclass(frozen=True)
class SampleSpec:
    """How to draw a finite sample: deterministic grid or seeded uniform draws.

    For products and tori, ``n`` counts points per factor in grid mode and
    total points in uniform_random mode.
    """

    mode: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("grid", "uniform_random"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")


def _pairwise(space: AnalyticSpace, mode: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(space, Sphere):
        if mode == "grid":
            if space.d != 1:
                raise GridUnsupported(f"no canonical grid on sphere({space.d})")
            theta = TWO_PI * np.arange(n) / n
            D = _circle_arc(theta[:, None], theta[None, :])
            np.fill_diagonal(D, 0.0)
            return D
        X = rng.standard_normal((n, space.d + 1))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        G = X @ X.T
        G = (G + G.T) / 2.0
        D = np.arccos(np.clip(G, -1.0, 1.0))
        np.fill_diagonal(D, 0.0)
        return D
    if isinstance(space, Snowflake):
        return _pairwise(space.base, mode, n, rng) ** space.alpha
    if isinstance(space, ProductSpace):
        DL = _pairwise(space.left, mode, n, rng)
        DR = _pairwise(space.right, mode, n, rng)
        return _combine(DL, DR, grid=(mode == "grid"))
    if isinstance(space, Torus):
        theta_shape_circle = Sphere(1)
        D = _pairwise(theta_shape_circle, mode, n, rng)
        for _ in range(space.k - 1):
            Df = _pairwise(theta_shape_circle, mode, n, rng)
            D = _combine(D, Df, grid=(mode == "grid"))
        return D
    raise TypeError(f"unknown analytic space {space!r}")


def _combine(DL: np.ndarray, DR: np.ndarray, grid: bool) -> np.ndarray:
    if grid:
        nl, nr = DL.shape[0], DR.shape[0]
        sq = (DL**2)[:, None, :, None] + (DR**2)[None, :, None, :]
        return np.sqrt(sq.reshape(nl * nr, nl * nr))
    return np.sqrt(DL**2 + DR**2)


def sample(space: AnalyticSpace, spec: SampleSpec) -> FiniteSpace:
    """Sample an analytic space down to a uniformly weighted ``FiniteSpace``.

    Grid mode is deterministic (seed-independent): the circle grid sits at
    angles 2*pi*i/n and product grids are Cartesian products of factor grids.
    uniform_random draws are reproducible from the seed; sphere draws are
    normalized standard Gaussian vectors, which makes the law exactly
    rotation invariant.
    """
    rng = np.random.default_rng(spec.seed)
    D = _pairwise(space, spec.mode, spec.n, rng)
    m = D.shape[0]
    return _metric_space(D, np.full(m, 1.0 / m))


def fourth_moment_norm(space: FiniteSpace) -> float:
    """L^4(mu x mu) norm of the distance: (sum_ij w_i w_j d_ij^4)^(1/4)."""
    return float((space.w @ (space.D**4) @ space.w) ** 0.25)


# ---------------------------------------------------------------------------
# CSV persistence (17 significant digits, lossless for doubles)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_space_csv(space: FiniteSpace, path: str) -> None:
    lines = [f"n,{space.n}"]
    for row in space.D:
        lines.append(",".join(_fmt(v) for v in row))
    lines.append(",".join(_fmt(v) for v in space.w))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_space_csv(path: str) -> FiniteSpace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].split(",")
    if len(head) != 2 or head[0] != "n":
        raise SpaceValidationError(f"bad header line {lines[0]!r}, expected 'n,<count>'")
    n = int(head[1])
    if len(lines) != n + 2:
        raise SpaceValidationError(f"expected {n + 2} lines, found {len(lines)}")
    D = np.array([[float(v) for v in lines[1 + i].split(",")] for i in range(n)])
    w = np.array([float(v) for v in lines[1 + n].split(",")])
    return finite_space_from_matrix(D, w)
