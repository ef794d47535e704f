"""Finite weighted MDS pipeline.

Double centering of the squared-distance kernel, a deterministic symmetric
eigendecomposition, the spectral embedding maps (positive part, negative
part), and the exact squared-distance reconstruction identity

    sum_j lambda_j (u_j(x_i) - u_j(x_k))^2 = d(x_i, x_k)^2,

which holds over the full signed spectrum for every finite space.

Conventions. The operator is represented in the symmetrized basis
S = W^{1/2} K_T W^{1/2} with W = diag(w), so that unit eigenvectors v of S
correspond to eigenfunctions u = v / sqrt(w) normalized in L^2(mu_n). With
uniform weights, S coincides with the classical double-centered matrix
P K P / n, and u = sqrt(n) v.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import BadWeights, FiniteSpace, _circle_arc, _circle_grid, _write_csv


class NoConvergence(RuntimeError):
    """The centered kernel overflowed, or the symmetric eigensolver failed to converge."""


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CenteredOperator:
    """Centered kernel operator of a finite space.

    ``S`` is the symmetrized centered operator W^{1/2} K_T W^{1/2} of the
    raw kernel K = -D*D/2. The vector sqrt(w) spans the structural null
    direction of S (constants are killed by centering).
    """

    S: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.S.shape[0]


def double_center(space: FiniteSpace) -> CenteredOperator:
    """Weighted double centering of the kernel K = -D*D/2.

    K_T subtracts weighted row and column averages and adds back the grand
    average; S = W^{1/2} K_T W^{1/2} is symmetric and shares the spectrum of
    the centered operator on L^2(mu_n). The steps run in place on one
    n x n array, in the order of the plain expression, so the bits match it.
    A kernel past the float range (distances above about 1.3e154) raises
    :class:`NoConvergence` naming the largest distance.
    """
    w = space.w
    with np.errstate(over="ignore", invalid="ignore"):
        K = space.D**2
        K *= -0.5
        r = K @ w
        g = float(w @ r)
        K -= r[:, None]
        K -= r[None, :]
        K += g
        sq = np.sqrt(w)
        K *= sq[:, None]
        K *= sq[None, :]
        S = K + K.T
        S /= 2.0
    if not np.isfinite(S).all():
        i, j = np.unravel_index(int(np.argmax(space.D)), space.D.shape)
        raise NoConvergence(f"the kernel overflows: squared distance D[{i},{j}]^2 with "
                            f"D[{i},{j}]={float(space.D[i, j])!r} is past the float range")
    S.setflags(write=False)
    return CenteredOperator(S=S, w=w)


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Full signed spectrum and eigenfunction table of a centered operator.

    ``eigenvalues`` are sorted descending with near-zero values clamped to 0;
    column j of ``U`` holds the eigenfunction u_j at the sample points,
    normalized so that sum_i w_i u_j(x_i)^2 = 1.
    """

    eigenvalues: np.ndarray
    U: np.ndarray
    positive_count: int
    negative_count: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column whose first largest-magnitude entry is negative."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0.0, -1.0, 1.0)


def eigendecompose(op: CenteredOperator) -> EmbeddingResult:
    """Full deterministic spectral decomposition of the centered operator.

    Eigenvalues are sorted descending; each eigenvector sign is fixed so its
    first largest-magnitude component is positive; eigenvalues below
    n * eps * ||S|| in magnitude are clamped to zero (this separates the
    structural constant-direction null space from round-off). Eigenfunction
    values are recovered as u_j(x_i) = v_j[i] / sqrt(w_i). Columns inside a
    block of exactly equal eigenvalues keep ``eigh``'s order: any orthonormal
    basis of the block is as valid.
    """
    if op.w.min() <= 0.0:
        i = int(np.argmin(op.w))
        raise BadWeights(
            f"w[{i}]={float(op.w[i])!r}: eigenfunction recovery needs strictly positive weights"
        )
    try:
        vals, vecs = np.linalg.eigh(op.S)
    except np.linalg.LinAlgError as exc:
        absS = float(np.abs(op.S).max())
        raise NoConvergence(
            f"eigensolver did not converge on n={op.n} matrix, max|S|={absS!r}"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]

    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    clamp = op.n * np.finfo(float).eps * scale
    vals = np.where(np.abs(vals) <= clamp, 0.0, vals)

    vecs = _fix_signs(vecs)

    U = vecs / np.sqrt(op.w)[:, None]
    pos = int(np.sum(vals > 0.0))
    neg = int(np.sum(vals < 0.0))
    vals.setflags(write=False)
    U.setflags(write=False)
    return EmbeddingResult(eigenvalues=vals, U=U, positive_count=pos, negative_count=neg)


def embed(result: EmbeddingResult, m: int) -> np.ndarray:
    """m-dimensional embedding: point i maps to (sqrt(lambda_j) u_j(x_i))_{j<=m}
    over the m largest positive eigenvalues, padding with zeros past the
    positive rank."""
    if m < 1:
        raise DimensionMismatch(f"embedding dimension must be >= 1, got {m}")
    k = min(m, result.positive_count)
    out = np.zeros((result.n, m))
    if k:
        out[:, :k] = result.U[:, :k] * np.sqrt(result.eigenvalues[:k])
    return out


def circle_grid_embedding(n: int, m: int) -> np.ndarray:
    """``embed(eigendecompose(double_center(...)), m)`` of the uniform n-point
    circle grid, up to a rotation inside each degenerate pair, with no n x n
    matrix: the centered kernel is circulant, so the real DFT of the kernel
    row -d(0, theta_j)^2 / 2 gives lam_k, clamped as ``eigendecompose``
    clamps. Each positive 0 < k < n/2 gives the columns sqrt(2 lam_k)
    (cos k theta, sin k theta), and k = n/2 the column sqrt(lam_k) cos(pi j),
    largest lam_k first (stable in k)."""
    if m < 1:
        raise DimensionMismatch(f"embedding dimension must be >= 1, got {m}")
    grid = _circle_grid(n)
    lam = np.fft.rfft(-0.5 * _circle_arc(0.0, grid) ** 2).real / n
    lam[0] = 0.0
    lam[np.abs(lam) <= n * np.finfo(float).eps * np.abs(lam).max()] = 0.0
    ks = np.flatnonzero(lam > 0.0)
    ks = ks[np.argsort(-lam[ks], kind="stable")]
    width = 1 + (2 * ks < n)  # a cos, sin pair below the Nyquist frequency
    k_col = np.repeat(ks, width)[:m]
    scale = np.repeat(np.sqrt(width * lam[ks]), width)[:m]
    is_sin = np.r_[False, k_col[1:] == k_col[:-1]]
    # the phases (k j) mod n index exact tables, so no angle grows with k
    table = np.concatenate([np.cos(grid), np.sin(grid)])
    out = np.zeros((n, m))
    out[:, :k_col.size] = table[np.outer(np.arange(n), k_col) % n + n * is_sin] * scale
    return out


def embed_negative(result: EmbeddingResult) -> np.ndarray:
    """Embedding built from the negative spectrum: coordinates
    sqrt(|lambda_j^-|) u_j^-(x_i), largest magnitude first."""
    k = result.negative_count
    out = np.zeros((result.n, k))
    if k:
        cols = np.arange(result.n - 1, result.n - 1 - k, -1)
        out[:, :] = result.U[:, cols] * np.sqrt(-result.eigenvalues[cols])
    return out


def reconstruction_matrix(result: EmbeddingResult) -> np.ndarray:
    """All-pairs signed reconstruction of squared distances: entry (i, j) is
    sum_k lambda_k (u_k(x_i) - u_k(x_j))^2 over the full signed spectrum."""
    KT = (result.U * result.eigenvalues) @ result.U.T
    diag = np.diagonal(KT)
    out = diag[:, None] + diag[None, :] - KT - KT.T
    return out


# ---------------------------------------------------------------------------
# CSV persistence: first line holds the eigenvalues, then n rows of u_j(x_i).


def write_embedding_csv(result: EmbeddingResult, path: str) -> None:
    _write_csv(path, [], [result.eigenvalues[None, :], result.U])
