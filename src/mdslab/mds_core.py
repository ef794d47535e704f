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

from .spaces import BadWeights, FiniteSpace, _write_csv


class NoConvergence(RuntimeError):
    """The symmetric eigensolver failed to converge."""


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
    """
    K = space.D**2
    K *= -0.5
    w = space.w
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
    w: np.ndarray
    positive_count: int
    negative_count: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column whose first largest-magnitude entry is negative."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0.0, -1.0, 1.0)


def _order_degenerate_blocks(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Within blocks of exactly equal eigenvalues, order columns lexicographically."""
    out = vecs.copy()
    start = 0
    n = vals.size
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] == vals[start]:
            stop += 1
        if stop - start > 1:
            # stable, row 0 the primary key, and -0.0 == 0.0, as a tuple sort
            cols = np.lexsort(out[::-1, start:stop])
            out[:, start:stop] = out[:, start:stop][:, cols]
        start = stop
    return out


def eigendecompose(op: CenteredOperator) -> EmbeddingResult:
    """Full deterministic spectral decomposition of the centered operator.

    Eigenvalues are sorted descending; each eigenvector sign is fixed so its
    first largest-magnitude component is positive; eigenvalues below
    n * eps * ||S|| in magnitude are clamped to zero (this separates the
    structural constant-direction null space from round-off). Eigenfunction
    values are recovered as u_j(x_i) = v_j[i] / sqrt(w_i).
    """
    if op.w.min() <= 0.0:
        i = int(np.argmin(op.w))
        raise BadWeights(
            f"w[{i}]={op.w[i]!r}: eigenfunction recovery needs strictly positive weights"
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
    vecs = _order_degenerate_blocks(vals, vecs)

    U = vecs / np.sqrt(op.w)[:, None]
    pos = int(np.sum(vals > 0.0))
    neg = int(np.sum(vals < 0.0))
    vals.setflags(write=False)
    U.setflags(write=False)
    return EmbeddingResult(
        eigenvalues=vals, U=U, w=op.w, positive_count=pos, negative_count=neg
    )


def spectral_embedding(space: FiniteSpace) -> EmbeddingResult:
    """Convenience: double centering followed by eigendecomposition."""
    return eigendecompose(double_center(space))


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
