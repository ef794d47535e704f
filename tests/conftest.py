"""Shared fixtures: small exactly-solvable spaces, random metric generators
and test oracles."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mdslab.spaces import FiniteSpace, finite_space_from_matrix
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


def coupling_identity(A: FiniteSpace) -> Coupling:
    """Diagonal coupling of a space with itself."""
    return make_coupling(np.diag(A.w), A, A)


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
