"""Products: spectrum merging, distance additivity, flat torus identity."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdslab.products
from conftest import equilateral_triangle, four_cycle, random_metric_space, spectral_embedding
from mdslab.mds_core import circle_grid_embedding, double_center
from mdslab.products import (
    predict_product_spectrum,
    product_space,
    torus_check,
    verify_product_embedding,
)
from mdslab.spaces import Sphere, finite_space_from_matrix, sample


def product_and_factor_spectra(A, B):
    """The three arguments of ``verify_product_embedding``: the decomposition
    of the explicit product, then those of both factors."""
    return spectral_embedding(product_space(A, B)), spectral_embedding(A), spectral_embedding(B)


class TestProductSpace:
    def test_counts_and_weights(self):
        tri = equilateral_triangle()
        four = four_cycle()
        prod = product_space(tri, four)
        assert prod.n == 12
        assert np.allclose(prod.w, 1.0 / 12.0)

    def test_distance_formula(self, rng):
        A = random_metric_space(rng, 3)
        B = random_metric_space(rng, 4)
        prod = product_space(A, B)
        for i in range(3):
            for j in range(4):
                for i2 in range(3):
                    for j2 in range(4):
                        got = prod.D[i * 4 + j, i2 * 4 + j2]
                        want = math.hypot(A.D[i, i2], B.D[j, j2])
                        assert got == pytest.approx(want, abs=1e-12)


class TestSpectrumMerge:
    def test_two_triangles(self):
        tri = equilateral_triangle()
        res = spectral_embedding(tri)
        merged = predict_product_spectrum(res, res)
        pos = merged[merged > 0]
        assert np.allclose(pos, 1.0 / 6.0, atol=1e-12)
        assert pos.size == 4

    def test_single_point_factor(self, rng):
        A = random_metric_space(rng, 7)
        point = finite_space_from_matrix([[0.0]], [1.0])
        res_a = spectral_embedding(A)
        res_p = spectral_embedding(point)
        merged = predict_product_spectrum(res_a, res_p)
        nz_a = res_a.eigenvalues[res_a.eigenvalues != 0.0]
        assert np.allclose(np.sort(merged), np.sort(nz_a))
        direct = spectral_embedding(product_space(A, point))
        nz_d = direct.eigenvalues[direct.eigenvalues != 0.0]
        assert np.allclose(np.sort(nz_d), np.sort(nz_a), atol=1e-10)

    def test_circle_grids_8x8(self):
        circ = sample(Sphere(1), "grid", 8)
        res = spectral_embedding(circ)
        merged = predict_product_spectrum(res, res)
        direct = spectral_embedding(product_space(circ, circ))
        nz_direct = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
        assert nz_direct.size == merged.size
        assert np.max(np.abs(nz_direct - np.sort(merged))) <= 1e-8

    def test_random_factor_multisets(self, rng):
        for uniform in (True, False):
            A = random_metric_space(rng, int(rng.integers(3, 13)), uniform=uniform)
            B = random_metric_space(rng, int(rng.integers(3, 13)), uniform=uniform)
            merged = predict_product_spectrum(spectral_embedding(A), spectral_embedding(B))
            direct = spectral_embedding(product_space(A, B))
            nz = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
            assert nz.size == merged.size
            assert np.max(np.abs(nz - np.sort(merged))) <= 1e-8

    def test_lifted_functions_are_eigenfunctions(self, rng):
        A = random_metric_space(rng, 5)
        B = random_metric_space(rng, 4)
        res_a, res_b = spectral_embedding(A), spectral_embedding(B)
        op = double_center(product_space(A, B))
        # operator action on L^2(mu): K_T W u = lam u, with K_T = W^-1/2 S W^-1/2
        inv = 1.0 / np.sqrt(op.w)
        KT = op.S * inv[:, None] * inv[None, :]
        W = np.diag(op.w)
        # u (x) 1 and 1 (x) v on the product points, flattened A-major
        lifted = [(lam, np.repeat(u, B.n))
                  for lam, u in zip(res_a.eigenvalues, res_a.U.T) if lam != 0.0]
        lifted += [(lam, np.tile(v, A.n))
                   for lam, v in zip(res_b.eigenvalues, res_b.U.T) if lam != 0.0]
        merged = predict_product_spectrum(res_a, res_b)
        assert sorted(lam for lam, _ in lifted) == sorted(merged)
        for lam, u in lifted:
            resid = KT @ W @ u - lam * u
            assert np.max(np.abs(resid)) <= 1e-9


class TestAdditivity:
    def test_two_triangles_exact(self):
        tri = equilateral_triangle()
        assert verify_product_embedding(*product_and_factor_spectra(tri, tri)) <= 1e-9

    def test_four_cycles_with_negative_spectrum(self):
        four = four_cycle()
        assert verify_product_embedding(*product_and_factor_spectra(four, four)) <= 1e-8

    def test_random_factors(self, rng):
        A = random_metric_space(rng, 6, uniform=False)
        B = random_metric_space(rng, 5, uniform=False)
        assert verify_product_embedding(*product_and_factor_spectra(A, B)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 7), st.integers(1, 7)),
           uniform=st.tuples(st.booleans(), st.booleans()))
    def test_random_shortest_path_factors(self, seed, sizes, uniform):
        rng = np.random.default_rng(seed)
        A, B = (random_metric_space(rng, n, u) for n, u in zip(sizes, uniform))
        direct, left, right = product_and_factor_spectra(A, B)
        scale = max(1.0, float(np.max(A.D)) ** 2 + float(np.max(B.D)) ** 2)
        assert verify_product_embedding(direct, left, right) <= 1e-12 * scale
        merged = predict_product_spectrum(left, right)
        nz = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
        assert nz.size == merged.size
        if nz.size:
            assert np.max(np.abs(nz - np.sort(merged))) <= 1e-12 * scale


class TestTorus:
    def test_small_torus_identity(self):
        # per-factor tail is about 8 / (2 * 31), so 0.3 is a comfortable roof
        assert torus_check(64, 2, 31, n_pairs=300, seed=3) <= 0.3

    def test_single_factor_matches_circle_snowflake(self):
        tail = math.pi**2 - 8.0 * sum(1.0 / k**2 for k in range(1, 64, 2))
        # grid aliasing on top of the tail
        assert torus_check(128, 1, 63, n_pairs=400, seed=4) <= tail + 0.02

    def test_bi_holder_window(self):
        # torus_check's pairs, rebuilt from the same seed: per-factor arc
        # lengths and the summed squared embedding distances
        n, k, trunc, pairs = 128, 2, 63, 1500
        E = circle_grid_embedding(n, trunc + 1)
        idx = np.random.default_rng(5).integers(0, n, size=(pairs, 2, k))
        delta = 2 * math.pi * np.abs(idx[:, 0] - idx[:, 1]) / n
        factor_dist = np.minimum(delta, 2 * math.pi - delta)
        embedded_sq = np.sum((E[idx[:, 0]] - E[idx[:, 1]]) ** 2, axis=(1, 2))
        max_error = np.max(np.abs(embedded_sq - math.pi * np.sum(factor_dist, axis=1)))
        assert max_error == pytest.approx(torus_check(n, k, trunc, n_pairs=pairs, seed=5),
                                          abs=1e-12)
        # test the two-sided bound away from tiny factor distances, where the
        # truncation tail cannot mask the smaller factor's contribution
        mask = np.min(factor_dist, axis=1) >= 0.1
        assert mask.sum() > 500
        sq = embedded_sq[mask]
        dmax = np.max(factor_dist[mask], axis=1)
        dsum = np.sum(factor_dist[mask], axis=1)
        tol = 0.1
        assert np.all(math.pi * dmax <= sq + 1e-9)
        assert np.all(sq <= math.pi * dsum + tol)

    def test_rejects_even_truncation(self):
        with pytest.raises(ValueError):
            torus_check(16, 2, 10)

    def test_rejects_empty_torus(self):
        # k = 0 would compare empty sums and report max_error 0
        with pytest.raises(ValueError, match="k_factors >= 1 and n_pairs >= 1, got 0 and 1000"):
            torus_check(16, 0, 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_grid(self, n):
        with pytest.raises(ValueError, match=f"n_per_factor must be >= 1, got {n}"):
            torus_check(n, 1, 3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_grids_are_exact(self, n):
        assert torus_check(n, 2, 3, n_pairs=20) <= 1e-12

    def test_huge_truncation_embeds_at_most_n_columns(self, monkeypatch):
        seen = []

        def spy(n, m):
            seen.append(m)
            return circle_grid_embedding(n, m)

        monkeypatch.setattr(mdslab.products, "circle_grid_embedding", spy)
        assert math.isfinite(torus_check(16, 2, 10**9 + 1, n_pairs=50))
        assert seen == [16]

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError, match="k_factors >= 1 and n_pairs >= 1, got 1 and 0"):
            torus_check(16, 1, 3, n_pairs=0)
