"""Products: spectrum merging, distance additivity, flat torus identity."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import equilateral_triangle, four_cycle, random_metric_space
from mdslab.mds_core import double_center, spectral_embedding
from mdslab.products import (
    predict_product_spectrum,
    product_space,
    torus_check,
    verify_product_embedding,
)
from mdslab.spaces import SampleSpec, Sphere, finite_space_from_matrix, sample


def factor_and_product_spectra(A, B):
    """The two arguments of ``verify_product_embedding``: the prediction from
    both factor decompositions and the decomposition of the explicit product."""
    pred = predict_product_spectrum(spectral_embedding(A), spectral_embedding(B))
    return pred, spectral_embedding(product_space(A, B))


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
        pred = predict_product_spectrum(res, res)
        pos = pred.eigenvalues[pred.eigenvalues > 0]
        assert np.allclose(pos, 1.0 / 6.0, atol=1e-12)
        assert pos.size == 4

    def test_single_point_factor(self, rng):
        A = random_metric_space(rng, 7)
        point = finite_space_from_matrix([[0.0]], [1.0])
        res_a = spectral_embedding(A)
        res_p = spectral_embedding(point)
        pred = predict_product_spectrum(res_a, res_p)
        nz_a = res_a.eigenvalues[res_a.eigenvalues != 0.0]
        assert np.allclose(np.sort(pred.eigenvalues), np.sort(nz_a))
        direct = spectral_embedding(product_space(A, point))
        nz_d = direct.eigenvalues[direct.eigenvalues != 0.0]
        assert np.allclose(np.sort(nz_d), np.sort(nz_a), atol=1e-10)

    def test_circle_grids_8x8(self):
        circ = sample(Sphere(1), SampleSpec("grid", 8))
        res = spectral_embedding(circ)
        pred = predict_product_spectrum(res, res)
        direct = spectral_embedding(product_space(circ, circ))
        nz_direct = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
        assert nz_direct.size == pred.eigenvalues.size
        assert np.max(np.abs(nz_direct - np.sort(pred.eigenvalues))) <= 1e-8

    def test_random_factor_multisets(self, rng):
        for uniform in (True, False):
            A = random_metric_space(rng, int(rng.integers(3, 13)), uniform=uniform)
            B = random_metric_space(rng, int(rng.integers(3, 13)), uniform=uniform)
            pred = predict_product_spectrum(spectral_embedding(A), spectral_embedding(B))
            direct = spectral_embedding(product_space(A, B))
            nz = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
            assert nz.size == pred.eigenvalues.size
            assert np.max(np.abs(nz - np.sort(pred.eigenvalues))) <= 1e-8

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
        pred = predict_product_spectrum(res_a, res_b)
        assert sorted(lam for lam, _ in lifted) == sorted(pred.eigenvalues)
        for lam, u in lifted:
            resid = KT @ W @ u - lam * u
            assert np.max(np.abs(resid)) <= 1e-9


class TestAdditivity:
    def test_two_triangles_exact(self):
        tri = equilateral_triangle()
        assert verify_product_embedding(*factor_and_product_spectra(tri, tri)) <= 1e-9

    def test_four_cycles_with_negative_spectrum(self):
        four = four_cycle()
        assert verify_product_embedding(*factor_and_product_spectra(four, four)) <= 1e-8

    def test_random_factors(self, rng):
        A = random_metric_space(rng, 6, uniform=False)
        B = random_metric_space(rng, 5, uniform=False)
        assert verify_product_embedding(*factor_and_product_spectra(A, B)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 7), st.integers(1, 7)),
           uniform=st.tuples(st.booleans(), st.booleans()))
    def test_random_shortest_path_factors(self, seed, sizes, uniform):
        rng = np.random.default_rng(seed)
        A, B = (random_metric_space(rng, n, u) for n, u in zip(sizes, uniform))
        pred, direct = factor_and_product_spectra(A, B)
        scale = max(1.0, float(np.max(A.D)) ** 2 + float(np.max(B.D)) ** 2)
        assert verify_product_embedding(pred, direct) <= 1e-12 * scale
        nz = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
        assert nz.size == pred.eigenvalues.size
        if nz.size:
            assert np.max(np.abs(nz - np.sort(pred.eigenvalues))) <= 1e-12 * scale


class TestTorus:
    def test_small_torus_identity(self):
        chk = torus_check(64, 2, 31, n_pairs=300, seed=3)
        # per-factor tail is about 8 / (2 * 31), so 0.3 is a comfortable roof
        assert chk.max_error <= 0.3

    def test_single_factor_matches_circle_snowflake(self):
        chk = torus_check(128, 1, 63, n_pairs=400, seed=4)
        tail = math.pi**2 - 8.0 * sum(1.0 / k**2 for k in range(1, 64, 2))
        assert chk.max_error <= tail + 0.02  # grid aliasing on top of the tail

    def test_bi_holder_window(self):
        chk = torus_check(128, 2, 63, n_pairs=1500, seed=5)
        # test the two-sided bound away from tiny factor distances, where the
        # truncation tail cannot mask the smaller factor's contribution
        mask = np.min(chk.factor_dist, axis=1) >= 0.1
        assert mask.sum() > 500
        sq = chk.embedded_sq[mask]
        dmax = np.max(chk.factor_dist[mask], axis=1)
        dsum = np.sum(chk.factor_dist[mask], axis=1)
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

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError, match="k_factors >= 1 and n_pairs >= 1, got 1 and 0"):
            torus_check(16, 1, 3, n_pairs=0)
