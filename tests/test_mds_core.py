"""MDS core: centering, decomposition, embeddings, reconstruction, CSV output."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    equilateral_triangle,
    four_cycle,
    random_metric_space,
    shortest_path_completion,
)
from mdslab.mds_core import (
    _fix_signs,
    _order_degenerate_blocks,
    double_center,
    eigendecompose,
    embed,
    embed_negative,
    reconstruction_matrix,
    spectral_embedding,
    write_embedding_csv,
)
from mdslab.spaces import BadWeights, _read_csv, finite_space_from_matrix
from mdslab.stability import procrustes


def circulant_spectrum_oracle(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric circulant via the discrete Fourier transform."""
    return np.sort(np.real(np.fft.fft(first_row)))[::-1]


class TestDoubleCenter:
    def test_singleton(self):
        op = double_center(finite_space_from_matrix([[0.0]], [1.0]))
        assert op.S.shape == (1, 1)
        assert op.S[0, 0] == 0.0

    def test_triangle_spectrum(self):
        res = spectral_embedding(equilateral_triangle())
        assert np.allclose(res.eigenvalues, [1 / 6, 1 / 6, 0.0], atol=1e-14)

    def test_four_cycle_spectrum_matches_circulant_oracle(self):
        fs = four_cycle()
        res = spectral_embedding(fs)
        # oracle: DFT eigenvalues of -(1/8) circ(0,1,4,1), constant mode centered out
        dft = circulant_spectrum_oracle(-np.array([0.0, 1.0, 4.0, 1.0]) / 8.0)
        dft = np.sort(np.where(np.isclose(dft, -0.75), 0.0, dft))[::-1]
        assert np.allclose(res.eigenvalues, dft, atol=1e-14)
        assert np.allclose(res.eigenvalues, [0.5, 0.5, 0.0, -0.25], atol=1e-14)

    def test_symmetry_and_null_direction(self, rng):
        for uniform in (True, False):
            fs = random_metric_space(rng, 37, uniform=uniform)
            op = double_center(fs)
            assert np.max(np.abs(op.S - op.S.T)) <= 1e-12 * np.abs(op.S).max()
            resid = np.max(np.abs(op.S @ np.sqrt(op.w)))
            assert resid <= 1e-10

    def test_uniform_weights_match_classical_double_centering(self, rng):
        fs = random_metric_space(rng, 12)
        op = double_center(fs)
        n = fs.n
        Kbar = -fs.D**2 / (2 * n)
        P = np.eye(n) - np.ones((n, n)) / n
        Tbar = P @ Kbar @ P
        assert np.allclose(op.S, Tbar, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 16, 97])
    def test_bit_identical_to_plain_expression(self, rng, n):
        fs = random_metric_space(rng, n, uniform=False)
        K = -0.5 * fs.D**2
        r = K @ fs.w
        g = float(fs.w @ r)
        sq = np.sqrt(fs.w)
        S = (K - r[:, None] - r[None, :] + g) * sq[:, None] * sq[None, :]
        S = (S + S.T) / 2.0
        op = double_center(fs)
        assert np.array_equal(op.S, S)
        assert not op.S.flags.writeable

class TestEigendecompose:
    def test_triangle_counts(self):
        res = spectral_embedding(equilateral_triangle())
        assert res.positive_count == 2
        assert res.negative_count == 0

    def test_four_cycle_eigenfunction_scale(self):
        res = spectral_embedding(four_cycle())
        # positive eigenfunctions take values in {0, +-sqrt(2)} up to block mixing:
        # the weighted squares of the pair sum to 2 at every point
        pair_sq = np.sum(res.U[:, :2] ** 2, axis=1)
        assert np.allclose(pair_sq, 2.0, atol=1e-10)

    def test_zero_distances_clamp(self):
        fs = finite_space_from_matrix(np.zeros((5, 5)), np.full(5, 0.2))
        res = spectral_embedding(fs)
        assert np.all(res.eigenvalues == 0.0)
        assert res.positive_count == 0

    def test_orthonormal_in_weighted_l2(self, rng):
        fs = random_metric_space(rng, 23, uniform=False)
        res = spectral_embedding(fs)
        gram = res.U.T @ (res.U * res.w[:, None])
        assert np.max(np.abs(gram - np.eye(fs.n))) <= 1e-10

    def test_positive_eigenvalue_exists(self, rng):
        for n in (2, 5, 17):
            fs = random_metric_space(rng, n)
            res = spectral_embedding(fs)
            assert res.eigenvalues[0] > 0.0

    def test_bit_identical_rerun(self, rng):
        fs = random_metric_space(rng, 19)
        op = double_center(fs)
        a = eigendecompose(op)
        b = eigendecompose(op)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_fixing_matches_column_loop(self, rng):
        # Reference: flip column j when its first largest-magnitude entry is
        # negative. Integer entries force ties in |v| and exact zeros.
        for _ in range(20):
            vecs = rng.integers(-3, 4, size=(16, 16)).astype(float)
            want = vecs.copy()
            for j in range(16):
                if want[int(np.argmax(np.abs(want[:, j]))), j] < 0.0:
                    want[:, j] = -want[:, j]
            got = _fix_signs(vecs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_zero_weight_rejected(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        fs = finite_space_from_matrix(D, [1.0, 0.0])
        with pytest.raises(BadWeights):
            spectral_embedding(fs)

    def test_trace_identity(self, rng):
        for uniform in (True, False):
            fs = random_metric_space(rng, 31, uniform=uniform)
            res = spectral_embedding(fs)
            expect = 0.5 * float(fs.w @ fs.D**2 @ fs.w)
            assert res.eigenvalues.sum() == pytest.approx(expect, rel=1e-10)


class TestEmbed:
    def test_four_cycle_square_modulo_rotation(self):
        res = spectral_embedding(four_cycle())
        E = embed(res, 2)
        target = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert procrustes(target, E).residual <= 1e-9

    def test_triangle_unit_distances(self):
        res = spectral_embedding(equilateral_triangle())
        E = embed(res, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(E[i] - E[j]) == pytest.approx(1.0, abs=1e-12)

    def test_padding(self, rng):
        fs = random_metric_space(rng, 9)
        res = spectral_embedding(fs)
        E = embed(res, res.positive_count + 3)
        assert E.shape == (9, res.positive_count + 3)
        assert np.all(E[:, -3:] == 0.0)

    def test_expansion_lower_bound(self, rng):
        fs = random_metric_space(rng, 40, uniform=False)
        res = spectral_embedding(fs)
        E = embed(res, res.positive_count)
        sq = np.sum((E[:, None, :] - E[None, :, :]) ** 2, axis=2)
        assert np.all(sq >= fs.D**2 - 1e-8)


class TestNegativeAndKrein:
    def test_four_cycle_negative_part(self):
        res = spectral_embedding(four_cycle())
        N = embed_negative(res)
        assert N.shape == (4, 1)
        assert np.allclose(np.abs(N[:, 0]), 0.5, atol=1e-12)
        assert np.allclose(N[:, 0], -np.roll(N[:, 0], 1), atol=1e-12)

    def test_triangle_negative_empty(self):
        res = spectral_embedding(equilateral_triangle())
        assert embed_negative(res).shape == (3, 0)

    def test_four_cycle_adjacent_pair_identity(self):
        res = spectral_embedding(four_cycle())
        P, N = embed(res, res.positive_count), embed_negative(res)
        assert P.shape == (4, res.positive_count) and N.shape == (4, res.negative_count)
        dpos = np.sum((P[0] - P[1]) ** 2)
        dneg = np.sum((N[0] - N[1]) ** 2)
        assert dpos == pytest.approx(2.0, abs=1e-10)
        assert dneg == pytest.approx(1.0, abs=1e-10)
        assert dpos - dneg == pytest.approx(1.0, abs=1e-10)

    def test_pseudo_norm(self):
        # the indefinite square norm of point i is the centered kernel
        # K_T(i, i) = S(i, i) / w_i
        op = double_center(four_cycle())
        res = eigendecompose(op)
        P, N = embed(res, res.positive_count), embed_negative(res)
        pseudo = np.sum(P**2, axis=1) - np.sum(N**2, axis=1)
        assert np.allclose(pseudo, np.diagonal(op.S) / op.w, atol=1e-12)


class TestReconstruction:
    def test_four_cycle_values(self):
        rec = reconstruction_matrix(spectral_embedding(four_cycle()))
        assert rec[0, 2] == pytest.approx(4.0, abs=1e-10)
        assert rec[1, 1] == 0.0

    def test_random_spaces_exact(self, rng):
        for uniform in (True, False):
            fs = random_metric_space(rng, 60, uniform=uniform)
            res = spectral_embedding(fs)
            rec = reconstruction_matrix(res)
            tol = 1e-8 * np.maximum(1.0, fs.D**2)
            assert np.all(np.abs(rec - fs.D**2) <= tol)

    def test_matrix_agrees_with_scalar(self, rng):
        fs = random_metric_space(rng, 12)
        res = spectral_embedding(fs)
        rec = reconstruction_matrix(res)
        for i, j in ((0, 5), (3, 3), (11, 2)):
            du = res.U[i] - res.U[j]
            assert rec[i, j] == pytest.approx(float(np.sum(res.eigenvalues * du * du)), abs=1e-12)


@st.composite
def weighted_metrics(draw):
    """Shortest-path closures of random symmetric tables, with weights spanning
    three orders of magnitude."""
    n = draw(st.integers(2, 10))
    raw = draw(arrays(float, (n, n), elements=st.floats(0.05, 10.0)))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    w = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
    return finite_space_from_matrix(shortest_path_completion(raw), w / w.sum())


def tuple_sorted_blocks(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Oracle: each block of exactly equal eigenvalues sorted by Python's
    stable sort on the column tuples."""
    out = vecs.copy()
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[stop] == vals[start]:
            stop += 1
        cols = sorted(range(start, stop), key=lambda c: tuple(out[:, c]))
        out[:, start:stop] = vecs[:, cols]
        start = stop
    return out


@st.composite
def tied_blocks(draw):
    """Descending eigenvalues with planted exact ties, and columns drawn from
    a few values, +0.0 and -0.0 among them, so whole columns and leading
    entries tie too."""
    rows = draw(st.integers(1, 6))
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    vals = np.repeat(np.arange(len(levels), 0, -1, dtype=float), levels)
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
    vecs = draw(arrays(float, (rows, vals.size), elements=entries))
    return vals, vecs


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(tied_blocks())
    def test_degenerate_block_order_matches_tuple_sort(self, case):
        vals, vecs = case
        got = _order_degenerate_blocks(vals, vecs)
        want = tuple_sorted_blocks(vals, vecs)
        # bit for bit, so the sign of every zero is where the tuple sort puts it
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(fs=weighted_metrics())
    def test_signed_reconstruction_exact_with_nonuniform_weights(self, fs):
        rec = reconstruction_matrix(eigendecompose(double_center(fs)))
        assert np.all(np.abs(rec - fs.D**2) <= 1e-8 * np.maximum(1.0, fs.D**2))

    @settings(max_examples=150, deadline=None)
    @given(fs=weighted_metrics(), data=st.data())
    def test_spectrum_invariant_under_relabeling(self, fs, data):
        perm = np.array(data.draw(st.permutations(range(fs.n))))
        relabeled = finite_space_from_matrix(fs.D[np.ix_(perm, perm)], fs.w[perm])
        lam = eigendecompose(double_center(fs)).eigenvalues
        lam_perm = eigendecompose(double_center(relabeled)).eigenvalues
        scale = max(1.0, float(np.max(np.abs(lam))))
        assert np.max(np.abs(lam - lam_perm)) <= 1e-12 * scale


class TestLipschitzAndHomogeneity:
    def test_eigenfunction_lipschitz_bound(self, rng):
        fs = random_metric_space(rng, 30, uniform=False)
        res = spectral_embedding(fs)
        diam = fs.diameter
        for k in range(fs.n):
            lam = res.eigenvalues[k]
            if lam == 0.0:
                continue
            u = res.U[:, k]
            diff = np.abs(u[:, None] - u[None, :])
            bound = (4.0 * diam / abs(lam)) * fs.D + 1e-8
            assert np.all(diff <= bound)

    def test_circulant_constant_eigenvector_and_shared_pairs(self):
        # distances on a 6-cycle: a circulant metric, hence a homogeneous space
        row = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0])
        D = np.array([np.roll(row, k) for k in range(6)])
        fs = finite_space_from_matrix(D, np.full(6, 1 / 6))
        K = -0.5 * fs.D**2
        ones = np.ones(6)
        Kv = K @ ones
        lam0 = Kv[0] / 1.0
        assert np.max(np.abs(Kv - lam0 * ones)) <= 1e-10
        # centered spectrum equals the raw spectrum with the constant mode sent to 0
        raw = np.sort(np.linalg.eigvalsh(K / 6.0))[::-1]
        raw_centered = np.sort(np.where(np.isclose(raw, lam0 / 6.0), 0.0, raw))[::-1]
        got = np.sort(spectral_embedding(fs).eigenvalues)[::-1]
        assert np.allclose(got, raw_centered, atol=1e-10)


class TestEmbeddingCsv:
    def test_round_trip(self, tmp_path, rng):
        fs = random_metric_space(rng, 11, uniform=False)
        res = spectral_embedding(fs)
        path = tmp_path / "emb.csv"
        write_embedding_csv(res, str(path))
        _, rows = _read_csv(str(path), 0)
        assert np.array_equal(rows[0], res.eigenvalues)
        assert np.array_equal(rows[1:], res.U)
