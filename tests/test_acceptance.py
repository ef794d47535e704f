"""Acceptance suite: every headline guarantee at its stated tolerance.

Each criterion prints one PASS line (pytest reports the failures); the
random-space suite is shared where criteria refer to the same instances.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import equilateral_triangle, four_cycle, shortest_path_completion
from mdslab.cli import run
from mdslab.mds_core import (
    double_center,
    eigendecompose,
    embed,
    reconstruction_matrix,
    spectral_embedding,
)
from mdslab.products import torus_check, verify_product_embedding, predict_product_spectrum
from mdslab.spaces import (
    SampleSpec,
    Sphere,
    finite_space_from_matrix,
    sample,
    write_space_csv,
)
from mdslab.sphere_spectral import (
    asymptotic_scan,
    coeff,
    eigenvalue_quadrature,
    eigenvalue_series,
    s_peak,
    snowflake_identity_error,
    theta,
)
from mdslab.stability import (
    check_gw_bound,
    check_transport_bound,
    convergence_experiment,
    coupling_nearest,
    eigen_perturbation_check,
    nearest_grid_assignment,
    procrustes,
    w4_circle_grid,
    w4_circle_grid_numeric,
)

TWO_PI = 2.0 * math.pi

# Regression pin for the n = 512 circle alignment (criterion 10), recorded
# from the first computation; the hard ceiling below is the 0.02 criterion.
PINNED_FINAL_ALIGNED = 8.8741237057810993e-06


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num:2d}: {text}")


@pytest.fixture(scope="module")
def random_suite():
    """50 random metric spaces (shortest-path completions, n <= 200) with
    their spectral decompositions; shared by criteria 1, 2, and 4."""
    rng = np.random.default_rng(0xACCE97)
    suite = []
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(2, 201))
        raw = rng.uniform(0.2, 3.0, size=(n, n))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        D = shortest_path_completion(raw)
        if trial % 2:
            w = np.full(n, 1.0 / n)
        else:
            w = rng.uniform(0.5, 1.5, size=n)
            w /= w.sum()
        fs = finite_space_from_matrix(D, w)
        suite.append((fs, spectral_embedding(fs)))
    elapsed = time.perf_counter() - start
    return suite, elapsed


def test_criterion_01_krein_exactness(random_suite):
    suite, build_time = random_suite
    start = time.perf_counter()
    for fs, result in suite:
        rec = reconstruction_matrix(result)
        tol = 1e-8 * np.maximum(1.0, fs.D**2)
        worst = np.max(np.abs(rec - fs.D**2) - tol)
        assert worst <= 0.0
    elapsed = build_time + (time.perf_counter() - start)
    assert elapsed < 30.0
    _report(1, f"signed reconstruction exact on 50 random spaces ({elapsed:.1f}s)")


def test_criterion_02_expansion_bound(random_suite):
    suite, _ = random_suite
    for fs, result in suite:
        E = embed(result, max(result.positive_count, 1))
        sq = np.sum(E**2, axis=1)
        dist_sq = sq[:, None] + sq[None, :] - 2.0 * E @ E.T
        assert np.all(dist_sq >= fs.D**2 - 1e-8)
    _report(2, "positive-part embedding expands every distance")


def test_criterion_03_fixed_fixtures():
    tri = spectral_embedding(equilateral_triangle())
    assert np.max(np.abs(tri.eigenvalues - np.array([1 / 6, 1 / 6, 0.0]))) <= 1e-10
    four = spectral_embedding(four_cycle())
    assert np.max(np.abs(four.eigenvalues - np.array([0.5, 0.5, 0.0, -0.25]))) <= 1e-10
    E = embed(four, 2)
    target = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    # the positive eigenvalue is a double root, so the embedding is defined
    # up to an orthogonal mix of the pair; compare modulo that freedom
    resid = procrustes(target, E).residual
    assert resid <= 1e-9
    _report(3, f"triangle and 4-cycle spectra pinned; square recovered (resid {resid:.1e})")


def test_criterion_04_trace_identity(random_suite):
    suite, _ = random_suite
    for fs, result in suite:
        expect = 0.5 * float(fs.w @ fs.D**2 @ fs.w)
        assert abs(result.eigenvalues.sum() - expect) <= 1e-10 * abs(expect)
    _report(4, "trace identity holds on every decomposition in the suite")


def test_criterion_05_circle_snowflake():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, TWO_PI, size=(1000, 2))
    pairs = [
        (np.array([math.cos(a), math.sin(a)]), np.array([math.cos(b), math.sin(b)]))
        for a, b in angles
    ]
    err = snowflake_identity_error(1, 99, pairs)
    elapsed = time.perf_counter() - start
    assert err <= 0.05
    assert elapsed < 5.0
    _report(5, f"circle snowflake identity error {err:.4f} <= 0.05 ({elapsed:.2f}s)")


def test_criterion_06_coefficient_identity():
    for n in range(1, 201):
        a = coeff("full", n)
        b = coeff("snowflake", n)
        if n % 2 == 0:
            assert a.sign == -1 and b.sign == 0
        else:
            lhs = math.log(math.pi) + b.log_abs
            assert abs(lhs - a.log_abs) <= 1e-12 * max(1.0, abs(a.log_abs))
    _report(6, "pi * b(n) equals the positive part of a(n) for n = 1..200")


def test_criterion_07_circle_spectrum_oracle():
    for k in range(1, 21):
        want = (-1.0) ** (k + 1) / k**2
        assert abs(eigenvalue_quadrature(1, k, "full") - want) <= 1e-8
    ratios = {}
    for d in (1, 2):
        r = np.array(
            [eigenvalue_series(d, j) / eigenvalue_quadrature(d, j, "full")
             for j in range(1, 16, 2)]
        )
        spread = (r.max() - r.min()) / r.mean()
        assert spread <= 1e-6
        ratios[d] = float(r.mean())
    _report(
        7,
        "quadrature matches the Fourier oracle; calibration ratios "
        f"d=1: {ratios[1]:.12f}, d=2: {ratios[2]:.12f} (constant over degrees)",
    )


def test_criterion_08_appendix_asymptotics():
    start = time.perf_counter()
    scan1 = asymptotic_scan(1, range(5, 51))
    assert scan1.ratio_bound <= 5.0
    scan2 = asymptotic_scan(2, range(5, 31))
    assert scan2.ratio_bound <= 5.0
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 30))
        peak = s_peak(d, n)
        logs = [theta(d, n, s).log_abs for s in range(3 * peak + 60)]
        assert int(np.argmax(logs)) == peak
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        8,
        f"normalized decay ratios {scan1.ratio_bound:.2f} (d=1), "
        f"{scan2.ratio_bound:.2f} (d=2) <= 5; peak formula matches scans ({elapsed:.1f}s)",
    )


def test_criterion_09_stability_bounds():
    for n in (16, 32, 64, 128):
        fine_n = 8 * n
        fine = sample(Sphere(1), SampleSpec("grid", fine_n))
        coarse = sample(Sphere(1), SampleSpec("grid", n))
        assign = nearest_grid_assignment(fine_n, n)
        coup = coupling_nearest(fine, coarse, assign)
        assert check_gw_bound(fine, coarse, coup).ok
        ft = TWO_PI * np.arange(fine_n) / fine_n
        ct = TWO_PI * np.arange(n) / n
        disp = np.abs(ft - ct[assign])
        disp = np.minimum(disp, TWO_PI - disp)
        w4 = float(np.sum(fine.w * disp**4) ** 0.25)
        assert check_transport_bound(fine, coarse, coup, w4).ok
        assert abs(w4_circle_grid(n) - w4_circle_grid_numeric(n)) <= 1e-6
    _report(9, "kernel-gap bounds hold on every refinement; W4 closed form matches transport")


def test_criterion_10_convergence():
    start = time.perf_counter()
    rows = convergence_experiment(Sphere(1), [16, 32, 64, 128, 256, 512], 2)
    aligned = [r.aligned_l2 for r in rows]
    assert all(a > b for a, b in zip(aligned, aligned[1:]))
    assert aligned[-1] <= 0.02
    assert aligned[-1] == pytest.approx(PINNED_FINAL_ALIGNED, abs=1e-6)
    gw2 = [r.gw2_images for r in rows]
    assert all(b <= a * 1.05 for a, b in zip(gw2, gw2[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        10,
        f"aligned discrepancy strictly decreasing to {aligned[-1]:.2e} <= 0.02; "
        f"image distortion decreasing ({elapsed:.1f}s)",
    )


def test_criterion_11_kato_matching():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        S1 = rng.standard_normal((n, n))
        S1 = (S1 + S1.T) / 2.0
        delta = rng.standard_normal((n, n)) * rng.uniform(1e-4, 1.0)
        S2 = S1 + (delta + delta.T) / 2.0
        rep = eigen_perturbation_check(S1, S2)
        assert rep.sup_gap <= rep.hs_norm
    _report(11, "sorted eigenvalue matching within the perturbation norm, no tolerance")


def test_criterion_12_product_torus():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    for _ in range(6):
        na, nb = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        raw_a = rng.uniform(0.2, 2.0, (na, na))
        raw_a = (raw_a + raw_a.T) / 2.0
        np.fill_diagonal(raw_a, 0.0)
        raw_b = rng.uniform(0.2, 2.0, (nb, nb))
        raw_b = (raw_b + raw_b.T) / 2.0
        np.fill_diagonal(raw_b, 0.0)
        A = finite_space_from_matrix(shortest_path_completion(raw_a), np.full(na, 1 / na))
        B = finite_space_from_matrix(shortest_path_completion(raw_b), np.full(nb, 1 / nb))
        pred = predict_product_spectrum(spectral_embedding(A), spectral_embedding(B))
        from mdslab.products import product_space

        direct = spectral_embedding(product_space(A, B))
        nz = np.sort(direct.eigenvalues[direct.eigenvalues != 0.0])
        assert nz.size == pred.eigenvalues.size
        assert np.max(np.abs(nz - np.sort(pred.eigenvalues))) <= 1e-8
        assert verify_product_embedding(pred, direct) <= 1e-8
    chk = torus_check(256, 2, 99, n_pairs=1000, seed=12)
    assert chk.max_error <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        12,
        f"spectrum merge exact; torus identity error {chk.max_error:.4f} <= 0.1 ({elapsed:.1f}s)",
    )


def test_criterion_13_cli_determinism(tmp_path):
    tri_csv = tmp_path / "tri.csv"
    write_space_csv(equilateral_triangle(), str(tri_csv))
    commands = {
        "space gen": ["space", "gen", "--space", "sphere:2", "--n", "14",
                      "--mode", "random", "--seed", "5", "--out", "{out}"],
        "mds embed": ["mds", "embed", "--input", str(tri_csv), "--m", "2", "--out", "{out}"],
        "mds krein": ["mds", "krein", "--input", str(tri_csv), "--out", "{out}"],
        "sphere eigen": ["sphere", "eigen", "--dim", "1", "--degree", "3",
                         "--method", "quadrature", "--out", "{out}"],
        "sphere asymptotics": ["sphere", "asymptotics", "--dim", "1", "--nmin", "2",
                               "--nmax", "6", "--out", "{out}"],
        "stability converge": ["stability", "converge", "--space", "circle",
                               "--sizes", "8,16", "--m", "2", "--out", "{out}"],
        "product check": ["product", "check", "--factors", f"{tri_csv},{tri_csv}",
                          "--out", "{out}"],
        "torus check": ["torus", "check", "--n", "16", "--k", "2", "--trunc", "7",
                        "--pairs", "40", "--seed", "3", "--out", "{out}"],
    }
    for name, template in commands.items():
        outputs = []
        for trial in range(2):
            out = tmp_path / f"{name.replace(' ', '_')}_{trial}.csv"
            argv = [tok.replace("{out}", str(out)) for tok in template]
            assert run(argv) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"
    _report(13, "all eight subcommands byte-identical across repeated runs")
