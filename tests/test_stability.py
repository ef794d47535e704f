"""Stability: couplings, distortion costs, kernel-gap bounds, alignment."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdslab.products
import mdslab.stability
from conftest import (coupling_identity, equilateral_triangle, gw_bruteforce,
                      random_metric_space, shortest_path_completion, two_points)
from mdslab.mds_core import (DimensionMismatch, circle_grid_embedding, double_center,
                             eigendecompose, embed)
from mdslab.products import torus_check
from mdslab.spaces import (FiniteSpace, SampleSpec, Sphere, Torus, finite_space_from_matrix,
                           fourth_moment_norm, sample)
from mdslab.stability import (
    MarginalMismatch,
    UnsupportedSpace,
    check_gw_bound,
    check_transport_bound,
    circle_limit_map,
    convergence_experiment,
    coupling_nearest,
    coupling_product,
    eigen_perturbation_check,
    gw_cost,
    hs_gap,
    make_coupling,
    nearest_grid_assignment,
    procrustes,
    w4_circle_grid,
    w4_circle_grid_numeric,
)
from mdslab.stability import _nearest_map_columns

TWO_PI = 2.0 * math.pi


def gw_cost_bruteloop(G, DA, DB, p):
    """Quadruple-loop oracle for the coupling distortion cost."""
    total = 0.0
    n, m = G.shape
    for i in range(n):
        for j in range(m):
            for i2 in range(n):
                for j2 in range(m):
                    total += G[i, j] * G[i2, j2] * abs(DA[i, i2] - DB[j, j2]) ** p
    return total ** (1.0 / p)


def hs_gap_bruteloop(G, DA, DB):
    """Quadruple-loop oracle for the Hilbert-Schmidt kernel gap."""
    total = 0.0
    n, m = G.shape
    for i in range(n):
        for j in range(m):
            for i2 in range(n):
                for j2 in range(m):
                    diff = 0.5 * (DA[i, i2] ** 2 - DB[j, j2] ** 2)
                    total += G[i, j] * G[i2, j2] * diff**2
    return math.sqrt(total)


class TestCouplings:
    def test_identity(self):
        tri = equilateral_triangle()
        c = coupling_identity(tri)
        assert np.allclose(c.G, np.diag([1 / 3] * 3))

    def test_product(self):
        a = two_points()
        b = two_points(2.0)
        c = coupling_product(a, b)
        assert np.allclose(c.G, 0.25)

    def test_nearest_refinement_mass(self):
        fine = sample(Sphere(1), SampleSpec("grid", 16))
        coarse = sample(Sphere(1), SampleSpec("grid", 8))
        c = coupling_nearest(fine, coarse, nearest_grid_assignment(16, 8))
        assert np.allclose(c.col_marginal, 1.0 / 8.0)
        assert np.allclose(c.row_marginal, 1.0 / 16.0)

    def test_marginal_mismatch(self):
        a = two_points()
        b = equilateral_triangle()
        with pytest.raises(MarginalMismatch):
            coupling_nearest(a, b, [0, 0])
        with pytest.raises(MarginalMismatch):
            make_coupling(np.full((2, 2), 0.3), a, two_points())


class TestGwCost:
    def test_identity_coupling_zero_exact(self, rng):
        fs = random_metric_space(rng, 9)
        c = coupling_identity(fs)
        assert gw_cost(c, fs, fs, 2) == 0.0
        assert gw_cost(c, fs, fs, 4) == 0.0

    def test_two_point_deterministic(self):
        a, b = two_points(1.0), two_points(1.5)
        c = coupling_nearest(a, b, [0, 1])
        assert gw_cost(c, a, b, 4) == pytest.approx(0.5 * 0.5**0.25)
        assert gw_cost(c, a, b, 2) == pytest.approx(0.5 * 0.5**0.5)

    def test_matches_quadruple_loop_oracle(self, rng):
        for p in (2, 4):
            A = random_metric_space(rng, 4, uniform=False)
            B = random_metric_space(rng, 5, uniform=False)
            c = coupling_product(A, B)
            got = gw_cost(c, A, B, p)
            want = gw_cost_bruteloop(c.G, A.D, B.D, p)
            assert got == pytest.approx(want, rel=1e-10)

    def test_relabeling_invariance(self, rng):
        A = random_metric_space(rng, 5)
        B = random_metric_space(rng, 6)
        c = coupling_product(A, B)
        perm = rng.permutation(5)
        A2 = finite_space_from_matrix(A.D[np.ix_(perm, perm)], A.w[perm])
        c2 = make_coupling(c.G[perm, :], A2, B)
        for p in (2, 4):
            assert gw_cost(c2, A2, B, p) == pytest.approx(gw_cost(c, A, B, p), rel=1e-12)

    def test_dominates_permutation_minimum(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = random_metric_space(rng, n)
            B = random_metric_space(rng, n)
            ident = coupling_nearest(A, B, np.arange(n))
            for p in (2, 4):
                assert gw_cost(ident, A, B, p) >= gw_bruteforce(A, B, p) - 1e-12


@st.composite
def coupled_pair(draw):
    """Random metric spaces A (n <= 6) and B (m <= 6) with a coupling that is
    a deterministic map, the product coupling, or a mixture of the two. B's
    weights are the pushforward of A's under the map, so every kind has the
    same marginals."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    dist = st.floats(0.1, 3.0)

    def metric(k):
        raw = np.array(draw(st.lists(dist, min_size=k * k, max_size=k * k))).reshape(k, k)
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        return shortest_path_completion(raw)

    wA = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    wA /= wA.sum()
    assign = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    wB = np.bincount(assign, weights=wA, minlength=m)
    A = finite_space_from_matrix(metric(n), wA)
    B = finite_space_from_matrix(metric(m), wB)
    kind = draw(st.sampled_from(["map", "product", "mixture"]))
    if kind == "map":
        return A, B, coupling_nearest(A, B, assign)
    if kind == "product":
        return A, B, coupling_product(A, B)
    t = draw(st.floats(0.1, 0.9))
    G = t * coupling_nearest(A, B, assign).G + (1.0 - t) * np.outer(A.w, B.w)
    return A, B, make_coupling(G, A, B)


class TestDistortionProperties:
    """Both branches of the shared coupled-moment sum (row-wise maps and the
    binomial expansion for split rows) against the quadruple-loop oracles.
    Moments are compared before the root, where the expansion's round-off is
    additive in the size of its terms."""

    @settings(max_examples=150, deadline=None)
    @given(coupled_pair())
    def test_gw_cost_matches_oracle(self, case):
        A, B, c = case
        scale = max(A.diameter, B.diameter, 1.0)
        for p in (2, 4):
            want = gw_cost_bruteloop(c.G, A.D, B.D, p) ** p
            assert gw_cost(c, A, B, p) ** p == pytest.approx(want, rel=1e-9, abs=1e-12 * scale**p)

    @settings(max_examples=150, deadline=None)
    @given(coupled_pair())
    def test_hs_gap_matches_oracle(self, case):
        A, B, c = case
        scale = max(A.diameter, B.diameter, 1.0)
        want = hs_gap_bruteloop(c.G, A.D, B.D) ** 2
        assert hs_gap(A, B, c) ** 2 == pytest.approx(want, rel=1e-9, abs=1e-12 * scale**4)


class TestGwBruteforce:
    def test_relabeled_copy_is_zero(self, rng):
        A = random_metric_space(rng, 5)
        perm = rng.permutation(5)
        B = finite_space_from_matrix(A.D[np.ix_(perm, perm)], A.w)
        assert gw_bruteforce(A, B, 4) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_triangles(self):
        t1 = equilateral_triangle(1.0)
        t2 = equilateral_triangle(2.0)
        assert gw_bruteforce(t1, t2, 4) == pytest.approx((6.0 / 9.0) ** 0.25)

    def test_permutation_invariance(self, rng):
        A = random_metric_space(rng, 5)
        B = random_metric_space(rng, 5)
        perm = rng.permutation(5)
        A2 = finite_space_from_matrix(A.D[np.ix_(perm, perm)], A.w)
        assert gw_bruteforce(A2, B, 4) == pytest.approx(gw_bruteforce(A, B, 4), rel=1e-12)

class TestW4:
    def test_closed_form_single_point(self):
        assert w4_circle_grid(1) == pytest.approx(math.pi * 5.0 ** (-0.25))

    def test_doubling_halves(self):
        for n in (1, 3, 10, 64):
            assert w4_circle_grid(2 * n) == pytest.approx(w4_circle_grid(n) / 2.0)

    def test_numeric_transport_oracle(self):
        for n in (1, 4, 16, 128):
            assert abs(w4_circle_grid(n) - w4_circle_grid_numeric(n)) <= 1e-6

    def test_torus_column_against_midpoint_rule(self):
        # order-4 cost of the nearest-point map from the uniform torus:2 to
        # its n x n grid, by the midpoint rule over 200 cells per grid step
        n = 4
        (row,) = convergence_experiment(Torus(2), [n], 4)
        cells = 200 * n
        t = (np.arange(cells) + 0.5) * TWO_PI / cells
        step = TWO_PI / n
        disp_sq = (((t + step / 2.0) % step) - step / 2.0) ** 2
        want = float(np.mean((disp_sq[:, None] + disp_sq[None, :]) ** 2)) ** 0.25
        assert abs(row.w4 - want) <= 1e-4 * want


class TestHsGapAndBounds:
    def test_same_space_zero(self, rng):
        fs = random_metric_space(rng, 8)
        assert hs_gap(fs, fs, coupling_identity(fs)) == 0.0

    def test_matches_quadruple_loop(self, rng):
        A = random_metric_space(rng, 4, uniform=False)
        B = random_metric_space(rng, 5, uniform=False)
        c = coupling_product(A, B)
        assert hs_gap(A, B, c) == pytest.approx(hs_gap_bruteloop(c.G, A.D, B.D), rel=1e-10)

    def test_scaled_space_first_order(self, rng):
        # B = (1+eps) A makes every inequality step an equality, so the gap
        # sits exactly on the bound; check the first-order size and the
        # bound up to rounding
        fs = random_metric_space(rng, 12)
        eps = 0.01
        B = finite_space_from_matrix((1 + eps) * fs.D, fs.w)
        c = coupling_identity(fs)
        gap = hs_gap(fs, B, c)
        d2_norm = math.sqrt(float(fs.w @ fs.D**4 @ fs.w))
        assert gap == pytest.approx(eps * d2_norm, rel=2e-2)
        rep = check_gw_bound(fs, B, c)
        assert rep.lhs <= rep.rhs + 1e-12
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_circle_refinement_bounds_hold(self):
        for n in (16, 32):
            fine_n = 8 * n
            fine = sample(Sphere(1), SampleSpec("grid", fine_n))
            coarse = sample(Sphere(1), SampleSpec("grid", n))
            assign = nearest_grid_assignment(fine_n, n)
            coup = coupling_nearest(fine, coarse, assign)
            rep = check_gw_bound(fine, coarse, coup)
            assert rep.ok and rep.slack > 0.0
            ft = TWO_PI * np.arange(fine_n) / fine_n
            ct = TWO_PI * np.arange(n) / n
            disp = np.abs(ft - ct[assign])
            disp = np.minimum(disp, TWO_PI - disp)
            w4 = float(np.sum(fine.w * disp**4) ** 0.25)
            rep2 = check_transport_bound(fine, coarse, coup, w4)
            assert rep2.ok and rep2.slack > 0.0


class TestProcrustes:
    def test_recovers_rotation(self, rng):
        X = rng.standard_normal((30, 3))
        theta = 0.83
        Q0 = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        Y = X @ Q0  # then X = Y @ Q0.T = (Q0 Y_i)_i
        res = procrustes(X, Y)
        assert res.residual <= 1e-10
        assert np.allclose(res.Q, Q0, atol=1e-10)

    def test_handles_reflection(self, rng):
        X = rng.standard_normal((25, 2))
        R = np.array([[1.0, 0.0], [0.0, -1.0]])
        res = procrustes(X, X @ R)
        assert res.residual <= 1e-10
        assert np.linalg.det(res.Q) == pytest.approx(-1.0)

    def test_noise_scale(self, rng):
        m = 4
        X = rng.standard_normal((60, m))
        theta = 0.4
        Q0 = np.eye(m)
        Q0[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        sigma = 1e-3
        Y = (X + rng.normal(scale=sigma, size=X.shape)) @ Q0
        res = procrustes(X, Y)
        assert res.residual <= 2 * sigma * math.sqrt(m)

    def test_never_worse_than_unaligned(self, rng):
        for _ in range(10):
            X = rng.standard_normal((12, 3))
            Y = rng.standard_normal((12, 3))
            w = np.full(12, 1 / 12)
            res = procrustes(X, Y, w)
            unaligned = math.sqrt(float(np.sum(w[:, None] * (X - Y) ** 2)))
            assert res.residual <= unaligned + 1e-12
            assert np.max(np.abs(res.Q.T @ res.Q - np.eye(3))) <= 1e-10

class TestEigenPerturbation:
    def test_identical_matrices(self, rng):
        S = rng.standard_normal((12, 12))
        S = (S + S.T) / 2
        rep = eigen_perturbation_check(S, S)
        assert rep.sup_gap == 0.0 and rep.matching_ok

    def test_rank_one_perturbation(self, rng):
        S = rng.standard_normal((16, 16))
        S = (S + S.T) / 2
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        eps = 1e-3
        rep = eigen_perturbation_check(S, S + eps * np.outer(v, v))
        assert rep.sup_gap <= eps + 1e-12
        assert rep.hs_norm == pytest.approx(eps, rel=1e-10)

    def test_hundred_random_pairs_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            S1 = rng.standard_normal((n, n))
            S1 = (S1 + S1.T) / 2
            S2 = S1 + 0.1 * (lambda M: (M + M.T) / 2)(rng.standard_normal((n, n)))
            rep = eigen_perturbation_check(S1, S2)
            assert rep.matching_ok
            assert rep.sup_gap <= rep.hs_norm

    def test_circle_grid_pullback_matching(self):
        fine = sample(Sphere(1), SampleSpec("grid", 32))
        coarse = sample(Sphere(1), SampleSpec("grid", 16))
        assign = nearest_grid_assignment(32, 16)
        op_fine = double_center(fine)
        # the coarse operator pulled back to the fine index set through the map
        op_pull = double_center(FiniteSpace(D=coarse.D[np.ix_(assign, assign)], w=fine.w))
        gap = hs_gap(fine, coarse, coupling_nearest(fine, coarse, assign))
        frob = float(np.linalg.norm(op_fine.S - op_pull.S))
        assert frob <= gap + 1e-12
        rep = eigen_perturbation_check(op_fine.S, op_pull.S)
        assert rep.sup_gap <= gap + 1e-12
        # the pullback keeps the coarse nonzero spectrum
        lam_coarse = eigendecompose(double_center(coarse)).eigenvalues
        lam_pull = eigendecompose(op_pull).eigenvalues
        nz = np.sort(lam_coarse[lam_coarse != 0.0])
        got = np.sort(lam_pull[lam_pull != 0.0])
        assert got.size == nz.size
        assert np.allclose(got, nz, atol=1e-12)


def explicit_grid_coupling(k: int, n: int, refine: int):
    """The torus:k grids of refine * n and n points per factor, the
    nearest-point coupling between them and its order-4 map cost, built
    explicitly (k = 1 is the circle)."""
    fine_n = refine * n
    fine = sample(Torus(k), SampleSpec("grid", fine_n))
    grid = sample(Torus(k), SampleSpec("grid", n))
    a = nearest_grid_assignment(fine_n, n)
    idx = np.meshgrid(*[a] * k, indexing="ij")
    assign = np.ravel_multi_index([x.ravel() for x in idx], (n,) * k)
    disp = np.abs(TWO_PI * np.arange(fine_n) / fine_n - TWO_PI * a / n)
    disp = np.minimum(disp, TWO_PI - disp)
    disp_sq = sum(x.ravel() for x in np.meshgrid(*[disp**2] * k, indexing="ij"))
    w4_map = float(fine.w @ disp_sq**2) ** 0.25
    return fine, grid, coupling_nearest(fine, grid, assign), w4_map


def rel_close(got: float, want: float, rel: float = 1e-13) -> bool:
    return abs(got - want) <= rel * abs(want)


@st.composite
def grid_sizes(draw):
    """(k, n, refine) with k <= 3, n <= 12, refine <= 4 and at most 1000
    fine grid points."""
    k = draw(st.integers(1, 3))
    cap = round(1000 ** (1.0 / k))
    n = draw(st.integers(1, min(12, cap)))
    refine = draw(st.integers(1, min(4, cap // n)))
    return k, n, refine


class TestNearestMapColumns:
    """The sweep's transport and kernel-gap columns, from circle averages
    over ``refine`` fine rows, against the generic coupled sums on explicit
    fine grids."""

    @settings(max_examples=60, deadline=None)
    @given(grid_sizes())
    def test_matches_explicit_grids(self, sizes):
        k, n, refine = sizes
        fine, grid, coup, w4_map = explicit_grid_coupling(k, n, refine)
        want = check_transport_bound(fine, grid, coup, w4_map)
        gap, c_fine, w4_got = _nearest_map_columns(n, refine, k)
        assert rel_close(gap, want.lhs)
        assert rel_close(c_fine, fourth_moment_norm(fine))
        assert rel_close(w4_got, w4_map)
        assert rel_close(2.0 * c_fine * w4_got + 2.0 * w4_got**2, want.rhs)

    @pytest.mark.parametrize("space,n,refine", [
        (Sphere(1), 16, 4), (Sphere(1), 12, 3), (Torus(2), 4, 2), (Torus(2), 6, 3),
        (Torus(3), 4, 2),
    ], ids=["circle-16-4", "circle-12-3", "torus2-4-2", "torus2-6-3", "torus3-4-2"])
    def test_rows_match_explicit_bound(self, space, n, refine):
        k = space.k if isinstance(space, Torus) else 1
        (row,) = convergence_experiment(space, [n], 2 * k, refine=refine)
        fine, grid, coup, w4_map = explicit_grid_coupling(k, n, refine)
        want = check_transport_bound(fine, grid, coup, w4_map)
        assert rel_close(row.hs_lhs, want.lhs) and rel_close(row.hs_rhs, want.rhs)
        assert want.ok


class TestConvergence:
    def test_circle_rows_decrease(self):
        rows = convergence_experiment(Sphere(1), [16, 32, 64, 128], 2)
        aligned = [r.aligned_l2 for r in rows]
        assert all(a > b for a, b in zip(aligned, aligned[1:]))
        gw2 = [r.gw2_images for r in rows]
        assert all(b <= a * 1.05 for a, b in zip(gw2, gw2[1:]))
        for r in rows:
            assert r.hs_lhs <= r.hs_rhs
            assert r.w4 == w4_circle_grid(r.n)  # the torus factor is exactly 1

    def test_circle_rows_match_mpmath(self):
        # at m = 2 the grid map is sqrt(2 lam_1^(n)) (cos, sin) and the limit
        # map sqrt(2) (cos, sin), so aligned_L2 = sqrt(2) |sqrt(lam_1^(n)) - 1|
        sizes = [16, 64, 256, 1024, 2048]
        rows = convergence_experiment(Sphere(1), sizes, 2)
        with mpmath.workdps(40):
            for n, row in zip(sizes, rows):
                lam = mpmath.fsum(-(2 * mpmath.pi * min(j, n - j) / n) ** 2 / 2
                                  * mpmath.cos(2 * mpmath.pi * j / n) for j in range(n)) / n
                want = float(mpmath.sqrt(2) * abs(mpmath.sqrt(lam) - 1))
                assert abs(row.aligned_l2 - want) <= 1e-14, (n, row.aligned_l2, want)

    def test_limit_map_values(self):
        thetas = TWO_PI * np.arange(8) / 8
        L = circle_limit_map(thetas, 2)
        lam1 = 1.0
        assert np.allclose(L[:, 0], math.sqrt(2 * lam1) * np.cos(thetas), atol=1e-9)
        assert np.allclose(L[:, 1], math.sqrt(2 * lam1) * np.sin(thetas), atol=1e-9)
        L4 = circle_limit_map(thetas, 4)
        assert np.allclose(L4[:, 2], math.sqrt(2.0 / 9.0) * np.cos(3 * thetas), atol=1e-9)

    def test_torus_rows_against_limit_map(self):
        # m = 2 cuts the 4-fold top block of torus:2; it is rounded up to 4.
        rows = convergence_experiment(Torus(2), [4, 8, 16, 32], 2)
        aligned = [r.aligned_l2 for r in rows]
        assert all(0.0 < b <= 0.3 * a for a, b in zip(aligned, aligned[1:]))
        assert aligned[-1] < 0.005
        for r in rows:
            assert all(math.isfinite(v) for v in (r.w4, r.hs_lhs, r.hs_rhs))
            assert r.hs_lhs <= r.hs_rhs

    def test_circle_odd_m_rounds_up_to_whole_pairs(self):
        rows3 = convergence_experiment(Sphere(1), [16, 32, 64], 3)
        rows4 = convergence_experiment(Sphere(1), [16, 32, 64], 4)
        assert rows3 == rows4
        aligned = [r.aligned_l2 for r in rows3]
        assert all(a > b for a, b in zip(aligned, aligned[1:]))

    @pytest.mark.parametrize("space", [Sphere(1), Torus(2)], ids=["circle", "torus"])
    def test_nonpositive_m_rejected(self, space):
        # the error names the m asked for, not its round-up
        with pytest.raises(DimensionMismatch, match="got -1"):
            convergence_experiment(space, [8], -1)

    def test_unsupported_space(self):
        with pytest.raises(UnsupportedSpace):
            convergence_experiment(Sphere(2), [8, 16], 2)


def explicit_grid_row(k: int, n: int, m: int) -> tuple[float, float]:
    """Aligned residual and full-pair image distortion of the explicit
    ``torus:k`` grid embedding (k = 1 is the circle) against the limit map,
    with one circle map of m // k columns per factor in left-major order."""
    grid = sample(Torus(k), SampleSpec("grid", n))
    E = embed(eigendecompose(double_center(grid)), m)
    thetas = TWO_PI * np.arange(n) / n
    ref = np.hstack([circle_limit_map(a.ravel(), m // k)
                     for a in np.meshgrid(*[thetas] * k, indexing="ij")])
    image = [np.sqrt(np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=2)) for P in (E, ref)]
    gw2 = math.sqrt(float(grid.w @ (image[0] - image[1]) ** 2 @ grid.w))
    return procrustes(ref, E, grid.w).residual, gw2


class TestRowsFromOneCircle:
    """Every sweep row comes from one n-point circle decomposition; the
    explicit n^k-point grid is the oracle."""

    @pytest.mark.parametrize("k,m,sizes", [
        (1, 2, range(3, 33)), (1, 4, range(7, 33)), (1, 6, range(11, 25)),
        (2, 4, range(3, 17)), (2, 8, range(7, 17)), (3, 6, range(3, 7)),
    ], ids=["circle-m2", "circle-m4", "circle-m6", "torus2-m4", "torus2-m8", "torus3-m6"])
    def test_matches_explicit_grid(self, k, m, sizes):
        space = Torus(k) if k > 1 else Sphere(1)
        rows = convergence_experiment(space, list(sizes), m)
        for n, row in zip(sizes, rows):
            aligned, gw2 = explicit_grid_row(k, n, m)
            assert rel_close(row.aligned_l2, aligned, 1e-12), (n, row.aligned_l2, aligned)
            assert rel_close(row.gw2_images, gw2, 1e-12), (n, row.gw2_images, gw2)

    def test_runs_no_sample_or_eigensolver(self, monkeypatch):
        # every circle grid embedding comes from one real DFT
        def refuse(*args):
            raise AssertionError("a circle grid reached sample or the eigensolver")

        for module in (mdslab.stability, mdslab.products):
            for name in ("sample", "double_center", "eigendecompose"):
                monkeypatch.setattr(module, name, refuse)
        for space in (Sphere(1), Torus(2), Torus(3)):
            assert len(convergence_experiment(space, [4, 8], 2)) == 2
        assert math.isfinite(torus_check(16, 2, 3, n_pairs=20).max_error)

    def test_image_gap_chunks_agree(self):
        # torus:3 at n = 128 has 2^21 points, so the sum runs in two chunks
        (row,) = convergence_experiment(Torus(3), [128], 6)
        E = circle_grid_embedding(128, 2)
        ref = circle_limit_map(TWO_PI * np.arange(128) / 128, 2)
        a, b = (np.sum((P - P[0]) ** 2, axis=1) for P in (E, ref))
        grids = [np.meshgrid(*[x] * 3, indexing="ij") for x in (a, b)]
        A, B = (sum(g) for g in grids)
        assert rel_close(row.gw2_images, math.sqrt(float(np.mean((np.sqrt(A) - np.sqrt(B)) ** 2))),
                         1e-12)

    @pytest.mark.parametrize("mc", [2, 4, 6, 8])
    def test_block_rule_matches_spectrum(self, mc):
        # the sweep's guard: the top mc circle eigenvalues are whole positive
        # pairs, split from the next one, exactly when n >= 2 mc - 1
        for n in range(1, 40):
            vals = eigendecompose(double_center(sample(Sphere(1), SampleSpec("grid", n))))
            v = np.concatenate([vals.eigenvalues, np.zeros(mc + 1)])
            whole = bool(np.all(v[:mc] > 0.0)
                         and np.allclose(v[0:mc:2], v[1:mc:2], rtol=1e-9, atol=0.0)
                         and v[mc] < v[mc - 1] * (1.0 - 1e-9))
            assert whole == (n >= 2 * mc - 1), n
