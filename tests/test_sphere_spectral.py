"""Sphere kernel spectra: coefficients, both evaluators, asymptotics."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from mdslab.mds_core import spectral_embedding
from mdslab.spaces import SampleSpec, Sphere, sample
from mdslab.sphere_spectral import (
    QUAD_TOL_FUNK,
    ToleranceNotReached,
    _gauss_legendre,
    _gegenbauer_normalized,
    _series_log_term,
    _sum_unimodal,
    alpha_ratio,
    asymptotic_scan,
    coeff,
    eigenvalue_closed,
    eigenvalue_quadrature,
    eigenvalue_series,
    multiplicity,
    s_peak,
    snowflake_identity_error,
    theta,
    truncated_embedding_dist_sq,
    zonal_value,
)


def unit(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t)])


def c_d(d: int) -> float:
    """Series-to-eigenvalue factor sqrt(pi) Gamma(d/2) / (2 Gamma((d+1)/2))."""
    return math.exp(0.5 * math.log(math.pi) + gammaln(d / 2.0) - math.log(2.0)
                    - gammaln((d + 1.0) / 2.0))


class TestCoefficients:
    def test_pinned_values(self):
        assert coeff("full", 0).value == pytest.approx(-math.pi**2 / 8)
        assert coeff("full", 1).value == pytest.approx(math.pi / 2)
        assert coeff("full", 2).value == pytest.approx(-0.5)
        assert coeff("snowflake", 0).value == pytest.approx(-math.pi / 4)
        assert coeff("snowflake", 1).value == pytest.approx(0.5)

    def test_sign_pattern(self):
        for j in range(0, 40):
            a = coeff("full", 2 * j + 1)
            assert a.sign == 1
            a2 = coeff("full", 2 * j + 2)
            assert a2.sign == -1

    def test_snowflake_even_vanish(self):
        for n in range(2, 60, 2):
            b = coeff("snowflake", n)
            assert b.sign == 0 and b.value == 0.0

    def test_pi_b_equals_positive_part_of_a(self):
        # log-space identity over n = 1..200
        for n in range(1, 201):
            a = coeff("full", n)
            b = coeff("snowflake", n)
            if n % 2 == 0:
                assert a.sign < 0 and b.sign == 0
                continue
            lhs = math.log(math.pi) + b.log_abs
            rhs = a.log_abs
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            coeff("bogus", 3)


class TestSeriesEvaluator:
    def test_circle_first_degree_gauss_oracle(self):
        # closed form by Gauss summation of the hypergeometric series: pi/2
        assert eigenvalue_series(1, 1) == pytest.approx(math.pi / 2, rel=1e-10)

    def test_circle_third_degree_gauss_oracle(self):
        # same oracle with shifted parameters gives pi/18
        assert eigenvalue_series(1, 3) == pytest.approx(math.pi / 18, rel=1e-9)

    def test_d2_first_degree_closed_form(self):
        assert eigenvalue_series(2, 1) == pytest.approx(math.pi**2 / 16, rel=1e-10)

    def test_constant_degree_negative(self):
        val = eigenvalue_series(1, 0)
        assert math.isfinite(val) and val < 0.0

    def test_parity_signs(self):
        for d in (1, 2, 3):
            for j in (1, 3, 7):
                assert eigenvalue_series(d, j) > 0.0
            for j in (2, 4, 8):
                assert eigenvalue_series(d, j) < 0.0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ToleranceNotReached):
            _sum_unimodal(lambda s: -np.log1p(s) * 1.001, tol=1e-9, budget=2000)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_zeta_oracle(self, p):
        # sum_{s >= 0} (1 + s)^-p = zeta(p); the tail-corrected total settles long
        # before the terms fall to tol times the sum
        total = math.exp(_sum_unimodal(lambda s: -p * np.log1p(s), tol=1e-9))
        assert total == pytest.approx(float(mpmath.zeta(p)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.001, 1.05])
    def test_slow_power_law_raises(self, p):
        # the tail estimate is poor on a near-harmonic tail, so totals never settle
        with pytest.raises(ToleranceNotReached):
            _sum_unimodal(lambda s: -p * np.log1p(s), tol=1e-9, budget=10**6)

    def test_term_count_guard(self, monkeypatch):
        # the 8-small-terms rule evaluated 258,115 terms here
        counted = []

        def counting(d, j):
            log_term = _series_log_term(d, j)

            def wrapped(s):
                counted.append(np.size(s))
                return log_term(s)

            return wrapped

        monkeypatch.setattr("mdslab.sphere_spectral._series_log_term", counting)
        eigenvalue_series(2, 41)
        assert 0 < sum(counted) < 30_000

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_summand_matches_coefficient_route(self, d):
        # theta_j(s) is a_{2s+j} (2s+j)!/(2s)! Gamma(s+1/2) / (2^{j+1} Gamma(s+j+(d+1)/2)),
        # the Taylor coefficient paired with the degree-j harmonic. Both routes cancel
        # log-gammas up to gammaln(2s+j+1) (8e4 at s = 5000), so they can differ by
        # a few ulps of that.
        eps = np.finfo(float).eps
        for j in range(42):
            log_term = _series_log_term(d, j)
            for s in (0, 1, 2, 10, 100, 1000, 5000):
                route = (coeff("full", 2 * s + j).log_abs + gammaln(2 * s + j + 1)
                         - gammaln(2 * s + 1) + gammaln(s + 0.5)
                         - gammaln(s + j + (d + 1) / 2) - (j + 1) * math.log(2.0))
                got = float(log_term(np.array([float(s)]))[0])
                assert abs(got - route) <= 8 * eps * max(1.0, gammaln(2 * s + j + 1)), (j, s)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), j=st.integers(1, 99))
    def test_matches_closed_form_at_default_tol(self, d, j):
        assert eigenvalue_series(d, j) == pytest.approx(c_d(d) * eigenvalue_closed(d, j),
                                                        rel=1e-9, abs=0.0)


class TestQuadrature:
    def test_circle_fourier_values(self):
        assert eigenvalue_quadrature(1, 1, "full") == pytest.approx(1.0, abs=1e-10)
        assert eigenvalue_quadrature(1, 2, "full") == pytest.approx(-0.25, abs=1e-10)
        assert eigenvalue_quadrature(1, 1, "snowflake") == pytest.approx(1 / math.pi, abs=1e-10)

    def test_circle_oracle_through_degree_20(self):
        for k in range(1, 21):
            expect = (-1.0) ** (k + 1) / k**2
            assert eigenvalue_quadrature(1, k, "full") == pytest.approx(expect, abs=1e-8)

    def test_full_equals_pi_snowflake_odd(self):
        for k in (1, 3, 5, 9, 15):
            full = eigenvalue_quadrature(1, k, "full")
            snow = eigenvalue_quadrature(1, k, "snowflake")
            assert full == pytest.approx(math.pi * snow, abs=1e-8)

    def test_snowflake_even_degrees_vanish(self):
        for d in (1, 2):
            for k in (2, 4):
                assert eigenvalue_quadrature(d, k, "snowflake") == pytest.approx(0.0, abs=1e-8)

    def test_funk_hecke_d2_degree1(self):
        assert eigenvalue_quadrature(2, 1, "full") == pytest.approx(math.pi**2 / 16, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cached_rule_gives_uncached_bits(self, d):
        # the Funk-Hecke doubling loop re-run inline on fresh leggauss arrays
        const = math.exp(gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0)) / math.sqrt(math.pi)
        nu = (d - 1.0) / 2.0
        for j in (1, 7, 64, 99):
            def value_at(nodes):
                x, w = np.polynomial.legendre.leggauss(nodes)
                phi = 0.5 * math.pi * (x + 1.0)
                vals = (-0.5 * phi**2) * _gegenbauer_normalized(j, nu, np.cos(phi)) \
                    * np.sin(phi) ** (d - 1)
                return const * 0.5 * math.pi * float(w @ vals)

            nodes = max(64, 2 * j)
            prev = value_at(nodes)
            while True:
                nodes *= 2
                assert nodes <= 131072
                expect = value_at(nodes)
                if abs(expect - prev) <= QUAD_TOL_FUNK:
                    break
                prev = expect
            for _ in range(2):  # the second call reads the cached rules
                assert eigenvalue_quadrature(d, j).hex() == expect.hex()

    def test_cached_rule_is_read_only(self):
        x, w = _gauss_legendre(128)
        assert _gauss_legendre(128)[0] is x
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_zonal_normalization(self):
        t = np.array([1.0])
        for d in (1, 2, 3):
            for j in (0, 1, 4, 9):
                assert zonal_value(d, j, t)[0] == pytest.approx(1.0, abs=1e-12)


class TestCalibration:
    @pytest.mark.parametrize("d", [1, 2])
    def test_ratio_constant_over_odd_degrees(self, d):
        ratios = [
            eigenvalue_series(d, j) / eigenvalue_quadrature(d, j, "full")
            for j in range(1, 16, 2)
        ]
        ratios = np.array(ratios)
        spread = (ratios.max() - ratios.min()) / ratios.mean()
        assert ratios.min() > 0.0
        assert spread <= 1e-6

    def test_spectrum_table_invariants(self):
        # the per-degree evaluators agree in sign, and their ratio is finite and positive
        assert multiplicity(2, 0) == 1
        ratios = []
        for j in range(1, 9):
            lam_series = eigenvalue_series(2, j)
            lam_quadrature = eigenvalue_quadrature(2, j, "full")
            if j % 2 == 1:
                assert lam_series > 0 and lam_quadrature > 0
                assert eigenvalue_quadrature(2, j, "snowflake") > 0
            else:
                assert lam_series < 0 and lam_quadrature < 0
            ratios.append(lam_series / lam_quadrature)
        assert np.all(np.isfinite(ratios))
        assert min(ratios) > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_ratio_is_c_d(self, d):
        assert c_d(d) == pytest.approx(
            {1: math.pi / 2, 2: 1.0, 3: math.pi / 4, 4: 2.0 / 3.0, 5: 3.0 * math.pi / 16}[d],
            rel=1e-15)
        for j in range(16):
            ratio = eigenvalue_series(d, j) / eigenvalue_quadrature(d, j, "full")
            assert ratio == pytest.approx(c_d(d), rel=1e-10, abs=0.0)


class TestClosedForm:
    def test_pinned_values(self):
        for k in range(1, 12):
            assert eigenvalue_closed(1, k) == pytest.approx((-1.0) ** (k + 1) / k**2, rel=1e-14)
        assert eigenvalue_closed(2, 1) == pytest.approx(math.pi**2 / 16, rel=1e-14)
        assert eigenvalue_closed(3, 2) == pytest.approx(-1.0 / 16.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            eigenvalue_closed(2, 0)
        with pytest.raises(ValueError):
            eigenvalue_closed(0, 3)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 8), j=st.integers(1, 200))
    def test_matches_quadrature(self, d, j):
        lam = eigenvalue_closed(d, j)
        assert (lam > 0.0) == (j % 2 == 1) and math.isfinite(lam)
        assert eigenvalue_quadrature(d, j, "full") == pytest.approx(lam, abs=1e-9)
        snow = lam / math.pi if j % 2 == 1 else 0.0
        assert eigenvalue_quadrature(d, j, "snowflake") == pytest.approx(snow, abs=1e-9)

    @pytest.mark.parametrize("d, j", [(1, 1), (1, 6), (2, 3), (3, 4), (4, 9), (6, 2), (8, 11)])
    def test_mpmath_funk_hecke_integral(self, d, j):
        # 30-digit Funk-Hecke pairing of -phi^2/2 with the normalized zonal function
        with mpmath.workdps(30):
            nu = mpmath.mpf(d - 1) / 2
            if d == 1:
                zonal = lambda phi: mpmath.cos(j * phi)
            else:
                at_one = mpmath.gegenbauer(j, nu, 1)
                zonal = lambda phi: mpmath.gegenbauer(j, nu, mpmath.cos(phi)) / at_one
            const = mpmath.gamma(nu + 1) / (mpmath.gamma(mpmath.mpf(d) / 2) * mpmath.sqrt(mpmath.pi))
            integral = const * mpmath.quad(
                lambda phi: -phi**2 / 2 * zonal(phi) * mpmath.sin(phi) ** (d - 1),
                mpmath.linspace(0, mpmath.pi, j + 2))
            root = (mpmath.gamma(nu + 1) * mpmath.gamma(mpmath.mpf(j) / 2)
                    / (2 * mpmath.gamma(mpmath.mpf(j + d + 1) / 2)))
            exact = (-1) ** (j + 1) * root**2
            assert abs(integral - exact) <= mpmath.mpf(10) ** -25 * abs(exact)
        assert eigenvalue_closed(d, j) == pytest.approx(float(integral), rel=1e-13)


    def test_mpmath_gamma_ratio_grid(self):
        # 40-digit reference; the log-gamma difference lost up to 4e-11 at large j
        degrees = [*range(1, 322), 999, 2001, 20001]
        with mpmath.workdps(40):
            for d in range(1, 9):
                half = mpmath.mpf(d + 1) / 2
                for j in degrees:
                    x = mpmath.mpf(j) / 2
                    root = mpmath.gamma(half) * mpmath.gamma(x) / (2 * mpmath.gamma(x + half))
                    exact = float((-1) ** (j + 1) * root**2)
                    assert eigenvalue_closed(d, j) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_circle_first_degree_exact(self):
        assert eigenvalue_closed(1, 1) == 1.0

    def test_dimension_bound(self):
        # up to d = 189 the Pochhammer symbol overflows only where lambda_j underflows
        with mpmath.workdps(40):
            half = mpmath.mpf(190) / 2
            exact = float((mpmath.gamma(half) * mpmath.gamma(0.5) / (2 * mpmath.gamma(half + 0.5)))**2)
        assert eigenvalue_closed(189, 1) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert eigenvalue_closed(189, 3421) == 0.0  # 8.9e-326 underflows
        with pytest.raises(ValueError):
            eigenvalue_closed(190, 1)


class TestMultiplicity:
    def test_known_families(self):
        for j in range(1, 10):
            assert multiplicity(1, j) == 2
            assert multiplicity(2, j) == 2 * j + 1
            assert multiplicity(3, j) == (j + 1) ** 2
        for d in range(1, 7):
            assert multiplicity(d, 0) == 1

    def test_formula_matches_factorials(self):
        for d in range(2, 7):
            for j in range(1, 12):
                expect = (
                    (2 * j + d - 1)
                    * math.factorial(j + d - 2)
                    // (math.factorial(j) * math.factorial(d - 1))
                )
                assert multiplicity(d, j) == expect


class TestSnowflakeIdentity:
    def test_identical_points_zero(self):
        x = unit(0.3)
        assert snowflake_identity_error(1, 9, [(x, x)]) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_trunc_99(self):
        err = snowflake_identity_error(1, 99, [(unit(0.0), unit(math.pi))])
        assert err <= 0.05

    def test_classical_fourier_sum_with_exact_eigenvalues(self):
        # with lambda_k = 1/k^2 the truncated sum 4 sum (1-cos k theta)/k^2
        # approaches pi |theta| up to the exact tail 8 sum_{k>T odd} 1/k^2
        trunc = 99
        lam = {k: 1.0 / k**2 for k in range(1, trunc + 1, 2)}
        thetas = np.linspace(0.0, math.pi, 17)
        got = truncated_embedding_dist_sq(1, trunc, np.cos(thetas), lam)
        # exact tail: sum over odd k of 1/k^2 is pi^2/8
        tail = math.pi**2 - 8.0 * sum(1.0 / k**2 for k in range(1, trunc + 1, 2))
        assert np.all(np.abs(got - math.pi * thetas) <= tail + 1e-12)
        assert np.abs(got[-1] - math.pi * thetas[-1]) == pytest.approx(tail, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_priori_truncation_bound(self, d):
        # |1 - G_j| <= 2, so the error is at most sum_{j odd > 99} 4 lambda_j N(d, j):
        # summed exactly up to K, then each later term is <= C / j^2 (exact for
        # d = 1; from Wendel's Gamma(x)/Gamma(x+1/2) <= sqrt(x+1/2)/x for d = 2),
        # and sum_{j odd > K} C / j^2 <= (1/2) int_K^inf C / x^2 dx = C / (2K).
        trunc, top = 99, 20001
        const = {1: 8.0, 2: 4.0 * math.pi}[d]
        partial = sum(4.0 * eigenvalue_closed(d, j) * multiplicity(d, j)
                      for j in range(trunc + 2, top + 1, 2))
        bound = partial + const / (2.0 * top)
        rng = np.random.default_rng(40 + d)
        pts = rng.standard_normal((300, 2, d + 1))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        err = snowflake_identity_error(d, trunc, [(p[0], p[1]) for p in pts])
        assert err <= bound
        if d == 1:
            # antipodal points have 1 - G_j = 2 at every odd j: the bound is attained
            antipodal = snowflake_identity_error(1, trunc, [(unit(0.3), unit(0.3 + math.pi))])
            assert partial - 1e-12 <= antipodal <= bound

    def test_d2_identity_coarse(self, rng):
        pts = rng.standard_normal((12, 2, 3))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        pairs = [(p[0], p[1]) for p in pts]
        err = snowflake_identity_error(2, 39, pairs)
        assert err <= 0.2


class TestAppendixAsymptotics:
    def test_theta_pinned_value(self):
        got = theta(1, 1, 0)
        assert got.sign == 1
        assert got.value == pytest.approx(math.sqrt(math.pi) * math.pi / 192, rel=1e-12)

    def test_theta_ratio_equals_alpha(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(1, 40))
            s = int(rng.integers(0, 200))
            ratio = math.exp(theta(d, n, s + 1).log_abs - theta(d, n, s).log_abs)
            assert ratio == pytest.approx(alpha_ratio(d, n, s), rel=1e-12)

    def test_alpha_at_sstar_is_one(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            sstar = (2 * n - 1) ** 2 / (2 * (d + 3)) - 1.0
            assert alpha_ratio(d, n, sstar) == pytest.approx(1.0, rel=1e-12)

    def test_s_peak_pinned(self):
        assert s_peak(1, 10) == 45
        assert s_peak(3, 1) == 0

    def test_s_peak_matches_scan_argmax(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 25))
            peak = s_peak(d, n)
            hi = 3 * peak + 60
            logs = [theta(d, n, s).log_abs for s in range(hi)]
            assert int(np.argmax(logs)) == peak

    def test_unimodality_via_alpha_signs(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 30))
            peak = s_peak(d, n)
            for s in range(0, peak):
                assert alpha_ratio(d, n, s) >= 1.0
            for s in range(peak, peak + 40):
                assert alpha_ratio(d, n, s + 1) <= 1.0 or s < peak

    def test_theta_sum_consistent_with_series(self):
        # sum_s theta(d, n, s) = c_d * lambda_{2n+1}, in closed form
        assert c_d(1) * eigenvalue_closed(1, 1) == pytest.approx(math.pi / 2, rel=1e-10)
        for d, n in ((1, 0), (1, 3), (2, 2), (3, 4)):
            a = c_d(d) * eigenvalue_closed(d, 2 * n + 1)
            b = eigenvalue_series(d, 2 * n + 1)
            assert a == pytest.approx(b, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), n=st.integers(0, 60))
    def test_closed_form_matches_peak_aware_sum(self, d, n):
        log_sum = _sum_unimodal(_series_log_term(d, 2 * n + 1), 1e-8)
        summed = math.exp(float(gammaln(d / 2.0)) + log_sum)
        assert c_d(d) * eigenvalue_closed(d, 2 * n + 1) == pytest.approx(summed, rel=1e-8)

    def test_scan_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n >= 1"):
            asymptotic_scan(1, [0, 1, 2])

    def test_scan_ratio_bounds(self):
        scan1 = asymptotic_scan(1, range(5, 26))
        assert scan1.ratio_bound <= 5.0
        scan2 = asymptotic_scan(2, range(5, 16))
        assert scan2.ratio_bound <= 5.0
        assert np.all(scan1.s_peaks[:-1] <= scan1.s_peaks[1:])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scan_normalized_limit(self, d):
        scan = asymptotic_scan(d, range(5, 161))
        assert scan.ratio_bound <= 5.0
        limit = math.gamma((d + 1) / 2.0) ** 2 / 4.0
        assert scan.normalized[-1] == pytest.approx(limit, rel=0.03)
        assert np.array_equal(scan.lam, [eigenvalue_closed(d, 2 * n + 1) for n in range(5, 161)])


class TestCrossModuleCircleSpectrum:
    def test_grid_operator_matches_fourier_eigenvalues(self):
        fs = sample(Sphere(1), SampleSpec(mode="grid", n=512))
        res = spectral_embedding(fs)
        lam = np.sort(res.eigenvalues)[::-1]
        # positive eigenvalues per odd degree k, negative per even degree
        for rank, k in enumerate((1, 3, 5)):
            pair = lam[2 * rank : 2 * rank + 2]
            assert np.allclose(pair, 1.0 / k**2, atol=1e-3)
        neg = np.sort(res.eigenvalues)
        for rank, k in enumerate((2, 4)):
            pair = neg[2 * rank : 2 * rank + 2]
            assert np.allclose(pair, -1.0 / k**2, atol=1e-3)
