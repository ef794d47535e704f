"""Sphere kernel spectra: coefficients, both evaluators, asymptotics."""
from __future__ import annotations

import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import mdslab.sphere_spectral
from conftest import coeff, s_peak, spectral_embedding, theta, zonal_value
from mdslab.spaces import Sphere, sample
from mdslab.sphere_spectral import (
    QUAD_MAX_NODES,
    QUAD_TOL_FUNK,
    QuadratureNotConverged,
    ToleranceNotReached,
    _closed_weight,
    _gauss_legendre,
    _zonal_at_angles,
    _zonal_values,
    _series_log_term,
    _sum_unimodal,
    asymptotic_scan,
    eigenvalue_closed,
    eigenvalue_quadrature,
    eigenvalue_series,
    multiplicity,
    snowflake_identity_error,
    truncated_embedding_dist_sq,
)


def alpha_ratio(d: int, n: int, s: float) -> float:
    """Term ratio theta_{2n+1}(s+1) / theta_{2n+1}(s) = (s+n+1/2)^2 / ((s+1)(s+2n+(d+3)/2))."""
    return (s + n + 0.5) ** 2 / ((s + 1.0) * (s + 2.0 * n + (d + 3.0) / 2.0))


def unit(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t)])


def c_d(d: int) -> float:
    """Series-to-eigenvalue factor sqrt(pi) Gamma(d/2) / (2 Gamma((d+1)/2))."""
    return math.exp(0.5 * math.log(math.pi) + gammaln(d / 2.0) - math.log(2.0)
                    - gammaln((d + 1.0) / 2.0))


def mpmath_closed(d: int, j: int) -> float:
    """lambda_j of S^d from 40-digit mpmath gammas, rounded once to a float.

    ``float(mpf)`` rounds to 53 bits before the subnormal grid, so its result
    can be off by one ulp below 2^-1022; the exact binary value of the mpf is
    rounded here instead (``man_exp`` drops the sign, which copysign restores).
    """
    with mpmath.workdps(40):
        half = mpmath.mpf(d + 1) / 2
        x = mpmath.mpf(j) / 2
        root = mpmath.gamma(half) * mpmath.gamma(x) / (2 * mpmath.gamma(x + half))
        value = (-1) ** (j + 1) * root**2
        man, exp = value.man_exp
        return math.copysign(float(Fraction(man) * Fraction(2) ** exp), value)


def mpmath_weight(d: int, j: int) -> mpmath.mpf:
    """|lambda_j| N(d, j) of S^d from 40-digit mpmath gammas and the exact multiplicity."""
    with mpmath.workdps(40):
        half = mpmath.mpf(d + 1) / 2
        x = mpmath.mpf(j) / 2
        return (mpmath.gamma(half) * mpmath.gamma(x) / (2 * mpmath.gamma(x + half))) ** 2 \
            * multiplicity(d, j)


def count_series_terms(monkeypatch, d: int, j: int) -> int:
    """Number of summands ``eigenvalue_series(d, j)`` evaluates, the tail integral's included."""
    counted = []

    def counting(d, j):
        log_term = _series_log_term(d, j)

        def wrapped(s):
            counted.append(np.size(s))
            return log_term(s)

        return wrapped

    monkeypatch.setattr("mdslab.sphere_spectral._series_log_term", counting)
    eigenvalue_series(d, j)
    return sum(counted)


def zonal_reference(d: int, j: int, t: np.ndarray) -> np.ndarray:
    """G_j by the recurrence of ``_zonal_values``, each step formed out of place."""
    nu = (d - 1.0) / 2.0
    s, flip = np.abs(t), np.where(t < 0.0, -1.0, 1.0)
    u = s - 1.0
    g, diff = (np.ones_like(s), None) if j == 0 else (s, u)
    for k in range(1, j):
        c = k / (k + 2.0 * nu)
        diff = (1.0 + c) * u * g + c * diff
        g = g + diff
    return g * flip if j % 2 else g


class TestCoefficients:
    def test_pinned_values(self):
        for kind, n, want in (("full", 0, -math.pi**2 / 8), ("full", 1, math.pi / 2),
                              ("full", 2, -0.5), ("snowflake", 0, -math.pi / 4),
                              ("snowflake", 1, 0.5)):
            c = coeff(kind, n)
            assert c.sign * math.exp(c.log_abs) == pytest.approx(want)

    def test_sign_pattern(self):
        for j in range(0, 40):
            a = coeff("full", 2 * j + 1)
            assert a.sign == 1
            a2 = coeff("full", 2 * j + 2)
            assert a2.sign == -1

    def test_snowflake_even_vanish(self):
        for n in range(2, 60, 2):
            b = coeff("snowflake", n)
            assert b.sign == 0 and b.log_abs == -math.inf

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
        assert 0 < count_series_terms(monkeypatch, 2, 41) < 30_000

    def test_first_block_term_count(self, monkeypatch):
        # work-count guard: the summand peaks at s = 69; first blocks of 4,096
        # terms evaluated 12,422 and of 1,024 terms 3,206
        assert count_series_terms(monkeypatch, 2, 41) < 1_000

    def test_first_block_accuracy_grid(self):
        # worst relative error 5.6e-14, at (12, 85) (9.4e-15 with first blocks of
        # 1,024 terms); with the three log-gammas of the summand formed apart and
        # subtracted it was 4.9e-10, at (1, 401)
        for d in (1, 2, 3, 5, 8, 12):
            for j in [*range(1, 100, 7), 150, 200, 300, 400, 401]:
                expect = c_d(d) * eigenvalue_closed(d, j)
                assert abs(eigenvalue_series(d, j) / expect - 1.0) <= 1e-12, (d, j)

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

    @pytest.mark.parametrize("d, j", [(1, 401), (2, 41), (3, 7), (8, 200)])
    def test_summand_matches_mpmath(self, d, j):
        # formed apart and subtracted, the three log-gammas (near 1e6 at s ~ 1e5)
        # left errors up to 5.5e-10 here at (1, 401)
        s = np.concatenate([np.arange(41.0), np.geomspace(41.0, 3e5, 150)])
        with mpmath.workdps(40):
            expect = np.array([float(0.5 * mpmath.log(mpmath.pi) - mpmath.log(8)
                                     + 2 * mpmath.loggamma(v + mpmath.mpf(j) / 2)
                                     - mpmath.loggamma(v + j + mpmath.mpf(d + 1) / 2)
                                     - mpmath.loggamma(v + 1))
                               for v in map(mpmath.mpf, s.tolist())])
        err = np.abs(_series_log_term(d, j)(s) - expect)
        assert err.max() <= 1e-12, s[np.argmax(err)]
        # Gamma(0) is infinite at j = 0, s = 0: the term is the constant coefficient's
        first = 2.5 * math.log(math.pi) - math.log(16.0) - math.lgamma((d + 1) / 2)
        assert _series_log_term(d, 0)(np.array([0.0]))[0] == first

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), j=st.integers(1, 99))
    def test_matches_closed_form_at_default_tol(self, d, j):
        assert eigenvalue_series(d, j) == pytest.approx(c_d(d) * eigenvalue_closed(d, j),
                                                        rel=1e-9, abs=0.0)


def legendre_rule_oracle(n: int) -> list[tuple[mpmath.mpf, mpmath.mpf]]:
    """The nodes in [0, 1) of the n-node Gauss-Legendre rule, descending, with their
    weights, at 30 digits: Newton's method on the three-term recurrence from
    cos(pi (4k - 1) / (4n + 2)), each root's own start, until the step is below 1e-28."""
    rule = []
    with mpmath.workdps(30):
        for k in range(1, (n + 1) // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(50):
                p_prev, p = mpmath.mpf(1), x
                for i in range(1, n):
                    p_prev, p = p, ((2 * i + 1) * x * p - i * p_prev) / (i + 1)
                dp = n * (p_prev - x * p) / (1 - x * x)
                step = p / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -28:
                    break
            else:
                raise AssertionError(f"oracle Newton did not settle at node {k} of {n}")
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [64, 65, 201])
    def test_matches_mpmath_newton(self, n):
        # a dense eigenproblem's weights are 3.1e-11 off at n = 201; these are
        # within 5.3e-15
        x, w = _gauss_legendre(n)
        for (node, weight), got_x, got_w in zip(legendre_rule_oracle(n), x[::-1], w[::-1]):
            assert abs(got_x - node) <= 2.3e-16, (n, got_x)
            assert abs(got_w / weight - 1) <= 1e-12, (n, got_x)

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 201])
    def test_mirror_order_and_sum(self, n):
        x, w = _gauss_legendre(n)
        assert x.size == w.size == n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        if n % 2:
            assert x[n // 2] == 0.0 and math.copysign(1.0, x[n // 2]) == 1.0
        # the exact sum of the float weights, free of the summation's own rounding:
        # 8.9e-16 off at n = 65; the weights are each good to a few 1e-15, so some
        # sizes below 600 reach 1.8e-15
        assert abs(math.fsum(w) - 2.0) <= 1e-15

    def test_largest_rule_builds_in_linear_memory(self):
        # a dense eigenproblem at 4,096 nodes peaks at 135 MB under tracemalloc
        tracemalloc.start()
        try:
            x, w = _gauss_legendre.__wrapped__(QUAD_MAX_NODES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert x.size == QUAD_MAX_NODES and abs(math.fsum(w) - 2.0) <= 1e-14

    def test_newton_passes_per_rule(self, monkeypatch):
        # each pass is one O(n^2) recurrence; from Tricomi's nodes three settle
        # every rule from 20 nodes on, four the smaller ones
        passes = []
        zonal_values = mdslab.sphere_spectral._zonal_values

        def counting_zonal(*args):
            passes.append(args[1])
            return zonal_values(*args)

        monkeypatch.setattr(mdslab.sphere_spectral, "_zonal_values", counting_zonal)
        for n in (2, 19, 20, 201, 1000, QUAD_MAX_NODES):
            passes.clear()
            _gauss_legendre.__wrapped__(n)
            assert passes == [n] * (4 if n < 20 else 3), n


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
        # the Funk-Hecke doubling loop re-run inline on rules from the uncached builder
        const = math.exp(math.lgamma((d + 1.0) / 2.0) - math.lgamma(d / 2.0)) / math.sqrt(math.pi)
        for j in (1, 7, 64, 99):
            def value_at(nodes):
                x, w = _gauss_legendre.__wrapped__(nodes)
                phi = 0.5 * math.pi * (x + 1.0)
                vals = (-0.5 * phi**2) * _zonal_at_angles(d, j, phi) * np.sin(phi) ** (d - 1)
                return const * 0.5 * math.pi * float(w @ vals)

            nodes = max(64, 2 * j)
            prev = value_at(nodes)
            while True:
                nodes *= 2
                assert nodes <= QUAD_MAX_NODES
                expect = value_at(nodes)
                if abs(expect - prev) <= QUAD_TOL_FUNK:
                    break
                prev = expect
            for _ in range(2):  # the second call reads the cached rules
                assert eigenvalue_quadrature(d, j).hex() == expect.hex()

    def test_doubling_stops_at_node_cap(self, monkeypatch):
        # a rule whose value grows with its size never settles
        built = []

        def rule(nodes):
            built.append(nodes)
            return np.full(1, 0.3), np.array([float(nodes)])

        monkeypatch.setattr(mdslab.sphere_spectral, "_gauss_legendre", rule)
        with pytest.raises(QuadratureNotConverged):
            eigenvalue_quadrature(2, 3)
        assert built == [64 * 2**k for k in range(7)] and built[-1] == QUAD_MAX_NODES

    def test_one_pass_gives_rule_by_rule_bits(self):
        # each rule's cosine sum evaluated on its own nodes; every (d, j, kind)
        # here settles at the first doubling
        profiles = {"full": lambda phi: -0.5 * phi**2, "snowflake": lambda phi: -0.5 * phi}
        for j in range(200):  # degree outermost, so each rule is built once
            rules = [_gauss_legendre(n) for n in (max(64, 2 * j), max(128, 4 * j))]
            for d in (1, 2, 3, 5, 8):
                const = math.exp(math.lgamma((d + 1.0) / 2.0) - math.lgamma(d / 2.0)) \
                    / math.sqrt(math.pi)
                parts = []
                for x, w in rules:
                    phi = 0.5 * math.pi * (x + 1.0)
                    parts.append((phi, w, _zonal_at_angles(d, j, phi), np.sin(phi) ** (d - 1)))
                for kind, profile in profiles.items():
                    prev, expect = (const * 0.5 * math.pi * float(w @ (profile(phi) * zonal * sine))
                                    for phi, w, zonal, sine in parts)
                    assert abs(expect - prev) <= QUAD_TOL_FUNK
                    assert eigenvalue_quadrature(d, j, kind).hex() == expect.hex(), (d, j, kind)

    def test_one_zonal_pass_when_first_doubling_settles(self, monkeypatch):
        # work-count guard: the quadrature runs one cosine sum over the joint
        # nodes of its [n, 2n] rules and no zonal recurrence (that is left to the
        # rule builder, run here before counting starts)
        passes, sums, built = [], [], []
        zonal_values, cosine_sum, rule = (mdslab.sphere_spectral._zonal_values,
                                          _zonal_at_angles, _gauss_legendre)

        def counting_zonal(*args):
            passes.append(args[:2])
            return zonal_values(*args)

        def counting_sum(d, j, phi):
            sums.append((d, j, phi.size))
            return cosine_sum(d, j, phi)

        def recording_rule(nodes):
            built.append(nodes)
            return rule(nodes)

        degrees = (0, 1, 7, 41, 99, 199)
        for j in degrees:
            rule(max(64, 2 * j)), rule(2 * max(64, 2 * j))
        monkeypatch.setattr(mdslab.sphere_spectral, "_zonal_values", counting_zonal)
        monkeypatch.setattr(mdslab.sphere_spectral, "_zonal_at_angles", counting_sum)
        monkeypatch.setattr(mdslab.sphere_spectral, "_gauss_legendre", recording_rule)
        for d in (1, 2, 3, 8):
            for j in degrees:
                for kind in ("full", "snowflake"):
                    sums.clear()
                    built.clear()
                    eigenvalue_quadrature(d, j, kind)
                    nodes = max(64, 2 * j)
                    assert built == [nodes, 2 * nodes]
                    assert sums == [(d, j, 3 * nodes)]
        assert passes == []

    @pytest.mark.parametrize("d, j", [(189, 51), (20, 300), (8, 199),
                                      *((d, j) for d in (190, 400, 999) for j in (1, 2, 3, 10, 51))])
    def test_agrees_with_closed_form_to_absolute_tolerance(self, d, j):
        # the stop rule is absolute: below about 1e-9 neither the sign nor the
        # relative size of the quadrature value is resolved (here -6.2e-42 for
        # +7.6e-56, +1.6e-30 for -3.4e-35, and 2.4e-5 relative); above d = 189
        # the closed form is the oracle's reference too
        assert abs(eigenvalue_quadrature(d, j) - eigenvalue_closed(d, j)) <= QUAD_TOL_FUNK

    def test_rule_cache_holds_a_whole_sweep(self, monkeypatch):
        # a 256-rule bound rebuilt every rule when the sweep ran d outermost
        # (1,068 misses against 268 over d <= 8, j < 200). All-zero rules, cached
        # under the builder's own bound, stand in for the builder: every value is
        # 0, so each degree settles at the first doubling and asks for the rules
        # it would ask for anyway.
        stand_in = lru_cache(maxsize=_gauss_legendre.cache_parameters()["maxsize"])(
            lambda nodes: (np.zeros(nodes), np.zeros(nodes)))
        monkeypatch.setattr(mdslab.sphere_spectral, "_gauss_legendre", stand_in)
        cases = [(d, j) for d in (2, 3) for j in range(200)]
        misses = []
        for order in (cases, sorted(cases, key=lambda c: c[::-1])):
            stand_in.cache_clear()
            for d, j in order:
                eigenvalue_quadrature(d, j)
            misses.append(stand_in.cache_info().misses)
        assert misses == [268, 268]

    def test_matches_closed_form_far_below_the_stop_rule(self):
        # the rule weights set this error: 8.8e-15 at d = 1 and 4.4e-16 above; the
        # weights of a dense eigenproblem left 1.6e-13 at d = 1
        for j in range(1, 201):
            for d in (1, 2, 3, 5, 8):
                assert abs(eigenvalue_quadrature(d, j) - eigenvalue_closed(d, j)) <= 5e-14, (d, j)

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

    def test_high_dimension_finite_without_warnings(self):
        # d = 400, j = 1000: C_j^nu(1) would be far past the float range. The
        # 2,000- and 4,000-node rules are built here, in well under 8 MB; a dense
        # eigenproblem for the 4,000-node rule alone peaks above 100 MB.
        _gauss_legendre.cache_clear()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for kind in ("full", "snowflake"):
                    assert math.isfinite(eigenvalue_quadrature(400, 1000, kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _gauss_legendre.cache_info().misses == 2
        assert peak <= 8 * 2**20


def zonal_oracle(d: int, j: int, t) -> float:
    """G_j(t) at 40 digits, t a float or an mpf: cos(j arccos t) on the circle,
    C_j^nu(t) / C_j^nu(1) above. It is (-1)^j G_j(|t|) for t < 0: near t = -1
    mpmath's Gegenbauer value loses every digit at high degree (it reads 0.0
    for G_1024 of S^50 at t = -0.99999)."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        sign = (-1) ** j if t < 0 else 1
        t = abs(t)
        if d == 1:
            return sign * float(mpmath.cos(j * mpmath.acos(t)))
        nu = mpmath.mpf(d - 1) / 2
        # zeroprec: at a zero of C_j^nu (t = 0, odd j) settle for an absolute 2^-200
        return sign * float(mpmath.gegenbauer(j, nu, t, zeroprec=200)
                            / mpmath.gegenbauer(j, nu, 1))


def zonal_angle_oracle(d: int, j: int, phi: float) -> float:
    """G_j(cos phi) at 40 digits at the float angle phi itself."""
    with mpmath.workdps(40):
        return zonal_oracle(d, j, mpmath.cos(mpmath.mpf(phi)))


class TestZonal:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 1024), st.floats(0.0, math.pi))
    @example(2, 1024, 0.7)
    @example(3, 1024, 2.9)
    @example(1, 1023, math.pi)
    @example(50, 1024, math.pi)
    def test_angle_form_mpmath_property(self, d, j, phi):
        # the cosine sum at the float angle; the recurrence on rounded cosines
        # is off by up to 1.3e-14 at j = 1024
        got = _zonal_at_angles(d, j, np.array([phi]))[0]
        assert abs(got - zonal_angle_oracle(d, j, phi)) <= 1e-14

    def test_angle_form_endpoints(self):
        phi = np.array([0.0, math.pi])
        for d in (1, 2, 3, 8, 400):
            for j in (0, 1, 4, 9, 64, 65, 1024):
                assert np.abs(_zonal_at_angles(d, j, phi) - (1.0, (-1.0) ** j)).max() <= 1e-14

    def test_angle_form_chunks_give_unchunked_bits(self, monkeypatch):
        # (400, 1000) on 6,000 nodes runs in several chunks; one chunk holding
        # every node gives the same bits
        phi = np.linspace(0.0, math.pi, 6000)
        chunked = _zonal_at_angles(400, 1000, phi)
        monkeypatch.setattr(mdslab.sphere_spectral, "_TABLE_ENTRIES", 1 << 30)
        assert np.array_equal(chunked, _zonal_at_angles(400, 1000, phi))

    def test_mpmath_grid(self):
        t = np.cos(np.linspace(0.0, math.pi, 41))
        for d in (1, 2, 3, 5, 8):
            for j in (1, 2, 3, 10, 51, 99, 200):
                expect = np.array([zonal_oracle(d, j, float(x)) for x in t])
                assert np.max(np.abs(zonal_value(d, j, t) - expect)) <= 3e-14, (d, j)

    def test_oracle_near_minus_one_at_high_degree(self):
        # mpmath's Gegenbauer value at t = -0.99999 itself reads 0.0
        t = -0.99999
        assert zonal_oracle(50, 1024, t) == pytest.approx(0.80196496284701199, abs=1e-15)
        assert abs(zonal_value(50, 1024, np.array([t]))[0] - zonal_oracle(50, 1024, t)) <= 3e-14

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 300), st.floats(-1.0, 1.0))
    def test_mpmath_property(self, d, j, t):
        assert abs(zonal_value(d, j, np.array([t]))[0] - zonal_oracle(d, j, t)) <= 3e-14

    def test_one_pass_gives_every_degree(self):
        t = np.cos(np.linspace(0.0, math.pi, 9))
        for d in (1, 4):
            values = list(_zonal_values(d, 12, t))
            assert len(values) == 13
            for j, g in enumerate(values):
                assert np.array_equal(g, zonal_value(d, j, t))
                assert np.array_equal(g, (-1) ** j * zonal_value(d, j, -t))

    def test_yielded_values_stay_unchanged(self):
        # the recurrence updates its step arrays in place, never a yielded one
        t = np.cos(np.linspace(0.0, math.pi, 33))
        for d in (1, 2, 5):
            held, copies = [], []
            for g in _zonal_values(d, 20, t):
                held.append(g)
                copies.append(g.copy())
            assert all(np.array_equal(g, kept) for g, kept in zip(held, copies))
            assert all(np.array_equal(g, zonal_reference(d, j, t)) for j, g in enumerate(held))

    def test_zonal_value_keeps_only_the_last_degree(self):
        # all 1,001 degrees of 6,000 points held at once would peak at 46 MB
        t = np.cos(np.linspace(0.0, math.pi, 6000))
        tracemalloc.start()
        try:
            zonal_value(2, 1000, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


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

    def test_even_dimension_matches_mpmath(self):
        # exact binomials below degree 64, the half-shift series from there; scipy's
        # poch was 5.6e-13 off at j = 999. Below the smallest normal float the value
        # is within one subnormal unit.
        tiny = mpmath.mpf(2) ** -1074
        with mpmath.workdps(40):
            for d in range(2, 189, 2):
                half = mpmath.mpf(d + 1) / 2
                for j in [*range(1, 322), 999, 2001, 20001]:
                    x = mpmath.mpf(j) / 2
                    root = mpmath.gamma(half) * mpmath.gamma(x) / (2 * mpmath.gamma(x + half))
                    exact = (-1) ** (j + 1) * root**2
                    err = abs(eigenvalue_closed(d, j) - exact)
                    assert err <= max(mpmath.mpf(1e-15) * abs(exact), tiny), (d, j)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 30).map(lambda k: 2 * k), j=st.integers(1, 20001))
    def test_even_dimension_two_step_ratio(self, d, j):
        # Gamma(x + 1) = x Gamma(x): lambda_{j+2} / lambda_j = (j / (j + d + 1))^2;
        # every lambda in this range is a normal float
        lam, lam_next = eigenvalue_closed(d, j), eigenvalue_closed(d, j + 2)
        expect = (j / (j + d + 1.0)) ** 2
        assert abs(lam_next / lam / expect - 1.0) <= 8 * np.finfo(float).eps

    def test_even_dimension_time(self):
        # the d = 2 truncation-bound sum; exact binomials at every degree are
        # big-integer work that grows with j, so large j take the asymptotic series
        start = time.perf_counter()
        for j in range(1, 20002, 2):
            eigenvalue_closed(2, j)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(0, 499).map(lambda k: 2 * k + 1), j=st.integers(1, 10**5))
    @example(d=567, j=457)  # subnormal, where a twice-rounded oracle is one ulp off
    def test_odd_dimension_correctly_rounded(self, d, j):
        # at odd d the value is one quotient of exact integers, so it is the
        # 40-digit value rounded to a float, subnormals and zeros included
        assert eigenvalue_closed(d, j) == mpmath_closed(d, j)

    def test_mpmath_gamma_ratio_large_odd_dimension(self):
        # the integer quotient is correctly rounded at every odd d
        for d in range(51, 190, 2):
            for j in (1, 2, 3, 10, 333, 2001):
                assert eigenvalue_closed(d, j) == mpmath_closed(d, j), (d, j)

    def test_overflowed_symbol_keeps_sign(self):
        # lambda underflows at j = 10^6, to a zero with the even-degree sign
        assert eigenvalue_closed(189, 10**6).hex() == (-0.0).hex()

    def test_circle_first_degree_exact(self):
        assert eigenvalue_closed(1, 1) == 1.0

    def test_dimension_bound(self):
        # the bound caps the cost of the integer products, not their accuracy
        assert eigenvalue_closed(189, 1) == mpmath_closed(189, 1)
        assert eigenvalue_closed(189, 3421) == 0.0  # 8.9e-326 underflows
        for d in (190, 999):
            for j in (1, 2, 3, 10, 51):
                assert eigenvalue_closed(d, j) == pytest.approx(mpmath_closed(d, j), rel=1e-15,
                                                                abs=0.0), (d, j)
        assert eigenvalue_closed(1000, 1) > 0.0
        with pytest.raises(ValueError, match="1..1000"):
            eigenvalue_closed(1001, 1)


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

    def test_pairs_must_be_vectors_in_r_d_plus_1(self):
        with pytest.raises(ValueError, match="need pairs of vectors in R\\^3"):
            snowflake_identity_error(2, 9, [(unit(0.1), unit(0.2))])
        with pytest.raises(ValueError, match="need pairs of vectors in R\\^2"):
            snowflake_identity_error(1, 9, [])

    def test_antipodal_trunc_99(self):
        err = snowflake_identity_error(1, 99, [(unit(0.0), unit(math.pi))])
        assert err <= 0.05

    def test_classical_fourier_sum_with_exact_eigenvalues(self):
        # with lambda_k = 1/k^2 (weight lambda_k N(1, k) = 2/k^2) the truncated sum
        # 4 sum (1-cos k theta)/k^2 approaches pi |theta| up to the exact tail 8 sum_{k>T odd} 1/k^2
        trunc = 99
        weights = {k: 2.0 / k**2 for k in range(1, trunc + 1, 2)}
        thetas = np.linspace(0.0, math.pi, 17)
        got = truncated_embedding_dist_sq(1, trunc, np.cos(thetas), weights)
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

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), trunc=st.integers(0, 99).map(lambda k: 2 * k + 1),
           seed=st.integers(0, 2**32 - 1))
    def test_certified_enclosure(self, d, trunc, seed):
        # 0 <= pi theta - ||M(x) - M(y)||^2_T <= 4 tail_T, with the tail
        # tail_T = pi^2 / 4 - sum_{j odd <= T} lambda_j N(d, j) from the identity at
        # antipodal points, where the upper bound is attained
        weights = {j: eigenvalue_closed(d, j) * multiplicity(d, j) for j in range(1, trunc + 1, 2)}
        tail = math.pi**2 / 4.0 - sum(weights.values())
        pts = np.random.default_rng(seed).standard_normal((20, 2, d + 1))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        cosines = np.clip(np.sum(pts[:, 0] * pts[:, 1], axis=1), -1.0, 1.0)
        cosines[:2] = (-1.0, 1.0)  # an antipodal and an identical pair
        gap = math.pi * np.arccos(cosines) - truncated_embedding_dist_sq(d, trunc, cosines, weights)
        eps = 1e-12
        assert np.all(gap >= -eps) and np.all(gap <= 4.0 * tail + eps), (gap.min(), gap.max())
        assert gap[0] == pytest.approx(4.0 * tail, abs=eps)

    @pytest.mark.parametrize("d, trunc", [(1000, 999), (500, 531), (200, 2531)])
    def test_enclosure_past_float_multiplicities(self, d, trunc):
        # N(d, trunc) is past the float range, and at d = 1000 lambda_j is
        # subnormal from about j = 303 and 0.0 at j = 999; the weights are integer
        # quotients, so the certified enclosure holds, with tail_T from mpmath
        with mpmath.workdps(40):
            tail = float(mpmath.pi**2 / 4
                         - mpmath.fsum(mpmath_weight(d, j) for j in range(1, trunc + 1, 2)))
        weights = {j: _closed_weight(d, j) for j in range(1, trunc + 1, 2)}
        cosines = np.linspace(-1.0, 1.0, 41)
        gap = math.pi * np.arccos(cosines) - truncated_embedding_dist_sq(d, trunc, cosines, weights)
        eps = 1e-12
        assert np.all(gap >= -eps) and np.all(gap <= 4.0 * tail + eps), (gap.min(), gap.max())
        e0 = np.eye(d + 1)[0]
        x, y = np.random.default_rng(d).standard_normal((2, d + 1))
        err = snowflake_identity_error(
            d, trunc, [(e0, -e0), (e0, e0), (x / np.linalg.norm(x), y / np.linalg.norm(y))])
        assert math.isfinite(err) and err == pytest.approx(4.0 * tail, abs=eps)

    @pytest.mark.parametrize("j", [301, 309, 999])
    def test_weights_past_float_range_d1000(self, j):
        assert _closed_weight(1000, j) == pytest.approx(float(mpmath_weight(1000, j)),
                                                       rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_negative_trace_enclosure(self, d):
        # The limit's trace is E[theta^2] / 2 over the angle theta between two
        # uniform points, so the even degrees sum to E[theta^2] / 2 - pi^2 / 4:
        # -pi^2 / 12 on the circle, -1 on S^2. Every even term is negative and
        # |lambda_j| N(d, j) decreases in j, so each even term past T is at most
        # the odd term before it, and for even T
        # 0 < S_even,T - limit <= pi^2 / 4 - sum_{odd j <= T - 1} lambda_j N(d, j).
        terms = np.array([eigenvalue_closed(d, j) * multiplicity(d, j) for j in range(1, 2002)])
        assert np.all(np.abs(terms[1:]) < np.abs(terms[:-1]))
        with mpmath.workdps(30):
            def moment(k):
                return mpmath.quad(lambda t: t**k * mpmath.sin(t) ** (d - 1), [0, mpmath.pi])
            limit = float(moment(2) / moment(0) / 2 - mpmath.pi**2 / 4)
        if d <= 2:
            assert limit == pytest.approx((-math.pi**2 / 12, -1.0)[d - 1], rel=1e-15)
        gap = np.cumsum(terms[1::2]) - limit  # even T = 2, 4, ..., 2000
        odd_below = np.cumsum(terms[0:-1:2])  # odd j <= T - 1
        assert np.all(gap > 0.0) and np.all(gap <= math.pi**2 / 4.0 - odd_below)

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
        want = math.sqrt(math.pi) * math.pi / 192
        assert math.exp(got.log_abs) == pytest.approx(want, rel=1e-12)

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
        peaks = [s_peak(1, n) for n in range(5, 26)]
        assert peaks == sorted(peaks)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scan_normalized_limit(self, d):
        scan = asymptotic_scan(d, range(5, 161))
        assert scan.ratio_bound <= 5.0
        limit = math.gamma((d + 1) / 2.0) ** 2 / 4.0
        assert scan.normalized[-1] == pytest.approx(limit, rel=0.03)
        assert np.array_equal(scan.lam, [eigenvalue_closed(d, 2 * n + 1) for n in range(5, 161)])


class TestCrossModuleCircleSpectrum:
    def test_grid_operator_matches_fourier_eigenvalues(self):
        fs = sample(Sphere(1), "grid", 512)
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
