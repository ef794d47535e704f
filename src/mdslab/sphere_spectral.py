"""Spectra of the sphere kernel operators.

The zonal kernels k(x, y) = -arccos(x.y)^2 / 2 (full) and -arccos(x.y) / 2
(snowflake, the square-root metric transform) act on L^2 of the uniformly
measured sphere S^d. Spherical harmonics of degree j are eigenfunctions; this
module evaluates the eigenvalues two independent ways:

* a power-series route through the Taylor coefficients of arccos^2 and
  arccos, summed in log space with a tail estimate (the summand is unimodal
  with a peak at s = Theta(n^2), so naive early stopping is wrong);
* a quadrature route: Fourier coefficients for d = 1 and the Funk-Hecke
  pairing against normalized Gegenbauer polynomials for d >= 2.

The two agree per dimension up to a single degree-independent positive
factor; the quadrature normalization is the one under which the truncated
embedding satisfies ||M(x) - M(y)||^2 = pi * dist(x, y), so the quadrature
route is treated as ground truth for every distance identity. The odd-degree
(positive) eigenvalue lambda_{2n+1} = Gamma(d/2) sum_s theta_n(s) is Gauss's
2F1(a, a; c; 1) with a = n + 1/2, c = 2n + (d+3)/2; as c - a - b = (d+1)/2 > 0,
lambda_{2n+1} = Gamma(d/2) (sqrt(pi)/8) Gamma(n+1/2)^2 Gamma((d+1)/2) /
Gamma(n+1+d/2)^2 ~ n^{-d-1} in closed form; theta_n, its ratio and peak stay exposed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

SERIES_TERM_BUDGET = 10**7
SERIES_CONSECUTIVE = 8
QUAD_TOL_D1 = 1e-10
QUAD_TOL_FUNK = 1e-9


class ToleranceNotReached(RuntimeError):
    """Series summation exhausted its term budget before converging."""


class QuadratureNotConverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Kernel Taylor coefficients, in sign + log-magnitude form


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign and log magnitude (sign 0 means zero)."""

    sign: int
    log_abs: float

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


def coeff(kind: str, n: int) -> SignedLog:
    """Taylor coefficient of the zonal kernel in powers of the cosine.

    kind "full" gives the coefficients a_n of -arccos(t)^2 / 2:
    a_0 = -pi^2/8, a_{2j+1} = pi (2j)! / ((2j+1) 2^{2j+1} (j!)^2) > 0,
    a_{2j+2} = -4^j (j!)^2 / (2 (j+1) (2j+1) (2j)!) < 0 (equivalently
    -4^m (m!)^2 / (4 m^2 (2m)!) at n = 2m, from the square of the arcsine
    series). kind "snowflake" gives the coefficients b_n of -arccos(t) / 2:
    b_0 = -pi/4, b_{2j+1} = a_{2j+1}/pi, and b_n = 0 for even n >= 2.
    Computed through log-gamma so large n do not overflow.
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if kind not in ("full", "snowflake"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if n == 0:
        if kind == "full":
            return SignedLog(-1, 2.0 * LNPI - math.log(8.0))
        return SignedLog(-1, LNPI - math.log(4.0))
    if n % 2 == 1:
        j = (n - 1) // 2
        log_odd = (
            LNPI
            + gammaln(2 * j + 1)
            - math.log(2 * j + 1)
            - (2 * j + 1) * LN2
            - 2.0 * gammaln(j + 1)
        )
        if kind == "full":
            return SignedLog(1, float(log_odd))
        return SignedLog(1, float(log_odd - LNPI))
    if kind == "snowflake":
        return SignedLog(0, -math.inf)
    j = (n - 2) // 2
    log_even = (
        2 * j * LN2
        + 2.0 * gammaln(j + 1)
        - LN2
        - math.log(j + 1)
        - math.log(2 * j + 1)
        - gammaln(2 * j + 1)
    )
    return SignedLog(-1, float(log_even))


# ---------------------------------------------------------------------------
# Unimodal positive series summation with Euler-Maclaurin tail estimate


@lru_cache(maxsize=256)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], cached per node count (256 latest); shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _first_streak_end(ok: np.ndarray, carry: int, need: int) -> tuple[Optional[int], int]:
    """First index where a True-run (with ``carry`` Trues before index 0)
    reaches ``need``; also the run length at the end of the block."""
    n = ok.size
    idx = np.arange(n)
    last_false = np.where(~ok, idx, -1)
    np.maximum.accumulate(last_false, out=last_false)
    run = idx - last_false
    run = run + np.where(last_false < 0, carry, 0)
    hits = np.flatnonzero((run >= need) & ok)
    if hits.size:
        return int(hits[0]), 0
    return None, int(run[-1]) if ok[-1] else 0


def _em_tail_over_partial(log_term: Callable[[np.ndarray], np.ndarray], s_start: float,
                          log_partial: float) -> float:
    """Euler-Maclaurin estimate of sum_{s >= s_start} exp(log_term(s)),
    returned as a ratio to exp(log_partial).

    The integral is taken under t = s_start / v^2, which turns the
    power-law tail into a polynomial-like integrand on (0, 1].
    """
    x, w = _gauss_legendre(64)
    v = 0.5 * (x + 1.0)
    t = s_start / v**2
    vals = np.exp(log_term(t) - log_partial) * (2.0 * s_start / v**3)
    integral = 0.5 * float(w @ vals)
    f0 = float(np.exp(log_term(np.array([s_start]))[0] - log_partial))
    h = 1e-3
    lp = float(log_term(np.array([s_start + h]))[0])
    lm = float(log_term(np.array([s_start - h]))[0])
    dlog = (lp - lm) / (2.0 * h)
    return integral + 0.5 * f0 - f0 * dlog / 12.0


def _sum_unimodal(log_term: Callable[[np.ndarray], np.ndarray], tol: float,
                  budget: int = SERIES_TERM_BUDGET) -> float:
    """Log of sum_{s=0}^inf exp(log_term(s)) for a unimodal positive summand.

    Terms are accumulated past the peak until ``SERIES_CONSECUTIVE``
    consecutive terms fall below tol times the partial sum, then the
    remaining tail is estimated by Euler-Maclaurin. Raises
    :class:`ToleranceNotReached` if the budget runs out first.
    """
    log_tol = math.log(tol)
    log_sum = -math.inf
    peak = -math.inf
    carry = 0
    s0 = 0
    block = 4096
    stop_at: Optional[int] = None
    while s0 < budget:
        hi = min(s0 + block, budget)
        s = np.arange(s0, hi, dtype=float)
        lt = log_term(s)
        prev_max = np.maximum.accumulate(np.concatenate(([peak], lt)))[:-1]
        past_peak = lt < prev_max
        ok = past_peak & (lt < log_tol + log_sum)
        hit, carry = _first_streak_end(ok, carry, SERIES_CONSECUTIVE)
        if hit is not None:
            log_sum = float(np.logaddexp(log_sum, logsumexp(lt[: hit + 1])))
            stop_at = s0 + hit
            break
        log_sum = float(np.logaddexp(log_sum, logsumexp(lt)))
        peak = max(peak, float(lt.max()))
        s0 = hi
        block = min(block * 2, 262144)
    if stop_at is None:
        raise ToleranceNotReached(
            f"series did not reach tol={tol} within {budget} terms"
        )
    tail_ratio = _em_tail_over_partial(log_term, float(stop_at + 1), log_sum)
    return log_sum + math.log1p(max(tail_ratio, 0.0))


# ---------------------------------------------------------------------------
# Series evaluator for the full-kernel eigenvalues


def _log_coeff_full_arr(n2: np.ndarray, j_parity_odd: bool) -> np.ndarray:
    """log |a_{n2}| for an array of (real) indices n2 of fixed parity."""
    if j_parity_odd:
        m = (n2 - 1.0) / 2.0
        return (
            LNPI
            + gammaln(2.0 * m + 1.0)
            - np.log(2.0 * m + 1.0)
            - (2.0 * m + 1.0) * LN2
            - 2.0 * gammaln(m + 1.0)
        )
    m = np.maximum((n2 - 2.0) / 2.0, -0.25)
    vals = (
        2.0 * m * LN2
        + 2.0 * gammaln(m + 1.0)
        - LN2
        - np.log(m + 1.0)
        - np.log(2.0 * m + 1.0)
        - gammaln(2.0 * m + 1.0)
    )
    # n2 == 0 is the constant coefficient -pi^2/8, outside the even formula
    return np.where(n2 < 0.5, 2.0 * LNPI - math.log(8.0), vals)


def _series_log_term(d: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
    odd = j % 2 == 1

    def log_term(s: np.ndarray) -> np.ndarray:
        n2 = 2.0 * s + j
        la = _log_coeff_full_arr(n2, odd)
        return (
            la
            + gammaln(n2 + 1.0)
            - gammaln(2.0 * s + 1.0)
            + gammaln(s + 0.5)
            - gammaln(s + j + (d + 1.0) / 2.0)
        )

    return log_term


def eigenvalue_series(d: int, j: int, tol: float = 1e-9) -> float:
    """Eigenvalue of the full kernel on degree-j spherical harmonics of S^d,
    by direct summation of the coefficient series

        Gamma(d/2) / 2^{j+1} * sum_s a_{2s+j} (2s+j)!/(2s)!
                                 * Gamma(s+1/2) / Gamma(s+j+(d+1)/2).

    All terms of one series share a sign (2s + j has fixed parity), so the
    magnitude is summed in log space; the sign is positive exactly for odd j.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    sign = 1.0 if j % 2 == 1 else -1.0
    lognorm = float(gammaln(d / 2.0)) - (j + 1) * LN2
    log_sum = _sum_unimodal(_series_log_term(d, j), tol)
    return sign * math.exp(lognorm + log_sum)


# ---------------------------------------------------------------------------
# Quadrature evaluator (ground truth for distance identities)


def _kernel_profile(kind: str) -> Callable[[np.ndarray], np.ndarray]:
    if kind == "full":
        return lambda phi: -0.5 * phi**2
    if kind == "snowflake":
        return lambda phi: -0.5 * phi
    raise ValueError(f"unknown kernel kind {kind!r}")


def _gl_on(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
           rule: tuple[np.ndarray, np.ndarray]) -> float:
    x, w = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(w @ f(mid + half * x))


def _adaptive_gl(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 tol: float, depth: int = 0) -> float:
    coarse = _gl_on(f, a, b, _gauss_legendre(16))
    fine = _gl_on(f, a, b, _gauss_legendre(32))
    if abs(fine - coarse) <= tol:
        return fine
    if depth >= 48:
        raise QuadratureNotConverged(
            f"adaptive quadrature stalled on [{a}, {b}] at tol={tol}"
        )
    mid = 0.5 * (a + b)
    return _adaptive_gl(f, a, mid, tol / 2.0, depth + 1) + _adaptive_gl(
        f, mid, b, tol / 2.0, depth + 1
    )


def _gegenbauer_normalized(j: int, nu: float, t: np.ndarray) -> np.ndarray:
    """C_j^nu(t) / C_j^nu(1) by the three-term recurrence."""
    if j == 0:
        return np.ones_like(t)
    c_prev = np.ones_like(t)
    c_cur = 2.0 * nu * t
    for k in range(1, j):
        c_next = (2.0 * (k + nu) * t * c_cur - (k + 2.0 * nu - 1.0) * c_prev) / (k + 1.0)
        c_prev, c_cur = c_cur, c_next
    at_one = math.exp(gammaln(j + 2.0 * nu) - gammaln(2.0 * nu) - gammaln(j + 1.0))
    return c_cur / at_one


def zonal_value(d: int, j: int, t: np.ndarray) -> np.ndarray:
    """Normalized zonal function of degree j at cosine values t (equals 1 at t = 1)."""
    t = np.asarray(t, dtype=float)
    if d == 1:
        return np.cos(j * np.arccos(np.clip(t, -1.0, 1.0)))
    return _gegenbauer_normalized(j, (d - 1.0) / 2.0, t)


def multiplicity(d: int, j: int) -> int:
    """Dimension of the degree-j spherical harmonic space on S^d."""
    if j == 0:
        return 1
    if d == 1:
        return 2
    return (2 * j + d - 1) * math.comb(j + d - 2, d - 2) // (d - 1)


def eigenvalue_quadrature(d: int, j: int, kind: str = "full") -> float:
    """Eigenvalue of the zonal kernel on degree-j harmonics, by quadrature.

    For d = 1 this is the Fourier coefficient (1/2pi) int k(theta) cos(j theta)
    by adaptive Gauss-Legendre panels (absolute tolerance 1e-10). For d >= 2
    it is the Funk-Hecke pairing of the kernel profile with the normalized
    degree-j Gegenbauer polynomial under the normalized surface measure,
    evaluated in the angle variable (where the integrand is analytic) with
    node counts doubled until successive values agree to 1e-9.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    f = _kernel_profile(kind)
    if d == 1:
        integrand = lambda phi: f(phi) * np.cos(j * phi)
        return _adaptive_gl(integrand, 0.0, math.pi, QUAD_TOL_D1) / math.pi
    const = math.exp(gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0)) / math.sqrt(math.pi)
    nu = (d - 1.0) / 2.0

    def value_at(nodes: int) -> float:
        x, w = _gauss_legendre(nodes)
        phi = 0.5 * math.pi * (x + 1.0)
        vals = f(phi) * _gegenbauer_normalized(j, nu, np.cos(phi)) * np.sin(phi) ** (d - 1)
        return const * 0.5 * math.pi * float(w @ vals)

    nodes = max(64, 2 * j)
    prev = value_at(nodes)
    while nodes <= 65536:
        nodes *= 2
        cur = value_at(nodes)
        if abs(cur - prev) <= QUAD_TOL_FUNK:
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"Funk-Hecke quadrature for d={d}, j={j} did not stabilize at {QUAD_TOL_FUNK}"
    )


# ---------------------------------------------------------------------------
# Spectrum tables and the snowflake distance identity


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    lam_series: float
    lam_quadrature: float
    lam_quadrature_snowflake: float
    multiplicity: int


@dataclass(frozen=True)
class SphereSpectrum:
    """Per-degree eigenvalue table with the series/quadrature calibration ratio."""

    d: int
    entries: tuple[SpectrumEntry, ...]

    @property
    def calibration_ratios(self) -> np.ndarray:
        """lam_series / lam_quadrature over the odd (positive) degrees."""
        return np.array(
            [e.lam_series / e.lam_quadrature for e in self.entries if e.j % 2 == 1]
        )

    @property
    def calibration(self) -> float:
        r = self.calibration_ratios
        return float(np.median(r)) if r.size else float("nan")


def sphere_spectrum(d: int, max_degree: int, tol: float = 1e-9) -> SphereSpectrum:
    entries = []
    for j in range(max_degree + 1):
        entries.append(
            SpectrumEntry(
                j=j,
                lam_series=eigenvalue_series(d, j, tol),
                lam_quadrature=eigenvalue_quadrature(d, j, "full"),
                lam_quadrature_snowflake=eigenvalue_quadrature(d, j, "snowflake"),
                multiplicity=multiplicity(d, j),
            )
        )
    return SphereSpectrum(d=d, entries=tuple(entries))


def truncated_embedding_dist_sq(d: int, trunc_degree: int, cos_angles: np.ndarray,
                                eigenvalues: dict[int, float]) -> np.ndarray:
    """Truncated squared embedding distance between sphere points at the given
    cosines of geodesic angle, from the table ``eigenvalues`` (odd degree j ->
    lambda_j of the full kernel):

        sum_{j odd <= trunc} 2 lambda_j N(d, j) (1 - G_j(cos theta)),

    where G_j is the normalized zonal function (cos(j theta) for d = 1).
    """
    cos_angles = np.asarray(cos_angles, dtype=float)
    out = np.zeros_like(cos_angles)
    for j in range(1, trunc_degree + 1, 2):
        out += 2.0 * eigenvalues[j] * multiplicity(d, j) * (1.0 - zonal_value(d, j, cos_angles))
    return out


def snowflake_identity_error(d: int, trunc_degree: int, pairs: Sequence[tuple]) -> float:
    """Max over point pairs of | ||M(x) - M(y)||^2_trunc - pi * dist(x, y) |.

    ``pairs`` holds (x, y) unit vectors in R^{d+1}. The truncated embedding
    distance is built from quadrature eigenvalues of the full kernel over
    odd degrees up to ``trunc_degree``; its deviation from pi times the
    geodesic distance is bounded by the spectral tail past the truncation.
    """
    if trunc_degree < 1:
        raise ValueError(f"truncation degree must be >= 1, got {trunc_degree}")
    lam = {j: eigenvalue_quadrature(d, j, "full") for j in range(1, trunc_degree + 1, 2)}
    cosines = []
    angles = []
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            c = 1.0
        else:
            c = float(np.clip(np.dot(x, y), -1.0, 1.0))
        cosines.append(c)
        angles.append(math.acos(c))
    sq = truncated_embedding_dist_sq(d, trunc_degree, np.array(cosines), lam)
    return float(np.max(np.abs(sq - math.pi * np.array(angles))))


# ---------------------------------------------------------------------------
# Asymptotics of the positive (odd-degree) eigenvalues


def _log_theta_arr(d: int, n: int, s: np.ndarray) -> np.ndarray:
    return (
        0.5 * LNPI
        - math.log(8.0)
        + 2.0 * gammaln(s + n + 0.5)
        - gammaln(s + 2.0 * n + (d + 3.0) / 2.0)
        - gammaln(s + 1.0)
    )


def theta(d: int, n: int, s: float) -> SignedLog:
    """Summand theta_n(s) = (sqrt(pi)/8) Gamma(s+n+1/2)^2 / (Gamma(s+2n+(d+3)/2) s!)
    of the odd-degree eigenvalue lambda_{2n+1}; always positive."""
    val = float(_log_theta_arr(d, n, np.array([float(s)]))[0])
    return SignedLog(1, val)


def alpha_ratio(d: int, n: int, s: float) -> float:
    """Term ratio theta_n(s+1) / theta_n(s) = (s+n+1/2)^2 / ((s+1)(s+2n+(d+3)/2))."""
    return (s + n + 0.5) ** 2 / ((s + 1.0) * (s + 2.0 * n + (d + 3.0) / 2.0))


def s_peak(d: int, n: int) -> int:
    """Peak location of theta_n: ceil((2n-1)^2 / (2(d+3)) - 1), clamped at 0.

    The ratio alpha crosses 1 exactly at s* = (2n-1)^2/(2(d+3)) - 1, so the
    summand increases up to the ceiling and decreases after.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num = (2 * n - 1) ** 2
    den = 2 * (d + 3)
    return max(0, (num - 1) // den)


@dataclass(frozen=True, eq=False)
class AsymptoticScan:
    """Scan of the odd-degree eigenvalues lambda_{2n+1} with the n^{d+1}
    normalization; bounded above and below iff the decay rate is n^{-d-1}."""

    d: int
    n_values: np.ndarray
    lam: np.ndarray
    normalized: np.ndarray
    s_peaks: np.ndarray

    @property
    def ratio_bound(self) -> float:
        return float(self.normalized.max() / self.normalized.min())


def odd_eigenvalue_theta_sum(d: int, n: int) -> float:
    """lambda_{2n+1} of the full kernel, Gamma(d/2) * sum_s theta_n(s), in closed form.

    sum_s theta_n(s) = (sqrt(pi)/8) Gamma(a)^2/Gamma(c) 2F1(a, a; c; 1) with
    a = n + 1/2, c = 2n + (d+3)/2. Since c - a - b = (d+1)/2 > 0, Gauss's theorem
    2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)) gives
    Gamma(d/2) (sqrt(pi)/8) Gamma(n+1/2)^2 Gamma((d+1)/2) / Gamma(n+1+d/2)^2.
    """
    log_lam = (gammaln(d / 2.0) + 0.5 * LNPI - math.log(8.0) + 2.0 * gammaln(n + 0.5)
               + gammaln((d + 1.0) / 2.0) - 2.0 * gammaln(n + 1.0 + d / 2.0))
    return math.exp(float(log_lam))


def asymptotic_scan(d: int, n_values: Sequence[int]) -> AsymptoticScan:
    n_arr = np.array(sorted(n_values), dtype=int)
    lam = np.array([odd_eigenvalue_theta_sum(d, int(n)) for n in n_arr])
    normalized = lam * n_arr.astype(float) ** (d + 1)
    peaks = np.array([s_peak(d, int(n)) if n >= 1 else 0 for n in n_arr])
    return AsymptoticScan(d=d, n_values=n_arr, lam=lam, normalized=normalized, s_peaks=peaks)
