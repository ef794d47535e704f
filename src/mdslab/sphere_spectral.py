"""Spectra of the sphere kernel operators.

The zonal kernels k(x, y) = -arccos(x.y)^2 / 2 (full) and -arccos(x.y) / 2
(snowflake, the square-root metric transform) act on L^2 of the uniformly
measured sphere S^d. Spherical harmonics of degree j are eigenfunctions, and
for j >= 1 the full kernel's eigenvalue is, in closed form,

    lambda_j = (-1)^(j+1) [Gamma((d+1)/2) Gamma(j/2) / (2 Gamma((j+d+1)/2))]^2

(``eigenvalue_closed``; the snowflake kernel has lambda_j / pi at odd j and
0 at even j >= 2; background: Schoenberg, "Positive definite functions on
spheres", 1942). It is the normalization under which the truncated embedding
satisfies ||M(x) - M(y)||^2 = pi * dist(x, y), and the only eigenvalue source
of that identity, the n^{-d-1} decay scan and the circle limit map. Two
independent evaluators stay as its oracles:

* a power series: pairing the Taylor series of arccos^2 with the degree-j
  harmonic and simplifying by the duplication formula gives

      series = (-1)^(j+1) Gamma(d/2) sum_{s >= 0} theta_j(s),
      theta_j(s) = (sqrt(pi)/8) Gamma(s+j/2)^2 / (s! Gamma(s+j+(d+1)/2)),

  where at j = 0 the s = 0 term is the constant coefficient's,
  pi^(5/2) / (16 Gamma((d+1)/2)). The positive terms are summed in log
  space. The summand is unimodal with a peak at s = Theta(j^2) and a
  power-law tail, so the sum is not cut where terms get small: past the
  peak, the partial sum plus an Euler-Maclaurin tail is formed after each
  doubling block, and summation stops once two successive totals agree to
  ``tol`` in log. It carries the factor
  c_d = sqrt(pi) Gamma(d/2) / (2 Gamma((d+1)/2)) (pi/2, 1, pi/4 for
  d = 1, 2, 3): series = c_d * lambda_j;
* a quadrature route: the Funk-Hecke pairing of the kernel profile with the
  normalized zonal function (cos(j phi) for d = 1).

At odd degree j = 2n + 1, ``theta(d, n, s)`` is theta_j(s); it, its term
ratio and its peak stay exposed for the decay analysis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gamma, gammaln, logsumexp, poch

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

SERIES_TERM_BUDGET = 10**7
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
    Formed in log space, so large n do not overflow.
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if kind not in ("full", "snowflake"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if n == 0:
        return SignedLog(-1, 2.0 * LNPI - math.log(8.0) if kind == "full"
                         else LNPI - math.log(4.0))
    if n % 2 == 1:
        j = (n - 1) // 2
        log_b = (math.lgamma(2 * j + 1) - math.log(2 * j + 1) - (2 * j + 1) * LN2
                 - 2.0 * math.lgamma(j + 1))
        return SignedLog(1, LNPI + log_b if kind == "full" else log_b)
    if kind == "snowflake":
        return SignedLog(0, -math.inf)
    j = (n - 2) // 2
    return SignedLog(-1, 2 * j * LN2 + 2.0 * math.lgamma(j + 1) - LN2 - math.log(j + 1)
                     - math.log(2 * j + 1) - math.lgamma(2 * j + 1))


# ---------------------------------------------------------------------------
# Unimodal positive series summation with Euler-Maclaurin tail estimate


@lru_cache(maxsize=256)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], cached per node count (256 latest); shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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

    Terms are summed in doubling blocks. After each block that ends past the
    peak (its last term below the running maximum), the total is the partial
    sum plus the Euler-Maclaurin tail from the block end; the sum stops once
    two successive totals agree to ``tol`` in log. Raises
    :class:`ToleranceNotReached` if the budget runs out first.
    """
    log_sum = -math.inf
    peak = -math.inf
    prev_total: Optional[float] = None
    s0 = 0
    block = 4096
    while s0 < budget:
        hi = min(s0 + block, budget)
        lt = log_term(np.arange(s0, hi, dtype=float))
        log_sum = float(np.logaddexp(log_sum, logsumexp(lt)))
        peak = max(peak, float(lt.max()))
        if lt[-1] < peak:
            tail_ratio = _em_tail_over_partial(log_term, float(hi), log_sum)
            total = log_sum + math.log1p(max(tail_ratio, 0.0))
            if prev_total is not None and abs(total - prev_total) <= tol:
                return total
            prev_total = total
        s0 = hi
        block = min(block * 2, 262144)
    raise ToleranceNotReached(f"series did not reach tol={tol} within {budget} terms")


# ---------------------------------------------------------------------------
# Series evaluator for the full-kernel eigenvalues


def _series_log_term(d: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
    """log theta_j(s), the summand of the degree-j series on S^d:

        theta_j(s) = (sqrt(pi)/8) Gamma(s+j/2)^2 / (s! Gamma(s+j+(d+1)/2)),

    except at j = 0, s = 0, where Gamma(0) is infinite and the term is the
    constant coefficient's, pi^(5/2) / (16 Gamma((d+1)/2)). Real s are
    accepted, for the tail integral.
    """
    def log_term(s: np.ndarray) -> np.ndarray:
        return (
            0.5 * LNPI
            - math.log(8.0)
            + 2.0 * gammaln(s + j / 2.0)
            - gammaln(s + j + (d + 1.0) / 2.0)
            - gammaln(s + 1.0)
        )

    if j > 0:
        return log_term
    log_first = 2.5 * LNPI - math.log(16.0) - math.lgamma((d + 1.0) / 2.0)
    return lambda s: np.where(s == 0.0, log_first, log_term(s))


def eigenvalue_series(d: int, j: int, tol: float = 1e-9) -> float:
    """Eigenvalue of the full kernel on degree-j spherical harmonics of S^d in
    the series normalization, c_d * lambda_j, by direct summation of

        (-1)^(j+1) Gamma(d/2) sum_{s >= 0} theta_j(s),
        theta_j(s) = (sqrt(pi)/8) Gamma(s+j/2)^2 / (s! Gamma(s+j+(d+1)/2)),

    with the j = 0, s = 0 term pi^(5/2) / (16 Gamma((d+1)/2)) (see
    ``_series_log_term``). theta_j(s) is the term of the arccos^2 Taylor
    coefficient a_{2s+j} paired with the degree-j harmonic,
    a_{2s+j} (2s+j)!/(2s)! Gamma(s+1/2) / (2^{j+1} Gamma(s+j+(d+1)/2)),
    simplified by the duplication formula. The terms are positive, so they
    are summed in log space. ``tol`` bounds the change in the log of the
    tail-corrected sum between two successive blocks (see ``_sum_unimodal``)
    and must be positive and finite; at the default the value is accurate to
    about 1e-9 relative. It reads no closed form.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    sign = 1.0 if j % 2 == 1 else -1.0
    log_sum = _sum_unimodal(_series_log_term(d, j), tol)
    return sign * math.exp(float(gammaln(d / 2.0)) + log_sum)


# ---------------------------------------------------------------------------
# Quadrature evaluator and the closed form


def _kernel_profile(kind: str) -> Callable[[np.ndarray], np.ndarray]:
    if kind == "full":
        return lambda phi: -0.5 * phi**2
    if kind == "snowflake":
        return lambda phi: -0.5 * phi
    raise ValueError(f"unknown kernel kind {kind!r}")


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

    The Funk-Hecke pairing of the kernel profile with the normalized degree-j
    zonal function under the normalized surface measure (for d = 1 the Fourier
    coefficient (1/pi) int_0^pi k(phi) cos(j phi) dphi), evaluated in the angle
    variable, where the integrand is analytic, with node counts doubled until
    successive values agree to 1e-9.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    f = _kernel_profile(kind)
    const = math.exp(gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0)) / math.sqrt(math.pi)

    def value_at(nodes: int) -> float:
        x, w = _gauss_legendre(nodes)
        phi = 0.5 * math.pi * (x + 1.0)
        vals = f(phi) * zonal_value(d, j, np.cos(phi)) * np.sin(phi) ** (d - 1)
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


def eigenvalue_closed(d: int, j: int) -> float:
    """Eigenvalue of the full kernel on degree-j harmonics of S^d, j >= 1:

        (-1)^(j+1) [Gamma((d+1)/2) Gamma(j/2) / (2 Gamma((j+d+1)/2))]^2,

    with the ratio Gamma(j/2) / Gamma((j+d+1)/2) taken as one Pochhammer
    symbol, 1 / (j/2)_{(d+1)/2}, so it does not cancel at large j (1/j^2 with
    alternating sign on the circle, ~ j^{-d-1} in general). Up to d = 189
    the symbol overflows only where lambda_j underflows anyway; larger d
    raise ``ValueError``.
    """
    if not 1 <= d <= 189:
        raise ValueError(f"the closed form covers sphere dimensions 1..189, got {d}")
    if j < 1:
        raise ValueError(f"the closed form needs degree >= 1, got {j}")
    root = float(gamma((d + 1.0) / 2.0) / poch(j / 2.0, (d + 1.0) / 2.0) / 2.0)
    return (1.0 if j % 2 == 1 else -1.0) * root * root


# ---------------------------------------------------------------------------
# The snowflake distance identity


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
    distance is built from the closed-form eigenvalues of the full kernel over
    odd degrees up to ``trunc_degree``; as |1 - G_j| <= 2, its deviation from
    pi times the geodesic distance is at most sum_{j odd > trunc} 4 lambda_j N(d, j).
    """
    if trunc_degree < 1:
        raise ValueError(f"truncation degree must be >= 1, got {trunc_degree}")
    lam = {j: eigenvalue_closed(d, j) for j in range(1, trunc_degree + 1, 2)}
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


def theta(d: int, n: int, s: float) -> SignedLog:
    """The series summand theta_j(s) (``_series_log_term``) at odd degree j = 2n + 1,
    (sqrt(pi)/8) Gamma(s+n+1/2)^2 / (s! Gamma(s+2n+(d+3)/2)), with
    Gamma(d/2) sum_s theta_j(s) = c_d lambda_j; always positive."""
    return SignedLog(1, float(_series_log_term(d, 2 * n + 1)(np.array([float(s)]))[0]))


def alpha_ratio(d: int, n: int, s: float) -> float:
    """Term ratio theta_{2n+1}(s+1) / theta_{2n+1}(s) = (s+n+1/2)^2 / ((s+1)(s+2n+(d+3)/2))."""
    return (s + n + 0.5) ** 2 / ((s + 1.0) * (s + 2.0 * n + (d + 3.0) / 2.0))


def s_peak(d: int, n: int) -> int:
    """Peak location of theta_{2n+1}: ceil((2n-1)^2 / (2(d+3)) - 1), clamped at 0.

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
    normalization; bounded above and below iff the decay rate is n^{-d-1},
    and ``normalized`` tends to Gamma((d+1)/2)^2 / 4."""

    d: int
    n_values: np.ndarray
    lam: np.ndarray
    normalized: np.ndarray
    s_peaks: np.ndarray

    @property
    def ratio_bound(self) -> float:
        return float(self.normalized.max() / self.normalized.min())


def asymptotic_scan(d: int, n_values: Sequence[int]) -> AsymptoticScan:
    """Scan lambda_{2n+1} for n >= 1, with ``normalized`` formed in log space so
    that n^{d+1} cannot overflow; an n whose lambda_{2n+1} is below the
    smallest normal float raises ``ValueError``."""
    n_arr = np.array(sorted(n_values), dtype=int)
    if n_arr.size and n_arr[0] < 1:
        raise ValueError(f"the scan needs n >= 1, got {n_arr[0]}")
    lam = np.array([eigenvalue_closed(d, 2 * int(n) + 1) for n in n_arr])
    tiny = np.finfo(float).tiny
    if np.any(lam < tiny):
        n_bad = int(n_arr[np.argmax(lam < tiny)])
        raise ValueError(f"lambda_{2 * n_bad + 1} of S^{d} (n = {n_bad}) is below the "
                         f"smallest normal float {tiny}")
    normalized = np.exp(np.log(lam) + (d + 1) * np.log(n_arr))
    peaks = np.array([s_peak(d, int(n)) for n in n_arr])
    return AsymptoticScan(d=d, n_values=n_arr, lam=lam, normalized=normalized, s_peaks=peaks)
