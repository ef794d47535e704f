"""Spectra of the sphere kernel operators.

The zonal kernels k(x, y) = -arccos(x.y)^2 / 2 (full) and -arccos(x.y) / 2
(snowflake, the square-root metric transform) act on L^2 of the uniformly
measured sphere S^d. Spherical harmonics of degree j are eigenfunctions, and
for j >= 1 the full kernel's eigenvalue is, in closed form,

    lambda_j = (-1)^(j+1) [Gamma((d+1)/2) Gamma(j/2) / (2 Gamma((j+d+1)/2))]^2

(``eigenvalue_closed``, one quotient of Python integers at every d up to
1000, so correctly rounded at odd d; the snowflake kernel has lambda_j / pi
at odd j and 0 at even j >= 2; background: Schoenberg, "Positive definite
functions on spheres", 1942). It is the normalization under which the
truncated embedding satisfies ||M(x) - M(y)||^2 = pi * dist(x, y), and the
only eigenvalue source of that identity, the n^{-d-1} decay scan and the
circle limit map. Two independent evaluators stay as its oracles:

* a power series: pairing the Taylor series of arccos^2 with the degree-j
  harmonic and simplifying by the duplication formula gives

      series = (-1)^(j+1) Gamma(d/2) sum_{s >= 0} theta_j(s),
      theta_j(s) = (sqrt(pi)/8) Gamma(s+j/2)^2 / (s! Gamma(s+j+(d+1)/2)),

  where at j = 0 the s = 0 term is the constant coefficient's,
  pi^(5/2) / (16 Gamma((d+1)/2)). The positive terms are summed in log
  space. The summand is unimodal with a peak at s = Theta(j^2) and a
  power-law tail, so the sum is not cut where terms get small: in doubling
  blocks from 1,024 terms, past the peak, the partial sum plus an
  Euler-Maclaurin tail is formed after each block, and summation stops once
  two successive totals agree to ``tol`` in log. It carries the factor
  c_d = sqrt(pi) Gamma(d/2) / (2 Gamma((d+1)/2)) (pi/2, 1, pi/4 for
  d = 1, 2, 3): series = c_d * lambda_j;
* a quadrature route: the Funk-Hecke pairing of the kernel profile with the
  normalized zonal function, one three-term recurrence at every d,
  run once over the nodes of both first Gauss-Legendre rules. It stops on
  absolute agreement, so it matches lambda_j to about 1e-9 absolute: below
  that, neither the sign nor the relative size of its value is resolved.
  The rules come from Newton's method on the Legendre recurrence (the same
  zonal recurrence at d = 2), with no eigenproblem: O(nodes) memory, nodes
  within 1e-16 absolute and weights within about 1e-14 relative
  (background: Hale and Townsend, SIAM J. Sci. Comput. 2013).

At odd degree j = 2n + 1, ``theta(d, n, s)`` is theta_j(s); it and its peak
stay exposed for the decay analysis.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

# Every evaluator here is plain floats and Python integers, with no
# scipy: importing scipy.special alone costs a few tenths of a second and
# about 20 MB in every fresh process.

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

SERIES_TERM_BUDGET = 10**7
QUAD_TOL_FUNK = 1e-9
# Largest Gauss-Legendre rule. A rule costs O(nodes^2) flops and O(nodes)
# memory to build, so the cap bounds the rule cache below, and with it the
# quadrature degree (<= 1024).
QUAD_MAX_NODES = 4096
# Newton passes per rule: from Tricomi's nodes four settle every size up to
# the cap, three from 20 nodes on; the bound only ends a loop that would not
# settle. A last step dx below the tolerance leaves the node off by at most
# (n^2 / 6) dx^2, below 3e-22 at the cap.
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-14


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
# Log-gamma in plain floats

# Stirling series of ln Gamma(x) - (x - 1/2)(ln x - 1) - ln(2 pi)/2, in powers
# of 1/x^2 after a factor 1/x; the first omitted term is below 1.2e-16 at x = 16.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_FROM = 16.0


def _odd_power_series(coeffs: Sequence[float], r):
    """sum_i coeffs[i] r^(2i+1), by Horner's rule in r^2; r a float or an array."""
    r2 = r * r
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * r2 + c
    return acc * r


def _lgamma(x: np.ndarray) -> np.ndarray:
    """ln |Gamma(x)| elementwise, +inf at the poles 0, -1, -2, ...: the Stirling
    series from x = 16, ``math.lgamma`` per element below. Within 2e-15 of
    max(1, |ln Gamma|) on (0, 1e6]."""
    x = np.asarray(x, dtype=float)
    big = np.maximum(x, _STIRLING_FROM)
    out = ((big - 0.5) * (np.log(big) - 1.0)
           + (0.5 * math.log(2.0 * math.pi) - 0.5 + _odd_power_series(_STIRLING, 1.0 / big)))
    small = x < _STIRLING_FROM
    if small.any():
        out[small] = [math.inf if v <= 0.0 and v == math.floor(v) else math.lgamma(v)
                      for v in x[small].tolist()]
    return out


# ---------------------------------------------------------------------------
# Gauss-Legendre rules


# Every rule a degree sweep builds has an even node count between 64 and the
# cap, so this bound holds all of them and no sweep order rebuilds a rule; a
# sweep over every degree up to the cap holds about 42 MB of rules.
@lru_cache(maxsize=QUAD_MAX_NODES // 2)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending; cached per n
    and shared, so read-only.

    Newton's method on P_n, from Tricomi's approximate nodes, for the nodes in
    [0, 1) at once; the others are their mirror images, so an odd rule has an
    exact 0. P_{n-1} and P_n come from ``_zonal_values`` (the zonal functions
    of S^2 are the Legendre polynomials), and P_n' = n (P_{n-1} - x P_n) / (1 - x^2).
    The weight 2 / ((1 - x^2) P_n'(x)^2) is taken at the last iterate x and
    carried to the root x - dx to first order, by the factor
    1 + 2 x dx / (1 - x^2), so it does not inherit the rounding of the node.
    O(n^2) flops and O(n) memory: no n x n array.
    """
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (1.0 - (n - 1.0) / (8.0 * n**3)
                         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_STEPS):
        p_prev, p = deque(_zonal_values(2, n, x), maxlen=2)
        s = (1.0 - x) * (1.0 + x)  # 1 - x^2 with no cancellation near x = 1
        dp = n * (p_prev - x * p) / s
        dx = p / dp
        if n % 2:
            dx[-1] = 0.0  # the recurrence leaves rounding noise in P_n(0)
        if np.abs(dx).max() <= _NEWTON_TOL:
            break
        x = x - dx
    else:
        raise QuadratureNotConverged(f"Newton's method for the {n}-node rule did not settle")
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * dx / s)
    x = x - dx
    x = np.concatenate([-x[: n // 2], x[::-1]])
    w = np.concatenate([w[: n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# Unimodal positive series summation with Euler-Maclaurin tail estimate


def _em_tail_over_partial(log_term: Callable[[np.ndarray], np.ndarray], s_start: float,
                          log_partial: float) -> float:
    """Euler-Maclaurin estimate of sum_{s >= s_start} exp(log_term(s)),
    returned as a ratio to exp(log_partial).

    The integral is taken under t = s_start / v^2, which turns the
    power-law tail into a polynomial-like integrand on (0, 1].
    """
    x, w = _gauss_legendre(64)
    v = 0.5 * (x + 1.0)
    h = 1e-3
    # one summand call for the nodes and the three end points: per-call costs
    # dominate on arrays this small
    lt = log_term(np.append(s_start / v**2, (s_start, s_start + h, s_start - h)))
    vals = np.exp(lt[:-3] - log_partial) * (2.0 * s_start / v**3)
    integral = 0.5 * float(w @ vals)
    f0 = math.exp(float(lt[-3]) - log_partial)
    dlog = float(lt[-2] - lt[-1]) / (2.0 * h)
    return integral + 0.5 * f0 - f0 * dlog / 12.0


def _sum_unimodal(log_term: Callable[[np.ndarray], np.ndarray], tol: float,
                  budget: int = SERIES_TERM_BUDGET) -> float:
    """Log of sum_{s=0}^inf exp(log_term(s)) for a unimodal positive summand.

    Terms are summed in doubling blocks of 1,024, 2,048, ... terms, capped at
    262,144. After each block that ends past the peak (its last term below
    the running maximum), the total is the partial sum plus the
    Euler-Maclaurin tail from the block end; the sum stops once two
    successive totals agree to ``tol`` in log. Raises
    :class:`ToleranceNotReached` if the budget runs out first.
    """
    log_sum = -math.inf
    peak = -math.inf
    prev_total: Optional[float] = None
    s0 = 0
    block = 1024
    while s0 < budget:
        hi = min(s0 + block, budget)
        lt = log_term(np.arange(s0, hi, dtype=float))
        top = float(lt.max())  # log-sum-exp shifted by the block maximum
        log_sum = float(np.logaddexp(log_sum, top + math.log(float(np.exp(lt - top).sum()))))
        peak = max(peak, top)
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
            + 2.0 * _lgamma(s + j / 2.0)
            - _lgamma(s + j + (d + 1.0) / 2.0)
            - _lgamma(s + 1.0)
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
    return sign * math.exp(math.lgamma(d / 2.0) + log_sum)


# ---------------------------------------------------------------------------
# Quadrature evaluator and the closed form


def _kernel_profile(kind: str) -> Callable[[np.ndarray], np.ndarray]:
    if kind == "full":
        return lambda phi: -0.5 * phi**2
    if kind == "snowflake":
        return lambda phi: -0.5 * phi
    raise ValueError(f"unknown kernel kind {kind!r}")


def _zonal_values(d: int, top: int, t: np.ndarray) -> Iterator[np.ndarray]:
    """The normalized zonal functions G_0, ..., G_top of S^d at cosines t, all in
    [-1, 1]: (k + 2 nu) G_{k+1} = 2 (k + nu) t G_k - k G_{k-1}, nu = (d - 1) / 2,
    G_0 = 1, G_1 = t (Chebyshev's at d = 1). Run at s = |t|, as G_k(t) = (-1)^k G_k(s),
    in Reinsch's form D_{k+1} = (1 + c_k) (s - 1) G_k + c_k D_k on D_k = G_k - G_{k-1},
    c_k = k / (k + 2 nu): the plain form's rounding errors grow like k^2 near s = 1."""
    nu = (d - 1.0) / 2.0
    s, flip = np.abs(t), np.where(t < 0.0, -1.0, 1.0)
    u = s - 1.0
    g, diff = s, u.copy()
    yield np.ones_like(s)
    for k in range(1, top + 1):
        yield g * flip if k % 2 else g
        if k < top:
            c = k / (k + 2.0 * nu)
            step = (1.0 + c) * u
            step *= g
            diff *= c
            diff += step
            g = g + diff  # a new array: the yielded g is never written


def zonal_value(d: int, j: int, t: np.ndarray) -> np.ndarray:
    """Normalized zonal function G_j of S^d (1 at t = 1) at cosine values t in [-1, 1]."""
    for g in _zonal_values(d, j, np.asarray(t, dtype=float)):
        pass  # keeps only the latest degree alive
    return g


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
    variable, where the integrand is analytic, with node counts doubled from
    max(64, 2j) until successive values agree to ``QUAD_TOL_FUNK`` = 1e-9.
    The first two rules share one zonal recurrence over their joint nodes;
    each later doubling runs it on its own rule. No rule exceeds
    ``QUAD_MAX_NODES``, so degrees whose first two rules would (j > 1024)
    raise ``ValueError`` before any rule is built.

    The stop rule is absolute, so the value matches lambda_j to about 1e-9
    absolute, not relative: where |lambda_j| is near or below that (large d
    or j), its sign and relative size are not resolved.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    nodes = max(64, 2 * j)
    if 2 * nodes > QUAD_MAX_NODES:
        raise ValueError(f"degree {j} needs a {2 * nodes}-node quadrature rule; "
                         f"the cap is {QUAD_MAX_NODES} nodes (degree <= {QUAD_MAX_NODES // 4})")
    f = _kernel_profile(kind)
    const = math.exp(math.lgamma((d + 1.0) / 2.0) - math.lgamma(d / 2.0)) / math.sqrt(math.pi)

    def values_at(*sizes: int) -> list[float]:
        """One value per rule, all from one zonal recurrence over the rules' joint nodes."""
        rules = [_gauss_legendre(n) for n in sizes]
        phi = 0.5 * math.pi * (np.concatenate([x for x, _ in rules]) + 1.0)
        vals = f(phi) * zonal_value(d, j, np.cos(phi)) * np.sin(phi) ** (d - 1)
        parts = np.split(vals, np.cumsum([w.size for _, w in rules])[:-1])
        return [const * 0.5 * math.pi * float(w @ v) for (_, w), v in zip(rules, parts)]

    prev, cur = values_at(nodes, 2 * nodes)
    nodes *= 2
    while True:
        if abs(cur - prev) <= QUAD_TOL_FUNK:
            return cur
        if 2 * nodes > QUAD_MAX_NODES:
            raise QuadratureNotConverged(
                f"Funk-Hecke quadrature for d={d}, j={j} did not stabilize at {QUAD_TOL_FUNK}"
            )
        nodes *= 2
        prev, (cur,) = cur, values_at(nodes)


# ln Gamma(x) - ln Gamma(x + 1/2) + (ln x) / 2 as an asymptotic series in
# powers of 1/x^2 after a factor 1/x (coefficients (2 - 2^(1-n)) B_n / (n (n-1))
# for n = 2, 4, ..., 10); from x = 32 the first omitted term is below 2e-19.
_HALF_SHIFT = (1.0 / 8.0, -1.0 / 192.0, 1.0 / 640.0, -17.0 / 14336.0, 31.0 / 18432.0)
_HALF_SHIFT_FROM_DEGREE = 64


def eigenvalue_closed(d: int, j: int) -> float:
    """Eigenvalue of the full kernel on degree-j harmonics of S^d, j >= 1:

        (-1)^(j+1) [Gamma((d+1)/2) Gamma(j/2) / (2 Gamma((j+d+1)/2))]^2,

    as one correctly rounded quotient of Python integers (Python's int / int
    rounds correctly), so it neither cancels at large j (1/j^2 with
    alternating sign on the circle, ~ j^{-d-1} in general) nor overflows.
    Dimensions outside 1..1000 raise ``ValueError``: a cost bound, not an
    accuracy one, as the integer products grow with d (on a 2-core x86 VM a
    value takes about 0.3 ms at d = 1,001, 16 ms at 10,001 and 1.5 s at
    100,001).

    With x = j/2, the root is 1/j on S^1 and rho / (2 (j + 1)) on S^2, where
    rho = sqrt(pi) Gamma(x) / Gamma(x + 1/2). Gamma(y + 1) = y Gamma(y) takes
    the root from S^(e-2) to S^e by the factor (e - 1) / (j + e - 1), so at
    every d it is an exact integer ratio, times rho at even d. Below degree
    64, rho comes from exact binomials: 4^n / (n C(2n, n)) at j = 2n and
    pi C(2n, n) / 4^n at j = 2n + 1. From degree 64, rho^2 = (pi / x) exp(2 S(x))
    with S the series ``_HALF_SHIFT``. Only pi and exp(2 S) enter as floats,
    each taken as its exact integer ratio, so odd-d values are correctly
    rounded and even-d values are within a few 1e-16 relative.
    """
    if not 1 <= d <= 1000:
        raise ValueError(f"the closed form covers sphere dimensions 1..1000, got {d}")
    if j < 1:
        raise ValueError(f"the closed form needs degree >= 1, got {j}")
    sign = 1.0 if j % 2 == 1 else -1.0
    base = 2 - d % 2
    num = math.prod(range(base + 1, d, 2)) ** 2
    den = (math.prod(range(j + base + 1, j + d, 2)) * (j if base == 1 else 2 * (j + 1))) ** 2
    if base == 1:
        return sign * (num / den)
    pi_num, pi_den = math.pi.as_integer_ratio()
    if j < _HALF_SHIFT_FROM_DEGREE:
        n = j // 2
        c = math.comb(2 * n, n)
        if j % 2 == 0:
            return sign * (num * 16**n / (den * (n * c) ** 2))
        return sign * (num * (c * pi_num) ** 2 / (den * (4**n * pi_den) ** 2))
    e_num, e_den = math.exp(2.0 * _odd_power_series(_HALF_SHIFT, 2.0 / j)).as_integer_ratio()
    return sign * (2 * num * pi_num * e_num / (j * den * pi_den * e_den))


# ---------------------------------------------------------------------------
# The snowflake distance identity


def truncated_embedding_dist_sq(d: int, trunc_degree: int, cos_angles: np.ndarray,
                                eigenvalues: dict[int, float]) -> np.ndarray:
    """Truncated squared embedding distance between sphere points at the given
    cosines of geodesic angle, from the table ``eigenvalues`` (odd degree j ->
    lambda_j of the full kernel):

        sum_{j odd <= trunc} 2 lambda_j N(d, j) (1 - G_j(cos theta)),

    where G_j is the normalized zonal function, every degree from one recurrence pass.
    """
    cos_angles = np.asarray(cos_angles, dtype=float)
    return sum((2.0 * eigenvalues[j] * multiplicity(d, j) * (1.0 - g)
                for j, g in enumerate(_zonal_values(d, trunc_degree, cos_angles)) if j % 2),
               np.zeros_like(cos_angles))


def snowflake_identity_error(d: int, trunc_degree: int, pairs: Sequence[tuple]) -> float:
    """Max over point pairs of | ||M(x) - M(y)||^2_trunc - pi * dist(x, y) |.

    ``pairs`` holds (x, y) unit vectors in R^{d+1}. The truncated embedding
    distance is built from the closed-form eigenvalues of the full kernel over
    odd degrees up to ``trunc_degree``; as |1 - G_j| <= 2, its deviation from
    pi times the geodesic distance is at most sum_{j odd > trunc} 4 lambda_j N(d, j).
    """
    if trunc_degree < 1:
        raise ValueError(f"truncation degree must be >= 1, got {trunc_degree}")
    xy = np.asarray(pairs, dtype=float)
    if xy.ndim != 3 or xy.shape[1:] != (2, d + 1):
        raise ValueError(f"need pairs of vectors in R^{d + 1}, got shape {xy.shape}")
    lam = {j: eigenvalue_closed(d, j) for j in range(1, trunc_degree + 1, 2)}
    x, y = xy[:, 0], xy[:, 1]
    cosines = np.clip(np.sum(x * y, axis=1), -1.0, 1.0)
    cosines[np.all(x == y, axis=1)] = 1.0
    sq = truncated_embedding_dist_sq(d, trunc_degree, cosines, lam)
    return float(np.max(np.abs(sq - math.pi * np.arccos(cosines))))


# ---------------------------------------------------------------------------
# Asymptotics of the positive (odd-degree) eigenvalues


def theta(d: int, n: int, s: float) -> SignedLog:
    """The series summand theta_j(s) (``_series_log_term``) at odd degree j = 2n + 1,
    (sqrt(pi)/8) Gamma(s+n+1/2)^2 / (s! Gamma(s+2n+(d+3)/2)), with
    Gamma(d/2) sum_s theta_j(s) = c_d lambda_j; always positive."""
    return SignedLog(1, float(_series_log_term(d, 2 * n + 1)(np.array([float(s)]))[0]))


def s_peak(d: int, n: int) -> int:
    """Peak location of theta_{2n+1}: ceil((2n-1)^2 / (2(d+3)) - 1), clamped at 0.

    The term ratio theta_{2n+1}(s+1) / theta_{2n+1}(s) =
    (s+n+1/2)^2 / ((s+1)(s+2n+(d+3)/2)) crosses 1 exactly at
    s* = (2n-1)^2/(2(d+3)) - 1, so the summand increases up to the ceiling
    and decreases after.
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

    n_values: np.ndarray
    lam: np.ndarray
    normalized: np.ndarray

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
    return AsymptoticScan(n_values=n_arr, lam=lam, normalized=normalized)
