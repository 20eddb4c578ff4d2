"""Choosing the Bernoulli rate for a bounded-footprint sample (eq. (1)).

Algorithm HB's phase 2 samples at a rate ``q`` chosen so that the sample
size exceeds the bound ``n_F`` with probability at most ``p``: ``q`` is the
root of ``f(q) = P(Binomial(N, q) > n_F) = p`` for a known population size
``N``.  The paper solves this approximately with the central limit theorem
(their eq. (1)); Figure 5 charts the approximation's relative error against
the exact root (< 3% for N = 1e5).

This module provides both:

* :func:`normal_approx_rate` — the closed-form eq. (1);
* :func:`exact_bernoulli_rate` — bisection on the exact binomial survival
  function, evaluated through a pure-Python regularized incomplete beta
  (continued-fraction, Numerical-Recipes style), so no SciPy dependency is
  needed in the core library;
* :func:`rate_for_bound` — the dispatch used by Algorithm HB (exact for
  tiny populations where the CLT is unreliable, eq. (1) otherwise).
"""

from __future__ import annotations

import math
from statistics import NormalDist

from repro.errors import ConfigurationError

__all__ = [
    "normal_approx_rate",
    "exact_bernoulli_rate",
    "rate_for_bound",
    "binomial_sf",
    "regularized_incomplete_beta",
]

_NORMAL = NormalDist()

# Below this population size the CLT approximation degrades and the exact
# bisection is cheap anyway.
_EXACT_POPULATION_CUTOFF = 1_000


def _validate(population: int, p: float, bound: int) -> None:
    if population <= 0:
        raise ConfigurationError(
            f"population size must be positive, got {population}")
    if not 0.0 < p < 1.0:
        raise ConfigurationError(
            f"exceedance probability must be in (0, 1), got {p}")
    if bound <= 0:
        raise ConfigurationError(
            f"sample-size bound must be positive, got {bound}")


def normal_approx_rate(population: int, p: float, bound: int) -> float:
    """Eq. (1): CLT approximation of the rate ``q(N, p, n_F)``.

    ``q ≈ (N(2n_F + z²) − z·sqrt(N(Nz² + 4Nn_F − 4n_F²))) / (2N(N + z²))``
    with ``z = z_p`` the ``(1-p)``-quantile of the standard normal.

    Valid in the paper's regime: ``N`` large, ``n_F/N`` not vanishingly
    small, ``p <= 0.5``.  Returns a rate clamped to ``[0, 1]``.
    """
    _validate(population, p, bound)
    if bound >= population:
        return 1.0
    n = float(population)
    nf = float(bound)
    z = _NORMAL.inv_cdf(1.0 - p)
    z2 = z * z
    discriminant = n * (n * z2 + 4.0 * n * nf - 4.0 * nf * nf)
    if discriminant < 0.0:  # only possible for tiny N with huge z
        discriminant = 0.0
    q = (n * (2.0 * nf + z2) - z * math.sqrt(discriminant)) \
        / (2.0 * n * (n + z2))
    return min(1.0, max(0.0, q))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the regularized incomplete beta function.

    Continued-fraction evaluation (modified Lentz's method) with the
    standard symmetry transformation for convergence; accurate to ~1e-12
    over the parameter ranges used here.
    """
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError(f"x must be in [0, 1], got {x}")
    if a <= 0.0 or b <= 0.0:
        raise ConfigurationError(
            f"shape parameters must be positive, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - (math.exp(log_front)
                  * _beta_continued_fraction(b, a, 1.0 - x) / b)


def _beta_continued_fraction(a: float, b: float, x: float,
                             max_iterations: int = 400,
                             epsilon: float = 1e-15) -> float:
    """Continued fraction for the incomplete beta (NR 'betacf')."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            return h
    return h  # converged to working precision in practice


def binomial_sf(population: int, q: float, threshold: int) -> float:
    """``P(Binomial(population, q) > threshold)`` exactly.

    Uses the identity ``P(X > k) = I_q(k + 1, N - k)`` with the regularized
    incomplete beta function; O(1) regardless of ``N``.
    """
    if population < 0:
        raise ConfigurationError(
            f"population must be >= 0, got {population}")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {q}")
    if threshold >= population:
        return 0.0
    if threshold < 0:
        return 1.0
    return regularized_incomplete_beta(threshold + 1.0,
                                       float(population - threshold), q)


def exact_bernoulli_rate(population: int, p: float, bound: int, *,
                         tolerance: float = 1e-12) -> float:
    """Exact root of ``P(Binomial(N, q) > n_F) = p`` via bisection.

    ``f(q)`` is strictly increasing in ``q`` on the relevant range, so
    bisection on ``[0, 1]`` converges unconditionally.  This is the ground
    truth that Figure 5 compares eq. (1) against.
    """
    _validate(population, p, bound)
    if bound >= population:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if binomial_sf(population, mid, bound) > p:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rate_for_bound(population: int, p: float, bound: int) -> float:
    """The sampling rate Algorithm HB uses in phase 2.

    Exact bisection up to a small-population cutoff, where the CLT is
    unreliable and the bisection cheap; eq. (1) above it.
    """
    _validate(population, p, bound)
    if population <= _EXACT_POPULATION_CUTOFF:
        return exact_bernoulli_rate(population, p, bound)
    return normal_approx_rate(population, p, bound)
