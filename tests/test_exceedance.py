"""Tests for repro.sampling.exceedance (eq. (1) and the exact solver)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sampling.exceedance import (binomial_sf, exact_bernoulli_rate,
                                       normal_approx_rate,
                                       rate_for_bound,
                                       regularized_incomplete_beta)


class TestIncompleteBeta:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        """I_x(1, 1) = x."""
        for x in (0.1, 0.33, 0.5, 0.77, 0.99):
            assert math.isclose(regularized_incomplete_beta(1.0, 1.0, x), x,
                                rel_tol=1e-10)

    def test_symmetry(self):
        """I_x(a, b) = 1 - I_{1-x}(b, a)."""
        val = regularized_incomplete_beta(3.5, 7.2, 0.3)
        sym = 1.0 - regularized_incomplete_beta(7.2, 3.5, 0.7)
        assert math.isclose(val, sym, rel_tol=1e-10)

    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for a, b, x in [(2.0, 5.0, 0.2), (50.0, 3.0, 0.9),
                        (101.0, 99900.0, 0.001), (0.5, 0.5, 0.5)]:
            ours = regularized_incomplete_beta(a, b, x)
            theirs = scipy_special.betainc(a, b, x)
            assert math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-14)


class TestBinomialSf:
    def test_edges(self):
        assert binomial_sf(10, 0.5, 10) == 0.0
        assert binomial_sf(10, 0.5, -1) == 1.0
        assert binomial_sf(10, 0.0, 5) == 0.0

    def test_small_case_exact(self):
        """Compare against a direct pmf sum."""
        n, q, k = 20, 0.3, 8

        def comb(n_, r):
            return math.comb(n_, r)

        direct = sum(comb(n, j) * q ** j * (1 - q) ** (n - j)
                     for j in range(k + 1, n + 1))
        assert math.isclose(binomial_sf(n, q, k), direct, rel_tol=1e-10)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, q, k in [(1000, 0.01, 15), (100_000, 0.001, 120),
                        (50, 0.5, 25)]:
            ours = binomial_sf(n, q, k)
            theirs = scipy_stats.binom.sf(k, n, q)
            assert math.isclose(ours, theirs, rel_tol=1e-8, abs_tol=1e-12)

    def test_monotone_in_q(self):
        values = [binomial_sf(1000, q, 50) for q in (0.01, 0.05, 0.1)]
        assert values == sorted(values)


class TestExactRate:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exact_bernoulli_rate(0, 0.001, 10)
        with pytest.raises(ConfigurationError):
            exact_bernoulli_rate(100, 0.0, 10)
        with pytest.raises(ConfigurationError):
            exact_bernoulli_rate(100, 0.5, 0)

    def test_trivial_bound(self):
        assert exact_bernoulli_rate(100, 0.001, 100) == 1.0
        assert exact_bernoulli_rate(100, 0.001, 200) == 1.0

    def test_root_property(self):
        """The returned q satisfies P(Binomial(N, q) > n_F) = p."""
        n, p, bound = 100_000, 0.001, 1_000
        q = exact_bernoulli_rate(n, p, bound)
        assert math.isclose(binomial_sf(n, q, bound), p, rel_tol=1e-4)

    def test_monotone_in_p(self):
        """Looser exceedance target -> higher allowable rate."""
        qs = [exact_bernoulli_rate(100_000, p, 1000)
              for p in (1e-5, 1e-4, 1e-3, 1e-2)]
        assert qs == sorted(qs)

    def test_monotone_in_population(self):
        """Bigger population -> lower rate for the same bound."""
        qs = [exact_bernoulli_rate(n, 0.001, 1000)
              for n in (10_000, 100_000, 1_000_000)]
        assert qs == sorted(qs, reverse=True)


class TestNormalApproxRate:
    def test_trivial_bound(self):
        assert normal_approx_rate(100, 0.001, 100) == 1.0

    def test_paper_error_envelope(self):
        """Figure 5: relative error < 3% for N = 1e5 over the grid."""
        n = 100_000
        worst = 0.0
        for bound in (100, 1_000, 10_000):
            for p in (1e-5, 5e-5, 5e-4, 5e-3):
                approx = normal_approx_rate(n, p, bound)
                exact = exact_bernoulli_rate(n, p, bound)
                worst = max(worst, abs(approx - exact) / exact)
        assert worst < 0.03

    def test_in_unit_interval(self):
        q = normal_approx_rate(10_000, 0.001, 500)
        assert 0.0 < q < 1.0

    @given(st.integers(min_value=10, max_value=10**6),
           st.floats(min_value=1e-6, max_value=0.49),
           st.data())
    @settings(max_examples=80)
    def test_property_bounds(self, population, p, data):
        bound = data.draw(st.integers(min_value=1, max_value=population))
        q = normal_approx_rate(population, p, bound)
        assert 0.0 <= q <= 1.0


class TestRateForBound:
    def test_auto_uses_exact_for_tiny_population(self):
        got = rate_for_bound(500, 0.001, 50)
        exact = exact_bernoulli_rate(500, 0.001, 50)
        assert got == exact

    def test_auto_uses_approx_for_large_population(self):
        got = rate_for_bound(10**6, 0.001, 1000)
        approx = normal_approx_rate(10**6, 0.001, 1000)
        assert got == approx

    def test_cutoff_is_inclusive(self):
        # Exact bisection up to 1 000 arrivals, eq. (1) above.
        p, b = 0.001, 50
        assert rate_for_bound(1_000, p, b) == exact_bernoulli_rate(1_000, p, b)
        assert rate_for_bound(1_001, p, b) == normal_approx_rate(1_001, p, b)
