"""The kernel backend layer: selection plumbing and cross-backend laws.

Same-seed byte-identity of merges per backend is covered by
``tests/test_merge.py`` (``TestMergeTree``); this file tests the
registry itself — resolution, the env
contract, error cases — plus the statistical and numerical agreement
between the numpy backend and the pure-Python reference.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.purge as purge_module
import repro.testkit.checks as checks_module
from conftest import ALPHA, dense_binomial_counts, dense_srs_counts
from repro import SplittableRng
from repro.core.histogram import CompactHistogram
from repro.core.purge import purge_bernoulli, purge_reservoir
from repro.errors import ConfigurationError
from repro.kernels import (KERNEL_BACKEND_ENV, active_backend,
                           available_backends, binomial_counts,
                           draw_hypergeometric, draw_hypergeometric_batch,
                           fold_moments, hypergeometric_pmf,
                           numpy_available, set_backend, srs_counts,
                           use_backend)
from repro.sampling.distributions import \
    hypergeometric_pmf as reference_pmf
from repro.stats.uniformity import chi_square_pvalue
from repro.testkit import sweep

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="numpy not installed")


class TestSelection:
    def test_active_backend_is_available(self):
        assert active_backend() in available_backends()

    def test_python_backend_always_available(self):
        assert "python" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            set_backend("fortran")

    def test_unknown_backend_leaves_selection_untouched(self):
        before = active_backend()
        with pytest.raises(ConfigurationError):
            set_backend("fortran")
        assert active_backend() == before

    def test_numpy_rejected_when_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.numpy_available",
                            lambda: False)
        with pytest.raises(ConfigurationError, match="perf"):
            set_backend("numpy")

    def test_auto_degrades_without_numpy(self, monkeypatch):
        before = active_backend()
        monkeypatch.setattr("repro.kernels.numpy_available",
                            lambda: False)
        assert set_backend("auto") == "python"
        assert active_backend() == "python"
        monkeypatch.undo()  # before restoring a possibly-numpy backend
        set_backend(before)

    def test_set_backend_syncs_environment(self):
        with use_backend("python"):
            assert os.environ[KERNEL_BACKEND_ENV] == "python"

    def test_use_backend_restores_previous(self):
        before = active_backend()
        with use_backend("python"):
            assert active_backend() == "python"
        assert active_backend() == before

    def test_use_backend_restores_after_exception(self):
        before = active_backend()
        with pytest.raises(RuntimeError):
            with use_backend("python"):
                raise RuntimeError("boom")
        assert active_backend() == before


class TestPythonBackendLaws:
    """The reference backend against the closed-form distributions."""

    def test_pmf_matches_reference(self):
        with use_backend("python"):
            assert hypergeometric_pmf(13, 9, 7) == reference_pmf(13, 9, 7)

    def test_batch_is_iterated_scalar_draws(self):
        # A batch and one-by-one draws off an identical rng consume the
        # same stream and must produce the same values.
        with use_backend("python"):
            batch = draw_hypergeometric_batch(40, 60, 12,
                                              SplittableRng(3), 6)
            rng = SplittableRng(3)
            singles = [draw_hypergeometric(40, 60, 12, rng)
                       for _ in range(6)]
        assert batch == singles

    def test_binomial_counts_validates_rate(self):
        with use_backend("python"):
            with pytest.raises(ConfigurationError):
                binomial_counts([3, 2], 1.5, SplittableRng(1))

    def test_srs_counts_edges(self):
        with use_backend("python"):
            rng = SplittableRng(1)
            assert srs_counts([3, 2], 0, rng) == ([], [])
            assert srs_counts([3, 2], 5, rng) == ([0, 1], [3, 2])
            with pytest.raises(ConfigurationError):
                srs_counts([3, 2], 6, rng)

    def test_srs_counts_preserves_total(self):
        with use_backend("python"):
            rng = SplittableRng(9)
            for size in (1, 3, 6, 9):
                indices, kept = srs_counts([4, 1, 3, 2], size, rng)
                assert sum(kept) == size
                assert all(0 < k <= [4, 1, 3, 2][i]
                           for i, k in zip(indices, kept))


@requires_numpy
class TestNumpyBackendLaws:
    """The vectorized backend against the same laws."""

    def test_pmf_close_to_reference(self):
        for n1, n2, k in ((13, 9, 7), (200, 150, 64), (5, 5, 10),
                          (1000, 2, 2), (3, 400, 100)):
            want = reference_pmf(n1, n2, k)
            with use_backend("numpy"):
                got = hypergeometric_pmf(n1, n2, k)
            assert len(got) == len(want)
            for w, g in zip(want, got):
                assert math.isclose(w, g, rel_tol=1e-9, abs_tol=1e-12)

    def test_draws_repeatable_same_seed(self):
        with use_backend("numpy"):
            a = draw_hypergeometric_batch(40, 60, 12, SplittableRng(5), 20)
            b = draw_hypergeometric_batch(40, 60, 12, SplittableRng(5), 20)
        assert a == b

    def test_draws_in_support(self):
        n1, n2, k = 7, 30, 12
        lo, hi = max(0, k - n2), min(k, n1)
        with use_backend("numpy"):
            draws = draw_hypergeometric_batch(n1, n2, k,
                                              SplittableRng(5), 200)
        assert all(lo <= d <= hi for d in draws)

    def test_batch_gof_against_pmf(self, rng):
        n1, n2, k = 13, 9, 7
        pmf = reference_pmf(n1, n2, k)
        lo = max(0, k - n2)
        draws = 4000

        def gof(child):
            with use_backend("numpy"):
                values = draw_hypergeometric_batch(n1, n2, k, child,
                                                   draws)
            observed = [0] * len(pmf)
            for v in values:
                observed[v - lo] += 1
            return chi_square_pvalue(observed,
                                     [p_ * draws for p_ in pmf])

        result = sweep(gof, rng=rng, seeds=3, alpha=ALPHA)
        assert result.accepted, result.describe()

    def test_srs_counts_preserves_total(self):
        with use_backend("numpy"):
            rng = SplittableRng(9)
            for size in (0, 1, 5, 10):
                _indices, kept = srs_counts([4, 1, 3, 2], size, rng)
                assert sum(kept) == size

    def test_binomial_counts_vectorized_matches_law(self):
        n, q, trials = 40, 0.3, 3000
        with use_backend("numpy"):
            _indices, kept = binomial_counts([n] * trials, q,
                                             SplittableRng(23))
        mean = sum(kept) / trials
        # Mean within 5 sigma of n*q.
        sigma = math.sqrt(n * q * (1 - q) / trials)
        assert abs(mean - n * q) < 5 * sigma


@pytest.mark.parametrize("backend", available_backends())
class TestSurvivorOps:
    """The purge kernels return the surviving runs, ``(indices, kept)``:
    exactly the nonzero entries of the dense draw each backend made
    before, from the same generator calls."""

    @given(runs=st.lists(st.integers(0, 9), max_size=40),
           data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_srs_counts_are_dense_nonzeros(self, backend, runs, data, seed):
        size = data.draw(st.integers(0, sum(runs)))
        ours, theirs = SplittableRng(seed), SplittableRng(seed)
        with use_backend(backend):
            indices, kept = srs_counts(runs, size, ours)
            dense = dense_srs_counts(runs, size, theirs)
        assert indices == [i for i, n in enumerate(dense) if n]
        assert kept == [n for n in dense if n]
        assert all(type(n) is int for n in indices + kept)
        assert ours.random() == theirs.random()

    @given(counts=st.lists(st.integers(0, 30), max_size=40),
           q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_binomial_counts_are_dense_nonzeros(self, backend, counts, q,
                                                seed):
        ours, theirs = SplittableRng(seed), SplittableRng(seed)
        with use_backend(backend):
            indices, kept = binomial_counts(counts, q, ours)
            dense = dense_binomial_counts(counts, q, theirs)
        assert indices == [i for i, n in enumerate(dense) if n]
        assert kept == [n for n in dense if n]
        assert all(type(n) is int for n in indices + kept)
        assert ours.random() == theirs.random()

    def test_reads_a_dict_values_view(self, backend):
        runs = {"a": 3, "b": 1, "c": 4, "d": 2}
        with use_backend(backend):
            for op, arg in ((srs_counts, 5), (binomial_counts, 0.5)):
                assert (op(runs.values(), arg, SplittableRng(4))
                        == op(list(runs.values()), arg, SplittableRng(4)))


def _loop_fold(values, total, total_sq, lo, hi):
    """Per-element ``+=`` and ``min``/``max``: the fold's definition."""
    for v in values:
        x = float(v)
        total += x
        total_sq += x * x
        lo = x if lo is None else min(lo, x)
        hi = x if hi is None else max(hi, x)
    return total, total_sq, lo, hi


@pytest.mark.parametrize("backend", available_backends())
class TestFoldMoments:
    """``fold_moments`` is the per-element loop, bit for bit, on every
    backend (compared through ``repr``: NaN, -0.0 and float type)."""

    @given(values=st.lists(st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.integers(-2**80, 2**80)), max_size=60),
           running=st.one_of(st.none(), st.tuples(
               st.floats(), st.floats(), st.floats(allow_nan=False))))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_element_loop(self, backend, values, running):
        total, total_sq, lo, hi = (0.0, 0.0, None, None) \
            if running is None else running + (running[2],)
        with use_backend(backend):
            got = fold_moments(values, total, total_sq, lo, hi)
        assert repr(got) == repr(_loop_fold(values, total, total_sq, lo, hi))
        assert all(type(x) is float for x in got if x is not None)

    def test_totals_are_not_compensated(self, backend):
        with use_backend(backend):
            total, *_ = fold_moments([1e16, 1.0, 1.0, -1e16] * 2048,
                                     0.0, 0.0, None, None)
        assert total == 0.0

    def test_first_of_tied_zeros(self, backend):
        with use_backend(backend):
            _, _, lo, hi = fold_moments([0.0, -0.0] * 4096, 0.0, 0.0,
                                        None, None)
            assert repr((lo, hi)) == "(0.0, 0.0)"
            _, _, lo, hi = fold_moments([1.0, -0.0], 0.0, 0.0, 0.0, 0.0)
            assert repr((lo, hi)) == "(0.0, 1.0)"

    def test_empty_slice_returns_the_running_state(self, backend):
        with use_backend(backend):
            assert fold_moments([], 1.5, 2.5, None, None) \
                == (1.5, 2.5, None, None)

    def test_int_out_of_float_range_rejected(self, backend):
        with use_backend(backend):
            with pytest.raises(ConfigurationError, match="float range"):
                fold_moments([1, 10**400], 0.0, 0.0, None, None)


def test_law_checks_exercise_the_ops_purges_call():
    # kernels.srs.law / kernels.binomial.law must test what the purges
    # run, not a function only tests call.
    assert checks_module.srs_counts is purge_module.srs_counts
    assert checks_module.binomial_counts is purge_module.binomial_counts


class TestPurgesPerBackend:
    """The Fig. 3/4 purges hold their invariants on every backend."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_purge_reservoir_size_exact(self, backend):
        hist = CompactHistogram.from_values([1, 1, 1, 2, 3, 3, 4, 5, 5, 5])
        with use_backend(backend):
            out = purge_reservoir(hist, 4, SplittableRng(2))
        assert out.size == 4

    @pytest.mark.parametrize("backend", available_backends())
    def test_purge_bernoulli_subset(self, backend):
        hist = CompactHistogram.from_values(list(range(30)) * 2)
        with use_backend(backend):
            out = purge_bernoulli(hist, 0.5, SplittableRng(2))
        pairs = dict(out.pairs())
        assert all(0 < c <= 2 for c in pairs.values())
        assert set(pairs) <= set(range(30))

    @pytest.mark.parametrize("backend", available_backends())
    def test_purges_repeatable_within_backend(self, backend):
        hist = CompactHistogram.from_values(list(range(50)) * 3)
        with use_backend(backend):
            first = dict(purge_reservoir(hist, 20,
                                         SplittableRng(4)).pairs())
            second = dict(purge_reservoir(hist, 20,
                                          SplittableRng(4)).pairs())
        assert first == second
