"""Tests for repro.analytics.estimators."""

from __future__ import annotations

import pickle
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NAN, loop_moments
from repro.analytics import estimators
from repro.analytics.estimators import (chao_distinct, estimate_avg,
                                        estimate_count, estimate_quantile,
                                        estimate_sum,
                                        frequency_of_frequencies,
                                        gee_distinct, naive_distinct,
                                        stratified_partition_estimate)
from repro.core import histogram as histogram_module
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError
from repro.kernels import available_backends, numpy_available, use_backend

MODEL = FootprintModel(8, 4)


def exhaustive_sample(values):
    return WarehouseSample(
        histogram=CompactHistogram.from_values(values),
        kind=SampleKind.EXHAUSTIVE,
        population_size=len(values),
        bound_values=max(1, len(values)),
        model=MODEL,
    )


def hb_of(values, bound, rng):
    hb = AlgorithmHB(len(values), bound_values=bound, rng=rng, model=MODEL)
    hb.feed_many(values)
    return hb.finalize()


def hr_of(values, bound, rng):
    hr = AlgorithmHR(bound_values=bound, rng=rng, model=MODEL)
    hr.feed_many(values)
    return hr.finalize()


class TestExhaustiveExactness:
    def test_count(self):
        s = exhaustive_sample([1, 2, 2, 3])
        est = estimate_count(s)
        assert est.value == 4.0
        assert est.exact
        assert est.ci_low == est.ci_high == 4.0

    def test_count_with_predicate(self):
        s = exhaustive_sample([1, 2, 2, 3])
        est = estimate_count(s, where=lambda v: v == 2)
        assert est.value == 2.0
        assert est.exact

    def test_sum_and_avg(self):
        s = exhaustive_sample([1, 2, 3, 4])
        assert estimate_sum(s).value == 10.0
        assert estimate_avg(s).value == 2.5


class TestBernoulliEstimates:
    def test_count_scales_by_rate(self, rng):
        values = list(range(50_000))
        s = hb_of(values, 1024, rng)
        assert s.kind is SampleKind.BERNOULLI
        est = estimate_count(s)
        assert abs(est.value - 50_000) / 50_000 < 0.10
        assert est.ci_low < 50_000 < est.ci_high

    def test_sum_estimate(self, rng):
        values = list(range(50_000))
        truth = sum(values)
        s = hb_of(values, 1024, rng)
        est = estimate_sum(s)
        assert abs(est.value - truth) / truth < 0.10

    def test_avg_estimate(self, rng):
        values = list(range(50_000))
        s = hb_of(values, 1024, rng)
        est = estimate_avg(s)
        assert abs(est.value - 24999.5) / 24999.5 < 0.10


class TestReservoirEstimates:
    def test_count_exact_without_predicate(self, rng):
        s = hr_of(list(range(10_000)), 256, rng)
        est = estimate_count(s)
        assert est.value == 10_000.0
        assert est.exact

    def test_count_with_predicate(self, rng):
        s = hr_of(list(range(10_000)), 512, rng)
        est = estimate_count(s, where=lambda v: v < 5_000)
        assert abs(est.value - 5_000) < 1_500
        assert est.ci_low <= est.value <= est.ci_high

    def test_avg_with_fpc(self, rng):
        s = hr_of(list(range(10_000)), 512, rng)
        est = estimate_avg(s)
        assert abs(est.value - 4999.5) / 4999.5 < 0.15

    def test_sum_scales(self, rng):
        values = list(range(10_000))
        s = hr_of(values, 512, rng)
        est = estimate_sum(s)
        assert abs(est.value - sum(values)) / sum(values) < 0.15


class TestQuantile:
    def test_validation(self):
        s = exhaustive_sample([1, 2, 3])
        with pytest.raises(ConfigurationError):
            estimate_quantile(s, 1.5)

    def test_exhaustive_median(self):
        s = exhaustive_sample(list(range(1, 102)))
        assert estimate_quantile(s, 0.5) == 51

    def test_extremes(self):
        s = exhaustive_sample([3, 1, 2])
        assert estimate_quantile(s, 0.0) == 1
        assert estimate_quantile(s, 1.0) == 3

    def test_sampled_median_close(self, rng):
        s = hr_of(list(range(10_000)), 512, rng)
        median = estimate_quantile(s, 0.5)
        assert abs(median - 5_000) < 1_000


class TestDistinct:
    def test_frequency_of_frequencies(self):
        s = exhaustive_sample([1, 1, 2, 3, 3, 3])
        assert frequency_of_frequencies(s) == {1: 1, 2: 1, 3: 1}

    def test_exhaustive_exact(self):
        s = exhaustive_sample([1, 1, 2, 3])
        assert chao_distinct(s) == 3.0
        assert gee_distinct(s) == 3.0
        assert naive_distinct(s) == 3.0

    def test_unique_data_estimates(self, rng):
        """All-distinct population: GEE is within its sqrt guarantee."""
        n = 20_000
        s = hr_of(list(range(n)), 512, rng)
        gee = gee_distinct(s)
        # GEE for all-singleton sample: sqrt(N/n)*n_sample ~ sqrt(N*n).
        assert 0.1 * n < gee <= n * (n / s.size) ** 0.5

    def test_low_cardinality_estimates(self, rng):
        """Few distinct values, all common: estimators ~ exact."""
        values = [i % 50 for i in range(20_000)]
        s = hr_of(values, 512, rng)
        assert abs(chao_distinct(s) - 50) < 10
        assert abs(gee_distinct(s) - 50) < 10

    def test_empty_edge(self):
        s = WarehouseSample(
            histogram=CompactHistogram(),
            kind=SampleKind.RESERVOIR,
            population_size=100,
            bound_values=10,
            model=MODEL)
        assert naive_distinct(s) == 0.0
        assert gee_distinct(s) == 0.0


class TestEstimateObject:
    def test_confidence_validation(self):
        s = exhaustive_sample([1])
        with pytest.raises(ConfigurationError):
            estimate_count(s, confidence=0.0)

    def test_avg_empty_sample(self):
        s = WarehouseSample(
            histogram=CompactHistogram(),
            kind=SampleKind.RESERVOIR,
            population_size=100,
            bound_values=10,
            model=MODEL)
        with pytest.raises(ConfigurationError):
            estimate_avg(s)

    def test_half_width(self, rng):
        s = hr_of(list(range(10_000)), 256, rng)
        est = estimate_avg(s)
        assert est.half_width == pytest.approx(
            (est.ci_high - est.ci_low) / 2)


@st.composite
def reservoir_samples(draw):
    """A reservoir sample of 1-60 values from a population up to 10^4
    larger.  Values are rounded to 1e-6 so no cancellation lands in the
    subnormal range."""
    values = draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: round(x, 6)),
        min_size=1, max_size=60))
    return WarehouseSample(
        histogram=CompactHistogram.from_values(values),
        kind=SampleKind.RESERVOIR,
        population_size=len(values) + draw(st.integers(0, 10_000)),
        bound_values=len(values),
        model=MODEL)


def _bits(est):
    return (est.ci_low.hex(), est.ci_high.hex())


class TestSinglePath:
    """A reservoir sample is one stratum: the merge-all estimators and
    the stratified estimator share the moment pass, the stratum variance
    and the interval builder, so they agree bit for bit."""

    @given(reservoir_samples(), st.sampled_from([0.8, 0.95, 0.99]))
    @settings(max_examples=200, deadline=None)
    def test_sum_is_one_stratum(self, sample, confidence):
        merged = estimate_sum(sample, confidence=confidence)
        strat = stratified_partition_estimate(
            "sum", sampled=[(sample.population_size, sample)],
            confidence=confidence)
        assert merged.value.hex() == strat.value.hex()
        assert _bits(merged) == _bits(strat)

    @given(reservoir_samples(), st.sampled_from([0.8, 0.95, 0.99]))
    @settings(max_examples=200, deadline=None)
    def test_avg_is_one_stratum(self, sample, confidence):
        """The point values differ on purpose (``estimate_avg`` keeps the
        sample mean, the stratified path divides its total by N), so the
        interval is compared through the standard error both hand to
        the interval builder, and endpoint for endpoint whenever the
        points agree."""
        std_errs = []
        build = estimators._interval

        def spy(value, std_err, *args, **kwargs):
            std_errs.append(std_err)
            return build(value, std_err, *args, **kwargs)

        with mock.patch.object(estimators, "_interval", spy):
            merged = estimate_avg(sample, confidence=confidence)
            strat = stratified_partition_estimate(
                "avg", sampled=[(sample.population_size, sample)],
                confidence=confidence)
        assert len(std_errs) == 2
        assert std_errs[0].hex() == std_errs[1].hex()
        if merged.value == strat.value:
            assert _bits(merged) == _bits(strat)


def _scaled(value):
    return float(value) * 0.5 - 3.0


def _residue(value):
    """Small ints: the products the old loop took in int arithmetic are
    exact either way."""
    return int(value) % 7


def _numpy_keys():
    if not numpy_available():
        return st.nothing()
    import numpy as np
    return st.one_of(st.integers(-2**62, 2**62).map(np.int64),
                     st.floats(width=32).map(np.float32),
                     st.floats().map(np.float64),
                     st.booleans().map(np.bool_))


NUMERIC_KEYS = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, True, False, NAN]),
    _numpy_keys())

#: Strings ``float()`` reads (underscores, padding, other scripts' digits,
#: overflow to inf) and whatever short text hypothesis makes up.
STRING_KEYS = st.one_of(
    st.sampled_from(["1.5", " 2\n", "1_000", "-0.0", "nan", "-inf",
                     "١٢", "1e400", "0x10", ""]),
    st.text(max_size=4))


def runs_sample(runs):
    """An exhaustive sample holding ``(value, count)`` runs (repeats and
    keys equal under ``==``, such as ``1`` and ``True``, add up)."""
    histogram = CompactHistogram.from_pairs(runs)
    return WarehouseSample(histogram=histogram, kind=SampleKind.EXHAUSTIVE,
                           population_size=histogram.size,
                           bound_values=max(1, histogram.distinct),
                           model=MODEL)


def _outcome(fn, *args):
    """``repr`` of the result (NaN, -0.0 and float type show), or the
    exception type."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _cold_and_warm(sample, *args):
    """``_outcome`` of ``_moments`` read twice: the first read builds the
    histogram's float view, the second folds the kept one."""
    return [_outcome(estimators._moments, sample, *args) for _ in range(2)]


@pytest.mark.parametrize("backend", available_backends())
class TestMomentsOracle:
    """``_moments`` is one weighted ``fold_moments`` call and gives the
    per-run loop's ``_Moments`` (conftest ``loop_moments``) bit for bit
    on every backend, errors included, whether the histogram's float
    view is cold or warm."""

    @given(runs=st.lists(st.tuples(NUMERIC_KEYS, st.integers(1, 2**20)),
                         min_size=1, max_size=40),
           value_fn=st.sampled_from([float, _scaled, _residue]))
    @settings(max_examples=300, deadline=None)
    def test_numeric_keys(self, backend, runs, value_fn):
        sample = runs_sample(runs)
        with use_backend(backend):
            got = _cold_and_warm(sample, value_fn)
        assert got == [_outcome(loop_moments, sample, value_fn)] * 2

    @given(runs=st.lists(st.tuples(st.one_of(STRING_KEYS, NUMERIC_KEYS),
                                   st.integers(1, 50)),
                         min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_string_keys_read_by_float(self, backend, runs):
        sample = runs_sample(runs)
        with use_backend(backend):
            got = _cold_and_warm(sample)
        assert got == [_outcome(loop_moments, sample)] * 2

    @pytest.mark.parametrize("key", [None, (1,), b"x", b"2.5",
                                     Decimal("0.1"), Fraction(1, 3), NAN])
    def test_other_keys_fail_or_read_alike(self, backend, key):
        sample = runs_sample([(1.5, 2), (key, 3)])
        with use_backend(backend):
            got = _cold_and_warm(sample)
        assert got == [_outcome(loop_moments, sample)] * 2

    def test_int_too_large_for_a_float(self, backend):
        sample = runs_sample([(1, 2), (10**400, 1)])
        with pytest.raises(OverflowError):
            loop_moments(sample)
        with use_backend(backend):
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="float range"):
                    estimators._moments(sample)

    def test_one_kernel_call_per_sample(self, backend):
        sample = runs_sample([(v, 1 + v % 3) for v in range(900)])
        with use_backend(backend):
            with mock.patch.object(estimators, "fold_moments",
                                   wraps=estimators.fold_moments) as fold:
                estimate_sum(sample)
                stratified_partition_estimate(
                    "avg", sampled=[(900, sample), (900, sample)])
        assert fold.call_count == 3


def _sample_bits(sample):
    """``repr`` of the moments of a fresh copy of ``sample``'s
    histogram, which has no float view yet."""
    return repr(estimators._moments(
        runs_sample(list(sample.histogram.pairs()))))


_MUTATORS = {
    "insert": lambda h: h.insert(2.5),
    "extend": lambda h: h.extend([7, 0.25, 7]),
    "insert_count": lambda h: h.insert_count(-3.0, 4),
    "remove": lambda h: h.remove(1.5),
    "__setstate__": lambda h: h.__setstate__(
        ({9.0: 2, 1.5: 1}, 3, 1)),
}


@pytest.mark.parametrize("backend", available_backends())
class TestFloatView:
    """A histogram's float view is a memo of its keys, kept in the run
    index's memo: built only when moments are read, cleared by every
    mutator, rebuilt on a backend switch, dropped by pickling and never
    writable.  Moments read through it equal a fresh copy's, bit for
    bit."""

    @staticmethod
    def _warm(backend):
        sample = runs_sample([(1.5, 2), (10, 3), (-0.0, 1), (1e300, 2)])
        with use_backend(backend):
            estimators._moments(sample)
            assert sample.histogram.float_view() is not None
        return sample

    def test_run_index_alone_builds_no_view(self, backend):
        sample = runs_sample([(1.5, 2), (10, 3)])
        with use_backend(backend):
            sample.histogram.run_index()
            assert sample.histogram._index[3] is histogram_module._UNBUILT

    @pytest.mark.parametrize("mutator", sorted(_MUTATORS))
    def test_each_mutator_clears_the_view(self, backend, mutator):
        sample = self._warm(backend)
        _MUTATORS[mutator](sample.histogram)
        assert sample.histogram._index is None
        with use_backend(backend):
            assert repr(estimators._moments(sample)) \
                == _sample_bits(sample) \
                == repr(loop_moments(sample))

    def test_backend_switch_gives_fresh_copy_bits(self, monkeypatch,
                                                  backend):
        """The python fold never receives the numpy view."""
        import repro.kernels.python as python_kernels

        original = python_kernels.fold_moments

        def checked(values, *args, **kwargs):
            assert isinstance(values, list), type(values)
            return original(values, *args, **kwargs)

        monkeypatch.setattr(python_kernels, "fold_moments", checked)
        for first in available_backends():
            sample = self._warm(first)
            with use_backend(backend):
                assert repr(estimators._moments(sample)) \
                    == _sample_bits(sample)

    def test_pickle_drops_the_view(self, backend):
        sample = self._warm(backend)
        clone = pickle.loads(pickle.dumps(sample.histogram))
        assert len(sample.histogram.__getstate__()) == 3
        assert clone._index is None and clone == sample.histogram
        with use_backend(backend):
            assert repr(estimators._moments(runs_sample(clone.pairs()))) \
                == repr(estimators._moments(sample))

    def test_view_cannot_be_written(self, backend):
        sample = self._warm(backend)
        with use_backend(backend):
            values, runs = sample.histogram.float_view()
            if backend == "numpy":
                with pytest.raises(ValueError):
                    values[0] = 7.0
            else:
                # The python view is the run index's own keys list.
                assert values is sample.histogram.run_index()[0]
            with pytest.raises(ValueError if backend == "numpy"
                               else TypeError):
                runs[0] = 7
            assert sample.histogram.float_view()[0] is values

    def test_nan_key_has_no_numpy_view(self, backend):
        sample = runs_sample([(1.5, 2), (NAN, 1)])
        with use_backend(backend):
            view = sample.histogram.float_view()
            assert (view is None) is (backend == "numpy")
            assert repr(estimators._moments(sample)) \
                == repr(loop_moments(sample))
