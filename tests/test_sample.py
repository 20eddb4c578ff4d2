"""Tests for repro.core.sample (WarehouseSample)."""

from __future__ import annotations

import pytest

from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.errors import ConfigurationError

MODEL = FootprintModel(value_bytes=8, count_bytes=4)


def make_sample(values, kind, population, bound=1000, rate=None,
                scheme="hb"):
    return WarehouseSample(
        histogram=CompactHistogram.from_values(values),
        kind=kind,
        population_size=population,
        bound_values=bound,
        rate=rate,
        scheme=scheme,
        model=MODEL,
    )


class TestValidation:
    def test_bernoulli_needs_rate(self):
        with pytest.raises(ConfigurationError):
            make_sample([1], SampleKind.BERNOULLI, 10)

    def test_rate_range(self):
        with pytest.raises(ConfigurationError):
            make_sample([1], SampleKind.BERNOULLI, 10, rate=0.0)
        with pytest.raises(ConfigurationError):
            make_sample([1], SampleKind.BERNOULLI, 10, rate=1.5)

    def test_exhaustive_must_cover_population(self):
        with pytest.raises(ConfigurationError):
            make_sample([1, 2], SampleKind.EXHAUSTIVE, 10)

    def test_sample_cannot_exceed_population(self):
        with pytest.raises(ConfigurationError):
            make_sample([1, 2, 3], SampleKind.RESERVOIR, 2)

    def test_negative_population(self):
        with pytest.raises(ConfigurationError):
            make_sample([], SampleKind.RESERVOIR, -1)

    def test_bound_positive(self):
        with pytest.raises(ConfigurationError):
            make_sample([1], SampleKind.RESERVOIR, 10, bound=0)


class TestProperties:
    def test_exhaustive_scale_factor(self):
        s = make_sample([1, 2, 3], SampleKind.EXHAUSTIVE, 3)
        assert s.scale_factor == 1.0
        assert s.sampling_fraction == 1.0

    def test_bernoulli_scale_factor(self):
        s = make_sample([1, 2], SampleKind.BERNOULLI, 100, rate=0.02)
        assert s.scale_factor == pytest.approx(50.0)

    def test_reservoir_scale_factor(self):
        s = make_sample([1, 2, 3, 4], SampleKind.RESERVOIR, 100)
        assert s.scale_factor == pytest.approx(25.0)

    def test_empty_reservoir_scale(self):
        s = make_sample([], SampleKind.RESERVOIR, 100)
        assert s.scale_factor == 0.0

    def test_footprint_accounting(self):
        s = make_sample([1, 1, 2], SampleKind.RESERVOIR, 10, bound=10)
        assert s.footprint_bytes == (8 + 4) + 8
        assert s.bound_bytes == 80

    def test_values_expand(self):
        s = make_sample([1, 1, 2], SampleKind.RESERVOIR, 10)
        assert sorted(s.values()) == [1, 1, 2]

    def test_with_scheme(self):
        s = make_sample([1], SampleKind.RESERVOIR, 10)
        assert s.with_scheme("hr").scheme == "hr"
        assert s.scheme == "hb"  # original untouched


class TestInvariants:
    def test_check_invariants_ok(self):
        s = make_sample([1, 2], SampleKind.RESERVOIR, 10, bound=5)
        s.check_invariants()

    def test_check_invariants_size_violation(self):
        s = make_sample(list(range(10)), SampleKind.RESERVOIR, 100,
                        bound=5)
        with pytest.raises(ConfigurationError):
            s.check_invariants()
