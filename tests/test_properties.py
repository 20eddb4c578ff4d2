"""Cross-cutting property-based tests (hypothesis).

These exercise invariants that span multiple modules: arbitrary
feed/merge/rollout sequences must preserve the footprint bound, account
for every parent element exactly once, and keep samples loadable through
the serialization layer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_tree
from repro.core.phases import SampleKind
from repro.rng import SplittableRng
from repro.testkit.differential import left_deep_fold
from repro.warehouse.parallel import SampleTask, sample_partition
from repro.warehouse.storage import sample_from_dict, sample_to_dict

# Strategy: a partition spec = (scheme, size, value modulus).
partition_specs = st.tuples(
    st.sampled_from(["hb", "hr"]),
    st.integers(min_value=1, max_value=1500),
    st.integers(min_value=1, max_value=2000),
)


def build_sample(spec, bound, seed):
    scheme, size, modulus = spec
    values = [(i * 2654435761) % modulus for i in range(size)]
    return sample_partition(SampleTask(values=values, scheme=scheme,
                                       bound_values=bound, seed=seed))


class TestPipelineInvariants:
    @given(st.lists(partition_specs, min_size=1, max_size=5),
           st.integers(min_value=8, max_value=256),
           st.integers(min_value=0, max_value=10**6),
           st.sampled_from([left_deep_fold, merge_tree]))
    @settings(max_examples=30, deadline=None)
    def test_merge_tree_preserves_all_invariants(self, specs, bound, seed,
                                                 fold):
        rng = SplittableRng(seed)
        samples = [build_sample(spec, bound, seed + i)
                   for i, spec in enumerate(specs)]
        merged = fold(samples, rng=rng)
        merged.check_invariants()
        # Population accounting: exact sum of parents.
        assert merged.population_size == sum(s[1] for s in specs)
        # Sample values must come from the union of parents' domains.
        moduli = max(s[2] for s in specs)
        assert all(0 <= v < moduli for v in merged.values())
        # The bound holds for non-exhaustive merges.
        if merged.kind is not SampleKind.EXHAUSTIVE:
            assert merged.size <= bound

    @given(partition_specs, st.integers(min_value=4, max_value=128),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_serialization_round_trip_arbitrary(self, spec, bound, seed):
        sample = build_sample(spec, bound, seed)
        restored = sample_from_dict(sample_to_dict(sample))
        assert restored.histogram == sample.histogram
        assert restored.kind is sample.kind
        assert restored.population_size == sample.population_size
        assert restored.rate == sample.rate
        restored.check_invariants()

    @given(partition_specs, st.integers(min_value=4, max_value=64),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_sample_size_never_exceeds_parent(self, spec, bound, seed):
        sample = build_sample(spec, bound, seed)
        assert sample.size <= sample.population_size
        assert sample.footprint_bytes <= sample.bound_bytes

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, seed):
        spec = ("hr", 700, 900)
        a = build_sample(spec, 32, seed)
        b = build_sample(spec, 32, seed)
        assert a.histogram == b.histogram


class TestMergeAlgebra:
    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=15, deadline=None)
    def test_merge_order_independence_of_population(self, seed):
        """Whatever the merge order, population accounting agrees and
        invariants hold (sample contents legitimately differ)."""
        rng = SplittableRng(seed)
        samples = [build_sample(("hr", 800, 5000), 64, seed + i)
                   for i in range(4)]
        left_deep = left_deep_fold(samples, rng=rng.spawn("l"))
        balanced = merge_tree(samples, rng=rng.spawn("b"))
        assert left_deep.population_size == balanced.population_size \
            == 3200
        assert left_deep.size == balanced.size  # both pinned at min size
