"""Observability quickstart: capture metrics and a trace of an ingest.

Run:  python examples/observability.py

The docstring examples below are executed by the test suite
(``tests/test_doctests.py``), so this quickstart cannot rot.  They
assert on *counters*, which are deterministic under a fixed seed;
timings and span durations vary run to run and are never asserted
(see ``docs/determinism.md``).
"""

from repro import MetricsRegistry, SampleWarehouse, SplittableRng, capture


def instrumented_ingest(partitions=10, size=20_000, bound=256, seed=2006):
    """Ingest ``size`` values into HB partitions under ``capture``.

    Returns ``(merged_sample, registry, ring)`` — the merged sample of
    the whole dataset, the metrics registry, and the ring-buffer span
    sink.

    Examples
    --------
    Every one of the ten samplers overflows phase 1 (2 000 values
    against a bound of 256) and crosses into the Bernoulli phase; one
    merge step unites the ten partition samples, with no pairwise
    HBMerge:

    >>> merged, registry, ring = instrumented_ingest()
    >>> snap = registry.snapshot()
    >>> snap["hb.phase2.enter"]["value"]
    10
    >>> snap["hb.arrivals"]["value"]
    20000
    >>> snap["merge.tree.seconds"]["count"]
    1
    >>> "merge.hb" in snap
    False
    >>> snap["ingest.batch.partitions"]["value"]
    10
    >>> snap["parallel.task.seconds.serial"]["count"]
    10

    The trace nests the per-sampler phase transitions under the batch
    ingest, and the merge under the merge-on-demand call:

    >>> names = [s.name for s in ring.spans]
    >>> names.count("hb.phase2")
    10
    >>> names.count("merge.tree")
    1
    >>> by_name = {s.name: s for s in ring.spans}
    >>> tree = by_name["merge.tree"]
    >>> tree.parent_id == by_name["warehouse.sample_of"].span_id
    True

    Outside the ``capture`` block, observability is off again and the
    merged sample is a normal, fully deterministic sample:

    >>> from repro.obs.runtime import OBS
    >>> OBS.enabled
    False
    >>> merged.population_size
    20000
    """
    registry = MetricsRegistry()
    with capture(registry) as (_, ring):
        wh = SampleWarehouse(bound_values=bound, scheme="hb",
                             rng=SplittableRng(seed))
        wh.ingest_batch("obs.demo", list(range(size)),
                        partitions=partitions)
        merged = wh.sample_of("obs.demo")
    return merged, registry, ring


if __name__ == "__main__":
    merged, registry, ring = instrumented_ingest()
    print(f"merged: {merged.kind.name} sample of "
          f"{merged.size}/{merged.population_size} values")
    print()
    print(registry.report())
    print()
    print("trace (nested spans):")
    print(ring.render())
