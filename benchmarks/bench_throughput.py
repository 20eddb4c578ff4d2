"""Sampling throughput (Section 5's conclusion 2, re-measured).

The paper reports absolute throughput — "Algorithm HB can exploit 64-way
parallelism to sample 4.6 million data elements per second, and
Algorithm HR can exploit 32-way parallelism to sample 3 million" — on
2006 hardware.  This bench measures per-core elements/second for each
scheme in both arrival modes:

* per-arrival ``feed`` (the honest streaming cost every real pipeline
  pays: one call per element);
* batched ``feed_many`` over an in-memory list (the library's skip fast
  path, which touches only included elements).

Numbers are printed, not asserted (they are hardware-bound); the one
shape assertion is that the batched fast path beats per-arrival feeding
for the bounded samplers, which is the point of implementing skips.
"""

from __future__ import annotations

from repro.bench import wall_timer
from repro.bench.report import print_table
from repro.warehouse.parallel import make_sampler
from repro.workloads.generators import UniformGenerator

N = 200_000
BOUND = 2_048


def _throughput(scheme, values, rng, mode):
    sampler = make_sampler(scheme, population_size=len(values),
                           bound_values=BOUND, exceedance_p=0.001,
                           sb_rate=BOUND / len(values), rng=rng)
    with wall_timer() as t:
        if mode == "stream":
            feed = sampler.feed
            for v in values:
                feed(v)
        else:
            sampler.feed_many(values)
    sampler.finalize()
    return len(values) / t.seconds


def test_throughput(benchmark, rng):
    values = UniformGenerator(1_000_000).generate(N, rng.spawn("data"))

    def run():
        rows = []
        rates = {}
        for scheme in ("sb", "hb", "hr"):
            stream = _throughput(scheme, values,
                                 rng.spawn("s", scheme), "stream")
            batch = _throughput(scheme, values,
                                rng.spawn("b", scheme), "batch")
            rows.append((scheme, stream, batch, batch / stream))
            rates[scheme] = (stream, batch)
        return rows, rates

    rows, rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(("scheme", "stream_elems_per_s", "batch_elems_per_s",
                 "fast_path_speedup"), rows,
                title=f"Sampling throughput, one core, N = {N:,} "
                      f"(paper conclusion 2 context)")

    # The block-step fast path must pay off for the bounded samplers.
    for scheme in ("hb", "hr"):
        stream, batch = rates[scheme]
        assert batch > stream, \
            f"{scheme}: fast path ({batch:.0f}/s) did not beat " \
            f"per-arrival feeding ({stream:.0f}/s)"
