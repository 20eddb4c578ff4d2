"""Seeded data of the ``serve`` workload, shared by client and server.

The server process preloads :func:`build_warehouse`; after a run the
client builds the same warehouse again and replays the mutations the
server committed, to check a served estimate against the library.
"""

from __future__ import annotations

from typing import List

import common
from repro import SampleWarehouse, SplittableRng

DATASET = "events.v"
DAYS = 24
DAY_SIZE = 4000
BOUND = 512


def label(day: int) -> str:
    return f"d{day:05d}"


def day_values(seed: int, day: int) -> List[int]:
    """The values of one day (the same in every process)."""
    rng = SplittableRng(common.sub_seed(seed, "serve.day", day))
    return [rng.randint(1, 4000 + 500 * (day % 8)) for _ in range(DAY_SIZE)]


def ingest_day(wh, seed: int, day: int):
    """Ingest one day as the served ``ingest`` request does."""
    return wh.ingest_batch(DATASET, day_values(seed, day), partitions=1,
                           labels=[label(day)])


def build_warehouse(seed: int) -> SampleWarehouse:
    """The preloaded warehouse: days ``0..DAYS-1``, scheme ``hr``."""
    wh = SampleWarehouse(bound_values=BOUND, scheme="hr",
                         rng=SplittableRng(common.sub_seed(seed, "serve.wh")))
    for day in range(DAYS):
        ingest_day(wh, seed, day)
    return wh
