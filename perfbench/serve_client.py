"""The ``serve`` workload: open-loop HTTP traffic against a server process.

A default-config ``WarehouseService`` runs in its own process
(``serve_server.py``) over a 24-day ``hr`` warehouse (bound 512).  This
process sends a seeded mix at one fixed offered rate, below saturation,
with at most ``nproc`` requests in flight and one connection per
request; every latency is timed from the request's due time, so a stall
also delays the requests queued behind it.

The mix: planned ``/estimate`` over a label range (40 %), merge-all
``/estimate`` (15 %), ``/sample`` over Zipf-popular label ranges (40 %),
and 5 % writes: ``ingest`` of a new day, then ``rollout`` of the oldest.
Writes run one at a time and keep 24 days active.  Every write empties
the dataset's merge cache, so between writes it holds about twenty
entries and never reaches its 128-entry limit; the traced run reports
the peak and the evictions (none).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import common
import repro.analytics.estimators as estimators
import serve_data
from repro import SplittableRng
from repro.sampling.distributions import ZipfSampler
from repro.warehouse.dataset import PartitionKey
from serve_data import DATASET, DAY_SIZE, DAYS, label
from tracer import requests_total

RATE = 40.0              # offered operations per second
LIMIT_S = 0.1            # goodput latency limit, from the due time
LATENESS_BOUND_S = 0.05  # p99 generator lateness beyond which a run is invalid
RECONCILE_TOLERANCE = 0.05
WARMUP_OPS = 40
PASS_OPS = 80            # operations per pass (4 blocks)
#: 20 operations: 5 % writes, 40 % planned and 15 % merge-all
#: estimates, 40 % samples.
BLOCK = ["write"] + ["planned"] * 8 + ["merge"] * 3 + ["sample"] * 8
STATS = ("count", "sum", "avg")
TARGETS = ("0.01", "0.02", "0.05")
LENGTHS = (1, 2, 4, 8, 16, 23)
SETUPS = 5

perf = time.perf_counter
Op = Tuple


def selector_pool(seed: int) -> List[Tuple[int, int]]:
    """Every (offset, length) label range that skips the oldest day, in
    popularity order.  Ranks cycle through the lengths, so the length mix
    of the Zipf draws is the same for every seed; the seed picks offsets."""
    rng = SplittableRng(common.sub_seed(seed, "serve.selectors"))
    by_length = {}
    for length in range(1, DAYS):
        offsets = list(range(1, DAYS - length + 1))
        rng.shuffle(offsets)
        by_length[length] = offsets
    pool: List[Tuple[int, int]] = []
    while any(by_length.values()):
        for length, offsets in by_length.items():
            if offsets:
                pool.append((offsets.pop(), length))
    return pool


def operations(seed: int, count: int) -> List[Op]:
    """The first ``count`` operations of the seeded schedule: shuffled
    blocks of :data:`BLOCK`, so every seed offers the same mix."""
    rng = SplittableRng(common.sub_seed(seed, "serve.ops"))
    pool = selector_pool(seed)
    zipf = ZipfSampler(len(pool))
    ops: List[Op] = []
    block: List[str] = []
    planned: List[Tuple[str, int]] = []
    for _ in range(count):
        if not block:
            block = list(BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        if kind == "planned":
            if not planned:
                planned = [(s, n) for s in STATS for n in LENGTHS]
                rng.shuffle(planned)
            stat, length = planned.pop()
            ops.append(("planned", stat, rng.choice(TARGETS),
                        rng.randint(1, DAYS - length), length))
        elif kind == "merge":
            ops.append(("merge", rng.choice(STATS)))
        elif kind == "sample":
            ops.append(("sample",) + pool[zipf.sample(rng) - 1])
        else:
            ops.append(("write",))
    return ops


async def request(port: int, method: str, path: str, body=None,
                  rid: str = "") -> Tuple[int, dict]:
    """One request over a fresh connection; returns (status, payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        writer.write((f"{method} {path} HTTP/1.1\r\n"
                      f"Host: 127.0.0.1\r\nX-Request-Id: {rid}\r\n"
                      f"Content-Length: {len(data)}\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1") + data)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


class ServerProcess:
    """One server process, from spawn until it reports back."""

    def __init__(self, seed: int, *, trace: bool = False,
                 obs: bool = False) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "serve_server.py"),
             "--seed", str(seed), "--trace", str(int(trace)),
             "--obs", str(int(obs))],
            cwd=common.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self.proc.stdout.readline()
        try:
            self.port = json.loads(line)["ready"]
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}") from None

    def stop(self) -> dict:
        """Ask the server to exit; returns its final report."""
        out, _ = self.proc.communicate("stop\n", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Drive:
    """One pass of the schedule against one server."""

    def __init__(self, port: int, ops: List[Op],
                 new_days: Dict[int, List[int]]) -> None:
        self.port = port
        self.ops = ops
        self.new_days = new_days
        self.oldest = 0
        self.next_day = DAYS
        #: (class, seconds from due, ok) per operation, in completion order
        self.done: List[Tuple[str, float, bool]] = []
        self.latency: Dict[str, float] = {}     # rid -> seconds from due
        self.samples: List[Tuple[int, Tuple[int, ...], int]] = []
        self.mutations: List[Tuple[int, str, int]] = []
        self.versions: List[Tuple[float, float, int]] = []
        self.lateness: List[float] = []
        self.wrong_keys = 0
        self.failed = 0
        self.wall = 0.0

    def days(self, offset: int, length: int) -> Tuple[int, ...]:
        return tuple(self.oldest + offset + j for j in range(length))

    async def send(self, method: str, path, body, rid: str, due: float):
        """Send once a slot is free; ``path`` may be a callable so label
        ranges are resolved against the window when the request leaves."""
        async with self.slots:
            days = ()
            if callable(path):
                path, days = path()
            start = perf()
            try:
                status, payload = await request(self.port, method, path,
                                                body, rid)
            except (ConnectionError, OSError, ValueError, IndexError):
                status, payload = -1, {}
            end = perf()
        self.latency[rid] = end - due
        ok = 200 <= status < 300
        if not ok:
            self.failed += 1
        elif "version" in payload:
            self.versions.append((start, end, payload["version"]))
        return ok, payload, end, days

    async def warm(self) -> None:
        """Send the schedule's first reads once each, one at a time, so
        lazy set-up in the server finishes before timing starts."""
        self.slots = asyncio.Semaphore(1)
        for i, op in enumerate(self.ops[:WARMUP_OPS]):
            if op[0] != "write":
                await self.read(f"warm{i}", op, perf())
        self.done.clear()
        self.latency.clear()

    async def read(self, i, op: Op, due: float) -> None:
        kind = op[0]

        def path():
            if kind == "planned":
                _, stat, target, offset, length = op
                days = self.days(offset, length)
                return (f"/datasets/{DATASET}/estimate?stat={stat}"
                        f"&target_half_width={target}&relative=1&labels="
                        + ",".join(map(label, days))), days
            if kind == "merge":
                return f"/datasets/{DATASET}/estimate?stat={op[1]}", ()
            days = self.days(op[1], op[2])
            return (f"/datasets/{DATASET}/sample?labels="
                    + ",".join(map(label, days))), days

        ok, payload, end, days = await self.send("GET", path, None, str(i),
                                                 due)
        if ok and kind == "sample":
            self.samples.append((payload["version"], days,
                                 payload["sample"]["population_size"]))
        self.done.append(("read", end - due, ok))

    async def write(self, i: int, due: float) -> None:
        async with self.write_lock:
            day = self.next_day
            self.next_day += 1
            body = {"values": self.new_days[day], "labels": [label(day)],
                    "partitions": 1}
            ok, payload, end, _ = await self.send(
                "POST", f"/datasets/{DATASET}/ingest", body, f"{i}a", due)
            if ok:
                self.mutations.append((payload["version"], "ingest", day))
                if payload["keys"] != [f"{DATASET}/0/{day}"]:
                    self.wrong_keys += 1
                key = str(PartitionKey(DATASET, 0, self.oldest))
                ok, payload, end, _ = await self.send(
                    "POST", f"/datasets/{DATASET}/rollout", {"key": key},
                    f"{i}b", end)
                if ok:
                    self.mutations.append(
                        (payload["version"], "rollout", self.oldest))
                    self.oldest += 1
        self.done.append(("write", end - due, ok))

    def on_time(self, kind: str = "") -> float:
        """Operations (of one class, or all) answered 2xx within the
        limit, per second of the run."""
        return sum(1 for k, t, ok in self.done
                   if ok and t <= LIMIT_S and kind in ("", k)) / self.wall

    async def run(self) -> None:
        self.slots = asyncio.Semaphore(common.nproc())
        self.write_lock = asyncio.Lock()
        tasks = []
        t0 = perf() + 0.02
        for i, op in enumerate(self.ops):
            due = t0 + i / RATE
            delay = due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(max(0.0, perf() - due))
            tasks.append(asyncio.create_task(
                self.write(i, due) if op[0] == "write"
                else self.read(i, op, due)))
        await asyncio.gather(*tasks)
        self.wall = perf() - t0


def check_pass(seed: int, drive: Drive, final: Tuple[dict, dict],
               res: common.Result) -> None:
    """Output checks of one pass (see NOTES.md)."""
    datasets, estimate = final
    res.check("serve.failed", drive.failed == 0,
              f"{drive.failed} requests failed or were shed")
    muts = sorted(drive.mutations)
    res.check("serve.mutation_versions",
              [v for v, _, _ in muts] == list(range(1, len(muts) + 1)),
              "committed mutations do not bump the version one by one")
    res.check("serve.keys", drive.wrong_keys == 0,
              f"{drive.wrong_keys} ingests answered unexpected keys")
    active = set(range(DAYS))
    states = {0: frozenset(active)}
    for version, kind, day in muts:
        if kind == "ingest":
            active.add(day)
        else:
            active.discard(day)
        states[version] = frozenset(active)
    bad = [(v, pop) for v, days, pop in drive.samples
           if v not in states
           or pop != DAY_SIZE * len(states[v].intersection(days))]
    res.check("serve.sample_population", not bad,
              f"{len(bad)} /sample populations disagree with the catalog "
              f"at their version, e.g. {bad[:2]}")
    ends = sorted(drive.versions, key=lambda r: r[1])
    backwards = 0
    best = -1
    j = 0
    for start, _end, version in sorted(drive.versions):
        while j < len(ends) and ends[j][1] < start:
            best = max(best, ends[j][2])
            j += 1
        backwards += version < best
    res.check("serve.monotonic_versions", backwards == 0,
              f"{backwards} responses older than one already received")
    row = datasets["datasets"][0]
    res.check("serve.partitions", row["partitions"] == DAYS,
              f"{row['partitions']} active partitions, expected {DAYS}")
    replica = serve_data.build_warehouse(seed)
    for _version, kind, day in muts:
        if kind == "ingest":
            serve_data.ingest_day(replica, seed, day)
        else:
            replica.roll_out(PartitionKey(DATASET, 0, day))
    expected = estimators.estimate_avg(replica.sample_of(DATASET)).value
    res.check("serve.final_estimate",
              estimate["version"] == len(muts)
              and estimate["value"] == expected,
              f"served avg {estimate['value']!r} at version "
              f"{estimate['version']}, library {expected!r} at "
              f"version {len(muts)}")
    late = common.percentile(drive.lateness, 0.99)
    res.check("serve.lateness", late <= LATENESS_BOUND_S,
              f"generator p99 lateness {late:.4f}s exceeds "
              f"{LATENESS_BOUND_S}s: the run is invalid")


async def drive_pass(port: int, ops: List[Op],
                     new_days: Dict[int, List[int]]):
    drive = Drive(port, ops, new_days)
    await drive.warm()
    await drive.run()
    _, datasets = await request(port, "GET", "/datasets", rid="final.ds")
    _, estimate = await request(
        port, "GET", f"/datasets/{DATASET}/estimate?stat=avg",
        rid="final.est")
    return drive, (datasets, estimate)


def one_pass(seed: int, server: ServerProcess, ops: List[Op],
             new_days, res: common.Result):
    """Drive ``ops`` against a started server; returns (drive, report)."""
    try:
        drive, final = asyncio.run(drive_pass(server.port, ops, new_days))
        report = server.stop()
    finally:
        server.kill()
    check_pass(seed, drive, final, res)
    res.attempted += len(ops)
    res.failed += drive.failed
    return drive, report


def trace_metrics(drive: Drive, snapshot: dict,
                  res: common.Result) -> Dict[str, float]:
    """Per-layer metrics over the requests the traced pass timed.

    The warm-up and final requests are left out; work that joined no
    request is kept in.  The reported per-layer self times plus
    ``serve.unattributed.s`` must add up to the client-side mean.
    """
    requests = snapshot["requests"]
    timed = [rid for rid in drive.latency if rid in requests]
    res.check("serve.trace_join", len(timed) == len(drive.latency),
              f"{len(drive.latency) - len(timed)} requests without spans")
    n = len(timed)
    client = sum(drive.latency[rid] for rid in timed) / n
    unattributed = sum(drive.latency[rid] - requests[rid]["s"]
                       for rid in timed) / n
    metrics = common.layer_metrics(requests_total(snapshot, timed), n)
    for name in ("serve.cache.evictions", "serve.cache.peak_entries"):
        metrics[name] = snapshot["counts"].get(name, 0.0)
    metrics["serve.unattributed.s"] = unattributed
    stages = sum(metrics[f"{name}.s"] for name in common.SELF_TIME_LAYERS)
    error = abs(stages + unattributed - client) / client
    res.check("serve.reconcile", error <= RECONCILE_TOLERANCE,
              f"per-layer self times + serve.unattributed.s miss the "
              f"client mean by {error:.1%} "
              f"(tolerance {RECONCILE_TOLERANCE:.0%})")
    metrics["serve.reconcile_error_frac"] = error
    return metrics


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    res = common.Result("serve")
    passes = 3 if trace else 1
    ops = operations(seed, int(RATE * seconds / passes))
    writes = sum(1 for op in ops if op[0] == "write")
    new_days = {day: serve_data.day_values(seed, day)
                for day in range(DAYS, DAYS + writes)}
    res.facts.update(common.provenance(
        loop="open", offered_rate_rps=RATE, latency_limit_s=LIMIT_S,
        inflight=common.nproc(), lateness_bound_s=LATENESS_BOUND_S,
        reconcile_tolerance=RECONCILE_TOLERANCE))
    if not trace:
        setups = []
        for k in range(SETUPS):
            server, took = common.timed_setup(lambda: ServerProcess(seed))
            setups.append(took)
            if k < SETUPS - 1:
                server.stop()
        res.host.sample(0.0)
        drive, report = one_pass(seed, server, ops, new_days, res)
        res.host.sample(1.0)
        # Latencies are not scaled: most of a request's time is spent in
        # transport and in waking two processes, which do not follow the
        # reference loop (scaled, the ten-seed spread of the read p50
        # doubled).
        for prefix, kind in (("a", "read"), ("b", "write")):
            res.metrics.update(common.class_metrics(prefix, [
                ([t for k, t, ok in p if k == kind and ok], 1.0)
                for p in common.chunks(drive.done, PASS_OPS)]))
            # An open loop's work rate is the offered rate, so report
            # the class's on-time completions per second instead.
            res.metrics[f"{prefix}_rate_per_s"] = drive.on_time(kind)
        res.metrics["goodput_per_s"] = drive.on_time()
        res.set_setup(setups)
        res.metrics["rss_peak_mb"] = report["rss_peak_mb"]
        res.facts["lateness_p99_s"] = common.percentile(drive.lateness, 0.99)
        return res
    plain, _ = one_pass(seed, ServerProcess(seed), ops, new_days, res)
    traced, report = one_pass(seed, ServerProcess(seed, trace=True), ops,
                              new_days, res)
    observed, _ = one_pass(seed, ServerProcess(seed, obs=True), ops,
                           new_days, res)
    res.metrics.update(trace_metrics(traced, report["trace"], res))

    def latencies(drive: Drive) -> List[float]:
        return [t for _, t, _ in drive.done]

    res.metrics["bench.trace_overhead_frac"] = common.overhead(
        latencies(plain), latencies(traced))
    res.metrics["obs.overhead_frac"] = common.overhead(
        latencies(plain), latencies(observed))
    res.metrics["bench.lateness_p99_s"] = common.percentile(
        plain.lateness, 0.99)
    with open(common.out_path(f"trace-serve-{seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump(report["trace"], f)
    return res
