"""The numpy kernel backend — each kernel op is one vectorized call.

Draw semantics match the python backend's laws exactly (same pmfs, same
support); only the *stream consumption* differs, which is why
determinism is a per-backend contract (docs/determinism.md):

* the eq. (3) recursion runs as one ``cumprod`` per directed walk from
  the mode, and draws invert a cached cumulative pmf with
  ``searchsorted`` (the cdf cache is this backend's analogue of the
  Section 4.2 alias-table cache and reports through the same
  ``merge.hyper_cache.hit`` / ``merge.hyper_cache.miss`` counters);
* Figure 3's per-run Binomials are a single ``Generator.binomial`` call
  over the run-length vector;
* Figure 4's simple random subsample over runs is a single
  ``Generator.multivariate_hypergeometric`` draw — the distribution of
  surviving counts per run under an SRS is exactly that law.

Run lengths are read with one ``np.fromiter`` (a histogram's
``dict.values()`` view needs no intermediate list) and both purge ops
return only the surviving runs, located with one ``flatnonzero``.

Each :class:`~repro.rng.SplittableRng` lazily owns one
``numpy.random.Generator`` seeded from its own stream
(``rng.getrandbits(64)``), so kernel draws remain a pure function of
the rng's state and the call sequence — byte-identical across
executors and worker counts, like every other consumer of the
seed-splitting discipline.

:class:`ArrivalUniforms` gives Algorithms HB and HR one uniform per
phase-2/3 arrival (docs/algorithms.md).  It owns a second generator,
seeded the same way at its first draw, so the per-arrival stream never
interleaves with the purge kernels' draws: a ``feed_many`` slice and
per-arrival ``feed`` read the same uniforms in the same order.

:func:`fold_moments` is the one kernel whose output is byte-identical
to the python backend's: the synopsis moments are exact summaries, not
draws, so it performs the reference's IEEE operations in the
reference's order, only at C speed.
"""

from __future__ import annotations

import math
import threading
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import python as _reference
from repro.obs.runtime import OBS
from repro.rng import SplittableRng
from repro.sampling.distributions import hypergeometric_logpmf_term

__all__ = ["hypergeometric_pmf", "draw_hypergeometric",
           "draw_hypergeometric_batch", "binomial_counts", "srs_counts",
           "ArrivalUniforms", "arrival_uniforms", "fold_moments"]

#: Attribute under which a SplittableRng carries its numpy generator.
_GEN_ATTR = "_repro_numpy_generator"


def _generator(rng: SplittableRng) -> "np.random.Generator":
    """The rng's lazily-created numpy generator (seeded from its stream).

    Seeding consumes 64 bits of the Python stream once per rng, so the
    generator — and every vectorized draw after it — is a deterministic
    function of the rng's seed and prior consumption.
    """
    gen = getattr(rng, _GEN_ATTR, None)
    if gen is None:
        gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        setattr(rng, _GEN_ATTR, gen)
    return gen


def _validate(n1: int, n2: int, k: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ConfigurationError(
            f"population sizes must be >= 0, got {n1}, {n2}")
    if not 0 <= k <= n1 + n2:
        raise ConfigurationError(
            f"draw size k={k} must be in [0, {n1 + n2}]")


def _pmf_array(n1: int, n2: int, k: int) -> "np.ndarray":
    """Eq. (3) as two cumulative products walking outward from the mode."""
    _validate(n1, n2, k)
    lo = max(0, k - n2)
    hi = min(k, n1)
    mode = min(hi, max(lo, (k + 1) * (n1 + 1) // (n1 + n2 + 2)))
    pmf = np.zeros(k + 1)
    pmf[mode] = math.exp(hypergeometric_logpmf_term(n1, n2, k, mode))
    if hi > mode:
        # P(l+1)/P(l) = (k-l)(n1-l) / ((l+1)(n2-k+l+1)) for l = mode..hi-1
        ls = np.arange(mode, hi, dtype=np.float64)
        up = ((k - ls) * (n1 - ls)) / ((ls + 1.0) * (n2 - k + ls + 1.0))
        pmf[mode + 1:hi + 1] = pmf[mode] * np.cumprod(up)
    if mode > lo:
        # inverse ratio for l = mode..lo+1, walking downward
        ls = np.arange(mode, lo, -1, dtype=np.float64)
        down = (ls * (n2 - k + ls)) / ((k - ls + 1.0) * (n1 - ls + 1.0))
        pmf[lo:mode] = (pmf[mode] * np.cumprod(down))[::-1]
    total = float(pmf.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        pmf = pmf / total
    return pmf


def hypergeometric_pmf(n1: int, n2: int, k: int) -> List[float]:
    """The probability vector ``P(0..k)`` of eq. (2)."""
    return _pmf_array(n1, n2, k).tolist()


# Cumulative-pmf cache keyed by (n1, n2, k) — the same role (and the
# same hit/miss counters) as CachedHypergeometric's alias tables on the
# python backend.  Shared across threads: reads are lock-free, inserts
# go through setdefault under the lock, and a racing rebuild produces
# an identical array.  Cache state never affects draw values.
_CDF_CACHE: Dict[Tuple[int, int, int], "np.ndarray"] = {}
_CDF_LOCK = threading.Lock()


def _cdf(n1: int, n2: int, k: int) -> "np.ndarray":
    key = (n1, n2, k)
    cdf = _CDF_CACHE.get(key)
    if cdf is None:
        if OBS.enabled:
            OBS.registry.counter("merge.hyper_cache.miss").inc()
        built = np.cumsum(_pmf_array(n1, n2, k))
        with _CDF_LOCK:
            cdf = _CDF_CACHE.setdefault(key, built)
    elif OBS.enabled:
        OBS.registry.counter("merge.hyper_cache.hit").inc()
    return cdf


def draw_hypergeometric(n1: int, n2: int, k: int, rng: SplittableRng, *,
                        cache=None, method: str = "inversion") -> int:
    """One eq. (2) draw by cdf inversion (one ``searchsorted``).

    ``cache`` and ``method`` are python-backend knobs; this backend's
    module-level cdf cache subsumes both, so they are accepted and
    ignored.
    """
    del cache, method
    cdf = _cdf(n1, n2, k)
    u = _generator(rng).random()
    return int(min(np.searchsorted(cdf, u, side="left"), k))


def draw_hypergeometric_batch(n1: int, n2: int, k: int,
                              rng: SplittableRng, count: int, *,
                              cache=None,
                              method: str = "inversion") -> List[int]:
    """``count`` eq. (2) draws from one uniform vector."""
    del cache, method
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    cdf = _cdf(n1, n2, k)
    us = _generator(rng).random(count)
    draws = np.minimum(np.searchsorted(cdf, us, side="left"), k)
    return [int(x) for x in draws]


def _survivors(kept: "np.ndarray") -> Tuple[List[int], List[int]]:
    """The nonzero entries of a kept-count vector as ``(indices, kept)``."""
    indices = np.flatnonzero(kept)
    return indices.tolist(), kept[indices].tolist()


def _run_array(runs: Collection[int]) -> "np.ndarray":
    return np.fromiter(runs, dtype=np.int64, count=len(runs))


def binomial_counts(counts: Collection[int], q: float,
                    rng: SplittableRng) -> Tuple[List[int], List[int]]:
    """All of Figure 3's Binomial draws as one vectorized call."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {q}")
    arr = _run_array(counts)
    if arr.size == 0:
        return [], []
    if arr.min() < 0:
        raise ConfigurationError("run lengths must be >= 0")
    return _survivors(_generator(rng).binomial(arr, q))


def srs_counts(runs: Collection[int], size: int,
               rng: SplittableRng) -> Tuple[List[int], List[int]]:
    """Figure 4 as one multivariate hypergeometric draw.

    Drawing ``size`` elements uniformly without replacement from the
    concatenated runs leaves each run with counts distributed exactly
    as ``multivariate_hypergeometric(runs, size)`` — the same law the
    python backend's reservoir loop realizes one element at a time.
    """
    arr = _run_array(runs)
    total = int(arr.sum())
    if not 0 <= size <= total:
        raise ConfigurationError(
            f"size must be in [0, {total}], got {size}")
    if size == 0:
        return [], []
    if size == total:
        return _survivors(arr)
    # "count" needs O(sum(runs)) scratch; "marginals" walks the runs.
    # The choice is a pure function of the inputs, keeping draws
    # deterministic for a given rng state.
    method = "count" if total <= 1_000_000 else "marginals"
    return _survivors(_generator(rng).multivariate_hypergeometric(
        arr, size, method=method))


class ArrivalUniforms:
    """One ``U[0, 1)`` per stream arrival, for Figures 2/7 phases 2-3.

    Uniforms are drawn in blocks from a generator seeded from the rng's
    stream at the first draw, and handed out strictly in arrival order,
    so how a stream is split into :meth:`next` and slice calls never
    changes which uniform an arrival gets (``Generator.random(n)``
    yields the same doubles as ``n`` scalar calls).
    """

    __slots__ = ("_rng", "_gen", "_buf", "_pos", "_list")

    #: Uniforms drawn ahead for per-arrival :meth:`next` calls.
    BLOCK = 512
    #: Most arrivals a sampler passes per slice call (bounds the
    #: scratch arrays of one draw).
    MAX_TAKE = 1 << 16

    def __init__(self, rng: SplittableRng) -> None:
        self._rng = rng
        self._gen = None
        self._buf = np.empty(0)
        self._pos = 0
        self._list: Optional[List[float]] = []  # the buffer, for next()

    def _take(self, n: int) -> "np.ndarray":
        """The next ``n`` uniforms (a view into the buffer)."""
        pos, buf = self._pos, self._buf
        short = n - (len(buf) - pos)
        if short > 0:
            if self._gen is None:
                self._gen = np.random.Generator(
                    np.random.PCG64(self._rng.getrandbits(64)))
            buf = np.concatenate(
                (buf[pos:], self._gen.random(max(short, self.BLOCK))))
            self._buf, pos = buf, 0
            self._list = None
        self._pos = pos + n
        return buf[pos:pos + n]

    def next(self) -> float:
        """The next arrival's uniform."""
        pos = self._pos
        if pos == len(self._buf):
            self._take(1)
            pos = 0
        else:
            self._pos = pos + 1
        if self._list is None:
            self._list = self._buf.tolist()
        return self._list[pos]

    def bernoulli(self, start: int, stop: int, q: float,
                  limit: int) -> List[int]:
        """HB phase 2 over arrivals ``start..stop-1``: include iff ``u < q``.

        Returns the included indices, stopping at the ``limit``-th (the
        one that fills the bag); the uniforms of the arrivals after it
        stay unread, for the reservoir steps that follow.
        """
        us = self._take(stop - start)
        hits = np.flatnonzero(us < q)
        if len(hits) >= limit:
            hits = hits[:limit]
            self._pos -= len(us) - 1 - int(hits[-1])
        return (hits + start).tolist()

    def reservoir(self, start: int, stop: int, seen: int,
                  capacity: int) -> Tuple[List[int], List[int]]:
        """Algorithm R over arrivals ``start..stop-1``.

        The arrival at stream position ``j`` (``seen + 1`` for
        ``start``) is included iff ``u * j < capacity``, and replaces
        slot ``floor(u * j)``.  Returns the included indices and their
        slots, in arrival order.
        """
        x = self._take(stop - start) * np.arange(
            seen + 1, seen + 1 + stop - start, dtype=np.float64)
        hits = np.flatnonzero(x < capacity)
        return (hits + start).tolist(), x[hits].astype(np.int64).tolist()


def arrival_uniforms(rng: SplittableRng) -> ArrivalUniforms:
    """A per-arrival uniform stream for a sampler drawing from ``rng``."""
    return ArrivalUniforms(rng)


def fold_moments(values: Sequence, total: float, total_sq: float,
                 lo: Optional[float], hi: Optional[float]
                 ) -> Tuple[float, float, Optional[float], Optional[float]]:
    """The python backend's fold over one ``float64`` array, bit for bit.

    Each total is the last entry of ``np.add.accumulate`` over
    ``[total, x0, x1, ...]`` (or the squares): a strictly sequential
    scan, the reference's left-to-right additions, where ``np.sum``
    would add pairwise.  ``argmin`` / ``argmax`` return the first
    extreme, the one ``min`` / ``max`` keep among ties such as ``0.0``
    and ``-0.0``.  A slice holding a NaN (whose ``min`` depends on
    position) or one that does not convert to ``float64`` goes to the
    reference fold, which raises the same error the scalar path does.
    """
    try:
        xs = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return _reference.fold_moments(values, total, total_sq, lo, hi)
    if xs.size == 0:
        return total, total_sq, lo, hi
    x_lo = float(xs[xs.argmin()])
    if x_lo != x_lo:  # argmin stops at the first NaN
        return _reference.fold_moments(values, total, total_sq, lo, hi)
    x_hi = float(xs[xs.argmax()])
    scan = np.empty(xs.size + 1)
    scan[0], scan[1:] = total, xs
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.add.accumulate(scan, out=scan)[-1])
        scan[0] = total_sq
        np.multiply(xs, xs, out=scan[1:])
        total_sq = float(np.add.accumulate(scan, out=scan)[-1])
    if lo is None or x_lo < lo:
        lo = x_lo
    if hi is None or x_hi > hi:
        hi = x_hi
    return total, total_sq, lo, hi
