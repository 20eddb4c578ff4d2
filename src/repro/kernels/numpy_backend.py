"""The numpy kernel backend — each kernel op is one vectorized call.

Draw semantics match the python backend's laws exactly (same pmfs, same
support); only the *stream consumption* differs, which is why
determinism is a per-backend contract (docs/determinism.md):

* the m-input split of Theorem 1 (and so Figure 8's eq. (2) draw, its
  two-partition case) is one
  ``Generator.multivariate_hypergeometric(..., method="marginals")``
  call, which walks the partitions without O(sum of sizes) scratch;
* Figure 3's per-run Binomials are a single ``Generator.binomial`` call
  over the run-length vector;
* Figure 4's simple random subsample over runs is a single
  ``Generator.multivariate_hypergeometric`` draw — the distribution of
  surviving counts per run under an SRS is exactly that law;
* a block step of HB/HR draws its ``L`` with one
  ``Generator.hypergeometric`` call and its victims and picks with one
  ``Generator.choice`` each, so it costs O(inclusions), not O(block);
* past ``Generator``'s population limit, those ``L`` draws invert the
  eq. (3) recursion (:func:`pmf_array`, one ``cumprod`` per directed
  walk from the mode) with ``searchsorted``.

Run lengths are read with one ``np.fromiter`` (a histogram's
``dict.values()`` view needs no intermediate list); an ``int64`` array,
such as the read-only one :func:`index_runs` builds for a histogram's
run index, passes through unconverted.  Both purge ops return only the
surviving runs, located with one ``flatnonzero``.

Each :class:`~repro.rng.SplittableRng` lazily owns one
``numpy.random.Generator`` seeded from its own stream
(``rng.getrandbits(64)``), so kernel draws remain a pure function of
the rng's state and the call sequence — byte-identical across
executors and worker counts, like every other consumer of the
seed-splitting discipline.

:func:`fold_moments` is the one kernel whose output is byte-identical
to the python backend's: synopsis and estimator moments are exact
summaries, not draws, so it performs the reference's IEEE operations
in the reference's order, only at C speed.  A weighted fold over a
``float64`` array and an ``int64`` array (a stored histogram's
:func:`index_values` view and :func:`index_runs` index) reads both as
they are.
"""

from __future__ import annotations

import math
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import python as _reference
from repro.rng import SplittableRng
from repro.sampling.distributions import hypergeometric_logpmf_term

__all__ = ["draw_allocation", "binomial_counts", "srs_counts",
           "index_runs", "reservoir_block", "bernoulli_block", "fold_moments",
           "pmf_array"]

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


def pmf_array(n1: int, n2: int, k: int) -> "np.ndarray":
    """Eq. (3) as two cumulative products walking outward from the mode.

    Not a kernel op: the past-limit draws of :func:`reservoir_block`
    and :func:`draw_allocation` invert its cumulative sum, and
    ``repro verify`` (``kernels.pmf.crosscheck``) holds it to the
    closed-form pmf.
    """
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


def _cdf(n1: int, n2: int, k: int) -> "np.ndarray":
    """The eq. (2) cumulative pmf, built per call (no table is kept)."""
    return np.cumsum(pmf_array(n1, n2, k))


def _invert(cdf: "np.ndarray", us, k: int):
    """Inverse-cdf draws for the uniforms ``us`` (clipped to ``k``)."""
    return np.minimum(np.searchsorted(cdf, us, side="left"), k)


def _survivors(kept: "np.ndarray") -> Tuple[List[int], List[int]]:
    """The nonzero entries of a kept-count vector as ``(indices, kept)``."""
    indices = np.flatnonzero(kept)
    return indices.tolist(), kept[indices].tolist()


def _run_array(runs: Collection[int]) -> "np.ndarray":
    if isinstance(runs, np.ndarray) and runs.dtype == np.int64:
        return runs
    return np.fromiter(runs, dtype=np.int64, count=len(runs))


def index_runs(runs: Collection[int]) -> "np.ndarray":
    """The run lengths as one read-only ``int64`` array."""
    arr = np.fromiter(runs, dtype=np.int64, count=len(runs))
    arr.flags.writeable = False
    return arr


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


#: ``Generator.hypergeometric`` takes populations below this.
_HYPERGEOMETRIC_LIMIT = 10**9


def reservoir_block(seen: int, block: int, capacity: int,
                    rng: SplittableRng) -> Tuple[List[int], List[int]]:
    """``L`` from ``Generator.hypergeometric`` (the cumulative pmf past
    its population limit), then two ``choice`` draws.

    The method is a pure function of the sizes, so draws stay
    deterministic for a given rng state.
    """
    gen = _generator(rng)
    if seen < _HYPERGEOMETRIC_LIMIT and block < _HYPERGEOMETRIC_LIMIT:
        kept = int(gen.hypergeometric(seen, block, capacity))
    else:
        kept = int(_invert(_cdf(seen, block, capacity), gen.random(),
                           capacity))
    entering = capacity - kept
    if entering == 0:
        return [], []
    return (gen.choice(capacity, entering, replace=False).tolist(),
            gen.choice(block, entering, replace=False).tolist())


def draw_allocation(populations: Sequence[int], k: int,
                    rng: SplittableRng) -> List[int]:
    """One ``multivariate_hypergeometric`` call (``"marginals"``: a
    hypergeometric per partition, no scratch proportional to the sizes;
    ``"count"`` would allocate one entry per element).

    Past ``Generator``'s population limit the same sequential split runs
    on eq. (3) cdfs, inverted against one uniform vector.  The
    method is a pure function of the sizes, so draws stay deterministic
    for a given rng state.
    """
    total = _reference._check_allocation(populations, k)
    if k == 0:
        return [0] * len(populations)
    gen = _generator(rng)
    if total < _HYPERGEOMETRIC_LIMIT:
        return gen.multivariate_hypergeometric(
            _run_array(populations), k, method="marginals").tolist()
    uniforms = gen.random(len(populations) - 1)
    allocation = []
    rest, remaining = total, k
    for size, u in zip(populations[:-1], uniforms):
        rest -= size
        take = 0
        if remaining:
            take = int(_invert(_cdf(size, rest, remaining), u, remaining))
        allocation.append(take)
        remaining -= take
    allocation.append(remaining)
    return allocation


def bernoulli_block(block: int, q: float,
                    rng: SplittableRng) -> List[int]:
    """One ``binomial`` draw, then one ``choice`` of that many positions."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {q}")
    gen = _generator(rng)
    count = int(gen.binomial(block, q))
    if count == 0:
        return []
    picks = gen.choice(block, count, replace=False)
    picks.sort()
    return picks.tolist()


def _float_array(values: Sequence, ints: bool) -> Optional["np.ndarray"]:
    """``values`` as one ``float64`` array, each converted as ``float()``
    converts it (but ``None``, which becomes NaN here); ``None`` when
    one does not convert.

    ``np.fromiter`` converts element by element, so a tuple or other
    sequence among the values fails here rather than adding an axis.
    With ``ints`` (every value exactly an ``int``) the values go through
    one ``int64`` array, which reads them at C speed; the ``int64`` ->
    ``float64`` cast rounds to nearest even, as ``float()`` does.  An
    int outside ``int64`` takes the general path.
    """
    if ints:
        try:
            return np.fromiter(values, np.int64,
                               count=len(values)).astype(np.float64)
        except OverflowError:
            pass
    try:
        return np.fromiter(values, np.float64, count=len(values))
    except (TypeError, ValueError, OverflowError):
        return None


def index_values(keys: List) -> Optional["np.ndarray"]:
    """The keys as one read-only ``float64`` array, converted as
    :func:`fold_moments` converts them; ``None`` when one does not
    convert or the array holds a NaN, which the fold would send to the
    reference for its error or its position-dependent extremes."""
    arr = _float_array(keys, False)
    if arr is None or np.isnan(arr).any():
        return None
    arr.flags.writeable = False
    return arr


def fold_moments(values: Sequence, total: float, total_sq: float,
                 lo: Optional[float], hi: Optional[float], *,
                 ints: bool = False,
                 counts: Optional[Collection[int]] = None
                 ) -> Tuple[float, float, Optional[float], Optional[float]]:
    """The python backend's fold over one ``float64`` array, bit for bit.

    Each total is the last entry of ``np.add.accumulate`` over
    ``[total, x0, x1, ...]`` (or the squares, or with ``counts`` the
    products ``x * c`` and ``(x * x) * c``): a strictly sequential scan,
    the reference's left-to-right additions, where ``np.sum`` would add
    pairwise.  ``argmin`` / ``argmax`` return the first extreme, the one
    ``min`` / ``max`` keep among ties such as ``0.0`` and ``-0.0``.  A
    slice whose result holds a NaN (whose ``min`` depends on position,
    and which ``None`` converts to here where ``float(None)`` raises) or
    that does not convert goes to the reference fold, which raises the
    same error the scalar path does.  One difference remains: numpy
    datetime scalars, which ``float()`` refuses, convert to their ticks.

    A weighted fold of a ``float64`` array over an ``int64`` array of
    the same size, a histogram's float view over its run index, skips
    the conversion and the NaN test: a view holds no NaN, so a NaN sum
    can only come from adding infinities, which the reference adds
    alike.
    """
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and isinstance(counts, np.ndarray)
            and counts.dtype == np.int64 and values.size == counts.size):
        return _accumulate(values, total, total_sq, counts) + (lo, hi)
    xs = _float_array(values, ints)
    weights = None if counts is None else _float_array(counts, True)
    if xs is None or counts is not None and (
            weights is None or weights.size != xs.size):
        return _reference.fold_moments(values, total, total_sq, lo, hi,
                                       counts=counts)
    if xs.size == 0:
        return total, total_sq, lo, hi
    if weights is not None:
        sums = _accumulate(xs, total, total_sq, weights)
        if sums[0] != sums[0]:
            return _reference.fold_moments(values, total, total_sq, lo,
                                           hi, counts=counts)
        return sums + (lo, hi)
    x_lo = float(xs[xs.argmin()])
    if x_lo != x_lo:  # argmin stops at the first NaN
        return _reference.fold_moments(values, total, total_sq, lo, hi)
    x_hi = float(xs[xs.argmax()])
    total, total_sq = _accumulate(xs, total, total_sq, None)
    if lo is None or x_lo < lo:
        lo = x_lo
    if hi is None or x_hi > hi:
        hi = x_hi
    return total, total_sq, lo, hi


def _accumulate(xs: "np.ndarray", total: float, total_sq: float,
                weights: Optional["np.ndarray"]) -> Tuple[float, float]:
    """``total + Σ x·w`` and ``total_sq + Σ (x·x)·w`` (``w = 1`` when
    ``weights`` is ``None``), each added strictly left to right.  An
    ``int64`` ``weights`` enters each product as ``float64``, rounded
    as ``astype`` would round it."""
    scan = np.empty(xs.size + 1)
    terms = scan[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        scan[0] = total
        if weights is None:
            terms[:] = xs
        else:
            np.multiply(xs, weights, out=terms)
        total = float(np.add.accumulate(scan, out=scan)[-1])
        scan[0] = total_sq
        np.multiply(xs, xs, out=terms)
        if weights is not None:
            np.multiply(terms, weights, out=terms)
        total_sq = float(np.add.accumulate(scan, out=scan)[-1])
    return total, total_sq
