"""Discrete distributions used by the sampling and merge algorithms.

* **Hypergeometric** — ``HRMerge`` (Figure 8) draws the number ``L`` of
  values taken from the first sample from the hypergeometric distribution
  of eq. (2); :func:`hypergeometric_pmf` evaluates it with the recursion of
  eq. (3) (``computeProb`` in the paper), and :func:`sample_hypergeometric`
  draws from it by inversion (``genProb``) or via a Walker alias table when
  the same distribution is sampled repeatedly (Section 4.2's optimization
  for symmetric pairwise merge trees).
* **Alias method** — :class:`AliasTable` implements Walker/Vose O(1)
  sampling from an arbitrary finite pmf.
* **Zipf** — the skewed workload of Section 5 (integers 1..4000, Zipf
  distributed); :func:`zipf_pmf` plus :class:`ZipfSampler`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.runtime import OBS
from repro.rng import SplittableRng

__all__ = [
    "hypergeometric_pmf",
    "hypergeometric_logpmf_term",
    "sample_hypergeometric",
    "AliasTable",
    "CachedHypergeometric",
    "zipf_pmf",
    "ZipfSampler",
]


def _validate_hypergeom(n1: int, n2: int, k: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ConfigurationError(
            f"population sizes must be >= 0, got {n1}, {n2}")
    if not 0 <= k <= n1 + n2:
        raise ConfigurationError(
            f"draw size k={k} must be in [0, {n1 + n2}]")


def hypergeometric_logpmf_term(n1: int, n2: int, k: int, l: int) -> float:
    """``log P(L = l)`` for eq. (2), via lgamma (used to seed the recursion).

    Returns ``-inf`` outside the support ``max(0, k-n2) <= l <= min(k, n1)``.
    """

    def log_comb(n: int, r: int) -> float:
        return (math.lgamma(n + 1) - math.lgamma(r + 1)
                - math.lgamma(n - r + 1))

    if l < max(0, k - n2) or l > min(k, n1):
        return float("-inf")
    return (log_comb(n1, l) + log_comb(n2, k - l)
            - log_comb(n1 + n2, k))


def hypergeometric_pmf(n1: int, n2: int, k: int) -> List[float]:
    """The probability vector ``P(0..k)`` of eq. (2).

    ``P(l)`` is the probability that a simple random sample of size ``k``
    from the disjoint union of populations of sizes ``n1`` and ``n2``
    contains exactly ``l`` elements of the first population.

    Values are computed with the multiplicative recursion of eq. (3),
    seeded at the distribution *mode* with an lgamma evaluation (the
    paper seeds at ``l = 0``, which both fails when ``k > n2`` makes
    ``P(0) = 0`` and underflows to zero for large populations; the pmf at
    the mode is at least ``1/(k+1)`` and never underflows).  The
    recursion then walks outward in both directions; far-tail values that
    underflow to zero are genuinely negligible.
    """
    _validate_hypergeom(n1, n2, k)
    pmf = [0.0] * (k + 1)
    lo = max(0, k - n2)
    hi = min(k, n1)
    if lo > hi:  # impossible draw; caller validated, so this cannot happen
        raise ConfigurationError(
            f"empty hypergeometric support for n1={n1}, n2={n2}, k={k}")
    mode = (k + 1) * (n1 + 1) // (n1 + n2 + 2)
    mode = min(hi, max(lo, mode))
    pmf[mode] = math.exp(hypergeometric_logpmf_term(n1, n2, k, mode))
    # eq. (3): P(l+1) = (k-l)(n1-l) / ((l+1)(n2-k+l+1)) * P(l)
    for l in range(mode, hi):
        pmf[l + 1] = pmf[l] * ((k - l) * (n1 - l)
                               / ((l + 1) * (n2 - k + l + 1)))
    for l in range(mode, lo, -1):
        # inverse of eq. (3): step downward from the mode
        pmf[l - 1] = pmf[l] * (l * (n2 - k + l)
                               / ((k - l + 1) * (n1 - l + 1)))
    total = math.fsum(pmf)
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        # Renormalize tiny floating-point drift from long recursions.
        pmf = [p / total for p in pmf]
    return pmf


def _sample_by_inversion(pmf: Sequence[float], rng: SplittableRng) -> int:
    """Straightforward CDF inversion (the paper's 'inversion' generator)."""
    u = rng.random()
    acc = 0.0
    for value, p in enumerate(pmf):
        acc += p
        if u <= acc:
            return value
    return len(pmf) - 1  # floating-point slack: return the last value


def sample_hypergeometric(n1: int, n2: int, k: int, rng: SplittableRng, *,
                          method: str = "inversion") -> int:
    """Draw ``L`` with the distribution of eq. (2).

    ``method`` is ``"inversion"`` (default; builds the pmf and inverts the
    CDF) or ``"alias"`` (builds a Walker alias table first — only worthwhile
    if the caller cannot cache, see :class:`CachedHypergeometric`).
    """
    pmf = hypergeometric_pmf(n1, n2, k)
    if method == "inversion":
        return _sample_by_inversion(pmf, rng)
    if method == "alias":
        return AliasTable(pmf).sample(rng)
    raise ConfigurationError(f"unknown method {method!r}")


class AliasTable:
    """Walker/Vose alias method: O(n) setup, O(1) per sample.

    Section 4.2 recommends the alias method when many merges share the same
    partition and sample sizes (symmetric pairwise merge trees): compute
    probabilities ``r_l`` and aliases ``a_l`` once, then each draw needs one
    uniform integer and one uniform real.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> t = AliasTable([0.2, 0.5, 0.3])
    >>> t.sample(SplittableRng(3)) in (0, 1, 2)
    True
    """

    def __init__(self, pmf: Sequence[float]) -> None:
        n = len(pmf)
        if n == 0:
            raise ConfigurationError("alias table needs a non-empty pmf")
        total = math.fsum(pmf)
        if total <= 0.0:
            raise ConfigurationError("pmf must have positive total mass")
        if any(p < 0.0 for p in pmf):
            raise ConfigurationError("pmf entries must be non-negative")
        scaled = [p * n / total for p in pmf]
        self._prob = [0.0] * n
        self._alias = [0] * n
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            self._prob[s] = scaled[s]
            self._alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for i in large:
            self._prob[i] = 1.0
        for i in small:  # only reachable through floating-point round-off
            self._prob[i] = 1.0

    def __len__(self) -> int:
        return len(self._prob)

    def sample(self, rng: SplittableRng) -> int:
        """Draw one index distributed according to the stored pmf."""
        i = rng.randrange(len(self._prob))
        if rng.random() <= self._prob[i]:
            return i
        return self._alias[i]


class CachedHypergeometric:
    """Alias-table cache keyed by ``(n1, n2, k)``.

    In a symmetric pairwise merge tree the same hypergeometric distribution
    recurs at every level, so caching the alias tables makes repeated
    ``HRMerge`` calls O(1) in distribution setup after the first merge at
    each level (the paper's Section 4.2 optimization).

    The merge path keeps no such cache (``merge_tree`` merges in one
    allocation draw); a caller that folds pairwise through its own
    ``merger`` may hold one.  The cache is safe to share across
    threads: the table dict is mutated only under an internal lock, and
    a stored :class:`AliasTable` is immutable after construction.  Cache
    state never influences draw *values*: an alias table is a pure
    function of ``(n1, n2, k)``, so a hit and a rebuilt miss consume the
    rng identically.  Hits and misses are counted through ``repro.obs``
    (``merge.hyper_cache.hit`` / ``merge.hyper_cache.miss``) so the
    Section 4.2 reuse is observable per run.
    """

    def __init__(self) -> None:
        self._tables: Dict[Tuple[int, int, int], AliasTable] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tables)

    def sample(self, n1: int, n2: int, k: int, rng: SplittableRng) -> int:
        """Draw ``L`` per eq. (2), building/reusing an alias table."""
        key = (n1, n2, k)
        # Double-checked fast path: dict reads are safe without the
        # lock, and a racing rebuild produces an identical table.
        table = self._tables.get(key)
        if table is None:
            if OBS.enabled:
                OBS.registry.counter("merge.hyper_cache.miss").inc()
            built = AliasTable(hypergeometric_pmf(n1, n2, k))
            with self._lock:
                table = self._tables.setdefault(key, built)
        elif OBS.enabled:
            OBS.registry.counter("merge.hyper_cache.hit").inc()
        # Alias tables cover indices 0..k, matching the pmf vector.
        return table.sample(rng)


def zipf_pmf(v_max: int, exponent: float = 1.0) -> List[float]:
    """Zipf pmf over values ``1..v_max`` with the given exponent.

    ``P(v) ∝ v**-exponent``.  The Section 5 skewed workload uses values in
    1..4000; exponent 1 is the classical choice and our default.
    """
    if v_max <= 0:
        raise ConfigurationError(f"v_max must be positive, got {v_max}")
    if exponent < 0.0:
        raise ConfigurationError(
            f"exponent must be non-negative, got {exponent}")
    weights = [v ** (-exponent) for v in range(1, v_max + 1)]
    total = math.fsum(weights)
    return [w / total for w in weights]


class ZipfSampler:
    """Draws integers 1..v_max from a Zipf(exponent) law via an alias table.

    Examples
    --------
    >>> from repro.rng import SplittableRng
    >>> z = ZipfSampler(4000)
    >>> 1 <= z.sample(SplittableRng(5)) <= 4000
    True
    """

    def __init__(self, v_max: int, exponent: float = 1.0) -> None:
        self._v_max = v_max
        self._exponent = exponent
        self._table = AliasTable(zipf_pmf(v_max, exponent))

    @property
    def v_max(self) -> int:
        """Largest value the sampler can produce."""
        return self._v_max

    @property
    def exponent(self) -> float:
        """The Zipf skew parameter."""
        return self._exponent

    def sample(self, rng: SplittableRng) -> int:
        """Draw one value in ``1..v_max``."""
        return self._table.sample(rng) + 1

    def sample_many(self, count: int, rng: SplittableRng) -> List[int]:
        """Draw ``count`` i.i.d. values."""
        table = self._table
        return [table.sample(rng) + 1 for _ in range(count)]
