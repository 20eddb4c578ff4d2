"""Vectorized sampling/merge kernels with a pure-Python fallback.

The inner loops of the merge procedures — Theorem 1's allocation draw
(:func:`draw_allocation`, whose two-partition case is Figure 8's ``L``
draw of eq. (2)), the Binomial purge of Figure 3, and the
simple-random-subsample purge of Figure 4 — are the hot path of every
merge tree.  On ingest and in the merges' exhaustive case, HB/HR's
block steps (:mod:`repro.core.blocks`) merge a running sample with a
block of arrivals (or a whole exhaustive input) through
:func:`reservoir_block` and :func:`bernoulli_block` and the same
purges; the exact synopsis folds its moments through
:func:`fold_moments`, and the estimators fold a sample's
``(value, count)`` runs through the same kernel, reading a stored
sample's keys and counts in the forms :func:`index_values` and
:func:`index_runs` converted them to once.  This package
isolates them behind a small kernel API with two interchangeable
backends:

* ``"python"`` — the reference implementation, byte-identical to the
  historical pure-Python code paths (:mod:`repro.kernels.python`);
* ``"numpy"`` — the same draws as single vectorized generator calls
  (:mod:`repro.kernels.numpy_backend`), available when numpy is
  installed (the ``perf`` extra in ``pyproject.toml``).

Backend selection happens at import from the ``REPRO_KERNEL_BACKEND``
environment variable (``auto``, the default, picks numpy when it is
importable and falls back to pure Python otherwise).  Selection is
process-wide: :func:`set_backend` keeps the environment variable in
sync so worker processes spawned afterwards resolve the same backend.

Determinism contract (docs/determinism.md): within one backend, every
kernel draw is a pure function of its arguments and the consumed
``SplittableRng`` stream, so merge results stay byte-identical across
evaluation modes, executors, and worker counts.  The two backends
consume the rng differently and therefore produce *different but
equally lawful* samples; cross-backend agreement is statistical, gated
by the ``kernels.*`` checks of ``repro verify`` (docs/testing.md).
:func:`fold_moments` draws nothing and is held to more: its result is
the same bits on both backends, so synopsis bytes and estimates do not
depend on the backend's fold.

Examples
--------
>>> from repro.kernels import active_backend, available_backends
>>> active_backend() in available_backends()
True
>>> from repro import SplittableRng
>>> from repro.kernels import use_backend, draw_allocation
>>> with use_backend("python"):
...     sum(draw_allocation([40, 60, 20], 12, SplittableRng(3)))
12
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import threading
from contextlib import contextmanager
from types import ModuleType
from typing import Collection, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_BACKEND_ENV",
    "available_backends",
    "numpy_available",
    "active_backend",
    "set_backend",
    "use_backend",
    "draw_allocation",
    "binomial_counts",
    "srs_counts",
    "index_runs",
    "index_values",
    "reservoir_block",
    "bernoulli_block",
    "fold_moments",
]

#: Environment variable that selects the kernel backend at import time
#: (``auto`` | ``numpy`` | ``python``); inherited by worker processes.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_BACKEND_MODULES = {
    "python": "repro.kernels.python",
    "numpy": "repro.kernels.numpy_backend",
}

_LOCK = threading.Lock()
_ACTIVE_NAME = ""
_ACTIVE_MODULE: Optional[ModuleType] = None


def numpy_available() -> bool:
    """True when the numpy backend could be selected in this process."""
    return importlib.util.find_spec("numpy") is not None


def available_backends() -> Tuple[str, ...]:
    """The selectable backend names, fastest first."""
    if numpy_available():
        return ("numpy", "python")
    return ("python",)


def _resolve(name: str) -> str:
    """Map a requested name (including ``auto``) to a concrete backend."""
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    if name not in _BACKEND_MODULES:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected 'auto', "
            f"'numpy', or 'python'")
    if name == "numpy" and not numpy_available():
        raise ConfigurationError(
            "kernel backend 'numpy' requested but numpy is not "
            "installed; install the 'perf' extra or use "
            "REPRO_KERNEL_BACKEND=python")
    return name


def active_backend() -> str:
    """The name of the backend kernel calls currently dispatch to."""
    return _ACTIVE_NAME


def set_backend(name: str) -> str:
    """Select the kernel backend process-wide; returns the concrete name.

    ``name`` may be ``auto``.  The choice is mirrored into
    ``REPRO_KERNEL_BACKEND`` so process-pool workers spawned after this
    call resolve the same backend.  Backend switches are global state:
    do not call concurrently with running merges (tests use
    :func:`use_backend` around single-threaded sections).
    """
    global _ACTIVE_NAME, _ACTIVE_MODULE
    concrete = _resolve(name)
    module = importlib.import_module(_BACKEND_MODULES[concrete])
    with _LOCK:
        _ACTIVE_NAME = concrete
        _ACTIVE_MODULE = module
        os.environ[KERNEL_BACKEND_ENV] = concrete
    return concrete


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager: select ``name``, restore the previous backend."""
    previous = _ACTIVE_NAME
    concrete = set_backend(name)
    try:
        yield concrete
    finally:
        set_backend(previous)


def _backend() -> ModuleType:
    module = _ACTIVE_MODULE
    assert module is not None, "kernel backend not initialized"
    return module


# ----------------------------------------------------------------------
# The kernel API (dispatches to the active backend)
# ----------------------------------------------------------------------
def draw_allocation(populations: Sequence[int], k: int,
                    rng) -> List[int]:
    """Theorem 1's split of ``k`` merged slots over m partitions.

    Returns ``(L_1, ..., L_m)`` drawn from the multivariate
    hypergeometric law over the partition sizes ``populations``: the
    number of elements each partition contributes to a simple random
    sample of ``k`` from their union.  With two partitions ``L_1`` has
    the law of eq. (2).  Requires at least one partition and ``0 <= k
    <= sum(populations)``; ``k == 0`` draws nothing.  Neither backend
    caches a table or allocates scratch proportional to the
    populations: the python backend draws ``L_i`` from eq. (2) over
    ``N_i`` and the partitions after it, one partition at a time; the
    numpy backend makes one ``multivariate_hypergeometric(...,
    method="marginals")`` call.
    """
    return _backend().draw_allocation(populations, k, rng)


def binomial_counts(counts: Collection[int], q: float,
                    rng) -> Tuple[List[int], List[int]]:
    """Figure 3's inner loop: ``Binomial(n, q)`` for every run length.

    Returns the surviving runs as ``(indices, kept)``: the positions
    whose draw is nonzero, in increasing order, and their kept counts.
    ``counts`` may be any sized collection (a histogram's
    ``dict.values()`` view is read directly).  The numpy backend draws
    the whole vector with a single generator call.
    """
    return _backend().binomial_counts(counts, q, rng)


def srs_counts(runs: Collection[int], size: int,
               rng) -> Tuple[List[int], List[int]]:
    """Figure 4's inner loop: an SRS of ``size`` elements over runs.

    Takes a simple random subsample of ``size`` elements from the bag
    in which value ``i`` occurs ``runs[i]`` times and returns the
    surviving runs as ``(indices, kept)``: the positions that keep at
    least one element, in increasing order, and how many each keeps.
    Requires ``0 <= size <= sum(runs)``.  The python backend runs the
    paper's skip-based reservoir loop with Fenwick-tree victim
    selection; the numpy backend draws the whole vector from the
    multivariate hypergeometric law in one call.
    """
    return _backend().srs_counts(runs, size, rng)


def index_runs(runs: Collection[int]) -> Collection[int]:
    """Run lengths in the form the active backend's purges read fastest.

    numpy: one ``int64`` array, marked read-only, which
    :func:`binomial_counts` and :func:`srs_counts` take without
    converting it again; python: a tuple of the counts.  A histogram
    keeps the result as its run index
    (:meth:`~repro.core.histogram.CompactHistogram.run_index`) and
    hands it back to the backend that built it only.  Draws from it
    equal draws from ``runs`` itself, byte for byte.
    """
    return _backend().index_runs(runs)


def index_values(keys: List) -> Optional[Sequence]:
    """A histogram's keys in the form :func:`fold_moments` reads fastest.

    numpy: one ``float64`` array, marked read-only, each key converted
    as :func:`fold_moments` converts it, or ``None`` when a key does
    not convert or the array holds a NaN (those keys take the fold's
    checked path every time); python: ``keys`` itself.  A histogram
    keeps the result next to its run index
    (:meth:`~repro.core.histogram.CompactHistogram.float_view`), and a
    weighted fold over the two gives the bits of a fold over the keys
    and their counts.
    """
    return _backend().index_values(keys)


def reservoir_block(seen: int, block: int, capacity: int,
                    rng) -> Tuple[List[int], List[int]]:
    """One block step of a size-``capacity`` reservoir (Figure 8's node).

    The reservoir is an SRS of the ``seen`` arrivals before a block of
    ``block`` more.  Draws ``L ~ Hypergeom(seen, block, capacity)`` as
    eq. (2) does, and returns ``m = capacity - L`` distinct reservoir
    slots (the victims) and ``m`` distinct block positions (their
    replacements), both uniform.  Writing the picks into the slots
    leaves an SRS of ``capacity`` of all ``seen + block`` arrivals
    (Theorem 1).  No table is cached: ``seen`` grows every block.
    """
    return _backend().reservoir_block(seen, block, capacity, rng)


def bernoulli_block(block: int, q: float, rng) -> List[int]:
    """The positions of a ``Bern(q)`` subset of a block, increasing.

    ``Binomial(block, q)`` positions, uniform given their number — the
    law of including each arrival independently with probability
    ``q`` (HB phase 2 over one block).
    """
    return _backend().bernoulli_block(block, q, rng)


def fold_moments(values: Sequence, total: float, total_sq: float,
                 lo: Optional[float], hi: Optional[float], *,
                 ints: bool = False,
                 counts: Optional[Collection[int]] = None
                 ) -> Tuple[float, float, Optional[float], Optional[float]]:
    """Fold a slice of real numbers into a synopsis' running moments.

    Returns ``(total + Σx, total_sq + Σx², min(lo, *xs), max(hi, *xs))``
    with every sum taken left to right from the running value, as
    per-element ``+=`` would (``lo`` / ``hi`` are ``None`` before the
    first value).  Each value enters as ``float(value)``.  Unlike the
    draw kernels, the result is *identical* on both backends, bit for
    bit: the numpy backend runs the same IEEE additions over one
    ``float64`` array.  Raises :class:`~repro.errors.ConfigurationError`
    for a number too large to become a float.

    ``counts`` weights the sums: run lengths aligned with ``values``
    (a histogram's :meth:`~repro.core.histogram.CompactHistogram.
    run_lengths` view), each value entering as ``x * c`` and
    ``x * x * c`` — the per-run loop of the estimators' moment pass.
    A weighted fold leaves ``lo`` / ``hi`` as given.  ``values`` and
    ``counts`` may also be a histogram's float view and run index
    (:func:`index_values`, :func:`index_runs`), which the numpy backend
    folds without converting them again.

    ``ints=True`` promises that every value's type is exactly ``int``
    (the accumulator's type check), which lets the numpy backend convert
    through ``int64``; set it from a type check only, since that
    conversion would truncate a float.
    """
    return _backend().fold_moments(values, total, total_sq, lo, hi,
                                   ints=ints, counts=counts)


# Backend selection happens at import so every later kernel call is a
# plain dispatch; REPRO_KERNEL_BACKEND=python forces the fallback even
# when numpy is installed (the CI matrix exercises exactly that).
set_backend(os.environ.get(KERNEL_BACKEND_ENV, "auto"))
