"""Vectorized sampling/merge kernels with a pure-Python fallback.

The inner loops of the merge procedures — the eq. (3) hypergeometric
pmf, the ``L`` draw of Figure 8, the Binomial purge of Figure 3, and the
simple-random-subsample purge of Figure 4 — are the hot path of every
merge tree; HB/HR's per-arrival uniforms and the exact synopsis'
moment fold are the hot path of ingest.  This package isolates them
behind a small kernel API with two interchangeable backends:

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
the same bits on both backends, so synopsis bytes do not depend on the
backend.

Examples
--------
>>> from repro.kernels import active_backend, available_backends
>>> active_backend() in available_backends()
True
>>> from repro.kernels import use_backend, hypergeometric_pmf
>>> with use_backend("python"):
...     [round(p, 4) for p in hypergeometric_pmf(2, 2, 2)]
[0.1667, 0.6667, 0.1667]
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
    "hypergeometric_pmf",
    "draw_hypergeometric",
    "draw_hypergeometric_batch",
    "binomial_counts",
    "srs_counts",
    "arrival_uniforms",
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
def hypergeometric_pmf(n1: int, n2: int, k: int) -> List[float]:
    """The eq. (2) probability vector ``P(0..k)`` via eq. (3).

    Both backends seed the multiplicative recursion at the distribution
    mode (an lgamma evaluation) and walk outward; the numpy backend
    evaluates each directed walk as one ``cumprod``.  Backends agree to
    floating-point tolerance, not bit-for-bit.
    """
    return _backend().hypergeometric_pmf(n1, n2, k)


def draw_hypergeometric(n1: int, n2: int, k: int, rng, *,
                        cache=None, method: str = "inversion") -> int:
    """Draw ``L`` with the law of eq. (2) — Figure 8's ``genProb``.

    ``cache`` (a :class:`~repro.sampling.distributions.\
CachedHypergeometric`) and ``method`` (``"inversion"`` | ``"alias"``)
    steer the python backend exactly as the historical merge code did.
    The numpy backend inverts a cached cumulative pmf with one
    ``searchsorted`` and ignores both knobs — its per-``(n1, n2, k)``
    cdf cache plays the alias-table role, and cache state never affects
    draw values on either backend.
    """
    return _backend().draw_hypergeometric(n1, n2, k, rng,
                                          cache=cache, method=method)


def draw_hypergeometric_batch(n1: int, n2: int, k: int, rng,
                              count: int, *, cache=None,
                              method: str = "inversion") -> List[int]:
    """``count`` i.i.d. eq. (2) draws — one vectorized call on numpy."""
    return _backend().draw_hypergeometric_batch(
        n1, n2, k, rng, count, cache=cache, method=method)


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


def arrival_uniforms(rng):
    """A per-arrival uniform stream for HB/HR phases 2-3, or ``None``.

    The numpy backend returns an
    :class:`~repro.kernels.numpy_backend.ArrivalUniforms`, and the
    samplers' phase-2/3 steps then take one uniform per arrival, a
    whole slice per generator call (docs/algorithms.md).  The python
    backend returns ``None``: the samplers keep their skip-based
    per-inclusion draws, the reference the numpy steps are checked
    against in law (``samplers.minibatch.law``).
    """
    return _backend().arrival_uniforms(rng)


def fold_moments(values: Sequence, total: float, total_sq: float,
                 lo: Optional[float], hi: Optional[float]
                 ) -> Tuple[float, float, Optional[float], Optional[float]]:
    """Fold a slice of real numbers into a synopsis' running moments.

    Returns ``(total + Σx, total_sq + Σx², min(lo, *xs), max(hi, *xs))``
    with every sum taken left to right from the running value, as
    per-element ``+=`` would (``lo`` / ``hi`` are ``None`` before the
    first value).  Unlike the draw kernels, the result is *identical*
    on both backends, bit for bit: the numpy backend runs the same IEEE
    additions over one ``float64`` array.  Raises
    :class:`~repro.errors.ConfigurationError` for a number too large to
    become a float.
    """
    return _backend().fold_moments(values, total, total_sq, lo, hi)


# Backend selection happens at import so every later kernel call is a
# plain dispatch; REPRO_KERNEL_BACKEND=python forces the fallback even
# when numpy is installed (the CI matrix exercises exactly that).
set_backend(os.environ.get(KERNEL_BACKEND_ENV, "auto"))
