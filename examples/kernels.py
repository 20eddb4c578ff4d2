"""Kernel-backend quickstart: pick a backend and draw allocations.

Run:  python examples/kernels.py

The randomness-consuming inner loops (Theorem 1's allocation draw,
the Fig. 3/4 purges) run on a **kernel backend** — vectorized
numpy when installed (``pip install repro[perf]``), a byte-stable
pure-Python reference otherwise.  See ``docs/performance.md`` for the
selection rules and ``docs/determinism.md`` for what is (and is not)
byte-identical across backends.

The docstring examples below are executed by the test suite
(``tests/test_doctests.py``), so this quickstart cannot rot.  They pin
the ``python`` backend wherever exact draw values are asserted, so
they pass on any interpreter, with or without numpy, under any
``REPRO_KERNEL_BACKEND`` setting.
"""

from repro import SplittableRng
from repro.kernels import (active_backend, available_backends,
                           draw_allocation, use_backend)


def backend_tour():
    """The selection surface in one place.

    Examples
    --------
    The pure-Python reference is always available, and whatever was
    selected at import (``REPRO_KERNEL_BACKEND``, default ``auto``) is
    one of the available backends:

    >>> "python" in available_backends()
    True
    >>> active_backend() in available_backends()
    True

    The allocation draw is the same *law* on every backend: it splits
    ``k`` merged slots over the partitions, so the shares always add up
    to ``k``:

    >>> sum(draw_allocation([40, 60, 20], 12, SplittableRng(7)))
    12

    Exact draw *bytes* are a per-backend contract.  Pinning a backend
    with ``use_backend`` makes them reproducible anywhere; with two
    partitions the first share is Figure 8's ``L``, drawn from eq. (2):

    >>> def draws(seed):
    ...     rng = SplittableRng(seed)
    ...     return [draw_allocation([40, 60], 12, rng)[0]
    ...             for _ in range(8)]
    >>> with use_backend("python"):
    ...     first = draws(7)
    >>> first
    [4, 3, 5, 3, 5, 4, 2, 5]
    >>> with use_backend("python"):
    ...     first == draws(7)
    True
    """
    return active_backend()


def main():
    print(f"available backends: {', '.join(available_backends())}")
    print(f"active backend:     {backend_tour()}")


if __name__ == "__main__":
    main()
