"""Kernel-backend quickstart: pick a backend and batch-draw.

Run:  python examples/kernels.py

The randomness-consuming inner loops (eq. (3) pmf, hypergeometric
draws, the Fig. 3/4 purges) run on a **kernel backend** — vectorized
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
                           draw_hypergeometric_batch, hypergeometric_pmf,
                           use_backend)


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

    The eq. (3) pmf is the same *law* on every backend — a merge of
    two 2-element SRSs splits its draw 1/6 : 4/6 : 1/6:

    >>> [round(p, 4) for p in hypergeometric_pmf(2, 2, 2)]
    [0.1667, 0.6667, 0.1667]

    Exact draw *bytes* are a per-backend contract.  Pinning a backend
    with ``use_backend`` makes them reproducible anywhere:

    >>> with use_backend("python"):
    ...     draws = draw_hypergeometric_batch(40, 60, 12,
    ...                                       SplittableRng(7), 8)
    >>> draws
    [4, 3, 5, 3, 5, 4, 2, 5]
    >>> with use_backend("python"):
    ...     draws == draw_hypergeometric_batch(40, 60, 12,
    ...                                        SplittableRng(7), 8)
    True
    """
    return active_backend()


def main():
    print(f"available backends: {', '.join(available_backends())}")
    print(f"active backend:     {backend_tour()}")


if __name__ == "__main__":
    main()
