"""Built-in lint rules, grouped by invariant family.

Importing this package registers every rule with the framework's
registry (each module applies the :func:`repro.analysis.framework.rule`
decorator at import time) plus the callgraph summarizer the
interprocedural families consume.  The catalog with rationale and
examples lives in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis import callgraph as _callgraph  # noqa: F401
from repro.analysis import asyncrules as _asyncrules  # noqa: F401
from repro.analysis.rules import concurrency as _concurrency  # noqa: F401
from repro.analysis.rules import determinism as _determinism  # noqa: F401
from repro.analysis.rules import errors as _errors  # noqa: F401
from repro.analysis.rules import executors as _executors  # noqa: F401
from repro.analysis.rules import interprocedural as _interprocedural  # noqa: F401
from repro.analysis.rules import kernels as _kernels  # noqa: F401
from repro.analysis.rules import layering as _layering  # noqa: F401
from repro.analysis.rules import locks as _locks  # noqa: F401
from repro.analysis.rules import modulestate as _modulestate  # noqa: F401
from repro.analysis.rules import obs as _obs  # noqa: F401
from repro.analysis.rules import rng as _rng  # noqa: F401
from repro.analysis.rules import stats as _stats  # noqa: F401
from repro.analysis.rules import timing as _timing  # noqa: F401
