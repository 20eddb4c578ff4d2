"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload load|query|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload three times -- untraced, traced and with
``repro.obs`` enabled -- and reports the per-layer metrics.  Readable
lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any output check fails.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

import common

WORKLOADS = {"load": "load", "query": "query", "serve": "serve_client"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.ensure_program()
    workload = importlib.import_module(WORKLOADS[args.workload])
    res = workload.run(args.seed, args.seconds, bool(args.trace))
    if res.host.samples:
        res.facts["host_reference_s"] = res.host.median_s

    units = common.PER_LAYER if args.trace else common.END_TO_END
    missing = sorted(set(units) - set(res.metrics))
    if missing:
        raise RuntimeError(f"workload reported no {missing}")
    aliases = common.ALIASES[args.workload]
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(res.facts, sort_keys=True))
    for name, unit in units.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name} = {res.metrics[name]:.6g} {unit}{alias}")
    print(f"checks: {res.checks - len(res.failures)}/{res.checks} passed")
    for failure in res.failures:
        print(f"  FAILED {failure}")
    metrics = {}
    for name, unit in units.items():
        value = float(res.metrics[name])
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
