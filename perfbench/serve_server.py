"""Server process of the ``serve`` workload.

Started by ``serve_client.py``::

    python3 perfbench/serve_server.py --seed N [--trace 1] [--obs 1]

It builds the seeded warehouse, starts a default-config
``WarehouseService`` on an ephemeral localhost port and prints
``{"ready": port}``.  It serves until a line (or end of file) arrives on
standard input, then prints one JSON report -- peak RSS and, with
``--trace 1``, the tracer's totals -- and exits.  ``--obs 1`` turns on
``repro.obs`` for the whole life of the server.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import common

common.ensure_program()

import serve_data  # noqa: E402
from repro.obs.runtime import enable  # noqa: E402
from repro.serve.app import WarehouseService  # noqa: E402
from tracer import Instrumentation, Tracer  # noqa: E402


async def serve(service: WarehouseService) -> None:
    _host, port = await service.start("127.0.0.1", 0)
    print(json.dumps({"ready": port}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    await service.aclose()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--obs", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warehouse = serve_data.build_warehouse(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        Instrumentation(tracer).install()
    if args.obs:
        enable()
    asyncio.run(serve(WarehouseService(warehouse)))
    report = {"rss_peak_mb": common.rss_peak_mb()}
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
