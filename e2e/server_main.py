"""The sql-server workload's server process.

Builds the seeded relation, serves it with
``SkylineServer(cache=256, max_inflight=2)`` on a free localhost port
and prints ``<host> <port>`` once it listens.  Reads commands from
stdin: ``record`` starts recording spans (with ``--trace 1``, the
tracer's wrappers are installed before the server starts); end of input
stops the server.  On the way out it writes its peak RSS and, when
traced, its span summary to ``--result``.

    python e2e/server_main.py --seed 2015 --rows 50000 --dims 6 \\
        --trace 0 --result e2e/out/server.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--dims", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import layers
    import workloads
    from repro.server import SkylineServer, serve_in_thread

    relation = workloads.sql_relation(args.seed, args.rows, args.dims)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    server = SkylineServer(cache=256, max_inflight=2)
    server.register("data", relation)
    handle = serve_in_thread(server)
    try:
        host, port = handle.address
        print(host, port, flush=True)
        for line in sys.stdin:
            if line.strip() == "record" and tracer is not None:
                tracer.recording = True
    finally:
        handle.stop()
    report = {"peak_rss_mb": workloads.peak_rss_mb()}
    if tracer is not None:
        tracer.recording = False
        report["summary"] = tracer.summary()
        report["spans"] = tracer.span_list()
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
