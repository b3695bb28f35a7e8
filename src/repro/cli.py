"""Command-line interface: ``python -m repro`` / ``repro-skyline``.

Sub-commands:

``query``
    Evaluate a p-skyline query over a CSV file::

        repro-skyline query cars.csv \\
            --preferring "lowest(price) & (lowest(mileage) * highest(hp))" \\
            --algorithm osdc --limit 20

``generate``
    Write a synthetic data set (gaussian / independent / correlated /
    anticorrelated / nba / covertype) to CSV::

        repro-skyline generate gaussian --rows 10000 --dims 8 \\
            --alpha 0.5 --out data.csv

``sample``
    Print uniform random p-expressions (the Section 7.1 sampler)::

        repro-skyline sample --dims 10 --count 5 --seed 7

``bench``
    Run the figure-reproduction harness at a chosen scale (same engine as
    ``examples/reproduce_figures.py``)::

        repro-skyline bench --scale quick

``serve``
    Run the threaded Preference SQL server (result cache, admission
    control, per-request deadlines; see ``docs/server.md``)::

        repro-skyline serve --synthetic 20000 --dims 5 --port 7654

``load-gen``
    Drive a running server with concurrent clients replaying a
    correlated, elicitation-derived workload::

        repro-skyline load-gen --port 7654 --clients 4 --repeat 4

``gate``
    Run the pinned-workload performance gate tiers (delegates to
    ``python -m repro.bench.perf_gate``; no tier prints the host tag
    and the tier catalogue)::

        repro-skyline gate kernels --quick --check

``verify``
    Run the differential/metamorphic correctness fuzzer (delegates to
    ``python -m repro.verify``)::

        repro-skyline verify --seed 0 --cases 100
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

import numpy as np

from .algorithms import REGISTRY, Stats
from .bench.harness import group_records, run_pool
from .bench.report import format_series
from .bench.workloads import (DEFAULT, FULL, PAPER_ALGORITHMS, QUICK,
                              covertype_tasks, gaussian_tasks, nba_tasks)
from .core.preferring import evaluate_preferring, parse_preferring
from .core.relation import Relation
from .core.attributes import lowest
from .data import (anticorrelated, correlated, covertype_dataset,
                   equicorrelated_gaussian, independent, nba_dataset)
from .data.covertype import COVERTYPE_ATTRIBUTES
from .data.nba import NBA_ATTRIBUTES

__all__ = ["main"]

_SCALES = {"quick": QUICK, "default": DEFAULT, "full": FULL}

#: ``--algorithm`` choices: every registered algorithm, and the planner.
_ALGORITHMS = ["auto", *sorted(REGISTRY)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description="Prioritized skyline queries (SIGMOD'15 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="evaluate a p-skyline query over a CSV file")
    query.add_argument("csv", help="input CSV with a header row")
    query.add_argument("--preferring", required=True,
                       help="PREFERRING clause, e.g. "
                            "'lowest(price) & highest(hp)'")
    query.add_argument("--algorithm", default="osdc",
                       choices=_ALGORITHMS,
                       help="a registry name, or 'auto' to plan")
    query.add_argument("--limit", type=int, default=None,
                       help="print at most this many result rows")
    query.add_argument("--stats", action="store_true",
                       help="print work counters")

    generate = commands.add_parser(
        "generate", help="write a synthetic data set to CSV")
    generate.add_argument("kind", choices=["gaussian", "independent",
                                           "correlated", "anticorrelated",
                                           "nba", "covertype"])
    generate.add_argument("--rows", type=int, default=10_000)
    generate.add_argument("--dims", type=int, default=8,
                          help="columns (ignored for nba/covertype)")
    generate.add_argument("--alpha", type=float, default=1.0,
                          help="gaussian correlation parameter")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default="-",
                          help="output path ('-' for stdout)")

    sample = commands.add_parser(
        "sample", help="print uniform random p-expressions")
    sample.add_argument("--dims", type=int, default=8)
    sample.add_argument("--count", type=int, default=5)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--f", type=float, default=0.5,
                        help="SampleSAT mixing ratio")

    bench = commands.add_parser(
        "bench", help="run the figure-reproduction harness")
    bench.add_argument("--scale", default="quick", choices=sorted(_SCALES))
    bench.add_argument("--workload", default="gaussian",
                       choices=["gaussian", "nba", "covertype"])

    serve = commands.add_parser(
        "serve",
        help="run the threaded Preference SQL server over CSV tables "
             "(or a generated data set)")
    serve.add_argument("--load", action="append", default=[],
                       metavar="NAME=PATH",
                       help="register a CSV file as a table "
                            "(repeatable)")
    serve.add_argument("--synthetic", type=int, default=None,
                       metavar="ROWS",
                       help="also register ROWS gaussian rows as table "
                            "'data' (demo/bench mode)")
    serve.add_argument("--dims", type=int, default=5,
                       help="columns of the synthetic table")
    serve.add_argument("--sharded", action="store_true",
                       help="register the synthetic table as a mutable "
                            "sharded relation")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7654)
    serve.add_argument("--cache", type=int, default=256,
                       help="result-cache entries (0 disables)")
    serve.add_argument("--max-inflight", type=int, default=4)
    serve.add_argument("--max-queue", type=int, default=8)
    serve.add_argument("--shed-prefix", type=int, default=32)
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-request timeout in seconds")
    serve.add_argument("--algorithm", default="auto",
                       choices=_ALGORITHMS,
                       help="a registry name, or 'auto' (the default) "
                            "to plan each statement")
    serve.add_argument("--seed", type=int, default=2015)

    loadgen = commands.add_parser(
        "load-gen",
        help="drive a running server with concurrent clients and a "
             "correlated elicitation-derived workload")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7654)
    loadgen.add_argument("--table", default="data")
    loadgen.add_argument("--columns", nargs="+", default=None,
                         help="attribute names for the workload "
                              "(default: ask the server's table)")
    loadgen.add_argument("--statements", type=int, default=64,
                         help="distinct workload statements")
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--repeat", type=int, default=4,
                         help="passes over the workload per client")
    loadgen.add_argument("--seed", type=int, default=2015)
    loadgen.add_argument("--no-cache", action="store_true",
                         help="ask the server to bypass its result "
                              "cache")
    loadgen.add_argument("--batch", type=int, default=0, metavar="N",
                         help="send N statements per request through "
                              "the server's fused batch path (0 = one "
                              "request per statement)")
    loadgen.add_argument("--timeout", type=float, default=30.0)
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON")

    shell = commands.add_parser(
        "shell", help="interactive Preference SQL over CSV files")
    shell.add_argument("--load", action="append", default=[],
                       metavar="NAME=PATH",
                       help="register a CSV file as a table (repeatable)")

    commands.add_parser(
        "gate", help="pinned-workload performance gate (same arguments "
                     "as 'python -m repro.bench.perf_gate')",
        add_help=False)
    commands.add_parser(
        "verify", help="differential/metamorphic correctness fuzzer "
                       "(same flags as 'python -m repro.verify')",
        add_help=False)
    return parser


def _cmd_query(arguments: argparse.Namespace) -> int:
    clause = parse_preferring(arguments.preferring)
    with open(arguments.csv, newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if not rows:
        print("empty input", file=sys.stderr)
        return 1
    schema = []
    for name in clause.attributes:
        if name not in rows[0]:
            print(f"column {name!r} not found in {arguments.csv}",
                  file=sys.stderr)
            return 1
        schema.append(lowest(name))
    records = [{name: float(row[name]) for name in clause.attributes}
               for row in rows]
    relation = Relation.from_records(records, schema)
    stats = Stats()
    start = time.perf_counter()
    result = evaluate_preferring(relation, clause,
                                 algorithm=arguments.algorithm,
                                 stats=stats)
    elapsed = time.perf_counter() - start
    print(f"# {len(result)} of {len(relation)} tuples are maximal "
          f"({elapsed * 1000:.1f} ms, {arguments.algorithm})")
    writer = csv.DictWriter(sys.stdout, fieldnames=list(clause.attributes))
    writer.writeheader()
    for record in result.to_records()[: arguments.limit]:
        writer.writerow(record)
    if arguments.stats:
        print(f"# dominance tests: {stats.dominance_tests}, "
              f"passes: {stats.passes}, "
              f"recursive calls: {stats.recursive_calls}",
              file=sys.stderr)
    return 0


def _cmd_generate(arguments: argparse.Namespace) -> int:
    rng = np.random.default_rng(arguments.seed)
    kind = arguments.kind
    if kind == "gaussian":
        data = equicorrelated_gaussian(arguments.rows, arguments.dims,
                                       arguments.alpha, rng)
        names = [f"A{i}" for i in range(arguments.dims)]
    elif kind == "independent":
        data = independent(arguments.rows, arguments.dims, rng)
        names = [f"A{i}" for i in range(arguments.dims)]
    elif kind == "correlated":
        data = correlated(arguments.rows, arguments.dims, rng)
        names = [f"A{i}" for i in range(arguments.dims)]
    elif kind == "anticorrelated":
        data = anticorrelated(arguments.rows, arguments.dims, rng)
        names = [f"A{i}" for i in range(arguments.dims)]
    elif kind == "nba":
        data = nba_dataset(arguments.rows, rng)
        names = list(NBA_ATTRIBUTES)
    else:
        data = covertype_dataset(arguments.rows, rng)
        names = list(COVERTYPE_ATTRIBUTES)
    sink = sys.stdout if arguments.out == "-" else open(arguments.out, "w",
                                                        newline="")
    try:
        writer = csv.writer(sink)
        writer.writerow(names)
        writer.writerows(data.tolist())
    finally:
        if sink is not sys.stdout:
            sink.close()
            print(f"wrote {data.shape[0]} rows x {data.shape[1]} columns "
                  f"to {arguments.out}")
    return 0


def _cmd_sample(arguments: argparse.Namespace) -> int:
    from .sampling import PExpressionSampler, decompose
    rng = random.Random(arguments.seed)
    names = [f"A{i}" for i in range(arguments.dims)]
    sampler = PExpressionSampler(names, f=arguments.f)
    for _ in range(arguments.count):
        graph = sampler.sample_graph(rng)
        print(f"roots={graph.num_roots:2d} edges={graph.num_edges:3d}  "
              f"{decompose(graph)}")
    return 0


def _cmd_bench(arguments: argparse.Namespace) -> int:
    scale = _SCALES[arguments.scale]
    builders = {"gaussian": gaussian_tasks, "nba": nba_tasks,
                "covertype": covertype_tasks}
    tasks = builders[arguments.workload](scale)
    records = run_pool(PAPER_ALGORITHMS, tasks, repeats=scale.repeats)
    grouped = group_records(records, key=lambda r: r.num_attributes)
    print(format_series(
        f"{arguments.workload} workload ({scale.name} scale) by d",
        grouped, PAPER_ALGORITHMS, "d"))
    return 0


def _load_csv_as_relation(path: str) -> Relation:
    """All-numeric CSV -> relation with lowest-preferred columns."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path!r} has no header row")
        names = list(reader.fieldnames)
        records = [{name: float(row[name]) for name in names}
                   for row in reader]
    return Relation.from_records(records, [lowest(name)
                                           for name in names])


def _cmd_serve(arguments: argparse.Namespace) -> int:
    from .server import SkylineServer

    server = SkylineServer(
        host=arguments.host, port=arguments.port,
        cache=arguments.cache if arguments.cache > 0 else None,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        shed_prefix=arguments.shed_prefix,
        default_timeout=arguments.timeout,
        algorithm=arguments.algorithm)
    for spec in arguments.load:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--load expects NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 1
        server.register(name, _load_csv_as_relation(path))
        print(f"loaded {name} from {path}")
    if arguments.synthetic is not None:
        names = [f"a{j}" for j in range(arguments.dims)]
        matrix = equicorrelated_gaussian(
            arguments.synthetic, arguments.dims, 0.2,
            np.random.default_rng(arguments.seed))
        relation = Relation.from_array(matrix, names=names)
        if arguments.sharded:
            from .core.sharding import ShardedRelation
            server.register("data",
                            ShardedRelation.from_relation(relation))
        else:
            server.register("data", relation)
        print(f"registered synthetic table 'data' "
              f"({arguments.synthetic} x {arguments.dims}"
              f"{', sharded' if arguments.sharded else ''})")
    if not server.tables():
        print("no tables registered; use --load and/or --synthetic",
              file=sys.stderr)
        return 1
    from .server.service import serve_in_thread
    handle = serve_in_thread(server)
    host, port = handle.address
    print(f"serving {', '.join(server.tables())} on {host}:{port} "
          f"(ctrl-c to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining ...")
    finally:
        handle.stop()
    return 0


def _cmd_load_gen(arguments: argparse.Namespace) -> int:
    import json as json_module

    from .server import SkylineClient
    from .server.loadgen import correlated_statements, run_load

    address = (arguments.host, arguments.port)
    columns = arguments.columns
    if columns is None:
        # the workload needs attribute names: probe the table
        with SkylineClient(address) as client:
            probe = client.query(
                f"SELECT * FROM {arguments.table} TOP 1")
            columns = probe["columns"]
    statements = correlated_statements(
        columns, arguments.statements, table=arguments.table,
        seed=arguments.seed)
    report = run_load(address, statements, clients=arguments.clients,
                      repeat=arguments.repeat,
                      timeout=arguments.timeout,
                      no_cache=arguments.no_cache,
                      batch=arguments.batch)
    if arguments.json:
        print(json_module.dumps(report.to_dict(), indent=2,
                                sort_keys=True))
        return 0
    print(f"clients={arguments.clients} statements="
          f"{len(statements)} repeat={arguments.repeat} "
          f"no_cache={arguments.no_cache} batch={arguments.batch}")
    print(f"  {report.queries} queries in {report.elapsed_s:.2f}s "
          f"-> {report.qps:.0f} qps")
    print(f"  latency ms: mean={report.mean_ms:.2f} "
          f"p50={report.p50_ms:.2f} p99={report.p99_ms:.2f} "
          f"max={report.max_ms:.2f}")
    print(f"  cached={report.cached} shed={report.shed} "
          f"errors={report.errors}")
    if report.server and report.server.get("cache"):
        cache = report.server["cache"]
        print(f"  server cache: hit_ratio={cache['hit_ratio']:.2f} "
              f"size={cache['size']} "
              f"invalidations={cache['invalidations']}")
    return 0


def _cmd_shell(arguments: argparse.Namespace) -> int:
    from .sql import PreferenceSQL, SqlExecutionError, SqlSyntaxError
    engine = PreferenceSQL()
    for spec in arguments.load:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--load expects NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 1
        engine.register(name, _load_csv_as_relation(path))
        print(f"loaded {name} from {path}")
    print("Preference SQL shell -- SELECT ... FROM ... [WHERE ...] "
          "[PREFERRING ...] [TOP k]; empty line quits.")
    while True:
        try:
            line = input("psql> ").strip()
        except EOFError:
            break
        if not line:
            break
        try:
            result = engine.execute(line)
        except (SqlSyntaxError, SqlExecutionError, KeyError,
                ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            continue
        writer = csv.DictWriter(sys.stdout, fieldnames=list(result.names))
        writer.writeheader()
        for record in result.to_records():
            writer.writerow(record)
        print(f"({len(result)} rows)")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Hand everything after these sub-commands to their own parsers
    # untouched (argparse.REMAINDER drops leading optionals, so the
    # delegation happens before parsing).
    if argv and argv[0] == "verify":
        from .verify.cli import main as verify_main
        return verify_main(argv[1:])
    if argv and argv[0] == "gate":
        from .bench.perf_gate import main as gate_main
        return gate_main(argv[1:])
    arguments = _build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "generate": _cmd_generate,
        "sample": _cmd_sample,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "load-gen": _cmd_load_gen,
        "shell": _cmd_shell,
    }
    return handlers[arguments.command](arguments)


if __name__ == "__main__":
    raise SystemExit(main())
