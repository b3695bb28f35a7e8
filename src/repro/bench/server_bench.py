"""Benchmark the query server under concurrent correlated load.

:func:`measure_server` backs the ``server`` tier of the perf gate
(:mod:`repro.bench.perf_gate`, baseline ``BENCH_7.json``): it starts an
in-process :class:`~repro.server.SkylineServer` over a pinned gaussian
relation, replays a pinned elicitation-derived correlated workload
(:func:`~repro.server.loadgen.correlated_statements`) from concurrent
clients, and measures

* **cache-disabled serving** (every request carries ``no_cache``) --
  the floor the result cache has to beat;
* **warm-cache serving** (one priming pass, then the measured run) --
  sustained throughput and latency quantiles with the hit path doing a
  dictionary lookup instead of a skyline evaluation;
* **counter exactness** -- after a cache clear, a single sequential
  pass must produce exactly one miss per distinct statement and one hit
  per repeated statement (the deterministic property the gate pins);
* **forced shedding** -- with the admission controller forced open,
  every preference query must come back ``partial`` (the degraded path
  stays wired).

The cached-over-uncached speedup is core-count *independent* -- a cache
hit skips evaluation entirely -- so it gates everywhere; wall-clock
qps/latency comparisons against the committed baseline go unmeasured
on hosts with fewer cores than clients.
"""

from __future__ import annotations

import numpy as np

from ..core.relation import Relation
from ..data import equicorrelated_gaussian
from ..server.loadgen import correlated_statements, run_load
from ..server.service import SkylineServer, serve_in_thread

__all__ = ["measure_server"]


def measure_server(rows: int, dims: int, *, statements: int = 64,
                   clients: int = 4, repeat: int = 2,
                   seed: int = 2015) -> dict:
    """One full server measurement (see the module docstring)."""
    rng = np.random.default_rng(seed)
    names = [f"a{j}" for j in range(dims)]
    relation = Relation.from_array(
        equicorrelated_gaussian(rows, dims, 0.2, rng), names=names)
    workload = correlated_statements(names, statements, table="data",
                                     seed=seed)
    distinct = len(set(workload))

    server = SkylineServer(port=0, cache=256, max_inflight=clients)
    server.register("data", relation)
    handle = serve_in_thread(server)
    try:
        address = handle.address

        # cache-disabled floor
        uncached = run_load(address, workload, clients=clients,
                            repeat=repeat, no_cache=True)

        # deterministic counter exactness: clear, then one sequential pass
        server.cache.clear()
        before = server.cache.stats()
        cold = run_load(address, workload, clients=1, repeat=1)
        after = server.cache.stats()
        cold_misses = after["misses"] - before["misses"]
        cold_hits = after["hits"] - before["hits"]

        # warm sustained serving (the cache is primed by the cold pass)
        warm = run_load(address, workload, clients=clients, repeat=repeat)
        warm_stats = server.cache.stats()

        # forced shedding: the degraded path stays wired
        server.force_shed = True
        try:
            shed = run_load(address, workload, clients=1, repeat=1)
        finally:
            server.force_shed = False
    finally:
        handle.stop()

    return {
        "name": f"server-correlated-{statements}q",
        "rows": rows,
        "dims": dims,
        "clients": clients,
        "statements": statements,
        "distinct_statements": distinct,
        "repeat": repeat,
        "uncached_qps": uncached.qps,
        "uncached_p50_ms": uncached.p50_ms,
        "uncached_p99_ms": uncached.p99_ms,
        "uncached_seconds": uncached.elapsed_s,
        "warm_qps": warm.qps,
        "warm_p50_ms": warm.p50_ms,
        "warm_p99_ms": warm.p99_ms,
        "warm_seconds": warm.elapsed_s,
        "warm_cached": warm.cached,
        "warm_queries": warm.queries,
        "speedup_cached_over_uncached":
            warm.qps / uncached.qps if uncached.qps else float("inf"),
        "hit_ratio": warm_stats["hit_ratio"],
        "cold_misses": cold_misses,
        "cold_hits": cold_hits,
        "cold_queries": cold.queries,
        "shed_partial": shed.shed,
        "shed_queries": shed.queries,
        "errors": uncached.errors + cold.errors + warm.errors
        + shed.errors,
    }
