"""Measurement core for sharded relations.

Two measurements behind the ``shards`` tier of the perf gate
(:mod:`repro.bench.perf_gate`, baseline ``BENCH_6.json``); the relation
builder is shared with ``benchmarks/bench_sharding.py``:

* :func:`measure_sharded` -- one pinned low-output workload (the same
  equicorrelated Gaussian generator the pool gate uses) evaluated three
  ways on a warm worker pool: **monolithic** scatter/gather over the
  flat rank matrix (:meth:`~repro.engine.pool.WorkerPool.run_query`),
  **sharded** scatter/gather over the per-shard registrations
  (:meth:`~repro.engine.pool.WorkerPool.run_sharded`), and the
  **maintained serve** path, where the relation's tracked per-shard
  skylines are tree-merged on the pool
  (:meth:`~repro.core.sharding.ShardedRelation.p_skyline`).  The
  monolithic answer is the correctness oracle for both sharded runs.
  The serve path only touches the per-shard skylines -- a few hundred
  rows instead of all ``n`` -- which is where the sharded layout earns
  its speedup.
* :func:`measure_insert_overhead` -- per-row insert throughput of a
  :class:`~repro.core.sharding.ShardedPSkylineMaintainer` against a
  single flat :class:`~repro.algorithms.incremental.PSkylineMaintainer`
  on the same pinned stream.  Routing a write touches exactly one
  shard, so the sharded maintainer must stay within a small constant
  factor of the flat one.

All workloads are pinned by seed (they reuse
:func:`~repro.bench.pool_bench.pinned_parallel_case`), so output sizes,
per-shard skyline sizes and the relation version are exactly
reproducible and the perf gate can compare them against a committed
baseline byte for byte.
"""

from __future__ import annotations

import time

import numpy as np

from ..algorithms.base import Stats
from ..engine import ExecutionContext
from .pool_bench import DEFAULT_ALPHA, pinned_parallel_case

__all__ = ["build_tracked_relation", "measure_sharded",
           "measure_insert_overhead"]

#: Timing repeats for the insert-overhead measurement; inserts mutate
#: the maintainer, so each repeat rebuilds it and the minimum is kept.
INSERT_REPEATS = 3


def build_tracked_relation(ranks: np.ndarray, graph, shards: int):
    """A hash-sharded relation over ``ranks`` with ``graph`` tracked."""
    from ..core.sharding import ShardedRelation

    relation = ShardedRelation.from_array(ranks,
                                          names=list(graph.names),
                                          shards=shards)
    relation.track(graph)
    return relation


def measure_sharded(rows: int, dims: int, *, shards: int = 4,
                    workers: int = 4, alpha: float = DEFAULT_ALPHA,
                    seed: int = 2015) -> dict:
    """Monolithic vs sharded scatter/gather vs maintained serve, all on
    one warm pool over one pinned workload."""
    from ..engine.pool import WorkerPool

    ranks, graph = pinned_parallel_case(rows, dims, alpha, seed)
    relation = build_tracked_relation(ranks, graph, shards)

    with WorkerPool(workers) as pool:
        # monolithic oracle: first query absorbs the one-off
        # shared-memory registration, the second is the steady state
        pool.run_query(ranks, graph, chunks=workers)
        start = time.perf_counter()
        expected = pool.run_query(ranks, graph, chunks=workers)
        monolithic_seconds = time.perf_counter() - start

        with relation.snapshot() as snapshot:
            arrays = [shard.ranks for shard in snapshot.shards
                      if len(shard)]
            gid_of = np.concatenate(
                [gids for shard, gids in zip(snapshot.shards,
                                             snapshot.gids)
                 if len(shard)])
            # untracked sharded scatter/gather (same warm-then-time)
            pool.run_sharded(arrays, graph)
            start = time.perf_counter()
            virtual = pool.run_sharded(arrays, graph)
            scatter_seconds = time.perf_counter() - start
        scatter_gids = np.sort(gid_of[virtual])
        if not np.array_equal(scatter_gids, expected):
            raise AssertionError(
                "sharded scatter/gather disagrees with the monolithic "
                "pool run")

        # maintained serve: merge the tracked per-shard skylines on the
        # pool's tree merge -- no full scan of the data
        relation.p_skyline(graph, pool=pool)
        stats = Stats()
        start = time.perf_counter()
        served = relation.p_skyline(graph, pool=pool, stats=stats)
        serve_seconds = time.perf_counter() - start

    maintained = relation.skyline_gids(graph)
    if not np.array_equal(maintained, expected):
        raise AssertionError(
            "maintained sharded skyline disagrees with the monolithic "
            "pool run")
    if len(served) != expected.size:
        raise AssertionError(
            "served relation size disagrees with the monolithic run")

    shard_info = stats.extra["shards"]
    return {
        "name": f"sharded-n{rows}-d{dims}-s{shards}-w{workers}",
        "rows": int(rows),
        "d": int(dims),
        "alpha": float(alpha),
        "shards": int(shards),
        "workers": int(workers),
        "partition": shard_info["partition"],
        "version": int(relation.version),
        "output_size": int(expected.size),
        "shard_skylines": [int(s) for s in shard_info["skylines"]],
        "shard_rows": [int(r) for r in shard_info["rows"]],
        "monolithic_seconds": monolithic_seconds,
        "scatter_seconds": scatter_seconds,
        "serve_seconds": serve_seconds,
        "speedup_serve_over_monolithic":
            monolithic_seconds / serve_seconds,
        "speedup_scatter_over_monolithic":
            monolithic_seconds / scatter_seconds,
    }


def _timed_inserts(maintainer, base: np.ndarray,
                   stream: np.ndarray) -> float:
    maintainer.bulk_load(base)
    start = time.perf_counter()
    for row in stream:
        maintainer.insert(row)
    return time.perf_counter() - start


def measure_insert_overhead(base_rows: int, inserts: int, dims: int, *,
                            shards: int = 4, alpha: float = DEFAULT_ALPHA,
                            seed: int = 2015,
                            repeats: int = INSERT_REPEATS) -> dict:
    """Per-row insert cost: sharded maintainer over a flat one.

    Both maintainers bulk-load the same ``base_rows`` pinned rows, then
    insert the next ``inserts`` rows of the stream one at a time.  Each
    repeat rebuilds the maintainers (inserts mutate them); the minimum
    over ``repeats`` is kept.  Ids are append order in both, so the
    final skylines must match exactly.
    """
    from ..algorithms.incremental import PSkylineMaintainer
    from ..core.sharding import ShardedPSkylineMaintainer

    ranks, graph = pinned_parallel_case(base_rows + inserts, dims,
                                        alpha, seed)
    base, stream = ranks[:base_rows], ranks[base_rows:]
    capacity = base_rows + inserts

    single_seconds = float("inf")
    sharded_seconds = float("inf")
    for _ in range(max(1, repeats)):
        single = PSkylineMaintainer(graph, capacity=capacity)
        single_seconds = min(single_seconds,
                             _timed_inserts(single, base, stream))
        sharded = ShardedPSkylineMaintainer(graph, shards,
                                            capacity=capacity)
        sharded_seconds = min(sharded_seconds,
                              _timed_inserts(sharded, base, stream))
    if not np.array_equal(single.skyline_ids(), sharded.skyline_ids()):
        raise AssertionError(
            "sharded maintainer disagrees with the flat maintainer")

    return {
        "name": f"insert-b{base_rows}-i{inserts}-d{dims}-s{shards}",
        "base_rows": int(base_rows),
        "inserts": int(inserts),
        "d": int(dims),
        "alpha": float(alpha),
        "shards": int(shards),
        "output_size": int(single.skyline_ids().size),
        "shard_skylines": [int(s)
                           for s in sharded.shard_skyline_sizes()],
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "insert_overhead": sharded_seconds / single_seconds,
    }

