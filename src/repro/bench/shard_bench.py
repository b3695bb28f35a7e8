"""Measurement core for sharded relations.

Three measurements behind the ``shards`` tier of the perf gate
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
* :func:`measure_read_after_writes` -- a pinned scatter read after
  inserts and deletes that touch every shard: each shard's base stays
  registered, so the read registers no new shared-memory segment and
  ships only the shards' deltas.
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
           "measure_read_after_writes", "measure_insert_overhead"]

#: Timing repeats for the insert-overhead measurement; inserts mutate
#: the maintainer, so each repeat rebuilds it and the minimum is kept.
INSERT_REPEATS = 3

#: Inserts, and deletes, between the two reads of
#: :func:`measure_read_after_writes`: enough to touch every shard, far
#: below the re-base share.
READ_WRITES = 16


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
            # untracked sharded scatter/gather (same warm-then-time)
            pool.run_sharded(snapshot.pins, graph)
            start = time.perf_counter()
            virtual = pool.run_sharded(snapshot.pins, graph)
            scatter_seconds = time.perf_counter() - start
            scatter_gids = np.sort(snapshot.gids_at(virtual))
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


def measure_read_after_writes(rows: int, dims: int, *, shards: int = 4,
                              workers: int = 4, seed: int = 2015) -> dict:
    """A pinned scatter read after writes to every shard.

    A first read registers every shard's base.  Then
    :data:`READ_WRITES` rows are inserted and as many live rows
    deleted, and a second pin is read on the same warm pool;
    ``read_seconds`` times that pin and read.  Below the re-base share
    the read registers no new shared-memory segment
    (``new_segments``).  Serial OSDC over the live rows is the
    correctness oracle.
    """
    from ..algorithms.osdc import osdc
    from ..core.sharding import ShardedRelation
    from ..engine.pool import WorkerPool

    writes = READ_WRITES
    ranks, graph = pinned_parallel_case(rows + writes, dims, DEFAULT_ALPHA,
                                        seed)
    relation = ShardedRelation.from_array(ranks[:rows],
                                          names=list(graph.names),
                                          shards=shards)
    deleted = np.random.default_rng(seed).choice(rows, size=writes,
                                                 replace=False)
    with WorkerPool(workers) as pool:
        with relation.snapshot() as snapshot:
            pool.run_sharded(snapshot.pins, graph)  # registers the bases
        for row in ranks[rows:]:
            relation.insert_ranks(row)
        for gid in deleted:
            relation.delete(int(gid))

        before = set(pool.live_segments())
        start = time.perf_counter()
        with relation.snapshot() as snapshot:
            virtual = pool.run_sharded(snapshot.pins, graph)
            read_seconds = time.perf_counter() - start
            new_segments = len(set(pool.live_segments()) - before)
            gids = np.sort(snapshot.gids_at(virtual))
            touched = sum(1 for pin in snapshot.pins
                          if pin.appended.shape[0] and pin.dead.size)

    live = np.setdiff1d(np.arange(rows + writes), deleted)
    expected = np.sort(live[osdc(ranks[live], graph)])
    if not np.array_equal(gids, expected):
        raise AssertionError(
            "the scatter read after writes disagrees with serial OSDC")
    return {
        "name": f"writes-n{rows}-w{writes}-d{dims}-s{shards}",
        "rows": int(rows),
        "writes": int(writes),
        "d": int(dims),
        "shards": int(shards),
        "workers": int(workers),
        "output_size": int(expected.size),
        "touched_shards": int(touched),
        "new_segments": new_segments,
        "read_seconds": read_seconds,
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

