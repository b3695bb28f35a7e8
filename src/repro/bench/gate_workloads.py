"""The pinned workloads of the perf gate's five tiers.

Every workload follows the paper's Section 7 benchmarking framework:
equicorrelated Gaussian data and p-expressions sampled uniformly by
the counting sampler, all drawn from :data:`SEED`
(:func:`pinned_case`).  Output sizes, survivor counts, per-shard
skylines and fusion counters are therefore exactly reproducible, and
the gate compares them with a committed baseline byte for byte.

Each tier's workload function takes only the size map its
:class:`~repro.bench.perf_gate.Tier` chooses (``full`` or ``quick``)
and returns the artifact's sections; everything else is a constant
here.  Changing a constant or a size invalidates the committed
baselines -- regenerate them (``gate TIER --out .``) in the same
commit.  Every answer a workload times is checked against an oracle
(serial OSDC, a monolithic pool run, the sequential batch or a flat
maintainer), and a disagreement raises ``AssertionError``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

import numpy as np

from ..algorithms.base import Stats
from ..core.bitsets import iter_bits
from ..data.gaussian import equicorrelated_gaussian
from ..engine import ExecutionContext
from ..sampling.random_pexpr import PExpressionSampler

__all__ = ["SEED", "CORPUS", "pinned_case", "timed", "alternating",
           "kernels", "pool", "shards", "server", "fusion"]

SEED = 2015
#: ``alpha < 1`` correlates the attributes positively, so skylines stay
#: small (the output-sensitive regime); ``1.0`` makes them independent.
CORRELATED = 0.2
INDEPENDENT = 1.0
DIMS = 6
KERNEL_DIMS = (4, 8, 16)
#: Rows of the scalar-parity probe: too few to time, enough to pin all
#: three kernel families to one survivor count.
PARITY_ROWS = 400
ALGORITHMS = ("bnl", "sfs", "less", "salsa", "osdc")
#: The parallel-over-serial floor needs a core per worker, so the pool
#: tier keeps four workers; the shards and server tiers size theirs to
#: the host (``default_worker_count()``) so their floors run on it.
POOL_WORKERS = 4
#: ``auto`` queries read ``AUTO_WIDTH`` of ``AUTO_DIMS`` columns, a
#: different subset each, of one relation.
AUTO_DIMS = 8
AUTO_WIDTH = 6
SHARDS = 4
SERVE_REPEATS = 9
SWEEP_SHARDS = (2, 4, 8)
#: Inserts, and deletes, before the read after writes: enough to touch
#: every shard, far below the re-base share.
READ_WRITES = 16
#: Inserts mutate the maintainers, so each repeat rebuilds them and the
#: minimum is kept.
INSERT_REPEATS = 3
SERVER_DIMS = 5
STATEMENTS = 64
INTENTS = 6
CORPUS = "tests/corpus"


def _names(dims: int) -> list[str]:
    return [f"A{i}" for i in range(dims)]


def pinned_case(rows: int, dims: int, alpha: float):
    """The pinned ``(ranks, graph)`` pair: ``rows`` equicorrelated
    Gaussian tuples over ``A0..A{dims-1}`` and a p-graph sampled
    uniformly over those attributes.

    ``ranks`` is read-only, so repeated pooled queries share one
    registration as a relation's do (the pool registers a writeable
    matrix as a fresh copy per query)."""
    ranks = np.array(equicorrelated_gaussian(
        rows, dims, alpha, np.random.default_rng(SEED + dims)), order="C")
    ranks.setflags(write=False)
    graph = PExpressionSampler(_names(dims), method="counting") \
        .sample_graph(random.Random(f"pool-bench:{SEED}:{dims}"))
    return ranks, graph


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """``(seconds, fn())``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def alternating(a: Callable[[int], Any], b: Callable[[int], Any],
                repeats: int):
    """Time ``a(i)`` and ``b(i)`` back to back for each ``i`` in
    ``range(repeats)``, alternating which runs first, so a burst of load
    on the host moves both sides of a pair alike.

    Returns the median of the per-pair ``a/b`` time ratios, that
    ratio's quartiles, and each side's median seconds."""
    seconds = np.empty((repeats, 2))
    for i in range(repeats):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds[i, side] = timed(lambda: (a, b)[side](i))[0]
    ratios = seconds[:, 0] / seconds[:, 1]
    a_seconds, b_seconds = np.median(seconds, axis=0)
    return (float(np.median(ratios)),
            [float(q) for q in np.percentile(ratios, [25, 75])],
            float(a_seconds), float(b_seconds))


# -- kernels -----------------------------------------------------------------

def _screen(dims: int, rows: int,
            families: tuple[str, ...] = ("bitmask", "gemm")) -> dict:
    """Time ``screen_block`` per kernel family on PSCREEN's dense base
    case at scale: a median split on the first root attribute, the
    worse half screened against the better half."""
    from ..core.dominance import Dominance

    ranks, graph = pinned_case(rows, dims, INDEPENDENT)
    dominance = Dominance(graph).prepare()
    column = ranks[:, next(iter_bits(graph.roots))]
    tau = float(np.median(column))
    against = np.ascontiguousarray(ranks[column < tau])
    block = np.ascontiguousarray(ranks[column >= tau])
    record = {"name": f"screen-d{dims}", "d": dims, "rows": rows,
              "block_rows": int(block.shape[0]),
              "against_rows": int(against.shape[0]), "timings": {}}
    survivors = set()
    for kernel in families:
        # warm up workspaces and tables off the clock
        dominance.screen_block(block[:512], against[:512], kernel=kernel)
        record["timings"][kernel], mask = timed(
            lambda: dominance.screen_block(block, against, kernel=kernel))
        survivors.add(int(mask.sum()))
    if len(survivors) != 1:
        raise AssertionError(f"kernel families disagree on screen-d{dims}: "
                             f"survivor counts {sorted(survivors)}")
    record["survivors"] = survivors.pop()
    record["speedup_bitmask_over_gemm"] = (record["timings"]["gemm"]
                                           / record["timings"]["bitmask"])
    return record


def _algorithm(name: str, ranks: np.ndarray, graph) -> dict:
    """One end-to-end algorithm run with its counters and kernel."""
    from ..algorithms.base import get_algorithm

    function = get_algorithm(name)
    function(ranks, graph, context=ExecutionContext.create(
        stats=Stats(), trace=64))  # warm caches off the clock
    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=64)
    seconds, result = timed(lambda: function(ranks, graph, context=context))
    return {"name": name, "rows": int(ranks.shape[0]), "d": int(graph.d),
            "seconds": seconds, "output_size": int(np.asarray(result).size),
            "kernel": stats.extra.get("kernel"),
            "dominance_tests": stats.dominance_tests,
            "passes": stats.passes,
            "recursive_calls": stats.recursive_calls,
            "pruned_by_filter": stats.pruned_by_filter}


def kernels(sizes: dict) -> dict:
    """Bitmask vs gemm screens at each of :data:`KERNEL_DIMS`, a
    scalar-parity probe, and the scan and divide-and-conquer
    algorithms end to end."""
    parity = _screen(KERNEL_DIMS[0], PARITY_ROWS,
                     ("bitmask", "gemm", "scalar"))
    parity["name"] = "scalar-parity-d4"
    # too small to gate on a timing ratio -- only survivor parity matters
    del parity["speedup_bitmask_over_gemm"]
    ranks, graph = pinned_case(sizes["algorithm_rows"], DIMS, INDEPENDENT)
    return {"kernels": [_screen(dims, sizes["kernel_rows"])
                        for dims in KERNEL_DIMS] + [parity],
            "algorithms": [_algorithm(name, ranks, graph)
                           for name in ALGORITHMS]}


# -- pool --------------------------------------------------------------------

def _serial(ranks, graph):
    from ..algorithms.osdc import osdc

    stats = Stats()
    seconds, result = timed(
        lambda: osdc(ranks, graph, context=ExecutionContext(stats=stats)))
    return seconds, np.asarray(result), stats


def _parallel(rows: int) -> dict:
    """Serial OSDC vs a cold pool (forked, used once, torn down: the
    pre-pool ``parallel-osdc``) vs a warm pool that reuses its workers
    and registration.  Serial OSDC is the oracle."""
    from ..algorithms.parallel import parallel_osdc
    from ..engine.pool import WorkerPool

    ranks, graph = pinned_case(rows, DIMS, CORRELATED)
    _serial(ranks, graph)  # warm caches; the second run is timed
    serial_seconds, expected, serial_stats = _serial(ranks, graph)
    cold_seconds, cold = timed(lambda: parallel_osdc(
        ranks, graph, processes=POOL_WORKERS, min_chunk=1, fresh_pool=True))
    with WorkerPool(POOL_WORKERS) as workers:
        # the first warm query pays the one-off registration; the second
        # is the steady state of a service
        first_seconds, _ = timed(lambda: workers.run_query(
            ranks, graph, chunks=POOL_WORKERS))
        stats = Stats()
        warm_seconds, warm = timed(lambda: workers.run_query(
            ranks, graph, chunks=POOL_WORKERS,
            context=ExecutionContext(stats=stats)))
    for label, got in (("cold", cold), ("warm", warm)):
        if not np.array_equal(got, expected):
            raise AssertionError(
                f"{label} pooled run disagrees with serial OSDC")
    return {
        "name": f"parallel-n{rows}-d{DIMS}-w{POOL_WORKERS}",
        "rows": rows, "d": DIMS, "alpha": CORRELATED,
        "workers": POOL_WORKERS,
        "output_size": int(expected.size),
        "chunk_skylines": [int(s) for s in stats.extra["chunk_skylines"]],
        "merge_rounds": int(stats.extra["pool"]["merge_rounds"]),
        "kernel": stats.extra.get("kernel"),
        "serial_dominance_tests": serial_stats.dominance_tests,
        "pooled_dominance_tests": stats.dominance_tests,
        "serial_seconds": serial_seconds,
        "cold_seconds": cold_seconds,
        "warm_first_seconds": first_seconds,
        "warm_seconds": warm_seconds,
        "speedup_warm_over_cold": cold_seconds / warm_seconds,
        "speedup_warm_over_serial": serial_seconds / warm_seconds,
    }


def _batch(rows: int, queries: int, repeats: int) -> dict:
    """One warm :meth:`~repro.engine.pool.WorkerPool.map_queries` batch
    vs ``queries`` cold parallel calls: the start-up and registration
    cost the batch amortises away."""
    from ..algorithms.parallel import parallel_osdc
    from ..core.pgraph import PGraph
    from ..engine.pool import WorkerPool

    ranks, _graph = pinned_case(rows, DIMS, CORRELATED)
    rng = random.Random(f"pool-batch:{SEED}:{DIMS}:{queries}")
    sampler = PExpressionSampler(_names(DIMS), method="counting")
    graphs = [PGraph.from_expression(sampler.sample_expression(rng),
                                     names=_names(DIMS))
              for _ in range(queries)]
    batch = [(graph, None) for graph in graphs]
    results = {}

    def cold(_):
        # each query forks its own pool and registers its own copy
        results["cold"] = [parallel_osdc(ranks, graph,
                                         processes=POOL_WORKERS,
                                         min_chunk=1, fresh_pool=True)
                           for graph in graphs]

    with WorkerPool(POOL_WORKERS) as workers:
        workers.map_queries(ranks, batch[:1], chunks=POOL_WORKERS)

        def warm(_):  # one registration, descriptor-only dispatches
            results["warm"] = workers.map_queries(ranks, batch,
                                                  chunks=POOL_WORKERS)

        speedup, _, cold_seconds, warm_seconds = alternating(cold, warm,
                                                             repeats)
    for index, (got, want) in enumerate(zip(results["cold"],
                                            results["warm"])):
        if not np.array_equal(got, want):
            raise AssertionError(
                f"batch query {index} disagrees between cold and warm")
    return {
        "name": f"batch-q{queries}-n{rows}-d{DIMS}-w{POOL_WORKERS}",
        "rows": rows, "d": DIMS, "alpha": CORRELATED,
        "workers": POOL_WORKERS, "queries": queries, "repeats": repeats,
        "output_sizes": [int(np.asarray(r).size) for r in results["warm"]],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_batch_over_cold": speedup,
    }


def _auto(queries: int, repeats: int) -> dict:
    """``p_skyline(algorithm="auto")`` against serial ``osdc`` over
    ``queries`` distinct column subsets of one relation at the
    planner's parallel threshold (also in quick mode: below it no query
    would reach the pool).

    Each expression is drawn until it is not a weak order, so the
    planner sends it to ``parallel-osdc``, not ``layered``.  The
    queries run on a fresh default pool; ``pooled`` counts those that
    reached it (none where ``parallel-osdc`` falls back to serial) and
    ``segments`` the distinct shared-memory segments it held after each
    -- one when every query shares the relation's registration."""
    from ..core.pgraph import PGraph
    from ..core.query import p_skyline
    from ..core.relation import Relation
    from ..engine.pool import (default_worker_count, get_default_pool,
                               shutdown_default_pool)
    from ..planner import DEFAULT_PLANNER

    rows = DEFAULT_PLANNER.parallel_threshold
    ranks, _graph = pinned_case(rows, AUTO_DIMS, INDEPENDENT)
    relation = Relation.from_array(ranks)
    rng = random.Random(
        f"pool-auto:{SEED}:{AUTO_DIMS}:{queries}:{AUTO_WIDTH}")
    expressions = []
    for index in range(queries):
        names = [f"A{(index + j) % AUTO_DIMS}" for j in range(AUTO_WIDTH)]
        sampler = PExpressionSampler(names, method="counting")
        expression = sampler.sample_expression(rng)
        while PGraph.from_expression(expression, names=names).is_weak_order():
            expression = sampler.sample_expression(rng)
        expressions.append(expression)

    def run(algorithm):
        return lambda i: p_skyline(relation, expressions[i % queries],
                                   algorithm=algorithm)

    shutdown_default_pool()
    try:
        picks, sizes, segments, pooled = [], [], set(), 0
        for expression in expressions:  # warm-up, off the clock
            stats = Stats()
            result = p_skyline(relation, expression, algorithm="auto",
                               stats=stats)
            if "pool" in stats.extra:
                pooled += 1
                segments.update(get_default_pool().live_segments())
            expected = p_skyline(relation, expression, algorithm="osdc")
            if not np.array_equal(result.ranks, expected.ranks):
                raise AssertionError(
                    f"auto disagrees with osdc on {expression}")
            picks.append(stats.extra["plan"]["algorithm"])
            sizes.append(len(result))
        ratio, quartiles, _, _ = alternating(run("auto"), run("osdc"),
                                             repeats * queries)
    finally:
        shutdown_default_pool()
    return {
        "name": f"auto-q{queries}-n{rows}-d{AUTO_DIMS}-k{AUTO_WIDTH}",
        "rows": rows, "d": AUTO_DIMS, "width": AUTO_WIDTH,
        "queries": queries, "repeats": repeats,
        "workers": default_worker_count(),
        "picks": picks, "output_sizes": sizes,
        "pooled": pooled, "segments": len(segments),
        "auto_over_osdc": ratio, "auto_over_osdc_iqr": quartiles,
    }


def pool(sizes: dict) -> dict:
    """Serial vs cold vs warm worker pool, a warm query batch vs cold
    calls, and ``auto`` vs ``osdc`` at the parallel threshold; the
    batch and ``auto`` ratios are medians of alternating pairs."""
    return {"parallel": _parallel(sizes["parallel_rows"]),
            "batch": _batch(sizes["batch_rows"], sizes["batch_queries"],
                            sizes["batch_repeats"]),
            "auto": _auto(sizes["auto_queries"], sizes["auto_repeats"])}


# -- shards ------------------------------------------------------------------

def _tracked(ranks, graph, shards: int):
    from ..core.sharding import ShardedRelation

    relation = ShardedRelation.from_array(ranks, names=list(graph.names),
                                          shards=shards)
    relation.track(graph)
    return relation


def _sharded(rows: int, workers: int) -> tuple[dict, list[dict]]:
    """On one warm pool: a monolithic scatter/gather over the flat
    matrix (the oracle), a sharded one over the per-shard
    registrations, and the maintained serve, which tree-merges the
    tracked per-shard skylines -- a few hundred rows instead of all
    ``rows``.  The serve's speedup is the median of
    :data:`SERVE_REPEATS` alternating pairs: one serve takes about ten
    milliseconds, so a single pair swings with the host's load.  Then
    the same serve over :data:`SWEEP_SHARDS` shards."""
    from ..engine.pool import WorkerPool

    ranks, graph = pinned_case(rows, DIMS, CORRELATED)

    def serve(relation, pool) -> dict:
        """Serve once (off the clock) and check the answer."""
        stats = Stats()
        served = relation.p_skyline(graph, pool=pool, stats=stats)
        if not np.array_equal(relation.skyline_gids(graph), expected) \
                or len(served) != expected.size:
            raise AssertionError(
                f"the {relation.num_shards}-shard serve disagrees with "
                "the monolithic pool run")
        return stats.extra["shards"]

    relation = _tracked(ranks, graph, SHARDS)
    with WorkerPool(workers) as pool:
        # the first query registers the matrix
        expected = pool.run_query(ranks, graph, chunks=workers)
        with relation.snapshot() as snapshot:
            pool.run_sharded(snapshot.pins, graph)
            scatter_seconds, virtual = timed(
                lambda: pool.run_sharded(snapshot.pins, graph))
            if not np.array_equal(np.sort(snapshot.gids_at(virtual)),
                                  expected):
                raise AssertionError("sharded scatter/gather disagrees "
                                     "with the monolithic pool run")
        info = serve(relation, pool)
        speedup, _, monolithic_seconds, serve_seconds = alternating(
            lambda _: pool.run_query(ranks, graph, chunks=workers),
            lambda _: relation.p_skyline(graph, pool=pool), SERVE_REPEATS)
        sweep = []
        for shards in SWEEP_SHARDS:
            swept = _tracked(ranks, graph, shards)
            skylines = serve(swept, pool)["skylines"]
            sweep.append({"name": f"serve-s{shards}", "shards": shards,
                          "output_size": int(expected.size),
                          "shard_skylines": [int(s) for s in skylines],
                          "serve_seconds": timed(lambda: swept.p_skyline(
                              graph, pool=pool))[0]})
    return {
        "name": f"sharded-n{rows}-d{DIMS}-s{SHARDS}-w{workers}",
        "rows": rows, "d": DIMS, "alpha": CORRELATED,
        "shards": SHARDS, "workers": workers,
        "partition": info["partition"],
        "version": int(relation.version),
        "output_size": int(expected.size),
        "shard_skylines": [int(s) for s in info["skylines"]],
        "shard_rows": [int(r) for r in info["rows"]],
        "monolithic_seconds": monolithic_seconds,
        "scatter_seconds": scatter_seconds,
        "serve_seconds": serve_seconds,
        "speedup_serve_over_monolithic": speedup,
        "speedup_scatter_over_monolithic":
            monolithic_seconds / scatter_seconds,
    }, sweep


def _writes(rows: int, workers: int) -> dict:
    """A scatter read after :data:`READ_WRITES` inserts and as many
    deletes, on the warm pool of a first read that registered every
    shard's base: below the re-base share the second read registers
    no new shared-memory segment and ships only the shards' deltas.
    Serial OSDC over the live rows is the oracle."""
    from ..algorithms.osdc import osdc
    from ..core.sharding import ShardedRelation
    from ..engine.pool import WorkerPool

    ranks, graph = pinned_case(rows + READ_WRITES, DIMS, CORRELATED)
    relation = ShardedRelation.from_array(ranks[:rows],
                                          names=list(graph.names),
                                          shards=SHARDS)
    deleted = np.random.default_rng(SEED).choice(rows, size=READ_WRITES,
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
    live = np.setdiff1d(np.arange(rows + READ_WRITES), deleted)
    expected = np.sort(live[osdc(ranks[live], graph)])
    if not np.array_equal(gids, expected):
        raise AssertionError(
            "the scatter read after writes disagrees with serial OSDC")
    return {
        "name": f"writes-n{rows}-w{READ_WRITES}-d{DIMS}-s{SHARDS}",
        "rows": rows, "writes": READ_WRITES, "d": DIMS, "shards": SHARDS,
        "workers": workers, "output_size": int(expected.size),
        "touched_shards": int(touched), "new_segments": new_segments,
        "read_seconds": read_seconds,
    }


def _insert(base_rows: int, inserts: int) -> dict:
    """Per-row inserts into a sharded maintainer over a flat one, both
    bulk-loaded with the same base; routing a write touches one shard,
    so the sharded maintainer stays within a small constant factor.
    Ids are append order in both, so the skylines must match."""
    from ..algorithms.incremental import PSkylineMaintainer
    from ..core.sharding import ShardedPSkylineMaintainer

    ranks, graph = pinned_case(base_rows + inserts, DIMS, CORRELATED)
    base, stream = ranks[:base_rows], ranks[base_rows:]
    capacity = base_rows + inserts

    def inserting(maintainer) -> float:
        maintainer.bulk_load(base)
        return timed(lambda: [maintainer.insert(row) for row in stream])[0]

    single_seconds = sharded_seconds = float("inf")
    for _ in range(INSERT_REPEATS):
        single = PSkylineMaintainer(graph, capacity=capacity)
        single_seconds = min(single_seconds, inserting(single))
        sharded = ShardedPSkylineMaintainer(graph, SHARDS, capacity=capacity)
        sharded_seconds = min(sharded_seconds, inserting(sharded))
    if not np.array_equal(single.skyline_ids(), sharded.skyline_ids()):
        raise AssertionError(
            "sharded maintainer disagrees with the flat maintainer")
    return {
        "name": f"insert-b{base_rows}-i{inserts}-d{DIMS}-s{SHARDS}",
        "base_rows": base_rows, "inserts": inserts, "d": DIMS,
        "alpha": CORRELATED, "shards": SHARDS,
        "output_size": int(single.skyline_ids().size),
        "shard_skylines": [int(s) for s in sharded.shard_skyline_sizes()],
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "insert_overhead": sharded_seconds / single_seconds,
    }


def shards(sizes: dict) -> dict:
    """The maintained per-shard serve vs monolithic scatter/gather, the
    serve over 2, 4 and 8 shards, a scatter read after writes, and
    sharded vs flat insert cost."""
    from ..engine.pool import default_worker_count

    workers = default_worker_count()
    sharded, sweep = _sharded(sizes["sharded_rows"], workers)
    return {"sharded": sharded, "sweep": sweep,
            "writes": _writes(sizes["sharded_rows"], workers),
            "insert": _insert(sizes["insert_base_rows"],
                              sizes["insert_stream"])}


# -- server ------------------------------------------------------------------

def server(sizes: dict) -> dict:
    """An in-process server over the pinned relation, replaying the
    correlated statement workload from concurrent clients: the
    cache-disabled floor, warm-cache serving, a sequential cold pass
    whose hit/miss counters are exact after a cache clear, and a
    forced-shed pass whose answers must all come back ``partial``."""
    from ..core.relation import Relation
    from ..engine.pool import default_worker_count
    from ..server.loadgen import correlated_statements, run_load
    from ..server.service import SkylineServer, serve_in_thread

    rows, repeat = sizes["rows"], sizes["repeat"]
    clients = default_worker_count()
    relation = Relation.from_array(
        pinned_case(rows, SERVER_DIMS, CORRELATED)[0])
    workload = correlated_statements(relation.names, STATEMENTS,
                                     table="data", seed=SEED)
    service = SkylineServer(port=0, cache=256, max_inflight=clients)
    service.register("data", relation)
    with serve_in_thread(service) as handle:
        uncached = run_load(handle.address, workload, clients=clients,
                            repeat=repeat, no_cache=True)
        service.cache.clear()
        before = service.cache.stats()
        cold = run_load(handle.address, workload, clients=1, repeat=1)
        after = service.cache.stats()
        warm = run_load(handle.address, workload, clients=clients,
                        repeat=repeat)
        hit_ratio = service.cache.stats()["hit_ratio"]
        service.force_shed = True
        shed = run_load(handle.address, workload, clients=1, repeat=1)
    return {"server": {
        "name": f"server-correlated-{STATEMENTS}q",
        "rows": rows, "dims": SERVER_DIMS, "clients": clients,
        "statements": STATEMENTS,
        "distinct_statements": len(set(workload)), "repeat": repeat,
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
        "hit_ratio": hit_ratio,
        "cold_misses": after["misses"] - before["misses"],
        "cold_hits": after["hits"] - before["hits"],
        "cold_queries": cold.queries,
        "shed_partial": shed.shed,
        "shed_queries": shed.queries,
        "errors": uncached.errors + cold.errors + warm.errors + shed.errors,
    }}


# -- fusion ------------------------------------------------------------------

def _replay_corpus() -> dict:
    """Every :data:`CORPUS` entry replayed through the ``fused-batch``
    metamorphic axis (evaluated inside a fused batch next to
    containment-related companions, the result must not change)."""
    from ..algorithms.base import REGISTRY
    from ..verify.corpus import iter_corpus
    from ..verify.fuzzer import case_rng
    from ..verify.metamorphic import TRANSFORMS, run_transform

    cases, mismatches = 0, []
    for path, entry in iter_corpus(CORPUS):
        function = REGISTRY.get(entry["algorithm"])
        if function is None:
            continue
        rng = case_rng(entry.get("seed") or 0, entry.get("case_index") or 0)
        found = run_transform(TRANSFORMS["fused-batch"], entry["ranks"],
                              entry["graph"], function, rng,
                              algorithm=entry["algorithm"])
        cases += 1
        mismatches.extend(f"{path}: {mismatch}" for mismatch in found)
    return {"cases": cases, "mismatches": mismatches}


def fusion(sizes: dict) -> dict:
    """Fused vs sequential ``execute_batch`` over correlated statements
    (``PREFERRING`` only, so every one is fusable; a fifth ask the
    unrefined Pareto of their intent, the contained base of the
    shared-mask path).  The sequential answers are the oracle, and the
    ``fusion`` counters land in the record exactly.  Plus the corpus
    replay."""
    from ..core.relation import Relation
    from ..server.loadgen import correlated_statements
    from ..sql import PreferenceSQL

    rows = sizes["rows"]
    relation = Relation.from_array(pinned_case(rows, DIMS, CORRELATED)[0])
    statements = correlated_statements(
        relation.names, STATEMENTS, table="data", seed=SEED,
        intents=INTENTS, where_fraction=0.0, top_fraction=0.0,
        pareto_fraction=0.2)
    engine = PreferenceSQL()
    engine.register("data", relation)
    # absorb one-off costs (parse cache, numpy warm-up) before timing
    engine.execute_batch(statements[:4], algorithm="osdc", fuse=False)
    unfused_seconds, unfused = timed(lambda: engine.execute_batch(
        statements, algorithm="osdc", fuse=False))
    stats = Stats()
    fused_seconds, fused = timed(lambda: engine.execute_batch(
        statements, algorithm="osdc", stats=stats))
    for index, (got, want) in enumerate(zip(fused, unfused)):
        if not np.array_equal(got.ranks, want.ranks):
            raise AssertionError(f"fused statement {index} disagrees with "
                                 "the sequential answer")
    counters = stats.extra["fusion"]
    return {"batch": {
        "name": f"fused-q{STATEMENTS}-n{rows}-d{DIMS}",
        "rows": rows, "d": DIMS, "alpha": CORRELATED,
        "intents": INTENTS, "algorithm": "osdc",
        **{key: int(counters[key])
           for key in ("queries", "distinct", "groups", "dedup_hits",
                       "base_evaluations", "screened", "fallbacks",
                       "mask_hits", "mask_misses")},
        "kernel": counters["kernel"],
        "output_sizes": [len(result) for result in fused],
        "unfused_seconds": unfused_seconds,
        "fused_seconds": fused_seconds,
        "speedup_fused_over_unfused": unfused_seconds / fused_seconds,
    }, "corpus": _replay_corpus()}
