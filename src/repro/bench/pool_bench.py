"""Measurement core for the persistent worker pool.

Three measurements behind the ``pool`` tier of the perf gate
(:mod:`repro.bench.perf_gate`, baseline ``BENCH_5.json``):

* :func:`measure_parallel` -- one pinned low-output workload (the
  paper's equicorrelated Gaussian generator, Section 7.2) evaluated
  serially, on a **cold** pool (workers forked, used once, torn down --
  the pre-pool behaviour of ``parallel-osdc``) and on a **warm** pool
  (workers and the shared-memory registration reused).  The serial
  result is the correctness oracle for both pooled runs.
* :func:`measure_batch` -- ``k`` pinned p-expressions over one data
  set, answered as one warm :meth:`~repro.engine.pool.WorkerPool
  .map_queries` batch versus ``k`` independent cold parallel calls;
  the ratio is the start-up/registration cost the batch service
  amortises away.  Cold and warm repeats interleave, and the speedup
  is their median pair ratio, so a burst of load on the host moves
  both sides of a pair alike.
* :func:`measure_auto` -- the default path end to end:
  ``p_skyline(relation, ..., algorithm="auto")`` over distinct column
  subsets of one relation at the planner's parallel threshold, against
  serial ``osdc``, with the shared-memory segments those queries leave
  registered (one: the relation's base matrix).

All workloads are pinned by seed, so output sizes and per-chunk
skyline sizes are exactly reproducible and the perf gate can compare
them against a committed baseline byte for byte.
"""

from __future__ import annotations

import random
import time

import numpy as np

from ..algorithms.base import Stats
from ..engine import ExecutionContext

__all__ = ["pinned_parallel_case", "pinned_batch_expressions",
           "pinned_auto_expressions", "measure_parallel", "measure_batch",
           "measure_auto"]

#: Correlation parameter of the pinned workload: ``alpha < 1`` means
#: positively correlated attributes, hence a small (output-sensitive
#: friendly) p-skyline.
DEFAULT_ALPHA = 0.2


def pinned_parallel_case(rows: int, dims: int, alpha: float = DEFAULT_ALPHA,
                         seed: int = 2015):
    """The deterministic ``(ranks, graph)`` workload for the pool gate.

    ``ranks`` is read-only, so repeated pooled queries share one
    registration as a relation's do (the pool registers a writeable
    matrix as a fresh copy per query)."""
    from ..data.gaussian import equicorrelated_gaussian
    from ..sampling.random_pexpr import PExpressionSampler

    nrng = np.random.default_rng(seed + dims)
    ranks = np.array(equicorrelated_gaussian(rows, dims, alpha, nrng),
                     order="C")
    ranks.setflags(write=False)
    rng = random.Random(f"pool-bench:{seed}:{dims}")
    graph = PExpressionSampler(
        [f"A{i}" for i in range(dims)],
        method="counting").sample_graph(rng)
    return ranks, graph


def pinned_batch_expressions(dims: int, count: int,
                             seed: int = 2015) -> list:
    """``count`` pinned p-expressions over ``A0..A{dims-1}``."""
    from ..sampling.random_pexpr import PExpressionSampler

    rng = random.Random(f"pool-batch:{seed}:{dims}:{count}")
    sampler = PExpressionSampler([f"A{i}" for i in range(dims)],
                                 method="counting")
    return [sampler.sample_expression(rng) for _ in range(count)]


def _timed_serial(ranks, graph):
    from ..algorithms import get_algorithm

    osdc = get_algorithm("osdc")
    stats = Stats()
    context = ExecutionContext(stats=stats)
    start = time.perf_counter()
    result = osdc(ranks, graph, context=context)
    return time.perf_counter() - start, np.asarray(result), stats


def measure_parallel(rows: int, dims: int, *, workers: int = 4,
                     alpha: float = DEFAULT_ALPHA,
                     seed: int = 2015) -> dict:
    """Serial vs cold-pool vs warm-pool on one pinned workload."""
    from ..algorithms.parallel import parallel_osdc
    from ..engine.pool import WorkerPool

    ranks, graph = pinned_parallel_case(rows, dims, alpha, seed)
    # serial oracle (run twice, keep the second -- caches warm)
    _timed_serial(ranks, graph)
    serial_seconds, expected, serial_stats = _timed_serial(ranks, graph)

    # cold: fork a dedicated pool, run once, tear it down (the pre-pool
    # behaviour of parallel-osdc, reproduced via fresh_pool=True)
    start = time.perf_counter()
    cold = parallel_osdc(ranks, graph, processes=workers, min_chunk=1,
                         fresh_pool=True)
    cold_seconds = time.perf_counter() - start
    if not np.array_equal(cold, expected):
        raise AssertionError("cold pooled run disagrees with serial OSDC")

    with WorkerPool(workers) as pool:
        # first warm-pool query pays the one-off shared-memory
        # registration; the second is the steady state of a service
        start = time.perf_counter()
        pool.run_query(ranks, graph, chunks=workers)
        first_seconds = time.perf_counter() - start
        stats = Stats()
        context = ExecutionContext(stats=stats)
        start = time.perf_counter()
        warm = pool.run_query(ranks, graph, chunks=workers,
                              context=context)
        warm_seconds = time.perf_counter() - start
    if not np.array_equal(warm, expected):
        raise AssertionError("warm pooled run disagrees with serial OSDC")

    return {
        "name": f"parallel-n{rows}-d{dims}-w{workers}",
        "rows": int(rows),
        "d": int(dims),
        "alpha": float(alpha),
        "workers": int(workers),
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


def measure_batch(rows: int, dims: int, *, queries: int = 16,
                  workers: int = 4, alpha: float = DEFAULT_ALPHA,
                  seed: int = 2015, repeats: int = 3) -> dict:
    """One warm batch vs ``queries`` cold parallel calls, ``repeats``
    interleaved pairs; the speedup is the median pair ratio and the
    reported seconds are per-side medians."""
    from ..algorithms.parallel import parallel_osdc
    from ..core.pgraph import PGraph
    from ..core.relation import Relation
    from ..engine.pool import WorkerPool

    ranks, _graph = pinned_parallel_case(rows, dims, alpha, seed)
    relation = Relation.from_array(ranks)
    expressions = pinned_batch_expressions(dims, queries, seed)
    graphs = [PGraph.from_expression(e, names=relation.names)
              for e in expressions]
    batch = [(g, None) for g in graphs]

    def cold():
        # each query forks its own pool and registers its own copy
        return [parallel_osdc(ranks, graph, processes=workers,
                              min_chunk=1, fresh_pool=True)
                for graph in graphs]

    times = {"cold": [], "warm": []}
    results = {}
    # warm: one pool, one registration, k descriptor-only dispatches
    with WorkerPool(workers) as pool:
        pool.map_queries(ranks, batch[:1],
                         chunks=workers)  # absorb the one-off costs

        def warm():
            return pool.map_queries(ranks, batch, chunks=workers)

        for repeat in range(repeats):
            pair = [("cold", cold), ("warm", warm)]
            if repeat % 2:  # alternate which side runs first
                pair.reverse()
            for side, run in pair:
                start = time.perf_counter()
                results[side] = run()
                times[side].append(time.perf_counter() - start)

    for index, (cold_result, warm_result) in enumerate(
            zip(results["cold"], results["warm"])):
        if not np.array_equal(cold_result, warm_result):
            raise AssertionError(
                f"batch query {index} disagrees between cold and warm")

    return {
        "name": f"batch-q{queries}-n{rows}-d{dims}-w{workers}",
        "rows": int(rows),
        "d": int(dims),
        "alpha": float(alpha),
        "workers": int(workers),
        "queries": int(queries),
        "repeats": int(repeats),
        "output_sizes": [int(np.asarray(r).size)
                         for r in results["warm"]],
        "cold_seconds": float(np.median(times["cold"])),
        "warm_seconds": float(np.median(times["warm"])),
        "speedup_batch_over_cold": float(np.median(
            np.asarray(times["cold"]) / np.asarray(times["warm"]))),
    }


def pinned_auto_expressions(dims: int, count: int, width: int,
                            seed: int = 2015) -> list:
    """``count`` pinned p-expressions, each over its own ``width``-column
    subset of ``A0..A{dims-1}`` (subsets rotate through the columns) and
    none a weak order -- so the planner sends every one of them to
    ``parallel-osdc`` at the parallel threshold, not to ``layered``."""
    from ..core.pgraph import PGraph
    from ..sampling.random_pexpr import PExpressionSampler

    rng = random.Random(f"pool-auto:{seed}:{dims}:{count}:{width}")
    expressions = []
    for index in range(count):
        names = [f"A{(index + j) % dims}" for j in range(width)]
        sampler = PExpressionSampler(names, method="counting")
        while True:
            expression = sampler.sample_expression(rng)
            if not PGraph.from_expression(expression,
                                          names=names).is_weak_order():
                break
        expressions.append(expression)
    return expressions


def measure_auto(rows: int, dims: int, *, queries: int = 4,
                 width: int = 6, repeats: int = 5,
                 alpha: float = DEFAULT_ALPHA, seed: int = 2015) -> dict:
    """``p_skyline(algorithm="auto")`` against serial ``osdc`` over
    ``queries`` distinct column subsets of one relation.

    Every query runs ``repeats`` times, auto and ``osdc`` back to back
    in alternating order; ``auto_over_osdc`` is the median of those
    ``queries * repeats`` per-pair ratios and ``auto_over_osdc_iqr``
    their quartiles, so a burst of load on the host shows as spread
    rather than as a shifted median.  The queries run on a fresh
    default pool; ``pooled`` counts those that reached it (none where
    ``parallel-osdc`` falls back to serial) and ``segments`` the
    distinct shared-memory segments it held after each query -- one
    when every query shares the relation's registration, one per query
    when each registers a copy of its own columns.
    """
    from ..core.query import p_skyline
    from ..core.relation import Relation
    from ..engine.pool import (default_worker_count, get_default_pool,
                               shutdown_default_pool)

    ranks, _graph = pinned_parallel_case(rows, dims, alpha, seed)
    relation = Relation.from_array(ranks)
    expressions = pinned_auto_expressions(dims, queries, width, seed)
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
        ratios = []
        for repeat in range(repeats):
            for index, expression in enumerate(expressions):
                order = ("auto", "osdc") if (repeat + index) % 2 == 0 \
                    else ("osdc", "auto")
                seconds = {}
                for algorithm in order:
                    start = time.perf_counter()
                    p_skyline(relation, expression, algorithm=algorithm)
                    seconds[algorithm] = time.perf_counter() - start
                ratios.append(seconds["auto"] / seconds["osdc"])
    finally:
        shutdown_default_pool()
    return {
        "name": f"auto-q{queries}-n{rows}-d{dims}-k{width}",
        "rows": int(rows),
        "d": int(dims),
        "width": int(width),
        "queries": int(queries),
        "repeats": int(repeats),
        "workers": default_worker_count(),
        "picks": picks,
        "output_sizes": sizes,
        "pooled": pooled,
        "segments": len(segments),
        "auto_over_osdc": float(np.median(ratios)),
        "auto_over_osdc_iqr": [float(q)
                               for q in np.percentile(ratios, [25, 75])],
    }
