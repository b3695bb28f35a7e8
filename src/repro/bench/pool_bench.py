"""Measurement core for the persistent worker pool.

Two measurements behind the ``pool`` tier of the perf gate
(:mod:`repro.bench.perf_gate`, baseline ``BENCH_5.json``); the pinned
workloads are shared with ``benchmarks/bench_parallel_pool.py``:

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
  amortises away.

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
           "measure_parallel", "measure_batch"]

#: Correlation parameter of the pinned workload: ``alpha < 1`` means
#: positively correlated attributes, hence a small (output-sensitive
#: friendly) p-skyline.
DEFAULT_ALPHA = 0.2


def pinned_parallel_case(rows: int, dims: int, alpha: float = DEFAULT_ALPHA,
                         seed: int = 2015):
    """The deterministic ``(ranks, graph)`` workload for the pool gate."""
    from ..data.gaussian import equicorrelated_gaussian
    from ..sampling.random_pexpr import PExpressionSampler

    nrng = np.random.default_rng(seed + dims)
    ranks = np.ascontiguousarray(
        equicorrelated_gaussian(rows, dims, alpha, nrng))
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
                  seed: int = 2015) -> dict:
    """One warm batch vs ``queries`` cold parallel calls."""
    from ..algorithms.parallel import parallel_osdc
    from ..core.pgraph import PGraph
    from ..core.relation import Relation
    from ..engine.pool import WorkerPool

    ranks, _graph = pinned_parallel_case(rows, dims, alpha, seed)
    relation = Relation.from_array(ranks)
    expressions = pinned_batch_expressions(dims, queries, seed)
    graphs = [PGraph.from_expression(e, names=relation.names)
              for e in expressions]

    # cold: each query forks its own pool and registers its own copy
    start = time.perf_counter()
    cold_results = [parallel_osdc(ranks, graph, processes=workers,
                                  min_chunk=1, fresh_pool=True)
                    for graph in graphs]
    cold_seconds = time.perf_counter() - start

    # warm: one pool, one registration, k descriptor-only dispatches
    with WorkerPool(workers) as pool:
        pool.map_queries(ranks, [(g, None) for g in graphs[:1]],
                         chunks=workers)  # absorb the one-off costs
        start = time.perf_counter()
        warm_results = pool.map_queries(ranks,
                                        [(g, None) for g in graphs],
                                        chunks=workers)
        warm_seconds = time.perf_counter() - start

    for index, (cold, warm) in enumerate(zip(cold_results, warm_results)):
        if not np.array_equal(cold, warm):
            raise AssertionError(
                f"batch query {index} disagrees between cold and warm")

    return {
        "name": f"batch-q{queries}-n{rows}-d{dims}-w{workers}",
        "rows": int(rows),
        "d": int(dims),
        "alpha": float(alpha),
        "workers": int(workers),
        "queries": int(queries),
        "output_sizes": [int(np.asarray(r).size) for r in warm_results],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_batch_over_cold": cold_seconds / warm_seconds,
    }

