"""Macro-benchmark of sharded relations.

Four comparisons:

* serving a tracked p-expression from a sharded relation (merging the
  per-shard maintained skylines) vs a monolithic warm-pool
  scatter/gather vs serial OSDC, on one pinned equicorrelated workload
  (:func:`repro.bench.pool_bench.pinned_parallel_case`);
* the serve path as a function of the shard count;
* per-row inserts into a sharded maintainer vs a flat one;
* tracked serves over the ``QUICK`` gaussian workload pool
  (``bench/workloads.py``), covering real sampled p-expressions rather
  than a single pinned one.

The structural claims are asserted directly (the serve path answers
from the maintained per-shard skylines and matches OSDC exactly), so
the acceptance criterion is checked by the benchmark itself, not only
eyeballed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.incremental import PSkylineMaintainer
from repro.algorithms.osdc import osdc
from repro.bench.pool_bench import pinned_parallel_case
from repro.bench.shard_bench import build_tracked_relation
from repro.core.sharding import ShardedPSkylineMaintainer
from repro.engine.pool import WorkerPool

N = 100_000
D = 6
SHARDS = 4
WORKERS = 4
INSERTS = 1_000


@pytest.fixture(scope="module")
def workload():
    return pinned_parallel_case(N, D)


@pytest.fixture(scope="module")
def tracked_relation(workload):
    ranks, graph = workload
    return build_tracked_relation(ranks, graph, SHARDS)


@pytest.fixture(scope="module")
def warm_pool(workload):
    ranks, graph = workload
    with WorkerPool(WORKERS) as pool:
        pool.run_query(ranks, graph, chunks=WORKERS)  # register + warm
        yield pool


def test_serial_osdc(benchmark, workload):
    ranks, graph = workload
    benchmark.group = f"sharded n={N} d={D}"
    result = benchmark.pedantic(lambda: osdc(ranks, graph),
                                rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["output"] = int(np.asarray(result).size)


def test_monolithic_scatter_gather(benchmark, workload, warm_pool):
    ranks, graph = workload
    benchmark.group = f"sharded n={N} d={D}"
    benchmark.pedantic(
        lambda: warm_pool.run_query(ranks, graph, chunks=WORKERS),
        rounds=3, iterations=1, warmup_rounds=1)


def test_tracked_serve(benchmark, workload, tracked_relation, warm_pool):
    """The maintained serve path: merge per-shard skylines, no scan."""
    ranks, graph = workload
    benchmark.group = f"sharded n={N} d={D}"
    result = benchmark.pedantic(
        lambda: tracked_relation.p_skyline(graph, pool=warm_pool),
        rounds=3, iterations=1, warmup_rounds=1)
    expected = osdc(ranks, graph)
    assert np.array_equal(tracked_relation.skyline_gids(graph), expected)
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_serve_shard_scaling(benchmark, workload, shards):
    ranks, graph = workload
    benchmark.group = f"serve scaling n={N} d={D}"
    relation = build_tracked_relation(ranks, graph, shards)
    with WorkerPool(WORKERS) as pool:
        relation.p_skyline(graph, pool=pool)  # register + warm
        benchmark.pedantic(
            lambda: relation.p_skyline(graph, pool=pool),
            rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("maintainer_kind", ["flat", "sharded"])
def test_insert_throughput(benchmark, workload, maintainer_kind):
    ranks, graph = workload
    base, stream = ranks[: N // 10], ranks[N // 10: N // 10 + INSERTS]
    benchmark.group = f"inserts base={N // 10} d={D}"

    def build():
        if maintainer_kind == "flat":
            maintainer = PSkylineMaintainer(graph,
                                            capacity=len(base) + INSERTS)
        else:
            maintainer = ShardedPSkylineMaintainer(
                graph, SHARDS, capacity=len(base) + INSERTS)
        maintainer.bulk_load(base)
        return (maintainer,), {}

    def run(maintainer):
        for row in stream:
            maintainer.insert(row)
        return maintainer.skyline_ids().size

    result = benchmark.pedantic(run, setup=build, rounds=3, iterations=1)
    benchmark.extra_info["skyline"] = int(result)


def test_workload_pool_serves(benchmark, gaussian_pool):
    """Tracked serves across the QUICK workload's sampled expressions."""
    benchmark.group = "sharded workload pool"
    tasks = gaussian_pool[: 6]
    relations = [
        (build_tracked_relation(ranks, graph, SHARDS), ranks, graph)
        for ranks, graph, _ in tasks]

    def serve_all() -> int:
        total = 0
        for relation, _ranks, graph in relations:
            total += relation.skyline_gids(graph).size
        return total

    total = benchmark.pedantic(serve_all, rounds=3, iterations=1,
                               warmup_rounds=1)
    for relation, ranks, graph in relations:
        assert np.array_equal(relation.skyline_gids(graph),
                              osdc(ranks, graph))
    benchmark.extra_info["total_output"] = int(total)
    benchmark.extra_info["num_tasks"] = len(relations)
