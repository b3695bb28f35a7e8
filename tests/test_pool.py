"""Tests for the persistent shared-memory worker pool (engine.pool)."""

import glob
import os
import threading
import time

import numpy as np
import pytest

from conftest import pool_segments, random_expression
from repro import Relation, p_skyline, p_skyline_batch
from repro.algorithms import naive, osdc
from repro.algorithms.parallel import parallel_osdc
from repro.algorithms.base import Stats
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.engine import (CancellationToken, ExecutionContext,
                          QueryCancelled, QueryTimeout, WorkerPool,
                          get_default_pool, shutdown_default_pool)
# segment enumeration lives in conftest so the sharding tests share it
_our_segments = pool_segments


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as pool:
        yield pool


class TestEquivalenceProperty:
    """Pool result == serial OSDC, across kernels x chunk counts x
    interruption modes (the satellite equivalence property)."""

    @pytest.mark.parametrize("kernel", ["bitmask", "gemm"])
    @pytest.mark.parametrize("chunks", [1, 2, 4])
    @pytest.mark.parametrize("with_deadline", [False, True])
    def test_matches_serial_osdc(self, pool, kernel, chunks,
                                 with_deadline, rng):
        rng.seed(1000 * chunks + (kernel == "gemm"))
        nrng = np.random.default_rng(17 + chunks)
        d = rng.randint(2, 5)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        ranks = nrng.integers(0, 12, size=(1500, d)).astype(float)
        expected = osdc(ranks, graph, kernel=kernel).tolist()
        stats = Stats()
        if with_deadline:
            context = ExecutionContext.create(stats=stats, timeout=120.0)
        else:
            context = ExecutionContext(stats=stats)
        got = pool.run_query(ranks, graph, chunks=chunks,
                             options={"kernel": kernel}, context=context)
        assert got.tolist() == expected
        assert stats.extra["pool"]["chunks"] == chunks
        assert stats.extra["kernel"] == kernel

    @pytest.mark.parametrize("seed", range(3))
    def test_parallel_osdc_matches_naive(self, seed, rng, nrng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(1, 5)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        ranks = nrng.integers(0, 10, size=(2500, d)).astype(float)
        expected = set(naive(ranks, graph).tolist())
        got = parallel_osdc(ranks, graph, processes=4, min_chunk=64)
        assert set(got.tolist()) == expected


class TestWorkerStatsAggregation:
    def test_chunk_skylines_kernel_and_per_worker_counts(self, pool, nrng):
        graph = PGraph.from_expression(parse("A & (B * C)"))
        ranks = nrng.integers(0, 40, size=(4000, 3)).astype(float)
        stats = Stats()
        context = ExecutionContext(stats=stats)
        result = pool.run_query(ranks, graph, chunks=4, context=context)
        assert len(stats.extra["chunk_skylines"]) == 4
        assert stats.extra["kernel"] is not None
        per_worker = stats.extra["pool"]["per_worker_dominance_tests"]
        assert sum(per_worker.values()) == stats.dominance_tests
        assert stats.dominance_tests > 0
        # the partition identity: chunk skylines bound the merge input
        assert result.size <= sum(stats.extra["chunk_skylines"])
        assert stats.extra["pool"]["merge_rounds"] == 2

    def test_no_double_counted_merge_pass(self, pool, nrng):
        """Parent-side bookkeeping must not inflate worker counters."""
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(2000, 2)).astype(float)
        stats = Stats()
        pool.run_query(ranks, graph, chunks=2,
                       context=ExecutionContext(stats=stats))
        # passes are exactly the workers' own counts (2 chunks + 1 merge
        # tasks, each contributing what its inner OSDC recorded)
        worker_total = sum(
            stats.extra["pool"]["per_worker_dominance_tests"].values())
        assert stats.dominance_tests == worker_total


class TestInterruption:
    def test_cancel_mid_query_from_the_pool(self, nrng):
        """A token cancelled mid-flight aborts the pooled query with
        QueryCancelled and leaks no shared-memory segments."""
        before = set(_our_segments())
        graph = PGraph.from_expression(
            parse("A0 * A1 * A2 * A3 * A4 * A5"),
            names=[f"A{i}" for i in range(6)])
        ranks = nrng.normal(size=(400_000, 6))  # anticorrelated-ish, slow
        token = CancellationToken()
        context = ExecutionContext(cancel=token)
        with WorkerPool(2) as pool:
            timer = threading.Timer(0.05, token.cancel)
            timer.start()
            started = time.monotonic()
            try:
                with pytest.raises(QueryCancelled):
                    pool.run_query(ranks, graph, chunks=4,
                                   context=context)
                    token.cancel()  # pathological fast finish: re-check
                    context.check("post")
            finally:
                timer.cancel()
            # the pool reacted promptly, not after finishing the query
            assert time.monotonic() - started < 30.0
        assert set(_our_segments()) <= before  # nothing leaked

    def test_expired_deadline_raises_query_timeout(self, pool, nrng):
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(3000, 2)).astype(float)
        context = ExecutionContext(deadline=time.monotonic() - 1.0)
        with pytest.raises(QueryTimeout):
            pool.run_query(ranks, graph, chunks=2, context=context)

    def test_pool_usable_after_interruption(self, pool, nrng):
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(3000, 2)).astype(float)
        with pytest.raises(QueryTimeout):
            pool.run_query(ranks, graph, chunks=2, context=ExecutionContext(
                deadline=time.monotonic() - 1.0))
        expected = set(naive(ranks, graph).tolist())
        got = pool.run_query(ranks, graph, chunks=2)
        assert set(got.tolist()) == expected


class TestSharedMemoryLifecycle:
    def test_no_orphans_after_exception_and_shutdown(self, nrng):
        before = set(_our_segments())
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(3000, 2)).astype(float)
        pool = WorkerPool(2)
        try:
            pool.run_query(ranks, graph, chunks=2)
            assert len(pool.live_segments()) == 1
            with pytest.raises(QueryTimeout):
                pool.run_query(ranks, graph, chunks=2,
                               context=ExecutionContext(
                                   deadline=time.monotonic() - 1.0))
        finally:
            pool.close()
        assert pool.live_segments() == ()
        assert set(_our_segments()) <= before

    def test_registration_is_cached_per_array_object(self, pool, nrng):
        graph = PGraph.from_expression(parse("A & B"))
        ranks = np.ascontiguousarray(
            nrng.integers(0, 30, size=(3000, 2)).astype(float))
        first = pool.register(ranks)
        second = pool.register(ranks)
        assert first is second
        assert len([name for name in pool.live_segments()
                    if name == first.name]) == 1

    def test_registration_context_manager_unlinks(self, nrng):
        from repro.engine import SharedRegistration
        array = np.ascontiguousarray(nrng.random((100, 2)))
        with SharedRegistration(array) as registration:
            name = registration.name
            assert glob.glob(f"/dev/shm/{name}") or \
                not os.path.isdir("/dev/shm")
        assert not glob.glob(f"/dev/shm/{name}")

    def test_registration_round_trips_any_layout(self, nrng):
        from repro.engine.pool import SharedRegistration, _attach
        for array in (np.empty((0, 3)), nrng.random((5, 4))[:, ::2]):
            with SharedRegistration(array) as registration:
                shm = _attach(registration.name)
                try:
                    copy = np.ndarray(array.shape, dtype=array.dtype,
                                      buffer=shm.buf).copy()
                finally:
                    shm.close()
                assert np.array_equal(copy, array)

    def test_closed_pool_rejects_queries(self, nrng):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_query(nrng.random((10, 2)),
                           PGraph.from_expression(parse("A & B")))


class TestBatchService:
    def test_map_queries_amortizes_one_registration(self, pool, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(3000, 4)).astype(float))
        queries = ["A0 & A1", "(A0 * A2) & A3", "A1 * A3"]
        results = pool.map_queries(relation, queries, min_chunk=64)
        assert len(pool.live_segments()) >= 1
        for text, indices in zip(queries, results):
            expected = p_skyline(relation, text, algorithm="naive")
            got = relation.take(indices)
            assert sorted(map(tuple, got.ranks.tolist())) == \
                sorted(map(tuple, expected.ranks.tolist()))

    def test_p_skyline_batch_matches_sequential(self, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(9000, 4)).astype(float))
        queries = ["A0 & A1", "A2 * A3"]
        stats = Stats()
        batch = p_skyline_batch(relation, queries, stats=stats,
                                min_chunk=1000)
        assert "chunk_skylines" in stats.extra  # ran on the pool
        for text, got in zip(queries, batch):
            expected = p_skyline(relation, text, algorithm="naive")
            assert sorted(map(tuple, got.ranks.tolist())) == \
                sorted(map(tuple, expected.ranks.tolist()))

    def test_p_skyline_batch_over_a_matrix_written_between_batches(
            self, nrng):
        # the registration cache keys on the array object: a writeable
        # matrix edited in place must not be answered from the shared
        # copy the previous batch registered
        matrix = nrng.integers(0, 25, size=(9000, 4)).astype(float)
        queries = ["A0 & A1", "A2 * A3"]
        for _ in range(2):
            stats = Stats()
            batch = p_skyline_batch(matrix, queries, stats=stats,
                                    min_chunk=1000)
            assert "chunk_skylines" in stats.extra  # ran on the pool
            for text, got in zip(queries, batch):
                assert np.array_equal(got, p_skyline(matrix, text,
                                                     algorithm="osdc"))
            matrix[batch[0][:1], :] += 100.0  # demote one skyline row

    def test_p_skyline_batch_small_inputs_fall_back(self, nrng):
        relation = Relation.from_array(nrng.random((50, 3)))
        batch = p_skyline_batch(relation, ["A0 & A1", "A1 * A2"])
        assert len(batch) == 2

    def test_sql_execute_batch(self, nrng):
        from repro.sql import PreferenceSQL
        engine = PreferenceSQL()
        engine.register("cars", Relation.from_array(
            nrng.integers(0, 20, size=(400, 3)).astype(float),
            names=["price", "mileage", "age"]))
        statements = [
            "SELECT * FROM cars PREFERRING lowest(price)",
            "SELECT * FROM cars PREFERRING lowest(mileage) & lowest(age)",
        ]
        stats = Stats()
        batch = engine.execute_batch(statements, stats=stats)
        assert len(batch) == 2
        singles = [engine.execute(statement) for statement in statements]
        for got, expected in zip(batch, singles):
            assert len(got) == len(expected)
        assert stats.dominance_tests > 0  # counters accumulate across


class TestPlannerParallelRule:
    # "(A & B) * C" is NOT a weak order, so the layered rule (which
    # precedes the parallel rule) cannot shadow what we are testing.

    def test_huge_inputs_plan_parallel(self, nrng):
        from repro.planner import Planner
        planner = Planner(parallel_threshold=10_000)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 50, size=(20_000, 3)).astype(float)
        plan = planner.plan(ranks, graph)
        assert plan.algorithm == "parallel-osdc"
        assert plan.options == {"processes": None}

    def test_threshold_disabled(self, nrng):
        from repro.planner import Planner
        planner = Planner(parallel_threshold=None)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 50, size=(20_000, 3)).astype(float)
        assert planner.plan(ranks, graph).algorithm != "parallel-osdc"

    def test_plan_executes_on_the_pool(self, nrng):
        from repro.planner import Planner
        planner = Planner(parallel_threshold=5_000)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 50, size=(10_000, 3)).astype(float)
        stats = Stats()
        result = planner.execute(ranks, graph, stats=stats)
        assert stats.extra["plan"]["algorithm"] == "parallel-osdc"
        assert set(result.tolist()) == set(naive(ranks, graph).tolist())


#: Non-weak-order preferences over four distinct column subsets of
#: A0..A5, so the planner's layered rule cannot shadow the parallel one.
SUBSET_QUERIES = ("(A0 & A1) * A2", "(A1 & A3) * A4 * A5",
                  "A0 * (A2 & A5) * A3", "A1 * (A2 & A3) * (A4 & A5)")


@pytest.fixture
def pooled_auto(monkeypatch):
    """``algorithm="auto"`` sends inputs of 8k+ rows to a fresh default
    pool in two chunks, whatever the host's core count; yields the
    names of the shared-memory segments registered meanwhile."""
    from repro.algorithms import parallel
    from repro.engine import pool as pool_module
    from repro.planner import DEFAULT_PLANNER

    created = []

    class Counted(pool_module.SharedRegistration):
        __slots__ = ()

        def __init__(self, array):
            super().__init__(array)
            created.append(self.name)

    monkeypatch.setattr(DEFAULT_PLANNER, "parallel_threshold", 8_192)
    monkeypatch.setattr(parallel, "auto_processes", lambda n, chunk: 2)
    monkeypatch.setattr(pool_module, "SharedRegistration", Counted)
    shutdown_default_pool()
    yield created
    shutdown_default_pool()


def _mapped(name: str) -> bool:
    """Whether this process maps the segment ``name``."""
    with open("/proc/self/maps") as maps:
        return name in maps.read()


class TestOneRegistrationPerRelation:
    """Pooled queries ship ``(matrix, columns)``: every auto query over
    a relation shares one registration of its full rank matrix."""

    def _run(self, data, take, created):
        for text in SUBSET_QUERIES:
            stats = Stats()
            got = p_skyline(data, text, algorithm="auto", stats=stats)
            assert stats.extra["plan"]["algorithm"] == "parallel-osdc"
            assert np.array_equal(
                take(got), take(p_skyline(data, text, algorithm="osdc")))
        assert len(created) == 1
        assert get_default_pool().live_segments() == tuple(created)

    def test_relation(self, pooled_auto, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 40, size=(9_000, 6)).astype(float))
        self._run(relation, lambda result: result.ranks, pooled_auto)

    def test_read_only_float64_matrix(self, pooled_auto, nrng):
        matrix = nrng.integers(0, 40, size=(9_000, 6)).astype(float)
        matrix.setflags(write=False)
        self._run(matrix, lambda result: result, pooled_auto)

    def test_writeable_matrix_written_between_queries(self, pooled_auto,
                                                      nrng):
        # the registration cache keys on the array object: a writeable
        # matrix must not be registered whole, or the second query
        # would read the stale shared copy
        matrix = nrng.integers(0, 40, size=(9_000, 6)).astype(float)
        text = SUBSET_QUERIES[0]
        for _ in range(2):
            got = p_skyline(matrix, text, algorithm="auto")
            assert np.array_equal(got, p_skyline(matrix, text,
                                                 algorithm="osdc"))
            matrix[got[:1], :] += 100.0  # demote one skyline row
        assert len(pooled_auto) == 2

    def test_writeable_matrix_in_a_batch(self, pooled_auto, nrng):
        matrix = nrng.integers(0, 40, size=(9_000, 6)).astype(float)
        for _ in range(2):
            batch = p_skyline_batch(matrix, SUBSET_QUERIES,
                                    algorithm="auto")
            for text, got in zip(SUBSET_QUERIES, batch):
                assert np.array_equal(got, p_skyline(matrix, text,
                                                     algorithm="osdc"))
            matrix[batch[0][:1], :] += 100.0

    def test_auto_batch(self, pooled_auto, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 40, size=(9_000, 6)).astype(float))
        stats = Stats()
        batch = p_skyline_batch(relation, SUBSET_QUERIES,
                                algorithm="auto", stats=stats)
        assert stats.extra["plan"]["algorithm"] == "parallel-osdc"
        for text, got in zip(SUBSET_QUERIES, batch):
            expected = p_skyline(relation, text, algorithm="osdc")
            assert np.array_equal(got.ranks, expected.ranks)
        assert len(pooled_auto) == 1
        assert get_default_pool().live_segments() == tuple(pooled_auto)

    def test_nan_only_in_used_columns_is_rejected(self, pooled_auto, nrng):
        matrix = nrng.integers(0, 40, size=(9_000, 6)).astype(float)
        matrix[17, 5] = np.nan
        matrix.setflags(write=False)  # shipped whole, with its columns
        text = "(A0 & A1) * A2"  # never reads A5
        stats = Stats()
        got = p_skyline(matrix, text, algorithm="auto", stats=stats)
        assert stats.extra["plan"]["algorithm"] == "parallel-osdc"
        assert np.array_equal(got, p_skyline(matrix, text,
                                             algorithm="osdc"))
        with pytest.raises(ValueError, match="NaN"):
            p_skyline(matrix, "(A4 & A5) * A0", algorithm="auto")

    def test_segments_unlinked_after_gc_and_on_close(self, pooled_auto,
                                                     nrng):
        import gc

        before = set(_our_segments())
        relation = Relation.from_array(
            nrng.integers(0, 40, size=(9_000, 6)).astype(float))
        p_skyline(relation, SUBSET_QUERIES[0], algorithm="auto")
        (name,) = get_default_pool().live_segments()
        assert f"/dev/shm/{name}" in _our_segments() or \
            not os.path.isdir("/dev/shm")
        if os.path.exists("/proc/self/maps"):
            assert not _mapped(name)  # the parent unmapped its copy
        del relation
        gc.collect()
        # the next registration prunes the collected relation's segment
        other = Relation.from_array(
            nrng.integers(0, 40, size=(9_000, 6)).astype(float))
        p_skyline(other, SUBSET_QUERIES[1], algorithm="auto")
        live = get_default_pool().live_segments()
        assert name not in live and len(live) == 1
        assert f"/dev/shm/{name}" not in _our_segments()
        shutdown_default_pool()
        assert set(_our_segments()) <= before


class TestCancellationTokenMirrors:
    def test_link_sets_already_cancelled(self):
        class FakeEvent:
            def __init__(self):
                self.was_set = False

            def set(self):
                self.was_set = True

        token = CancellationToken()
        token.cancel()
        event = FakeEvent()
        token.link(event)
        assert event.was_set

    def test_unlink_stops_mirroring(self):
        class FakeEvent:
            def __init__(self):
                self.was_set = False

            def set(self):
                self.was_set = True

        token = CancellationToken()
        event = FakeEvent()
        token.link(event)
        token.unlink(event)
        token.unlink(event)  # double-unlink is a no-op
        token.cancel()
        assert not event.was_set


class TestDefaultPool:
    def test_default_pool_resurrects_after_shutdown(self):
        pool = get_default_pool()
        assert not pool.closed
        shutdown_default_pool()
        assert pool.closed
        again = get_default_pool()
        assert again is not pool
        assert not again.closed
