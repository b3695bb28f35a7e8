"""Tests for the persistent shared-memory worker pool (engine.pool)."""

import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import pool_segments, random_expression
from repro import Relation, ShardedRelation, p_skyline, p_skyline_batch
from repro.algorithms import naive, osdc
from repro.algorithms.parallel import parallel_osdc
from repro.algorithms.base import Stats
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.engine import pool as pool_module
from repro.engine.pool import LiveRows, ShardPin
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


@pytest.fixture
def queued(monkeypatch):
    """The task specs every pool puts on its queue, one list per
    dispatch (chunk stage, then each pooled merge round)."""
    dispatched = []
    execute = WorkerPool._execute_tasks

    def spy(pool, query_id, specs, context, phase):
        dispatched.append(list(specs))
        return execute(pool, query_id, specs, context, phase)

    monkeypatch.setattr(WorkerPool, "_execute_tasks", spy)
    return dispatched


class TestWorkerStatsAggregation:
    def test_chunk_skylines_kernel_and_per_worker_counts(self, pool, nrng,
                                                         queued):
        graph = PGraph.from_expression(parse("A & (B * C)"))
        ranks = nrng.integers(0, 40, size=(4000, 3)).astype(float)
        stats = Stats()
        context = ExecutionContext(stats=stats)
        result = pool.run_query(ranks, graph, chunks=4, context=context)
        assert len(stats.extra["chunk_skylines"]) == 4
        assert stats.extra["kernel"] is not None
        per_worker = stats.extra["pool"]["per_worker_dominance_tests"]
        assert sum(per_worker.values()) == stats.dominance_tests
        assert per_worker["parent"] > 0
        assert stats.dominance_tests > 0
        # the partition identity: chunk skylines bound the merge input
        assert result.size <= sum(stats.extra["chunk_skylines"])
        # one pooled round of two merges, then the last pair in the
        # parent; only the pool's tasks count as tasks
        assert stats.extra["pool"]["merge_rounds"] == 2
        assert [len(specs) for specs in queued] == [4, 2]
        assert stats.extra["pool"]["tasks"] == 6

    def test_no_double_counted_merge_pass(self, pool, nrng, queued):
        """Parent-side bookkeeping must not inflate worker counters."""
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(2000, 2)).astype(float)
        stats = Stats()
        pool.run_query(ranks, graph, chunks=2,
                       context=ExecutionContext(stats=stats))
        # two chunk tasks on the queue and the merge in the parent:
        # the total is exactly what each inner OSDC recorded, once
        assert [len(specs) for specs in queued] == [2]
        per_worker = stats.extra["pool"]["per_worker_dominance_tests"]
        assert set(per_worker) - {"0", "1"} == {"parent"}
        assert stats.dominance_tests == sum(per_worker.values())
        assert stats.extra["pool"]["tasks"] == 2
        assert stats.extra["pool"]["merge_rounds"] == 1


@pytest.fixture(scope="module", params=[1, 2, 3],
                ids=lambda workers: f"{workers}w")
def sized_pool(request):
    with WorkerPool(request.param) as pool:
        yield pool


def _shard_pins(sizes, seed: int, dims: int = 6) -> tuple:
    """Pinned shards holding ``sizes`` live rows, and those rows
    concatenated.  Each shard has a dead slot mid-base, and a third of
    its rows sit in the rows appended after the base."""
    nrng = np.random.default_rng(seed)
    pins, live = [], []
    for size in sizes:
        slots = nrng.integers(0, 15, size=(size + 1, dims)).astype(float)
        cut = size + 1 - size // 3
        base = slots[:cut].copy()
        base.setflags(write=False)
        dead = np.array([cut // 2])
        pins.append(ShardPin(base, slots[cut:], dead))
        live.append(np.delete(slots, dead, axis=0))
    return pins, np.vstack(live)


class TestShardPinPieces:
    @pytest.mark.parametrize("seed", range(4))
    def test_pieces_skip_the_dead_slots(self, seed):
        """Live positions ``lo:hi`` read the live slots in order, the
        base's first, then the appended ones."""
        nrng = np.random.default_rng(seed)
        slots = nrng.random((60, 2))
        cut = int(nrng.integers(0, 61))
        dead = np.sort(nrng.choice(60, size=int(nrng.integers(0, 40)),
                                   replace=False))
        pin = ShardPin(slots[:cut], slots[cut:], dead)
        live = np.delete(slots, dead, axis=0)
        assert len(pin) == len(live)
        for lo in range(len(live)):
            for hi in range(lo + 1, len(live) + 1):
                low, high = pin.pieces(lo, hi)
                assert np.array_equal(np.concatenate([low, high]),
                                      live[lo:hi])
                assert high.shape[0] == np.sum(
                    np.delete(np.arange(60), dead)[lo:hi] >= cut)

    def test_a_run_of_live_slots_is_a_view(self):
        slots = np.arange(30.0).reshape(15, 2)
        pin = ShardPin(slots[:10], slots[10:], np.array([3]))
        for lo, hi, view in [(0, 3, True),    # slots 0:3
                             (3, 9, True),    # slots 4:10
                             (9, 14, True),   # slots 10:15, appended
                             (8, 11, True),   # slots 9:12, both sides
                             (2, 5, False)]:  # across dead slot 3
            assert all(np.shares_memory(piece, slots) == view
                       for piece in pin.pieces(lo, hi) if piece.size)
        live = LiveRows.of([pin])
        assert np.shares_memory(live[3:9], slots)
        assert not np.shares_memory(live[8:11], slots)


class TestShardedSlices:
    """``run_sharded`` cuts the virtual rows into one slice per worker,
    whatever the shard boundaries; a slice spanning shards is gathered
    across their segments and deltas, and the answer is ``osdc`` on
    the concatenation of the live rows."""

    @pytest.mark.parametrize("sizes", [
        [1, 700, 1, 298],       # 1-row shards at both ends of a slice
        [333, 1, 1, 665],       # uneven, with 1-row shards mid-slice
        [500, 500],             # 2 workers: the cut is the shard offset
        [250, 250, 250, 250],   # 2 workers: cut on the middle offset
        [1, 1, 1],              # one row per slice on 3 workers
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_osdc_on_the_concatenation(self, sized_pool, queued,
                                               sizes, seed, rng):
        rng.seed(100 * seed + len(sizes))
        pins, union = _shard_pins(sizes, seed)
        # a permuted column subset of the six stored columns
        columns = rng.sample(range(6), rng.randint(2, 5))
        names = [f"A{i}" for i in range(len(columns))]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        stats = Stats()
        got = sized_pool.run_sharded(pins, graph, columns=columns,
                                     context=ExecutionContext(stats=stats))
        expected = osdc(np.ascontiguousarray(union[:, columns]), graph)
        assert np.array_equal(got, np.sort(expected))
        n = union.shape[0]
        chunks = min(sized_pool.processes, n)
        bounds = np.linspace(0, n, chunks + 1, dtype=np.intp).tolist()
        assert [spec["rows"] for spec in queued[0]] == [
            ("slice", (start, stop))
            for start, stop in zip(bounds, bounds[1:])]
        assert stats.extra["pool"]["chunks"] == chunks
        assert stats.extra["pool"]["shards"] == len(sizes)

    def test_one_slice_per_worker_and_one_parent_merge(self, pool,
                                                       queued):
        pins, union = _shard_pins([240, 260, 250, 250], seed=7)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        stats = Stats()
        got = pool.run_sharded(pins, graph, columns=[5, 0, 3],
                               context=ExecutionContext(stats=stats))
        assert np.array_equal(
            got, osdc(np.ascontiguousarray(union[:, [5, 0, 3]]), graph))
        # two chunk tasks, no pooled merge round: the last (only) pair
        # is merged in the parent
        assert [len(specs) for specs in queued] == [2]
        info = stats.extra["pool"]
        assert info["chunks"] == pool.processes == 2
        assert info["merge_rounds"] == 1 and info["tasks"] == 2
        assert "parent" in info["per_worker_dominance_tests"]

    def test_merge_sharded_skylines_is_osdc_over_the_union_of_parts(
            self, pool):
        """Pre-computed per-shard skylines, in virtual coordinates,
        merge to ``osdc`` over their union."""
        sizes = [240, 260, 250, 250]
        pins, union = _shard_pins(sizes, seed=9)
        columns = [2, 4, 1]
        graph = PGraph.from_expression(parse("A * (B & C)"))
        projected = np.ascontiguousarray(union[:, columns])
        offsets = np.cumsum([0] + sizes)
        parts = [lo + osdc(projected[lo:hi], graph)
                 for lo, hi in zip(offsets, offsets[1:])]
        got = pool.merge_sharded_skylines(pins, graph, parts,
                                          columns=columns)
        candidates = np.concatenate(parts)
        expected = candidates[osdc(projected[candidates], graph)]
        assert np.array_equal(got, np.sort(expected))


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

    @pytest.mark.parametrize("interrupt", ["deadline", "cancel"])
    def test_interruption_after_the_chunk_stage_stops_the_parent_merge(
            self, pool, nrng, monkeypatch, interrupt):
        """The last merge runs in the parent under the caller's context:
        a deadline passing, or a token cancelled, once the chunks are
        back stops it."""
        execute = WorkerPool._execute_tasks
        dispatches = []

        def then_interrupt(pool, query_id, specs, context, phase):
            result = execute(pool, query_id, specs, context, phase)
            dispatches.append(phase)
            if interrupt == "deadline":
                context.deadline = time.monotonic() - 1.0
            else:
                context.cancel.cancel()
            return result

        monkeypatch.setattr(WorkerPool, "_execute_tasks", then_interrupt)
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(3000, 2)).astype(float)
        context = ExecutionContext(cancel=CancellationToken())
        error = QueryTimeout if interrupt == "deadline" else QueryCancelled
        with pytest.raises(error, match="pool-merge"):
            pool.run_query(ranks, graph, chunks=2, context=context)
        assert dispatches == ["pool-chunk"]  # no pooled merge round
        monkeypatch.undo()
        assert set(pool.run_query(ranks, graph, chunks=2).tolist()) == \
            set(naive(ranks, graph).tolist())

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

    def test_task_drops_attachments_of_unlinked_segments(self, nrng):
        """Before each task a worker unmaps every cached segment the
        parent no longer names live, so an unregistered relation's
        pages do not stay mapped until the worker exits."""
        from repro.engine.pool import (ShardedArraySpec,
                                       SharedRegistration,
                                       _drop_attachments, _run_task)
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 30, size=(50, 2)).astype(float)
        expected = set(osdc(ranks, graph).tolist())
        attachments = {}

        def run(registration):
            # the one task shape: here one shard, nothing appended or dead
            array = ShardedArraySpec(
                (registration.spec,), (0, 50),
                ((np.empty(0, dtype=np.intp), ranks[:0]),))
            spec = {"array": array,
                    "rows": ("slice", (0, 50)), "columns": None,
                    "graph": (graph.names, graph.closure, graph.orders),
                    "algorithm": "osdc", "options": {}, "deadline": None,
                    "memory_budget": None, "forced_kernel": None,
                    "live": (registration.name,)}
            indices, _stats = _run_task(spec, attachments,
                                        threading.Event())
            return set(indices.tolist())

        old = SharedRegistration(ranks)
        assert run(old) == expected
        stale = attachments[old.name][0]
        assert _mapped(old.name)
        old.close()  # the parent unregisters and unlinks
        with SharedRegistration(ranks) as new:
            try:
                assert run(new) == expected
                assert set(attachments) == {new.name}
                assert stale.buf is None  # closed, not just forgotten
                assert not _mapped(old.name)
            finally:
                _drop_attachments(attachments, ())
        assert attachments == {}

    def test_closed_pool_rejects_queries(self, nrng):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_query(nrng.random((10, 2)),
                           PGraph.from_expression(parse("A & B")))


class TestBatchService:
    def test_batch_amortizes_one_registration(self, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(3000, 4)).astype(float))
        queries = ["A0 & A1", "(A0 * A2) & A3", "A1 * A3"]
        shutdown_default_pool()
        try:
            stats = Stats()
            results = p_skyline_batch(relation, queries, stats=stats,
                                      algorithm="parallel-osdc",
                                      min_chunk=64)
            assert "pool" in stats.extra  # ran on the pool
            # three column subsets, one registration of the relation
            assert len(get_default_pool().live_segments()) == 1
        finally:
            shutdown_default_pool()
        for text, got in zip(queries, results):
            expected = p_skyline(relation, text, algorithm="naive")
            assert sorted(map(tuple, got.ranks.tolist())) == \
                sorted(map(tuple, expected.ranks.tolist()))

    BATCH = ["A0 & A1", "A0 & A1", "(A0 * A2) & A3", "A0 * A2 * A3",
             "A3 & (A0 * A2)", "A1 * A3"]

    @pytest.mark.parametrize("arm", ["serial", "pool"])
    @pytest.mark.parametrize("kind", ["relation", "writeable",
                                      "read-only", "sharded"])
    def test_every_data_kind_on_both_arms(self, kind, arm, nrng):
        """One fused loop serves every kind of data: each answer equals
        its own ``p_skyline``, and the pool arm really ran pooled."""
        matrix = nrng.integers(0, 25, size=(3000, 4)).astype(float)
        if kind == "relation":
            data = Relation.from_array(matrix)
        elif kind == "read-only":
            matrix.setflags(write=False)
            data = matrix
        elif kind == "sharded":
            data = ShardedRelation.from_array(matrix, shards=3)
            for gid in range(0, 3000, 97):  # deltas on every shard
                data.delete(gid)
        else:
            data = matrix
        options = {"algorithm": "parallel-osdc", "min_chunk": 500} \
            if arm == "pool" else {"algorithm": "osdc"}
        stats = Stats()
        batch = p_skyline_batch(data, self.BATCH, stats=stats, **options)
        assert ("pool" in stats.extra) == (arm == "pool")
        assert stats.extra["fusion"]["dedup_hits"] == 1
        for text, got in zip(self.BATCH, batch):
            want = p_skyline(data, text, algorithm="osdc")
            if kind in ("relation", "sharded"):
                assert np.array_equal(got.ranks, want.ranks), text
            else:
                assert np.array_equal(got, want), text

    def test_p_skyline_batch_matches_sequential(self, nrng):
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(9000, 4)).astype(float))
        queries = ["A0 & A1", "A2 * A3"]
        stats = Stats()
        batch = p_skyline_batch(relation, queries, stats=stats,
                                algorithm="parallel-osdc", min_chunk=1000)
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
                                    algorithm="parallel-osdc",
                                    min_chunk=1000)
            assert "chunk_skylines" in stats.extra  # ran on the pool
            for text, got in zip(queries, batch):
                assert np.array_equal(got, p_skyline(matrix, text,
                                                     algorithm="osdc"))
            matrix[batch[0][:1], :] += 100.0  # demote one skyline row

    def test_osdc_batch_below_the_parallel_threshold_starts_no_pool(
            self, nrng):
        # the serial fused loop beats the pool at 10k rows: a batch
        # naming a serial algorithm pools only where p_skyline(auto)
        # would, at the planner's parallel threshold
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(10_000, 4)).astype(float))
        queries = ["A0 & A1", "A2 * A3", "(A0 * A2) & A3"]
        shutdown_default_pool()
        stats = Stats()
        batch = p_skyline_batch(relation, queries, stats=stats,
                                algorithm="osdc")
        assert "pool" not in stats.extra
        assert pool_module._default_pool is None
        for text, got in zip(queries, batch):
            want = p_skyline(relation, text, algorithm="osdc")
            assert np.array_equal(got.ranks, want.ranks), text

    @pytest.mark.parametrize("cores", [1, 2])
    def test_osdc_batch_pools_at_the_parallel_threshold_on_two_cores(
            self, cores, nrng, monkeypatch):
        from repro.planner import DEFAULT_PLANNER
        monkeypatch.setattr(DEFAULT_PLANNER, "parallel_threshold", 5_000)
        monkeypatch.setattr(pool_module, "usable_cores", lambda: cores)
        relation = Relation.from_array(
            nrng.integers(0, 25, size=(10_000, 4)).astype(float))
        stats = Stats()
        try:
            p_skyline_batch(relation, ["A0 & A1", "A2 * A3"], stats=stats,
                            algorithm="osdc", min_chunk=1000)
        finally:
            shutdown_default_pool()
        assert ("pool" in stats.extra) == (cores > 1)

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

    def test_only_one_layer_weak_orders_go_to_the_pool(self, nrng,
                                                       monkeypatch):
        """A weak order of two or more layers plans ``layered`` at any
        size; a one-layer weak order (a plain Pareto) goes to the pool
        only at or past the threshold, and to ``osdc`` below it."""
        from repro import planner as planner_module
        from repro.planner import Planner
        planner = Planner(parallel_threshold=10_000)
        layers = PGraph.from_expression(parse("A & (B * C)"))
        pareto = PGraph.from_expression(parse("A * B * C"))
        assert layers.is_weak_order() and pareto.is_weak_order()
        ranks = nrng.integers(0, 50, size=(20_000, 3)).astype(float)
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        for rows in (ranks, ranks[:10_000], ranks[:9_999]):
            assert planner.plan(rows, layers).algorithm == "layered"
        assert planner.plan(ranks[:10_000], pareto).algorithm \
            == "parallel-osdc"
        assert planner.plan(ranks[:9_999], pareto).algorithm == "osdc"
        monkeypatch.setattr(planner_module, "pool_available",
                            lambda: False)
        assert planner.plan(ranks, pareto).algorithm == "osdc"

    def test_one_core_keeps_weak_orders_on_layered(self, nrng,
                                                   monkeypatch):
        """On one core parallel-osdc is serial osdc: a weak order stays
        with layered, and only a general preference goes to the pool."""
        from repro.planner import Planner
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 1)
        planner = Planner(parallel_threshold=10_000)
        ranks = nrng.integers(0, 50, size=(20_000, 3)).astype(float)
        for text, algorithm in (("A & (B * C)", "layered"),
                                ("(A & B) * C", "parallel-osdc")):
            graph = PGraph.from_expression(parse(text))
            assert planner.plan(ranks, graph).algorithm == algorithm

    def test_execute_evaluates_the_rules_once(self, nrng, monkeypatch):
        from repro.planner import Planner
        planner = Planner(parallel_threshold=5_000)
        calls = []
        by_rule = Planner._by_rule

        def counted(self, n, graph, context):
            calls.append(n)
            return by_rule(self, n, graph, context)

        monkeypatch.setattr(Planner, "_by_rule", counted)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 50, size=(10_000, 4)).astype(float)
        for rows, algorithm in ((ranks, "parallel-osdc"),
                                (ranks[:4_000], "osdc")):
            calls.clear()
            stats = Stats()
            planner.execute(rows, graph, stats=stats, columns=[3, 0, 1])
            assert stats.extra["plan"]["algorithm"] == algorithm
            assert calls == [rows.shape[0]]


#: Preferences over four distinct column subsets of A0..A5.
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


def _forged_relation(matrix):
    """A relation over ``matrix`` as is: the constructor refuses
    non-finite ranks, and the pool must not rely on that."""
    from repro.core.attributes import lowest

    relation = object.__new__(Relation)
    relation.schema = tuple(lowest(f"A{j}")
                            for j in range(matrix.shape[1]))
    relation.ranks = matrix
    relation._values = None
    return relation


class TestNanRejectionOnThePool:
    """Each registration records its NaN columns once; a pooled query
    reading one raises before any task is queued, and a NaN in a column
    it does not read changes nothing."""

    READS_NAN = "(A4 & A5) * A0"
    SKIPS_NAN = "(A0 & A1) * A2"

    @staticmethod
    def _matrix(nrng):
        matrix = nrng.integers(0, 40, size=(9_000, 6)).astype(float)
        matrix[17, 5] = np.nan
        matrix.setflags(write=False)  # shipped whole, with its columns
        return matrix

    @pytest.mark.parametrize("kind", ["relation", "read-only matrix"])
    def test_auto_query(self, pooled_auto, queued, nrng, kind):
        matrix = self._matrix(nrng)
        data = _forged_relation(matrix) if kind == "relation" else matrix
        with pytest.raises(ValueError, match="NaN"):
            p_skyline(data, self.READS_NAN, algorithm="auto")
        assert queued == []
        stats = Stats()
        got = p_skyline(data, self.SKIPS_NAN, algorithm="auto",
                        stats=stats)
        assert stats.extra["plan"]["algorithm"] == "parallel-osdc"
        assert queued  # the NaN-free query did reach the pool
        columns = [0, 1, 2]
        expected = osdc(np.ascontiguousarray(matrix[:, columns]),
                        PGraph.from_expression(parse(self.SKIPS_NAN)))
        got = got.ranks if kind == "relation" else matrix[got]
        assert np.array_equal(got, matrix[expected])

    def test_sharded_snapshot(self, pool, queued, nrng):
        from repro.core.sharding import ShardedRelation

        relation = ShardedRelation.from_array(
            nrng.integers(0, 40, size=(9_000, 6)).astype(float), shards=2)
        with relation.snapshot() as snapshot:
            pins = list(snapshot.pins)
            union = snapshot.relation.ranks
        base = pins[-1].base.copy()  # a base a NaN got into
        base[3, 5] = np.nan
        base.setflags(write=False)
        pins[-1] = ShardPin(base, pins[-1].appended, pins[-1].dead)
        reads = PGraph.from_expression(parse("(A & B) * C"))
        with pytest.raises(ValueError, match="NaN"):
            pool.run_sharded(pins, reads, columns=[4, 5, 0])
        assert queued == []
        got = pool.run_sharded(pins, reads, columns=[0, 1, 2])
        expected = osdc(np.ascontiguousarray(union[:, :3]), reads)
        assert np.array_equal(got, expected)


class TestWriteableMatrixOnThePool:
    def test_written_in_place_between_queries(self, pool, nrng):
        """A writeable matrix is registered as a read-only copy per
        query: the chunks and the parent's merge read the same rows,
        and a NaN written after an earlier query is still rejected."""
        graph = PGraph.from_expression(parse("A & B"))
        matrix = nrng.integers(0, 30, size=(3000, 3)).astype(float)
        for _ in range(2):
            got = pool.run_query(matrix, graph, chunks=2, columns=[0, 1])
            assert np.array_equal(
                got, osdc(np.ascontiguousarray(matrix[:, :2]), graph))
            matrix[got, :2] += 100.0  # demote the whole skyline
        matrix[7, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            pool.run_query(matrix, graph, chunks=2, columns=[0, 1])
        assert np.array_equal(
            pool.run_query(matrix, graph, chunks=2, columns=[0, 2]),
            osdc(np.ascontiguousarray(matrix[:, [0, 2]]), graph))


class TestParallelAlgorithmOnThePool:
    def test_batch_with_parallel_osdc_merges_without_reentering(self):
        """A batch run by ``parallel-osdc`` reaches the parent's last
        merge with that algorithm; a union past two chunks' worth of
        rows must not dispatch back into the pool the query holds.  Run
        in a fresh interpreter so a hang fails here, not the suite."""
        child = subprocess.Popen(
            [sys.executable, "-c", _REENTRANT_BATCH_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            start_new_session=True)
        try:
            out, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # its workers too
            child.communicate()
            pytest.fail("the batch deadlocked in its parent merge")
        assert child.returncode == 0, err
        assert out.strip() == "20000"


#: Anti-correlated 20k x 2 rows: every row survives its chunk, so the
#: parent merges a 20k-row union.
_REENTRANT_BATCH_SCRIPT = """
import numpy as np
from repro import p_skyline_batch
from repro.algorithms import osdc
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.engine import pool

pool.usable_cores = lambda: 2  # the pool would split the union again
x = np.random.default_rng(5).permutation(20_000).astype(float)
ranks = np.column_stack([x, 20_000.0 - x])
(got,) = p_skyline_batch(ranks, ["A0 * A1"], algorithm="parallel-osdc")
expected = osdc(ranks, PGraph.from_expression(parse("A0 * A1")))
assert np.array_equal(got, expected), (got.size, expected.size)
print(got.size)
"""


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
