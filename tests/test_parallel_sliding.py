"""Tests for partition-parallel evaluation and sliding-window queries."""

import numpy as np
import pytest

from conftest import random_expression
from repro.algorithms import naive, SlidingWindowPSkyline
from repro.algorithms.base import Stats
from repro.algorithms.parallel import parallel_osdc
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.engine import (CancellationToken, ExecutionContext,
                          QueryCancelled, TraceBuffer)


class TestParallelOSDC:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_with_workers(self, seed, rng, nrng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(1, 5)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        ranks = nrng.integers(0, 10, size=(3000, d)).astype(float)
        expected = set(naive(ranks, graph).tolist())
        got = set(parallel_osdc(ranks, graph, processes=3,
                                min_chunk=100).tolist())
        assert got == expected

    def test_serial_fallback_for_small_inputs(self, nrng):
        graph = PGraph.from_expression(parse("A * B"))
        ranks = nrng.random((100, 2))
        stats = Stats()
        result = parallel_osdc(ranks, graph, stats=stats, processes=4,
                               min_chunk=4096)
        assert "chunk_skylines" not in stats.extra  # no fan-out happened
        assert set(result.tolist()) == set(naive(ranks, graph).tolist())

    def test_chunk_stats_recorded(self, nrng):
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 50, size=(2000, 2)).astype(float)
        stats = Stats()
        parallel_osdc(ranks, graph, stats=stats, processes=2,
                      min_chunk=100)
        assert len(stats.extra["chunk_skylines"]) == 2

    def test_invalid_processes(self, nrng):
        graph = PGraph.from_expression(parse("A"))
        with pytest.raises(ValueError):
            parallel_osdc(nrng.random((10, 1)), graph, processes=0)

    def test_invalid_min_chunk(self, nrng):
        graph = PGraph.from_expression(parse("A"))
        with pytest.raises(ValueError):
            parallel_osdc(nrng.random((10, 1)), graph, min_chunk=0)

    def test_validation_fires_before_side_effects(self):
        """Bad knobs must raise before check_input/ensure_context get a
        chance to touch the (deliberately invalid) inputs."""
        with pytest.raises(ValueError, match="processes"):
            parallel_osdc("not a matrix", object(), processes=0)
        with pytest.raises(ValueError, match="min_chunk"):
            parallel_osdc("not a matrix", object(), min_chunk=0)

    def test_auto_processes_policy(self):
        from repro.algorithms.parallel import auto_processes
        from repro.engine.pool import usable_cores
        cpus = usable_cores()
        assert auto_processes(0, 4096) == 1
        assert auto_processes(10_000_000, 4096) == \
            min(cpus, 10_000_000 // 4096)
        assert auto_processes(100, 4096) == 1

    def test_registered(self):
        from repro.algorithms import REGISTRY
        assert "parallel-osdc" in REGISTRY


class TestParallelInterruptionPolicy:
    """Deadline and cancellation queries now run *on* the parallel
    path: the pool ships the absolute monotonic deadline to workers and
    mirrors the cancellation token into a shared event, so exactly the
    queries a loaded service runs keep their speed-up."""

    def _workload(self, nrng):
        graph = PGraph.from_expression(parse("A & B"))
        ranks = nrng.integers(0, 50, size=(2000, 2)).astype(float)
        return ranks, graph

    def test_plain_context_takes_the_parallel_path(self, nrng):
        ranks, graph = self._workload(nrng)
        stats = Stats()
        context = ExecutionContext(stats=stats, trace=TraceBuffer(),
                                   memory_budget=10_000)
        result = parallel_osdc(ranks, graph, context=context,
                               processes=2, min_chunk=100)
        assert len(stats.extra["chunk_skylines"]) == 2  # fan-out happened
        assert set(result.tolist()) == set(naive(ranks, graph).tolist())

    def test_fabricated_context_takes_the_parallel_path(self, nrng):
        ranks, graph = self._workload(nrng)
        stats = Stats()
        parallel_osdc(ranks, graph, stats=stats, processes=2,
                      min_chunk=100)
        assert "chunk_skylines" in stats.extra

    def test_deadline_takes_the_parallel_path(self, nrng):
        ranks, graph = self._workload(nrng)
        stats = Stats()
        context = ExecutionContext.create(stats=stats, timeout=60.0)
        result = parallel_osdc(ranks, graph, context=context,
                               processes=2, min_chunk=100)
        assert len(stats.extra["chunk_skylines"]) == 2
        assert set(result.tolist()) == set(naive(ranks, graph).tolist())

    def test_untriggered_cancel_token_takes_the_parallel_path(self, nrng):
        ranks, graph = self._workload(nrng)
        stats = Stats()
        context = ExecutionContext(stats=stats, cancel=CancellationToken())
        result = parallel_osdc(ranks, graph, context=context,
                               processes=2, min_chunk=100)
        assert len(stats.extra["chunk_skylines"]) == 2
        assert set(result.tolist()) == set(naive(ranks, graph).tolist())

    def test_pre_triggered_token_raises_before_dispatch(self, nrng):
        ranks, graph = self._workload(nrng)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            parallel_osdc(ranks, graph,
                          context=ExecutionContext(cancel=token),
                          processes=2, min_chunk=100)


class TestSlidingWindow:
    def test_answer_tracks_the_window(self):
        graph = PGraph.from_expression(parse("A & B"))
        stream = SlidingWindowPSkyline(graph, window=3)
        stream.append([3.0, 0.0])   # id 0
        stream.append([2.0, 0.0])   # id 1
        stream.append([1.0, 0.0])   # id 2: dominates both
        assert stream.skyline_ids().tolist() == [2]
        stream.append([9.0, 9.0])   # id 3 evicts id 0; id 2 still rules
        assert stream.skyline_ids().tolist() == [2]
        stream.append([9.0, 8.0])   # evicts id 1
        stream.append([9.0, 7.0])   # evicts id 2: the throne is vacant
        assert stream.skyline_ids().tolist() == [5]
        assert len(stream) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_recomputation(self, seed, rng, nrng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(1, 4)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        window = rng.randint(1, 12)
        stream = SlidingWindowPSkyline(graph, window=window)
        history = []
        for step in range(80):
            values = nrng.integers(0, 4, size=d).astype(float)
            history.append(values)
            stream.append(values)
            recent = np.array(history[-window:])
            expected_local = set(naive(recent, graph).tolist())
            offset = len(history) - recent.shape[0]
            expected = {local + offset for local in expected_local}
            assert set(stream.skyline_ids().tolist()) == expected, step

    def test_window_validation(self):
        graph = PGraph.from_expression(parse("A"))
        with pytest.raises(ValueError):
            SlidingWindowPSkyline(graph, window=0)

    def test_rejected_item_evicts_nothing(self):
        graph = PGraph.from_expression(parse("A & B"))
        stream = SlidingWindowPSkyline(graph, window=2)
        stream.append([1.0, 0.0])
        stream.append([2.0, 0.0])
        for bad in ([3.0], [np.nan, 0.0], [0.0, 1.0, 2.0]):
            with pytest.raises(ValueError):
                stream.append(bad)
        assert stream.contents().tolist() == [[1.0, 0.0], [2.0, 0.0]]
        assert stream.skyline_ids().tolist() == [0]

    def test_contents_order(self):
        graph = PGraph.from_expression(parse("A"))
        stream = SlidingWindowPSkyline(graph, window=2)
        stream.append([1.0])
        stream.append([2.0])
        stream.append([3.0])
        assert stream.contents()[:, 0].tolist() == [2.0, 3.0]
