"""Cross-query batch fusion: correctness, counters and batch bugfixes."""

import random

import numpy as np
import pytest

from repro.algorithms.base import Stats
from repro.core.dominance import (KERNELS, Dominance, forced_kernel,
                                  screen_block_multi)
from repro.core.fusion import FusionPlan, permute_preference
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.core.query import p_skyline, p_skyline_batch
from repro.core.relation import Relation
from repro.core.sharding import ShardedRelation
from repro.engine.errors import QueryTimeout
from repro.sampling.random_pexpr import sample_pexpression
from repro.sql import BatchExecutionError, PreferenceSQL


def _correlated_batch(names, rng, count):
    """Expressions biased toward shared attribute subsets, duplicates
    and containment-related pairs -- the elicitation workload shape."""
    expressions = []
    subsets = [tuple(sorted(rng.sample(names, rng.randint(2, len(names)))))
               for _ in range(3)]
    for _ in range(count):
        subset = list(rng.choice(subsets))
        roll = rng.random()
        if roll < 0.25 and expressions:
            expressions.append(rng.choice(expressions))  # exact duplicate
        elif roll < 0.45:
            expressions.append(" & ".join(subset))       # chain
        elif roll < 0.6:
            expressions.append(" * ".join(subset))       # Pareto
        else:
            expressions.append(
                str(sample_pexpression(subset, rng)))
    return expressions


class TestScreenBlockMulti:
    def test_matches_independent_screens(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 6, size=(500, 5)).astype(float)
        names = [f"A{j}" for j in range(5)]
        graphs = [
            PGraph.from_expression(parse("A0 & A1 * A2 & A3 * A4"),
                                   names=names),
            PGraph.from_expression(parse("A0 * A1 * A2 * A3 * A4"),
                                   names=names),
            PGraph.from_expression(parse("A4 & A3 & A2 & A1 & A0"),
                                   names=names),
        ]
        dominances = [Dominance(graph) for graph in graphs]
        counters = {}
        masks = screen_block_multi(dominances, rows, counters=counters)
        for dominance, mask in zip(dominances, masks):
            assert np.array_equal(
                mask, dominance.screen_block(rows, rows))
        assert counters["mask_misses"] >= 1
        # every packed block is replayed for the two other graphs
        assert counters["mask_hits"] >= 2 * counters["mask_misses"] - 2

    def test_empty_inputs(self):
        assert screen_block_multi([], np.zeros((4, 2))) == []
        dom = Dominance(PGraph.empty(["A0", "A1"]))
        masks = screen_block_multi([dom], np.empty((0, 2)))
        assert masks[0].shape == (0,)


class TestPermutePreference:
    def test_permutation_preserves_dominance(self):
        rng = random.Random(11)
        names = ["A0", "A1", "A2", "A3"]
        rows = np.random.default_rng(5).integers(
            0, 5, size=(60, 4)).astype(float)
        for _ in range(20):
            graph = PGraph.from_expression(
                sample_pexpression(names, rng), names=names)
            sigma = list(range(4))
            rng.shuffle(sigma)
            permuted = permute_preference(graph, sigma)
            direct = Dominance(graph).screen_block(rows, rows)
            shuffled = np.ascontiguousarray(rows[:, sigma])
            via = Dominance(permuted).screen_block(shuffled, shuffled)
            assert np.array_equal(direct, via)


class TestFusedBatchProperty:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_independent_calls(self, kernel):
        rng = random.Random(kernel)
        names = [f"A{j}" for j in range(5)]
        nrng = np.random.default_rng(17)
        for round_index in range(3):
            rows = nrng.integers(0, 8, size=(300, 5)).astype(float)
            expressions = _correlated_batch(names, rng, 12)
            with forced_kernel(kernel):
                stats = Stats()
                fused = p_skyline_batch(rows, expressions, stats=stats)
                independent = [p_skyline(rows, expression)
                               for expression in expressions]
            for got, want in zip(fused, independent):
                assert np.array_equal(np.asarray(got), want)
            fusion = stats.extra["fusion"]
            assert fusion["queries"] == 12
            assert fusion["dedup_hits"] == \
                fusion["queries"] - fusion["distinct"]

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_batches_match_flat(self, shards):
        rng = random.Random(shards)
        names = [f"A{j}" for j in range(4)]
        rows = np.random.default_rng(23).integers(
            0, 6, size=(200, 4)).astype(float)
        flat = Relation.from_array(rows, names=names)
        sharded = ShardedRelation.from_array(rows, names=names,
                                             shards=shards)
        expressions = _correlated_batch(names, rng, 8)
        fused = p_skyline_batch(sharded, expressions)
        reference = p_skyline_batch(flat, expressions)
        for got, want in zip(fused, reference):
            assert np.array_equal(got.ranks, want.ranks)

    def test_auto_batches_are_fused(self):
        rows = np.random.default_rng(29).integers(
            0, 5, size=(400, 3)).astype(float)
        expressions = ["A0 & A1 * A2", "A0 & A1 * A2", "A0 * A1 * A2"]
        stats = Stats()
        fused = p_skyline_batch(rows, expressions, algorithm="auto",
                                stats=stats)
        for got, expression in zip(fused, expressions):
            assert np.array_equal(
                np.asarray(got), p_skyline(rows, expression))
        fusion = stats.extra["fusion"]
        # the duplicate dedups and the planner ran once per group base
        assert fusion["dedup_hits"] == 1
        assert fusion["base_evaluations"] < fusion["queries"]

    def test_duplicate_and_containment_counters(self):
        rows = np.random.default_rng(31).integers(
            0, 6, size=(300, 3)).astype(float)
        expressions = ["A0 & A1 & A2", "A0 & A1 & A2",  # duplicates
                       "A0 * A1 * A2",                  # contained base
                       "A0 & A1 * A2"]                  # shares the base
        stats = Stats()
        fused = p_skyline_batch(rows, expressions, stats=stats)
        for got, expression in zip(fused, expressions):
            assert np.array_equal(
                np.asarray(got), p_skyline(rows, expression))
        fusion = stats.extra["fusion"]
        assert fusion["queries"] == 4
        assert fusion["distinct"] == 3
        assert fusion["dedup_hits"] == 1
        assert fusion["groups"] == 1
        assert fusion["base_evaluations"] == 1  # the Pareto base
        assert fusion["screened"] == 2
        assert fusion["kernel"] == "bitmask"  # the replay backend
        assert fusion["mask_misses"] >= 1
        assert fusion["mask_hits"] >= 1


class TestExecuteBatchFusion:
    def _engine(self, rows=160, seed=41):
        from repro.core.attributes import lowest

        rng = np.random.default_rng(seed)
        records = [{"price": float(p), "mileage": float(m),
                    "age": float(a)}
                   for p, m, a in rng.integers(0, 30, size=(rows, 3))]
        relation = Relation.from_records(
            records, [lowest("price"), lowest("mileage"), lowest("age")])
        engine = PreferenceSQL()
        engine.register("cars", relation)
        return engine

    def test_batch_holds_one_signature_matrix_at_a_time(self):
        """A batch over eight column signatures peaks near one
        statement's memory: the executor drops a signature's encoded
        matrix before it encodes the next."""
        import tracemalloc

        from repro.core.attributes import lowest

        names = ["a", "b", "c", "d", "e", "f"]
        rng = np.random.default_rng(5)
        engine = PreferenceSQL()
        engine.register("t", Relation.from_array(
            rng.random((50_000, 6)), schema=[lowest(n) for n in names]))
        signatures = [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e"),
                      ("d", "e", "f"), ("a", "c", "e"), ("b", "d", "f"),
                      ("a", "d", "f"), ("b", "c", "e")]

        def statement(columns, joiner):
            clause = joiner.join(f"lowest({c})" for c in columns)
            return f"SELECT * FROM t PREFERRING {clause}"

        # each signature twice, the second pass after all the others
        batch = [statement(columns, joiner) for joiner in (" & ", " * ")
                 for columns in signatures]

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        engine.execute_batch(batch)  # warm the compiled preferences
        single = peak(lambda: engine.execute(batch[8]))
        fused = peak(lambda: engine.execute_batch(batch))
        assert fused < 1.5 * single, fused / single

    def test_groups_sharing_a_signature_run_back_to_back(self):
        names = ("A", "B")
        orders_a, orders_b = ("min", "min"), ("min", "max")
        graph_a = PGraph(names, (0b10, 0), orders_a)
        graph_b = PGraph(names, (0b10, 0), orders_b)
        other = PGraph(names, (0, 0), orders_a)
        plan = FusionPlan.build([(graph_a, (0, 1)), (other, (2, 3)),
                                 (graph_b, (0, 1))])
        assert [group.key for group in plan.groups] == \
            [(0, 1), (0, 1), (2, 3)]

    def test_fused_batch_matches_per_statement(self):
        engine = self._engine()
        statements = [
            "SELECT * FROM cars PREFERRING lowest(price) & lowest(mileage)",
            "SELECT * FROM cars PREFERRING lowest(price) & lowest(mileage)",
            "SELECT * FROM cars PREFERRING lowest(price) * lowest(mileage)",
            "SELECT * FROM cars PREFERRING highest(price) * lowest(age)",
            "SELECT price FROM cars PREFERRING lowest(price) "
            "* lowest(mileage) TOP 5",
            "SELECT * FROM cars WHERE age <= 20 PREFERRING lowest(price)",
        ]
        stats = Stats()
        fused = engine.execute_batch(statements, stats=stats)
        unfused = [engine.execute(statement) for statement in statements]
        for got, want in zip(fused, unfused):
            assert got.names == want.names
            assert np.array_equal(got.ranks, want.ranks)
        fusion = stats.extra["fusion"]
        # statements 1+2 duplicate, and the TOP statement shares its
        # preference with statement 3 (TOP applies per statement)
        assert fusion["dedup_hits"] == 2
        assert fusion["queries"] == 5  # the WHERE statement stays out

    def test_parsed_statements_run_like_their_text(self):
        from repro.sql import parse_query

        engine = self._engine()
        statements = [
            "SELECT * FROM cars PREFERRING lowest(price) & lowest(age)",
            "SELECT * FROM cars PREFERRING lowest(age) & lowest(price)",
            "SELECT price FROM cars PREFERRING lowest(mileage) TOP 4",
        ]
        parsed = [parse_query(statement) for statement in statements]
        mixed = [parsed[0], statements[1], parsed[2]]
        for got, want in zip(engine.execute_batch(mixed),
                             engine.execute_batch(statements)):
            assert got.names == want.names
            assert np.array_equal(got.ranks, want.ranks)

    def test_direction_overrides_do_not_fuse_into_wrong_matrix(self):
        engine = self._engine()
        statements = [
            "SELECT * FROM cars PREFERRING lowest(price) & lowest(age)",
            "SELECT * FROM cars PREFERRING highest(price) & lowest(age)",
        ]
        fused = engine.execute_batch(statements)
        unfused = [engine.execute(statement) for statement in statements]
        for got, want in zip(fused, unfused):
            assert np.array_equal(got.ranks, want.ranks)

    def test_timeout_mid_batch_preserves_partials(self, monkeypatch):
        engine = self._engine()
        statements = [
            f"SELECT * FROM cars WHERE price <= {10 + i} "
            "PREFERRING lowest(price) & lowest(mileage)"
            for i in range(5)
        ]  # WHERE keeps them sequential, in statement order
        original = PreferenceSQL._execute_parsed
        calls = {"count": 0}

        def failing(self, query, **kwargs):
            if calls["count"] == 3:
                raise QueryTimeout("deadline exceeded mid-batch")
            calls["count"] += 1
            return original(self, query, **kwargs)

        monkeypatch.setattr(PreferenceSQL, "_execute_parsed", failing)
        with pytest.raises(BatchExecutionError) as info:
            engine.execute_batch(statements)
        error = info.value
        assert error.failed_index == 3
        assert error.completed == 3
        assert [result is not None for result in error.results] == \
            [True, True, True, False, False]
        assert isinstance(error.cause, QueryTimeout)
        assert error.__cause__ is error.cause
        for index, result in enumerate(error.results[:3]):
            monkeypatch.setattr(PreferenceSQL, "_execute_parsed", original)
            want = engine.execute(statements[index])
            assert np.array_equal(result.ranks, want.ranks)

    def test_batch_error_on_bad_statement_keeps_order(self):
        engine = self._engine()
        statements = [
            "SELECT * FROM cars WHERE age <= 25 PREFERRING lowest(price)",
            "SELECT nope FROM cars WHERE age <= 25 "
            "PREFERRING lowest(price)",
        ]
        with pytest.raises(BatchExecutionError) as info:
            engine.execute_batch(statements)
        assert info.value.failed_index == 1
        assert info.value.completed == 1
