"""Tests for the cost-based planner and ``algorithm='auto'``."""


import numpy as np
import pytest

from conftest import random_expression
from repro import Relation
from repro.algorithms import Stats, naive
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.core.query import p_skyline
from repro.core.sharding import ShardedRelation
from repro.engine import ExecutionContext
from repro.engine import pool as pool_module
from repro.planner import Plan, Planner


class TestRules:
    def test_tiny_inputs_go_naive(self, nrng):
        planner = Planner()
        graph = PGraph.from_expression(parse("(A & B) * C"))
        plan = planner.plan(nrng.random((50, 3)), graph)
        assert plan.algorithm == "naive"

    def test_weak_order_goes_layered(self, nrng):
        planner = Planner()
        graph = PGraph.from_expression(parse("A & (B * C)"))
        plan = planner.plan(nrng.random((5000, 3)), graph)
        assert plan.algorithm == "layered"

    def test_selective_query_goes_osdc(self, nrng):
        planner = Planner()
        # not a weak order, but still a nearly-singleton output: there
        # is no BNL rule, the estimate is only recorded
        graph = PGraph.from_expression(parse("(A & B & C) * D"))
        ranks = nrng.random((5000, 4))
        ranks[:, 3] = 0.0  # constant: the lexicographic part decides
        plan = planner.plan(ranks, graph)
        assert plan.algorithm == "osdc"
        assert plan.estimated_output is not None

    def test_bnl_selectivity_is_gone(self):
        with pytest.raises(TypeError):
            Planner(bnl_selectivity=0.5)

    def test_general_case_goes_osdc(self, nrng):
        planner = Planner()
        graph = PGraph.from_expression(parse("(A & B) * C * D * E"))
        plan = planner.plan(nrng.random((5000, 5)), graph)
        assert plan.algorithm == "osdc"

    def test_memory_budget_goes_external(self, nrng):
        planner = Planner(memory_budget=1000)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        plan = planner.plan(nrng.random((5000, 3)), graph)
        assert plan.algorithm == "external-osdc"
        assert plan.options["memory_budget"] == 1000

    def test_explain_mentions_reason(self, nrng):
        planner = Planner()
        graph = PGraph.from_expression(parse("A & B"))
        plan = planner.plan(nrng.random((5000, 2)), graph)
        assert "weak order" in plan.explain()


class TestExecution:
    @pytest.mark.parametrize("seed", range(6))
    def test_execute_matches_oracle(self, seed, rng, nrng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        planner = Planner(rng=np.random.default_rng(seed))
        d = rng.randint(1, 6)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        ranks = nrng.integers(0, rng.choice([3, 50]),
                              size=(rng.randint(1, 400), d)).astype(float)
        expected = set(naive(ranks, graph).tolist())
        got = set(planner.execute(ranks, graph).tolist())
        assert got == expected

    def test_external_plan_executes(self, nrng):
        planner = Planner(memory_budget=500)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 20, size=(2000, 3)).astype(float)
        expected = set(naive(ranks, graph).tolist())
        assert set(planner.execute(ranks, graph).tolist()) == expected

    def test_serial_plan_takes_no_projection(self, monkeypatch, nrng):
        # the estimator and osdc both read the base matrix's columns:
        # neither is handed a projected copy
        import repro.planner as planner_module
        from repro.algorithms import base

        seen = []
        estimate, get_algorithm = (planner_module.estimate_pskyline_size,
                                   base.get_algorithm)

        def spy_estimate(ranks, graph, rng, **kwargs):
            seen.append((ranks, kwargs["columns"]))
            return estimate(ranks, graph, rng, **kwargs)

        def spy_get_algorithm(name):
            function = get_algorithm(name)

            def run(ranks, graph, **kwargs):
                seen.append((ranks, kwargs["columns"]))
                return function(ranks, graph, **kwargs)
            return run

        monkeypatch.setattr(planner_module, "estimate_pskyline_size",
                            spy_estimate)
        monkeypatch.setattr(base, "get_algorithm", spy_get_algorithm)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 20, size=(3000, 5)).astype(float)
        stats = Stats()
        got = Planner(parallel_threshold=None).execute(
            ranks, graph, stats=stats, columns=[4, 0, 2])
        assert stats.extra["plan"]["algorithm"] == "osdc"
        assert len(seen) == 2
        assert all(matrix is ranks and list(columns) == [4, 0, 2]
                   for matrix, columns in seen)
        assert set(got.tolist()) == set(
            naive(ranks[:, [4, 0, 2]], graph).tolist())

    def test_plan_dataclass(self):
        plan = Plan("osdc", "why", estimated_output=12.0)
        assert "osdc" in plan.explain() and "12" in plan.explain()


class TestShardedPlan:
    def test_estimator_reads_the_base_matrix_with_columns(
            self, monkeypatch, nrng):
        """The estimate reads the pinned shards' rows -- the snapshot is
        never concatenated -- and, live rows numbered as in the
        concatenation, equals the estimate over it for the same seed,
        with deletes and appends since the shards' bases."""
        import repro.planner as planner_module

        seen = []
        estimate = planner_module.estimate_pskyline_size

        def spy_estimate(ranks, graph, rng, **kwargs):
            seen.append(kwargs.get("columns"))
            return estimate(ranks, graph, rng, **kwargs)

        monkeypatch.setattr(planner_module, "estimate_pskyline_size",
                            spy_estimate)
        # scatters
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        rows = nrng.random((3040, 5))
        rows[:, 2] = 1.0 - rows[:, 4] + 0.05 * rows[:, 2]  # many maximal
        relation = ShardedRelation.from_array(
            rows[:3000], names=[f"A{i}" for i in range(5)], shards=3)
        relation.snapshot().close()  # the shards take their bases
        for row in rows[3000:]:
            relation.insert_ranks(row)
        for gid in range(0, 3000, 150):
            relation.delete(gid)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        planner = Planner(sharded_threshold=1000)
        with relation.snapshot() as snapshot:
            assert any(pin.appended.shape[0] and pin.dead.size
                       for pin in snapshot.pins)
            plan = planner.plan_sharded(snapshot, graph, columns=[4, 0, 2])
            assert seen == [[4, 0, 2]]
            assert snapshot._relation is None  # never concatenated
            assert plan.algorithm == "sharded-scatter-gather"
            concatenated = rows[snapshot.global_ids]
            assert np.array_equal(snapshot.relation.ranks, concatenated)
            assert plan.estimated_output == estimate(
                concatenated[:, [4, 0, 2]], graph,
                np.random.default_rng(0))
            assert plan.estimated_output > 0


def _count_estimates(monkeypatch) -> list:
    """Spy on the planner's estimator binding; returns its call log."""
    import repro.planner as planner_module

    calls = []
    estimate = planner_module.estimate_pskyline_size

    def spy_estimate(*args, **kwargs):
        calls.append(kwargs.get("columns"))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(planner_module, "estimate_pskyline_size",
                        spy_estimate)
    return calls


class TestEstimateWhereRead:
    """The estimate is computed only for a caller that can read it."""

    TEXT = "(A0 & A1) * A2 * A3"  # not a weak order: plans osdc

    def test_auto_query_without_stats_never_estimates(self, monkeypatch,
                                                      nrng):
        calls = _count_estimates(monkeypatch)
        ranks = nrng.random((3000, 5))
        assert np.array_equal(p_skyline(ranks, self.TEXT, algorithm="auto"),
                              p_skyline(ranks, self.TEXT, algorithm="osdc"))
        assert calls == []

    def test_sharded_scatter_without_stats_never_estimates(
            self, monkeypatch, nrng):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        calls = _count_estimates(monkeypatch)
        ranks = nrng.random((3000, 5))
        relation = ShardedRelation.from_array(ranks, shards=3)
        planner = Planner(sharded_threshold=1000)
        auto = relation.p_skyline(self.TEXT, planner=planner)
        assert calls == []
        stats = Stats()
        assert np.array_equal(
            relation.p_skyline(self.TEXT, planner=planner,
                               stats=stats).ranks, auto.ranks)
        assert stats.extra["plan"]["algorithm"] == "sharded-scatter-gather"
        assert len(calls) == 1
        assert stats.extra["plan"]["estimated_output"] is not None
        assert np.array_equal(
            auto.ranks,
            relation.p_skyline(self.TEXT, algorithm="osdc").ranks)

    def test_recorded_estimate_draws_the_planner_rng(self, monkeypatch,
                                                     nrng):
        import repro.planner as planner_module

        estimate = planner_module.estimate_pskyline_size
        calls = _count_estimates(monkeypatch)
        ranks = nrng.random((3000, 5))
        graph = PGraph.from_expression(parse("(A & B) * C"))
        stats = Stats()
        Planner(rng=np.random.default_rng(5)).execute(
            ranks, graph, stats=stats, columns=[4, 0, 2])
        assert calls == [[4, 0, 2]]
        assert stats.extra["plan"]["estimated_output"] == estimate(
            ranks[:, [4, 0, 2]], graph, np.random.default_rng(5))


    def test_plan_estimates_only_where_it_can_be_read(self, monkeypatch,
                                                     nrng):
        calls = _count_estimates(monkeypatch)
        ranks = nrng.random((3000, 3))
        graph = PGraph.from_expression(parse("(A & B) * C"))
        planner = Planner()
        plan = planner.plan(ranks, graph, ExecutionContext.create())
        assert plan.algorithm == "osdc" and plan.estimated_output is None
        assert "estimated" not in plan.explain() and calls == []
        assert planner.plan(ranks, graph).estimated_output is not None
        assert planner.plan(ranks, graph, ExecutionContext.create(
            stats=Stats())).estimated_output is not None
        assert len(calls) == 2


class TestSerialShardPlans:
    """Single-shard and sharded-serial reads hand the planner the
    snapshot's matrix and the query's columns, not a projection."""

    @pytest.mark.parametrize("ranged", [True, False])
    def test_execute_gets_the_base_matrix_with_columns(self, ranged,
                                                       nrng):
        from repro.core.sharding import ShardMap

        class SpyPlanner(Planner):
            seen = []

            def execute(self, ranks, graph, stats=None, context=None,
                        columns=None):
                self.seen.append((ranks, columns))
                return super().execute(ranks, graph, stats=stats,
                                       context=context, columns=columns)

        rows = nrng.random((600, 5)) + 10.0
        shards = ShardMap.ranged(3, 0, [1.0, 2.0]) if ranged else 3
        relation = ShardedRelation.from_array(rows, shards=shards)
        planner = SpyPlanner()
        text = "(A4 & A0) * A2"
        stats = Stats()
        got = relation.p_skyline(text, planner=planner, stats=stats)
        assert stats.extra["shards"]["mode"] == (
            "single-shard" if ranged else "sharded-serial")
        (matrix, columns), = planner.seen
        assert matrix.shape == (600, 5) and matrix.flags.c_contiguous
        assert sorted(columns) == [0, 2, 4]
        assert np.array_equal(
            got.ranks, relation.p_skyline(text, algorithm="osdc").ranks)


def _weak_order(names, rng):
    """A prioritized chain of Pareto groups over two or more ``names``."""
    names = list(names)
    rng.shuffle(names)
    cuts = sorted(rng.sample(range(1, len(names)),
                             rng.randint(1, len(names) - 1)))
    groups = [names[a:b] for a, b in zip([0] + cuts,
                                         cuts + [len(names)])]
    return " & ".join("(" + " * ".join(group) + ")" for group in groups)


class TestAutoMatchesOsdc:
    """``auto`` may pick any plan, but its answer is ``osdc``'s."""

    def _case(self, seed):
        import random
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        names = [f"A{i}" for i in range(7)]
        used = rng.sample(names, rng.randint(2, 6))
        text = (_weak_order(used, rng) if seed % 3 == 0
                else str(random_expression(used, rng)))
        n = rng.randint(300, 3000)
        ranks = nrng.integers(0, rng.choice([3, 20, 1000]),
                              size=(n, 7)).astype(float)
        return ranks, names, text

    @pytest.mark.parametrize("seed", range(9))
    def test_relation_with_a_column_subset(self, seed):
        ranks, names, text = self._case(seed)
        relation = Relation.from_array(ranks, names=names)
        auto = p_skyline(relation, text, algorithm="auto")
        assert np.array_equal(
            auto.ranks, p_skyline(relation, text, algorithm="osdc").ranks)

    @pytest.mark.parametrize("seed", range(9))
    def test_raw_matrix(self, seed):
        ranks, _names, text = self._case(seed)
        if seed % 2:
            ranks.setflags(write=False)  # planned on (matrix, columns)
        assert np.array_equal(p_skyline(ranks, text, algorithm="auto"),
                              p_skyline(ranks, text, algorithm="osdc"))

    @pytest.mark.parametrize("seed", range(9))
    def test_sharded_snapshot_with_columns(self, seed, monkeypatch):
        # scatters
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        ranks, names, text = self._case(seed)
        relation = ShardedRelation.from_array(ranks, names=names,
                                              shards=3)
        planner = Planner(sharded_threshold=1000)
        auto = relation.p_skyline(text, planner=planner)
        expected = p_skyline(Relation.from_array(ranks, names=names),
                             text, algorithm="osdc")
        assert np.array_equal(auto.ranks, expected.ranks)


class TestAutoQuery:
    def test_auto_on_relation(self):
        from repro import Relation, lowest
        relation = Relation.from_records(
            [{"a": i % 5, "b": (i * 7) % 11} for i in range(300)],
            [lowest("a"), lowest("b")],
        )
        auto = p_skyline(relation, "a * b", algorithm="auto")
        explicit = p_skyline(relation, "a * b", algorithm="osdc")
        key = lambda r: (r["a"], r["b"])  # noqa: E731
        assert sorted(map(key, auto.to_records())) == \
            sorted(map(key, explicit.to_records()))

    def test_auto_on_matrix(self, nrng):
        ranks = nrng.random((3000, 3))
        auto = p_skyline(ranks, "A0 & (A1 * A2)", algorithm="auto")
        explicit = p_skyline(ranks, "A0 & (A1 * A2)", algorithm="osdc")
        assert auto.tolist() == explicit.tolist()


class TestPlanRecording:
    def test_execute_records_plan_in_stats_extra(self, nrng):
        from repro.algorithms import Stats
        planner = Planner()
        graph = PGraph.from_expression(parse("(A & B) * C"))
        stats = Stats()
        planner.execute(nrng.random((50, 3)), graph, stats=stats)
        plan = stats.extra["plan"]
        assert plan["algorithm"] == "naive"
        assert "50 tuples" in plan["reason"]
        assert plan["estimated_output"] is None

    def test_recorded_estimate_for_general_case(self, nrng):
        from repro.algorithms import Stats
        planner = Planner()
        graph = PGraph.from_expression(parse("(A & B) * C * D * E"))
        stats = Stats()
        planner.execute(nrng.random((5000, 5)), graph, stats=stats)
        plan = stats.extra["plan"]
        assert plan["algorithm"] == "osdc"
        assert plan["estimated_output"] is not None

    def test_plan_lands_in_trace(self, nrng):
        from repro.engine import ExecutionContext
        planner = Planner()
        graph = PGraph.from_expression(parse("(A & B) * C"))
        context = ExecutionContext.create(trace=True)
        planner.execute(nrng.random((50, 3)), graph, context=context)
        plans = [event for event in context.trace.events()
                 if event.phase == "plan"]
        assert len(plans) == 1
        assert plans[0].counters["chosen"] == "naive"

    def test_auto_query_records_plan(self, nrng):
        from repro.algorithms import Stats
        stats = Stats()
        p_skyline(nrng.random((2000, 3)), "A0 & (A1 * A2)",
                  algorithm="auto", stats=stats)
        assert stats.extra["plan"]["algorithm"] == "layered"
