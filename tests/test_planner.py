"""Tests for the cost-based planner and ``algorithm='auto'``."""

import numpy as np
import pytest

from conftest import random_expression
from repro.algorithms import naive
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.core.query import p_skyline
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

    def test_selective_query_goes_bnl(self, nrng):
        planner = Planner()
        # not a weak order, but still a nearly-singleton output
        graph = PGraph.from_expression(parse("(A & B & C) * D"))
        ranks = nrng.random((5000, 4))
        ranks[:, 3] = 0.0  # constant: the lexicographic part decides
        plan = planner.plan(ranks, graph)
        assert plan.algorithm == "bnl"
        assert plan.estimated_output is not None

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

    def test_serial_plan_projects_columns_once(self, monkeypatch, nrng):
        # the estimator and the chosen algorithm read one projection
        import repro.planner as planner_module
        from repro.algorithms import base

        seen = []
        estimate, get_algorithm = (planner_module.estimate_pskyline_size,
                                   base.get_algorithm)

        def spy_estimate(ranks, graph, rng, **kwargs):
            seen.append(ranks)
            return estimate(ranks, graph, rng, **kwargs)

        def spy_get_algorithm(name):
            function = get_algorithm(name)

            def run(ranks, graph, **kwargs):
                seen.append(ranks)
                return function(ranks, graph, **kwargs)
            return run

        monkeypatch.setattr(planner_module, "estimate_pskyline_size",
                            spy_estimate)
        monkeypatch.setattr(base, "get_algorithm", spy_get_algorithm)
        graph = PGraph.from_expression(parse("(A & B) * C"))
        ranks = nrng.integers(0, 20, size=(3000, 5)).astype(float)
        got = Planner(parallel_threshold=None).execute(ranks, graph,
                                                       columns=[4, 0, 2])
        assert len(seen) == 2 and seen[0] is seen[1]
        assert np.array_equal(seen[0], ranks[:, [4, 0, 2]])
        assert set(got.tolist()) == set(
            naive(ranks[:, [4, 0, 2]], graph).tolist())

    def test_plan_dataclass(self):
        plan = Plan("osdc", "why", estimated_output=12.0)
        assert "osdc" in plan.explain() and "12" in plan.explain()


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
        assert plan["algorithm"] in ("bnl", "osdc")
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
