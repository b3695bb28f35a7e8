"""Tests for the weak-order LAYERED evaluator."""

import numpy as np
import pytest

from conftest import random_expression
from repro.algorithms import (NotAWeakOrderError, Stats, layered, naive,
                              osdc, weak_order_layers)
from repro.core.parser import parse
from repro.core.pgraph import PGraph


class TestLayers:
    def test_skyline_is_one_layer(self):
        graph = PGraph.from_expression(parse("A * B * C"))
        assert weak_order_layers(graph) == [[0, 1, 2]]

    def test_lexicographic_is_singleton_layers(self):
        graph = PGraph.from_expression(parse("A & B & C"))
        assert weak_order_layers(graph) == [[0], [1], [2]]

    def test_mixed_layers(self):
        graph = PGraph.from_expression(parse("A & (B * C) & D"))
        assert weak_order_layers(graph) == [[0], [1, 2], [3]]

    def test_non_weak_order_rejected(self):
        graph = PGraph.from_expression(parse("(A & B) * C"))
        with pytest.raises(NotAWeakOrderError):
            weak_order_layers(graph)


class TestCorrectness:
    @pytest.mark.parametrize("text", [
        "A", "A * B", "A & B", "A & (B * C)", "(A * B) & C",
        "A & (B * C) & D", "(A * B) & (C * D)", "A & B & C & D",
        "A * B * C * D",
    ])
    @pytest.mark.parametrize("domain", [2, 4, 100])
    def test_matches_oracle(self, text, domain, nrng):
        expr = parse(text)
        graph = PGraph.from_expression(expr)
        for n in (1, 7, 120):
            ranks = nrng.integers(0, domain,
                                  size=(n, graph.d)).astype(float)
            expected = set(naive(ranks, graph).tolist())
            got = set(layered(ranks, graph).tolist())
            assert got == expected, (text, n, domain)

    def test_random_weak_orders(self, rng, nrng):
        checked = 0
        while checked < 40:
            d = rng.randint(1, 6)
            names = [f"A{i}" for i in range(d)]
            graph = PGraph.from_expression(random_expression(names, rng),
                                           names=names)
            if not graph.is_weak_order():
                continue
            checked += 1
            ranks = nrng.integers(0, 3,
                                  size=(rng.randint(1, 200), d)
                                  ).astype(float)
            assert set(layered(ranks, graph).tolist()) == \
                set(naive(ranks, graph).tolist())

    def test_empty_input(self):
        graph = PGraph.from_expression(parse("A & B"))
        assert layered(np.empty((0, 2)), graph).size == 0

    def test_non_weak_order_raises(self, nrng):
        graph = PGraph.from_expression(parse("(A & B) * C"))
        with pytest.raises(NotAWeakOrderError):
            layered(nrng.random((5, 3)), graph)

    def test_stats_count_layer_passes(self, nrng):
        graph = PGraph.from_expression(parse("A & (B * C)"))
        ranks = np.column_stack([
            np.zeros(50),                   # all tie on the top layer
            nrng.integers(0, 4, 50),
            nrng.integers(0, 4, 50),
        ]).astype(float)
        stats = Stats()
        layered(ranks, graph, stats=stats)
        assert stats.passes >= 2  # both layers inspected


def _weak_order_text(layers) -> str:
    """``layers`` (lists of names, most important first) as a
    prioritized chain of Pareto groups."""
    return " & ".join("(" + " * ".join(layer) + ")" for layer in layers)


def _random_layers(rng, d: int, top_singleton: bool) -> list[list[str]]:
    names = [f"A{i}" for i in range(d)]
    rng.shuffle(names)
    if top_singleton:
        head, names = [[names[0]]], names[1:]
    else:
        head = []
    layers, start = [], 0
    while start < len(names):
        size = rng.randint(1, min(3, len(names) - start))
        layers.append(names[start:start + size])
        start += size
    return head + layers


class TestAgainstOsdc:
    """``layered`` is exact on weak orders with heavy ties: domains
    {0, 1, 2}."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_weak_orders(self, seed):
        import random
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        for _ in range(10):
            d = rng.randint(2, 6)
            layers = _random_layers(rng, d, top_singleton=seed % 2 == 0)
            text = _weak_order_text(layers)
            graph = PGraph.from_expression(parse(text),
                                           names=[f"A{i}" for i in range(d)])
            assert graph.is_weak_order()
            ranks = nrng.integers(0, 3, size=(rng.randint(2, 600), d)
                                  ).astype(float)
            assert np.array_equal(layered(ranks, graph, leaf_size=8),
                                  osdc(ranks, graph)), text

    @pytest.mark.parametrize("text", [
        "A & B & C & D", "A & (B * C) & D", "(A * B) & C & D",
        "(A * B) & (C * D) & E", "A & (B * C * D) & E",
        "(A * B) & C & (D * E)",
    ])
    def test_singleton_layers_at_every_depth(self, text, nrng):
        graph = PGraph.from_expression(parse(text))
        for n in (2, 40, 500):
            ranks = nrng.integers(0, 3, size=(n, graph.d)).astype(float)
            assert np.array_equal(layered(ranks, graph, leaf_size=8),
                                  osdc(ranks, graph)), (text, n)

    @pytest.mark.parametrize("text", ["A & B & C", "A & (B * C)",
                                      "A & (B * C) & D"])
    def test_singleton_top_layer_where_every_row_ties(self, text, nrng):
        graph = PGraph.from_expression(parse(text))
        ranks = nrng.integers(0, 3, size=(400, graph.d)).astype(float)
        ranks[:, 0] = 1.0
        stats = Stats()
        got = layered(ranks, graph, stats=stats)
        assert np.array_equal(got, osdc(ranks, graph))
        assert stats.passes >= 2  # the ties carried on past the top

    def test_columns_of_a_base_matrix(self, nrng):
        """Over ``columns`` the answer is the projection's, and a
        one-attribute layer reads its column in place."""
        graph = PGraph.from_expression(parse("A & (B * C) & D"))
        base = nrng.integers(0, 3, size=(300, 6)).astype(float)
        columns = [4, 0, 5, 2]
        assert np.array_equal(layered(base, graph, columns=columns),
                              layered(base[:, columns], graph))


class TestPlannerRule:
    def test_one_layer_weak_orders_never_plan_layered(self, nrng,
                                                      monkeypatch):
        from repro.engine import pool as pool_module
        from repro.planner import Planner
        for cores in (1, 2):
            monkeypatch.setattr(pool_module, "usable_cores",
                                lambda cores=cores: cores)
            for threshold in (None, 1_000, 5_000):
                planner = Planner(parallel_threshold=threshold)
                for text in ("A * B", "A * B * C", "A * B * C * D"):
                    graph = PGraph.from_expression(parse(text))
                    assert graph.is_weak_order()
                    for n in (200, 1_000, 3_000):
                        ranks = nrng.random((n, graph.d))
                        assert planner.plan(ranks, graph).algorithm \
                            != "layered", (text, n, threshold)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_multi_layer_weak_orders_plan_layered_past_the_threshold(
            self, cores, nrng, monkeypatch):
        from repro.engine import pool as pool_module
        from repro.planner import Planner
        monkeypatch.setattr(pool_module, "usable_cores", lambda: cores)
        planner = Planner(parallel_threshold=2_000)
        for text in ("A & B", "A & (B * C)", "(A * B) & C & D"):
            graph = PGraph.from_expression(parse(text))
            for n in (1_999, 2_000, 4_000):
                ranks = nrng.random((n, graph.d))
                assert planner.plan(ranks, graph).algorithm == "layered"
