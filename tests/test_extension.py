"""Tests for the weak-order extension ``≻ext`` (Section 6, Theorem 3)."""

import numpy as np
import pytest

from conftest import random_expression
from repro.core.dominance import Dominance
from repro.core.extension import ExtensionOrder
from repro.core.parser import parse
from repro.core.pgraph import PGraph


class TestKeys:
    def test_depth_buckets(self):
        graph = PGraph.from_expression(parse("A & (B * C) & D"))
        extension = ExtensionOrder(graph)
        assert extension.levels == 3
        ranks = np.array([[1.0, 2.0, 3.0, 4.0]])
        keys = extension.keys(ranks)
        assert keys.tolist() == [[1.0, 5.0, 4.0]]

    def test_skyline_has_single_level(self):
        graph = PGraph.from_expression(parse("A * B * C"))
        extension = ExtensionOrder(graph)
        assert extension.levels == 1
        keys = extension.keys(np.array([[1.0, 2.0, 3.0]]))
        assert keys.tolist() == [[6.0]]


    @pytest.mark.parametrize("width", range(1, 13))
    def test_keys_match_the_gathered_sum_bit_for_bit(self, width):
        # the level sums add column views; the reference gathers the
        # level's columns and sums them, as the keys were first built
        names = [f"A{j}" for j in range(width + 1)]
        pareto = " * ".join(names[1:])
        graph = PGraph.from_expression(parse(f"A0 & ({pareto})"),
                                       names=names)
        extension = ExtensionOrder(graph)
        rng = np.random.default_rng(width)
        ranks = rng.normal(size=(500, width + 1)) \
            * 10.0 ** rng.uniform(-8, 8, size=(500, width + 1))
        ranks[0] = -0.0  # signed zeros sum to +0.0
        ranks[1, ::2] = -0.0
        ranks[2, 1::2] = 0.0
        strided = np.asfortranarray(ranks)
        depths = np.array(graph.depths)
        reference = np.column_stack([ranks[:, depths == level].sum(axis=1)
                                     for level in range(extension.levels)])
        for matrix in (ranks, strided):
            keys = extension.keys(matrix)
            assert keys.tobytes() == reference.tobytes()
            for level in range(extension.levels):
                assert extension.key(matrix, level).tobytes() == \
                    reference[:, level].tobytes()


class TestTheorem3:
    """If ``u ≻_pi v`` then ``u ≻ext v`` -- on random inputs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_extension_contains_preference(self, seed, rng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(1, 7)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        dominance = Dominance(graph)
        extension = ExtensionOrder(graph)
        ranks = nrng.integers(0, 4, size=(30, d)).astype(float)
        for i in range(ranks.shape[0]):
            for j in range(ranks.shape[0]):
                if dominance.dominates(ranks[i], ranks[j]):
                    assert extension.strictly_precedes(ranks[i], ranks[j])

    def test_extension_is_weak_order(self, rng, nrng):
        # transitivity of indifference: equal key vectors
        d = 4
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        extension = ExtensionOrder(graph)
        ranks = nrng.integers(0, 2, size=(20, d)).astype(float)
        keys = extension.keys(ranks)
        for i in range(20):
            for j in range(20):
                u_precedes = extension.strictly_precedes(ranks[i], ranks[j])
                key_less = tuple(keys[i]) < tuple(keys[j])
                assert u_precedes == key_less


class TestArgsort:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_tuple_dominated_by_later(self, seed, rng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(2, 6)
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(random_expression(names, rng),
                                       names=names)
        dominance = Dominance(graph)
        extension = ExtensionOrder(graph)
        ranks = nrng.integers(0, 3, size=(40, d)).astype(float)
        order = extension.argsort(ranks)
        assert sorted(order.tolist()) == list(range(40))
        for a in range(40):
            for b in range(a + 1, 40):
                assert not dominance.dominates(ranks[order[b]],
                                               ranks[order[a]])

    def test_argsort_is_stable(self):
        graph = PGraph.from_expression(parse("A"))
        extension = ExtensionOrder(graph)
        ranks = np.array([[1.0], [0.0], [1.0], [0.0]])
        assert extension.argsort(ranks).tolist() == [1, 3, 0, 2]
