"""Dominance semantics tests (Proposition 1).

The key test validates the bitmask/p-graph dominance machinery against
``semantic_compare`` -- a direct recursive evaluation of the Pareto and
prioritized accumulation *definitions* of Section 2.1, independent of
p-graphs.
"""

import random
import time

import numpy as np
import pytest

import repro.core.dominance as dominance_module
from conftest import as_dicts, random_expression, semantic_compare
from repro.core.dominance import (Dominance, _lease_workspace,
                                  screen_block_multi)
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.engine.context import CancellationToken, ExecutionContext
from repro.engine.errors import QueryCancelled, QueryTimeout
from repro.sampling.random_pexpr import PExpressionSampler


def oracle_pair(expr_text, u_values, v_values):
    expr = parse(expr_text)
    names = expr.attributes()
    graph = PGraph.from_expression(expr)
    dom = Dominance(graph)
    u = np.array(u_values, dtype=float)
    v = np.array(v_values, dtype=float)
    return dom, expr, names, u, v


class TestPaperExample1:
    """The four cars of Example 1; T encoded as manual=0 < automatic=1."""

    CARS = {
        1: (11500, 50000, 1),
        2: (11500, 60000, 0),
        3: (12000, 50000, 0),
        4: (12000, 60000, 0 + 1),
    }

    def maximal(self, expr_text):
        expr = parse(expr_text)
        graph = PGraph.from_expression(expr, names=["P", "M", "T"])
        dom = Dominance(graph)
        rows = {k: np.array(v, dtype=float) for k, v in self.CARS.items()}
        return {
            k for k, t in rows.items()
            if not any(dom.dominates(t2, t) for k2, t2 in rows.items()
                       if k2 != k)
        }

    def test_price_only_ignores_other_attributes(self):
        # P alone: t1, t2 share the best price; M, T are irrelevant but the
        # graph here spans only Var(pi)={P} -- emulate by full projection
        expr = parse("P")
        graph = PGraph.from_expression(expr)
        dom = Dominance(graph)
        prices = {k: np.array([v[0]], dtype=float)
                  for k, v in self.CARS.items()}
        maximal = {k for k, t in prices.items()
                   if not any(dom.dominates(o, t)
                              for k2, o in prices.items() if k2 != k)}
        assert maximal == {1, 2}

    def test_expression_2(self):
        assert self.maximal("(P * M) & T") == {1}

    def test_expression_3(self):
        assert self.maximal("(P & T) * M") == {1, 2}

    def test_expression_4(self):
        assert self.maximal("M & T & P") == {3}


class TestScalarKernels:
    def test_indistinguishable(self):
        dom, _, _, u, v = oracle_pair("A * B", (1, 2), (1, 2))
        assert dom.indistinguishable(u, v)
        assert not dom.dominates(u, v)
        assert dom.compare(u, v) == "="

    def test_pareto_incomparable(self):
        dom, _, _, u, v = oracle_pair("A * B", (1, 2), (2, 1))
        assert dom.compare(u, v) == "~"

    def test_prioritized_overrides(self):
        dom, _, _, u, v = oracle_pair("A & B", (1, 9), (2, 0))
        assert dom.compare(u, v) == ">"

    def test_better_masks(self):
        dom, _, _, u, v = oracle_pair("A * B * C", (1, 5, 3), (2, 4, 3))
        b_uv, b_vu = dom.better_masks(u, v)
        assert b_uv == 0b001
        assert b_vu == 0b010

    def test_top_mask(self):
        # Example 2 graph; disagree on W and T: only W is topmost since
        # W is an ancestor of T
        graph = PGraph.from_expression(parse("M & ((D & W) * P) & (T * H)"))
        dom = Dominance(graph)
        names = graph.names
        u = np.zeros(6)
        v = np.zeros(6)
        v[names.index("W")] = 1
        v[names.index("T")] = 1
        top = dom.top_mask(u, v)
        assert top == 1 << names.index("W")


class TestAgainstDefinitions:
    """Proposition 1 machinery == direct evaluation of the definitions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_expressions_and_tuples(self, seed, rng, nrng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        for _ in range(25):
            d = rng.randint(1, 6)
            names = [f"A{i}" for i in range(d)]
            expr = random_expression(names, rng)
            graph = PGraph.from_expression(expr, names=names)
            dom = Dominance(graph)
            ranks = nrng.integers(0, 3, size=(12, d)).astype(float)
            dicts = as_dicts(ranks, names)
            for i in range(len(ranks)):
                for j in range(len(ranks)):
                    if i == j:
                        continue
                    expected = semantic_compare(expr, dicts[i], dicts[j])
                    got = dom.compare(ranks[i], ranks[j])
                    assert got == expected, (str(expr), i, j)


class TestBulkKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_masks_match_scalar(self, seed, rng):
        rng.seed(seed)
        nrng = np.random.default_rng(seed)
        d = rng.randint(1, 7)
        names = [f"A{i}" for i in range(d)]
        expr = random_expression(names, rng)
        graph = PGraph.from_expression(expr, names=names)
        dom = Dominance(graph)
        block = nrng.integers(0, 4, size=(40, d)).astype(float)
        target = block[0]
        dominators = dom.dominators_mask(block, target)
        dominated = dom.dominated_mask(block, target)
        for i in range(block.shape[0]):
            assert dominators[i] == dom.dominates(block[i], target)
            assert dominated[i] == dom.dominates(target, block[i])

    def test_screen_block_matches_pairwise(self, rng, nrng):
        d = 4
        names = [f"A{i}" for i in range(d)]
        expr = random_expression(names, rng)
        graph = PGraph.from_expression(expr, names=names)
        dom = Dominance(graph)
        block = nrng.integers(0, 3, size=(30, d)).astype(float)
        against = nrng.integers(0, 3, size=(25, d)).astype(float)
        survivors = dom.screen_block(block, against, chunk=7)
        for i in range(block.shape[0]):
            expected = not any(dom.dominates(against[j], block[i])
                               for j in range(against.shape[0]))
            assert survivors[i] == expected

    def test_screen_block_empty_inputs(self):
        graph = PGraph.from_expression(parse("A * B"))
        dom = Dominance(graph)
        empty = np.empty((0, 2))
        block = np.ones((3, 2))
        assert dom.screen_block(block, empty).all()
        assert dom.screen_block(empty, block).shape == (0,)

    def test_any_dominator(self):
        graph = PGraph.from_expression(parse("A & B"))
        dom = Dominance(graph)
        block = np.array([[2.0, 2.0], [1.0, 9.0]])
        assert dom.any_dominator(block, np.array([2.0, 3.0]))
        assert not dom.any_dominator(block, np.array([0.0, 0.0]))


# -- chunked screening: interruption, workspace leases, fused replay ---------

def sample_graph(d: int, seed: int = 0):
    rng = random.Random(f"threads:{d}:{seed}")
    sampler = PExpressionSampler([f"A{i}" for i in range(d)],
                                 method="counting")
    return sampler.sample_graph(rng)


def _case(d: int, n: int, m: int, seed: int = 0):
    graph = sample_graph(d, seed)
    rng = np.random.default_rng(seed * 31 + d)
    block = rng.integers(0, 4, size=(n, d)).astype(float)
    against = np.vstack([block[: m // 2],
                         rng.normal(size=(m - m // 2, d)).round(1)])
    return Dominance(graph).prepare(), block, against


def test_deadline_honoured_between_chunks():
    dominance, block, against = _case(5, 400, 400)
    context = ExecutionContext(deadline=time.monotonic() - 1.0)
    with pytest.raises(QueryTimeout):
        dominance.screen_block(block, against, chunk=16,
                               check=context.check)


def test_cancel_honoured_mid_screen_between_chunks():
    dominance, block, against = _case(5, 400, 400)
    token = CancellationToken()
    context = ExecutionContext(cancel=token)
    calls = [0]

    def check(phase):
        calls[0] += 1
        if calls[0] > 3:
            token.cancel()
        context.check(phase)

    with pytest.raises(QueryCancelled):
        dominance.screen_block(block, against, chunk=16, check=check)
    assert calls[0] > 3


def test_nested_leases_are_distinct_arenas():
    with _lease_workspace() as outer:
        with _lease_workspace() as inner:
            assert inner is not outer
            a = outer.get("buv", (4, 4), np.uint32)
            b = inner.get("buv", (4, 4), np.uint32)
            assert not np.shares_memory(a, b)
    # steady state re-leases a warm arena instead of allocating
    with _lease_workspace() as warm:
        assert warm in (outer, inner)


def test_reentrant_screen_inside_check_callback(monkeypatch):
    """Regression: a screen nested inside a ``check`` callback used to
    share the single per-thread workspace with the outer screen,
    clobbering its live ``buv``/``bvu``/``dom`` buffers.  Leasing gives
    the nested entry a distinct arena, so the outer answer is unchanged.
    """
    monkeypatch.setattr(dominance_module, "AGAINST_CHUNK", 16)
    dominance, block, against = _case(6, 120, 200)
    other, other_block, other_against = _case(6, 40, 60, seed=3)
    expected = dominance.screen_block(block, against, chunk=8)

    def nosy_check(phase):
        other.screen_block(other_block, other_against, chunk=8)

    got = dominance.screen_block(block, against, chunk=8,
                                 check=nosy_check)
    assert np.array_equal(expected, got)


@pytest.mark.parametrize("backend", ["bitmask"])
def test_screen_block_multi_exact_counters(backend):
    """One packing per ``(block, against)`` chunk pair and one replay per
    still-active graph: 150 rows in chunks of 32 pack 5 blocks once each
    and replay them for the other two graphs."""
    graphs = [sample_graph(6, seed) for seed in range(3)]
    dominances = [Dominance(g).prepare() for g in graphs]
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 3, size=(150, 6)).astype(float)
    counters = {}
    masks = screen_block_multi(dominances, rows, chunk=32,
                               counters=counters)
    for dominance, mask in zip(dominances, masks):
        assert np.array_equal(mask, dominance.screen_block(rows, rows))
    assert counters == {"kernel": backend, "mask_misses": 5,
                        "mask_hits": 10}
