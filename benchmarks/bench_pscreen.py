"""Micro-benchmarks of the p-screening machinery (Section 4).

Compares the recursive PSCREEN (with the Lemma 3/4 low-dimensional base
cases) against the quadratic block screen, and benchmarks the scalar
components the divide-and-conquer algorithms rely on.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms.pscreen import PScreener
from repro.core.bitsets import iter_bits
from repro.core.dominance import Dominance
from repro.core.extension import ExtensionOrder
from repro.sampling.random_pexpr import PExpressionSampler


@pytest.fixture(scope="module")
def screening_problem():
    rng = random.Random(17)
    data_rng = np.random.default_rng(17)
    d = 6
    sampler = PExpressionSampler([f"A{i}" for i in range(d)])
    graph = sampler.sample_graph(rng)
    ranks = np.round(data_rng.normal(size=(10_000, d)), 2)
    root = next(iter_bits(graph.roots))
    column = ranks[:, root]
    tau = float(np.median(column))
    if tau == column.min():
        tau = float(column[column > column.min()].min())
    b_idx = np.flatnonzero(column < tau)
    w_idx = np.flatnonzero(column >= tau)
    return ranks, graph, b_idx, w_idx


def test_pscreen_recursive(benchmark, screening_problem):
    ranks, graph, b_idx, w_idx = screening_problem
    screener = PScreener(graph)
    benchmark.group = "pscreen 10k rows"
    result = benchmark.pedantic(
        lambda: screener.screen(ranks, b_idx, w_idx).size,
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["survivors"] = result


def test_pscreen_quadratic(benchmark, screening_problem):
    ranks, graph, b_idx, w_idx = screening_problem
    dominance = Dominance(graph)
    benchmark.group = "pscreen 10k rows"
    result = benchmark.pedantic(
        lambda: int(dominance.screen_block(ranks[w_idx],
                                           ranks[b_idx]).sum()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["survivors"] = result


def test_extension_sort(benchmark, screening_problem):
    ranks, graph, _, _ = screening_problem
    extension = ExtensionOrder(graph)
    benchmark.group = "presort"
    benchmark.pedantic(lambda: extension.argsort(ranks),
                       rounds=3, iterations=1, warmup_rounds=1)
