"""Metamorphic transforms: correct algorithms pass, mutants get caught.

The mutation smoke-checks pair every transform with a deliberately
injected dominance bug of the kind that transform is designed to expose:

=================  =====================================================
transform          mutant it catches
=================  =====================================================
shuffle            prefix-window scan (only compares against earlier
                   rows, i.e. order-dependent results)
duplicate          drops duplicate rows before evaluating
monotone-rescale   sum-based dominance (compares attribute sums)
relabel            hard-coded column-order chain (ignores the p-graph)
append-dominated   unconditionally includes the last tuple
pool-chunked       a worker pool that skips its merge tree (returns the
                   union of the chunk skylines)
kernel-gemm        a GEMM flag path that never flags the last
                   ``against`` row (the oracle's bitmask kernel is
                   unaffected)
=================  =====================================================
"""

import random

import numpy as np
import pytest

from repro.algorithms import REGISTRY, naive
from repro.algorithms.osdc import osdc
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.verify.metamorphic import (TRANSFORMS, permute_graph,
                                      run_transform)


# -- deliberately broken algorithms (uniform registry signature) ------------

def mutant_prefix_window(ranks, graph, *, stats=None, **options):
    """Keeps any row not dominated by an *earlier* row: order-dependent."""
    from repro.core.dominance import Dominance
    dominance = Dominance(graph)
    kept: list[int] = []
    for row in range(ranks.shape[0]):
        if not kept or not dominance.dominators_mask(
                ranks[np.asarray(kept, dtype=np.intp)],
                ranks[row]).any():
            kept.append(row)
    return np.asarray(kept, dtype=np.intp)


def mutant_drop_duplicates(ranks, graph, *, stats=None, **options):
    """Deduplicates rows first; copies of maximal rows go missing."""
    _, first = np.unique(ranks, axis=0, return_index=True)
    unique_rows = np.sort(first)
    local = naive(ranks[unique_rows], graph)
    return np.sort(unique_rows[local])


def mutant_sum_dominance(ranks, graph, *, stats=None, **options):
    """'Dominates' means a strictly smaller attribute sum."""
    sums = ranks.sum(axis=1)
    return np.flatnonzero(sums == sums.min())


def mutant_column_chain(ranks, graph, *, stats=None, **options):
    """Ignores the p-graph: prioritized chain in raw column order."""
    best = ranks[np.lexsort(ranks.T[::-1])[0]]
    return np.flatnonzero((ranks == best).all(axis=1))


def mutant_include_last(ranks, graph, *, stats=None, **options):
    """Correct result plus, always, the final tuple."""
    result = set(naive(ranks, graph).tolist())
    if ranks.shape[0]:
        result.add(ranks.shape[0] - 1)
    return np.sort(np.asarray(sorted(result), dtype=np.intp))


def _catches(transform_name, mutant, ranks, graph, seeds=range(8)):
    """Does the transform expose the mutant under at least one seed?"""
    transform = TRANSFORMS[transform_name]
    return any(
        run_transform(transform, ranks, graph, mutant,
                      random.Random(seed), algorithm="mutant")
        for seed in seeds
    )


def _anti_correlated(n=6):
    # every row maximal under A * B: duplicating any row must show up
    return np.array([[float(i), float(n - 1 - i)] for i in range(n)])


class TestMutantsAreCaught:
    def test_shuffle_catches_order_dependence(self):
        ranks = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        graph = PGraph.from_expression(parse("A * B"))
        assert _catches("shuffle", mutant_prefix_window, ranks, graph)

    def test_duplicate_catches_deduplication(self):
        ranks = _anti_correlated()
        graph = PGraph.from_expression(parse("A * B"))
        assert _catches("duplicate", mutant_drop_duplicates, ranks, graph)

    def test_monotone_rescale_catches_sum_dominance(self):
        ranks = np.array([[0.0, 3.0], [2.0, 0.0], [1.0, 1.0]])
        graph = PGraph.from_expression(parse("A * B"))
        assert _catches("monotone-rescale", mutant_sum_dominance,
                        ranks, graph)

    def test_relabel_catches_hardcoded_column_order(self):
        ranks = np.array([[0.0, 3.0], [1.0, 2.0], [3.0, 0.0]])
        graph = PGraph.from_expression(parse("A & B"))
        assert _catches("relabel", mutant_column_chain, ranks, graph)

    def test_append_dominated_catches_always_include_last(self):
        ranks = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = PGraph.from_expression(parse("A * B"))
        assert _catches("append-dominated", mutant_include_last,
                        ranks, graph)


    def test_pool_chunked_catches_a_skipped_merge(self, monkeypatch):
        from repro.engine.pool import WorkerPool

        def union_of_chunks(pool, query_id, parts, *args):
            return [np.concatenate(parts)], 0

        monkeypatch.setattr(WorkerPool, "_tree_merge", union_of_chunks)
        # the last row dominates every other: each chunk keeps its own
        # best row, and only the merge removes the first chunk's
        ranks = np.array([[float(i), float(i)] for i in range(40)])[::-1]
        graph = PGraph.from_expression(parse("A * B"))
        assert _catches("pool-chunked", osdc, ranks, graph, seeds=[0])

    def test_kernel_gemm_catches_a_dropped_against_row(self, monkeypatch):
        from repro.core.dominance import Dominance

        # the last row dominates every other: OSDC keeps only it
        ranks = np.array([[float(i), float(i)] for i in range(40)])[::-1]
        graph = PGraph.from_expression(parse("A * B"))
        assert not _catches("kernel-gemm", osdc, ranks, graph, seeds=[0])
        pair_flags = Dominance._pair_flags

        def blind_to_last_row(self, block, against, kernel, arena=None):
            flags = pair_flags(self, block, against, kernel, arena)
            if kernel == "gemm":
                flags = flags.copy()
                flags[:, -1] = False
            return flags

        monkeypatch.setattr(Dominance, "_pair_flags", blind_to_last_row)
        assert _catches("kernel-gemm", osdc, ranks, graph, seeds=[0])
        # the mutant lives in the gemm family only: the bitmask axis,
        # whose oracle and transformed run share one kernel, passes
        assert not _catches("kernel-bitmask", osdc, ranks, graph,
                            seeds=[0])


class TestCorrectAlgorithmsPass:
    @pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
    def test_osdc_satisfies_every_relation(self, transform_name):
        rng = random.Random(5)
        nrng = np.random.default_rng(5)
        transform = TRANSFORMS[transform_name]
        for trial in range(6):
            d = rng.randint(1, 4)
            names = [f"A{i}" for i in range(d)]
            from repro.sampling.exact_counting import ExactUniformSampler
            graph = ExactUniformSampler(names).sample_graph(rng)
            ranks = nrng.integers(0, 5, size=(40, d)).astype(float)
            assert run_transform(transform, ranks, graph, osdc, rng,
                                 algorithm="osdc") == []

    def test_every_registered_algorithm_passes_once(self):
        rng = random.Random(17)
        graph = PGraph.from_expression(parse("A & (B * C)"))
        nrng = np.random.default_rng(17)
        ranks = nrng.integers(0, 4, size=(60, 3)).astype(float)
        for transform in TRANSFORMS.values():
            for name, function in sorted(REGISTRY.items()):
                assert run_transform(transform, ranks, graph, function,
                                     random.Random(1),
                                     algorithm=name) == [], \
                    (transform.name, name)


class TestPermuteGraph:
    def test_isomorphism_preserves_structure(self):
        graph = PGraph.from_expression(parse("A & (B * C)"))
        sigma = [2, 0, 1]
        permuted = permute_graph(graph, sigma)
        assert permuted.names == tuple(graph.names[i] for i in sigma)
        assert sorted(len(bin(m).replace("0b", "").replace("0", ""))
                      for m in permuted.closure) == \
            sorted(len(bin(m).replace("0b", "").replace("0", ""))
                   for m in graph.closure)
        # applying the inverse permutation restores the original
        inverse = [sigma.index(i) for i in range(3)]
        assert permute_graph(permuted, inverse) == graph

    def test_rejects_non_permutations(self):
        graph = PGraph.from_expression(parse("A * B"))
        with pytest.raises(ValueError):
            permute_graph(graph, [0, 0])
