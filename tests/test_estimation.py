"""Tests for output-size estimation (paper Section 8 / future work)."""

import numpy as np
import pytest

from conftest import random_expression
from repro.algorithms import osdc
from repro.core.dominance import Dominance
from repro.core.expressions import sky
from repro.core.pgraph import PGraph
from repro.estimation.cardinality import (estimate_pskyline_size,
                                          harmonic_skyline_size,
                                          harmonic_skyline_size_approx)


class TestHarmonic:
    def test_one_dimension_is_one(self):
        # with a single attribute only the minimum is maximal
        assert harmonic_skyline_size(100, 1) == pytest.approx(1.0)

    def test_two_dimensions_is_harmonic_number(self):
        expected = sum(1.0 / i for i in range(1, 101))
        assert harmonic_skyline_size(100, 2) == pytest.approx(expected)

    def test_monotone_in_d(self):
        values = [harmonic_skyline_size(1000, d) for d in range(1, 6)]
        assert values == sorted(values)

    def test_matches_simulation(self, nrng):
        """Buchta's expectation vs. the empirical mean skyline size."""
        n, d, trials = 300, 3, 60
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(sky(names), names=names)
        sizes = [osdc(nrng.random((n, d)), graph).size
                 for _ in range(trials)]
        empirical = float(np.mean(sizes))
        expected = harmonic_skyline_size(n, d)
        assert empirical == pytest.approx(expected, rel=0.2)

    def test_approximation_tracks_exact(self):
        for d in (2, 3, 4):
            exact = harmonic_skyline_size(100_000, d)
            approx = harmonic_skyline_size_approx(100_000, d)
            assert approx == pytest.approx(exact, rel=0.6)

    def test_edge_cases(self):
        assert harmonic_skyline_size(0, 3) == 0.0
        assert harmonic_skyline_size_approx(1, 3) == 1.0
        with pytest.raises(ValueError):
            harmonic_skyline_size(10, 0)


class TestSamplingEstimator:
    def test_exact_when_sample_is_everything(self, nrng):
        d = 3
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(sky(names), names=names)
        ranks = nrng.random((50, d))
        truth = osdc(ranks, graph).size
        estimate = estimate_pskyline_size(ranks, graph, nrng,
                                          sample_size=50)
        assert estimate == pytest.approx(truth)

    def test_reasonable_on_larger_input(self, nrng):
        d = 3
        names = [f"A{i}" for i in range(d)]
        graph = PGraph.from_expression(sky(names), names=names)
        ranks = nrng.random((4000, d))
        truth = osdc(ranks, graph).size
        estimates = [estimate_pskyline_size(ranks, graph, nrng,
                                            sample_size=400)
                     for _ in range(10)]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.75)

    def test_empty_input(self, nrng):
        graph = PGraph.from_expression(sky(["A"]), names=["A"])
        assert estimate_pskyline_size(np.empty((0, 1)), graph, nrng) == 0.0


def _per_row_estimate(ranks, graph, rng, sample_size=64):
    """The estimator as one ``dominators_mask`` pass per sampled row:
    the reference the windowed screen must reproduce bit for bit."""
    n = ranks.shape[0]
    if n == 0:
        return 0.0
    dominance = Dominance(graph)
    sample_size = min(sample_size, n)
    rows = rng.choice(n, size=sample_size, replace=False)
    maximal = sum(1 for row in rows
                  if not dominance.dominators_mask(ranks,
                                                   ranks[row]).any())
    return n * maximal / sample_size


def _case(seed, n, d, levels):
    """A seeded p-graph over ``d`` attributes and ``n`` rows drawn from
    ``levels`` values per column (few levels: ties and duplicates)."""
    import random
    names = [f"A{i}" for i in range(d)]
    graph = PGraph.from_expression(
        random_expression(names, random.Random(seed)), names=names)
    ranks = np.random.default_rng(seed).integers(
        0, levels, size=(n, d)).astype(float)
    return ranks, graph


#: Input sizes on and around every window boundary (256, 768 = 256 +
#: 512) and the per-row reference's boundary at 64 sampled rows.
WINDOW_SIZES = (1, 63, 64, 255, 256, 257, 767, 768, 769, 5000)


class TestWindowedEstimator:
    @pytest.mark.parametrize("n", WINDOW_SIZES)
    @pytest.mark.parametrize("levels", [2, 6, 1000])
    def test_bit_identical_to_per_row_reference(self, n, levels):
        for seed in range(3):
            ranks, graph = _case(seed, n, (2, 4, 6)[seed], levels)
            got = estimate_pskyline_size(ranks, graph,
                                         np.random.default_rng(seed))
            expected = _per_row_estimate(ranks, graph,
                                         np.random.default_rng(seed))
            assert got == expected, (n, levels, seed)

    def test_bit_identical_on_duplicate_rows(self):
        ranks, graph = _case(11, 300, 4, 1000)
        ranks = np.concatenate([ranks, ranks[:200], ranks[:50]])
        for seed in range(4):
            for sample_size in (64, 400):
                got = estimate_pskyline_size(
                    ranks, graph, np.random.default_rng(seed),
                    sample_size=sample_size)
                assert got == _per_row_estimate(
                    ranks, graph, np.random.default_rng(seed),
                    sample_size=sample_size)

    @pytest.mark.parametrize("position", [0, 255, 256, 767, 768, 999])
    def test_a_lone_dominator_on_a_window_edge_is_seen(self, position):
        # one row dominates every other: the scan must read each row
        ranks, graph = _case(position, 1000, 3, 1000)
        ranks += 1.0
        ranks[position] = 0.0
        for sample_size in (64, 1000):
            got = estimate_pskyline_size(ranks, graph,
                                         np.random.default_rng(position),
                                         sample_size=sample_size)
            assert got == _per_row_estimate(
                ranks, graph, np.random.default_rng(position),
                sample_size=sample_size)
        assert got == 1.0

    @pytest.mark.parametrize("n", [100, 769, 5000])
    def test_columns_match_the_projection(self, n):
        base, _ = _case(n, n, 7, 5)
        columns = [5, 0, 3, 6]
        _, graph = _case(n, 1, len(columns), 5)
        got = estimate_pskyline_size(base, graph, np.random.default_rng(n),
                                     columns=columns)
        expected = estimate_pskyline_size(
            base[:, columns], graph, np.random.default_rng(n))
        assert got == expected

    @pytest.mark.parametrize("n", [1, 255, 257, 769, 2000])
    def test_exact_when_sample_covers_the_input(self, n):
        ranks, graph = _case(n, n, 5, 4)
        estimate = estimate_pskyline_size(ranks, graph,
                                          np.random.default_rng(0),
                                          sample_size=n + 3)
        assert estimate == osdc(ranks, graph).size


class TestExtrapolation:
    def test_ballpark_on_ci_skyline(self, nrng):
        from repro.estimation.cardinality import estimate_by_extrapolation
        names = [f"A{i}" for i in range(3)]
        graph = PGraph.from_expression(sky(names), names=names)
        ranks = nrng.random((8000, 3))
        truth = osdc(ranks, graph).size
        estimate = estimate_by_extrapolation(ranks, graph, nrng)
        assert 0.3 * truth < estimate < 3.0 * truth

    def test_tiny_output_detected(self, nrng):
        from repro.core.parser import parse
        from repro.estimation.cardinality import estimate_by_extrapolation
        names = [f"A{i}" for i in range(3)]
        graph = PGraph.from_expression(parse(" & ".join(names)),
                                       names=names)
        ranks = nrng.random((8000, 3))  # lexicographic: v = 1
        estimate = estimate_by_extrapolation(ranks, graph, nrng)
        assert estimate < 20

    def test_empty_input(self, nrng):
        from repro.estimation.cardinality import estimate_by_extrapolation
        graph = PGraph.from_expression(sky(["A"]), names=["A"])
        assert estimate_by_extrapolation(np.empty((0, 1)), graph,
                                         nrng) == 0.0
