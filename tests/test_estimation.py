"""Tests for output-size estimation (paper Section 8 / future work)."""

import numpy as np
import pytest

from repro.algorithms import osdc
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
