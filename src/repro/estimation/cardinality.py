"""Output-size estimation for (p-)skyline queries.

Section 8 of the paper asks whether the expected output size of a
p-skyline query can be predicted and used to choose the evaluation
algorithm case by case.  This module provides:

* the classical CI skyline cardinality ``E|M_sky| = H_{d-1,n}`` (Buchta,
  Observation 2), computed exactly by the generalised-harmonic recurrence
  and approximated by ``(ln n)^{d-1} / (d-1)!``;
* a sampling-based estimator for arbitrary p-expressions and data, based
  on the identity ``E|M_pi(D)| = n * P(t maximal)``, with ``P`` estimated
  by screening a random sample against the whole data set in growing
  row windows;
* a power-law extrapolation from exact skylines of small subsamples.

:class:`repro.planner.Planner` records the sampling estimate with every
``osdc`` plan (``Plan.estimated_output``); it does not choose by it.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.dominance import Dominance
from ..core.pgraph import PGraph

__all__ = [
    "harmonic_skyline_size",
    "estimate_by_extrapolation",
    "harmonic_skyline_size_approx",
    "estimate_pskyline_size",
]

#: Rows in the sampling estimator's first screening window; each later
#: window doubles, so an ``n``-row input takes ``O(log n)`` screens.
FIRST_WINDOW = 256


def harmonic_skyline_size(n: int, d: int) -> float:
    """Exact ``H_{k,n}`` with ``k = d - 1``: the expected skyline size of
    ``n`` CI tuples in ``d`` dimensions (Buchta).

    Recurrence: ``H_{0,n} = 1`` and ``H_{k,n} = sum_{i<=n} H_{k-1,i} / i``.
    Computed iteratively in ``O(d * n)``.
    """
    if n <= 0:
        return 0.0
    if d < 1:
        raise ValueError("d must be positive")
    level = np.ones(n, dtype=np.float64)  # H_{0, 1..n}
    for _ in range(d - 1):
        level = np.cumsum(level / np.arange(1, n + 1))
    return float(level[-1])


def harmonic_skyline_size_approx(n: int, d: int) -> float:
    """The standard ``(ln n)^{d-1} / (d-1)!`` approximation of Buchta's
    expectation."""
    if n <= 1:
        return float(min(n, 1))
    return math.log(n) ** (d - 1) / math.factorial(d - 1)


def estimate_pskyline_size(ranks: np.ndarray, graph: PGraph,
                           rng: np.random.Generator,
                           sample_size: int = 64, *,
                           columns=None) -> float:
    """Estimate ``|M_pi(D)|`` by checking maximality of a random sample.

    The sample is screened (:meth:`Dominance.screen_block`) against
    windows of the input that start at :data:`FIRST_WINDOW` rows and
    double each step; after each window the sampled rows it dominates
    are dropped, and the scan stops once none are left or the input is
    used up.  A sampled row survives every window iff no row dominates
    it, so the estimate ``n * (#maximal in sample) / sample_size`` is
    unbiased.  The cost is at most ``O(sample_size * n)`` pair tests,
    and far less when most sampled rows are dominated early.

    ``columns`` names the columns of ``ranks`` the preference reads
    (all of them when ``None``); only the sampled rows and the windows
    the scan reaches are sliced, never the whole projection.  ``ranks``
    is a matrix or anything with its ``shape`` that answers
    ``ranks[index_array]`` and ``ranks[start:stop]`` with rows -- a
    sharded snapshot's :class:`~repro.engine.pool.LiveRows` -- and
    only those rows are read.
    """
    n = ranks.shape[0]
    if n == 0:
        return 0.0
    sample_size = min(sample_size, n)
    rows = rng.choice(n, size=sample_size, replace=False)
    columns = slice(None) if columns is None else list(columns)
    dominance = Dominance(graph)
    alive = ranks[rows][:, columns]
    start, width = 0, FIRST_WINDOW
    while start < n and len(alive):
        window = ranks[start:start + width][:, columns]
        alive = alive[dominance.screen_block(alive, window)]
        start += width
        width *= 2
    return n * len(alive) / sample_size


def estimate_by_extrapolation(ranks: np.ndarray, graph: PGraph,
                              rng: np.random.Generator, *,
                              fractions: tuple[float, ...] = (0.05, 0.1,
                                                              0.2),
                              algorithm=None) -> float:
    """Estimate ``|M_pi(D)|`` by power-law extrapolation from subsamples.

    Skyline sizes typically follow ``v(n) ~ c * n^beta`` with
    ``beta < 1`` (``beta = 0`` under heavy priorities, ``(d-1)``-fold
    polylog for CI skylines, up to ``beta ~ 1`` on anti-correlated
    data).  Measuring ``v`` exactly on a few small random subsamples and
    fitting ``log v ~ log n`` extrapolates to the full input at a
    fraction of its cost, and -- unlike the point-sampling estimator --
    adapts to the data's correlation structure.
    """
    n = ranks.shape[0]
    if n == 0:
        return 0.0
    if algorithm is None:
        from ..algorithms.osdc import osdc as algorithm
    points: list[tuple[int, int]] = []
    for fraction in fractions:
        size = max(2, int(round(n * fraction)))
        rows = rng.choice(n, size=min(size, n), replace=False)
        v = int(algorithm(ranks[rows], graph).size)
        points.append((size, max(v, 1)))
    if len({size for size, _ in points}) < 2:
        return float(points[-1][1])
    xs = np.log([size for size, _ in points])
    ys = np.log([v for _, v in points])
    beta, intercept = np.polyfit(xs, ys, 1)
    beta = min(max(float(beta), 0.0), 1.0)  # v is monotone, sub-linear
    return float(np.exp(intercept) * n ** beta)

