"""OSDC: the output-sensitive divide-and-conquer algorithm (Section 3).

OSDC is DC plus a linear-time *look-ahead* at every recursion step
(Algorithm OSDC, lines 13-15): it extracts one guaranteed p-skyline point
``p*`` of the better half ``B`` (Lemma 1) and prunes everything ``p*``
dominates from both halves (Lemma 2).  When a sub-problem contains a single
p-skyline point the pruned halves become empty and the recursion bottoms
out immediately -- this is what caps the recursion depth at ``O(log v)``
and yields the worst case ``O(n log^{d-2} v)`` of Theorem 1.
"""

from __future__ import annotations

import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from .base import Stats, register
from .dc import solve
from .special import pscreen_single_point, pskyline_single_point

__all__ = ["osdc"]


def _lookahead(driver, lo: int, middle: int, hi: int):
    """OSDC's look-ahead (lines 13-15) on the split slice ``[lo, hi)``
    of ``driver``'s working copy, better rows ``[lo, middle)``: one
    p-skyline point ``p*`` of the better rows prunes what it dominates
    from both halves.

    Both single-point procedures read views of the slice.  The kept
    rows are compacted to its front, better rows first, each half in
    its order; returns ``(middle, stop, (row, id))``: the kept better
    rows ``[lo, middle)``, the kept worse rows ``[middle, stop)`` and
    ``p*``.
    """
    stats = driver.stats
    work = driver.work
    screener = driver.screener
    pivot = lo + pskyline_single_point(work[lo:middle], driver.graph,
                                       screener.compiled.extension, stats)
    found = (work[pivot].copy(), driver.ids[pivot])
    keep = pscreen_single_point(work[pivot], work[lo:hi],
                                screener.dominance, kernel=screener.kernel)
    keep[pivot - lo] = False
    better_kept = int(np.count_nonzero(keep[:middle - lo]))
    kept = driver.compact(lo, hi, keep)
    if stats is not None:
        stats.dominance_tests += hi - lo - 1
        stats.pruned_by_lookahead += hi - lo - 1 - kept
    return lo + better_kept, lo + kept, found


@register("osdc", columns=True)
def osdc(ranks: np.ndarray, graph: PGraph, *, stats: Stats | None = None,
         context: ExecutionContext | None = None, columns=None,
         leaf_size: int = 16, use_lowdim: bool = True,
         dense_cutoff: int = 4096, select: str = "first",
         kernel: str = "auto") -> np.ndarray:
    """Compute ``M_pi(D)`` with the output-sensitive Algorithm OSDC.

    Returns sorted row indices.  Worst case ``O(n log^{d-2} v)``; ``O(n)``
    average case when combined with :func:`repro.algorithms.linear_avg.
    osdc_linear`'s pre-filter (Section 5).  ``columns`` evaluates over
    those columns of ``ranks`` (one per p-graph attribute, in order)
    without a projected copy: the first split gathers the rows it reads
    straight into the working copy.  ``select`` picks the
    split-attribute strategy (see :data:`repro.algorithms.dc.
    SELECT_STRATEGIES`).
    """
    return solve(ranks, graph, stats=stats, context=context,
                 columns=columns, leaf_size=leaf_size,
                 use_lowdim=use_lowdim, dense_cutoff=dense_cutoff,
                 select=select, kernel=kernel, lookahead=_lookahead)
