"""Single-point procedures: PSKYLINESP (Lemma 1) and PSCREENSP (Lemma 2).

* ``pskyline_single_point`` locates one arbitrary element of ``M_pi(D)`` in
  linear time by taking the maximum of a weak-order extension of ``≻_pi``
  (we use ``≻ext`` of Section 6, which Theorem 3 proves is such an
  extension).
* ``pscreen_single_point`` screens ``W`` against a one-element ``B`` with a
  single vectorised dominance test per tuple of ``W``.
"""

from __future__ import annotations

import numpy as np

from ..core.dominance import Dominance
from ..core.extension import ExtensionOrder
from ..core.pgraph import PGraph
from .base import Stats

__all__ = ["pskyline_single_point", "pscreen_single_point"]


def pskyline_single_point(ranks: np.ndarray, graph: PGraph,
                          extension: ExtensionOrder | None = None,
                          stats: Stats | None = None) -> int:
    """Return the row index of one element of ``M_pi(ranks)`` (Lemma 1).

    Scans for the row minimising the ``≻ext`` key vector lexicographically;
    a maximal element of a weak-order extension is maximal for ``≻_pi``.
    The key is summed one level at a time, the next level only over the
    rows tied on the previous ones.  Requires a non-empty input.
    """
    n = ranks.shape[0]
    if n == 0:
        raise ValueError("cannot pick a p-skyline point of an empty relation")
    if extension is None:
        extension = ExtensionOrder(graph)
    if stats is not None:
        stats.comparisons += n
    candidates = None
    for level in range(extension.levels):
        if candidates is None:
            key = extension.key(ranks, level)
            candidates = np.flatnonzero(key == key.min())
        else:
            key = extension.key(ranks[candidates], level)
            candidates = candidates[key == key.min()]
        if candidates.size == 1:
            break
    return 0 if candidates is None else int(candidates[0])


def pscreen_single_point(point: np.ndarray, block: np.ndarray,
                         dominance: Dominance,
                         stats: Stats | None = None,
                         kernel: str | None = None) -> np.ndarray:
    """Survivors mask of ``block`` screened against the single ``point``.

    Lemma 2: one dominance test per element of ``block`` -- ``O(w)``.
    """
    if stats is not None:
        stats.dominance_tests += block.shape[0]
    return ~dominance.dominated_mask(block, point, kernel=kernel)
