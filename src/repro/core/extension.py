"""The weak-order extension ``≻ext`` of a p-skyline preference (Section 6).

Theorem 3: sort tuples by the lexicographic composition of the per-depth
rank sums,

.. math::  ≻_{ext} = ≻_{sum_0} \\& ≻_{sum_1} \\& \\dots \\& ≻_{sum_{d-1}}

where ``sum_i(t)`` adds the ranks of all attributes whose depth in the
transitive reduction is ``i``.  Sorting the input by ``≻ext`` guarantees
that no tuple is ``≻_pi``-dominated by a tuple that follows it, which is
exactly the presorting property SFS and LESS require.
"""

from __future__ import annotations

import numpy as np

from .pgraph import PGraph

__all__ = ["ExtensionOrder"]


class ExtensionOrder:
    """Materialises ``≻ext`` keys and presorted permutations for a p-graph."""

    __slots__ = ("graph", "levels", "_level_masks", "_level_columns")

    def __init__(self, graph: PGraph):
        self.graph = graph
        depths = graph.depths
        num_levels = (max(depths) + 1) if depths else 0
        # _level_masks[i] is a boolean column selector for depth-i attributes.
        self._level_masks = [
            np.array([depth == level for depth in depths], dtype=bool)
            for level in range(num_levels)
        ]
        self._level_columns = [np.flatnonzero(mask).tolist()
                               for mask in self._level_masks]
        self.levels = num_levels

    def keys(self, ranks: np.ndarray) -> np.ndarray:
        """Per-depth sums: an ``(n, levels)`` matrix, level 0 first.

        Row-wise lexicographic comparison of the key matrix realises
        ``≻ext`` (smaller key = more preferred).
        """
        keys = np.empty((ranks.shape[0], self.levels), dtype=np.float64)
        for level in range(self.levels):
            self.key(ranks, level, out=keys[:, level])
        return keys

    def key(self, ranks: np.ndarray, level: int,
            out: np.ndarray | None = None) -> np.ndarray:
        """The depth-``level`` sum of every row of ``ranks``.

        A level of fewer than eight attributes adds column views to
        ``0.0`` left to right -- the order in which ``sum(axis=1)`` adds
        so few terms -- so the key has the same bits (signed zeros
        included) without gathering the level's columns; a wider level
        keeps NumPy's pairwise sum over its gathered columns.
        """
        columns = self._level_columns[level]
        if out is None:
            out = np.empty(ranks.shape[0], dtype=np.float64)
        if len(columns) >= 8:
            out[:] = ranks[:, columns].sum(axis=1)
            return out
        np.add(ranks[:, columns[0]], 0.0, out=out)
        for column in columns[1:]:
            out += ranks[:, column]
        return out

    def argsort(self, ranks: np.ndarray) -> np.ndarray:
        """Permutation sorting rows best-first according to ``≻ext``.

        The sort is stable, so ties (tuples that are ``≻ext``-equivalent)
        keep their input order.
        """
        keys = self.keys(ranks)
        if keys.shape[1] == 0:
            return np.arange(ranks.shape[0])
        # np.lexsort uses the *last* key as primary; depth 0 must dominate.
        return np.lexsort(tuple(keys[:, level]
                                for level in range(self.levels - 1, -1, -1)))

    def strictly_precedes(self, u: np.ndarray, v: np.ndarray) -> bool:
        """Scalar test ``u ≻ext v`` on two rank vectors (for verification)."""
        for mask in self._level_masks:
            su = float(u[mask].sum())
            sv = float(v[mask].sum())
            if su < sv:
                return True
            if su > sv:
                return False
        return False
