"""LAYERED: a specialised evaluator for weak-order p-graphs.

When the priority order is a *weak order* -- the attributes partition
into layers ``L0 & L1 & ... & Lk`` with every earlier layer dominating
every later one -- the p-expression is equivalent to a prioritized chain
of Pareto bundles::

    sky(L0) & sky(L1) & ... & sky(Lk)

(This covers plain skylines, ``k = 0``, and lexicographic orders, all
layers singletons.)  The p-skyline then factorises layer by layer:

1. ``M_pi(D) ⊆ M_sky(L0)(D)`` -- anything beaten on the top layer is out;
2. two survivors that *differ* on ``L0`` are incomparable forever (each
   is sky(L0)-maximal, and dominance would require winning the topmost
   disagreement), so the remaining layers only compare tuples with
   *identical* ``L0`` projections -- recurse per group.

This yields a sequence of small skyline sub-problems instead of one
``d``-dimensional one, and is the natural generalisation of the
"Case 2 / lexicographic" trick of Lemma 4.  A one-attribute layer's
skyline is its minimum: it costs one scan of a column, and its ties
agree on the layer, so they carry on to the next layer as one group.
For non-weak-order graphs :func:`layered` raises; the query layer
keeps using OSDC there.
"""

from __future__ import annotations

import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from .base import Stats, check_columns, ensure_context
from .naive import maximal_mask
from .osdc import osdc

__all__ = ["layered", "weak_order_layers", "NotAWeakOrderError"]


class NotAWeakOrderError(ValueError):
    """The p-graph's priority order is not a weak order."""


def weak_order_layers(graph: PGraph) -> list[list[int]]:
    """The attribute layers of a weak-order p-graph, most important first.

    In a weak order all attributes at the same depth are mutually
    incomparable and dominate everything strictly deeper.  Raises
    :class:`NotAWeakOrderError` otherwise.
    """
    if not graph.is_weak_order():
        raise NotAWeakOrderError(
            "the priority order is not a weak order; use osdc instead"
        )
    layers: dict[int, list[int]] = {}
    for index, depth in enumerate(graph.depths):
        layers.setdefault(depth, []).append(index)
    return [layers[depth] for depth in sorted(layers)]


def _sky_graph(size: int) -> PGraph:
    return PGraph.empty([f"L{i}" for i in range(size)])


def _group_starts(block: np.ndarray) -> np.ndarray:
    """Start offsets of equal-row runs in a lexicographically sorted
    block."""
    if block.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    changed = np.ones(block.shape[0], dtype=bool)
    if block.shape[0] > 1:
        changed[1:] = (block[1:] != block[:-1]).any(axis=1)
    return np.flatnonzero(changed)


def layered(ranks: np.ndarray, graph: PGraph, *,
            stats: Stats | None = None,
            context: ExecutionContext | None = None,
            leaf_size: int = 32, columns=None) -> np.ndarray:
    """Compute ``M_pi(D)`` layer by layer for weak-order p-graphs, over
    the columns ``columns`` of ``ranks`` (all of them when ``None``;
    ``columns[i]`` holds the graph's ``i``-th attribute).

    Returns sorted row indices.  Raises :class:`NotAWeakOrderError` for
    graphs that are not weak orders.
    """
    ranks = check_columns(ranks, graph, columns)
    context = ensure_context(context, stats)
    stats = context.stats
    if ranks.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    attribute_layers = weak_order_layers(graph)
    if columns is None:
        columns = range(graph.d)
    # each layer's columns of ranks
    layers = [[columns[c] for c in layer] for layer in attribute_layers]
    survivors = np.arange(ranks.shape[0], dtype=np.intp)
    for level, layer in enumerate(layers):
        context.check("layered-level")
        if survivors.size <= 1:
            break
        if stats is not None:
            stats.passes += 1
        if len(layer) == 1:
            # the skyline of one attribute is its minimum; the ties all
            # hold it, so they stay one group for the next layer
            values = ranks[:, layer[0]]
            if survivors.size < ranks.shape[0]:
                values = values[survivors]
            survivors = survivors[values == values.min()]
            continue
        block = ranks[np.ix_(survivors, layer)]
        sky = _sky_graph(len(layer))
        # 1. keep only the layer-skyline of the current survivors
        if survivors.size <= leaf_size:
            keep = maximal_mask(block, context.compiled(sky).dominance,
                                stats=stats, check=context.check)
            kept_local = np.flatnonzero(keep)
        else:
            kept_local = osdc(block, sky, context=context)
        survivors = survivors[kept_local]
        if level == len(layers) - 1:
            break
        # 2. deeper layers only compare tuples with identical projections
        #    on this layer: partition the survivors into groups
        block = ranks[np.ix_(survivors, layer)]
        order = np.lexsort(tuple(block[:, c]
                                 for c in range(block.shape[1] - 1, -1, -1)))
        survivors = survivors[order]
        block = block[order]
        starts = _group_starts(block)
        if starts.size == survivors.size:
            break  # all projections distinct: everyone is incomparable now
        bounds = np.append(starts, survivors.size)
        # ascending attribute order, matching PGraph.restrict's compaction
        remaining = sorted(c for group in attribute_layers[level + 1:]
                           for c in group)
        remaining_columns = [columns[c] for c in remaining]
        kept_groups: list[np.ndarray] = []
        rest_graph = graph.restrict(sum(1 << c for c in remaining))
        for begin, end in zip(bounds[:-1], bounds[1:]):
            group = survivors[begin:end]
            if group.size == 1:
                kept_groups.append(group)
                continue
            local = layered(ranks[np.ix_(group, remaining_columns)],
                            rest_graph, context=context,
                            leaf_size=leaf_size)
            kept_groups.append(group[local])
        return np.sort(np.concatenate(kept_groups))
    return np.sort(survivors)
