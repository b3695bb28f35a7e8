"""Continuous p-skyline queries over a sliding window.

The classic streaming setting: the answer is ``M_pi`` of the most recent
``window`` stream items.  Built on
:class:`~repro.algorithms.incremental.PSkylineMaintainer`: appending an
item inserts it and evicts the item that just left the window, with
retained-tuple promotion keeping the answer exact at every step.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from .incremental import PSkylineMaintainer

__all__ = ["SlidingWindowPSkyline"]


class SlidingWindowPSkyline:
    """Exact ``M_pi`` of the last ``window`` appended tuples."""

    def __init__(self, graph: PGraph, window: int,
                 context: ExecutionContext | None = None,
                 kernel: str = "auto"):
        if window < 1:
            raise ValueError("window must hold at least one tuple")
        self.graph = graph
        self.window = window
        self._maintainer = PSkylineMaintainer(graph, capacity=2 * window,
                                              context=context,
                                              kernel=kernel)
        self._queue: deque[int] = deque()

    def append(self, values) -> int:
        """Add the newest stream item (evicting the expired one);
        returns its tuple id.

        Safe under cancellation: the expired item is evicted *before*
        the new one is inserted, and the maintainer's delete rolls
        itself back when a deadline/cancel fires mid-promotion -- so at
        every exception point the answer still equals ``M_pi`` of the
        window contents and the append can simply be retried.
        """
        # checked before the eviction, so a rejected item evicts nothing
        values = self._maintainer.validate(values)
        if len(self._queue) >= self.window:
            self._maintainer.delete(self._queue[0])
            self._queue.popleft()
        tuple_id = self._maintainer.insert_valid(values)
        self._queue.append(tuple_id)
        return tuple_id

    def __len__(self) -> int:
        return len(self._queue)

    def skyline_ids(self) -> np.ndarray:
        """Ids of the current window's maximal tuples (sorted; ids are
        append order, so larger id = more recent)."""
        return self._maintainer.skyline_ids()

    def skyline_ranks(self) -> np.ndarray:
        """Rank vectors of the current window's maximal tuples."""
        return self._maintainer.skyline_ranks()

    def contents(self) -> np.ndarray:
        """Rank vectors of everything currently in the window, oldest
        first."""
        ids = np.fromiter(self._queue, dtype=np.intp,
                          count=len(self._queue))
        return self._maintainer.ranks_of(ids)
