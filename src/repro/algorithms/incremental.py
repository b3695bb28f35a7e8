"""Incremental p-skyline maintenance under insertions and deletions.

The paper evaluates one-shot queries; a library user often needs to keep
``M_pi(D)`` up to date while ``D`` changes.  :class:`PSkylineMaintainer`
supports:

* ``insert(tuple)`` -- one vectorised comparison against the current
  p-skyline: the new tuple is discarded if dominated, otherwise it joins
  the p-skyline and evicts what it dominates.  Evicted and shadowed
  tuples are *retained* (they may resurface after deletions).
* ``delete(tuple_id)`` -- deleting a non-skyline tuple is O(1); deleting
  a p-skyline member promotes exactly the retained tuples that were
  dominated by it and by no other survivor (computed with one screening
  pass over the retained set).

The maintainer keeps the p-skyline itself -- its ids and their rank
rows -- so an insert compares against that block and touches no
retained row.  Retained rows are read back only by a bulk load and by a
promotion, through one read path: the maintainer's own buffer, or a
*row source* over storage the caller owns (a shard of a
:class:`~repro.core.sharding.ShardedRelation`), so the rows are not
held twice.

The maintained set always equals ``M_pi`` of the alive tuples -- verified
in the tests against recomputation from scratch after every operation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from .base import ensure_context
from .osdc import osdc

__all__ = ["PSkylineMaintainer"]


class PSkylineMaintainer:
    """Maintains ``M_pi`` of a dynamic set of tuples.

    Tuples are identified by the integer id returned from :meth:`insert`.
    A shared :class:`ExecutionContext` (or the default one created here)
    supplies the compiled preference, so the dominance oracle is built
    once per p-graph across all maintainers.

    ``rows``, when given, is a row source: ``rows(ids)`` returns the
    rank rows (``(len(ids), d)``, the graph's columns) of the given
    tuple ids from storage the caller keeps, where the caller has put
    tuple ``i``'s row before inserting it.  The maintainer then keeps
    no copy of the rows.  Without one it keeps its own buffer.
    """

    def __init__(self, graph: PGraph, capacity: int = 1024,
                 context: ExecutionContext | None = None,
                 kernel: str = "auto",
                 rows: Callable[[np.ndarray], np.ndarray] | None = None):
        self.graph = graph
        self.context = ensure_context(context)
        self.dominance = self.context.compiled(graph).dominance
        self.kernel = None if kernel == "auto" else kernel
        self._source = rows
        self._ranks = np.empty((capacity, graph.d), dtype=np.float64) \
            if rows is None else None
        self._alive = np.zeros(capacity, dtype=bool)
        self._size = 0
        #: the p-skyline: sorted ids and their rank rows, row for row
        self._sky_ids = np.empty(0, dtype=np.intp)
        self._sky_rows = np.empty((0, graph.d), dtype=np.float64)

    # -- views ---------------------------------------------------------------
    @property
    def num_alive(self) -> int:
        return int(self._alive[: self._size].sum())

    def skyline_ids(self) -> np.ndarray:
        """The current p-skyline, as sorted tuple ids."""
        return self._sky_ids.copy()

    def skyline_ranks(self) -> np.ndarray:
        """Rank rows of the current p-skyline, in :meth:`skyline_ids`
        order."""
        return self._sky_rows.copy()

    def ranks_of(self, ids) -> np.ndarray:
        """Rank vectors for the given tuple ids (in the given order)."""
        return self._rows(np.asarray(ids, dtype=np.intp))

    def alive_ids(self) -> np.ndarray:
        """All alive tuple ids, sorted."""
        return np.flatnonzero(self._alive[: self._size])

    def __contains__(self, tuple_id: int) -> bool:
        return (0 <= tuple_id < self._size
                and bool(self._alive[tuple_id]))

    # -- mutation ------------------------------------------------------------
    def insert(self, values) -> int:
        """Insert a tuple (length-``d`` ranks, smaller better); returns its
        id.  Cost: one comparison against the current p-skyline."""
        return self.insert_valid(self.validate(values))

    def validate(self, values) -> np.ndarray:
        """``values`` as the float64 rank vector :meth:`insert` takes;
        :class:`ValueError` on a wrong length or a NaN."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.graph.d,):
            raise ValueError(
                f"expected a rank vector of length {self.graph.d}"
            )
        # a NumPy reduction over a handful of values costs several times
        # this Python loop
        if any(map(math.isnan, values.tolist())):
            raise ValueError("NaN ranks are not allowed")
        return values

    def insert_valid(self, values: np.ndarray) -> int:
        """:meth:`insert` of a vector :meth:`validate` (or an equal or
        stricter check by the caller) has already accepted."""
        self.context.check("maintainer-insert")
        tuple_id = self._append(values)
        block = self._sky_rows
        if block.shape[0]:
            if self.dominance.dominators_mask(
                    block, values, kernel=self.kernel).any():
                return tuple_id  # shadowed: retained but not maximal
            beaten = self.dominance.dominated_mask(block, values,
                                                   kernel=self.kernel)
            if beaten.any():
                kept = ~beaten
                self._sky_ids = self._sky_ids[kept]
                block = block[kept]
        # the new id is the largest, so the ids stay sorted
        self._sky_ids = np.append(self._sky_ids, tuple_id)
        self._sky_rows = np.concatenate([block, values[None, :]])
        return tuple_id

    def bulk_load(self, block) -> np.ndarray:
        """Insert a block of tuples in one pass; returns their ids.

        Equivalent to inserting row by row but pays one OSDC run over
        the old skyline plus the block instead of ``n`` per-row skyline
        comparisons -- the fast path for building a maintainer over an
        existing relation (or shard).  Nothing changes if that run is
        cancelled.
        """
        return self._bulk_load(block, None)

    def _bulk_load(self, block, alive: np.ndarray | None) -> np.ndarray:
        """:meth:`bulk_load`, where the rows whose ``alive`` flag is
        false take their ids already deleted: they never join the
        skyline, so a sharded relation loads a shard with dead slots
        in one pass and keeps its ids equal to the slots."""
        block = np.ascontiguousarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.graph.d:
            raise ValueError(
                f"expected an (n, {self.graph.d}) rank matrix")
        if np.isnan(block).any():
            raise ValueError("NaN ranks are not allowed")
        self.context.check("maintainer-bulk-load")
        count = block.shape[0]
        start = self._size
        ids = np.arange(start, start + count, dtype=np.intp)
        if count == 0:
            return ids
        loaded, rows = ids, block
        if alive is not None and not alive.all():
            loaded, rows = ids[alive], block[alive]
        # the new skyline is M_pi of (old skyline + new block): old
        # non-skyline tuples stay shadowed because their dominators are
        # all among the candidates
        candidates = np.concatenate([self._sky_ids, loaded])
        if self._sky_ids.size:
            rows = np.concatenate([self._sky_rows, rows])
        local = np.sort(osdc(rows, self.graph, context=self.context,
                             kernel=self.kernel or "auto"))
        self._reserve(count)
        if self._ranks is not None:
            self._ranks[start:start + count] = block
        self._alive[start:start + count] = True if alive is None else alive
        self._size += count
        self._sky_ids = candidates[local]
        self._sky_rows = rows[local]
        return ids

    def delete(self, tuple_id: int) -> None:
        """Delete a tuple by id.  Promotes retained tuples if needed.

        Atomic with respect to cancellation: the promotion pass runs
        through the shared context, so a deadline or cancel token can
        fire mid-promotion.  If it does, nothing has changed and the
        maintainer still equals ``M_pi`` of the alive tuples -- the
        caller may simply retry the delete.
        """
        if tuple_id not in self:
            raise KeyError(f"tuple {tuple_id} is not alive")
        self.context.check("maintainer-delete")
        at = int(np.searchsorted(self._sky_ids, tuple_id))
        if at == self._sky_ids.size or self._sky_ids[at] != tuple_id:
            self._alive[tuple_id] = False
            return
        sky_ids = np.delete(self._sky_ids, at)
        sky_rows = np.delete(self._sky_rows, at, axis=0)
        # candidates: alive non-skyline tuples not dominated by the
        # remaining skyline; their maxima join the skyline
        shadowed = self._alive[: self._size].copy()
        shadowed[tuple_id] = False
        shadowed[sky_ids] = False
        shadowed = np.flatnonzero(shadowed)
        if shadowed.size:
            rows = self._rows(shadowed)
            survivors = self.dominance.screen_block(rows, sky_rows,
                                                    kernel=self.kernel)
            if survivors.any():
                rows = rows[survivors]
                local = osdc(rows, self.graph, context=self.context,
                             kernel=self.kernel or "auto")
                sky_ids = np.concatenate([sky_ids,
                                          shadowed[survivors][local]])
                sky_rows = np.concatenate([sky_rows, rows[local]])
                order = np.argsort(sky_ids)
                sky_ids, sky_rows = sky_ids[order], sky_rows[order]
        # nothing above changed the maintainer, so a cancelled promotion
        # leaves the tuple alive and maximal
        self._alive[tuple_id] = False
        self._sky_ids, self._sky_rows = sky_ids, sky_rows

    # -- internals -------------------------------------------------------------
    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """The one read path of retained rows."""
        if self._source is not None:
            return self._source(ids)
        return self._ranks[ids]

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._alive.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        if self._ranks is not None:
            grown = np.empty((new_capacity, self.graph.d))
            grown[: self._size] = self._ranks[: self._size]
            self._ranks = grown
        self._alive = np.concatenate(
            [self._alive,
             np.zeros(new_capacity - capacity, dtype=bool)])

    def _append(self, values: np.ndarray) -> int:
        tuple_id = self._size
        if tuple_id == self._alive.shape[0]:
            self._reserve(1)
        if self._ranks is not None:
            self._ranks[tuple_id] = values
        self._alive[tuple_id] = True
        self._size += 1
        return tuple_id
