"""DC: the basic divide-and-conquer p-skyline algorithm (Section 3).

DC splits the input at the median of a carefully chosen attribute ``A``
(all ancestors of ``A`` must be constant over the current sub-problem, so
the preference on ``A`` cannot be overridden), recursively computes the
p-skyline of the better half ``B``, p-screens the worse half ``W`` against
it, and recurses on the survivors.  Worst case ``O(n log^{d-2} n)``.
"""

from __future__ import annotations

import numpy as np

from ..core.bitsets import iter_bits
from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from .base import (Stats, check_columns, ensure_context, register,
                   resolve_kernel)
from .naive import maximal_mask
from .pscreen import PScreener, split_threshold

__all__ = ["dc"]


#: Candidate-attribute selection strategies for the split step.  The
#: paper's pseudocode says only "select an attribute from C"; the choice
#: affects balance, not correctness (see the selection ablation bench).
SELECT_STRATEGIES = ("first", "rotate", "widest")


#: Rows the driver copies per step when it gathers or compacts: its
#: bound on the transient copies a move takes beside the working copy.
CHUNK_ROWS = 4096


class _DivideAndConquer:
    """The recursion driver of DC and OSDC, over one working copy.

    The first split gathers the rows the query reads, projected onto
    its columns and in split order, into ``work`` (C order, one column
    per p-graph attribute), with their row numbers in ``ids``; before
    it, ``work`` is the caller's matrix and ``columns`` maps attributes
    onto its columns.  Every sub-problem is a slice ``[lo, hi)`` of
    both.  A later split partitions its slice in place, stably, so rows
    keep the order the index-array recursion gave them (and with it the
    pivot and every counter); the look-ahead and the screens read views
    of the slice; pruned rows are compacted; and :meth:`rec` leaves the
    sub-problem's skyline at the front of its slice.

    ``lookahead`` is OSDC's step (lines 13-15), ``None`` for plain DC.
    Called as ``lookahead(driver, lo, middle, hi)`` on a split slice
    whose better rows are ``[lo, middle)``, it compacts the rows it
    keeps, better rows first, to the front of the slice and returns
    ``(middle, stop, pivot)``: the kept better rows are ``[lo,
    middle)``, the kept worse rows ``[middle, stop)``, and ``pivot`` is
    the ``(row, id)`` of the skyline row it found, which the split
    appends to the slice's skyline.
    """

    def __init__(self, ranks: np.ndarray, columns, graph: PGraph,
                 screener: PScreener, context: ExecutionContext,
                 leaf_size: int, select: str = "first", lookahead=None):
        if select not in SELECT_STRATEGIES:
            raise ValueError(
                f"unknown selection strategy {select!r}; "
                f"choose from {SELECT_STRATEGIES}"
            )
        self.work = ranks
        self.columns = list(range(graph.d) if columns is None else columns)
        self.ids = None
        self.graph = graph
        self.screener = screener
        self.context = context
        self.stats = context.stats
        self.leaf_size = max(1, leaf_size)
        self.select = select
        self.lookahead = lookahead

    def run(self) -> np.ndarray:
        n = self.work.shape[0]
        size = self.rec(0, n, self.graph.roots, 0, 0)
        ids = np.arange(n, dtype=np.intp) if self.ids is None else self.ids
        counters = {"rows": n, "survivors": size}
        if self.stats is not None:
            counters["recursive_calls"] = self.stats.recursive_calls
            counters["max_depth"] = self.stats.max_depth
        self.context.event("divide-and-conquer", **counters)
        return np.sort(ids[:size])

    # -- the working copy -----------------------------------------------------
    def column(self, lo: int, hi: int, attribute: int) -> np.ndarray:
        """A view of ``attribute`` over the slice ``[lo, hi)``."""
        return self.work[lo:hi, self.columns[attribute]]

    def _gather(self, order: np.ndarray) -> None:
        """Make the working copy: the caller's rows ``order``, projected
        onto the query's columns, in one C-order copy."""
        base = self.work
        if self.columns == list(range(base.shape[1])):
            self.work = np.take(base, order, axis=0)
        else:
            # whole rows, a chunk at a time, then their columns: faster
            # than one two-axis fancy index, and the chunk bounds the
            # full-width transient
            self.work = np.empty((order.size, len(self.columns)))
            for start in range(0, order.size, CHUNK_ROWS):
                rows = np.take(base, order[start:start + CHUNK_ROWS],
                               axis=0)
                np.take(rows, self.columns, axis=1,
                        out=self.work[start:start + CHUNK_ROWS])
        self.columns = list(range(len(self.columns)))
        self.ids = order

    def compact(self, lo: int, hi: int, keep: np.ndarray) -> int:
        """Move the rows of ``[lo, hi)`` that ``keep`` marks to the
        front of the slice, in order, :data:`CHUNK_ROWS` at a time;
        returns how many."""
        stop = lo
        for start in range(lo, hi, CHUNK_ROWS):
            marked = keep[start - lo:start - lo + CHUNK_ROWS]
            stop += self._move(stop, start + np.flatnonzero(marked))
        return stop - lo

    def _partition(self, lo: int, hi: int, better: np.ndarray) -> int:
        """Stably partition ``[lo, hi)``: the rows ``better`` marks
        first; returns where the others start.  The first split gathers
        the working copy in this order instead."""
        if self.ids is None:
            self._gather(np.concatenate([np.flatnonzero(better),
                                         np.flatnonzero(~better)]))
            return lo + int(np.count_nonzero(better))
        worse = lo + np.flatnonzero(~better)
        rows, ids = np.take(self.work, worse, axis=0), self.ids[worse]
        middle = lo + self.compact(lo, hi, better)
        self.work[middle:hi] = rows
        self.ids[middle:hi] = ids
        return middle

    def _move(self, start: int, rows: np.ndarray) -> int:
        """Copy the working rows ``rows`` (all read before any is
        written) to the slice starting at ``start``; returns how many."""
        stop = start + rows.size
        self.work[start:stop] = np.take(self.work, rows, axis=0)
        self.ids[start:stop] = self.ids[rows]
        return rows.size

    # -- the recursion --------------------------------------------------------
    def rec(self, lo: int, hi: int, cand: int, equal: int,
            depth: int) -> int:
        """Leave the skyline of the slice ``[lo, hi)`` at its front;
        returns its size."""
        self.context.check("divide-and-conquer")
        if self.stats is not None:
            self.stats.recursive_calls += 1
            self.stats.max_depth = max(self.stats.max_depth, depth)
        size = hi - lo
        if size <= 1 or cand == 0:
            return size
        if size <= self.leaf_size:
            if self.ids is None:
                self._gather(np.arange(size, dtype=np.intp))
            if self.stats is not None:
                self.stats.dominance_tests += size * (size - 1)
            keep = maximal_mask(self.work[lo:hi], self.screener.dominance,
                                kernel=self.screener.kernel)
            return self.compact(lo, hi, keep)
        # pick a candidate attribute; promote constant ones into E
        attribute = None
        while cand:
            attribute = self._choose(lo, hi, cand, depth)
            if attribute is not None:
                break
            # every candidate is constant over D: move them to E and pull
            # in the successors whose predecessors are now all equal
            a = next(iter_bits(cand))
            cand &= ~(1 << a)
            equal |= 1 << a
            for successor in iter_bits(self.graph.successors(a)):
                if (self.graph.predecessors(successor) & ~equal) == 0:
                    cand |= 1 << successor
        if attribute is None:
            return size  # all relevant attributes equal: all maximal
        return self.split(lo, hi, attribute, cand, equal, depth)

    def _choose(self, lo: int, hi: int, cand: int,
                depth: int) -> int | None:
        """Pick a non-constant candidate attribute, or None if all are
        constant over the current sub-problem."""
        usable: list[int] = []
        for a in iter_bits(cand):
            column = self.column(lo, hi, a)
            if column.min() != column.max():
                if self.select == "first":
                    return a
                usable.append(a)
        if not usable:
            return None
        if self.select == "rotate":
            return usable[depth % len(usable)]
        # "widest": the attribute whose values spread the most, after
        # normalising by the sub-problem's scale -- a cheap balance proxy
        best = usable[0]
        best_spread = -1.0
        for a in usable:
            column = self.column(lo, hi, a)
            low = float(column.min())
            high = float(column.max())
            spread = (high - low) / (abs(high) + abs(low) + 1.0)
            if spread > best_spread:
                best_spread = spread
                best = a
        return best

    def split(self, lo: int, hi: int, attribute: int, cand: int,
              equal: int, depth: int) -> int:
        """One divide-and-conquer step (lines 12-16; OSDC's look-ahead,
        lines 13-15, between the partition and the recursion)."""
        if self.stats is not None:
            self.stats.splits += 1
        column = self.column(lo, hi, attribute)
        middle = self._partition(lo, hi,
                                 column < split_threshold(column))
        stop, pivot = hi, None
        if self.lookahead is not None:
            middle, stop, pivot = self.lookahead(self, lo, middle, hi)
        better_size = self.rec(lo, middle, cand, equal, depth + 1)
        survivors = self.screener.screen(
            self.work, np.arange(lo, lo + better_size),
            np.arange(middle, stop),
            candidates=cand & ~(1 << attribute), equal=equal,
            dropped=1 << attribute, context=self.context,
        )
        start = lo + better_size
        end = start + self.rec(start, start + self._move(start, survivors),
                               cand, equal, depth + 1)
        if pivot is not None:
            # the look-ahead's point joins the skyline; its slot is free,
            # since the look-ahead kept fewer rows than the slice held
            self.work[end], self.ids[end] = pivot
            end += 1
        return end - lo


def solve(ranks: np.ndarray, graph: PGraph, *, stats: Stats | None,
          context: ExecutionContext | None, columns, leaf_size: int,
          use_lowdim: bool, dense_cutoff: int, select: str, kernel: str,
          lookahead=None) -> np.ndarray:
    """Run the divide-and-conquer driver over the columns ``columns``
    of ``ranks`` (every column when ``None``): DC, or OSDC given its
    ``lookahead``."""
    ranks = check_columns(ranks, graph, columns)
    context = ensure_context(context, stats)
    if ranks.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    compiled = context.compiled(graph)
    resolve_kernel(compiled.dominance, context, kernel,
                   pairs=dense_cutoff)
    screener = compiled.screener(
        use_lowdim=use_lowdim, dense_cutoff=dense_cutoff,
        kernel=None if kernel == "auto" else kernel)
    return _DivideAndConquer(ranks, columns, graph, screener, context,
                             leaf_size, select, lookahead).run()


# eliminates via the vectorised low-dimensional merge, which does not
# account per-tuple dominance tests
@register("dc", columns=True, counts_dominance=False)
def dc(ranks: np.ndarray, graph: PGraph, *, stats: Stats | None = None,
       context: ExecutionContext | None = None, columns=None,
       leaf_size: int = 16, use_lowdim: bool = True,
       dense_cutoff: int = 4096, select: str = "first",
       kernel: str = "auto") -> np.ndarray:
    """Compute ``M_pi(D)`` with the paper's Algorithm DC.

    Returns sorted row indices.  ``columns`` evaluates over those
    columns of ``ranks`` (one per p-graph attribute, in order) without
    a projected copy.  ``leaf_size`` switches to the quadratic
    vectorised kernel for tiny sub-problems (``leaf_size=1`` matches
    the paper's pseudocode exactly); ``select`` picks the
    split-attribute strategy (:data:`SELECT_STRATEGIES`).
    """
    return solve(ranks, graph, stats=stats, context=context,
                 columns=columns, leaf_size=leaf_size,
                 use_lowdim=use_lowdim, dense_cutoff=dense_cutoff,
                 select=select, kernel=kernel)
