"""External-memory OSDC -- the paper's Section 8 future-work question.

    "We designed our divide-and-conquer strategy assuming the input data
     always fits in the main memory; it would be interesting to verify
     whether we can drop this assumption, and develop an output-sensitive
     algorithm that runs efficiently in external memory."

This module implements a block-based OSDC over the paged storage of
:mod:`repro.storage.blocks`.  The recursion mirrors the in-memory OSDC
(median split on a candidate attribute whose ancestors are constant, plus
the Lemma 1/2 look-ahead), but every sub-problem larger than the memory
budget lives in paged files and is processed with streaming scans:

* **pass 1** (per level): scan the partition to reservoir-sample a median
  pivot, find the minimum and the second-distinct value of the split
  attribute (duplicate-safe threshold), and detect constant attributes;
* **pass 2**: partition into the ``B``/``W`` files, simultaneously
  locating the look-ahead point ``p*`` (the ``≻ext``-minimum of ``B``,
  Lemma 1);
* **pass 3**: rewrite both files without the tuples ``p*`` dominates
  (Lemma 2).

Sub-problems at most ``memory_budget`` tuples large are solved with the
in-memory OSDC; screening of ``W`` against an already-computed
``M_pi(B)`` streams ``W`` page by page against the in-memory result.  As
with SFS-style operators, the *answer* (and each sub-problem's answer) is
assumed to fit in memory -- the paper's open question concerns the input.
Every page transfer is counted in ``Stats.io_reads`` / ``io_writes``.
"""

from __future__ import annotations

import numpy as np

from ..core.bitsets import iter_bits
from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from ..storage.blocks import PagedFile, StorageManager
from .base import Stats, check_input, ensure_context, register
from .osdc import osdc

__all__ = ["external_osdc"]


class _ExternalOSDC:
    def __init__(self, graph: PGraph, storage: StorageManager,
                 memory_budget: int, context: ExecutionContext,
                 rng: np.random.Generator):
        self.graph = graph
        compiled = context.compiled(graph)
        self.dominance = compiled.dominance
        self.extension = compiled.extension
        self.storage = storage
        self.memory_budget = memory_budget
        self.context = context
        self.stats = context.stats
        self.rng = rng

    # -- helpers ---------------------------------------------------------------
    def _ext_key(self, row: np.ndarray) -> tuple:
        return tuple(self.extension.keys(row[:-1].reshape(1, -1))[0])

    def _scan_statistics(self, data: PagedFile, cand: int):
        """One pass: per-candidate (min, second-distinct, sample)."""
        columns = list(iter_bits(cand))
        lows = {a: np.inf for a in columns}
        seconds = {a: np.inf for a in columns}
        samples: dict[int, list[float]] = {a: [] for a in columns}
        sample_cap = max(64, self.memory_budget // 8)
        seen = 0
        for page in data.scan():
            for a in columns:
                values = page[:, a]
                low = float(values.min())
                if low < lows[a]:
                    if lows[a] < seconds[a]:
                        seconds[a] = lows[a]
                    lows[a] = low
                above = values[values > lows[a]]
                if above.size:
                    seconds[a] = min(seconds[a], float(above.min()))
            # page-level sampling for the median pivot: a few random
            # values per page keep the sample spread over the whole file
            per_page = max(1, sample_cap // max(1, data.num_pages))
            take = min(per_page, page.shape[0])
            rows = self.rng.choice(page.shape[0], size=take, replace=False)
            for a in columns:
                if len(samples[a]) < sample_cap:
                    samples[a].extend(float(v) for v in page[rows, a])
            seen += page.shape[0]
        return lows, seconds, samples

    def _choose_attribute(self, cand: int, lows, seconds):
        """First candidate that is not constant, or None."""
        for a in iter_bits(cand):
            if np.isfinite(seconds[a]):
                return a
        return None

    def _threshold(self, a: int, lows, seconds, samples) -> float:
        pivot = float(np.median(samples[a])) if samples[a] else lows[a]
        if pivot > lows[a]:
            return pivot
        return seconds[a]

    # -- recursion ------------------------------------------------------------
    def solve(self, data: PagedFile, cand: int, equal: int,
              depth: int) -> np.ndarray:
        """Return ``M_pi`` of the file's tuples as in-memory rows
        (rank columns + trailing id)."""
        self.context.check("external-osdc")
        if self.stats is not None:
            self.stats.recursive_calls += 1
            self.stats.max_depth = max(self.stats.max_depth, depth)
        n = data.num_rows
        if n == 0:
            return np.empty((0, self.graph.d + 1))
        if n <= self.memory_budget:
            block = np.vstack(list(data.scan()))
            local = osdc(block, self.graph, context=self.context,
                         columns=range(self.graph.d))
            return block[local]
        lows, seconds, samples = self._scan_statistics(data, cand)
        attribute = None
        while cand:
            attribute = self._choose_attribute(cand, lows, seconds)
            if attribute is not None:
                break
            # every candidate constant: promote them all into E
            for a in iter_bits(cand):
                equal |= 1 << a
            new_cand = 0
            for a in iter_bits(equal):
                for successor in iter_bits(self.graph.successors(a)):
                    if (self.graph.predecessors(successor) & ~equal) == 0 \
                            and not equal & (1 << successor):
                        new_cand |= 1 << successor
            cand = new_cand
            if cand:
                lows, seconds, samples = self._scan_statistics(data, cand)
        if attribute is None:
            # indistinguishable on every relevant attribute: all maximal
            return np.vstack(list(data.scan()))
        tau = self._threshold(attribute, lows, seconds, samples)

        # pass 2: partition and locate the look-ahead point p* in B
        better = self.storage.create(data.arity)
        worse = self.storage.create(data.arity)
        pivot_row = None
        pivot_key = None
        for page in data.scan():
            mask = page[:, attribute] < tau
            if mask.any():
                block = page[mask]
                better.append_rows(block)
                keys = self.extension.keys(block[:, :-1])
                local = int(np.lexsort(tuple(
                    keys[:, level]
                    for level in range(keys.shape[1] - 1, -1, -1)))[0])
                candidate = block[local]
                key = self._ext_key(candidate)
                if pivot_key is None or key < pivot_key:
                    pivot_key = key
                    pivot_row = candidate
            if (~mask).any():
                worse.append_rows(page[~mask])
        better.close_writes()
        worse.close_writes()
        assert pivot_row is not None

        # pass 3: Lemma 2 pruning of both halves against p*
        better = self._prune_by(better, pivot_row)
        worse = self._prune_by(worse, pivot_row)

        better_sky = self.solve(better, cand, equal, depth + 1)
        surviving_worse = self._screen_file(worse, better_sky)
        worse_sky = self.solve(surviving_worse, cand, equal, depth + 1)
        return np.vstack([pivot_row.reshape(1, -1), better_sky, worse_sky])

    def _prune_by(self, data: PagedFile, pivot_row: np.ndarray) -> PagedFile:
        pruned = self.storage.create(data.arity)
        pivot = pivot_row[:-1]
        pivot_id = pivot_row[-1]
        for page in data.scan():
            self.context.check("external-osdc-prune")
            if self.stats is not None:
                self.stats.dominance_tests += page.shape[0]
            keep = ~self.dominance.dominated_mask(page[:, :-1], pivot)
            keep &= page[:, -1] != pivot_id
            dropped = page.shape[0] - int(keep.sum())
            if self.stats is not None:
                self.stats.pruned_by_lookahead += dropped
            if keep.any():
                pruned.append_rows(page[keep])
        pruned.close_writes()
        return pruned

    def _screen_file(self, data: PagedFile,
                     result_rows: np.ndarray) -> PagedFile:
        """Stream ``data`` and keep tuples not dominated by the computed
        p-skyline ``result_rows`` (rank+id rows)."""
        survivors = self.storage.create(data.arity)
        block = result_rows[:, :-1]
        for page in data.scan():
            self.context.check("external-osdc-screen")
            if self.stats is not None:
                self.stats.dominance_tests += page.shape[0] * block.shape[0]
            keep = self.dominance.screen_block(page[:, :-1], block)
            if keep.any():
                survivors.append_rows(page[keep])
        survivors.close_writes()
        return survivors


@register("external-osdc", external=True)
def external_osdc(ranks: np.ndarray, graph: PGraph, *,
                  stats: Stats | None = None,
                  context: ExecutionContext | None = None,
                  page_size: int = 256,
                  memory_budget: int = 4096,
                  seed: int = 0) -> np.ndarray:
    """Output-sensitive p-skyline evaluation over paged storage.

    Returns sorted row indices; ``Stats.io_reads``/``io_writes`` report
    the page traffic.  ``memory_budget`` is the number of tuples a
    sub-problem may hold in memory before switching to the in-memory
    OSDC.
    """
    ranks = check_input(ranks, graph)
    context = ensure_context(context, stats)
    stats = context.stats
    if ranks.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    if memory_budget < 2:
        raise ValueError("memory_budget must be at least 2")
    storage = StorageManager(page_size)
    ids = np.arange(ranks.shape[0], dtype=np.float64).reshape(-1, 1)
    source = storage.from_matrix(np.hstack([ranks, ids]), "input")
    engine = _ExternalOSDC(graph, storage, memory_budget, context,
                           np.random.default_rng(seed))
    result = engine.solve(source, graph.roots, 0, 0)
    if stats is not None:
        stats.io_reads += storage.counter.reads
        stats.io_writes += storage.counter.writes
    context.event("external-osdc", rows=ranks.shape[0],
                  survivors=result.shape[0],
                  page_reads=storage.counter.reads,
                  page_writes=storage.counter.writes)
    return np.sort(result[:, -1].astype(np.intp))
