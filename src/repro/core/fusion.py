"""Cross-query fusion for batches of correlated p-skyline queries.

The north-star workload is *many similar queries over one relation*:
preference elicitation (Mindolin & Chomicki) produces thousands of
p-expressions that share attribute subsets, priority-chain fragments
and often whole graphs.  This module turns such a batch into a
:class:`FusionPlan` that evaluates shared work once:

1. **Canonicalisation** -- each query's columns are sorted and its
   p-graph permuted consistently.  Dominance is invariant under a joint
   column/graph permutation, so two expressions over the same attribute
   set in different spelling order land on the same canonical form.
2. **Deduplication** -- canonical queries are grouped by the compiled
   cache identity ``(names, closure, orders)`` plus the column
   signature; duplicates are evaluated once (``dedup_hits``).
3. **Shared-base screening** (Proposition 2) -- distinct queries over
   the same column signature are grouped, and the *edge intersection*
   of their p-graphs forms a common base graph contained (in the sense
   of :meth:`~repro.core.pgraph.PGraph.contains`) in every member.
   ``Desc`` is monotone in the edge set, so base-dominance implies
   member-dominance: every member's skyline is a subset of the base
   skyline, and equals the member-skyline *of* the base skyline.  The
   plan evaluates the base once and refines each member by
   self-screening the base survivors -- through
   :func:`~repro.core.dominance.screen_block_multi`, which packs each
   ``Better``-mask block once and replays it for every member graph
   (the exact ``mask_hits`` / ``mask_misses`` counters).  The base is
   shared only when it is itself one of the member preferences, so its
   evaluation is work the batch needed anyway; when the intersection is
   strictly weaker than every member (e.g. the Pareto weakening of a
   set of cheap priority chains), the group fuses by deduplication
   alone rather than paying for an extra, more expensive query.

The plan is evaluation-agnostic: callers supply ``evaluate(graph, key)``
(a full skyline of the relation under ``graph`` restricted to the
columns described by ``key``) and ``candidates(indices, key)`` (the rank
rows of those result indices), so the same plan drives the serial path,
the worker pool's shared-memory path, sharded snapshots and the SQL
executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitsets import iter_bits
from .dominance import screen_block_multi
from .pgraph import PGraph

__all__ = ["FusionPlan", "FusionGroup", "FusedEntry",
           "permute_preference", "MAX_SHARED_CANDIDATES"]

#: Above this many base-skyline survivors the per-member refinement
#: falls back to independent evaluation: self-screening is quadratic in
#: the candidate count, while the output-sensitive algorithms are not.
MAX_SHARED_CANDIDATES = 8192


def permute_preference(graph: PGraph, sigma) -> PGraph:
    """The same preference with columns reordered by ``sigma``.

    New column ``j`` holds old column ``sigma[j]``; names, closure masks
    and order signatures are permuted consistently, so the permuted
    graph over the permuted columns induces exactly the original
    dominance relation.
    """
    sigma = list(sigma)
    inverse = [0] * len(sigma)
    for new, old in enumerate(sigma):
        inverse[old] = new
    names = tuple(graph.names[old] for old in sigma)
    closure = []
    for old in sigma:
        mask = 0
        for k in iter_bits(graph.closure[old]):
            mask |= 1 << inverse[k]
        closure.append(mask)
    orders = None
    if graph.orders is not None:
        orders = tuple(graph.orders[old] for old in sigma)
    return PGraph(names, closure, orders)


@dataclass
class FusedEntry:
    """One distinct canonical preference and the batch slots it serves."""

    graph: PGraph
    positions: list = field(default_factory=list)


@dataclass
class FusionGroup:
    """Distinct preferences sharing one column signature (and orders)."""

    key: tuple
    entries: list = field(default_factory=list)
    base: PGraph | None = None


class FusionPlan:
    """A fused evaluation plan for a batch of p-skyline queries."""

    __slots__ = ("count", "groups", "distinct", "dedup_hits")

    def __init__(self, count: int, groups: list):
        self.count = count
        self.groups = groups
        self.distinct = sum(len(group.entries) for group in groups)
        self.dedup_hits = count - self.distinct

    @classmethod
    def build(cls, queries) -> "FusionPlan":
        """Plan a batch of ``(graph, items)`` pairs.

        ``items`` is the per-attribute data signature -- a tuple of
        hashable, mutually comparable entries (column indices for the
        rank-matrix paths, ``(column, encoding)`` pairs for the SQL
        path) aligned with ``graph.names``.  Two queries fuse exactly
        when their canonicalised signatures and graphs agree.
        """
        queries = list(queries)
        entries: dict = {}
        ordered: list = []
        for position, (graph, items) in enumerate(queries):
            items = tuple(items)
            if len(items) != graph.d:
                raise ValueError(
                    f"query {position}: {len(items)} signature items for "
                    f"{graph.d} attributes")
            sigma = sorted(range(len(items)), key=items.__getitem__)
            if sigma == list(range(len(items))):
                canonical = graph
            else:
                canonical = permute_preference(graph, sigma)
                items = tuple(items[j] for j in sigma)
            dedup_key = (items, canonical.names, canonical.closure,
                         canonical.orders)
            entry = entries.get(dedup_key)
            if entry is None:
                entry = FusedEntry(graph=canonical)
                entries[dedup_key] = entry
                ordered.append((dedup_key, entry))
            entry.positions.append(position)
        groups: dict = {}
        group_list: list = []
        for (items, names, _closure, orders), entry in ordered:
            group_key = (items, names, orders)
            group = groups.get(group_key)
            if group is None:
                group = FusionGroup(key=items)
                groups[group_key] = group
                group_list.append(group)
            group.entries.append(entry)
        for group in group_list:
            group.base = _common_base(group.entries)
        return cls(len(queries), group_list)

    def execute(self, *, evaluate, candidates, context=None,
                chunk: int = 256,
                max_candidates: int = MAX_SHARED_CANDIDATES,
                counters: dict | None = None) -> list:
        """Run the plan; one sorted index array per original query.

        ``evaluate(graph, key)`` must return the sorted row indices of
        the skyline under ``graph`` over the columns described by
        ``key``; ``candidates(indices, key)`` the corresponding rank
        rows.  Counters land in ``counters`` (if given) and in
        ``context.stats.extra["fusion"]``.
        """
        results = [None] * self.count
        if counters is None:
            counters = {}
        counters.update({
            "queries": self.count, "distinct": self.distinct,
            "groups": len(self.groups), "dedup_hits": self.dedup_hits,
            "base_evaluations": 0, "screened": 0, "fallbacks": 0,
            "mask_hits": 0, "mask_misses": 0,
            # which backend served the fused groups; filled by
            # screen_block_multi, None when nothing was screened
            "kernel": None})
        check = context.check if context is not None else None
        for group in self.groups:
            base = group.base
            if not any(entry.graph.closure == base.closure
                       for entry in group.entries):
                # No member *is* the intersection, so a shared base
                # would be an extra query on top of the members -- and
                # typically a far more expensive one (the Pareto
                # weakening of a set of cheap priority chains).  Fuse
                # by deduplication alone.
                counters["base_evaluations"] += len(group.entries)
                for entry in group.entries:
                    _assign(results, entry,
                            _as_indices(evaluate(entry.graph, group.key)))
                continue
            members = []
            base_indices = None
            for entry in group.entries:
                if entry.graph.closure == base.closure:
                    if base_indices is None:
                        base_indices = _as_indices(
                            evaluate(entry.graph, group.key))
                        counters["base_evaluations"] += 1
                    _assign(results, entry, base_indices)
                else:
                    members.append(entry)
            if not members:
                continue
            if base_indices.size > max_candidates:
                # quadratic refinement would not pay off; run each
                # member through the output-sensitive path instead
                counters["fallbacks"] += len(members)
                for entry in members:
                    _assign(results, entry,
                            _as_indices(evaluate(entry.graph, group.key)))
                continue
            rows = candidates(base_indices, group.key)
            dominances = [_oracle(entry.graph, context)
                          for entry in members]
            masks = screen_block_multi(dominances, rows, chunk=chunk,
                                       check=check, counters=counters)
            counters["screened"] += len(members)
            for entry, mask in zip(members, masks):
                _assign(results, entry, base_indices[mask])
        if context is not None and context.stats is not None:
            context.stats.extra["fusion"] = dict(counters)
        return results


def _as_indices(indices) -> np.ndarray:
    return np.asarray(indices, dtype=np.intp)


def _assign(results: list, entry: FusedEntry, indices: np.ndarray) -> None:
    for position in entry.positions:
        results[position] = indices


def _oracle(graph: PGraph, context):
    if context is not None:
        return context.compiled(graph).dominance
    from ..engine.compiled import compile_preference
    return compile_preference(graph).dominance


def _common_base(entries: list) -> PGraph:
    """The shared base graph of a group (edge intersection).

    The per-attribute AND of transitively-closed descendant masks is
    itself transitively closed and acyclic, and is contained in every
    member (Proposition 2), so base-dominance implies member-dominance.
    The base must additionally be a *valid* p-skyline preference for the
    evaluation algorithms (an SPO, Theorem 4's envelope property); when
    the intersection is not, the empty graph -- plain Pareto, contained
    in everything -- is the base.
    """
    first = entries[0].graph
    if len(entries) == 1:
        return first
    closure = list(first.closure)
    for entry in entries[1:]:
        for i, mask in enumerate(entry.graph.closure):
            closure[i] &= mask
    try:
        base = PGraph(first.names, closure, first.orders)
        if not base.satisfies_envelope():
            raise ValueError("intersection violates the envelope property")
    except ValueError:
        base = PGraph(first.names, (0,) * first.d, first.orders)
    return base
