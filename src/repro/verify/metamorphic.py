"""Metamorphic testing: domination-preserving transforms with oracles.

Each transform rewrites a case ``(ranks, graph)`` into a new case whose
p-skyline is *exactly predictable* from the original answer:

``shuffle``
    Permuting rows permutes the result the same way (``M_pi`` is
    order-insensitive).
``duplicate``
    Appending exact copies of existing rows adds exactly the copies of
    maximal rows to the result (equal tuples never dominate each other,
    dominance being strict).
``monotone-rescale``
    A strictly increasing affine map per column (positive scale plus
    offset) preserves every rank comparison, hence the result.
``relabel``
    A p-graph isomorphism -- permuting columns together with the
    priority graph's nodes -- leaves the result untouched.
``append-dominated``
    Appending tuples strictly worse than an existing tuple on every
    attribute adds nothing: the new tuples are dominated, and by
    transitivity of ``≻`` anything they dominate was already dominated.
``kernel-native`` / ``kernel-bitmask`` / ``kernel-gemm`` / ``kernel-scalar``
    Identity transforms that re-run the algorithm with the named
    dominance kernel forced (:func:`repro.core.dominance.forced_kernel`):
    the four kernel families implement the same Proposition 1 test, so
    the result must be identical.  Registering the kernel choice as a
    metamorphic axis makes the differential fuzzer cross-check kernels
    on every rotating case with no algorithm-specific plumbing (the
    ``native`` axis degrades to the bitmask fallback on hosts without
    numba, which is itself a path worth covering).
``pool-chunked``
    Identity transform executed on the persistent worker pool: the
    case is partitioned into chunks, evaluated by worker processes
    against shared memory and tree-merged, the last pair in the parent
    (:func:`repro.algorithms.parallel.parallel_osdc`).  By the
    partition identity ``M_pi(D) = M_pi(union of chunk skylines)`` the
    result must equal the algorithm-under-test's answer, so the fuzzer
    cross-checks the whole pool execution machinery -- shared-memory
    descriptors, chunk bounds, the parent merge -- on every rotating
    case.
``sharded-2`` / ``sharded-3``
    Identity transforms executed by hash-partitioning the rows ``k``
    ways and merging the per-shard answers
    (:func:`repro.core.sharding.sharded_pskyline` running the
    algorithm under test per shard and on the union).  Again by the
    partition identity the result must be unchanged -- the
    sharded-vs-monolithic equivalence axis, cross-checking the shard
    router and partition/merge plumbing on every rotating case.
``snapshot-isolation``
    Identity transform executed against a pinned MVCC snapshot of a
    :class:`~repro.core.sharding.ShardedRelation` built from the case,
    *after* dominating inserts and random deletes have landed at later
    versions.  Snapshot isolation demands the snapshot's answer equal
    the original one -- a differential check that writes at version
    ``v + 1`` never leak into a reader pinned at ``v``.

:func:`run_transform` checks the relation for one algorithm on one case
and reports violations as :class:`~repro.verify.differential.Mismatch`
records.  A correct algorithm passes every transform on every input; the
mutation smoke-checks in the test suite show each transform catches a
characteristic implementation bug.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.dominance import forced_kernel
from ..core.pgraph import PGraph
from .differential import Mismatch, _describe

__all__ = ["MetamorphicTransform", "TRANSFORMS", "run_transform",
           "permute_graph"]

#: apply(ranks, graph, rng) -> (new_ranks, new_graph, oracle) where
#: oracle maps the original result set to the expected transformed one.
Oracle = Callable[[set], set]


@dataclass(frozen=True)
class MetamorphicTransform:
    name: str
    description: str
    apply: Callable[[np.ndarray, PGraph, random.Random],
                    tuple[np.ndarray, PGraph, Oracle]]
    #: When set, the transformed run executes under
    #: :func:`~repro.core.dominance.forced_kernel` with this kernel.
    kernel: str | None = None
    #: When set, the transformed run executes on the persistent worker
    #: pool with this many partitions instead of calling the algorithm
    #: under test directly.
    pool_chunks: int | None = None
    #: When set, the transformed run is delegated entirely to this
    #: callable -- ``executor(new_ranks, new_graph, function, rng)``
    #: returns the result indices (the sharded and snapshot axes).
    executor: Callable | None = None


def permute_graph(graph: PGraph, sigma: list[int]) -> PGraph:
    """The isomorphic p-graph with node ``sigma[j]`` moved to slot ``j``."""
    d = graph.d
    if sorted(sigma) != list(range(d)):
        raise ValueError("sigma must be a permutation of the columns")
    inverse = [0] * d
    for new, old in enumerate(sigma):
        inverse[old] = new
    names = tuple(graph.names[old] for old in sigma)
    closure = []
    for old in sigma:
        mask = graph.closure[old]
        new_mask = 0
        for old_descendant in range(d):
            if mask >> old_descendant & 1:
                new_mask |= 1 << inverse[old_descendant]
        closure.append(new_mask)
    orders = None if graph.orders is None else \
        [graph.orders[old] for old in sigma]
    return PGraph(names, tuple(closure), orders)


def _shuffle(ranks: np.ndarray, graph: PGraph, rng: random.Random):
    n = ranks.shape[0]
    perm = list(range(n))
    rng.shuffle(perm)
    perm_array = np.asarray(perm, dtype=np.intp)
    new_ranks = ranks[perm_array]

    def oracle(original: set) -> set:
        return {new for new, old in enumerate(perm) if old in original}

    return new_ranks, graph, oracle


def _duplicate(ranks: np.ndarray, graph: PGraph, rng: random.Random):
    n = ranks.shape[0]
    count = rng.randint(1, max(1, n // 2)) if n else 0
    chosen = [rng.randrange(n) for _ in range(count)]
    new_ranks = np.vstack([ranks, ranks[chosen]]) if chosen \
        else ranks.copy()

    def oracle(original: set) -> set:
        copies = {n + j for j, row in enumerate(chosen) if row in original}
        return original | copies

    return new_ranks, graph, oracle


def _monotone_rescale(ranks: np.ndarray, graph: PGraph,
                      rng: random.Random):
    d = ranks.shape[1]
    scales = np.array([rng.choice([0.01, 0.5, 3.0, 1000.0])
                       for _ in range(d)])
    offsets = np.array([rng.uniform(-5.0, 5.0) for _ in range(d)])
    new_ranks = ranks * scales + offsets
    return new_ranks, graph, lambda original: set(original)


def _relabel(ranks: np.ndarray, graph: PGraph, rng: random.Random):
    d = ranks.shape[1]
    sigma = list(range(d))
    rng.shuffle(sigma)
    new_ranks = np.ascontiguousarray(ranks[:, sigma])
    return new_ranks, permute_graph(graph, sigma), \
        lambda original: set(original)


def _append_dominated(ranks: np.ndarray, graph: PGraph,
                      rng: random.Random):
    n, d = ranks.shape
    count = rng.randint(1, 5) if n else 0
    appended = []
    for _ in range(count):
        anchor = ranks[rng.randrange(n)]
        worse = anchor + np.array([rng.uniform(0.5, 2.0)
                                   for _ in range(d)])
        appended.append(worse)
    new_ranks = np.vstack([ranks, np.array(appended)]) if appended \
        else ranks.copy()
    return new_ranks, graph, lambda original: set(original)


def _identity(ranks: np.ndarray, graph: PGraph, rng: random.Random):
    return ranks, graph, lambda original: set(original)


def _kernel_transform(kernel: str) -> MetamorphicTransform:
    return MetamorphicTransform(
        f"kernel-{kernel}",
        f"re-run with the {kernel} dominance kernel forced; the result "
        "is unchanged", _identity, kernel=kernel)


def _sharded_executor(shards: int) -> Callable:
    def execute(ranks: np.ndarray, graph: PGraph, function,
                rng: random.Random):
        from ..core.sharding import sharded_pskyline

        return sharded_pskyline(ranks, graph, shards=shards,
                                function=function)
    return execute


def _sharded_transform(shards: int) -> MetamorphicTransform:
    return MetamorphicTransform(
        f"sharded-{shards}",
        f"hash-partition the rows {shards} ways, evaluate per shard and "
        "merge; the result is unchanged (partition identity)",
        _identity, executor=_sharded_executor(shards))


def _snapshot_isolation_executor(ranks: np.ndarray, graph: PGraph,
                                 function, rng: random.Random):
    """Pin a snapshot, land writes at later versions, answer from the
    snapshot -- it must still see the original case."""
    from ..core.sharding import ShardedRelation

    relation = ShardedRelation.from_array(ranks, names=graph.names,
                                          shards=2)
    snapshot = relation.snapshot()
    try:
        pinned = snapshot.version
        n, d = ranks.shape
        for _ in range(rng.randint(1, 4)):
            if n:
                anchor = ranks[rng.randrange(n)]
                better = anchor - np.array(
                    [rng.uniform(0.5, 2.0) for _ in range(d)])
            else:
                better = np.zeros(d)
            relation.insert_ranks(better)
        if n:
            for gid in rng.sample(range(n), min(n, rng.randint(1, 3))):
                relation.delete(gid)
        if relation.version <= pinned:
            raise AssertionError(
                "writes did not advance the relation version")
        # global ids of the bulk-built rows are the original row order,
        # so snapshot positions map straight back to case indices
        local = np.asarray(function(snapshot.relation.ranks, graph),
                           dtype=np.intp)
        return snapshot.global_ids[local]
    finally:
        snapshot.close()


def _fused_batch_executor(ranks: np.ndarray, graph: PGraph,
                          function, rng: random.Random):
    """Answer the case from inside a fused correlated batch.

    The case graph is batched with a duplicate of itself, the empty
    graph (Pareto -- contained in every p-graph) and the full priority
    chain over the same attributes, then the whole batch runs through
    :class:`~repro.core.fusion.FusionPlan`: one shared-base evaluation
    plus packed-mask screening must reproduce exactly what the
    algorithm under test answers for the case graph alone (fused ==
    unfused).
    """
    from ..core.fusion import FusionPlan

    d = graph.d
    if d == 0:
        return function(ranks, graph)
    empty = PGraph(graph.names, (0,) * d, graph.orders)
    chain_closure = tuple((((1 << d) - 1) >> (i + 1)) << (i + 1)
                          for i in range(d))
    chain = PGraph(graph.names, chain_closure, graph.orders)
    key = tuple(range(d))
    plan = FusionPlan.build([(graph, key), (empty, key), (chain, key),
                             (graph, key)])

    def evaluate(g: PGraph, k: tuple):
        return function(ranks, g)

    def candidates(indices: np.ndarray, k: tuple):
        return ranks[indices]

    results = plan.execute(evaluate=evaluate, candidates=candidates)
    if not np.array_equal(np.asarray(results[0]),
                          np.asarray(results[3])):
        raise AssertionError(
            "duplicate spellings of one preference diverged in the "
            "fused batch")
    return results[0]


TRANSFORMS: dict[str, MetamorphicTransform] = {
    transform.name: transform for transform in (
        MetamorphicTransform(
            "shuffle", "permute the rows; the result permutes alike",
            _shuffle),
        MetamorphicTransform(
            "duplicate",
            "append copies of rows; copies of maximal rows join the "
            "result", _duplicate),
        MetamorphicTransform(
            "monotone-rescale",
            "positively rescale each column; the result is unchanged",
            _monotone_rescale),
        MetamorphicTransform(
            "relabel",
            "apply a p-graph isomorphism (permute columns with nodes); "
            "the result is unchanged", _relabel),
        MetamorphicTransform(
            "append-dominated",
            "append tuples strictly worse than an existing tuple; the "
            "result is unchanged", _append_dominated),
        # forcing "native" exercises the compiled backend when numba is
        # importable and the graceful bitmask fallback otherwise -- both
        # must reproduce the oracle bit for bit
        _kernel_transform("native"),
        _kernel_transform("bitmask"),
        _kernel_transform("gemm"),
        _kernel_transform("scalar"),
        MetamorphicTransform(
            "pool-chunked",
            "re-evaluate on the persistent worker pool (2 chunks, "
            "shared memory, tree merge); the result is unchanged",
            _identity, pool_chunks=2),
        _sharded_transform(2),
        _sharded_transform(3),
        MetamorphicTransform(
            "snapshot-isolation",
            "answer from a pinned MVCC snapshot after writes land at "
            "later versions; the result is unchanged",
            _identity, executor=_snapshot_isolation_executor),
        MetamorphicTransform(
            "fused-batch",
            "evaluate inside a fused correlated batch (duplicate, "
            "empty and chain companions share one base skyline and "
            "packed Better masks); the result is unchanged",
            _identity, executor=_fused_batch_executor),
    )
}


def run_transform(transform: MetamorphicTransform, ranks: np.ndarray,
                  graph: PGraph, function, rng: random.Random, *,
                  algorithm: str = "?") -> list[Mismatch]:
    """Check one metamorphic relation for one algorithm on one case.

    The original run is the oracle.  For the kernel and pool axes it
    screens with the ``bitmask`` kernel forced, so the configuration
    under test never depends on which kernel the host's auto policy
    would pick for the oracle.
    """
    pinned = forced_kernel("bitmask") if transform.kernel is not None \
        or transform.pool_chunks is not None else nullcontext()
    with pinned:
        original = set(int(i) for i in function(ranks, graph))
    new_ranks, new_graph, oracle = transform.apply(ranks, graph, rng)
    expected = oracle(original)
    if transform.executor is not None:
        got = set(int(i) for i in transform.executor(
            new_ranks, new_graph, function, rng))
    elif transform.pool_chunks is not None:
        from ..algorithms.parallel import parallel_osdc

        got = set(int(i) for i in parallel_osdc(
            new_ranks, new_graph, processes=transform.pool_chunks,
            min_chunk=8))
    elif transform.kernel is not None:
        with forced_kernel(transform.kernel):
            got = set(int(i) for i in function(new_ranks, new_graph))
    else:
        got = set(int(i) for i in function(new_ranks, new_graph))
    if got != expected:
        return [Mismatch(
            f"metamorphic-{transform.name}", algorithm,
            f"expected {_describe(expected)} after the transform, got "
            f"{_describe(got)} (original result {_describe(original)})")]
    return []
