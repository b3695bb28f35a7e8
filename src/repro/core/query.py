"""The high-level p-skyline query API.

:func:`p_skyline` evaluates ``M_pi(D)`` for a relation (or bare rank
matrix) and a p-expression (or its textual form), dispatching to any
registered algorithm.  This is the entry point a library user should
reach for first::

    from repro import Relation, lowest, highest, p_skyline

    cars = Relation.from_records(records,
                                 [lowest("price"), lowest("mileage"),
                                  highest("horsepower")])
    best = p_skyline(cars, "(price & horsepower) * mileage")
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.base import (Stats, ensure_context, get_algorithm,
                               run_on_columns)
from ..engine.context import ExecutionContext
from ..engine.pool import is_frozen
from .attributes import orders_signature
from .expressions import PExpr
from .parser import parse
from .pgraph import PGraph
from .relation import Relation

__all__ = ["p_skyline", "p_skyline_batch", "skyline"]


def _resolve_expression(expression: PExpr | str) -> PExpr:
    if isinstance(expression, str):
        return parse(expression)
    if isinstance(expression, PExpr):
        return expression
    raise TypeError(
        f"expected a PExpr or its textual form, got {type(expression)}"
    )


def p_skyline(data: Relation | np.ndarray, expression: PExpr | str, *,
              algorithm: str = "osdc", stats: Stats | None = None,
              context: ExecutionContext | None = None,
              timeout: float | None = None,
              **options: Any) -> Relation | np.ndarray:
    """Evaluate the p-skyline query ``M_pi(data)``.

    Parameters
    ----------
    data:
        A :class:`Relation`, or a raw ``(n, d)`` matrix in which smaller
        values are better and columns are named ``A0..A{d-1}``.
    expression:
        A p-expression AST or its textual form (see
        :mod:`repro.core.parser`).  Attributes the expression does not
        mention are ignored (they are irrelevant for ``≻_pi``).
    algorithm:
        A registry name (``osdc`` by default; see
        :data:`repro.algorithms.REGISTRY`).
    stats:
        Optional :class:`~repro.algorithms.base.Stats` to fill with work
        counters.
    context:
        Optional :class:`~repro.engine.ExecutionContext` carrying a
        deadline, cancellation token, memory budget, trace buffer and
        compiled-preference cache.  Created on the fly when absent.
    timeout:
        Shorthand for ``context`` with only a deadline: the query raises
        :class:`~repro.engine.QueryTimeout` after this many seconds.
    options:
        Forwarded to the algorithm (e.g. ``filter_size`` for LESS).

    Returns
    -------
    A :class:`Relation` of the maximal tuples (when given a relation) or
    the sorted row-index array (when given a matrix).

    A query the planner sends to the worker pool (``parallel-osdc``)
    ships the base matrix with the columns it reads: the pool registers
    each relation's rank matrix -- or each read-only float64 matrix --
    into shared memory once, whatever columns later queries select.  A
    writeable matrix could change in place between queries, so its
    projection is taken here and registered per query.
    """
    from .sharding import ShardedRelation

    if isinstance(data, ShardedRelation):
        # sharded relations pin a snapshot and plan per shard
        return data.p_skyline(expression, algorithm=algorithm,
                              stats=stats, context=context,
                              timeout=timeout, **options)
    expr = _resolve_expression(expression)
    names = expr.attributes()
    if timeout is not None:
        if context is not None:
            raise ValueError("pass either timeout or context, not both")
        context = ExecutionContext.create(stats=stats, timeout=timeout)
    context = ensure_context(context, stats)
    if algorithm != "auto":
        get_algorithm(algorithm)  # an unknown name fails first
    if isinstance(data, Relation):
        missing = [name for name in names if name not in data.names]
        if missing:
            raise KeyError(
                f"expression uses attributes not in the relation: {missing}"
            )
        columns = [data.names.index(name) for name in names]
        graph = PGraph.from_expression(expr, names=names).with_orders(
            orders_signature([data.schema[c] for c in columns]))
        return data.take(_evaluate(algorithm, data.ranks, graph, columns,
                                   stats, context, options))
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    default_names = [f"A{j}" for j in range(matrix.shape[1])]
    missing = [name for name in names if name not in default_names]
    if missing:
        raise KeyError(
            f"expression uses attributes not in the matrix: {missing} "
            f"(matrix columns are named A0..A{matrix.shape[1] - 1})"
        )
    columns = [default_names.index(name) for name in names]
    graph = PGraph.from_expression(expr, names=names)
    if not is_frozen(matrix):
        matrix, columns = matrix[:, columns], None
    return _evaluate(algorithm, matrix, graph, columns, stats, context,
                     options)


def _evaluate(algorithm: str, ranks: np.ndarray, graph: PGraph, columns,
              stats: Stats | None, context: ExecutionContext,
              options: dict) -> np.ndarray:
    """Run ``algorithm`` (or the planner) over the columns ``columns``
    of the base matrix ``ranks``.

    The projection is taken once, by whatever runs serially; pooled
    evaluation ships ``(ranks, columns)`` so the worker pool registers
    each base matrix into shared memory once.
    """
    if algorithm == "auto":
        from ..planner import DEFAULT_PLANNER

        return DEFAULT_PLANNER.execute(ranks, graph, stats=stats,
                                       context=context, columns=columns)
    return run_on_columns(algorithm, ranks, graph, columns,
                          stats=stats, context=context, **options)


def p_skyline_batch(data: Relation | np.ndarray,
                    expressions, *,
                    algorithm: str = "osdc",
                    stats: Stats | None = None,
                    context: ExecutionContext | None = None,
                    timeout: float | None = None,
                    processes: int | None = None,
                    min_chunk: int = 4096,
                    **options: Any) -> list:
    """Evaluate many p-skyline queries against **one** data set.

    The "many users, one data set" shape of a loaded service: the rank
    matrix is registered into the worker pool's shared memory once and
    each p-expression ships only descriptors
    (:meth:`repro.engine.pool.WorkerPool.map_queries`), so a batch of
    ``k`` queries costs one registration instead of ``k`` cold
    registrations and pool start-ups.  ``algorithm`` names the
    *per-chunk* evaluator (``osdc`` by default).  Stats from every
    worker of every query are merged into ``stats``/``context.stats``.

    Every batch is first planned by
    :class:`~repro.core.fusion.FusionPlan`: duplicate preferences are
    evaluated once, and distinct preferences over a shared column
    signature are refined from their common base skyline with shared
    packed ``Better`` masks (``stats.extra["fusion"]`` reports the
    exact hit/miss counters).  ``algorithm="auto"`` resolves the
    execution strategy once per fused group through the planner --
    large auto batches reach the pool's shared-memory path instead of
    degrading to one-by-one sequential evaluation.  Sharded relations
    pin ONE snapshot for the whole batch and serve the fused plan
    through the pool's per-shard registrations
    (:meth:`~repro.engine.pool.WorkerPool.run_sharded`) -- no stable
    sorted copy of the snapshot is ever materialised.

    Returns one result per expression, in order: a :class:`Relation`
    when ``data`` is a relation, else a sorted index array.
    """
    from ..engine.pool import get_default_pool, pool_available
    from .sharding import ShardedRelation

    expressions = list(expressions)
    if timeout is not None:
        if context is not None:
            raise ValueError("pass either timeout or context, not both")
        context = ExecutionContext.create(stats=stats, timeout=timeout)
    context = ensure_context(context, stats)
    if min_chunk < 1:
        raise ValueError("min_chunk must be at least 1")
    if isinstance(data, ShardedRelation):
        return _sharded_batch(data, expressions, algorithm=algorithm,
                              context=context, min_chunk=min_chunk,
                              options=options)
    if not isinstance(data, Relation):
        # the pool registers a writeable matrix as a read-only copy
        data = np.asarray(data, dtype=np.float64)
    n = len(data)
    if pool_available() and n >= 2 * min_chunk and algorithm != "auto":
        pool = get_default_pool()
        chunks = None if processes is None else \
            max(1, min(processes, n // min_chunk))
        indices = pool.map_queries(data, expressions,
                                   algorithm=algorithm, chunks=chunks,
                                   min_chunk=min_chunk, options=options,
                                   context=context)
    else:
        indices = _serial_fused_batch(data, expressions,
                                      algorithm=algorithm,
                                      context=context, options=options)
    if isinstance(data, Relation):
        return [data.take(index) for index in indices]
    return indices


def _batch_function(algorithm: str, options: dict):
    """The per-evaluation callable ``function(ranks, graph, columns,
    context=...)`` of a fused batch, over the columns ``columns`` of the
    base matrix ``ranks``.

    ``"auto"`` goes through the planner *per fused group*, so one batch
    resolves its strategy once per distinct base preference -- the
    planner's parallel rule can still send a large group to the pool,
    which then registers the base matrix once for the whole batch.
    """
    if algorithm == "auto":
        from ..planner import DEFAULT_PLANNER

        def function(ranks, graph, columns, *, context=None):
            return DEFAULT_PLANNER.execute(ranks, graph, context=context,
                                           columns=columns)

        return function
    get_algorithm(algorithm)  # an unknown name fails before any work

    def function(ranks, graph, columns, *, context=None):
        return run_on_columns(algorithm, ranks, graph, columns,
                              context=context, **options)

    return function


def _serial_fused_batch(data, expressions, *, algorithm: str,
                        context: ExecutionContext, options: dict) -> list:
    """Fused evaluation without the pool dispatcher (small inputs,
    daemonic processes, or planner-driven ``auto`` batches)."""
    from ..engine.pool import _resolve_batch
    from .fusion import FusionPlan

    ranks, resolved = _resolve_batch(data, expressions)
    plan = FusionPlan.build(
        (graph, tuple(columns) if columns is not None
         else tuple(range(graph.d)))
        for graph, columns in resolved)
    function = _batch_function(algorithm, options)

    def evaluate(graph, key):
        return function(ranks, graph, key, context=context)

    def candidates(indices, key):
        return ranks[np.ix_(indices, list(key))]

    return plan.execute(evaluate=evaluate, candidates=candidates,
                        context=context)


def _sharded_batch(data, expressions, *, algorithm: str,
                   context: ExecutionContext, min_chunk: int,
                   options: dict) -> list:
    """One pinned snapshot, fused plan, per-shard pool registrations.

    Pool evaluation goes through
    :meth:`~repro.engine.pool.WorkerPool.run_sharded` against the
    snapshot's pinned shards, whose live rows are numbered like the
    snapshot's, and screening rows are gathered from the pins
    (:attr:`ShardSnapshot.rows`); results map back to rows via global
    ids, so the pooled path never concatenates the snapshot.
    """
    from ..engine.pool import get_default_pool, pool_available
    from .fusion import FusionPlan

    with data.snapshot() as snap:
        resolved = [data._resolve(expression)
                    for expression in expressions]
        plan = FusionPlan.build((graph, tuple(columns))
                                for graph, columns in resolved)
        n = len(snap)
        use_pool = pool_available() and n >= 2 * min_chunk \
            and algorithm != "auto"
        if use_pool:
            pool = get_default_pool()

            def evaluate(graph, key):
                return pool.run_sharded(snap.pins, graph,
                                        algorithm=algorithm,
                                        columns=list(key),
                                        options=options,
                                        context=context)
        else:
            function = _batch_function(algorithm, options)

            def evaluate(graph, key):
                return function(snap.relation.ranks, graph, key,
                                context=context)

        def candidates(indices, key):
            return snap.rows[indices][:, list(key)]

        indices_list = plan.execute(evaluate=evaluate,
                                    candidates=candidates,
                                    context=context)
        return [snap.take_gids(snap.gids_at(indices))
                for indices in indices_list]


def skyline(data: Relation | np.ndarray, *, algorithm: str = "osdc",
            stats: Stats | None = None,
            context: ExecutionContext | None = None,
            timeout: float | None = None, **options: Any
            ) -> Relation | np.ndarray:
    """The plain skyline ``M_sky(data)`` over *all* attributes
    (Section 2.2: the Pareto accumulation of every column)."""
    if hasattr(data, "names"):  # Relation and ShardedRelation alike
        names = data.names
    else:
        matrix = np.asarray(data)
        names = tuple(f"A{j}" for j in range(matrix.shape[1]))
    from .expressions import sky
    return p_skyline(data, sky(names), algorithm=algorithm, stats=stats,
                     context=context, timeout=timeout, **options)
