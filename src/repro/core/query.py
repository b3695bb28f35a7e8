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
                               get_info, run_on_columns)
from ..engine.context import ExecutionContext
from ..engine.pool import is_frozen
from .attributes import orders_signature
from .expressions import PExpr
from .parser import parse
from .pgraph import PGraph
from .relation import Relation

__all__ = ["p_skyline", "p_skyline_batch", "skyline"]


def _matrix_names(width: int) -> tuple[str, ...]:
    """The attribute names of a bare matrix's columns."""
    return tuple(f"A{j}" for j in range(width))


def resolve_expression(names, schema, expression
                       ) -> tuple[PGraph, list[int]]:
    """The one resolver of every query entry point: ``expression`` (a
    p-expression, its textual form or a p-graph) over the attributes
    ``names`` -> ``(graph, columns)``, where ``columns[i]`` is the
    index in ``names`` of the graph's ``i``-th attribute.

    With a relation's ``schema`` the graph carries the order signature
    of those columns (a p-graph keeps one it already has), so a tracked
    graph and a queried graph compare equal; a bare matrix passes
    ``None`` and its graph has no orders.  Raises :class:`KeyError`
    naming the attributes missing from ``names``, and
    :class:`TypeError` for anything that is not an expression.
    """
    if isinstance(expression, str):
        expression = parse(expression)
    if isinstance(expression, PGraph):
        graph = expression
    elif isinstance(expression, PExpr):
        graph = PGraph.from_expression(expression,
                                       names=expression.attributes())
    else:
        raise TypeError(
            f"expected a p-expression, its textual form or a p-graph, "
            f"got {type(expression)}")
    missing = [name for name in graph.names if name not in names]
    if missing:
        kind = "p-graph" if expression is graph else "expression"
        if schema is not None:
            raise KeyError(
                f"{kind} uses attributes not in the relation: {missing}")
        raise KeyError(
            f"{kind} uses attributes not in the matrix: {missing} "
            f"(matrix columns are named A0..A{len(names) - 1})")
    columns = [names.index(name) for name in graph.names]
    if schema is not None and graph.orders is None:
        graph = graph.with_orders(orders_signature(
            [schema[c] for c in columns]))
    return graph, columns


def p_skyline(data: Relation | np.ndarray,
              expression: PExpr | str | PGraph, *,
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
        A p-expression AST, its textual form (see
        :mod:`repro.core.parser`) or a p-graph
        (:func:`resolve_expression`).  Attributes the expression does
        not mention are ignored (they are irrelevant for ``≻_pi``).
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
    if timeout is not None:
        if context is not None:
            raise ValueError("pass either timeout or context, not both")
        context = ExecutionContext.create(stats=stats, timeout=timeout)
    context = ensure_context(context, stats)
    if algorithm != "auto":
        get_algorithm(algorithm)  # an unknown name fails first
    if isinstance(data, Relation):
        matrix = data.ranks
        graph, columns = resolve_expression(data.names, data.schema,
                                            expression)
    else:
        matrix = np.asarray(data, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        graph, columns = resolve_expression(
            _matrix_names(matrix.shape[1]), None, expression)
        if not is_frozen(matrix):
            matrix, columns = np.take(matrix, columns, axis=1), None
    indices = _evaluate(algorithm, matrix, graph, columns, stats, context,
                        options)
    return data.take(indices) if isinstance(data, Relation) else indices


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

    The "many users, one data set" shape of a loaded service.  Every
    batch is planned by :class:`~repro.core.fusion.FusionPlan`:
    duplicate preferences are evaluated once, and distinct preferences
    over a shared column signature are refined from their common base
    skyline with shared packed ``Better`` masks
    (``stats.extra["fusion"]`` reports the exact hit/miss counters).
    One loop serves every kind of data (a sharded relation is read
    through one pinned snapshot), and each evaluation the plan asks for
    runs one way for the whole batch:

    * on the worker pool when a pool can run and ``algorithm`` is not
      ``"auto"`` -- under the rule ``p_skyline(algorithm="auto")``
      plans by: the data holds at least the default planner's
      ``parallel_threshold`` rows and there are two or more usable
      cores (below that the serial fused loop measured faster) -- or
      whenever a ``parallel`` algorithm (``parallel-osdc``) is named
      and the data holds at least ``2 * min_chunk`` rows:
      :meth:`~repro.engine.pool.WorkerPool.run_query` in
      ``min(processes, n // min_chunk)`` chunks (``processes`` defaults
      to the pool's worker count), or
      :meth:`~repro.engine.pool.WorkerPool.run_sharded` over the
      snapshot's pins.  The pool registers the rank matrix (or each
      shard's base) into shared memory once for the whole batch, and
      ``algorithm`` names the *per-chunk* evaluator;
    * otherwise in this process, as :func:`p_skyline` evaluates:
      ``algorithm="auto"`` resolves the execution strategy once per
      fused group through the planner, so a large group can still
      reach the pool's shared-memory path.

    Stats from every worker of every query are merged into
    ``stats``/``context.stats``.  Returns one result per expression,
    in order: a :class:`Relation` when ``data`` is a relation (sharded
    or not), else a sorted index array.
    """
    from contextlib import nullcontext

    from ..engine.pool import _frozen_matrix, get_default_pool
    from .fusion import FusionPlan
    from .sharding import ShardedRelation

    expressions = list(expressions)
    if timeout is not None:
        if context is not None:
            raise ValueError("pass either timeout or context, not both")
        context = ExecutionContext.create(stats=stats, timeout=timeout)
    context = ensure_context(context, stats)
    if min_chunk < 1:
        raise ValueError("min_chunk must be at least 1")
    if algorithm != "auto":
        get_algorithm(algorithm)  # an unknown name fails before any work
    sharded = isinstance(data, ShardedRelation)
    with data.snapshot() if sharded else nullcontext() as snap:
        if sharded:
            names, schema, rows = data.names, data.schema, snap.rows
        elif isinstance(data, Relation):
            names, schema, rows = data.names, data.schema, data.ranks
        else:
            # frozen once here, so the pool registers it once per batch
            rows = _frozen_matrix(data)
            if rows.ndim != 2:
                raise ValueError("expected a 2-d matrix")
            names, schema = _matrix_names(rows.shape[1]), None
        plan = FusionPlan.build(
            (graph, tuple(columns)) for graph, columns in
            (resolve_expression(names, schema, expression)
             for expression in expressions))
        n = len(rows)
        if _batch_pools(algorithm, n, min_chunk):
            pool = get_default_pool()
            chunks = max(1, min(pool.processes if processes is None
                                else processes, n // min_chunk))

            def evaluate(graph, key):
                if sharded:
                    return pool.run_sharded(
                        snap.pins, graph, algorithm=algorithm,
                        columns=list(key), options=options,
                        context=context)
                return pool.run_query(
                    rows, graph, algorithm=algorithm, chunks=chunks,
                    columns=list(key), options=options, context=context)
        else:
            def evaluate(graph, key):
                # a serial sharded read materialises the snapshot once
                ranks = snap.relation.ranks if sharded else rows
                return _evaluate(algorithm, ranks, graph, key, None,
                                 context, options)

        def candidates(indices, key):
            return rows[indices][:, list(key)]

        results = plan.execute(evaluate=evaluate, candidates=candidates,
                               context=context)
        if sharded:
            return [snap.take_gids(snap.gids_at(indices))
                    for indices in results]
    if isinstance(data, Relation):
        return [data.take(indices) for indices in results]
    return results


def _batch_pools(algorithm: str, n: int, min_chunk: int) -> bool:
    """Whether :func:`p_skyline_batch` runs a batch of ``algorithm``
    over ``n`` rows on the worker pool."""
    from ..engine.pool import pool_available, usable_cores
    from ..planner import DEFAULT_PLANNER

    if algorithm == "auto" or not pool_available():
        return False
    if get_info(algorithm).parallel:
        return n >= 2 * min_chunk
    threshold = DEFAULT_PLANNER.parallel_threshold
    return threshold is not None and n >= threshold \
        and usable_cores() > 1


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
        names = _matrix_names(np.asarray(data).shape[1])
    from .expressions import sky
    return p_skyline(data, sky(names), algorithm=algorithm, stats=stats,
                     context=context, timeout=timeout, **options)
