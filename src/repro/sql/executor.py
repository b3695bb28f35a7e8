"""Execution of Preference SQL queries over registered relations.

:class:`PreferenceSQL` is a tiny catalog + executor:

1. ``WHERE`` filters rows with vectorised predicates over the *raw*
   column values (numeric columns compare numerically, ranked columns
   compare their string values; ordering comparisons on ranked columns
   follow the declared preference order, best first);
2. ``PREFERRING`` evaluates the p-skyline of the survivors
   (:mod:`repro.core.preferring` semantics, directions overriding the
   schema);
3. ``TOP k`` keeps the ``k`` best maximal tuples in ``≻ext`` order;
4. the ``SELECT`` list projects the final relation.
"""

from __future__ import annotations

import operator
from typing import Any

import numpy as np

from ..algorithms.base import Stats, ensure_context
from ..core.attributes import Direction
from ..core.preferring import (encode_columns, evaluate_preferring,
                               resolve_preferring)
from ..core.query import _evaluate
from ..core.relation import Relation
from ..engine.context import ExecutionContext
from .ast import Comparison, Condition, Logical, Not, Query
from .parser import parse_query

__all__ = ["PreferenceSQL", "SqlExecutionError", "BatchExecutionError"]

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class SqlExecutionError(ValueError):
    """Semantic error while executing a statement (unknown table/column,
    type mismatch, ...)."""


class BatchExecutionError(SqlExecutionError):
    """A statement failed mid-batch; completed answers are preserved.

    ``results`` has one slot per statement of the batch: the result
    :class:`~repro.core.relation.Relation` for every statement that
    completed before the failure, ``None`` for the failing statement
    and any not yet executed.  ``failed_index`` is the 0-based position
    of the statement whose execution raised, ``completed`` counts the
    preserved results, and the original exception is both ``cause`` and
    ``__cause__``.
    """

    def __init__(self, failed_index: int, total: int, results,
                 cause: BaseException):
        self.failed_index = failed_index
        self.results = list(results)
        self.completed = sum(result is not None for result in self.results)
        self.cause = cause
        super().__init__(
            f"statement {failed_index + 1} of {total} failed with "
            f"{type(cause).__name__} after {self.completed} completed "
            f"result(s): {cause}")


class PreferenceSQL:
    """An in-memory catalog of relations queryable with Preference SQL."""

    def __init__(self) -> None:
        self._catalog: dict[str, Relation] = {}

    def register(self, name: str, relation: Relation) -> None:
        """Add (or replace) a relation under ``name``."""
        if not name or not name.isidentifier():
            raise ValueError(f"invalid table name {name!r}")
        self._catalog[name] = relation

    def tables(self) -> list[str]:
        return sorted(self._catalog)

    def relation(self, name: str) -> Relation:
        """The relation registered under ``name``."""
        if name not in self._catalog:
            known = ", ".join(self.tables()) or "(none)"
            raise SqlExecutionError(
                f"unknown table {name!r}; registered: {known}")
        return self._catalog[name]

    # -- execution ----------------------------------------------------------
    def execute(self, statement: str, *,
                algorithm: str = "osdc",
                stats: Stats | None = None,
                context: ExecutionContext | None = None,
                timeout: float | None = None) -> Relation:
        """Run one statement and return the result relation.

        ``timeout`` (seconds) or a ``context`` carrying a deadline or
        cancellation token makes the statement raise
        :class:`~repro.engine.QueryTimeout` /
        :class:`~repro.engine.QueryCancelled` mid-evaluation.
        """
        if timeout is not None:
            if context is not None:
                raise ValueError("pass either timeout or context, not both")
            context = ExecutionContext.create(stats=stats, timeout=timeout)
        context = ensure_context(context, stats)
        query = parse_query(statement)
        return self._execute_parsed(query, algorithm=algorithm,
                                    context=context)

    def execute_batch(self, statements, *,
                      algorithm: str = "osdc",
                      stats: Stats | None = None,
                      context: ExecutionContext | None = None,
                      timeout: float | None = None,
                      fuse: bool = True) -> list[Relation]:
        """Run many statements as one batch; returns one relation each.

        A statement is its text or, as :meth:`execute_parsed` takes it,
        an already-parsed :class:`~repro.sql.ast.Query`, which is not
        parsed again.  All statements share a single
        :class:`ExecutionContext` (one deadline and cancellation token
        covering the whole batch, work counters accumulated across
        statements).  With ``fuse`` (the
        default), ``PREFERRING``-only statements over the same plain
        relation are planned together by
        :class:`~repro.core.fusion.FusionPlan`: duplicate preferences
        evaluate once, and distinct preferences over a shared encoded
        column signature are refined from their common base skyline
        with shared packed ``Better`` masks
        (``stats.extra["fusion"]`` carries the exact counters).
        Statements with ``WHERE`` clauses or sharded tables keep their
        independent per-statement path; ``TOP`` / ``ORDER BY`` /
        ``SELECT`` post-processing always applies per statement.

        A statement failing mid-batch raises
        :class:`BatchExecutionError`, which carries every already
        completed result -- a timeout at statement ``k`` of ``n`` no
        longer discards the ``k`` finished answers.
        """
        if timeout is not None:
            if context is not None:
                raise ValueError("pass either timeout or context, not both")
            context = ExecutionContext.create(stats=stats, timeout=timeout)
        context = ensure_context(context, stats)
        queries = [statement if isinstance(statement, Query)
                   else parse_query(statement) for statement in statements]
        results: list[Relation | None] = [None] * len(queries)
        fused = self._fusable_groups(queries) if fuse else {}
        member: dict[int, str] = {
            position: table
            for table, positions in fused.items()
            for position in positions}
        position = 0
        try:
            for position, query in enumerate(queries):
                if results[position] is not None:
                    continue  # already answered by a fused group
                table = member.get(position)
                if table is not None:
                    batch = [(p, queries[p]) for p in fused[table]]
                    self._execute_fused(
                        self._catalog[table], batch, results,
                        algorithm=algorithm, context=context)
                else:
                    results[position] = self._execute_parsed(
                        query, algorithm=algorithm, context=context)
        except Exception as error:
            # a failure inside a fused group is pinned to the member
            # that raised, not the position the group ran at
            failed = getattr(error, "_batch_position", position)
            raise BatchExecutionError(failed, len(queries), results,
                                      error) from error
        return results

    def _fusable_groups(self, queries) -> dict[str, list[int]]:
        """Positions of fusable statements, grouped by table.

        A statement fuses when it has a ``PREFERRING`` clause, no
        ``WHERE`` filter, and its table is a plain in-memory
        :class:`~repro.core.relation.Relation` (sharded tables pin a
        snapshot per statement and stay on the independent path).  Only
        groups of two or more are worth a fused plan.
        """
        from ..core.sharding import ShardedRelation

        groups: dict[str, list[int]] = {}
        for position, query in enumerate(queries):
            if query.preferring is None or query.where is not None:
                continue
            relation = self._catalog.get(query.table)
            if relation is None or isinstance(relation, ShardedRelation):
                continue
            groups.setdefault(query.table, []).append(position)
        return {table: positions for table, positions in groups.items()
                if len(positions) >= 2}

    def _execute_fused(self, relation: Relation, batch, results, *,
                       algorithm: str,
                       context: ExecutionContext) -> None:
        """Evaluate fused ``(position, query)`` statements on one
        relation, writing each answer into ``results`` as it lands.

        Per-statement failures (a bad ``PREFERRING`` attribute, a bad
        ``SELECT`` projection) are annotated with the offending batch
        position so :meth:`execute_batch` reports the right statement;
        answers post-processed before the failure stay in ``results``.
        """
        from ..core.fusion import FusionPlan

        resolved = []
        for position, query in batch:
            try:
                resolved.append(
                    resolve_preferring(relation, query.preferring))
            except Exception as error:
                error._batch_position = position
                raise
        plan = FusionPlan.build(resolved)
        matrices: dict[tuple, np.ndarray] = {}

        def data_for(key: tuple) -> np.ndarray:
            # the plan runs one signature's groups back to back, so the
            # last signature's matrix is dropped before the next is made
            if key not in matrices:
                matrices.clear()
                matrices[key] = encode_columns(relation, key)
            return matrices[key]

        def evaluate(graph, key):
            return _evaluate(algorithm, data_for(key), graph, None, None,
                             context, {})

        def candidates(indices, key):
            return data_for(key)[indices]

        index_lists = plan.execute(evaluate=evaluate,
                                   candidates=candidates,
                                   context=context)
        for (position, query), indices in zip(batch, index_lists):
            try:
                results[position] = self._post_process(
                    relation.take(indices), query, context)
            except Exception as error:
                error._batch_position = position
                raise

    def execute_parsed(self, query: Query, *,
                       algorithm: str = "osdc",
                       stats: Stats | None = None,
                       context: ExecutionContext | None = None,
                       timeout: float | None = None) -> Relation:
        """Run an already-parsed :class:`~repro.sql.ast.Query`.

        The parse-once entry point for callers that hold on to an AST
        and execute it repeatedly (the query server parses each
        statement a single time, then replays the AST per request);
        semantics are identical to :meth:`execute` on the statement the
        AST was parsed from.
        """
        if timeout is not None:
            if context is not None:
                raise ValueError("pass either timeout or context, not both")
            context = ExecutionContext.create(stats=stats, timeout=timeout)
        context = ensure_context(context, stats)
        return self._execute_parsed(query, algorithm=algorithm,
                                    context=context)

    def _execute_parsed(self, query: Query, *, algorithm: str,
                        context: ExecutionContext) -> Relation:
        from ..core.sharding import ShardedRelation

        if query.table not in self._catalog:
            known = ", ".join(self.tables()) or "(none)"
            raise SqlExecutionError(
                f"unknown table {query.table!r}; registered: {known}"
            )
        relation = self._catalog[query.table]
        if isinstance(relation, ShardedRelation):
            # pin one MVCC snapshot for the whole statement: concurrent
            # writes bump the version but never shift this query's rows
            with relation.snapshot() as snapshot:
                context.event("sql-snapshot",
                              version=snapshot.version,
                              shards=snapshot.num_shards)
                if context.stats is not None:
                    context.stats.extra["relation_version"] = \
                        snapshot.version
                order = np.argsort(snapshot.global_ids, kind="stable")
                stable = snapshot.relation.take(order)
            return self._execute_on(stable, query, algorithm=algorithm,
                                    context=context)
        return self._execute_on(relation, query, algorithm=algorithm,
                                context=context)

    def _execute_on(self, relation: Relation, query: Query, *,
                    algorithm: str,
                    context: ExecutionContext) -> Relation:
        if query.where is not None:
            context.check("sql-where")
            mask = self._evaluate(query.where, relation)
            relation = relation.take(np.flatnonzero(mask))

        if query.preferring is not None:
            relation = evaluate_preferring(relation, query.preferring,
                                           algorithm=algorithm,
                                           context=context)
        return self._post_process(relation, query, context)

    def _post_process(self, relation: Relation, query: Query,
                      context: ExecutionContext) -> Relation:
        """``TOP`` / ``ORDER BY`` / ``SELECT`` on an evaluated
        preference result (shared by the per-statement and fused batch
        paths; ``relation`` already holds the ``PREFERRING``
        survivors)."""
        if query.preferring is not None:
            if query.order_by is None and query.top is not None:
                relation = self._take_top(relation, query, context)
                if query.columns is None:
                    return relation
        if query.order_by is not None:
            column, ascending = query.order_by
            if column not in relation.names:
                raise SqlExecutionError(
                    f"unknown column {column!r} in ORDER BY"
                )
            relation = relation.sort_by(column, best_first=ascending)
        if query.top is not None and (query.preferring is None
                                      or query.order_by is not None):
            relation = relation.take(
                np.arange(min(query.top, len(relation)), dtype=np.intp))

        if query.columns is not None:
            missing = [c for c in query.columns
                       if c not in relation.names]
            if missing:
                raise SqlExecutionError(
                    f"unknown column(s) in SELECT: {missing}"
                )
            relation = relation.project(list(query.columns))
        return relation

    # -- WHERE evaluation ------------------------------------------------------
    def _evaluate(self, condition: Condition,
                  relation: Relation) -> np.ndarray:
        if isinstance(condition, Logical):
            left = self._evaluate(condition.left, relation)
            right = self._evaluate(condition.right, relation)
            return left & right if condition.operator == "and" \
                else left | right
        if isinstance(condition, Not):
            return ~self._evaluate(condition.operand, relation)
        assert isinstance(condition, Comparison)
        return self._compare(condition, relation)

    @staticmethod
    def _compare(comparison: Comparison,
                 relation: Relation) -> np.ndarray:
        if comparison.column not in relation.names:
            raise SqlExecutionError(
                f"unknown column {comparison.column!r} in WHERE"
            )
        index = relation.names.index(comparison.column)
        attribute = relation.schema[index]
        ranks = relation.ranks[:, index]
        literal: Any = comparison.literal
        compare = _OPERATORS[comparison.operator]
        if attribute.direction is Direction.RANKED:
            if not isinstance(literal, str):
                raise SqlExecutionError(
                    f"column {comparison.column!r} holds ranked values; "
                    "compare it with a quoted string"
                )
            if literal not in attribute.order:
                if comparison.operator in ("=", "!="):
                    # equality with an unknown value is simply never true
                    value = np.zeros(ranks.shape[0], dtype=bool)
                    return ~value if comparison.operator == "!=" else value
                raise SqlExecutionError(
                    f"value {literal!r} is not in the declared order of "
                    f"{comparison.column!r}"
                )
            else:
                # ordering follows the declared ranking (best first), so
                # "t < 'automatic'" means "strictly preferred to it"
                target = float(attribute.order.index(literal))
                return compare(ranks, target)
        if isinstance(literal, str):
            raise SqlExecutionError(
                f"column {comparison.column!r} is numeric; compare it "
                "with a number"
            )
        if attribute.direction is Direction.MAX:
            ranks = -ranks  # back to raw values
        return compare(ranks, float(literal))

    # -- TOP ----------------------------------------------------------------
    @staticmethod
    def _take_top(relation: Relation, query: Query,
                  context: ExecutionContext) -> Relation:
        clause = query.preferring
        assert clause is not None and query.top is not None
        context.check("sql-top")
        graph, items = resolve_preferring(relation, clause)
        matrix = encode_columns(relation, items)
        order = context.compiled(graph).extension.argsort(matrix)
        return relation.take(order[: query.top])
