"""A small rule-based planner for p-skyline queries.

Section 8 of the paper suggests using output-size estimation "for
choosing the most convenient algorithm for answering [a query], on a
case-by-case basis".  :class:`Planner` chooses case by case with simple,
measurable rules:

1. tiny inputs -> the quadratic ``naive`` kernel (lowest constant);
2. weak-order priority graphs -> the specialised ``layered`` evaluator
   (lexicographic layers of Pareto bundles);
3. inputs beyond the memory budget -> ``external-osdc``;
4. inputs at or beyond ``parallel_threshold`` -> ``parallel-osdc`` on
   the persistent worker pool (the per-query cost of shipping
   shared-memory descriptors is negligible at that scale);
5. everything else -> ``osdc``, recording an output-size estimate
   (:func:`repro.estimation.estimate_pskyline_size`) as
   ``estimated_output``.  The estimate does not steer the choice:
   picking ``bnl`` for estimated near-singleton outputs measured
   several times slower than ``osdc`` end to end, because the 64-row
   sample reads 0 for most queries whose output is not tiny.

``p_skyline(..., algorithm="auto")`` routes through a default planner.
It hands the planner the relation's base matrix and the columns the
query reads.  The rules before the estimator need no data, so
:meth:`Planner.execute` checks them before it projects: a
``parallel-osdc`` plan never takes the projection in this process --
the pool registers the base matrix once and workers slice the columns
-- and every other plan records its estimate from, and runs on, one
projection, taken once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algorithms import Stats, ensure_context
from .algorithms.base import project_columns, run_on_columns
from .algorithms.layered import layered
from .core.pgraph import PGraph
from .engine.context import ExecutionContext
from .engine.pool import pool_available
from .estimation.cardinality import estimate_pskyline_size

__all__ = ["Plan", "Planner"]


@dataclass(frozen=True)
class Plan:
    """The planner's decision for one query."""

    algorithm: str
    reason: str
    estimated_output: float | None = None
    options: dict = field(default_factory=dict)
    _function: Callable | None = None

    def execute(self, ranks: np.ndarray, graph: PGraph,
                stats: Stats | None = None,
                context: ExecutionContext | None = None,
                columns=None) -> np.ndarray:
        """Run the plan over the columns ``columns`` of ``ranks`` (all
        of them when ``None``); see
        :func:`~repro.algorithms.base.run_on_columns`."""
        context = ensure_context(context, stats)
        self.record(context)
        if self._function is not None:
            return self._function(project_columns(ranks, columns), graph,
                                  context=context, **self.options)
        return run_on_columns(self.algorithm, ranks, graph, columns,
                              context=context, **self.options)

    def record(self, context: ExecutionContext) -> None:
        """Expose the decision in ``stats.extra["plan"]`` and the trace."""
        if context.stats is not None:
            context.stats.extra["plan"] = {
                "algorithm": self.algorithm,
                "reason": self.reason,
                "estimated_output": self.estimated_output,
            }
        context.event("plan", chosen=self.algorithm)

    def explain(self) -> str:
        estimate = ("" if self.estimated_output is None
                    else f" (estimated output ~ {self.estimated_output:.0f})")
        return f"{self.algorithm}: {self.reason}{estimate}"


class Planner:
    """Chooses an evaluation algorithm per query.

    Parameters
    ----------
    naive_threshold:
        Inputs up to this many tuples go to the quadratic kernel.
    memory_budget:
        Inputs beyond this many tuples use the external-memory OSDC
        (``None`` disables the rule -- everything is assumed to fit).
    parallel_threshold:
        Inputs with at least this many tuples are partitioned across
        the persistent worker pool (``parallel-osdc`` with the auto
        process policy).  ``None`` disables the rule; it is also
        skipped in daemonic processes, which cannot host workers.
    sample_size:
        Sample size for the output estimate recorded with each plan.
    sharded_threshold:
        Snapshots of a sharded relation with at least this many tuples
        (and more than one non-empty shard) are scattered across the
        worker pool per shard; below it the merge overhead is not worth
        paying and the snapshot is evaluated serially.
    """

    def __init__(self, *, naive_threshold: int = 128,
                 memory_budget: int | None = None,
                 parallel_threshold: int | None = 200_000,
                 sample_size: int = 64,
                 sharded_threshold: int = 50_000,
                 rng: np.random.Generator | None = None):
        self.naive_threshold = naive_threshold
        self.memory_budget = memory_budget
        self.parallel_threshold = parallel_threshold
        self.sample_size = sample_size
        self.sharded_threshold = sharded_threshold
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def plan(self, ranks: np.ndarray, graph: PGraph,
             context: ExecutionContext | None = None) -> Plan:
        """Decide how to evaluate ``M_pi(ranks)``."""
        return self._by_rule(ranks.shape[0], graph, context) \
            or self._by_estimate(ranks, graph)

    def _by_rule(self, n: int, graph: PGraph,
                 context: ExecutionContext | None) -> Plan | None:
        """The plans decided by input size and p-graph shape alone;
        ``None`` for the general case (:meth:`_by_estimate`)."""
        is_weak_order = (context.compiled(graph).is_weak_order
                         if context is not None
                         else graph.is_weak_order())
        if n <= self.naive_threshold:
            return Plan("naive", f"input has only {n} tuples")
        if self.memory_budget is not None and n > self.memory_budget:
            return Plan(
                "external-osdc",
                f"input exceeds the memory budget of "
                f"{self.memory_budget} tuples",
                options={"memory_budget": self.memory_budget},
            )
        if is_weak_order:
            return Plan(
                "layered",
                "the priority order is a weak order: evaluate layer by "
                "layer",
                _function=lambda r, g, stats=None, context=None, **_:
                    layered(r, g, stats=stats, context=context),
            )
        if self.parallel_threshold is not None \
                and n >= self.parallel_threshold and pool_available():
            return Plan(
                "parallel-osdc",
                f"input of {n} tuples is at or beyond the parallel "
                f"threshold of {self.parallel_threshold}: partition "
                "across the worker pool",
                options={"processes": None},
            )
        return None

    def _by_estimate(self, ranks: np.ndarray, graph: PGraph) -> Plan:
        """The general case: ``osdc``, with the output estimate recorded."""
        estimate = estimate_pskyline_size(ranks, graph, self.rng,
                                          sample_size=self.sample_size)
        return Plan(
            "osdc",
            "general case: output-sensitive divide and conquer",
            estimated_output=estimate,
        )

    def plan_sharded(self, snapshot, graph: PGraph,
                     context: ExecutionContext | None = None,
                     columns=None) -> Plan:
        """The shard-aware rule for a
        :class:`~repro.core.sharding.ShardSnapshot` of an *untracked*
        p-graph.

        * one (or zero) non-empty shards -> evaluate that shard alone
          (``single-shard``: partitioning adds nothing);
        * large snapshots with a live worker pool ->
          ``sharded-scatter-gather`` over the per-shard shared-memory
          registrations;
        * everything else -> ``sharded-serial``, i.e. the ordinary
          single-matrix plan over the materialised snapshot.
        """
        n = len(snapshot)
        populated = [index for index, shard in enumerate(snapshot.shards)
                     if len(shard)]
        if len(populated) <= 1:
            shard = populated[0] if populated else 0
            return Plan(
                "single-shard",
                f"only {len(populated)} of {snapshot.num_shards} shards "
                "hold tuples: evaluate that shard directly",
                options={"shard": shard},
            )
        if n >= self.sharded_threshold and pool_available():
            estimate = None
            if n and (columns is not None
                      or snapshot.relation.arity == graph.d):
                estimate = estimate_pskyline_size(
                    snapshot.relation.ranks, graph, self.rng,
                    sample_size=self.sample_size, columns=columns)
            return Plan(
                "sharded-scatter-gather",
                f"snapshot of {n} tuples across {len(populated)} "
                "populated shards: scatter per shard and tree-merge on "
                "the pool",
                estimated_output=estimate,
            )
        return Plan(
            "sharded-serial",
            f"snapshot of {n} tuples is below the sharded threshold of "
            f"{self.sharded_threshold} (or no pool is available): "
            "evaluate the materialised snapshot serially",
        )

    def execute(self, ranks: np.ndarray, graph: PGraph,
                stats: Stats | None = None,
                context: ExecutionContext | None = None,
                columns=None) -> np.ndarray:
        """Plan and run in one call, over the columns ``columns`` of
        ``ranks`` (all of them when ``None``)."""
        context = ensure_context(context, stats)
        rule = self._by_rule(ranks.shape[0], graph, context)
        if rule is None or rule.algorithm != "parallel-osdc":
            ranks, columns = project_columns(ranks, columns), None
        return self.plan(ranks, graph, context).execute(
            ranks, graph, context=context, columns=columns)


#: The planner behind ``p_skyline(..., algorithm="auto")``.
DEFAULT_PLANNER = Planner()
