"""A small rule-based planner for p-skyline queries.

Section 8 of the paper suggests using output-size estimation "for
choosing the most convenient algorithm for answering [a query], on a
case-by-case basis".  :class:`Planner` chooses case by case with simple,
measurable rules:

1. tiny inputs -> the quadratic ``naive`` kernel (lowest constant);
2. inputs beyond the memory budget -> ``external-osdc``;
3. weak orders with two or more layers -> the specialised ``layered``
   evaluator (lexicographic layers of Pareto bundles), at any size and
   ahead of the pool: a one-attribute layer costs one column scan.  On
   a 2-core host, at 210k rows, weak orders ran at 0.14x ``osdc`` with
   a one-attribute top layer and 0.65x with a wider one, where
   ``parallel-osdc`` read 1.01x and 0.96x.  A one-layer weak order --
   a plain Pareto -- is not one of them: there ``layered`` would be
   ``osdc`` plus a copy;
4. inputs at or beyond ``parallel_threshold`` -> ``parallel-osdc`` on
   the persistent worker pool (the per-query cost of shipping
   shared-memory descriptors is negligible at that scale);
5. everything else -> ``osdc``, with an output-size estimate
   (:func:`repro.estimation.estimate_pskyline_size`) as
   ``estimated_output``.  The estimate does not steer the choice:
   picking ``bnl`` for estimated near-singleton outputs measured
   several times slower than ``osdc`` end to end, because the 64-row
   sample reads 0 for most queries whose output is not tiny.  So it
   is computed only for a caller that can read it: a query whose
   context carries ``stats`` (where :meth:`Plan.record` writes it), or
   a direct :meth:`Planner.plan` call without a context.  A query
   without ``stats`` never estimates; its plan's estimate is ``None``.

``p_skyline(..., algorithm="auto")`` routes through a default planner.
It hands the planner the relation's base matrix and the columns the
query reads, and no plan of :meth:`Planner.execute` projects them
before it runs: the estimator samples the base matrix's rows and
slices their columns, ``parallel-osdc`` ships the pair to the pool
(which registers the base matrix once; workers slice the columns), and
``osdc`` gathers the rows it reads once, into its working copy, and
``layered`` scans the columns of the base matrix.  Only the plans
whose algorithm takes no ``columns`` (``naive``, ``external-osdc``)
run on a projection, taken once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algorithms import Stats, ensure_context
from .algorithms.base import run_on_columns
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
            return self._function(ranks, graph, context=context,
                                  columns=columns, **self.options)
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
        worker pool, one slice per worker, on hosts with two or more
        cores; below it the merge overhead is not worth paying and the
        snapshot is evaluated serially.
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
             context: ExecutionContext | None = None, *,
             columns=None) -> Plan:
        """Decide how to evaluate ``M_pi`` over the columns ``columns``
        of ``ranks`` (all of them when ``None``)."""
        return self._by_rule(ranks.shape[0], graph, context) \
            or self._by_estimate(ranks, graph, context, columns)

    def _by_rule(self, n: int, graph: PGraph,
                 context: ExecutionContext | None) -> Plan | None:
        """The plans decided by input size and p-graph shape alone;
        ``None`` for the general case (:meth:`_by_estimate`)."""
        if n <= self.naive_threshold:
            return Plan("naive", f"input has only {n} tuples")
        if self.memory_budget is not None and n > self.memory_budget:
            return Plan(
                "external-osdc",
                f"input exceeds the memory budget of "
                f"{self.memory_budget} tuples",
                options={"memory_budget": self.memory_budget},
            )
        is_weak_order = (context.compiled(graph).is_weak_order
                         if context is not None
                         else graph.is_weak_order())
        # a weak order without edges is one layer, a plain Pareto:
        # there layered is osdc plus a copy.  The lambda reads the
        # module's layered at call time, where tracers wrap it
        if is_weak_order and graph.num_edges:
            return Plan(
                "layered",
                "the priority order is a weak order: evaluate layer by "
                "layer",
                _function=lambda r, g, context, columns:
                    layered(r, g, context=context, columns=columns),
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

    def _by_estimate(self, ranks: np.ndarray, graph: PGraph,
                     context: ExecutionContext | None = None,
                     columns=None) -> Plan:
        """The general case: ``osdc``, with the output estimate from the
        columns ``columns`` of ``ranks``."""
        return Plan(
            "osdc",
            "general case: output-sensitive divide and conquer",
            estimated_output=self._estimate(ranks, graph, context,
                                            columns),
        )

    def _estimate(self, ranks, graph: PGraph,
                  context: ExecutionContext | None, columns):
        """The output estimate over the columns ``columns`` of
        ``ranks``, or ``None`` under a query ``context`` without
        ``stats``: nothing would read it."""
        if context is not None and context.stats is None:
            return None
        return estimate_pskyline_size(ranks, graph, self.rng,
                                      sample_size=self.sample_size,
                                      columns=columns)

    def plan_sharded(self, snapshot, graph: PGraph,
                     context: ExecutionContext | None = None,
                     columns=None) -> Plan:
        """The shard-aware rule for a
        :class:`~repro.core.sharding.ShardSnapshot` of an *untracked*
        p-graph.

        * one (or zero) non-empty shards -> evaluate that shard alone
          (``single-shard``: partitioning adds nothing);
        * large snapshots with a live worker pool and two or more
          cores -> ``sharded-scatter-gather`` over the per-shard
          shared-memory registrations;
        * everything else -> ``sharded-serial``, i.e. the ordinary
          single-matrix plan over the materialised snapshot.
        """
        from .engine.pool import usable_cores

        n = len(snapshot)
        populated = [index for index, pin in enumerate(snapshot.pins)
                     if len(pin)]
        if len(populated) <= 1:
            shard = populated[0] if populated else 0
            return Plan(
                "single-shard",
                f"only {len(populated)} of {snapshot.num_shards} shards "
                "hold tuples: evaluate that shard directly",
                options={"shard": shard},
            )
        # on one core the pool's workers share it: scattering then
        # measured 1.35x the serial plan
        if n >= self.sharded_threshold and pool_available() \
                and usable_cores() > 1:
            estimate = None
            # the estimate gathers its sample and windows from the pins:
            # the snapshot is never concatenated
            if n and (columns is not None
                      or snapshot.rows.shape[1] == graph.d):
                estimate = self._estimate(snapshot.rows, graph, context,
                                          columns)
            return Plan(
                "sharded-scatter-gather",
                f"snapshot of {n} tuples across {len(populated)} "
                "populated shards: scatter one slice per worker and "
                "merge the slices' skylines",
                estimated_output=estimate,
            )
        return Plan(
            "sharded-serial",
            f"snapshot of {n} tuples is below the sharded threshold of "
            f"{self.sharded_threshold} (or no pool is available, or "
            "one core): evaluate the materialised snapshot serially",
        )

    def execute(self, ranks: np.ndarray, graph: PGraph,
                stats: Stats | None = None,
                context: ExecutionContext | None = None,
                columns=None) -> np.ndarray:
        """Plan and run in one call, over the columns ``columns`` of
        ``ranks`` (all of them when ``None``)."""
        context = ensure_context(context, stats)
        return self.plan(ranks, graph, context, columns=columns).execute(
            ranks, graph, context=context, columns=columns)


#: The planner behind ``p_skyline(..., algorithm="auto")``.
DEFAULT_PLANNER = Planner()
