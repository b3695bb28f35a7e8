"""Partition-parallel p-skyline evaluation on the persistent pool.

The divide-and-conquer identity behind multi-core evaluation is the
classic one: for any partition ``D = D_1 ∪ ... ∪ D_p``,

.. math::  M_pi(D) = M_pi( M_pi(D_1) ∪ ... ∪ M_pi(D_p) )

(every global maximum survives in its own chunk; merging removes
cross-chunk dominated tuples).  Workers run the in-memory OSDC on a
zero-copy shared-memory slice of their chunk; the survivors are reduced
with a tree of pairwise merges, on the pool until the last pair, which
the parent merges itself (see :mod:`repro.engine.pool`).

Compared to the historical implementation this keeps worker processes
warm across queries, ships ``(segment, row-range)`` descriptors instead
of pickled chunk arrays, merges every worker's
:class:`~repro.algorithms.base.Stats` back into the parent context, and
runs deadline/cancellation queries **on the parallel path**: workers
observe the absolute monotonic deadline and a shared cancel event at
every block boundary.  The serial fallback is reserved for inputs too
small to be worth dispatching and for daemonic processes (which cannot
host worker children).
"""

from __future__ import annotations


import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext
from ..engine.pool import WorkerPool, get_default_pool, pool_available
from .base import Stats, check_shape, ensure_context, register
from .osdc import osdc

__all__ = ["parallel_osdc", "auto_processes", "DEFAULT_MIN_CHUNK"]

#: ``parallel_osdc``'s default ``min_chunk``: fewest rows per worker.
DEFAULT_MIN_CHUNK = 4096


def auto_processes(n: int, min_chunk: int) -> int:
    """The ``processes=None`` policy: one process per ``min_chunk`` rows,
    capped by the usable cores (never below 1)."""
    from ..engine.pool import usable_cores

    return max(1, min(usable_cores(), n // max(1, min_chunk)))


def _must_run_serially() -> bool:
    """True when this process cannot host pool workers.

    Only start-method edge cases remain here: a daemonic process may
    not fork children.  Deadlines and cancellation tokens no longer
    force the serial plan -- the pool propagates both into workers.
    """
    return not pool_available()


@register("parallel-osdc", parallel=True)
def parallel_osdc(ranks: np.ndarray, graph: PGraph, *,
                  stats: Stats | None = None,
                  context: ExecutionContext | None = None,
                  processes: int | None = None,
                  min_chunk: int = DEFAULT_MIN_CHUNK,
                  pool: WorkerPool | None = None,
                  columns=None,
                  **osdc_options) -> np.ndarray:
    """Compute ``M_pi(D)`` partitioned across pool workers.

    Returns sorted row indices.

    Parameters
    ----------
    processes:
        Number of partitions to evaluate in parallel.  ``None`` (the
        default) applies :func:`auto_processes`:
        ``min(usable_cores(), n // min_chunk)``.
    min_chunk:
        Smallest chunk worth shipping to a worker; inputs below
        ``2 * min_chunk`` run plain OSDC in-process.
    pool:
        A specific :class:`~repro.engine.pool.WorkerPool` to run on;
        by default the process-wide warm pool
        (:func:`~repro.engine.pool.get_default_pool`).
    columns:
        Evaluate over these columns of ``ranks`` (one per p-graph
        attribute, in order).  ``ranks`` is then the base matrix: the
        pool registers it once and workers slice the columns, so
        queries over different column subsets of one matrix share one
        shared-memory segment.  The serial fallback hands the pair to
        :func:`~repro.algorithms.osdc.osdc`, which gathers the rows it
        reads once.

    Deadline and cancellation contexts execute on the parallel path:
    the absolute monotonic deadline is shipped with every task and the
    context's :class:`~repro.engine.context.CancellationToken` mirrors
    into the pool's shared cancel event, so workers stop within one
    chunk/block boundary.  Only daemonic processes (which cannot host
    children) and tiny inputs fall back to serial OSDC.
    """
    if processes is not None and processes < 1:
        raise ValueError("processes must be positive")
    if min_chunk < 1:
        raise ValueError("min_chunk must be at least 1")
    # the pool rejects NaNs from the columns each registration recorded
    # once, so the pooled path checks only the shape here
    ranks = check_shape(ranks, graph, columns)
    context = ensure_context(context, stats)
    n = ranks.shape[0]
    if processes is None:
        processes = auto_processes(n, min_chunk)
    context.check("parallel-setup")
    if processes == 1 or n < 2 * min_chunk or _must_run_serially():
        return osdc(ranks, graph, context=context, columns=columns,
                    **osdc_options)

    chunks = min(processes, max(1, n // min_chunk))
    if pool is None:
        pool = get_default_pool()
    return pool.run_query(ranks, graph, algorithm="osdc", chunks=chunks,
                          columns=columns, options=osdc_options,
                          context=context)
