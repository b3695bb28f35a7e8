"""The engine layer: compile-once preferences + per-query execution state.

Two pillars (see ``docs/architecture.md``):

* :class:`CompiledPreference` / :class:`PreferenceCache` -- everything
  derivable from a p-graph (dominance oracle, ``≻ext`` weights,
  topological order, specialization flags, restricted sub-graphs),
  built once and LRU-cached so repeated queries over the same
  p-expression skip all preprocessing;
* :class:`ExecutionContext` -- per-query :class:`Stats`, deadline /
  cancellation token, memory budget and event-trace ring buffer,
  threaded through every evaluation path (scan, divide-and-conquer,
  external-memory, parallel, SQL).
"""

from .compiled import (CompiledPreference, PreferenceCache,
                       compile_preference, default_cache)
from .context import CancellationToken, ExecutionContext
from .errors import (EngineError, MemoryBudgetExceeded, QueryCancelled,
                     QueryTimeout)
from .pool import (SharedRegistration, WorkerPool, default_worker_count,
                   get_default_pool, pool_available,
                   shutdown_default_pool)
from .trace import TraceBuffer, TraceEvent

__all__ = [
    "CompiledPreference",
    "PreferenceCache",
    "compile_preference",
    "default_cache",
    "ExecutionContext",
    "CancellationToken",
    "EngineError",
    "QueryTimeout",
    "QueryCancelled",
    "MemoryBudgetExceeded",
    "TraceBuffer",
    "TraceEvent",
    "WorkerPool",
    "SharedRegistration",
    "get_default_pool",
    "shutdown_default_pool",
    "pool_available",
    "default_worker_count",
]
