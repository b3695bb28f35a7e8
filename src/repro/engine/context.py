"""The per-query execution context threaded through every evaluation path.

:class:`ExecutionContext` carries everything a single query evaluation
needs beyond its input data:

* the :class:`~repro.algorithms.base.Stats` work counters (optional, as
  before -- counting is skipped when absent);
* a monotonic **deadline** and a :class:`CancellationToken`, both checked
  by :meth:`check` at block boundaries (BNL/SFS/LESS window passes,
  DC/OSDC/PSCREEN recursion steps, external-memory page reads, parallel
  merges).  An expired deadline raises
  :class:`~repro.engine.errors.QueryTimeout`; a triggered token raises
  :class:`~repro.engine.errors.QueryCancelled`;
* a **memory budget** (tuples an operator may hold in memory at once),
  enforced through :meth:`charge_memory`;
* an event-trace ring buffer (:class:`~repro.engine.trace.TraceBuffer`)
  that the bench harness and ``explain`` render;
* the :class:`~repro.engine.compiled.PreferenceCache` used to resolve
  p-graphs into :class:`~repro.engine.compiled.CompiledPreference`
  instances (the process-wide default cache if none is given).

Algorithms keep their public ``algorithm(ranks, graph, *, stats=None,
**options)`` signature: :func:`repro.algorithms.base.ensure_context`
synthesizes a default context when the caller passes only ``stats``.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .errors import MemoryBudgetExceeded, QueryCancelled, QueryTimeout
from .trace import TraceBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Stats
    from ..core.pgraph import PGraph
    from .compiled import CompiledPreference, PreferenceCache

__all__ = ["CancellationToken", "ExecutionContext"]


class CancellationToken:
    """A thread-safe flag a caller flips to abort an in-flight query.

    Besides the in-process event, a token can *mirror* into other
    event-like objects (anything with ``set()``): the worker pool links
    its shared :class:`multiprocessing.Event` here so a ``cancel()``
    in the parent is observed by worker processes at their next block
    boundary.  Mirrors are linked for the duration of one pooled query
    and unlinked afterwards.
    """

    __slots__ = ("_event", "_mirrors", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._mirrors: list = []
        self._lock = threading.Lock()

    def cancel(self) -> None:
        """Request cancellation: the next context check raises."""
        self._event.set()
        with self._lock:
            mirrors = list(self._mirrors)
        for mirror in mirrors:
            mirror.set()

    def link(self, event) -> None:
        """Mirror future (and past) cancellations into ``event``."""
        with self._lock:
            self._mirrors.append(event)
        if self.cancelled:
            event.set()

    def unlink(self, event) -> None:
        """Stop mirroring into ``event`` (no-op when not linked)."""
        with self._lock:
            try:
                self._mirrors.remove(event)
            except ValueError:
                pass

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class ExecutionContext:
    """Per-query state shared by every operator the query touches."""

    __slots__ = ("stats", "deadline", "cancel", "memory_budget", "trace",
                 "cache", "_start_ns")

    def __init__(self, *, stats: "Stats | None" = None,
                 deadline: float | None = None,
                 cancel: CancellationToken | None = None,
                 memory_budget: int | None = None,
                 trace: TraceBuffer | None = None,
                 cache: "PreferenceCache | None" = None):
        self.stats = stats
        #: Absolute :func:`time.monotonic` instant after which evaluation
        #: raises :class:`QueryTimeout` (``None`` = no deadline).
        self.deadline = deadline
        self.cancel = cancel
        self.memory_budget = memory_budget
        self.trace = trace
        self.cache = cache
        self._start_ns = time.monotonic_ns()

    # -- construction ----------------------------------------------------------
    @classmethod
    def create(cls, *, stats: "Stats | None" = None,
               timeout: float | None = None,
               deadline: float | None = None,
               cancel: CancellationToken | None = None,
               memory_budget: int | None = None,
               trace: "TraceBuffer | bool | int | None" = None,
               cache: "PreferenceCache | None" = None
               ) -> "ExecutionContext":
        """Build a context from user-facing knobs.

        ``timeout`` is relative seconds from now (converted to an
        absolute monotonic ``deadline``); ``trace`` may be an existing
        buffer, ``True`` (default capacity) or a capacity in events.
        """
        if timeout is not None:
            if timeout <= 0:
                raise ValueError("timeout must be positive seconds")
            relative = time.monotonic() + timeout
            deadline = relative if deadline is None \
                else min(deadline, relative)
        if trace is True:
            trace = TraceBuffer()
        elif isinstance(trace, int) and not isinstance(trace, bool):
            trace = TraceBuffer(capacity=trace)
        elif trace is False:
            trace = None
        return cls(stats=stats, deadline=deadline, cancel=cancel,
                   memory_budget=memory_budget, trace=trace, cache=cache)

    # -- deadline / cancellation -----------------------------------------------
    @property
    def interruptible(self) -> bool:
        """True when a deadline or cancellation token is attached.

        The parallel executor uses this to avoid forking workers that
        could not observe a mid-flight cancellation.
        """
        return self.deadline is not None or self.cancel is not None

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        return self.deadline is not None and \
            time.monotonic() > self.deadline

    def check(self, phase: str = "evaluate") -> None:
        """Raise if the query should stop.  Called at block boundaries.

        Cheap by design: two attribute tests when no limit is attached.
        """
        cancel = self.cancel
        if cancel is not None and cancel.cancelled:
            raise QueryCancelled(f"query cancelled during {phase}")
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeout(
                f"query deadline exceeded during {phase}"
            )

    # -- memory budget ---------------------------------------------------------
    def charge_memory(self, tuples: int, phase: str = "evaluate") -> None:
        """Assert an operator may materialise ``tuples`` rows at once."""
        if self.memory_budget is not None and tuples > self.memory_budget:
            raise MemoryBudgetExceeded(
                f"{phase} needs {tuples} tuples in memory but the budget "
                f"is {self.memory_budget}"
            )

    # -- compiled preferences --------------------------------------------------
    def compiled(self, graph: "PGraph") -> "CompiledPreference":
        """Resolve ``graph`` through the context's preference cache."""
        from .compiled import compile_preference

        return compile_preference(graph, self.cache)

    # -- tracing ---------------------------------------------------------------
    @property
    def elapsed_ns(self) -> int:
        """Nanoseconds since this context was created."""
        return time.monotonic_ns() - self._start_ns

    def event(self, phase: str, **counters) -> None:
        """Record a trace event (no-op when tracing is disabled)."""
        trace = self.trace
        if trace is not None:
            trace.record(phase, self.elapsed_ns, **counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline in {self.remaining():.3f}s")
        if self.cancel is not None:
            parts.append("cancellable")
        if self.memory_budget is not None:
            parts.append(f"budget={self.memory_budget}")
        if self.trace is not None:
            parts.append(f"trace[{len(self.trace)}]")
        return f"ExecutionContext({', '.join(parts) or 'unbounded'})"
