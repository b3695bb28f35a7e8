"""The intra-worker thread-budget policy (pool x threads coordination).

Two parallelism layers exist below the query API: the process-level
:class:`~repro.engine.pool.WorkerPool` (PR 4) and the intra-process
thread tiling of the dominance screen (:mod:`repro.core.dominance` --
a ``prange`` loop inside the compiled native kernels, a
``ThreadPoolExecutor`` over row tiles for the interpreted bitmask
family).  Left uncoordinated they multiply: 8 pool workers each running
8 screen threads oversubscribe a 16-core host 4x.  This module is the
single policy both layers consult, so oversubscription is impossible
by default:

* **pool workers pin a budget of 1 at spawn**
  (:func:`pin_thread_budget`): a pooled query parallelises across
  processes, never twice;
* **serial / single-worker execution** gets
  ``min(cores, d-aware cap)`` (:func:`auto_budget`);
* **explicit overrides** win over everything: per-scope via the
  :func:`thread_budget` context manager (which the query API enters for
  ``ExecutionContext(threads=...)``, and the ``threads`` gate tier and
  the ``kernel-threads`` metamorphic axis use directly), or
  process-wide via the ``REPRO_THREAD_BUDGET`` environment variable.

Resolution order (first hit wins): thread-local override -> process
pin -> environment -> auto.  The effective budget is recorded in
``Stats.extra["thread_budget"]`` and the ``kernel-select`` trace event
by :func:`repro.algorithms.base.resolve_kernel`, so every artifact and
``explain`` output shows how many threads served the query.

An *explicit* override (context manager / ``threads=`` argument) also
forces the tiled screen to engage regardless of block size; the auto
policy only threads blocks of at least
:data:`repro.core.dominance.THREAD_MIN_ROWS` rows, where the tile
dispatch overhead amortises.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = ["DEFAULT_THREAD_CAP", "WIDE_THREAD_CAP", "ENV_VAR",
           "thread_budget", "current_override", "pin_thread_budget",
           "pinned_budget", "env_budget", "auto_budget", "cap_for",
           "effective_budget", "budget_source"]

#: Auto-policy thread cap for dense-table dimensionalities
#: (``d <= DENSE_TABLE_LIMIT``): the per-pair work is a table gather,
#: cheap enough that tiles stay load-balanced at this width.
DEFAULT_THREAD_CAP = 8

#: Auto-policy cap above the dense-table limit: the OR-reduction over
#: set-bit columns does more (and more cache-hostile) work per pair, so
#: wider problems get fewer, larger tiles.
WIDE_THREAD_CAP = 4

#: Environment override consulted by :func:`effective_budget` (parsed
#: once per call; invalid values are ignored).
ENV_VAR = "REPRO_THREAD_BUDGET"

_LOCAL = threading.local()
_PIN: int | None = None
_PIN_LOCK = threading.Lock()


def _validate(budget: int) -> int:
    budget = int(budget)
    if budget < 1:
        raise ValueError("thread budget must be a positive integer")
    return budget


def current_override() -> int | None:
    """The thread-local explicit budget, or ``None`` when not inside a
    :func:`thread_budget` scope."""
    return getattr(_LOCAL, "budget", None)


@contextmanager
def thread_budget(budget: int):
    """Force the screening thread budget inside this scope (this thread).

    Wins over the process pin, the environment and the auto policy, and
    forces the tiled screen to engage even on small blocks (an explicit
    request is honoured exactly -- the verification harness relies on
    this to tile tiny fuzz cases).  Nestable; restores the previous
    override on exit.
    """
    budget = _validate(budget)
    previous = current_override()
    _LOCAL.budget = budget
    try:
        yield
    finally:
        _LOCAL.budget = previous


def pin_thread_budget(budget: int | None) -> None:
    """Pin the process-wide budget (``None`` unpins).

    Pool workers call ``pin_thread_budget(1)`` once at spawn, *before*
    JIT-warming the kernels: the pin is read at every budget resolution,
    so later changes to ``REPRO_THREAD_BUDGET`` / ``NUMBA_NUM_THREADS``
    in the parent can never oversubscribe an already-running worker.
    A thread-local :func:`thread_budget` override still wins (the pool
    ships each task's budget explicitly -- 1 by default).
    """
    global _PIN
    with _PIN_LOCK:
        _PIN = None if budget is None else _validate(budget)


def pinned_budget() -> int | None:
    """The process-wide pinned budget, or ``None``."""
    return _PIN


def env_budget() -> int | None:
    """The ``REPRO_THREAD_BUDGET`` override, or ``None`` (unset or
    unparseable)."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        return None
    return budget if budget >= 1 else None


def cap_for(d: int | None = None) -> int:
    """The d-aware auto-policy cap (see :data:`DEFAULT_THREAD_CAP`)."""
    from ..core.dominance import DENSE_TABLE_LIMIT

    if d is not None and d > DENSE_TABLE_LIMIT:
        return WIDE_THREAD_CAP
    return DEFAULT_THREAD_CAP


def auto_budget(d: int | None = None) -> int:
    """``min(cores, d-aware cap)`` -- the unforced serial-path budget."""
    return max(1, min(os.cpu_count() or 1, cap_for(d)))


def effective_budget(d: int | None = None) -> int:
    """Resolve the budget: override -> pin -> environment -> auto."""
    return budget_source(d)[0]


def budget_source(d: int | None = None) -> tuple[int, str]:
    """``(budget, source)`` where source names the winning policy layer
    (``"override"`` / ``"pinned"`` / ``"env"`` / ``"auto"``)."""
    override = current_override()
    if override is not None:
        return override, "override"
    pinned = pinned_budget()
    if pinned is not None:
        return pinned, "pinned"
    env = env_budget()
    if env is not None:
        return env, "env"
    return auto_budget(d), "auto"
