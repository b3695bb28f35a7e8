"""The persistent worker-pool execution service.

``parallel-osdc`` used to fork a fresh ``multiprocessing.Pool`` per
call, pickle every chunk's full rank array into its workers, discard
the workers' :class:`~repro.algorithms.base.Stats`, and refuse to run
at all under a deadline or cancellation token.  This module replaces
that with a warm, reusable execution service:

* :class:`WorkerPool` keeps worker *processes* alive across queries.
  Any registered algorithm can run on the pool (workers dispatch by
  registry name), so the same pool serves partition-parallel OSDC,
  pooled merges and batched query service.
* Rank matrices are registered **once** into
  :mod:`multiprocessing.shared_memory`; chunk dispatch ships only a
  ``(segment name, shape, dtype, row range, columns)`` descriptor.
  Workers map the segment and slice it -- a zero-copy read for row
  ranges -- and take the query's columns themselves, so every query
  over a relation shares the registration of its full base matrix.
  Registrations are cached per pool (keyed by the array object); the
  parent unmaps each segment as soon as it has written it, and unlinks
  it when its array is garbage-collected (at the next registration),
  on :meth:`WorkerPool.close`, via the context-manager protocol, and
  from an ``atexit`` hook.  Every task names the pool's live segments,
  and a worker unmaps any cached segment outside that set before it
  runs the task.
* Interruption propagates *into* workers: each task ships the absolute
  :func:`time.monotonic` deadline (CLOCK_MONOTONIC is system-wide on
  every platform we support, so parent and worker read the same clock)
  and every worker polls a shared :class:`multiprocessing.Event` that
  the parent's :class:`~repro.engine.context.CancellationToken` mirrors
  into.  Workers observe a cancellation at their next context check --
  within one chunk/block boundary -- and the parent raises
  :class:`~repro.engine.errors.QueryCancelled` /
  :class:`~repro.engine.errors.QueryTimeout` exactly as the serial path
  does.
* The survivors are reduced by a **tree of pairwise merges**: pooled
  rounds while more than two survivor sets remain, then the last pair
  in the parent, gathered from the matrix it already holds (a pool
  round trip to merge a few dozen rows cost more than the merge).
  Every worker's :class:`Stats` and the parent merge's are merged into
  the caller's context (dominance tests, kernel choice, per-chunk
  skyline sizes, per-worker totals).
* Each registration records which columns hold NaNs in the pass that
  copies the array into shared memory, so a pooled query rejects a
  NaN in a column it reads without rescanning the matrix.
* Every pooled read ships pinned shards (:class:`ShardPin`): each
  shard's frozen *base* matrix is registered once and stays registered
  across writes, and each task carries only what changed since -- the
  dead slots and the rows appended -- so a read after a write copies no
  whole shard.  A flat matrix is the one-shard case, a pin with nothing
  appended and nothing dead, so :meth:`WorkerPool.run_query` and
  :meth:`WorkerPool.run_sharded` dispatch the same task shape.

The module-level :func:`get_default_pool` serves the process-wide warm
pool used by :func:`repro.algorithms.parallel.parallel_osdc` when the
caller does not bring their own.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue as queue_module
import threading
import uuid
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from .context import ExecutionContext

__all__ = ["SharedArraySpec", "ShardedArraySpec", "SharedRegistration",
           "ShardPin", "LiveRows", "WorkerPool", "get_default_pool",
           "shutdown_default_pool", "pool_available",
           "default_worker_count", "usable_cores"]

#: Shared-memory segments created by this module are named
#: ``repro-pool-<pid>-<nonce>`` so leak checks can find strays.
SEGMENT_PREFIX = "repro-pool"

#: Upper bound on the default pool's worker count (a service box with 64
#: cores should not fork 64 Python interpreters for one library user).
DEFAULT_MAX_WORKERS = 8

#: Seconds between parent-side context checks while waiting on workers.
_POLL_INTERVAL = 0.02


def usable_cores() -> int:
    """The cores this process may run on: the size of its CPU affinity
    mask where the platform reports one (so ``taskset`` and cpusets
    count), else :func:`os.cpu_count`.  Every core-count decision of
    the library reads this one function."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """The default pool size: the usable cores, at least 2, at most
    :data:`DEFAULT_MAX_WORKERS`."""
    return min(DEFAULT_MAX_WORKERS, max(2, usable_cores()))


def pool_available() -> bool:
    """True when this process may host a worker pool.

    Daemonic processes cannot have children -- the one genuine reason
    left to run serially.
    """
    return not mp.current_process().daemon


@dataclass(frozen=True)
class SharedArraySpec:
    """A picklable descriptor of one registered array: everything a
    worker needs to map the segment, and nothing else."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ShardedArraySpec:
    """A picklable descriptor of the live rows of pinned shards
    (:class:`ShardPin`), addressed as one *virtually concatenated*
    array.

    ``parts`` holds each shard's registered base; ``deltas`` holds, per
    shard, its dead slots and the rows appended after its base.
    ``offsets`` has ``len(parts) + 1`` entries: shard ``i``'s live rows
    are virtual rows ``offsets[i]:offsets[i + 1]``.  Workers address
    rows in that coordinate space and gather across the base segments
    and the deltas -- a write to a shard changes only its delta, not
    its registration.
    """

    parts: tuple[SharedArraySpec, ...]
    offsets: tuple[int, ...]
    deltas: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if len(self.offsets) != len(self.parts) + 1 \
                or len(self.deltas) != len(self.parts):
            raise ValueError(
                f"{len(self.parts)} parts need {len(self.parts) + 1} "
                f"offsets and {len(self.parts)} deltas, got "
                f"{len(self.offsets)} and {len(self.deltas)}")

    @property
    def shape(self) -> tuple[int, ...]:
        width = self.parts[0].shape[1] if self.parts else 0
        return (self.offsets[-1], width)


class ShardPin:
    """One shard as a read pinned it, in *slot space*.

    ``base`` holds slots ``0:B`` -- a frozen matrix, dead slots
    included, registered with the pool once -- ``appended`` the slots
    ``B:size`` written since the base was taken, and ``dead`` the
    sorted slots the read must skip.  The shard's rows are its live
    slots in slot order; a row's index in that order is its *live
    position*.  Slots below ``size`` are never rewritten (writes only
    append or delete), so a pin copies no row, and a lookup costs
    ``O(log dead)`` per row.  Dead slots stay in the base, and a read
    skips them.
    """

    __slots__ = ("base", "appended", "dead", "_gaps")

    def __init__(self, base: np.ndarray, appended: np.ndarray,
                 dead: np.ndarray):
        self.base = base
        self.appended = appended
        self.dead = dead
        # live slots before each dead slot: live position p sits at
        # slot p + (number of gaps <= p)
        self._gaps = dead - np.arange(dead.size)

    @property
    def size(self) -> int:
        return self.base.shape[0] + self.appended.shape[0]

    def __len__(self) -> int:
        return self.size - self.dead.size

    def slots_of(self, positions) -> np.ndarray:
        """The slots of the given live positions."""
        positions = np.asarray(positions, dtype=np.intp)
        return positions + np.searchsorted(self._gaps, positions,
                                           side="right")

    def is_alive(self, slots: np.ndarray) -> np.ndarray:
        """Which of the given slots (all below ``size``) are live."""
        if not self.dead.size:
            return np.ones(slots.size, dtype=bool)
        at = np.minimum(np.searchsorted(self.dead, slots),
                        self.dead.size - 1)
        return self.dead[at] != slots

    @property
    def live_slots(self) -> np.ndarray:
        """Every live slot in slot order (``O(size)``: dense readers
        only)."""
        return np.delete(np.arange(self.size), self.dead)

    def at_slots(self, slots: np.ndarray) -> np.ndarray:
        """The rows in ``slots`` (a copy)."""
        cut = self.base.shape[0]
        if not self.appended.shape[0]:
            return np.take(self.base, slots, axis=0)
        rows = np.empty((slots.size, self.base.shape[1]))
        low = slots < cut
        rows[low] = np.take(self.base, slots[low], axis=0)
        rows[~low] = np.take(self.appended, slots[~low] - cut, axis=0)
        return rows

    def pieces(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows at live positions ``lo:hi`` (``lo < hi``) as two
        pieces, those in the base and those appended since: zero-copy
        views when no dead slot lies among them, else gathered
        copies."""
        first, last = (int(slot) for slot in self.slots_of([lo, hi - 1]))
        cut = self.base.shape[0]
        if last - first == hi - lo - 1:  # no dead slot in between
            return (self.base[first:min(last + 1, cut)],
                    self.appended[max(first - cut, 0):
                                  max(last + 1 - cut, 0)])
        inside = self.dead[np.searchsorted(self.dead, first):
                           np.searchsorted(self.dead, last)]
        keep = np.ones(last + 1 - first, dtype=bool)
        keep[inside - first] = False
        slots = np.flatnonzero(keep) + first
        split = int(np.searchsorted(slots, cut))
        # np.take along rows: several times faster than fancy or boolean
        # indexing on narrow rows
        return (np.take(self.base, slots[:split], axis=0),
                np.take(self.appended, slots[split:] - cut, axis=0))


class LiveRows:
    """The live rows of pinned shards, addressed as their concatenation
    without building it.

    ``pin(i)`` returns shard ``i``'s :class:`ShardPin`, whose live rows
    are virtual rows ``offsets[i]:offsets[i + 1]``.  Indexing takes a
    slice (a zero-copy view when it is one run of live slots in one
    base or one delta, else one concatenation of the shards'
    :meth:`ShardPin.pieces`) or an index array (gathered in the given
    order).  The parent's merge, the workers' tasks and the planner's
    estimate all read sharded rows through it.
    """

    def __init__(self, pin: Callable[[int], ShardPin], offsets,
                 width: int):
        self._pin = pin
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.shape = (int(self.offsets[-1]), int(width))

    @classmethod
    def of(cls, pins) -> "LiveRows":
        pins = list(pins)
        offsets = np.cumsum([0] + [len(pin) for pin in pins])
        width = pins[0].base.shape[1] if pins else 0
        return cls(pins.__getitem__, offsets, width)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        """The rows at ``key`` (a slice or an index array)."""
        offsets = self.offsets
        if isinstance(key, slice):
            start, stop, step = key.indices(self.shape[0])
            if step != 1:
                raise ValueError("live rows slice with step 1 only")
            pieces = []
            # side="right" - 1 lands on the part holding the row even
            # when empty parts repeat an offset
            part = int(np.searchsorted(offsets, start, side="right")) - 1
            while start < stop:
                end = min(stop, int(offsets[part + 1]))
                pieces += [piece for piece in self._pin(part).pieces(
                    start - int(offsets[part]), end - int(offsets[part]))
                    if piece.shape[0]]
                start = end
                part += 1
            if len(pieces) == 1:
                return pieces[0]
            return np.concatenate(pieces) if pieces \
                else np.empty((0, self.shape[1]))
        indices = np.asarray(key, dtype=np.intp)
        part_of = np.searchsorted(offsets, indices, side="right") - 1
        rows = np.empty((indices.size, self.shape[1]))
        for part in np.unique(part_of):
            mask = part_of == part
            pin = self._pin(int(part))
            rows[mask] = pin.at_slots(
                pin.slots_of(indices[mask] - offsets[part]))
        return rows


class SharedRegistration:
    """A parent-side handle on one shared-memory copy of an array.

    The parent writes the copy and then unmaps the segment at once:
    workers attach by name and the parent never reads the segment
    again, so a registered matrix does not stay in the parent's
    resident set.  Only the name is kept, for the unlink.

    The registration owns the segment: :meth:`close` (idempotent, also
    run by ``with``-blocks and the pool's own shutdown) unlinks it, so
    no segment outlives the process even when a query raises
    mid-flight.

    ``nan_columns`` holds the columns that contain a NaN, found once
    after copying.  A pooled query registers only arrays that cannot
    change in place (:func:`_frozen_matrix`), so it stays true for the
    registration's lifetime.
    """

    __slots__ = ("spec", "nan_columns", "_shm", "__weakref__")

    def __init__(self, array: np.ndarray):
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        nbytes = max(1, array.nbytes)
        shm = shared_memory.SharedMemory(create=True, size=nbytes,
                                         name=name)
        self._shm = shm
        self.spec = SharedArraySpec(name, tuple(array.shape),
                                    array.dtype.str)
        try:
            target = np.ndarray(array.shape, dtype=array.dtype,
                                buffer=shm.buf)
            target[...] = array
            # one flat pass settles the common NaN-free case
            self.nan_columns = frozenset(np.flatnonzero(
                np.isnan(target).any(axis=0)).tolist()) \
                if np.isnan(target).any() else frozenset()
        finally:
            shm.close()  # unmap; the segment lives on until unlinked

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedRegistration":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def is_frozen(matrix: np.ndarray) -> bool:
    """Whether neither ``matrix`` nor any array it views is writeable.

    The pool caches registrations by array object, so only a matrix
    that cannot change in place may be registered once and shared by
    later queries.
    """
    while isinstance(matrix, np.ndarray):
        if matrix.flags.writeable:
            return False
        matrix = matrix.base
    return matrix is None


def _frozen_matrix(array) -> np.ndarray:
    """``array`` as a pooled query registers it: a C-contiguous float64
    matrix nothing can write in place -- ``array`` itself when it
    already is one, else a read-only copy.  The workers' chunks, the
    parent's merge rows and the registration's NaN record then all
    come from the same data."""
    matrix = np.asarray(array, dtype=np.float64)
    if matrix.flags.c_contiguous and is_frozen(matrix):
        return matrix
    matrix = np.array(matrix, order="C")
    matrix.setflags(write=False)
    return matrix


def _reject_nans(nan_columns: frozenset, columns) -> None:
    """Raise unless the columns a query reads (every column when
    ``columns`` is ``None``) are free of NaNs."""
    if nan_columns and (columns is None
                        or not nan_columns.isdisjoint(columns)):
        raise ValueError("rank matrix contains NaNs")


def _row_slices(n: int, chunks: int) -> list:
    """``chunks`` near-equal ``("slice", (start, stop))`` row tasks
    covering rows ``0:n`` -- the one slicing rule of every pooled
    scan."""
    bounds = np.linspace(0, n, chunks + 1, dtype=np.intp)
    return [("slice", (int(bounds[i]), int(bounds[i + 1])))
            for i in range(chunks)]


# -- worker side -------------------------------------------------------------


class _EventCancelToken:
    """Duck-typed :class:`CancellationToken` over a shared ``mp.Event``.

    Workers attach it to their :class:`ExecutionContext`, so every
    ``context.check`` at a block boundary observes a parent-side
    cancellation.
    """

    __slots__ = ("_event",)

    def __init__(self, event) -> None:
        self._event = event

    def cancel(self) -> None:  # pragma: no cover - parent cancels
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting its lifetime.

    Python's resource tracker assumes whoever opens a segment owns it
    and will unlink it at interpreter exit; suppressing the
    registration keeps ownership with the parent's
    :class:`SharedRegistration` (Python 3.13's ``track=False``
    parameter, backported by hand).  Merely attaching and then
    un-registering would race the parent: with the fork start method
    both sides talk to one tracker process, and the parent's own
    unlink-time unregister would arrive second and error out.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    try:
        resource_tracker.register = lambda *args, **kwargs: None
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_view(array_spec: SharedArraySpec,
                 attachments: dict) -> np.ndarray:
    """Map one registered segment (cached per worker by segment name)."""
    cached = attachments.get(array_spec.name)
    if cached is None:
        shm = _attach(array_spec.name)
        view = np.ndarray(array_spec.shape,
                          dtype=np.dtype(array_spec.dtype),
                          buffer=shm.buf)
        view.setflags(write=False)
        cached = (shm, view)
        attachments[array_spec.name] = cached
    return cached[1]


def _drop_attachments(attachments: dict, keep) -> None:
    """Unmap every cached segment whose name is not in ``keep``.

    The parent unlinks a segment when its registration is released; a
    worker's mapping would otherwise keep the pages allocated until the
    worker exits.
    """
    for name in [name for name in attachments if name not in keep]:
        shm, view = attachments.pop(name)
        del view  # the segment cannot unmap while a view exports it
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a caller still holds rows
            pass


def _gather_sharded(spec: ShardedArraySpec, kind: str, payload,
                    attachments: dict):
    """Gather live rows of pinned shards from their base segments and
    deltas: a ``"slice"`` of virtual rows or the virtual rows at
    ``"indices"``.  Returns ``(rows, to_global)``, ``to_global`` mapping
    a row's position in ``rows`` back to its virtual row."""
    pins: dict[int, ShardPin] = {}

    def pin(part: int) -> ShardPin:
        if part not in pins:
            dead, appended = spec.deltas[part]
            pins[part] = ShardPin(
                _attach_view(spec.parts[part], attachments), appended,
                dead)
        return pins[part]

    live = LiveRows(pin, spec.offsets, spec.shape[1])
    if kind == "slice":
        start, stop = payload
        return live[start:stop], lambda local: local + start
    indices = np.asarray(payload, dtype=np.intp)
    return live[indices], indices.__getitem__


def _run_task(spec: dict, attachments: dict, cancel_event):
    """Execute one task spec; returns ``(global_indices, stats)``.

    First unmaps the cached segments the parent no longer owns
    (``spec["live"]`` names the ones it does).
    """
    from ..core.dominance import forced_kernel
    from ..core.pgraph import PGraph

    _drop_attachments(attachments, spec["live"])
    kind, payload = spec["rows"]
    rows, to_global = _gather_sharded(spec["array"], kind, payload,
                                      attachments)
    names, closure, orders = spec["graph"]
    context = ExecutionContext(
        deadline=spec["deadline"],
        cancel=_EventCancelToken(cancel_event),
        memory_budget=spec["memory_budget"],
    )
    guard = forced_kernel(spec["forced_kernel"]) \
        if spec["forced_kernel"] else nullcontext()
    with guard:
        return _evaluate(rows, to_global, spec,
                         PGraph(names, closure, orders), context)


def _evaluate(rows: np.ndarray, to_global, spec: dict, graph,
              context: ExecutionContext):
    """The evaluate step of every task, in a worker or (the last merge)
    in the parent: ``spec["algorithm"]`` over the columns
    ``spec["columns"]`` of ``rows`` under ``context``, counting into a
    fresh :class:`Stats`; returns ``(global indices, stats)``.

    A ``parallel`` algorithm is asked for one process: a task never
    fans out again (a worker cannot, and the parent would wait on the
    pool lock its own query holds).
    """
    from .. import algorithms as _algorithms  # fills the registry
    from ..algorithms.base import run_on_columns

    info = _algorithms.REGISTRY_INFO[spec["algorithm"]]
    options = spec["options"]
    if info.parallel:
        options = {**options, "processes": 1}
    stats = _algorithms.Stats()
    local = run_on_columns(
        info.name, rows, graph, spec["columns"],
        context=context.with_stats(stats), **options)
    return to_global(np.asarray(local, dtype=np.intp)), stats


def _worker_main(worker_id: int, tasks, results, cancel_event) -> None:
    """The worker loop: pull task specs until the ``None`` sentinel."""
    attachments: dict = {}
    try:
        while True:
            item = tasks.get()
            if item is None:
                break
            query_id, task_id, spec = item
            try:
                indices, stats = _run_task(spec, attachments, cancel_event)
                results.put((query_id, task_id, worker_id, True,
                             indices, stats))
            except BaseException as error:
                try:
                    results.put((query_id, task_id, worker_id, False,
                                 error, None))
                except Exception:  # unpicklable exception: degrade
                    results.put((query_id, task_id, worker_id, False,
                                 RuntimeError(repr(error)), None))
    finally:
        _drop_attachments(attachments, ())


# -- parent side -------------------------------------------------------------


class WorkerPool:
    """A persistent pool of worker processes for p-skyline evaluation.

    Parameters
    ----------
    processes:
        Worker count (default :func:`default_worker_count`).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (zero-cost inheritance of the registry), ``spawn``
        otherwise (workers re-import :mod:`repro.algorithms`).

    The pool is a context manager; :meth:`close` (also registered with
    ``atexit``) joins the workers and unlinks every live shared-memory
    registration.  Queries are serialised through an internal lock --
    the pool is safe to share between threads, one query in flight at a
    time.
    """

    def __init__(self, processes: int | None = None, *,
                 start_method: str | None = None):
        if processes is not None and processes < 1:
            raise ValueError("processes must be positive")
        if not pool_available():
            raise RuntimeError(
                "cannot start a WorkerPool inside a daemonic process")
        self.processes = processes or default_worker_count()
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() \
                else "spawn"
        self._mp = mp.get_context(start_method)
        self.start_method = start_method
        self._cancel_event = self._mp.Event()
        self._tasks = self._mp.Queue()
        self._results = self._mp.Queue()
        self._workers = []
        for worker_id in range(self.processes):
            process = self._mp.Process(
                target=_worker_main,
                args=(worker_id, self._tasks, self._results,
                      self._cancel_event),
                daemon=True,
                name=f"repro-pool-worker-{worker_id}",
            )
            process.start()
            self._workers.append(process)
        #: id(array) -> (weakref to the array, SharedRegistration)
        self._registrations: dict = {}
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._query_ids = itertools.count(1)
        self._closed = False
        atexit.register(self.close)

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Join the workers and unlink every registration.

        Idempotent *and* thread-safe: with the server's atexit hook,
        the pool's own atexit hook and explicit ``shutdown_default_pool``
        calls all racing at interpreter exit, the first caller tears the
        pool down under ``_close_lock`` while later callers block until
        teardown finishes, then return without re-running it.  In-flight
        queries observe the cancel event (or the ``closed`` flag) and
        fail with :class:`~repro.engine.errors.QueryCancelled` before
        their shared segments are unlinked.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            try:
                atexit.unregister(self.close)
            except Exception:  # pragma: no cover - interpreter tear-down
                pass
            self._cancel_event.set()
            for _ in self._workers:
                try:
                    self._tasks.put(None)
                except Exception:  # pragma: no cover - queue already broken
                    break
            for process in self._workers:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=1.0)
            for q in (self._tasks, self._results):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:  # pragma: no cover - best effort
                    pass
            # Wait for any in-flight run_query to notice the cancel and
            # bail out before its shared segments are unlinked.
            acquired = self._lock.acquire(timeout=5.0)
            try:
                self._release_registrations()
            finally:
                if acquired:
                    self._lock.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _release_registrations(self) -> None:
        registrations, self._registrations = self._registrations, {}
        for _ref, registration in registrations.values():
            registration.close()

    # -- shared-memory registration ------------------------------------------
    def register(self, array: np.ndarray) -> SharedRegistration:
        """Copy ``array`` into shared memory once; reuse on repeat calls.

        The cache keys on the array *object*, so ``array`` must not
        change in place once registered (:class:`~repro.core.relation.
        Relation` guarantees this; the pooled queries register a
        read-only copy of any other matrix); registrations whose array
        has been garbage collected are unlinked on the next call.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        array = np.ascontiguousarray(array)
        for key, (ref, registration) in list(self._registrations.items()):
            if ref() is None:
                registration.close()
                del self._registrations[key]
        entry = self._registrations.get(id(array))
        if entry is not None and entry[0]() is array \
                and not entry[1].closed:
            return entry[1]
        registration = SharedRegistration(array)
        self._registrations[id(array)] = (weakref.ref(array), registration)
        return registration

    def live_segments(self) -> tuple[str, ...]:
        """Names of the shared-memory segments this pool currently owns
        (leak tests assert this is empty after :meth:`close`)."""
        return tuple(registration.name
                     for _ref, registration in self._registrations.values()
                     if not registration.closed)

    # -- query execution -----------------------------------------------------
    def run_query(self, ranks: np.ndarray, graph, *,
                  algorithm: str = "osdc", chunks: int | None = None,
                  columns=None, options: dict | None = None,
                  context: ExecutionContext | None = None) -> np.ndarray:
        """Evaluate ``M_pi(ranks)`` on the pool; returns sorted indices.

        The input is partitioned into ``chunks`` row ranges (default:
        one per worker), each evaluated by ``algorithm`` in a worker
        against the shared segment, then reduced with a tree of
        pairwise merges -- the partition identity ``M_pi(D) =
        M_pi(union of the M_pi(D_i))`` applied level by level, on the
        pool until one pair is left and that pair in this process.
        Worker stats are merged into ``context.stats``.

        The matrix runs as a one-shard :meth:`run_sharded` read: a
        :class:`ShardPin` whose base is the matrix, with nothing
        appended and nothing dead.  A query that reads a column holding
        NaNs raises ``ValueError`` before any task is dispatched (the
        registration recorded those columns once).  A matrix that can
        be written in place is registered as a read-only copy for this
        query alone.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        n = int(ranks.shape[0])
        chunks = self.processes if chunks is None else int(chunks)
        context.check("pool-setup")
        if not n:
            return np.empty(0, dtype=np.intp)
        matrix = _frozen_matrix(ranks)
        pin = ShardPin(matrix, matrix[:0], np.empty(0, dtype=np.intp))
        with self._lock:
            return self._scatter_gather(
                [pin], graph, chunks=chunks, algorithm=algorithm,
                columns=columns, options=options, context=context)

    def run_sharded(self, shards, graph, *, algorithm: str = "osdc",
                    columns=None, options: dict | None = None,
                    context: ExecutionContext | None = None
                    ) -> np.ndarray:
        """Evaluate ``M_pi`` over the live rows of pinned shards; returns
        sorted indices in the virtual space of their concatenation.

        Each shard is a :class:`ShardPin` whose base nothing writes in
        place.  The base is registered into shared memory on its own
        and stays registered while the shard only grows or loses rows,
        so a read after a write ships that shard's delta -- its dead
        slots and appended rows -- with the tasks instead of
        registering it again.  The virtual rows are cut into one
        near-equal slice per worker, whatever the shard boundaries (the
        partition identity holds for any partition, so a slice that
        spans shards is gathered across their segments in the worker),
        and the slices are reduced by the tree of pairwise merges.  A
        query reading a column that holds NaNs in any shard's base
        raises ``ValueError`` before any task is dispatched.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        pins = [pin for pin in shards if len(pin)]
        context.check("pool-setup")
        if not pins:
            return np.empty(0, dtype=np.intp)
        with self._lock:
            return self._scatter_gather(
                pins, graph, chunks=self.processes, algorithm=algorithm,
                columns=columns, options=options, context=context,
                pool_extra={"shards": len(pins)})

    def merge_sharded_skylines(self, shards, graph, parts, *,
                               algorithm: str = "osdc", columns=None,
                               options: dict | None = None,
                               context: ExecutionContext | None = None
                               ) -> np.ndarray:
        """Tree-merge pre-computed per-shard skylines on the pool.

        ``shards`` are pinned like :meth:`run_sharded`'s; ``parts``
        holds one index array per shard skyline, in the virtual
        coordinate space of their concatenated live rows.  The
        chunk-evaluation stage is skipped and only the merge tree runs.
        Returns sorted virtual indices of the global skyline.

        No library path calls it: tracked sharded relations merge their
        per-shard skylines in-process (on a 2-core host this merge took
        1.65-5.40x as long at 4 and 8 shards).  It stays while
        ``e2e/layers.py`` wraps it by name.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        context.check("pool-setup")
        with self._lock:
            pins = [pin for pin in shards if len(pin)]
            parts = [np.asarray(part, dtype=np.intp) for part in parts]
            return self._scatter_gather(
                pins, graph, parts=parts, algorithm=algorithm,
                columns=columns, options=options, context=context,
                phase="pool-shard-merge",
                pool_extra={"shards": len(parts), "merge_only": True})

    def _register_sharded(self, pins
                          ) -> tuple[ShardedArraySpec, frozenset]:
        """Register each pin's base (a cache hit while it is unchanged);
        returns the spec carrying the deltas and the columns holding
        NaNs in any shard.  Caller holds the lock."""
        offsets = [0]
        specs = []
        deltas = []
        nan_columns = frozenset()
        for pin in pins:
            registration = self.register(pin.base)
            specs.append(registration.spec)
            deltas.append((pin.dead, pin.appended))
            nan_columns |= registration.nan_columns
            offsets.append(offsets[-1] + len(pin))
        return (ShardedArraySpec(tuple(specs), tuple(offsets),
                                 tuple(deltas)), nan_columns)

    def _scatter_gather(self, pins, graph, *, chunks: int | None = None,
                        parts=None, algorithm: str, columns,
                        options: dict | None,
                        context: ExecutionContext,
                        phase: str = "pool-chunk",
                        pool_extra: dict | None = None) -> np.ndarray:
        """The shared scatter/gather engine behind every pooled query.

        Registers the pins' bases, then either evaluates ``chunks``
        near-equal slices of their live rows (chunk stage + merge tree;
        a query reading a column that holds NaNs raises first) or
        adopts pre-computed ``parts`` (merge tree only).  The merge run
        in this process reads its rows from the pins.  Caller holds the
        pool lock.  Returns sorted virtual indices.
        """
        from ..core.dominance import current_forced_kernel

        array_spec, nan_columns = self._register_sharded(pins)
        if parts is None:
            _reject_nans(nan_columns, columns)
        live = LiveRows.of(pins)
        query_id = next(self._query_ids)
        self._drain_stale()
        self._cancel_event.clear()
        token = context.cancel
        if token is not None and hasattr(token, "link"):
            token.link(self._cancel_event)
            linked = True
        else:
            linked = False
        base_spec = {
            "array": array_spec,
            "columns": tuple(columns) if columns is not None else None,
            "graph": (graph.names, graph.closure, graph.orders),
            "algorithm": algorithm,
            "options": dict(options or {}),
            "deadline": context.deadline,
            "memory_budget": context.memory_budget,
            "forced_kernel": current_forced_kernel(),
            "live": self.live_segments(),
        }
        worker_stats: list = []
        try:
            if parts is None:
                n = len(live)
                specs = [dict(base_spec, rows=rows) for rows in
                         _row_slices(n, max(1, min(chunks, n)))]
                context.event("pool-dispatch", chunks=len(specs),
                              workers=self.processes)
                parts, worker_stats = self._execute_tasks(
                    query_id, specs, context, phase)
            chunks = len(parts)
            chunk_sizes = [int(part.size) for part in parts]
            parts, merge_rounds, parent_stats = self._tree_merge(
                query_id, parts, graph, base_spec, context, worker_stats,
                live)
            result = np.sort(parts[0]) if parts else \
                np.empty(0, dtype=np.intp)
        except BaseException:
            # wake the workers out of any in-flight sibling task;
            # their (stale) results are discarded by query id
            self._cancel_event.set()
            raise
        finally:
            if linked:
                token.unlink(self._cancel_event)
        self._aggregate_stats(context, worker_stats, parent_stats,
                              chunk_sizes, chunks, merge_rounds,
                              pool_extra)
        context.event("pool-query", chunks=chunks,
                      merge_rounds=merge_rounds,
                      result=int(result.size))
        return result

    # -- internals -----------------------------------------------------------
    def _drain_stale(self) -> None:
        """Throw away results of queries that raised mid-flight."""
        while True:
            try:
                self._results.get_nowait()
            except queue_module.Empty:
                return

    def _ensure_workers_alive(self) -> None:
        dead = [p.name for p in self._workers if not p.is_alive()]
        if dead:
            raise RuntimeError(
                f"pool worker(s) died unexpectedly: {', '.join(dead)}")

    def _execute_tasks(self, query_id: int, specs: list[dict],
                       context: ExecutionContext, phase: str):
        """Dispatch ``specs`` and gather their results in task order."""
        from .errors import QueryCancelled

        if self._closed:
            raise QueryCancelled("worker pool closed during query")
        try:
            for task_id, spec in enumerate(specs):
                self._tasks.put((query_id, task_id, spec))
        except Exception:
            if self._closed:
                raise QueryCancelled("worker pool closed during query")
            raise
        results: list = [None] * len(specs)
        stats: list = []
        pending = set(range(len(specs)))
        while pending:
            context.check(phase)
            try:
                item = self._results.get(timeout=_POLL_INTERVAL)
            except queue_module.Empty:
                if self._closed:
                    raise QueryCancelled("worker pool closed during query")
                self._ensure_workers_alive()
                continue
            item_query, task_id, worker_id, ok, payload, task_stats = item
            if item_query != query_id:
                continue  # stale result of an aborted earlier query
            if not ok:
                raise payload
            results[task_id] = payload
            stats.append((worker_id, task_stats))
            pending.discard(task_id)
        return results, stats

    def _tree_merge(self, query_id: int, parts: list, graph,
                    base_spec: dict, context: ExecutionContext,
                    worker_stats: list, live: LiveRows):
        """Pairwise merges until a single survivor set remains.

        Rounds run on the pool while more than two sets remain; the
        last pair is merged in this process, from the rows of ``live``.
        With four or more sets the last round was a single task anyway,
        so no parallelism is lost.  Returns ``(parts, rounds,
        parent_stats)``; ``parent_stats`` is ``None`` when nothing was
        merged here.
        """
        rounds = 0
        while len(parts) > 2:
            rounds += 1
            specs = []
            carried = []
            for i in range(0, len(parts) - 1, 2):
                union = np.concatenate([parts[i], parts[i + 1]])
                specs.append(dict(base_spec, rows=("indices", union)))
            if len(parts) % 2:
                carried.append(parts[-1])
            context.event("pool-merge", round=rounds, pairs=len(specs))
            merged, stats = self._execute_tasks(
                query_id, specs, context, "pool-merge")
            worker_stats.extend(stats)
            parts = merged + carried
        parent_stats = None
        if len(parts) == 2:
            rounds += 1
            context.event("pool-merge", round=rounds, pairs=1,
                          parent=True)
            # M_pi of the union, run here under the caller's deadline,
            # cancel token, memory budget and forced kernel
            context.check("pool-merge")
            union = np.concatenate(parts)
            merged, parent_stats = _evaluate(
                live[union], union.__getitem__, base_spec, graph,
                context)
            parts = [merged]
        return parts, rounds, parent_stats

    @staticmethod
    def _aggregate_stats(context: ExecutionContext, worker_stats: list,
                         parent_stats, chunk_sizes: list[int],
                         chunks: int, merge_rounds: int,
                         pool_extra: dict | None = None) -> None:
        stats = context.stats
        if stats is None:
            return
        per_worker: dict[int, int] = {}
        kernel = None
        for worker_id, task_stats in worker_stats:
            stats.merge(task_stats)
            per_worker[worker_id] = (per_worker.get(worker_id, 0)
                                     + task_stats.dominance_tests)
            if kernel is None:
                kernel = task_stats.extra.get("kernel")
        counts = {str(worker_id): count
                  for worker_id, count in sorted(per_worker.items())}
        if parent_stats is not None:
            stats.merge(parent_stats)
            counts["parent"] = parent_stats.dominance_tests
            if kernel is None:
                kernel = parent_stats.extra.get("kernel")
        stats.extra["chunk_skylines"] = chunk_sizes
        if kernel is not None and "kernel" not in stats.extra:
            stats.extra["kernel"] = kernel
        stats.extra["pool"] = {
            "chunks": chunks,
            "merge_rounds": merge_rounds,
            "tasks": len(worker_stats),
            "per_worker_dominance_tests": counts,
        }
        if pool_extra:
            stats.extra["pool"].update(pool_extra)


# -- default pool ------------------------------------------------------------

_default_pool: WorkerPool | None = None
_default_lock = threading.Lock()


def get_default_pool(processes: int | None = None) -> WorkerPool:
    """The process-wide warm pool (created lazily, resurrected after a
    :func:`shutdown_default_pool`).  ``processes`` only sizes a pool
    being created; an existing pool is returned as is."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
            _default_pool = WorkerPool(processes)
        return _default_pool


def shutdown_default_pool() -> None:
    """Close the default pool (it will be recreated on next use)."""
    global _default_pool
    with _default_lock:
        if _default_pool is not None:
            _default_pool.close()
            _default_pool = None
