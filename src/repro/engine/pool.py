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
* :meth:`WorkerPool.map_queries` amortises one shared-memory
  registration across many p-expressions -- the "many users, one data
  set" shape of a loaded service.

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

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from .context import ExecutionContext

__all__ = ["SharedArraySpec", "ShardedArraySpec", "SharedRegistration",
           "WorkerPool", "get_default_pool", "shutdown_default_pool",
           "pool_available", "default_worker_count"]

#: Shared-memory segments created by this module are named
#: ``repro-pool-<pid>-<nonce>`` so leak checks can find strays.
SEGMENT_PREFIX = "repro-pool"

#: Upper bound on the default pool's worker count (a service box with 64
#: cores should not fork 64 Python interpreters for one library user).
DEFAULT_MAX_WORKERS = 8

#: Seconds between parent-side context checks while waiting on workers.
_POLL_INTERVAL = 0.02


def default_worker_count() -> int:
    """The default pool size: the CPU count, at least 2, at most
    :data:`DEFAULT_MAX_WORKERS`."""
    return min(DEFAULT_MAX_WORKERS, max(2, os.cpu_count() or 1))


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
    """A picklable descriptor of one *virtually concatenated* array made
    of independently registered parts (the shards of a
    :class:`~repro.core.sharding.ShardedRelation`).

    ``offsets`` has ``len(parts) + 1`` entries: part ``i`` covers virtual
    rows ``offsets[i]:offsets[i + 1]``.  Workers address rows in the
    virtual coordinate space and gather across part segments -- a write
    to one shard therefore only invalidates that shard's registration,
    not the whole relation's.
    """

    parts: tuple[SharedArraySpec, ...]
    offsets: tuple[int, ...]

    def __post_init__(self):
        if len(self.offsets) != len(self.parts) + 1:
            raise ValueError(
                f"{len(self.parts)} parts need {len(self.parts) + 1} "
                f"offsets, got {len(self.offsets)}")

    @property
    def shape(self) -> tuple[int, ...]:
        width = self.parts[0].shape[1] if self.parts else 0
        return (self.offsets[-1], width)


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
    scan, flat or sharded."""
    bounds = np.linspace(0, n, chunks + 1, dtype=np.intp)
    return [("slice", (int(bounds[i]), int(bounds[i + 1])))
            for i in range(chunks)]


def _take_rows(part, offsets, width: int, indices) -> np.ndarray:
    """Rows ``indices`` of a virtual concatenation: ``part(i)`` is the
    array covering rows ``offsets[i]:offsets[i + 1]``."""
    indices = np.asarray(indices, dtype=np.intp)
    # side="right" - 1 lands on the part containing the row even when
    # empty parts produce repeated offsets
    part_of = np.searchsorted(offsets, indices, side="right") - 1
    rows = np.empty((indices.size, width), dtype=np.float64)
    for index in np.unique(part_of):
        mask = part_of == index
        rows[mask] = part(index)[indices[mask] - offsets[index]]
    return rows


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
    """Gather rows of a virtually concatenated array across its part
    segments; returns ``(rows, to_global)`` like the single-segment
    path.  Stays zero-copy when a slice falls inside one part."""
    offsets = np.asarray(spec.offsets, dtype=np.intp)
    if kind == "slice":
        start, stop = payload
        # side="right" - 1 lands on the part containing the row even
        # when empty parts produce repeated offsets
        first = int(np.searchsorted(offsets, start, side="right")) - 1
        if stop <= offsets[first + 1]:  # inside one part: zero-copy
            view = _attach_view(spec.parts[first], attachments)
            rows = view[start - offsets[first]:stop - offsets[first]]
        else:
            pieces = []
            cursor = start
            part = first
            while cursor < stop:
                view = _attach_view(spec.parts[part], attachments)
                lo = cursor - offsets[part]
                hi = min(stop, int(offsets[part + 1])) - offsets[part]
                if hi > lo:
                    pieces.append(view[lo:hi])
                cursor = int(offsets[part + 1])
                part += 1
            rows = np.vstack(pieces)

        def to_global(local: np.ndarray) -> np.ndarray:
            return local + start
    else:
        indices = np.asarray(payload, dtype=np.intp)
        rows = _take_rows(
            lambda part: _attach_view(spec.parts[part], attachments),
            offsets, spec.shape[1], indices)

        def to_global(local: np.ndarray) -> np.ndarray:
            return indices[local]
    return rows, to_global


def _run_task(spec: dict, attachments: dict, cancel_event):
    """Execute one task spec; returns ``(global_indices, stats)``.

    First unmaps the cached segments the parent no longer owns
    (``spec["live"]`` names the ones it does).
    """
    from ..core.dominance import forced_kernel
    from ..core.pgraph import PGraph

    _drop_attachments(attachments, spec["live"])
    array_spec = spec["array"]
    kind, payload = spec["rows"]
    if isinstance(array_spec, ShardedArraySpec):
        rows, to_global = _gather_sharded(array_spec, kind, payload,
                                          attachments)
    elif kind == "slice":
        view = _attach_view(array_spec, attachments)
        start, stop = payload
        rows = view[start:stop]  # zero-copy view of the segment

        def to_global(local: np.ndarray) -> np.ndarray:
            return local + start
    else:  # "indices": merge tasks and arbitrary subsets
        view = _attach_view(array_spec, attachments)
        indices = np.asarray(payload, dtype=np.intp)
        rows = view[indices]

        def to_global(local: np.ndarray) -> np.ndarray:
            return indices[local]

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

    columns = spec["columns"]
    if columns is not None:
        # one pass to the row-major chunk the algorithms read
        rows = np.take(rows, columns, axis=1)
    options = spec["options"]
    if _algorithms.REGISTRY_INFO[spec["algorithm"]].parallel:
        options = {**options, "processes": 1}
    stats = _algorithms.Stats()
    function = _algorithms.REGISTRY[spec["algorithm"]]
    local = function(rows, graph, context=context.with_stats(stats),
                     **options)
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

        A query that reads a column holding NaNs raises ``ValueError``
        before any task is dispatched (the registration recorded those
        columns once).  A matrix that can be written in place is
        registered as a read-only copy for this query alone.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        n = int(ranks.shape[0])
        chunks = self.processes if chunks is None else int(chunks)
        chunks = max(1, min(chunks, n if n else 1))
        context.check("pool-setup")
        ranks = _frozen_matrix(ranks)
        with self._lock:
            registration = self.register(ranks)
            _reject_nans(registration.nan_columns, columns)
            return self._scatter_gather(
                registration.spec, graph, rows_of=ranks.__getitem__,
                row_tasks=_row_slices(n, chunks), algorithm=algorithm,
                columns=columns, options=options, context=context)

    def run_sharded(self, arrays, graph, *, algorithm: str = "osdc",
                    columns=None, options: dict | None = None,
                    context: ExecutionContext | None = None
                    ) -> np.ndarray:
        """Evaluate ``M_pi`` over the virtual concatenation of
        independently registered shard arrays; returns sorted indices in
        the virtual (concatenated) coordinate space.

        Each shard is registered into shared memory on its own, so a
        mutation to one shard of a
        :class:`~repro.core.sharding.ShardedRelation` invalidates only
        that shard's registration on the next query.  The virtual rows
        are sliced exactly like :meth:`run_query` slices a matrix: one
        near-equal slice per worker, whatever the shard boundaries (the
        partition identity holds for any partition, so a slice that
        spans shards is gathered across their segments in the worker).
        The slices are merged like :meth:`run_query`'s, which also
        rejects NaNs in the columns read the same way.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        arrays = [_frozen_matrix(a) for a in arrays if a.shape[0]]
        n = sum(int(a.shape[0]) for a in arrays)
        context.check("pool-setup")
        with self._lock:
            if not arrays:
                return np.empty(0, dtype=np.intp)
            spec, nan_columns = self._register_sharded(arrays)
            _reject_nans(nan_columns, columns)
            return self._scatter_gather(
                spec, graph, rows_of=_virtual_rows(arrays),
                row_tasks=_row_slices(n, min(self.processes, n)),
                algorithm=algorithm, columns=columns,
                options=options, context=context,
                pool_extra={"shards": len(arrays)})

    def merge_sharded_skylines(self, arrays, graph, parts, *,
                               algorithm: str = "osdc", columns=None,
                               options: dict | None = None,
                               context: ExecutionContext | None = None
                               ) -> np.ndarray:
        """Tree-merge pre-computed per-shard skylines on the pool.

        ``parts`` holds one index array per shard skyline, in the
        virtual coordinate space of the concatenated ``arrays``.  This
        is the serving path for maintained sharded relations: the
        per-shard skylines are already known, so the chunk-evaluation
        stage is skipped entirely and only the merge tree runs.
        Returns sorted virtual indices of the global skyline.
        """
        from ..algorithms.base import ensure_context

        context = ensure_context(context)
        if self._closed:
            raise RuntimeError("pool is closed")
        context.check("pool-setup")
        with self._lock:
            arrays = [_frozen_matrix(a) for a in arrays]
            spec, _ = self._register_sharded(arrays)
            parts = [np.asarray(part, dtype=np.intp) for part in parts]
            return self._scatter_gather(
                spec, graph, rows_of=_virtual_rows(arrays),
                parts=parts, algorithm=algorithm, columns=columns,
                options=options, context=context,
                phase="pool-shard-merge",
                pool_extra={"shards": len(parts), "merge_only": True})

    def _register_sharded(self, arrays
                          ) -> tuple[ShardedArraySpec, frozenset]:
        """Register each shard array independently; returns the spec
        and the columns holding NaNs in any shard.  Caller holds the
        lock."""
        offsets = [0]
        specs = []
        nan_columns = frozenset()
        for array in arrays:
            registration = self.register(array)
            specs.append(registration.spec)
            nan_columns |= registration.nan_columns
            offsets.append(offsets[-1] + int(array.shape[0]))
        return ShardedArraySpec(tuple(specs), tuple(offsets)), nan_columns

    def _scatter_gather(self, array_spec, graph, *, rows_of,
                        row_tasks=None, parts=None, algorithm: str,
                        columns, options: dict | None,
                        context: ExecutionContext,
                        phase: str = "pool-chunk",
                        pool_extra: dict | None = None) -> np.ndarray:
        """The shared scatter/gather engine behind every pooled query.

        Either evaluates ``row_tasks`` (chunk stage + merge tree) or
        adopts pre-computed ``parts`` (merge tree only).
        ``rows_of(indices)`` returns the parent's copy of those rows
        (global/virtual indices, every column) for the merge run in
        this process.  Caller holds the pool lock.  Returns sorted
        global/virtual indices.
        """
        from ..core.dominance import current_forced_kernel

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
            if row_tasks is not None:
                specs = [dict(base_spec, rows=rows)
                         for rows in row_tasks]
                context.event("pool-dispatch", chunks=len(specs),
                              workers=self.processes)
                parts, worker_stats = self._execute_tasks(
                    query_id, specs, context, phase)
            chunks = len(parts)
            chunk_sizes = [int(part.size) for part in parts]
            parts, merge_rounds, parent_stats = self._tree_merge(
                query_id, parts, graph, base_spec, context, worker_stats,
                rows_of)
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

    def map_queries(self, data, queries, *, algorithm: str = "osdc",
                    chunks: int | None = None, min_chunk: int = 4096,
                    options: dict | None = None,
                    context: ExecutionContext | None = None) -> list:
        """Evaluate many p-expressions against one data set.

        ``data`` is a :class:`~repro.core.relation.Relation` or an
        ``(n, d)`` matrix; ``queries`` is a sequence of p-expressions
        (AST or text), p-graphs, or pre-resolved ``(graph, columns)``
        pairs.  The rank matrix is registered into shared memory
        **once** and every query ships only descriptors -- the "many
        users, one data set" batch shape.

        The batch is fused by :class:`~repro.core.fusion.FusionPlan`
        before it reaches the workers: duplicate preferences dispatch
        one pooled scatter/gather, and distinct preferences sharing a
        column signature dispatch only their common *base* -- the
        members are refined parent-side by replaying shared packed
        ``Better`` masks over the base survivors, so workers receive
        one mask-reuse descriptor set per fused group instead of
        re-deriving every query.  Returns one sorted index array per
        query.
        """
        from ..algorithms.base import ensure_context
        from ..core.fusion import FusionPlan

        context = ensure_context(context)
        ranks, resolved = _resolve_batch(data, queries)
        n = int(ranks.shape[0])
        if chunks is None:
            if min_chunk < 1:
                raise ValueError("min_chunk must be at least 1")
            chunks = max(1, min(self.processes, n // max(1, min_chunk)))
        plan = FusionPlan.build(
            (graph, tuple(columns) if columns is not None
             else tuple(range(graph.d)))
            for graph, columns in resolved)

        def evaluate(graph, key):
            return self.run_query(ranks, graph, algorithm=algorithm,
                                  chunks=chunks, columns=list(key),
                                  options=options, context=context)

        def candidates(indices, key):
            return ranks[np.ix_(indices, list(key))]

        return plan.execute(evaluate=evaluate, candidates=candidates,
                            context=context)

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
                    worker_stats: list, rows_of):
        """Pairwise merges until a single survivor set remains.

        Rounds run on the pool while more than two sets remain; the
        last pair is merged in this process, from the rows
        ``rows_of`` gathers.
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
                rows_of(union), union.__getitem__, base_spec, graph,
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


def _virtual_rows(arrays):
    """``rows_of`` for the virtual concatenation of ``arrays``."""
    offsets = np.cumsum([0] + [array.shape[0] for array in arrays])
    width = arrays[0].shape[1] if arrays else 0
    return lambda indices: _take_rows(arrays.__getitem__, offsets,
                                      width, indices)


def _resolve_batch(data, queries):
    """Normalise ``map_queries`` inputs to (ranks, [(graph, columns)])."""
    from ..core.attributes import orders_signature
    from ..core.expressions import PExpr
    from ..core.parser import parse
    from ..core.pgraph import PGraph
    from ..core.relation import Relation

    if isinstance(data, Relation):
        ranks = data.ranks
        names = data.names
        schema = data.schema
    else:
        # frozen once here, not once per query of the batch
        ranks = _frozen_matrix(data)
        if ranks.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        names = tuple(f"A{j}" for j in range(ranks.shape[1]))
        schema = None

    resolved = []
    for query in queries:
        if isinstance(query, tuple):
            graph, columns = query
            resolved.append((graph, columns))
            continue
        if isinstance(query, str):
            query = parse(query)
        if isinstance(query, PExpr):
            used = query.attributes()
            missing = [name for name in used if name not in names]
            if missing:
                raise KeyError(
                    f"expression uses attributes not in the data: "
                    f"{missing}")
            columns = [names.index(name) for name in used]
            graph = PGraph.from_expression(query, names=used)
            if schema is not None:
                graph = graph.with_orders(orders_signature(
                    [schema[c] for c in columns]))
            resolved.append((graph, columns))
        elif isinstance(query, PGraph):
            columns = [names.index(name) for name in query.names]
            resolved.append((query, columns))
        else:
            raise TypeError(
                f"expected a p-expression, p-graph or (graph, columns) "
                f"pair, got {type(query)}")
    return ranks, resolved


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
