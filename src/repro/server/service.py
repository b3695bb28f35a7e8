"""The asyncio query server.

:class:`SkylineServer` turns the library stack into a long-lived
service.  The event loop only moves bytes; every statement runs on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` through the
exact :class:`~repro.sql.PreferenceSQL` paths the library exposes, so a
served answer is byte-for-byte the library answer (the differential
tests pin this).  Around that core:

* **parse once** -- statement text is parsed to a frozen AST through an
  LRU, then replayed per request via
  :meth:`~repro.sql.PreferenceSQL.execute_parsed`;
* **deadlines and disconnects** -- each request gets an
  :class:`~repro.engine.ExecutionContext` carrying the request timeout
  and a :class:`~repro.engine.context.CancellationToken`; while the
  query runs in a worker thread, the event loop keeps reading the
  client socket, so a disconnect cancels the query mid-flight (and a
  pipelined next request is buffered, not lost);
* **result cache** -- full serialised answers in a
  :class:`~repro.server.cache.ResultCache`, keyed on relation identity
  + write version, the compiled-preference ``graph_key`` and the
  canonical query shape; :class:`~repro.core.sharding.ShardedRelation`
  write listeners invalidate proactively and every hit re-checks the
  version, so stale answers are impossible;
* **admission control** -- when the executor backlog exceeds
  ``max_queue`` (or :attr:`SkylineServer.force_shed` is set), a
  preference query is *shed*: instead of erroring, a dedicated
  lightweight lane answers with the first ``shed_prefix`` rows of the
  progressive SFS scan -- by construction a ``≻ext``-sorted prefix of
  the exact skyline -- flagged ``"partial": true`` with a reason.  The
  paper's output-sensitive, progressive evaluation model is what makes
  this degraded answer principled rather than arbitrary;
* **batch fusion** -- a ``"statements"`` request answers a whole
  correlated batch in one frame: cache hits are served per statement,
  and the misses run through
  :meth:`~repro.sql.PreferenceSQL.execute_batch`, whose fusion layer
  (:mod:`repro.core.fusion`) deduplicates canonically-equal
  preferences and evaluates each packed Better-mask block once for
  every query in the batch that needs it.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..algorithms.base import Stats
from ..algorithms.sfs import sfs_iter
from ..core.parser import ParseError
from ..core.preferring import encode_columns, resolve_preferring
from ..core.relation import Relation
from ..core.sharding import ShardedRelation
from ..engine.compiled import graph_key
from ..engine.context import CancellationToken, ExecutionContext
from ..engine.errors import (MemoryBudgetExceeded, QueryCancelled,
                             QueryTimeout)
from ..sql import (BatchExecutionError, PreferenceSQL, Query,
                   SqlExecutionError, SqlSyntaxError, parse_query)
from .cache import CachedResult, ResultCache
from .protocol import MAX_FRAME, ProtocolError, check_length, encode_frame

__all__ = ["SkylineServer", "ServerHandle", "serve_in_thread"]

_HEADER = struct.Struct(">I")

#: Statement-text -> parsed AST cache bound.
_PARSE_CACHE = 1024

#: Upper bound on statements per batch request.
_MAX_BATCH = 256


def _json_value(value: Any) -> Any:
    """A JSON-serialisable Python scalar for one cell."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def serialize_relation(relation: Relation) -> dict:
    """``{"columns": [...], "rows": [[...], ...]}`` for a result."""
    names = list(relation.names)
    records = relation.to_records()
    rows = [[_json_value(record[name]) for name in names]
            for record in records]
    return {"columns": names, "rows": rows}


@dataclass
class _Connection:
    """Per-connection read state: bytes received ahead of the current
    frame (the disconnect watcher buffers pipelined requests here)."""

    buffer: bytearray = field(default_factory=bytearray)
    disconnected: bool = False


class SkylineServer:
    """The asyncio front-end over a :class:`~repro.sql.PreferenceSQL`
    catalog.

    Construct, :meth:`register` relations, then either ``await
    start()`` inside an event loop or hand the server to
    :func:`serve_in_thread`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 cache: int | ResultCache | None = 256,
                 max_inflight: int = 4, max_queue: int = 8,
                 shed_prefix: int = 32,
                 default_timeout: float | None = None,
                 algorithm: str = "osdc"):
        self.host = host
        self.port = port
        if cache is None:
            self.cache: ResultCache | None = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(maxsize=int(cache))
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.shed_prefix = int(shed_prefix)
        self.default_timeout = default_timeout
        self.algorithm = algorithm
        #: Force the admission controller to shed every sheddable
        #: request (deterministic degraded-path tests).
        self.force_shed = False
        self.sql = PreferenceSQL()
        self._parsed: OrderedDict[str, Query] = OrderedDict()
        self._parse_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="skyline-query")
        # Shed answers must not queue behind the very backlog they are
        # escaping, so they run on their own small lane.
        self._shed_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="skyline-shed")
        self._active = 0
        self._metrics_lock = threading.Lock()
        self._counters = {"requests": 0, "queries": 0, "hits": 0,
                          "misses": 0, "shed": 0, "errors": 0,
                          "cancelled": 0, "timeouts": 0, "batches": 0}
        self._tokens: set[CancellationToken] = set()
        self._listeners: list[tuple[ShardedRelation, Any]] = []
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._request_ids = itertools.count(1)

    # -- catalog -------------------------------------------------------------
    def register(self, name: str, relation: Relation | ShardedRelation
                 ) -> None:
        """Register a relation and, for a mutable
        :class:`~repro.core.sharding.ShardedRelation`, wire its write
        listener to the result cache's invalidation hook."""
        self.sql.register(name, relation)
        if self.cache is not None and isinstance(relation, ShardedRelation):
            cache = self.cache
            source = id(relation)

            def _invalidate(_relation, _version, *,
                            _cache=cache, _source=source) -> None:
                _cache.invalidate_source(_source)

            relation.add_write_listener(_invalidate)
            self._listeners.append((relation, _invalidate))

    def tables(self) -> list[str]:
        return self.sql.tables()

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately;
        serving happens on the running event loop)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port)

    async def stop(self, grace: float = 5.0) -> None:
        """Drain and stop: close the listener, give in-flight queries
        ``grace`` seconds to finish, then cancel the stragglers."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._metrics_lock:
                if self._active == 0:
                    break
            await asyncio.sleep(0.02)
        with self._metrics_lock:
            tokens = list(self._tokens)
        for token in tokens:
            token.cancel()
        self._executor.shutdown(wait=True)
        self._shed_executor.shutdown(wait=True)
        for relation, listener in self._listeners:
            relation.remove_write_listener(listener)
        self._listeners.clear()

    # -- connection handling -------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection()
        try:
            while not self._stopping:
                message = await self._recv_frame(reader, conn)
                if message is None:
                    break
                response = await self._dispatch(message, reader, conn)
                if conn.disconnected:
                    break
                if response is not None:
                    writer.write(encode_frame(response))
                    await writer.drain()
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            pass  # framing broken or peer gone: drop the connection
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _recv_frame(self, reader: asyncio.StreamReader,
                          conn: _Connection) -> dict | None:
        """One frame, honouring bytes the disconnect watcher buffered;
        ``None`` on clean EOF between frames."""
        from .protocol import decode_frame

        while len(conn.buffer) < _HEADER.size:
            chunk = await reader.read(65536)
            if not chunk:
                if conn.buffer:
                    raise ConnectionError("connection closed mid-header")
                return None
            conn.buffer.extend(chunk)
        (length,) = _HEADER.unpack(bytes(conn.buffer[:_HEADER.size]))
        check_length(length)
        total = _HEADER.size + length
        while len(conn.buffer) < total:
            chunk = await reader.read(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            conn.buffer.extend(chunk)
        payload = bytes(conn.buffer[_HEADER.size:total])
        del conn.buffer[:total]
        return decode_frame(payload)

    async def _dispatch(self, message: dict, reader: asyncio.StreamReader,
                        conn: _Connection) -> dict | None:
        request_id = message.get("id")
        with self._metrics_lock:
            self._counters["requests"] += 1
        if "op" in message:
            return self._handle_op(message, request_id)
        if "statements" in message:
            return await self._handle_batch(message, request_id, reader,
                                            conn)
        if "statement" not in message:
            return self._error(request_id, "protocol",
                               "request needs a 'statement', 'statements' "
                               "or an 'op'")
        return await self._handle_query(message, request_id, reader, conn)

    def _handle_op(self, message: dict, request_id) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        if op == "tables":
            return {"id": request_id, "ok": True, "tables": self.tables()}
        if op == "stats":
            return {"id": request_id, "ok": True, "server": self.stats()}
        return self._error(request_id, "protocol", f"unknown op {op!r}")

    async def _handle_query(self, message: dict, request_id,
                            reader: asyncio.StreamReader,
                            conn: _Connection) -> dict | None:
        statement = message.get("statement")
        if not isinstance(statement, str):
            return self._error(request_id, "protocol",
                               "'statement' must be a string")
        timeout = message.get("timeout", self.default_timeout)
        if timeout is not None and (not isinstance(timeout, (int, float))
                                    or timeout <= 0):
            return self._error(request_id, "protocol",
                               "'timeout' must be positive seconds")
        algorithm = message.get("algorithm", self.algorithm)
        no_cache = bool(message.get("no_cache", False))

        shed = self._should_shed()
        executor = self._shed_executor if shed else self._executor
        token = CancellationToken()
        with self._metrics_lock:
            self._active += 1
            self._tokens.add(token)
        loop = asyncio.get_running_loop()
        exec_task = asyncio.ensure_future(loop.run_in_executor(
            executor, self._run_request, statement, request_id,
            timeout, algorithm, no_cache, shed, token))
        try:
            await self._watch(exec_task, reader, conn, token)
            return exec_task.result()
        finally:
            with self._metrics_lock:
                self._active -= 1
                self._tokens.discard(token)

    async def _handle_batch(self, message: dict, request_id,
                            reader: asyncio.StreamReader,
                            conn: _Connection) -> dict | None:
        """A ``"statements"`` request: many statements answered in one
        frame.  Cache hits are served per statement; the misses run
        through :meth:`~repro.sql.PreferenceSQL.execute_batch`, whose
        fusion layer deduplicates preferences and shares packed
        Better-masks across the batch.  Batch requests always run on
        the main executor (the shed lane answers single statements)."""
        statements = message.get("statements")
        if (not isinstance(statements, list) or not statements
                or not all(isinstance(s, str) for s in statements)):
            return self._error(
                request_id, "protocol",
                "'statements' must be a non-empty list of strings")
        if len(statements) > _MAX_BATCH:
            return self._error(
                request_id, "protocol",
                f"batch too large ({len(statements)} statements; "
                f"max {_MAX_BATCH})")
        timeout = message.get("timeout", self.default_timeout)
        if timeout is not None and (not isinstance(timeout, (int, float))
                                    or timeout <= 0):
            return self._error(request_id, "protocol",
                               "'timeout' must be positive seconds")
        algorithm = message.get("algorithm", self.algorithm)
        no_cache = bool(message.get("no_cache", False))

        token = CancellationToken()
        with self._metrics_lock:
            self._active += 1
            self._tokens.add(token)
        loop = asyncio.get_running_loop()
        exec_task = asyncio.ensure_future(loop.run_in_executor(
            self._executor, self._run_batch, statements, request_id,
            timeout, algorithm, no_cache, token))
        try:
            await self._watch(exec_task, reader, conn, token)
            return exec_task.result()
        finally:
            with self._metrics_lock:
                self._active -= 1
                self._tokens.discard(token)

    async def _watch(self, exec_task: asyncio.Future,
                     reader: asyncio.StreamReader, conn: _Connection,
                     token: CancellationToken) -> None:
        """Await the executor future while watching the socket: EOF
        cancels the running query; pipelined bytes are buffered."""
        while not exec_task.done():
            peek = asyncio.ensure_future(reader.read(65536))
            done, _ = await asyncio.wait(
                {exec_task, peek}, return_when=asyncio.FIRST_COMPLETED)
            if peek in done:
                data = peek.result()
                if not data:
                    conn.disconnected = True
                    token.cancel()
                    try:
                        await exec_task
                    except Exception:
                        pass
                    return
                conn.buffer.extend(data)
            else:
                peek.cancel()
                try:
                    data = await peek
                    if data:
                        conn.buffer.extend(data)
                    elif data == b"":
                        conn.disconnected = True
                except (asyncio.CancelledError, Exception):
                    pass

    def _should_shed(self) -> bool:
        if self.force_shed:
            return True
        with self._metrics_lock:
            return self._active >= self.max_inflight + self.max_queue

    # -- query execution (worker threads) ------------------------------------
    def _parse(self, statement: str) -> Query:
        with self._parse_lock:
            query = self._parsed.get(statement)
            if query is not None:
                self._parsed.move_to_end(statement)
                return query
        query = parse_query(statement)
        with self._parse_lock:
            self._parsed[statement] = query
            self._parsed.move_to_end(statement)
            while len(self._parsed) > _PARSE_CACHE:
                self._parsed.popitem(last=False)
        return query

    def _source(self, query: Query) -> tuple[Any, int, int]:
        relation = self.sql.relation(query.table)
        if isinstance(relation, ShardedRelation):
            return relation, id(relation), relation.version
        return relation, id(relation), 0

    def _cache_key(self, query: Query, source_id: int, relation,
                   algorithm: str):
        if query.preferring is not None:
            # graph_key canonicalises the clause: two spellings of the
            # same preference share a slot.  Resolving reads only the
            # schema, so a key costs no rows and pins no snapshot
            graph, _ = resolve_preferring(relation, query.preferring)
            preference = graph_key(graph)
        else:
            preference = None
        return (source_id, preference, query.columns, repr(query.where),
                query.order_by, query.top, algorithm)

    def _run_request(self, statement: str, request_id, timeout,
                     algorithm: str, no_cache: bool, shed: bool,
                     token: CancellationToken) -> dict:
        try:
            return self._run_request_inner(
                statement, request_id, timeout, algorithm, no_cache,
                shed, token)
        except Exception as error:  # pragma: no cover - defensive net
            return self._map_error(request_id, error)

    def _run_request_inner(self, statement: str, request_id, timeout,
                           algorithm: str, no_cache: bool, shed: bool,
                           token: CancellationToken) -> dict:
        started = time.perf_counter()
        try:
            query = self._parse(statement)
        except (SqlSyntaxError, ParseError, ValueError) as error:
            return self._count_error(request_id, "parse", error)
        try:
            relation, source_id, version = self._source(query)
        except SqlExecutionError as error:
            return self._count_error(request_id, "execution", error)
        if shed and query.preferring is not None \
                and query.order_by is None:
            try:
                response = self._run_shed(query, relation, request_id,
                                          timeout, token)
                with self._metrics_lock:
                    self._counters["shed"] += 1
                    self._counters["queries"] += 1
                response["elapsed_ms"] = \
                    (time.perf_counter() - started) * 1e3
                return response
            except Exception as error:
                return self._map_error(request_id, error)

        use_cache = self.cache is not None and not no_cache
        key = None
        if use_cache:
            try:
                key = self._cache_key(query, source_id, relation, algorithm)
            except Exception as error:
                return self._map_error(request_id, error)
            entry = self.cache.get(key, version)
            if entry is not None:
                with self._metrics_lock:
                    self._counters["hits"] += 1
                    self._counters["queries"] += 1
                response = dict(entry.payload)
                response.update(
                    {"id": request_id, "ok": True, "cached": True,
                     "partial": False, "version": entry.version,
                     "stats": dict(entry.extra),
                     "elapsed_ms": (time.perf_counter() - started) * 1e3})
                return response

        stats = Stats()
        context = ExecutionContext.create(stats=stats, timeout=timeout,
                                          cancel=token)
        try:
            result = self.sql.execute_parsed(query, algorithm=algorithm,
                                             context=context)
        except Exception as error:
            return self._map_error(request_id, error)
        executed_version = stats.extra.get("relation_version", version)
        payload = serialize_relation(result)
        counters = {"dominance_tests": stats.dominance_tests,
                    "comparisons": stats.comparisons,
                    "passes": stats.passes}
        if use_cache:
            self.cache.put(key, CachedResult(
                payload=payload, source_id=source_id,
                version=executed_version, extra=counters))
        with self._metrics_lock:
            self._counters["misses"] += 1 if use_cache else 0
            self._counters["queries"] += 1
        response = dict(payload)
        response.update(
            {"id": request_id, "ok": True, "cached": False,
             "partial": False, "version": executed_version,
             "stats": counters,
             "elapsed_ms": (time.perf_counter() - started) * 1e3})
        return response

    def _run_batch(self, statements: list, request_id, timeout,
                   algorithm: str, no_cache: bool,
                   token: CancellationToken) -> dict:
        try:
            return self._run_batch_inner(statements, request_id, timeout,
                                         algorithm, no_cache, token)
        except Exception as error:  # pragma: no cover - defensive net
            return self._map_error(request_id, error)

    def _run_batch_inner(self, statements: list, request_id, timeout,
                         algorithm: str, no_cache: bool,
                         token: CancellationToken) -> dict:
        started = time.perf_counter()
        responses: list[dict | None] = [None] * len(statements)
        misses: list[int] = []
        puts: dict[int, tuple[Any, int]] = {}
        use_cache = self.cache is not None and not no_cache
        for index, statement in enumerate(statements):
            try:
                query = self._parse(statement)
                relation, source_id, version = self._source(query)
            except Exception as error:
                mapped = self._map_error(request_id, error)
                mapped["failed_statement"] = index
                mapped["results"] = responses
                return mapped
            if use_cache:
                try:
                    key = self._cache_key(query, source_id, relation,
                                          algorithm)
                except Exception as error:
                    mapped = self._map_error(request_id, error)
                    mapped["failed_statement"] = index
                    mapped["results"] = responses
                    return mapped
                entry = self.cache.get(key, version)
                if entry is not None:
                    with self._metrics_lock:
                        self._counters["hits"] += 1
                        self._counters["queries"] += 1
                    payload = dict(entry.payload)
                    payload.update({"ok": True, "cached": True,
                                    "version": entry.version,
                                    "stats": dict(entry.extra)})
                    responses[index] = payload
                    continue
                if not isinstance(relation, ShardedRelation):
                    # plain relations are version-0 sources, so batch
                    # answers can be cached without staleness risk;
                    # sharded misses are recomputed (their version may
                    # move mid-batch)
                    puts[index] = (key, source_id)
            misses.append(index)

        stats = Stats()
        fusion = None
        if misses:
            context = ExecutionContext.create(stats=stats,
                                              timeout=timeout,
                                              cancel=token)
            try:
                results = self.sql.execute_batch(
                    [statements[i] for i in misses],
                    algorithm=algorithm, context=context)
            except BatchExecutionError as error:
                # keep the per-statement answers that completed before
                # the failure -- the client sees exactly which ones
                for offset, result in enumerate(error.results):
                    if result is None:
                        continue
                    payload = serialize_relation(result)
                    payload.update({"ok": True, "cached": False})
                    responses[misses[offset]] = payload
                cause = error.cause if error.cause is not None else error
                mapped = self._map_error(request_id, cause)
                mapped["failed_statement"] = misses[error.failed_index]
                mapped["results"] = responses
                return mapped
            except Exception as error:
                return self._map_error(request_id, error)
            fusion = stats.extra.get("fusion")
            for index, result in zip(misses, results):
                payload = serialize_relation(result)
                if use_cache and index in puts:
                    key, source_id = puts[index]
                    self.cache.put(key, CachedResult(
                        payload=dict(payload), source_id=source_id,
                        version=0, extra={}))
                payload.update({"ok": True, "cached": False})
                responses[index] = payload
            with self._metrics_lock:
                self._counters["misses"] += len(misses) if use_cache \
                    else 0
                self._counters["queries"] += len(misses)
        with self._metrics_lock:
            self._counters["batches"] += 1
        return {"id": request_id, "ok": True,
                "count": len(statements), "results": responses,
                "fusion": fusion,
                "stats": {"dominance_tests": stats.dominance_tests,
                          "comparisons": stats.comparisons,
                          "passes": stats.passes},
                "elapsed_ms": (time.perf_counter() - started) * 1e3}

    def _run_shed(self, query: Query, relation, request_id, timeout,
                  token: CancellationToken) -> dict:
        """The degraded answer: the first ``shed_prefix`` rows of the
        progressive SFS scan -- a ``≻ext``-sorted prefix of the exact
        skyline -- after WHERE, with SELECT projection applied."""
        stats = Stats()
        context = ExecutionContext.create(stats=stats, timeout=timeout,
                                          cancel=token)
        if isinstance(relation, ShardedRelation):
            with relation.snapshot() as snapshot:
                version = snapshot.version
                order = np.argsort(snapshot.global_ids, kind="stable")
                base = snapshot.relation.take(order)
        else:
            version = 0
            base = relation
        if query.where is not None:
            context.check("sql-where")
            mask = self.sql._evaluate(query.where, base)
            base = base.take(np.flatnonzero(mask))
        graph, items = resolve_preferring(base, query.preferring)
        matrix = encode_columns(base, items)
        limit = self.shed_prefix
        if query.top is not None:
            limit = min(limit, query.top)
        indices = []
        for row in sfs_iter(matrix, graph, stats=stats, context=context):
            indices.append(row)
            if len(indices) >= limit:
                break
        result = base.take(np.asarray(indices, dtype=np.intp))
        if query.columns is not None:
            missing = [c for c in query.columns if c not in result.names]
            if missing:
                raise SqlExecutionError(
                    f"unknown column(s) in SELECT: {missing}")
            result = result.project(list(query.columns))
        payload = serialize_relation(result)
        payload.update(
            {"id": request_id, "ok": True, "cached": False,
             "partial": True,
             "reason": ("admission control: executor backlog at "
                        f"capacity; returning the first {limit} rows of "
                        "the progressive ≻ext scan"),
             "version": version,
             "stats": {"dominance_tests": stats.dominance_tests,
                       "comparisons": stats.comparisons,
                       "passes": stats.passes}})
        return payload

    # -- errors / stats ------------------------------------------------------
    def _error(self, request_id, code: str, message) -> dict:
        return {"id": request_id, "ok": False,
                "error": {"code": code, "message": str(message)}}

    def _count_error(self, request_id, code: str, error) -> dict:
        with self._metrics_lock:
            self._counters["errors"] += 1
        return self._error(request_id, code, error)

    def _map_error(self, request_id, error: BaseException) -> dict:
        if isinstance(error, QueryTimeout):
            with self._metrics_lock:
                self._counters["timeouts"] += 1
            return self._count_error(request_id, "timeout", error)
        if isinstance(error, QueryCancelled):
            with self._metrics_lock:
                self._counters["cancelled"] += 1
            return self._count_error(request_id, "cancelled", error)
        if isinstance(error, (SqlSyntaxError, ParseError)):
            return self._count_error(request_id, "parse", error)
        if isinstance(error, (SqlExecutionError, MemoryBudgetExceeded,
                              KeyError, ValueError)):
            return self._count_error(request_id, "execution", error)
        return self._count_error(request_id, "internal",
                                 f"{type(error).__name__}: {error}")

    def stats(self) -> dict:
        """Server counters plus the cache's counter snapshot."""
        with self._metrics_lock:
            counters = dict(self._counters)
            active = self._active
        return {
            "counters": counters,
            "active": active,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "shed_prefix": self.shed_prefix,
            "tables": self.tables(),
            "cache": self.cache.stats() if self.cache is not None
            else None,
        }


class ServerHandle:
    """A running server on a background event-loop thread.

    ``stop()`` is idempotent and thread-safe: the handle registers an
    atexit hook, the CLI registers its own cleanup and the default
    worker pool registers a third -- any subset may fire in any order
    at interpreter exit without raising (the regression suite pins
    this).
    """

    def __init__(self, server: SkylineServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_lock = threading.Lock()
        self._stopped = False
        atexit.register(self.stop)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, grace: float = 5.0) -> None:
        """Drain the server and stop the loop thread (idempotent)."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            try:
                atexit.unregister(self.stop)
            except Exception:  # pragma: no cover - interpreter tear-down
                pass
            if self._loop.is_running():
                future = asyncio.run_coroutine_threadsafe(
                    self.server.stop(grace), self._loop)
                try:
                    future.result(timeout=grace + 10.0)
                except Exception:  # pragma: no cover - best-effort drain
                    pass
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if not self._loop.is_running():
                self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(server: SkylineServer, *,
                    start_timeout: float = 10.0) -> ServerHandle:
    """Run ``server`` on a fresh event loop in a daemon thread and
    return once it is accepting connections."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                await server.start()
            except BaseException as error:  # noqa: BLE001
                failure.append(error)
            finally:
                started.set()

        loop.create_task(_start())
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))

    thread = threading.Thread(target=_run, name="skyline-server",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise RuntimeError("server failed to start in time")
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return ServerHandle(server, loop, thread)
