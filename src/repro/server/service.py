"""The threaded query server.

:class:`SkylineServer` turns the library stack into a long-lived
service.  Every accepted connection gets its own thread, which reads a
request, runs it through the exact :class:`~repro.sql.PreferenceSQL`
paths the library exposes and writes the answer itself -- a request
never changes threads -- so a served answer is byte-for-byte the
library answer (the differential tests pin this).  Around that core:

* **parse once** -- statement text is parsed to a frozen AST through an
  LRU, then replayed per request via
  :meth:`~repro.sql.PreferenceSQL.execute_parsed`; the LRU entry also
  keeps the statement's part of its result-cache key, per relation;
* **deadlines and disconnects** -- each request gets an
  :class:`~repro.engine.ExecutionContext` carrying the request timeout
  and its connection's :class:`~repro.engine.context.CancellationToken`;
  one watcher thread polls every open connection for hang-up and fires
  that token, so a disconnect cancels the query mid-flight or while it
  waits for a slot (a pipelined next request stays unread in the
  socket buffer until the current answer is written);
* **result cache** -- full serialised answers in a
  :class:`~repro.server.cache.ResultCache`, keyed on relation identity
  + write version, the compiled-preference ``graph_key`` and the
  canonical query shape; :class:`~repro.core.sharding.ShardedRelation`
  write listeners invalidate proactively and every hit re-checks the
  version, so stale answers are impossible;
* **admission control** -- at most ``max_inflight`` statements run at
  once and the others wait for a slot.  When ``max_inflight +
  max_queue`` requests are already in flight (or
  :attr:`SkylineServer.force_shed` is set), a preference query is
  *shed*: instead of erroring or queueing, its connection thread
  answers at once, without a slot, with the first ``shed_prefix`` rows
  of the progressive SFS scan -- by construction a ``≻ext``-sorted
  prefix of the exact skyline -- flagged ``"partial": true`` with a
  reason.  The paper's output-sensitive, progressive evaluation model
  is what makes this degraded answer principled rather than arbitrary;
* **batch fusion** -- a ``"statements"`` request answers a whole
  correlated batch in one frame: cache hits are served per statement,
  and the misses run through
  :meth:`~repro.sql.PreferenceSQL.execute_batch`, whose fusion layer
  (:mod:`repro.core.fusion`) deduplicates canonically-equal
  preferences and evaluates each packed Better-mask block once for
  every query in the batch that needs it.
"""

from __future__ import annotations

import atexit
import select
import socket
import threading
import time
from collections import OrderedDict
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
from .protocol import ProtocolError, encode_frame, read_frame

__all__ = ["SkylineServer", "ServerHandle", "serve_in_thread"]

#: Statement-text -> parsed AST cache bound.
_PARSE_CACHE = 1024

#: Upper bound on statements per batch request.
_MAX_BATCH = 256

#: How often a request waiting for a slot re-checks its cancel token.
_QUEUE_POLL = 0.05

#: Linux reports a peer's hang-up without reading; elsewhere the watcher
#: sees readable bytes and peeks whether they are the end of the stream.
_RDHUP = getattr(select, "POLLRDHUP", 0)
_WATCH_EVENTS = _RDHUP or select.POLLIN


class _Parsed:
    """A parse-LRU entry: a statement's AST and, per relation identity
    (source id), the statement's part of its result-cache key."""

    __slots__ = ("query", "keys")

    def __init__(self, query: Query):
        self.query = query
        self.keys: dict[int, tuple] = {}


def _json_value(value: Any) -> Any:
    """A JSON-serialisable Python scalar for one cell."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _json_column(values: np.ndarray | list[Any]) -> list[Any]:
    """One column's cells as :func:`_json_value` makes them: one
    ``tolist()`` for a numeric column of finite values, a call per cell
    otherwise."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        cells = values.tolist()
        if values.dtype.kind != "f" or np.isfinite(values).all():
            return cells
        values = cells
    return [_json_value(value) for value in values]


def serialize_relation(relation: Relation) -> dict:
    """``{"columns": [...], "rows": [[...], ...]}`` for a result, built
    column by column."""
    names = list(relation.names)
    columns = [_json_column(relation.values_of(j))
               for j in range(len(names))]
    rows = [list(row) for row in zip(*columns)] if columns \
        else [[] for _ in range(len(relation))]
    return {"columns": names, "rows": rows}


def _peer_closed(sock: socket.socket) -> bool:
    """Is the stream's next byte its end?  (Never blocks.)"""
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False
    except OSError:
        return True


class _Connection:
    """One accepted socket, the thread serving it and the token its
    hang-up fires (every request on the connection runs under it)."""

    __slots__ = ("sock", "fd", "token", "thread", "paused")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.fd = sock.fileno()
        self.token = CancellationToken()
        self.thread: threading.Thread | None = None
        #: Without ``POLLRDHUP``: unread bytes paused the hang-up watch
        #: until this thread reads them.
        self.paused = False

    def send(self, response: dict) -> None:
        self.sock.sendall(encode_frame(response))

    def shutdown(self) -> None:
        """Send FIN now: a socket the watcher polls is not released by
        ``close`` until that poll returns."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer reset it first


class SkylineServer:
    """The threaded front-end over a :class:`~repro.sql.PreferenceSQL`
    catalog.

    Construct, :meth:`register` relations, then hand the server to
    :func:`serve_in_thread`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 cache: int | ResultCache | None = 256,
                 max_inflight: int = 4, max_queue: int = 8,
                 shed_prefix: int = 32,
                 default_timeout: float | None = None,
                 algorithm: str = "auto"):
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
        self._parsed: OrderedDict[str, _Parsed] = OrderedDict()
        self._parse_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.max_inflight)
        self._active = 0
        self._metrics_lock = threading.Lock()
        self._counters = {"requests": 0, "queries": 0, "hits": 0,
                          "misses": 0, "shed": 0, "errors": 0,
                          "cancelled": 0, "timeouts": 0, "batches": 0}
        self._listeners: list[tuple[ShardedRelation, Any]] = []
        self._listener: socket.socket | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._stopping = False

    # -- catalog -------------------------------------------------------------
    def register(self, name: str, relation: Relation | ShardedRelation
                 ) -> None:
        """Register a relation and, for a mutable
        :class:`~repro.core.sharding.ShardedRelation`, wire its write
        listener to the result cache's invalidation hook."""
        self.sql.register(name, relation)
        # a key part read the schema of a relation whose identity a new
        # one may take over once it is freed
        with self._parse_lock:
            for entry in self._parsed.values():
                entry.keys.clear()
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
        listener = self._listener
        if listener is None:
            raise RuntimeError("server is not listening")
        return listener.getsockname()[:2]

    def start(self) -> None:
        """Bind, then accept connections and watch them for hang-up on
        background threads (returns once listening)."""
        if self._listener is not None or self._stopping:
            raise RuntimeError("a server starts once")
        family, _, _, _, address = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        listener = socket.create_server(address, family=family,
                                        backlog=128)
        self._listener = listener
        self._wake_in, self._wake_out = socket.socketpair()
        self._wake_out.setblocking(False)
        self._accept_thread = threading.Thread(
            target=self._accept, args=(listener,), name="skyline-accept",
            daemon=True)
        self._watch_thread = threading.Thread(
            target=self._watch, name="skyline-watch", daemon=True)
        self._accept_thread.start()
        self._watch_thread.start()

    def stop(self, grace: float = 5.0) -> None:
        """Drain and stop: close the listener, give in-flight requests
        ``grace`` seconds to finish, cancel the stragglers, then close
        every connection and join every server thread."""
        with self._conn_lock:
            listener, self._listener = self._listener, None
            self._stopping = True
        if listener is not None:
            # shutdown, not close, is what wakes a blocked accept()
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
            self._accept_thread.join(timeout=10.0)
            deadline = time.monotonic() + grace
            while self._active and time.monotonic() < deadline:
                time.sleep(0.02)
            with self._conn_lock:
                connections = list(self._connections)
            for conn in connections:
                conn.token.cancel()
                conn.shutdown()
            for conn in connections:
                conn.thread.join(timeout=10.0)
            self._wake()  # the watcher sees no connections and exits
            self._watch_thread.join(timeout=10.0)
        for relation, listener in self._listeners:
            relation.remove_write_listener(listener)
        self._listeners.clear()

    def _wake(self) -> None:
        """Make the watcher re-read the connection set."""
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # a wake-up is already pending, or the server stopped

    # -- connection handling -------------------------------------------------
    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # the listener was shut down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            conn.thread = threading.Thread(
                target=self._serve, args=(conn,), name="skyline-conn",
                daemon=True)
            with self._conn_lock:
                if self._stopping:
                    sock.close()
                    return
                self._connections.add(conn)
            self._wake()
            conn.thread.start()

    def _serve(self, conn: _Connection) -> None:
        """Read, run and answer one request at a time on this thread."""
        try:
            while not self._stopping:
                message = read_frame(conn.sock)
                if message is None:
                    break
                if conn.paused:  # the bytes that paused the watch are read
                    conn.paused = False
                    self._wake()
                self._answer(message, conn)
        except (ProtocolError, OSError):
            pass  # framing broken or peer gone: drop the connection
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.shutdown()
            conn.sock.close()
            self._wake()

    def _watch(self) -> None:
        """Poll every open connection for hang-up and fire its token.

        A connection leaves the poll set at its first event, so a
        level-triggered hang-up does not spin; :meth:`_wake` makes the
        watcher re-read the set from the open connections."""
        wake = self._wake_in.fileno()
        poller = select.poll()
        poller.register(wake, select.POLLIN)
        watched: dict[int, _Connection] = {}
        while True:
            woken = False
            for fd, events in poller.poll():
                if fd == wake:
                    woken = True
                    continue
                poller.unregister(fd)
                conn = watched.pop(fd)
                if _RDHUP or events & ~select.POLLIN \
                        or _peer_closed(conn.sock):
                    conn.token.cancel()
                else:
                    conn.paused = True  # pipelined bytes, not a hang-up
            if not woken:
                continue
            self._wake_in.recv(4096)
            with self._conn_lock:
                if self._stopping and not self._connections:
                    self._wake_in.close()
                    self._wake_out.close()
                    return
                current = {conn.fd: conn for conn in self._connections
                           if not conn.paused
                           and not conn.token.cancelled}
            for fd in [fd for fd in watched if current.get(fd)
                       is not watched[fd]]:
                poller.unregister(fd)
                del watched[fd]
            for fd, conn in current.items():
                if fd not in watched:
                    poller.register(fd, _WATCH_EVENTS)
                    watched[fd] = conn

    # -- requests (connection threads) ---------------------------------------
    def _answer(self, message: dict, conn: _Connection) -> None:
        """Run one request on this thread and write its answer.

        A statement or batch counts as in flight until its answer is
        written, so :meth:`stop` never closes a connection under an
        answer it is draining."""
        request_id = message.get("id")
        with self._metrics_lock:
            self._counters["requests"] += 1
        if "op" in message:
            conn.send(self._handle_op(message, request_id))
            return
        try:
            batch, timeout, algorithm, no_cache = self._options(message)
        except ValueError as error:
            conn.send(self._error(request_id, "protocol", error))
            return
        with self._metrics_lock:
            # a shed answer takes no slot, so it never queues behind the
            # backlog it escapes; batches are never shed
            shed = not batch and (
                self.force_shed
                or self._active >= self.max_inflight + self.max_queue)
            self._active += 1
        try:
            try:
                response = self._run(message, request_id, batch, shed,
                                     timeout, algorithm, no_cache,
                                     conn.token)
            except Exception as error:  # defensive net: answer, live on
                response = self._map_error(request_id, error)
            conn.send(response)
        finally:
            with self._metrics_lock:
                self._active -= 1

    def _run(self, message: dict, request_id, batch: bool, shed: bool,
             timeout, algorithm: str, no_cache: bool,
             token: CancellationToken) -> dict:
        if shed:
            return self._run_request(message["statement"], request_id,
                                     timeout, algorithm, no_cache, True,
                                     token)
        # waiting here is the queue; a hang-up also ends the wait
        while not self._slots.acquire(timeout=_QUEUE_POLL):
            if token.cancelled:
                raise QueryCancelled(
                    "query cancelled while waiting for a slot")
        try:
            if batch:
                return self._run_batch(message["statements"], request_id,
                                       timeout, algorithm, no_cache, token)
            return self._run_request(message["statement"], request_id,
                                     timeout, algorithm, no_cache, False,
                                     token)
        finally:
            self._slots.release()

    def _options(self, message: dict) -> tuple[bool, Any, str, bool]:
        """``(batch, timeout, algorithm, no_cache)`` of a statement or
        batch request; ``ValueError`` names the malformed field."""
        batch = "statements" in message
        if batch:
            statements = message["statements"]
            if (not isinstance(statements, list) or not statements
                    or not all(isinstance(s, str) for s in statements)):
                raise ValueError(
                    "'statements' must be a non-empty list of strings")
            if len(statements) > _MAX_BATCH:
                raise ValueError(
                    f"batch too large ({len(statements)} statements; "
                    f"max {_MAX_BATCH})")
        elif "statement" not in message:
            raise ValueError("request needs a 'statement', 'statements' "
                             "or an 'op'")
        elif not isinstance(message["statement"], str):
            raise ValueError("'statement' must be a string")
        timeout = message.get("timeout", self.default_timeout)
        # bool is an int subclass: a JSON true is not one second
        if timeout is not None and (
                isinstance(timeout, bool)
                or not isinstance(timeout, (int, float))
                or not timeout > 0):
            raise ValueError("'timeout' must be positive seconds")
        return (batch, timeout, message.get("algorithm", self.algorithm),
                bool(message.get("no_cache", False)))

    def _handle_op(self, message: dict, request_id) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        if op == "tables":
            return {"id": request_id, "ok": True, "tables": self.tables()}
        if op == "stats":
            return {"id": request_id, "ok": True, "server": self.stats()}
        return self._error(request_id, "protocol", f"unknown op {op!r}")

    # -- query execution -----------------------------------------------------
    def _parse(self, statement: str) -> Query:
        return self._entry(statement).query

    def _entry(self, statement: str) -> _Parsed:
        """The parse-LRU entry of ``statement``, parsed on a miss."""
        with self._parse_lock:
            entry = self._parsed.get(statement)
            if entry is not None:
                self._parsed.move_to_end(statement)
                return entry
        entry = _Parsed(parse_query(statement))
        with self._parse_lock:
            self._parsed[statement] = entry
            self._parsed.move_to_end(statement)
            while len(self._parsed) > _PARSE_CACHE:
                self._parsed.popitem(last=False)
        return entry

    def _source(self, query: Query) -> tuple[Any, int, int]:
        relation = self.sql.relation(query.table)
        if isinstance(relation, ShardedRelation):
            return relation, id(relation), relation.version
        return relation, id(relation), 0

    def _cache_key(self, entry: _Parsed, source_id: int, relation,
                   algorithm: str):
        part = entry.keys.get(source_id)
        if part is None:
            query = entry.query
            if query.preferring is not None:
                # graph_key canonicalises the clause: two spellings of
                # the same preference share a slot.  Resolving reads
                # only the schema, so a key costs no rows and pins no
                # snapshot
                graph, _ = resolve_preferring(relation, query.preferring)
                preference = graph_key(graph)
            else:
                preference = None
            part = (preference, query.columns, repr(query.where),
                    query.order_by, query.top)
            entry.keys[source_id] = part
        return (source_id, part, algorithm)

    def _run_request(self, statement: str, request_id, timeout,
                     algorithm: str, no_cache: bool, shed: bool,
                     token: CancellationToken) -> dict:
        started = time.perf_counter()
        try:
            entry = self._entry(statement)
        except (SqlSyntaxError, ParseError, ValueError) as error:
            return self._count_error(request_id, "parse", error)
        query = entry.query
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
                key = self._cache_key(entry, source_id, relation, algorithm)
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
        started = time.perf_counter()
        responses: list[dict | None] = [None] * len(statements)
        queries: list[Query] = []
        misses: list[int] = []
        puts: dict[int, tuple[Any, int]] = {}
        use_cache = self.cache is not None and not no_cache
        for index, statement in enumerate(statements):
            try:
                entry = self._entry(statement)
                query = entry.query
                relation, source_id, version = self._source(query)
            except Exception as error:
                mapped = self._map_error(request_id, error)
                mapped["failed_statement"] = index
                mapped["results"] = responses
                return mapped
            queries.append(query)
            if use_cache:
                try:
                    key = self._cache_key(entry, source_id, relation,
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
                # the parsed statements: execute_batch parses none again
                results = self.sql.execute_batch(
                    [queries[i] for i in misses],
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
             "reason": ("admission control: request backlog at "
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
    """A running server, serving on its own background threads.

    ``stop()`` is idempotent and thread-safe: the handle registers an
    atexit hook, the CLI registers its own cleanup and the default
    worker pool registers a third -- any subset may fire in any order
    at interpreter exit without raising (the regression suite pins
    this).
    """

    def __init__(self, server: SkylineServer):
        self.server = server
        self._stop_lock = threading.Lock()
        self._stopped = False
        atexit.register(self.stop)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, grace: float = 5.0) -> None:
        """Drain and stop the server (idempotent)."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            try:
                atexit.unregister(self.stop)
            except Exception:  # pragma: no cover - interpreter tear-down
                pass
            self.server.stop(grace)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(server: SkylineServer) -> ServerHandle:
    """Start ``server`` on background threads and return once it is
    accepting connections."""
    server.start()
    return ServerHandle(server)
