"""Server lifecycle: drain, disconnect-cancel, deadlines, pool teardown.

The three robustness properties a long-lived service must pin:

* shutdown drains in-flight queries and leaks no shared-memory
  segments (the ``pool_segments`` check from ``conftest``);
* a client that disconnects mid-query cancels that query through the
  shared :class:`~repro.engine.context.CancellationToken` instead of
  burning its connection thread to completion;
* a request that exceeds its deadline gets a *structured* timeout
  error and the connection stays usable.

The ``WorkerPool`` teardown-ordering regressions live here too: with a
server handle, the pool's own atexit hook and explicit
``shutdown_default_pool`` calls all racing at interpreter exit, close
must be idempotent and thread-safe, and an in-flight pooled query must
fail with ``QueryCancelled`` -- not a worker-death error -- when the
pool closes under it.
"""

from __future__ import annotations

import select
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.relation import Relation
from repro.data import anticorrelated
from repro.engine.errors import QueryCancelled
from repro.engine.pool import WorkerPool, pool_available
from repro.server import SkylineClient, SkylineServer, serve_in_thread

from conftest import pool_segments

NAMES = list("abcde")
SLOW_STATEMENT = "SELECT * FROM slow PREFERRING a * b * c * d * e"


def _slow_relation(rows: int = 16_000) -> Relation:
    """Anticorrelated data whose Pareto skyline is huge: BNL takes a
    couple of seconds, which is an eternity for a cancellation."""
    rng = np.random.default_rng(3)
    return Relation.from_array(anticorrelated(rows, len(NAMES), rng),
                               names=NAMES)


@pytest.fixture(scope="module")
def slow_served():
    server = SkylineServer(port=0, algorithm="bnl", max_inflight=2)
    server.register("slow", _slow_relation())
    with serve_in_thread(server) as handle:
        yield server, handle


# -- deadlines ---------------------------------------------------------------

def test_deadline_returns_structured_timeout(slow_served):
    _, handle = slow_served
    with SkylineClient(handle.address) as client:
        started = time.monotonic()
        response = client.query(SLOW_STATEMENT, timeout=0.05,
                                no_cache=True, raise_errors=False)
        elapsed = time.monotonic() - started
        assert not response["ok"]
        assert response["error"]["code"] == "timeout"
        assert elapsed < 5.0  # did not run to completion
        # the connection survives the timeout
        assert client.ping()


def test_server_default_timeout():
    server = SkylineServer(port=0, algorithm="bnl",
                           default_timeout=0.05)
    server.register("slow", _slow_relation(8_000))
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            response = client.query(SLOW_STATEMENT, no_cache=True,
                                    raise_errors=False)
            assert response["error"]["code"] == "timeout"


# -- disconnect cancels ------------------------------------------------------

def test_client_disconnect_cancels_query(slow_served):
    server, handle = slow_served
    before = server.stats()["counters"]["cancelled"]
    client = SkylineClient(handle.address)
    client.send_only({"statement": SLOW_STATEMENT, "no_cache": True})
    time.sleep(0.3)  # the query is now running on its connection thread
    client.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server.stats()["counters"]["cancelled"] > before:
            break
        time.sleep(0.05)
    assert server.stats()["counters"]["cancelled"] > before


def test_pipelined_request_not_lost(slow_served):
    """Bytes arriving while a query runs are the *next* request, not a
    disconnect: they must be buffered and answered in order."""
    _, handle = slow_served
    with SkylineClient(handle.address) as client:
        client.send_only({"id": 1, "statement": SLOW_STATEMENT,
                          "timeout": 0.2, "no_cache": True})
        client.send_only({"id": 2, "op": "ping"})
        from repro.server.protocol import read_frame

        first = read_frame(client._sock)
        second = read_frame(client._sock)
        assert first["id"] == 1 and not first["ok"]
        assert second["id"] == 2 and second["pong"]


def _wait_for_cancel(server, before: int, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if server.stats()["counters"]["cancelled"] > before:
            return True
        time.sleep(0.02)
    return False


def _wait_for_active(server, count: int, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while server.stats()["active"] != count \
            and time.monotonic() < deadline:
        time.sleep(0.01)


def test_hangup_cancels_a_queued_request():
    """With the only slot busy, a second client's request waits; its
    hang-up cancels it in the queue, long before the slot frees up."""
    server = SkylineServer(port=0, algorithm="bnl", max_inflight=1)
    server.register("slow", _slow_relation(10_000))
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as busy:
            busy.send_only({"statement": SLOW_STATEMENT, "no_cache": True})
            _wait_for_active(server, 1)  # the busy query takes the slot
            queued = SkylineClient(handle.address)
            queued.send_only({"statement": SLOW_STATEMENT,
                              "no_cache": True})
            _wait_for_active(server, 2)
            assert server.stats()["active"] == 2
            before = server.stats()["counters"]["cancelled"]
            started = time.monotonic()
            queued.close()
            assert _wait_for_cancel(server, before)
            assert time.monotonic() - started < 1.0
            # cancelled while the busy query still held the slot; the
            # cancelled request counts as in flight until its (unread)
            # answer is written, which may trail the cancel counter
            _wait_for_active(server, 1)
            assert server.stats()["active"] == 1
            from repro.server.protocol import read_frame

            assert read_frame(busy._sock)["ok"]
            # the queued query never ran: only the busy one counts
            assert server.stats()["counters"]["queries"] == 1


@pytest.mark.skipif(not hasattr(select, "POLLRDHUP"),
                    reason="without POLLRDHUP pipelined bytes pause the "
                           "hang-up watch until the request ends")
def test_hangup_behind_a_pipelined_request_still_cancels(slow_served):
    server, handle = slow_served
    before = server.stats()["counters"]["cancelled"]
    client = SkylineClient(handle.address)
    client.send_only({"statement": SLOW_STATEMENT, "no_cache": True})
    client.send_only({"op": "ping"})
    time.sleep(0.3)  # the slow query runs; the ping waits unread
    client.close()
    assert _wait_for_cancel(server, before)


# -- drain on shutdown -------------------------------------------------------

def test_stop_drains_inflight_queries():
    server = SkylineServer(port=0, max_inflight=2)
    server.register("slow", _slow_relation(6_000))
    handle = serve_in_thread(server)
    with SkylineClient(handle.address,
                       socket_timeout=30.0) as client:
        client.send_only({"statement": SLOW_STATEMENT,
                          "algorithm": "sfs", "no_cache": True})
        time.sleep(0.2)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        from repro.server.protocol import read_frame

        response = read_frame(client._sock)
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        # the in-flight query completed (drained), successfully
        assert response is not None and response["ok"]
    handle.stop()  # idempotent


def test_stop_leaks_nothing():
    """An idle and a busy client: ``stop`` cancels the busy query after
    the grace period, closes the idle connection and joins every server
    thread."""
    existing = set(threading.enumerate())
    server = SkylineServer(port=0, algorithm="bnl")
    server.register("slow", _slow_relation())
    handle = serve_in_thread(server)
    idle = SkylineClient(handle.address)
    busy = SkylineClient(handle.address)
    try:
        assert idle.ping()
        busy.send_only({"statement": SLOW_STATEMENT, "no_cache": True})
        time.sleep(0.2)
        started = time.monotonic()
        handle.stop(grace=0.5)
        assert time.monotonic() - started < 0.5 + 3.0
        idle._sock.settimeout(5)
        assert idle._sock.recv(1) == b""
        left = [thread.name for thread in threading.enumerate()
                if thread not in existing
                and thread.name.startswith("skyline-")]
        assert left == []
    finally:
        idle.close()
        busy.close()


def test_concurrent_clients_keep_the_counts():
    """More clients than slots and cores, with rapid thread switches:
    every answer is right and the in-flight count returns to zero."""
    rng = np.random.default_rng(5)
    relation = Relation.from_array(rng.normal(size=(2_000, 3)),
                                   names=list("abc"))
    server = SkylineServer(port=0, max_inflight=2, max_queue=64)
    server.register("t", relation)
    statements = ["SELECT * FROM t PREFERRING a & b",
                  "SELECT * FROM t PREFERRING a * (b & c)",
                  "SELECT a FROM t PREFERRING c TOP 3"]
    from repro.server.service import serialize_relation
    from repro.sql import PreferenceSQL

    library = PreferenceSQL()
    library.register("t", relation)
    expected = {statement: serialize_relation(
        library.execute(statement))["rows"] for statement in statements}
    wrong: list[str] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serve_in_thread(server) as handle:
            def client_loop(index: int) -> None:
                with SkylineClient(handle.address) as client:
                    for round_ in range(12):
                        statement = statements[(index + round_) % 3]
                        response = client.query(
                            statement, no_cache=round_ % 2 == 0)
                        if response["rows"] != expected[statement]:
                            wrong.append(statement)

            threads = [threading.Thread(target=client_loop, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    stats = server.stats()  # after the drain in stop()
    assert wrong == []
    assert stats["active"] == 0
    assert stats["counters"]["queries"] == 6 * 12
    assert stats["counters"]["errors"] == 0


@pytest.mark.skipif(not pool_available(), reason="needs multiprocessing")
def test_pooled_serving_leaks_no_segments():
    from repro.engine.pool import shutdown_default_pool

    server = SkylineServer(port=0)
    rng = np.random.default_rng(9)
    server.register("t", Relation.from_array(
        rng.normal(size=(4_000, 3)), names=list("abc")))
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            response = client.query(
                "SELECT * FROM t PREFERRING a & (b * c)",
                algorithm="parallel-osdc", no_cache=True)
            assert response["ok"]
    shutdown_default_pool()
    assert pool_segments() == []


# -- WorkerPool teardown regressions -----------------------------------------

@pytest.mark.skipif(not pool_available(), reason="needs multiprocessing")
def test_pool_close_is_thread_safe():
    pool = WorkerPool(2)
    errors: list[BaseException] = []

    def closer() -> None:
        try:
            pool.close()
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=closer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert pool.closed
    assert pool.live_segments() == ()
    assert pool_segments() == []


@pytest.mark.skipif(not pool_available(), reason="needs multiprocessing")
def test_pool_close_cancels_inflight_query():
    from repro.core.parser import parse
    from repro.core.pgraph import PGraph

    pool = WorkerPool(2)
    graph = PGraph.from_expression(parse("A0 & A1"))
    ranks = np.random.default_rng(0).normal(size=(300_000, 2))
    seen: list[BaseException] = []

    def runner() -> None:
        try:
            while True:
                pool.run_query(ranks, graph, chunks=8)
        except BaseException as error:  # noqa: BLE001
            seen.append(error)

    thread = threading.Thread(target=runner)
    thread.start()
    time.sleep(0.4)
    pool.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen
    error = seen[0]
    # the clean outcomes are QueryCancelled (mid-query) or a plain
    # "pool is closed" (between queries) -- never a worker-death error
    assert "died" not in str(error), error
    assert isinstance(error, QueryCancelled) or \
        "closed" in str(error), error
    assert pool_segments() == []


_EXIT_SCRIPT = r"""
import sys
import numpy as np
from repro.core.relation import Relation
from repro.engine.pool import get_default_pool, shutdown_default_pool
from repro.server import SkylineServer, SkylineClient, serve_in_thread

server = SkylineServer(port=0)
rng = np.random.default_rng(1)
server.register("t", Relation.from_array(rng.normal(size=(2000, 3)),
                                         names=list("abc")))
handle = serve_in_thread(server)
with SkylineClient(handle.address) as client:
    response = client.query("SELECT * FROM t PREFERRING a & b",
                            algorithm="parallel-osdc")
    assert response["ok"]
pool = get_default_pool()
# Pile up the cleanup layers the way a sloppy embedder would: explicit
# shutdown AND the pool atexit hook AND the server handle atexit hook.
shutdown_default_pool()
pool.close()
print("CLEAN-EXIT-SENTINEL")
# exit WITHOUT calling handle.stop(): the atexit hooks must cope
"""


@pytest.mark.skipif(not pool_available(), reason="needs multiprocessing")
def test_interpreter_exit_with_server_and_pool_is_clean():
    """Satellite regression: with both the server and the pool holding
    atexit cleanup, interpreter exit must not raise (double-close)."""
    result = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "CLEAN-EXIT-SENTINEL" in result.stdout
    assert "Traceback" not in result.stderr, result.stderr


def test_server_handle_stop_idempotent_and_concurrent():
    server = SkylineServer(port=0)
    rng = np.random.default_rng(2)
    server.register("t", Relation.from_array(rng.normal(size=(100, 2)),
                                             names=["a", "b"]))
    handle = serve_in_thread(server)
    address = handle.address
    with SkylineClient(address) as client:
        assert client.ping()
    threads = [threading.Thread(target=handle.stop) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    handle.stop()  # and once more, for good measure
    # the listener is gone
    with pytest.raises(OSError):
        socket.create_connection(address, timeout=0.5)


def test_protocol_oversize_header_drops_connection():
    server = SkylineServer(port=0)
    rng = np.random.default_rng(4)
    server.register("t", Relation.from_array(rng.normal(size=(10, 2)),
                                             names=["a", "b"]))
    with serve_in_thread(server) as handle:
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 2 ** 31))
            sock.settimeout(5)
            assert sock.recv(1) == b""
        # and the server still accepts fresh connections
        with SkylineClient(handle.address) as client:
            assert client.ping()
