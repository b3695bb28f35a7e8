"""The query server: protocol, differential identity, degraded answers.

The central axis here is *differential*: for every non-shed request the
server's answer must be byte-identical to what the library's
:class:`~repro.sql.PreferenceSQL` returns for the same statement -- the
server adds transport, caching and scheduling, never semantics.  The
shed path is checked against the progressive oracle: a degraded answer
must be a ``≻ext``-sorted prefix of the exact skyline.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.core.preferring import (encode_columns, evaluate_preferring,
                                   resolve_preferring)
from repro.core.relation import Relation
from repro.core.sharding import ShardedRelation
from repro.engine.compiled import compile_preference
from repro.server import (MAX_FRAME, ProtocolError, SkylineClient,
                          SkylineServer, decode_frame, encode_frame,
                          serve_in_thread)
from repro.server.service import serialize_relation
from repro.sql import PreferenceSQL

from conftest import random_expression


# -- protocol ----------------------------------------------------------------

def test_frame_round_trip():
    message = {"id": 3, "statement": "SELECT * FROM t", "timeout": 1.5}
    framed = encode_frame(message)
    (length,) = struct.unpack(">I", framed[:4])
    assert length == len(framed) - 4
    assert decode_frame(framed[4:]) == message


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError):
        decode_frame(json.dumps([1, 2, 3]).encode())
    with pytest.raises(ProtocolError):
        decode_frame(b"\xff not json")


def test_oversize_frame_rejected():
    from repro.server.protocol import check_length

    with pytest.raises(ProtocolError):
        check_length(MAX_FRAME + 1)
    assert check_length(MAX_FRAME) == MAX_FRAME


# -- result serialisation ----------------------------------------------------

def _serialize_by_cell(relation):
    """The per-cell serialiser the column-wise one replaced (oracle)."""
    from repro.server.service import _json_value

    names = list(relation.names)
    return {"columns": names,
            "rows": [[_json_value(record[name]) for name in names]
                     for record in relation.to_records()]}


def _serialised_relations():
    from repro.core.attributes import highest, lowest, ranked

    nrng = np.random.default_rng(7)
    numeric = Relation.from_array(
        nrng.integers(-3, 4, size=(40, 3)) / 2.0,
        schema=[lowest("x"), highest("y"), lowest("z")])  # -0.0 in y
    order = (float("inf"), "mid", np.float64(-np.inf), np.int64(3),
             float("nan"), None)
    categorical = Relation(
        [ranked("tier", order), lowest("price")],
        np.column_stack([np.arange(12) % len(order),
                         nrng.random(12)]))
    records = Relation.from_records(
        [{"name": f"item{i}", "cost": [1, 2.5, np.int64(4),
                                       np.float32(0.5)][i % 4],
          "tier": ["gold", "silver", float("inf")][i % 3]}
         for i in range(9)],
        [ranked("name", [f"item{i}" for i in range(9)]), lowest("cost"),
         ranked("tier", ["gold", "silver", float("inf")])])
    return {
        "numeric": numeric,
        "numeric-taken": numeric.take([5, 0, 5]),
        "categorical": categorical,
        "values": records,
        "values-projected": records.project(["tier", "cost"]),
        "empty": numeric.take([]),
        # the constructor rejects non-finite ranks; the trusted one
        # does not check them
        "non-finite-ranks": Relation._checked(
            [lowest("x"), highest("y")],
            np.array([[np.inf, 1.0], [0.0, -np.inf], [np.nan, 2.0]])),
        "no-columns": Relation.from_array(np.zeros((3, 0)), names=[]),
    }


@pytest.mark.parametrize("name", sorted(_serialised_relations()))
def test_serialize_relation_matches_per_cell_frames(name):
    relation = _serialised_relations()[name]
    assert encode_frame(serialize_relation(relation)) == \
        encode_frame(_serialize_by_cell(relation))


# -- served catalog fixture --------------------------------------------------

NAMES = ["a", "b", "c", "d"]


def _relation(rows: int = 400, seed: int = 11) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation.from_array(rng.normal(size=(rows, len(NAMES))),
                               names=NAMES)


@pytest.fixture(scope="module")
def served():
    relation = _relation()
    sharded = ShardedRelation.from_relation(_relation(seed=12), shards=3)
    server = SkylineServer(port=0)
    server.register("flat", relation)
    server.register("sharded", sharded)
    library = PreferenceSQL()
    library.register("flat", relation)
    library.register("sharded", sharded)
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            yield server, client, library


# -- operational requests ----------------------------------------------------

def test_ops(served):
    server, client, _ = served
    assert client.ping()
    assert client.tables() == ["flat", "sharded"]
    stats = client.stats()
    assert stats["tables"] == ["flat", "sharded"]
    assert "counters" in stats and "cache" in stats


def test_unknown_op_and_missing_statement(served):
    _, client, _ = served
    response = client.request({"op": "nope"}, raise_errors=False)
    assert not response["ok"]
    assert response["error"]["code"] == "protocol"
    response = client.request({"hello": 1}, raise_errors=False)
    assert not response["ok"]
    assert response["error"]["code"] == "protocol"


# -- the differential axis: server == library --------------------------------

STATEMENTS = [
    "SELECT * FROM flat PREFERRING a",
    "SELECT * FROM flat PREFERRING a & (b * c)",
    "SELECT * FROM flat PREFERRING lowest(a) * highest(b)",
    "SELECT a, c FROM flat WHERE b < 0.5 PREFERRING a & c",
    "SELECT * FROM flat PREFERRING (a & b) * (c & d) TOP 7",
    "SELECT * FROM flat WHERE a > -1 ORDER BY b ASC",
    "SELECT b FROM flat WHERE a < 0 AND c > -2 PREFERRING b TOP 3",
    "SELECT * FROM sharded PREFERRING a & b",
    "SELECT a, d FROM sharded WHERE c < 1 PREFERRING a * d TOP 5",
    "SELECT * FROM sharded PREFERRING highest(c) & lowest(d)",
]


@pytest.mark.parametrize("statement", STATEMENTS)
def test_server_matches_library(served, statement):
    _, client, library = served
    response = client.query(statement, no_cache=True)
    expected = serialize_relation(library.execute(statement))
    assert response["columns"] == expected["columns"]
    assert response["rows"] == expected["rows"]
    assert response["partial"] is False


def test_server_matches_library_random(served, rng):
    _, client, library = served
    for _ in range(8):
        count = rng.randint(1, len(NAMES))
        expression = random_expression(rng.sample(NAMES, count), rng)
        statement = f"SELECT * FROM flat PREFERRING {expression}"
        response = client.query(statement, no_cache=True)
        expected = serialize_relation(library.execute(statement))
        assert response["rows"] == expected["rows"], statement


def test_cached_answer_identical(served):
    server, client, library = served
    statement = "SELECT * FROM flat PREFERRING a & (c * d)"
    first = client.query(statement)
    second = client.query(statement)
    assert second["cached"] is True
    assert first["rows"] == second["rows"]
    assert second["rows"] == \
        serialize_relation(library.execute(statement))["rows"]
    # cached answers still report the miss's work counters
    assert second["stats"]["dominance_tests"] == \
        first["stats"]["dominance_tests"] or first["cached"]


@pytest.mark.parametrize("table", ["flat", "sharded"])
def test_cache_hit_touches_no_rows(served, monkeypatch, table):
    """The result-cache key comes from the schema alone: a hit encodes
    no columns and pins no snapshot."""
    from repro.core import preferring
    from repro.server import service
    from repro.sql import executor

    _, client, _ = served
    statement = f"SELECT * FROM {table} PREFERRING highest(b) & (a * c)"
    first = client.query(statement)
    calls = []

    def spy(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapped

    for module in (preferring, service, executor):
        if hasattr(module, "encode_columns"):
            monkeypatch.setattr(module, "encode_columns",
                                spy("encode_columns",
                                    module.encode_columns))
    monkeypatch.setattr(ShardedRelation, "snapshot",
                        spy("snapshot", ShardedRelation.snapshot))
    second = client.query(statement)
    assert second["cached"] is True
    assert second["rows"] == first["rows"]
    assert calls == []
    client.query(statement, no_cache=True)  # the spies do see a miss
    assert "encode_columns" in calls
    assert ("snapshot" in calls) == (table == "sharded")


def test_algorithm_override(served):
    _, client, library = served
    statement = "SELECT * FROM flat PREFERRING a & b"
    for algorithm in ("bnl", "sfs", "osdc"):
        response = client.query(statement, algorithm=algorithm,
                                no_cache=True)
        assert response["rows"] == \
            serialize_relation(library.execute(statement))["rows"]


# -- degraded answers under admission control --------------------------------

SHED_STATEMENTS = [
    "SELECT * FROM flat PREFERRING a * b * c",
    "SELECT * FROM flat WHERE d < 1 PREFERRING a & (b * c)",
    "SELECT a, b FROM flat PREFERRING a * b",
    "SELECT * FROM sharded PREFERRING a * b * c * d",
]


@pytest.mark.parametrize("statement", SHED_STATEMENTS)
def test_shed_answer_is_ext_sorted_skyline_prefix(served, statement):
    server, client, library = served
    server.force_shed = True
    try:
        degraded = client.query(statement, no_cache=True)
    finally:
        server.force_shed = False
    assert degraded["partial"] is True
    assert "admission control" in degraded["reason"]
    assert len(degraded["rows"]) <= server.shed_prefix

    # 1. every degraded row belongs to the exact skyline ...
    exact = client.query(statement, no_cache=True)
    assert exact["partial"] is False
    skyline = {tuple(row) for row in exact["rows"]}
    assert all(tuple(row) in skyline for row in degraded["rows"])

    # 2. ... and the degraded answer is exactly the first-k skyline
    #    members in ≻ext order (the progressive oracle): rebuild the
    #    clause's (graph, matrix) the way the engine does, rank rows by
    #    the compiled extension order, and filter to skyline members.
    query = server._parse(statement)
    relation = library.relation(query.table)
    if isinstance(relation, ShardedRelation):
        with relation.snapshot() as snapshot:
            order = np.argsort(snapshot.global_ids, kind="stable")
            base = snapshot.relation.take(order)
    else:
        base = relation
    if query.where is not None:
        mask = library._evaluate(query.where, base)
        base = base.take(np.flatnonzero(mask))
    graph, items = resolve_preferring(base, query.preferring)
    matrix = encode_columns(base, items)
    extension = compile_preference(graph).extension
    full = serialize_relation(base)["rows"]
    position_of = {tuple(row): position
                   for position, row in enumerate(full)}
    exact_skyline = evaluate_preferring(base, query.preferring)
    skyline_positions = {position_of[tuple(row)]
                         for row in
                         serialize_relation(exact_skyline)["rows"]}
    expected_positions = [
        int(p) for p in extension.argsort(matrix)
        if int(p) in skyline_positions][: len(degraded["rows"])]
    expected = base.take(np.asarray(expected_positions, dtype=np.intp))
    if query.columns is not None:
        expected = expected.project(list(query.columns))
    assert degraded["rows"] == serialize_relation(expected)["rows"]


def test_shedding_counted(served):
    server, client, _ = served
    before = server.stats()["counters"]["shed"]
    server.force_shed = True
    try:
        client.query("SELECT * FROM flat PREFERRING a & b",
                     no_cache=True)
    finally:
        server.force_shed = False
    assert server.stats()["counters"]["shed"] == before + 1


def test_non_preference_statements_not_shed(served):
    server, client, library = served
    server.force_shed = True
    try:
        statement = "SELECT * FROM flat WHERE a < 0 ORDER BY b ASC"
        response = client.query(statement, no_cache=True)
    finally:
        server.force_shed = False
    assert response["partial"] is False
    assert response["rows"] == \
        serialize_relation(library.execute(statement))["rows"]


# -- error handling ----------------------------------------------------------

def test_error_codes_and_connection_survival(served):
    _, client, _ = served
    parse = client.query("SELEKT nonsense", raise_errors=False)
    assert parse["error"]["code"] == "parse"
    missing = client.query("SELECT * FROM missing PREFERRING a",
                           raise_errors=False)
    assert missing["error"]["code"] == "execution"
    column = client.query("SELECT * FROM flat PREFERRING nosuch",
                          raise_errors=False)
    assert column["error"]["code"] in ("parse", "execution")
    # the connection survives structured errors
    assert client.ping()


def test_bad_request_fields(served):
    _, client, _ = served
    response = client.request({"statement": 17}, raise_errors=False)
    assert response["error"]["code"] == "protocol"
    response = client.request(
        {"statement": "SELECT * FROM flat", "timeout": -2},
        raise_errors=False)
    assert response["error"]["code"] == "protocol"


def test_batch_parses_each_statement_once(served, monkeypatch):
    """The server hands ``execute_batch`` the statements it parsed, so
    no statement of a batch is parsed a second time."""
    import repro.server.service as service
    import repro.sql.executor as executor

    _, client, library = served
    parsed = []
    for module in (service, executor):
        def counting(statement, _module=module.__name__,
                     _parse=module.parse_query):
            parsed.append((_module, statement))
            return _parse(statement)
        monkeypatch.setattr(module, "parse_query", counting)
    # WHERE literals no other test sends: nothing is in the parse cache
    statements = [
        "SELECT * FROM flat WHERE a < 0.3251 PREFERRING lowest(a) & b",
        "SELECT * FROM flat PREFERRING lowest(b) * lowest(c) TOP 3251",
        "SELECT * FROM flat PREFERRING lowest(c) * lowest(b) TOP 3251",
        "SELECT * FROM sharded WHERE d > 0.3251 PREFERRING a * d",
        "SELECT * FROM flat PREFERRING lowest(b) * lowest(c) TOP 3251",
    ]
    response = client.query_batch(statements, no_cache=True)
    assert parsed == [("repro.server.service", statement)
                      for statement in dict.fromkeys(statements)]
    monkeypatch.undo()
    for statement, payload in zip(statements, response["results"]):
        expected = serialize_relation(library.execute(statement))
        assert payload["rows"] == expected["rows"]


@pytest.mark.parametrize("timeout", [True, 0, -1, "1"])
@pytest.mark.parametrize("batch", [False, True])
def test_timeout_must_be_positive_seconds(served, timeout, batch):
    # a JSON true is an int to isinstance, and would run as 1 second
    _, client, _ = served
    statement = "SELECT * FROM flat PREFERRING a"
    message = {"statements": [statement]} if batch \
        else {"statement": statement}
    response = client.request(dict(message, timeout=timeout),
                              raise_errors=False)
    assert not response["ok"]
    assert response["error"]["code"] == "protocol"
    assert "timeout" in response["error"]["message"]


def test_malformed_frame_drops_connection(served):
    server, _, _ = served
    host, port = server.address
    import socket

    with socket.create_connection((host, port), timeout=5) as sock:
        payload = b"this is not json"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        sock.settimeout(5)
        assert sock.recv(1) == b""  # server closed on us
