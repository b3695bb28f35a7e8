"""Preference SQL with ``algorithm="auto"``: in process, fused and served.

``auto`` plans each ``PREFERRING`` clause the way ``p_skyline`` does
(weak orders of two or more layers go to ``layered``), so its answers
must be ``osdc``'s, byte for byte once served.
"""

import numpy as np
import pytest

from repro.algorithms import Stats
from repro.core.relation import Relation
from repro.server import SkylineClient, SkylineServer, serve_in_thread
from repro.server.loadgen import correlated_statements
from repro.server.service import serialize_relation
from repro.sql import PreferenceSQL

NAMES = ["a", "b", "c", "d", "e"]


def _relation(rows: int = 1500, seed: int = 5) -> Relation:
    # few distinct values: heavy ties on every layer
    rng = np.random.default_rng(seed)
    return Relation.from_array(
        rng.integers(0, 4, size=(rows, len(NAMES))).astype(float),
        names=NAMES)


def _statements(count: int = 60) -> list[str]:
    """A correlated stream with WHERE and TOP clauses; every fifth
    statement without TOP also orders its answer."""
    statements = correlated_statements(NAMES, count, table="t", seed=3,
                                       intents=8, where_fraction=0.3,
                                       top_fraction=0.3,
                                       pareto_fraction=0.1)
    return [f"{statement} ORDER BY {NAMES[index % len(NAMES)]} DESC"
            if index % 5 == 0 and " TOP " not in statement else statement
            for index, statement in enumerate(statements)]


@pytest.fixture(scope="module")
def library():
    sql = PreferenceSQL()
    sql.register("t", _relation())
    return sql


@pytest.fixture(scope="module")
def served(library):
    server = SkylineServer(port=0)
    server.register("t", library.relation("t"))
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            yield server, client


def _answer(relation: Relation) -> dict:
    payload = serialize_relation(relation)
    return {"columns": payload["columns"], "rows": payload["rows"]}


def test_the_stream_covers_every_clause_and_plans_layered(library):
    statements = _statements()
    assert any(" WHERE " in s for s in statements)
    assert any(" TOP " in s for s in statements)
    assert any(" ORDER BY " in s for s in statements)
    plans = set()
    for statement in statements:
        stats = Stats()
        library.execute(statement, algorithm="auto", stats=stats)
        plans.add(stats.extra["plan"]["algorithm"])
    assert "layered" in plans and "osdc" in plans


def test_in_process_auto_equals_osdc(library):
    for statement in _statements():
        assert _answer(library.execute(statement, algorithm="auto")) == \
            _answer(library.execute(statement, algorithm="osdc")), statement


@pytest.mark.parametrize("fuse", [True, False])
def test_batch_auto_equals_osdc(library, fuse):
    statements = _statements()
    got = library.execute_batch(statements, algorithm="auto", fuse=fuse)
    for statement, result in zip(statements, got):
        assert _answer(result) == \
            _answer(library.execute(statement, algorithm="osdc")), statement


def test_server_default_is_auto():
    assert SkylineServer().algorithm == "auto"


def test_served_singles_and_batch_equal_osdc(served, library):
    _server, client = served
    statements = _statements()
    for statement in statements:
        response = client.query(statement)
        assert {"columns": response["columns"],
                "rows": response["rows"]} == \
            _answer(library.execute(statement, algorithm="osdc")), statement
    response = client.query_batch(statements, no_cache=True)
    for statement, payload in zip(statements, response["results"]):
        assert {"columns": payload["columns"],
                "rows": payload["rows"]} == \
            _answer(library.execute(statement, algorithm="osdc")), statement


def test_auto_and_osdc_never_share_a_cache_slot(library):
    server = SkylineServer(port=0)
    server.register("t", library.relation("t"))
    statement = "SELECT * FROM t PREFERRING a & (b * c) TOP 5"
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            first = client.query(statement)
            other = client.query(statement, algorithm="osdc")
            assert first["cached"] is False and other["cached"] is False
            assert client.query(statement, algorithm="auto")["cached"]
            assert client.query(statement, algorithm="osdc")["cached"]
            assert first["rows"] == other["rows"]
    assert len(server.cache) == 2


def test_cache_hits_and_misses_give_identical_frames(library):
    """A hit reads the key part the miss stored in the parse LRU; the
    answer it frames is the miss's, byte for byte."""
    from repro.server.protocol import encode_frame

    server = SkylineServer(port=0)
    server.register("t", library.relation("t"))
    volatile = ("id", "cached", "elapsed_ms")
    with serve_in_thread(server) as handle:
        with SkylineClient(handle.address) as client:
            for statement in dict.fromkeys(_statements(20)):
                miss = client.query(statement)
                hit = client.query(statement)
                assert miss["cached"] is False and hit["cached"] is True
                assert encode_frame({k: v for k, v in miss.items()
                                     if k not in volatile}) == \
                    encode_frame({k: v for k, v in hit.items()
                                  if k not in volatile})
            # registering again drops every stored key part
            server.register("t", _relation(seed=6))
            assert all(not entry.keys
                       for entry in server._parsed.values())
