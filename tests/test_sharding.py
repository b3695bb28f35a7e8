"""Tests for sharded, MVCC-versioned relations (core.sharding)."""

import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import pool_segments, random_expression
from repro import (Relation, highest, lowest, p_skyline, p_skyline_batch,
                   ranked)
from repro.algorithms.base import Stats
from repro.algorithms.incremental import PSkylineMaintainer
from repro.algorithms.osdc import osdc
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.core.sharding import (ShardMap, ShardedRelation,
                                 sharded_pskyline)
from repro.engine import ExecutionContext, WorkerPool
from repro.engine import pool as pool_module
from repro.engine.pool import get_default_pool, shutdown_default_pool
from repro.planner import Planner
from repro.sql import PreferenceSQL


def _graph(expression: str, d: int) -> PGraph:
    return PGraph.from_expression(parse(expression),
                                  names=[f"A{i}" for i in range(d)])


class TestShardMap:
    def test_hash_routing_is_deterministic(self, nrng):
        shard_map = ShardMap.hashed(5)
        block = nrng.normal(size=(64, 3))
        routed = shard_map.shard_of_block(block)
        assert routed.shape == (64,)
        assert ((routed >= 0) & (routed < 5)).all()
        # row-at-a-time and block routing agree, and repeat exactly
        for row, shard in zip(block, routed):
            assert shard_map.shard_of(row) == shard
        assert np.array_equal(shard_map.shard_of_block(block), routed)

    def test_negative_zero_routes_like_zero(self):
        shard_map = ShardMap.hashed(7)
        assert shard_map.shard_of(np.array([-0.0, 1.0])) == \
            shard_map.shard_of(np.array([0.0, 1.0]))

    def test_range_routing_follows_boundaries(self):
        shard_map = ShardMap.ranged(3, 0, [0.0, 10.0])
        assert shard_map.shard_of(np.array([-5.0, 99.0])) == 0
        assert shard_map.shard_of(np.array([5.0, 99.0])) == 1
        assert shard_map.shard_of(np.array([50.0, 99.0])) == 2
        block = np.array([[-1.0, 0.0], [0.5, 0.0], [11.0, 0.0]])
        assert shard_map.shard_of_block(block).tolist() == [0, 1, 2]

    def test_invalid_maps_are_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(2, "modulo")
        with pytest.raises(ValueError):
            ShardMap(3, "range", boundaries=[2.0, 1.0])
        with pytest.raises(ValueError):
            ShardMap(3, "range")


def _routing_block(rows: int, d: int = 5, seed: int = 2015) -> np.ndarray:
    """Seeded ranks holding the values a router must hash exactly:
    subnormals, +-1e308 and signed zeros -- every odd row repeats the
    even row before it with each zero negated."""
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, d))
    special = rng.choice(np.array([0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
                         size=(rows, d))
    block = np.where(rng.random((rows, d)) < 0.25, special, block)
    block[1::2] = np.where(block[::2] == 0.0, -0.0, block[::2])
    return block


#: ``ShardMap.hashed(4)`` of ``_routing_block(5000)[:32]``, recorded from
#: the per-row router (one ``zlib.crc32`` call per row)
GOLDEN_HASHED_4 = [2, 2, 3, 3, 3, 3, 3, 3, 1, 1, 3, 3, 0, 0, 0, 0,
                   3, 3, 2, 2, 2, 2, 3, 3, 3, 3, 1, 1, 3, 3, 3, 3]


class TestBlockRouting:
    """``shard_of_block`` routes a whole block in one pass; every row
    must land where the single-row ``shard_of`` puts it."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_block_routing_equals_row_routing(self, shards):
        block = _routing_block(5000)
        assert np.signbit(block[1::2][block[1::2] == 0.0]).all()
        shard_map = ShardMap.hashed(shards)
        expected = [shard_map.shard_of(row) for row in block]
        assert shard_map.shard_of_block(block).tolist() == expected
        assert shard_map.shard_of_block(
            np.asfortranarray(block)).tolist() == expected

    def test_integer_and_empty_blocks(self):
        shard_map = ShardMap.hashed(7)
        ints = np.random.default_rng(3).integers(-10**6, 10**6,
                                                 size=(500, 4))
        assert shard_map.shard_of_block(ints).tolist() == \
            [shard_map.shard_of(row) for row in ints]
        empty = shard_map.shard_of_block(np.empty((0, 5)))
        assert empty.shape == (0,) and empty.dtype == np.intp

    def test_signed_zero_rows_share_a_shard(self):
        routed = ShardMap.hashed(7).shard_of_block(_routing_block(5000))
        assert np.array_equal(routed[0::2], routed[1::2])

    def test_golden_shard_ids(self):
        routed = ShardMap.hashed(4).shard_of_block(_routing_block(5000))
        assert routed[:32].tolist() == GOLDEN_HASHED_4

    def test_bulk_loaded_id_maps_are_intp_arrays(self):
        ranks = np.random.default_rng(5).normal(size=(10_000, 3))
        relation = ShardedRelation.from_array(ranks, shards=4)
        assert relation._gid_count == 10_000
        shard_of = relation._gid_shard[:10_000]
        slot_of = relation._gid_slot[:10_000]
        assert shard_of.dtype == slot_of.dtype == np.intp
        assert np.array_equal(shard_of,
                              ShardMap.hashed(4).shard_of_block(ranks))
        for shard_index, shard in enumerate(relation._shards):
            mine = np.flatnonzero(shard_of == shard_index)
            assert np.array_equal(slot_of[mine], np.arange(mine.size))
            assert np.array_equal(shard.gids[: shard.size], mine)
        sampled = np.random.default_rng(6).choice(10_000, 40, replace=False)
        for gid in sampled.tolist():
            assert gid in relation
            relation.delete(gid)
            assert gid not in relation
        assert len(relation) == 10_000 - 40


class TestShardedPSkyline:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_equals_monolithic_osdc(self, nrng, shards):
        ranks = nrng.normal(size=(400, 4))
        graph = _graph("(A0 & A1) * (A2 & A3)", 4)
        expected = osdc(ranks, graph)
        got = sharded_pskyline(ranks, graph, shards=shards)
        assert np.array_equal(got, expected)

    def test_random_expressions(self, nrng, rng):
        names = [f"A{i}" for i in range(5)]
        for _ in range(10):
            graph = PGraph.from_expression(
                random_expression(names, rng), names=names)
            ranks = nrng.integers(0, 8, size=(120, 5)).astype(float)
            assert np.array_equal(
                sharded_pskyline(ranks, graph, shards=3),
                osdc(ranks, graph))

    def test_range_shard_map(self, nrng):
        ranks = nrng.normal(size=(300, 3))
        graph = _graph("A0 * A1 * A2", 3)
        shard_map = ShardMap.ranged(4, 1, [-0.5, 0.0, 0.5])
        assert np.array_equal(
            sharded_pskyline(ranks, graph, shard_map=shard_map),
            osdc(ranks, graph))


class TestShardedRelation:
    def test_roundtrip_and_version_bumps(self):
        relation = ShardedRelation.from_records(
            [{"price": 3.0, "hp": 100.0}, {"price": 2.0, "hp": 90.0}],
            [lowest("price"), highest("hp")], shards=2)
        assert relation.names == ("price", "hp")
        assert len(relation) == 2
        assert relation.version == 1  # one bulk load
        gid = relation.insert({"price": 1.0, "hp": 120.0})
        assert relation.version == 2
        relation.delete(gid)
        assert relation.version == 3
        assert gid not in relation

    def test_insert_validation(self):
        relation = ShardedRelation.from_records(
            [{"a": 1.0, "b": 2.0}], [lowest("a"), lowest("b")],
            shards=2)
        with pytest.raises(ValueError, match="missing attribute"):
            relation.insert({"a": 1.0})
        with pytest.raises(ValueError, match="non-finite"):
            relation.insert_ranks([1.0, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            relation.insert_ranks([1.0, float("inf")])
        with pytest.raises(KeyError):
            relation.delete(99)

    def test_tracked_serve_tracks_churn(self, nrng, rng):
        ranks = nrng.integers(0, 12, size=(80, 3)).astype(float)
        graph = _graph("A0 * (A1 & A2)", 3)
        relation = ShardedRelation.from_array(
            ranks, names=["A0", "A1", "A2"], shards=3)
        relation.track(graph)
        rows = {gid: row for gid, row in enumerate(ranks)}
        for _ in range(60):
            if rows and rng.random() < 0.4:
                victim = rng.choice(sorted(rows))
                relation.delete(victim)
                del rows[victim]
            else:
                row = nrng.integers(0, 12, size=3).astype(float)
                rows[relation.insert_ranks(row)] = row
            alive = sorted(rows)
            expected = np.asarray(alive, dtype=np.intp)[
                np.sort(osdc(np.array([rows[i] for i in alive]), graph))]
            assert np.array_equal(relation.skyline_gids(graph),
                                  np.sort(expected))

    def test_track_after_writes_replays_existing_rows(self, nrng):
        ranks = nrng.normal(size=(50, 2))
        relation = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                              shards=2)
        relation.delete(3)
        relation.insert_ranks([-9.0, -9.0])
        graph = relation.track("A0 & A1")
        alive_rows = np.vstack([np.delete(ranks, 3, axis=0),
                                [[-9.0, -9.0]]])
        alive_gids = np.array([g for g in range(51) if g != 3])
        expected = np.sort(alive_gids[osdc(alive_rows, graph)])
        assert np.array_equal(relation.skyline_gids(graph), expected)

    def test_bulk_load_equals_sequential_inserts(self, nrng):
        graph = _graph("A0 * (A1 & A2)", 3)
        block = nrng.normal(size=(150, 3))
        names = ["A0", "A1", "A2"]
        bulk = ShardedRelation.from_array(block, names=names, shards=4)
        bulk.track(graph)
        sequential = ShardedRelation.from_array(block[:0], names=names,
                                                shards=4)
        sequential.track(graph)
        assert [sequential.insert_ranks(row) for row in block] == \
            list(range(150))
        assert bulk.shard_sizes() == sequential.shard_sizes()
        assert np.array_equal(bulk.skyline_gids(graph),
                              sequential.skyline_gids(graph))
        assert np.array_equal(bulk.skyline_gids(graph),
                              np.sort(osdc(block, graph)))

    def test_deleting_a_skyline_member_matches_the_flat_maintainer(
            self, nrng):
        graph = _graph("(A0 & A1) * A2", 3)
        block = nrng.normal(size=(100, 3))
        flat = PSkylineMaintainer(graph)
        relation = ShardedRelation.from_array(
            block[:0], names=["A0", "A1", "A2"], shards=3)
        relation.track(graph)
        for row in block:
            flat.insert(row)
            relation.insert_ranks(row)
        assert np.array_equal(flat.skyline_ids(),
                              relation.skyline_gids(graph))
        for _ in range(3):  # a deleted member may promote shadowed rows
            victim = int(flat.skyline_ids()[0])
            flat.delete(victim)
            relation.delete(victim)
            assert np.array_equal(flat.skyline_ids(),
                                  relation.skyline_gids(graph))

    def test_range_partitioning_from_quantiles(self, nrng):
        ranks = nrng.normal(size=(200, 2))
        relation = ShardedRelation.from_array(
            ranks, names=["A0", "A1"], shards=4, partition="range",
            column="A0")
        assert relation.shard_map.kind == "range"
        with relation.snapshot() as snapshot:
            sizes = [len(pin) for pin in snapshot.pins]
        assert sum(sizes) == 200
        assert min(sizes) > 0  # quantile cuts balance the load
        result = relation.p_skyline("A0 & A1", algorithm="osdc")
        expected = osdc(ranks, _graph("A0 & A1", 2))
        assert np.array_equal(result.ranks, ranks[np.sort(expected)])


class TestRecordEncoding:
    """``insert`` encodes a record in one pass; ranks and errors equal
    ``Attribute.encode`` run one attribute at a time."""

    SCHEMA = [lowest("price"), highest("hp"),
              ranked("color", ["red", "green", "blue"]), highest("age")]

    @classmethod
    def per_attribute(cls, row) -> np.ndarray:
        return np.array([attribute.encode([value])[0]
                         for attribute, value in zip(cls.SCHEMA, row)],
                        dtype=np.float64)

    def relation(self) -> ShardedRelation:
        return ShardedRelation(self.SCHEMA, shards=2, store_values=True)

    def test_ranks_equal_the_per_attribute_encoding(self):
        relation = self.relation()
        rows = [[3.0, 100.0, "green", 4], [-0.0, -0.0, "red", 0.0],
                [2, 7, "blue", -1.5], [1e300, -1e300, "red", True],
                [np.float32(2.5), np.int64(9), "blue", "3.5"]]
        gids = [relation.insert(row) for row in rows]
        gids.append(relation.insert(dict(zip(relation.names, rows[0]))))
        rows.append(rows[0])
        with relation.snapshot() as snap:
            stored = snap.take_gids(gids).ranks
        expected = np.array([self.per_attribute(row) for row in rows])
        assert stored.tobytes() == expected.tobytes()  # -0.0 included

    @pytest.mark.parametrize("row", [
        [np.nan, 1.0, "red", 1.0],             # NaN, MIN
        [1.0, float("nan"), "red", 1.0],       # NaN, MAX
        [None, 1.0, "red", 1.0],               # None encodes to NaN
        [1.0, "fast", "red", 1.0],             # not a number
        [1.0, 1.0, "purple", 1.0],             # outside the ranked order
        [1.0, 1.0, ["red"], 1.0],              # unhashable ranked value
        [[1.0], 1.0, "red", 1.0],              # not a scalar
        [[1.0], [2.0], ["red"], [3.0]],        # every value a list
        [np.nan, 1.0, "purple", np.nan],       # the first error wins
        [1.0, 1.0, "purple", np.nan],
    ])
    def test_errors_equal_the_per_attribute_encoding(self, row):
        with pytest.raises(Exception) as expected:
            self.per_attribute(row)
        relation = self.relation()
        for record in (row, dict(zip(relation.names, row))):
            with pytest.raises(type(expected.value),
                               match=re.escape(str(expected.value))):
                relation.insert(record)
        assert len(relation) == 0 and relation.version == 0

    def test_shape_errors_keep_their_messages(self):
        relation = self.relation()
        with pytest.raises(ValueError, match="arity 3 does not match"):
            relation.insert([1.0, 1.0, "red"])
        with pytest.raises(ValueError, match="missing attribute 'age'"):
            relation.insert({"price": 1.0, "hp": 1.0, "color": "red"})
        with pytest.raises(ValueError, match="non-finite"):
            relation.insert([np.inf, 1.0, "red", 1.0])
        assert len(relation) == 0 and relation.version == 0


def _assert_kept_skylines(relation: ShardedRelation, step=None) -> None:
    """Every tracked maintainer's alive ids are its shard's alive slots
    and its kept skyline (ids and rows) is ``osdc`` of their rows."""
    for tracked in relation._tracked.values():
        for shard, maintainer in zip(relation._shards,
                                     tracked.maintainers):
            slots = np.flatnonzero(shard.alive[: shard.size])
            assert np.array_equal(maintainer.alive_ids(), slots), step
            rows = shard.ranks[slots][:, tracked.columns]
            expected = np.sort(slots[osdc(rows, tracked.graph)]) \
                if slots.size else slots
            assert np.array_equal(maintainer.skyline_ids(), expected), step
            assert np.array_equal(maintainer.skyline_ranks(),
                                  shard.ranks[expected][
                                      :, tracked.columns]), step


class TestOneCopyOfRows:
    """Tracked maintainers keep their shard's skyline, not a copy of its
    rows: other rows are read from the shard's own buffer."""

    def test_tracking_allocates_less_than_one_copy_of_the_rows(self):
        rows, d = 20_000, 6
        ranks = np.random.default_rng(3).normal(size=(rows, d))
        relation = ShardedRelation.from_array(ranks, shards=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            relation.track("A0 * A1 * (A2 & A3) * A4 * A5")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a maintainer copy of the projected rows alone is rows * d * 8
        assert held < rows * d * 8

    def test_tracked_reads_match_osdc_while_shards_grow(self, nrng):
        graph = _graph("(A0 & A1) * A2", 3)
        relation = ShardedRelation.from_array(
            nrng.normal(size=(40, 3)), names=["A0", "A1", "A2"],
            shards=4)
        relation.track(graph)
        first = [shard.ranks for shard in relation._shards]
        for step in range(600):
            relation.insert_ranks(nrng.normal(size=3))
            if step % 20 == 19:
                # a deleted member makes its shard promote, reading
                # rows from the shard's current buffer
                gids = relation.skyline_gids(graph)
                relation.delete(int(gids[nrng.integers(gids.size)]))
            if step % 50 == 49:
                with relation.snapshot() as snap:
                    served = relation.p_skyline(graph)
                    expected = relation.p_skyline(
                        graph, algorithm="osdc", snapshot=snap)
                    assert served.ranks.tobytes() == \
                        expected.ranks.tobytes(), step
        # every shard outgrew its first buffer more than once
        for shard, buffer in zip(relation._shards, first):
            assert shard.ranks is not buffer
            assert shard.ranks.shape[0] >= 4 * buffer.shape[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_shard_skylines_equal_osdc_of_alive_slots(self, seed):
        nrng = np.random.default_rng(seed)
        names = ["A0", "A1", "A2", "A3"]
        relation = ShardedRelation.from_array(
            nrng.integers(0, 5, size=(60, 4)).astype(float), names=names,
            shards=3)
        graphs = [relation.track("A0 * (A1 & A3)"),
                  relation.track("(A2 & A0) * A1 * A3")]
        alive = list(range(60))
        for step in range(250):
            if alive and nrng.random() < 0.4:
                tracked = relation._tracked[relation._graph_key(
                    graphs[step % 2])]
                shard_index = int(nrng.integers(relation.num_shards))
                members = relation._shards[shard_index].gids[
                    tracked.maintainers[shard_index].skyline_ids()]
                pool = members if members.size and nrng.random() < 0.5 \
                    else alive
                victim = int(nrng.choice(pool))
                relation.delete(victim)
                alive.remove(victim)
            elif nrng.random() < 0.1:
                block = nrng.integers(0, 5, size=(15, 4)).astype(float)
                alive.extend(relation._bulk_insert(block, None).tolist())
            else:
                alive.append(relation.insert_ranks(
                    nrng.integers(0, 5, size=4).astype(float)))
            _assert_kept_skylines(relation, step)

    def test_track_loads_only_the_alive_slots(self, monkeypatch):
        """Tracking a relation whose deletes hit skyline members (and
        emptied a whole shard) loads the alive slots in one pass: no
        replayed delete, ids still equal slots, and the kept skylines
        equal ``osdc`` of the alive slots, before and after more
        writes."""
        nrng = np.random.default_rng(38)
        names = ["A0", "A1", "A2", "A3"]
        relation = ShardedRelation.from_array(
            nrng.integers(0, 12, size=(2000, 4)).astype(float),
            names=names, shards=4)
        graph = _graph("A0 & (A1 * (A3 & A2))", 4)
        for _ in range(3):  # each round deletes the current skyline
            with relation.snapshot() as snap:
                for gid in snap.gids_at(osdc(snap.relation.ranks, graph)):
                    relation.delete(int(gid))
        for gid in relation._shards[0].gids[
                np.flatnonzero(relation._shards[0].alive)]:
            relation.delete(int(gid))

        def no_replay(*args):
            raise AssertionError("track() replayed a delete")

        with monkeypatch.context() as patch:
            patch.setattr(PSkylineMaintainer, "delete", no_replay)
            relation.track(graph)
        _assert_kept_skylines(relation)
        for step in range(5):
            members = relation.skyline_gids(graph)
            relation.delete(int(members[step % members.size]))
            relation.insert_ranks(nrng.integers(0, 12, size=4)
                                  .astype(float))
            _assert_kept_skylines(relation, step)


class TestSnapshotIsolation:
    def test_pinned_snapshot_ignores_later_writes(self, nrng):
        ranks = nrng.normal(size=(60, 2))
        relation = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                              shards=2)
        graph = _graph("A0 & A1", 2)
        snapshot = relation.snapshot()
        before = snapshot.relation.ranks.copy()
        relation.insert_ranks([-99.0, -99.0])  # dominates everything
        relation.delete(0)
        assert np.array_equal(snapshot.relation.ranks, before)
        local = osdc(snapshot.relation.ranks, graph)
        expected = np.sort(snapshot.global_ids[local])
        served = relation.p_skyline(graph, snapshot=snapshot)
        assert np.array_equal(served.ranks,
                              snapshot.take_gids(expected).ranks)
        snapshot.close()

    def test_versions_are_reclaimed_on_close(self, nrng):
        relation = ShardedRelation.from_array(
            nrng.normal(size=(20, 2)), names=["A0", "A1"], shards=2)
        first = relation.snapshot()
        relation.insert_ranks([0.0, 0.0])
        second = relation.snapshot()
        assert relation.live_versions() == (first.version,
                                            second.version)
        first.close()
        first.close()  # idempotent
        assert relation.live_versions() == (second.version,)
        assert first.closed
        second.close()
        assert relation.live_versions() == ()

    def test_take_gids_rejects_missing_ids(self, nrng):
        relation = ShardedRelation.from_array(
            nrng.normal(size=(10, 2)), names=["A0", "A1"], shards=2)
        with relation.snapshot() as snapshot:
            with pytest.raises(KeyError, match="not in snapshot"):
                snapshot.take_gids([0, 77])

    def test_take_gids_rejects_only_unknown_ids(self, nrng):
        relation = ShardedRelation.from_array(
            nrng.normal(size=(10, 2)), names=["A0", "A1"], shards=2)
        with relation.snapshot() as snapshot:
            with pytest.raises(KeyError, match="1000000"):
                snapshot.take_gids([10**6])

    def test_take_gids_counts_a_repeated_id_once(self, nrng):
        ranks = nrng.normal(size=(10, 2))
        relation = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                              shards=2)
        with relation.snapshot() as snapshot:
            got = snapshot.take_gids([7, 3, 7, 3])
        assert np.array_equal(got.ranks, ranks[[3, 7]])

    def test_take_gids_of_nothing_skips_the_concatenation(
            self, monkeypatch, nrng):
        relation = ShardedRelation.from_array(
            nrng.normal(size=(10, 2)), names=["A0", "A1"], shards=2)

        def no_concat(relations):
            raise AssertionError("the whole snapshot was concatenated")

        with relation.snapshot() as snapshot:
            monkeypatch.setattr(Relation, "concat", no_concat)
            got = snapshot.take_gids([])
        assert got.ranks.shape == (0, 2)
        assert got.names == ("A0", "A1")


class TestQueryDispatch:
    def test_p_skyline_accepts_sharded_relations(self, nrng):
        ranks = nrng.normal(size=(150, 3))
        names = ["A0", "A1", "A2"]
        flat = Relation.from_array(ranks, names=names)
        sharded = ShardedRelation.from_array(ranks, names=names,
                                             shards=3)
        expression = "A0 & (A1 * A2)"
        expected = p_skyline(flat, expression)
        stats = Stats()
        got = p_skyline(sharded, expression, stats=stats)
        assert np.array_equal(got.ranks, expected.ranks)
        info = stats.extra["shards"]
        assert info["count"] == 3
        assert info["version"] == sharded.version
        assert stats.extra["relation_version"] == sharded.version

    def test_tracked_relation_serves_through_p_skyline(self, nrng):
        ranks = nrng.normal(size=(150, 3))
        names = ["A0", "A1", "A2"]
        sharded = ShardedRelation.from_array(ranks, names=names,
                                             shards=3)
        sharded.track("A0 & A1 & A2")
        stats = Stats()
        got = p_skyline(sharded, "A0 & A1 & A2", algorithm="auto",
                        stats=stats)
        assert stats.extra["shards"]["mode"] == "maintained"
        expected = p_skyline(Relation.from_array(ranks, names=names),
                             "A0 & A1 & A2")
        assert np.array_equal(got.ranks, expected.ranks)

    def test_large_tracked_serve_stays_in_process(self):
        """A tracked serve merges its per-shard skylines in this
        process however large their union, even with the default pool
        up and idle."""
        x = np.random.default_rng(17).permutation(3000) / 3000.0
        ranks = np.column_stack([x, 1.0 - x])  # every row is maximal
        sharded = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                             shards=4)
        graph = sharded.track("A0 * A1")
        get_default_pool()
        try:
            stats = Stats()
            got = sharded.p_skyline(graph, stats=stats)
        finally:
            shutdown_default_pool()
        info = stats.extra["shards"]
        assert info["mode"] == "maintained"
        assert sum(info["skylines"]) == 3000 >= 2048
        assert "pool" not in stats.extra
        assert np.array_equal(got.ranks, ranks[np.sort(osdc(ranks, graph))])

    def test_batch_pins_one_snapshot(self, nrng):
        ranks = nrng.normal(size=(100, 3))
        names = ["A0", "A1", "A2"]
        sharded = ShardedRelation.from_array(ranks, names=names,
                                             shards=2)
        flat = Relation.from_array(ranks, names=names)
        expressions = ["A0 & A1", "A1 * A2", "(A0 & A2) * A1"]
        got = p_skyline_batch(sharded, expressions)
        expected = p_skyline_batch(flat, expressions)
        for got_relation, expected_relation in zip(got, expected):
            assert np.array_equal(got_relation.ranks,
                                  expected_relation.ranks)


class TestPlannerShardRule:
    def test_single_populated_shard(self, nrng):
        ranks = np.abs(nrng.normal(size=(50, 2))) + 10.0
        relation = ShardedRelation.from_array(
            ranks, names=["A0", "A1"],
            shards=ShardMap.ranged(3, 0, [-2.0, -1.0]))
        with relation.snapshot() as snapshot:
            plan = Planner().plan_sharded(snapshot, _graph("A0 & A1", 2))
        assert plan.algorithm == "single-shard"
        assert plan.options["shard"] == 2

    def test_small_snapshots_stay_serial(self, nrng):
        relation = ShardedRelation.from_array(
            nrng.normal(size=(100, 2)), names=["A0", "A1"], shards=2)
        with relation.snapshot() as snapshot:
            plan = Planner().plan_sharded(snapshot, _graph("A0 & A1", 2))
        assert plan.algorithm == "sharded-serial"

    def test_one_core_stays_serial(self, monkeypatch, nrng):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 1)
        relation = ShardedRelation.from_array(
            nrng.normal(size=(3000, 2)), names=["A0", "A1"], shards=2)
        with relation.snapshot() as snapshot:
            plan = Planner(sharded_threshold=1000).plan_sharded(
                snapshot, _graph("A0 & A1", 2))
        assert plan.algorithm == "sharded-serial"
        assert "one core" in plan.reason

    def test_large_snapshots_scatter_gather(self, monkeypatch, nrng):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        ranks = nrng.normal(size=(3000, 2))
        relation = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                              shards=2)
        planner = Planner(sharded_threshold=1000)
        with relation.snapshot() as snapshot:
            plan = planner.plan_sharded(snapshot, _graph("A0 & A1", 2))
        assert plan.algorithm == "sharded-scatter-gather"
        # end to end: the plan is recorded in stats and the trace ring,
        # and the pooled scatter/gather answer matches serial OSDC
        stats = Stats()
        context = ExecutionContext.create(stats=stats, trace=16)
        with WorkerPool(2) as pool:
            result = relation.p_skyline("A0 & A1", planner=planner,
                                        pool=pool, context=context)
        assert stats.extra["plan"]["algorithm"] == \
            "sharded-scatter-gather"
        phases = [event.phase for event in context.trace.events()]
        assert "plan" in phases and "shard-query" in phases
        expected = osdc(ranks, _graph("A0 & A1", 2))
        assert np.array_equal(result.ranks, ranks[np.sort(expected)])


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform has no CPU affinity masks")
    def test_one_cpu_affinity_mask_stays_serial(self, nrng):
        """A one-CPU affinity mask (``taskset -c 0``) on a many-core
        host is one core: scattering would only time-share it."""
        relation = ShardedRelation.from_array(
            nrng.normal(size=(3000, 2)), names=["A0", "A1"], shards=2)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            with relation.snapshot() as snapshot:
                plan = Planner(sharded_threshold=1000).plan_sharded(
                    snapshot, _graph("A0 & A1", 2))
        finally:
            os.sched_setaffinity(0, mask)
        assert plan.algorithm == "sharded-serial"


def _shard_vectors(relation: ShardedRelation, make) -> list:
    """One vector ``make(k)`` routed to each shard (``k = 0, 1, ...``
    until every shard has one)."""
    vectors: dict[int, np.ndarray] = {}
    k = 0
    while len(vectors) < relation.num_shards:
        vector = np.asarray(make(k), dtype=float)
        vectors.setdefault(relation.shard_map.shard_of(vector), vector)
        k += 1
    return list(vectors.values())


class TestPinnedScatterReads:
    """A scatter read ships each shard's dead slots and appended rows
    with its tasks, against bases the pool registered once."""

    GRAPH = _graph("A0 * A1", 2)

    @classmethod
    def _read_after_writes(cls, pool) -> tuple[np.ndarray, np.ndarray]:
        """Pin after deletes and inserts, write to every shard after the
        pin, then read the pin on the pool; returns the read's rows and
        those of serial OSDC over the pinned rows, built apart from the
        snapshot."""
        rng = np.random.default_rng(11)
        x = rng.random(2400)
        ranks = np.column_stack([x, 1.0 - x + 0.05 * rng.random(2400)])
        relation = ShardedRelation.from_array(ranks, names=["A0", "A1"],
                                              shards=3)
        planner = Planner(sharded_threshold=1000)
        relation.p_skyline(cls.GRAPH, planner=planner, pool=pool)
        skyline = osdc(ranks, cls.GRAPH)
        assert skyline.size > 10
        deleted = skyline[:: skyline.size // 4][:4]
        for gid in deleted[:3]:  # the pin's deletes
            relation.delete(int(gid))
        appended = np.array(_shard_vectors(  # appended before the pin
            relation, lambda k: [0.5 + 0.01 * k, 0.5 + 0.01 * k]))
        for row in appended:
            relation.insert_ranks(row)
        segments = set(pool.live_segments())
        snapshot = relation.snapshot()
        try:
            relation.delete(int(deleted[3]))  # after the pin
            for row in _shard_vectors(relation,
                                      lambda k: [-1.0 - k, -1.0 - k]):
                relation.insert_ranks(row)  # dominates every pinned row
            stats = Stats()
            got = relation.p_skyline(cls.GRAPH, snapshot=snapshot,
                                     planner=planner, pool=pool,
                                     stats=stats)
        finally:
            snapshot.close()
        assert stats.extra["plan"]["algorithm"] == "sharded-scatter-gather"
        assert set(pool.live_segments()) == segments  # no new bytes
        pinned = np.vstack([np.delete(ranks, deleted[:3], axis=0),
                            appended])
        return got.ranks, pinned[np.sort(osdc(pinned, cls.GRAPH))]

    def test_pinned_read_equals_osdc_on_the_pinned_rows(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        with WorkerPool(2) as pool:
            got, expected = self._read_after_writes(pool)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mutant", ["no-dead-slots", "live-alive"])
    def test_a_read_off_the_pins_deletes_fails(self, monkeypatch, mutant):
        """The check above catches a read whose tasks lose the pin's
        deletes: shipping no dead slots, or the shards' alive arrays as
        they are at read time."""
        import dataclasses

        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        register = WorkerPool._register_sharded
        relations = []
        snapshot = ShardedRelation.snapshot

        def remember(relation):
            relations.append(relation)
            return snapshot(relation)

        def mutated(pool, pins):
            spec, nan_columns = register(pool, pins)
            if mutant == "no-dead-slots":
                deltas = [(dead[:0], appended)
                          for dead, appended in spec.deltas]
            else:
                shards = relations[-1]._shards
                deltas = [(np.flatnonzero(~shard.alive[: shard.size]),
                           appended)
                          for shard, (_dead, appended)
                          in zip(shards, spec.deltas)]
            return (dataclasses.replace(spec, deltas=tuple(deltas)),
                    nan_columns)

        monkeypatch.setattr(ShardedRelation, "snapshot", remember)
        monkeypatch.setattr(WorkerPool, "_register_sharded", mutated)
        with WorkerPool(2) as pool:
            try:
                got, expected = self._read_after_writes(pool)
                exact = np.array_equal(got, expected)
            except Exception:  # a garbled delta may fail outright
                exact = False
        assert not exact

    def test_a_read_after_deleting_most_of_a_shard_is_exact(
            self, monkeypatch):
        """Deletes leave dead slots in the registered bases; a read
        gathers each worker's slice past them in one copy and stays
        exact, with no new registration."""
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        rng = np.random.default_rng(23)
        ranks = rng.random((3000, 3))
        graph = _graph("(A0 & A1) * A2", 3)
        relation = ShardedRelation.from_array(
            ranks, names=["A0", "A1", "A2"], shards=3)
        planner = Planner(sharded_threshold=200)
        gids = np.arange(len(ranks))
        shard_of = relation.shard_map.shard_of_block(ranks)
        with WorkerPool(2) as pool:
            relation.p_skyline(graph, planner=planner, pool=pool)
            segments = set(pool.live_segments())
            # nine in ten rows of shard 0 and one in five elsewhere
            share = np.where(shard_of == 0, 0.9, 0.2)
            deleted = gids[rng.random(len(ranks)) < share]
            for gid in deleted:
                relation.delete(int(gid))
            stats = Stats()
            got = relation.p_skyline(graph, planner=planner, pool=pool,
                                     stats=stats)
            assert set(pool.live_segments()) == segments
        assert stats.extra["plan"]["algorithm"] == "sharded-scatter-gather"
        live = np.delete(ranks, deleted, axis=0)
        assert np.array_equal(got.ranks,
                              live[np.sort(osdc(live, graph))])

    def test_reads_across_the_rebase_share_stay_exact(self, monkeypatch):
        """Rows appended past the re-base share re-base the shard: one
        new registration, and every read stays exact."""
        from repro.core.sharding import REBASE_SHARE

        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        rng = np.random.default_rng(5)
        ranks = rng.random((1600, 3))
        graph = _graph("A0 & (A1 * A2)", 3)
        relation = ShardedRelation.from_array(
            ranks, names=["A0", "A1", "A2"], shards=2)
        planner = Planner(sharded_threshold=500)
        rows = list(ranks)
        alive = set(range(len(rows)))
        per_round = int(REBASE_SHARE * 800) + 40
        with WorkerPool(2) as pool:
            bases = []
            for round_ in range(4):
                if round_:
                    for row in rng.random((per_round, 3)):
                        alive.add(relation.insert_ranks(row))
                        rows.append(row)
                    for gid in rng.choice(sorted(alive), size=30,
                                          replace=False):
                        relation.delete(int(gid))
                        alive.discard(int(gid))
                with relation.snapshot() as snapshot:
                    bases.append([pin.base.shape[0]
                                  for pin in snapshot.pins])
                    got = relation.p_skyline(graph, snapshot=snapshot,
                                             planner=planner, pool=pool)
                live = np.array(sorted(alive))
                matrix = np.array(rows)[live]
                expected = matrix[np.sort(osdc(matrix, graph))]
                assert np.array_equal(got.ranks, expected)
            assert len(pool.live_segments()) <= relation.num_shards
        # every shard re-based at least once past its first base
        assert all(last > first
                   for first, last in zip(bases[0], bases[-1]))


class TestPreferenceSqlOverShards:
    def test_statement_over_sharded_relation(self, nrng):
        ranks = np.round(np.abs(nrng.normal(size=(80, 2))) * 10, 1)
        schema = [lowest("price"), lowest("mileage")]
        flat = Relation.from_array(ranks, schema=schema)
        sharded = ShardedRelation.from_relation(flat, shards=3)
        engine = PreferenceSQL()
        engine.register("cars", flat)
        engine.register("shard_cars", sharded)
        statement = ("SELECT price, mileage FROM {} WHERE price < 12 "
                     "PREFERRING price & mileage")
        expected = engine.execute(statement.format("cars"))
        stats = Stats()
        got = engine.execute(statement.format("shard_cars"), stats=stats)
        assert np.array_equal(got.ranks, expected.ranks)
        assert stats.extra["relation_version"] == sharded.version

    def test_writes_between_statements_are_visible(self):
        sharded = ShardedRelation.from_records(
            [{"a": 2.0}, {"a": 3.0}], [lowest("a")], shards=2)
        engine = PreferenceSQL()
        engine.register("t", sharded)
        first = engine.execute("SELECT a FROM t PREFERRING a")
        assert len(first) == 1 and first.ranks[0, 0] == 2.0
        sharded.insert({"a": 1.0})
        second = engine.execute("SELECT a FROM t PREFERRING a")
        assert len(second) == 1 and second.ranks[0, 0] == 1.0


class TestConcurrentWriteWhileQuery:
    def test_queries_stay_consistent_under_writes(self, nrng):
        """Writer thread churns the relation while pooled queries run;
        every query must equal serial OSDC over its own pinned
        snapshot, and no shared-memory segments may leak."""
        before = set(pool_segments())
        ranks = nrng.normal(size=(4000, 3))
        names = ["A0", "A1", "A2"]
        graph = _graph("A0 & (A1 * A2)", 3)
        relation = ShardedRelation.from_array(ranks, names=names,
                                              shards=4)
        relation.track(graph)
        stop = threading.Event()
        writer_error: list[BaseException] = []

        def churn():
            writer_rng = np.random.default_rng(7)
            gid = None
            try:
                while not stop.is_set():
                    gid = relation.insert_ranks(
                        writer_rng.normal(size=3))
                    if writer_rng.random() < 0.5:
                        relation.delete(gid)
            except BaseException as error:  # pragma: no cover
                writer_error.append(error)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            with WorkerPool(2) as pool:
                for _ in range(8):
                    with relation.snapshot() as snapshot:
                        served = relation.p_skyline(
                            graph, snapshot=snapshot, pool=pool)
                        local = osdc(snapshot.relation.ranks, graph)
                        gids = np.sort(snapshot.global_ids[local])
                        expected = snapshot.take_gids(gids)
                    assert np.array_equal(served.ranks, expected.ranks)
        finally:
            stop.set()
            writer.join()
        assert not writer_error
        assert relation.version > 1  # the writer actually interleaved
        assert set(pool_segments()) <= before  # nothing leaked
