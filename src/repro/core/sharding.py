"""Sharded, MVCC-versioned relations with per-shard maintenance.

The paper's partition/merge identity ``M_pi(D) = M_pi(U_i M_pi(D_i))``
(the correctness backbone of OSDC's divide step and of the pool's tree
merge) makes p-skylines embarrassingly partitionable.  This module turns
that identity into a storage architecture:

* :class:`ShardMap` -- a deterministic row-to-shard router, either by a
  platform-independent hash of the rank vector or by range partitioning
  on one column.
* :class:`ShardedRelation` -- a mutable, hash- or range-partitioned
  relation.  Writes bump a monotonically increasing **version**, and
  readers pin :class:`ShardSnapshot` views: a long-running or deadline
  query reads a stable version while writes land concurrently.  A pin
  copies no shard -- it shares each shard's frozen base, which the
  worker pool registers into shared memory once, and records the rows
  appended and deleted since -- and serial readers materialise an
  ordinary immutable :class:`~repro.core.relation.Relation` from it on
  first use, so every registry algorithm consumes it unchanged.

:meth:`ShardedRelation.track` keeps one
:class:`~repro.algorithms.incremental.PSkylineMaintainer` per shard for a
p-graph.  A maintainer holds its shard's skyline (ids and projected
rows) and reads any other row from the shard's own buffer, so tracking
keeps one copy of the rows.  Serving that query is the second
application of the partition identity: one OSDC run, in this process,
over the union of the per-shard skylines -- a few hundred to a few
thousand rows, too few to repay a round on the worker pool.
"""

from __future__ import annotations

import math
import threading
import zlib
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..engine.pool import LiveRows, ShardPin
from .attributes import Attribute, Direction, lowest
from .pgraph import PGraph
from .query import resolve_expression
from .relation import Relation

__all__ = ["ShardMap", "ShardedRelation", "ShardSnapshot",
           "sharded_pskyline"]


def _row_hash(vector: np.ndarray) -> int:
    """A deterministic, platform-independent hash of one rank vector.

    CRC32 over the float64 bytes: stable across processes (unlike
    ``hash()``, which is salted) and fast enough to sit on the insert
    path.  ``-0.0`` is normalised so bitwise-different equal ranks
    land on the same shard.
    """
    vector = np.asarray(vector, dtype=np.float64)
    # adding 0.0 turns -0.0 into 0.0, but the copy costs more than the
    # rest of the hash, so it is made only for a row holding a zero
    if 0.0 in vector.tolist():
        vector = vector + 0.0
    return zlib.crc32(vector.tobytes())


def _crc32_tables() -> np.ndarray:
    """The four slice-by-4 lookup tables of zlib's (reflected) CRC-32.

    Row 0 is the classic byte table; row ``k`` advances a byte through
    ``k`` further zero bytes, so one table lookup per byte of a 32-bit
    word replaces four sequential byte steps.
    """
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320),
                         table >> 1)
    tables = [table]
    for _ in range(3):
        tables.append((tables[-1] >> 8) ^ table[tables[-1] & 0xFF])
    return np.stack(tables)


_CRC32_TABLES = _crc32_tables()


def _block_hash(ranks: np.ndarray) -> np.ndarray:
    """:func:`_row_hash` of every row of an ``(n, d)`` block, as
    ``uint32``, from one normalised copy of the block.

    The CRC runs down the columns for all rows at once, a 32-bit word at
    a time (slice-by-4), so a bulk load costs ``2d`` vector steps, not
    ``n`` Python calls.  Words are read little-endian, the byte order
    CRC-32 consumes them in, so the result equals ``zlib.crc32`` of each
    row's bytes on any host.
    """
    ranks = np.ascontiguousarray(ranks, dtype=np.float64) + 0.0
    words = ranks.view("<u4")
    t0, t1, t2, t3 = _CRC32_TABLES
    crc = np.full(ranks.shape[0], 0xFFFFFFFF, dtype=np.uint32)
    for column in range(words.shape[1]):
        crc ^= words[:, column]
        crc = (t3[crc & 0xFF] ^ t2[(crc >> 8) & 0xFF]
               ^ t1[(crc >> 16) & 0xFF] ^ t0[crc >> 24])
    return crc ^ np.uint32(0xFFFFFFFF)


class ShardMap:
    """Deterministic row-to-shard routing.

    Two partitioning schemes:

    * ``ShardMap.hashed(k)`` -- shard ``crc32(row) % k``; balanced in
      expectation and oblivious to the data distribution.
    * ``ShardMap.ranged(k, column, boundaries)`` -- range partitioning
      on one rank column with ``k - 1`` sorted cut points
      (``ShardMap.ranged_from`` derives quantile boundaries from data).
    """

    __slots__ = ("shards", "kind", "column", "boundaries")

    def __init__(self, shards: int, kind: str = "hash", *,
                 column: int = 0,
                 boundaries: Sequence[float] | None = None):
        if shards < 1:
            raise ValueError("a shard map needs at least one shard")
        if kind not in ("hash", "range"):
            raise ValueError(f"unknown partitioning scheme {kind!r}")
        if kind == "range":
            if boundaries is None:
                raise ValueError("range partitioning requires boundaries")
            boundaries = tuple(float(b) for b in boundaries)
            if list(boundaries) != sorted(boundaries):
                raise ValueError("range boundaries must be sorted")
            if len(boundaries) != shards - 1:
                raise ValueError(
                    f"{shards} shards need {shards - 1} boundaries, got "
                    f"{len(boundaries)}")
        self.shards = int(shards)
        self.kind = kind
        self.column = int(column)
        self.boundaries = boundaries if kind == "range" else None

    @classmethod
    def hashed(cls, shards: int) -> "ShardMap":
        return cls(shards, "hash")

    @classmethod
    def ranged(cls, shards: int, column: int,
               boundaries: Sequence[float]) -> "ShardMap":
        return cls(shards, "range", column=column, boundaries=boundaries)

    @classmethod
    def ranged_from(cls, ranks: np.ndarray, shards: int,
                    column: int = 0) -> "ShardMap":
        """Range boundaries at the column's ``k``-quantiles."""
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.ndim != 2 or ranks.shape[0] == 0:
            raise ValueError(
                "quantile boundaries need a non-empty 2-d matrix")
        quantiles = np.linspace(0.0, 1.0, shards + 1)[1:-1]
        boundaries = np.quantile(ranks[:, column], quantiles)
        return cls.ranged(shards, column, boundaries)

    def shard_of(self, vector: np.ndarray) -> int:
        """The owning shard of one rank vector."""
        if self.kind == "hash":
            return _row_hash(vector) % self.shards
        value = float(np.asarray(vector, dtype=np.float64)[self.column])
        return int(np.searchsorted(self.boundaries, value, side="right"))

    def shard_of_block(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of` for an ``(n, d)`` block: the
        same shard for every row, from one pass over the block."""
        if self.kind == "range":
            ranks = np.asarray(ranks, dtype=np.float64)
            return np.searchsorted(self.boundaries, ranks[:, self.column],
                                   side="right").astype(np.intp)
        return (_block_hash(ranks) % self.shards).astype(np.intp)

    def __repr__(self) -> str:
        if self.kind == "hash":
            return f"ShardMap(hash, {self.shards} shards)"
        return (f"ShardMap(range on column {self.column}, "
                f"{self.shards} shards)")


def sharded_pskyline(ranks: np.ndarray, graph: PGraph, *,
                     shards: int = 2,
                     function: Callable | None = None,
                     shard_map: ShardMap | None = None,
                     context=None) -> np.ndarray:
    """Evaluate ``M_pi(ranks)`` by partition and merge, serially.

    Splits the rows with ``shard_map`` (hash by default), evaluates
    ``function`` (OSDC by default) per shard, then once more on the
    union of the per-shard skylines -- the partition identity applied
    directly.  Returns sorted original row indices; the reference
    implementation the pool-backed sharded paths are verified against.
    """
    from ..algorithms.base import get_algorithm

    ranks = np.ascontiguousarray(ranks, dtype=np.float64)
    if function is None:
        function = get_algorithm("osdc")
    shard_map = shard_map if shard_map is not None \
        else ShardMap.hashed(shards)
    assignment = shard_map.shard_of_block(ranks)
    union: list[np.ndarray] = []
    for shard in range(shard_map.shards):
        rows = np.flatnonzero(assignment == shard)
        if rows.size == 0:
            continue
        local = function(np.ascontiguousarray(ranks[rows]), graph)
        union.append(rows[np.asarray(local, dtype=np.intp)])
    if not union:
        return np.empty(0, dtype=np.intp)
    candidates = np.sort(np.concatenate(union))
    local = function(np.ascontiguousarray(ranks[candidates]), graph)
    return np.sort(candidates[np.asarray(local, dtype=np.intp)])


# -- the sharded relation ----------------------------------------------------


#: A shard re-bases -- copies its slots into a fresh frozen base, which
#: the pool then registers once -- when the rows appended since its base
#: pass this share of the base.  Below it a read ships those rows with
#: its tasks instead (the LSM rule: a bounded delta, an occasional
#: compaction).
REBASE_SHARE = 0.125


class _Shard:
    """Mutable storage of one shard: growable buffers in slot order
    plus the frozen *base* its pins share.

    Writes only append slots or clear ``alive``; a slot below ``size``
    is never rewritten.  So the base -- a read-only copy of slots
    ``0:B``, dead ones included -- stays valid until the shard
    re-bases, and the pool's registration of it keeps hitting across
    writes."""

    __slots__ = ("ranks", "values", "gids", "alive", "size", "base",
                 "dead", "_killed")

    def __init__(self, arity: int, store_values: bool,
                 capacity: int = 64):
        self.ranks = np.empty((capacity, arity), dtype=np.float64)
        self.values = np.empty((capacity, arity), dtype=object) \
            if store_values else None
        self.gids = np.empty(capacity, dtype=np.intp)
        self.alive = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.base = _frozen(self.ranks[:0].copy())
        #: sorted dead slots, shared by the pins (replaced, never
        #: written); the slots killed since are merged in at the next pin
        self.dead = np.empty(0, dtype=np.intp)
        self._killed: list[int] = []

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        capacity = self.ranks.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        grown = np.empty((new_capacity, self.ranks.shape[1]))
        grown[: self.size] = self.ranks[: self.size]
        self.ranks = grown
        if self.values is not None:
            grown_values = np.empty((new_capacity, self.values.shape[1]),
                                    dtype=object)
            grown_values[: self.size] = self.values[: self.size]
            self.values = grown_values
        self.gids = np.concatenate(
            [self.gids, np.empty(new_capacity - capacity, dtype=np.intp)])
        self.alive = np.concatenate(
            [self.alive, np.zeros(new_capacity - capacity, dtype=bool)])

    def append(self, vector: np.ndarray, gid: int,
               values: np.ndarray | None) -> int:
        """Append one row; returns its slot.  (The one-row write path:
        scalar stores, no block views.)"""
        slot = self.size
        if slot == self.alive.shape[0]:
            self._reserve(1)
        self.ranks[slot] = vector
        if self.values is not None:
            self.values[slot] = values
        self.gids[slot] = gid
        self.alive[slot] = True
        self.size = slot + 1
        return slot

    def append_block(self, ranks: np.ndarray, gids: np.ndarray,
                     values: np.ndarray | None) -> int:
        """Append rows to the contiguous slots ``start:start + n``;
        returns ``start``."""
        count = ranks.shape[0]
        self._reserve(count)
        start, end = self.size, self.size + count
        self.ranks[start:end] = ranks
        if self.values is not None:
            self.values[start:end] = values if values is not None else None
        self.gids[start:end] = gids
        self.alive[start:end] = True
        self.size = end
        return start

    def kill(self, slot: int) -> None:
        self.alive[slot] = False
        self._killed.append(slot)

    def pin(self) -> tuple[ShardPin, np.ndarray, np.ndarray | None]:
        """``(pin, gids, values)`` of the current slots: ``gids`` and
        ``values`` are read-only views of slots ``0:size``.

        Copies no row -- unless the rows appended since the base pass
        :data:`REBASE_SHARE` of it, when the shard re-bases.
        """
        size = self.size
        cut = self.base.shape[0]
        if size - cut > REBASE_SHARE * cut:
            self.base = _frozen(self.ranks[:size].copy())
            cut = size
        if self._killed:
            killed = np.sort(np.asarray(self._killed, dtype=np.intp))
            self.dead = _frozen(np.insert(
                self.dead, np.searchsorted(self.dead, killed), killed))
            self._killed = []
        values = _frozen(self.values[:size]) \
            if self.values is not None else None
        return (ShardPin(self.base, _frozen(self.ranks[cut:size]),
                         self.dead),
                _frozen(self.gids[:size]), values)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only (a view of a buffer stays a view)."""
    array.setflags(write=False)
    return array


class ShardSnapshot:
    """An immutable, versioned view of a :class:`ShardedRelation`.

    Holds one :class:`~repro.engine.pool.ShardPin` per shard -- the
    shard's shared base, the rows appended since and the dead slots at
    pin time -- plus each slot's global id, and the relation version it
    pinned.  Pinning copies no shard: a scatter read hands the pins to
    the worker pool as they are, and the planner's estimate reads them
    through :attr:`rows`.  Serial readers get the dense :attr:`relation`,
    materialised on first use and cached.
    Closing the snapshot (idempotent; also via ``with``) releases the
    reader reference.
    """

    __slots__ = ("version", "schema", "pins", "_gids", "_values",
                 "_owner", "_rows", "_relation")

    def __init__(self, owner: "ShardedRelation", version: int,
                 schema: tuple[Attribute, ...],
                 pins: tuple[ShardPin, ...],
                 gids: tuple[np.ndarray, ...],
                 values: tuple[np.ndarray | None, ...]):
        self.version = version
        self.schema = schema
        self.pins = pins
        self._gids = gids
        self._values = values
        self._owner = owner
        self._rows: LiveRows | None = None
        self._relation: Relation | None = None

    def __len__(self) -> int:
        return sum(len(pin) for pin in self.pins)

    @property
    def num_shards(self) -> int:
        return len(self.pins)

    @property
    def closed(self) -> bool:
        return self._owner is None

    @property
    def rows(self) -> LiveRows:
        """The snapshot's rows in :attr:`relation` order, read from the
        pins without concatenating them."""
        if self._rows is None:
            self._rows = LiveRows.of(self.pins)
        return self._rows

    @property
    def offsets(self) -> np.ndarray:
        """Row offset of each shard in :attr:`relation` (length k+1)."""
        return self.rows.offsets

    @property
    def relation(self) -> Relation:
        """The full snapshot as one relation (shards concatenated;
        materialised lazily and cached on the snapshot)."""
        if self._relation is None:
            values = None
            if self._values and all(v is not None for v in self._values):
                values = np.concatenate(
                    [v[pin.live_slots]
                     for pin, v in zip(self.pins, self._values)])
            self._relation = Relation(self.schema,
                                      self.rows[:len(self)], values)
        return self._relation

    @property
    def global_ids(self) -> np.ndarray:
        """The global id of each :attr:`relation` row."""
        return self.gids_at(np.arange(len(self), dtype=np.intp))

    def gids_at(self, positions) -> np.ndarray:
        """The global ids of the given :attr:`relation` rows."""
        positions = np.asarray(positions, dtype=np.intp)
        offsets = self.offsets
        shard_of = np.searchsorted(offsets, positions, side="right") - 1
        gids = np.empty(positions.size, dtype=np.intp)
        for shard in np.unique(shard_of):
            mask = shard_of == shard
            gids[mask] = self._gids[shard][self.pins[shard].slots_of(
                positions[mask] - offsets[shard])]
        return gids

    def take_gids(self, gids) -> Relation:
        """The snapshot rows with the given global ids, in id order.

        A repeated id counts once; ids the snapshot does not hold raise
        :class:`KeyError` naming them.
        """
        wanted = np.unique(np.asarray(gids, dtype=np.intp))
        found = np.zeros(wanted.size, dtype=bool)
        ranks = np.empty((wanted.size, len(self.schema)))
        keep_values = bool(self._values) and all(
            v is not None for v in self._values)
        values = np.empty((wanted.size, len(self.schema)), dtype=object) \
            if keep_values else None
        for pin, slot_gids, slot_values in zip(self.pins, self._gids,
                                               self._values):
            if not slot_gids.size:
                continue
            # a shard's gids increase with its slots (appends only ever
            # grow them), so one searchsorted finds every slot
            slots = np.minimum(np.searchsorted(slot_gids, wanted),
                               slot_gids.size - 1)
            hit = (slot_gids[slots] == wanted) & pin.is_alive(slots)
            if hit.any():
                found |= hit
                ranks[hit] = pin.at_slots(slots[hit])
                if keep_values:
                    values[hit] = slot_values[slots[hit]]
        if not found.all():
            raise KeyError(
                f"global id(s) not in snapshot version {self.version}: "
                f"{wanted[~found][:8].tolist()}")
        return Relation(self.schema, ranks, values)

    def close(self) -> None:
        """Release the reader reference (idempotent)."""
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._release(self.version)

    def __enter__(self) -> "ShardSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"ShardSnapshot(version={self.version}, "
                f"{len(self)} tuples over {self.num_shards} shards, "
                f"{state})")


class _TrackedGraph:
    """Per-shard incremental maintenance of one tracked p-graph.

    The shard-local maintainers are fed in storage slot order, so a
    maintainer tuple id *is* the shard storage slot -- deletes route by
    slot with no extra translation, and a maintainer reads a retained
    row from its shard's buffer by slot (:func:`_shard_rows`).
    """

    __slots__ = ("graph", "columns", "maintainers")

    def __init__(self, graph: PGraph, columns: np.ndarray,
                 maintainers: list) -> None:
        self.graph = graph
        self.columns = columns
        self.maintainers = maintainers


def _shard_rows(shard: _Shard, columns: np.ndarray):
    """A maintainer's row source over one shard: the rows of the given
    slots, projected to ``columns``.  It reads ``shard.ranks`` on every
    call, never a cached array, because a growing shard replaces it."""
    def rows(slots: np.ndarray) -> np.ndarray:
        return shard.ranks[slots][:, columns]
    return rows


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """A copy of ``array`` with room for ``needed`` entries (doubling)."""
    grown = np.empty(max(needed, 2 * array.shape[0]), dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class ShardedRelation:
    """A mutable, partitioned, MVCC-versioned relation.

    Rows are routed to one of ``k`` shards by a :class:`ShardMap` and
    identified by the monotonically increasing global id that
    :meth:`insert` returns.  Every write bumps :attr:`version`;
    :meth:`snapshot` pins an immutable :class:`ShardSnapshot` of the
    current version, so queries run on stable data while writes land
    concurrently (writers never block readers).  :meth:`track` attaches
    per-shard incremental maintainers for a p-graph, after which
    :meth:`p_skyline` serves that query by merging the per-shard
    skylines instead of recomputing from scratch.

    All mutating and snapshot-taking methods are thread-safe behind one
    reentrant lock; snapshots themselves are immutable and may be read
    from any thread.
    """

    def __init__(self, schema: Sequence[Attribute], *,
                 shards: int | ShardMap = 4, partition: str = "hash",
                 column: str | None = None,
                 boundaries: Sequence[float] | None = None,
                 store_values: bool = False,
                 context=None, kernel: str = "auto"):
        from ..algorithms.base import ensure_context

        self.schema = tuple(schema)
        names = [attribute.name for attribute in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("schema contains duplicate attribute names")
        if isinstance(shards, ShardMap):
            self.shard_map = shards
        elif partition == "hash":
            self.shard_map = ShardMap.hashed(shards)
        elif partition == "range":
            if column is None or boundaries is None:
                raise ValueError(
                    "range partitioning requires column and boundaries")
            self.shard_map = ShardMap.ranged(
                shards, names.index(column), boundaries)
        else:
            raise ValueError(f"unknown partitioning scheme {partition!r}")
        self.context = ensure_context(context)
        self.kernel = kernel
        arity = len(self.schema)
        self._shards = [_Shard(arity, store_values)
                        for _ in range(self.shard_map.shards)]
        #: global id -> (shard, slot) for the first ``_gid_count`` gids;
        #: append-only
        self._gid_shard = np.empty(64, dtype=np.intp)
        self._gid_slot = np.empty(64, dtype=np.intp)
        self._gid_count = 0
        #: per attribute: value -> rank of a ranked order, else None; and
        #: the sign that turns a value into a rank (see :meth:`_encode`)
        self._rank_of = [
            {value: i for i, value in enumerate(attribute.order)}
            if attribute.direction is Direction.RANKED else None
            for attribute in self.schema]
        self._signs = np.array(
            [-1.0 if attribute.direction is Direction.MAX else 1.0
             for attribute in self.schema])
        self._version = 0
        self._tracked: dict[tuple, _TrackedGraph] = {}
        self._readers: dict[int, int] = {}
        self._lock = threading.RLock()
        self._write_listeners: list = []

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation, *,
                      shards: int | ShardMap = 4,
                      partition: str = "hash",
                      column: str | None = None,
                      context=None, kernel: str = "auto"
                      ) -> "ShardedRelation":
        """Partition an existing relation (global ids = its row order).

        With ``partition="range"`` and no explicit boundaries, the cut
        points are the ``column`` quantiles of the given data.
        """
        boundaries = None
        if partition == "range" and not isinstance(shards, ShardMap):
            if column is None:
                raise ValueError("range partitioning requires a column")
            names = list(relation.names)
            boundaries = tuple(
                float(b) for b in np.quantile(
                    relation.ranks[:, names.index(column)],
                    np.linspace(0.0, 1.0, int(shards) + 1)[1:-1]))
        sharded = cls(relation.schema, shards=shards, partition=partition,
                      column=column, boundaries=boundaries,
                      store_values=relation._values is not None,
                      context=context, kernel=kernel)
        sharded._bulk_insert(relation.ranks, relation._values)
        return sharded

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]
                                            | Sequence[Any]],
                     schema: Sequence[Attribute], **kwargs
                     ) -> "ShardedRelation":
        return cls.from_relation(Relation.from_records(records, schema),
                                 **kwargs)

    @classmethod
    def from_array(cls, array: np.ndarray,
                   names: Sequence[str] | None = None,
                   schema: Sequence[Attribute] | None = None,
                   **kwargs) -> "ShardedRelation":
        return cls.from_relation(
            Relation.from_array(array, names=names, schema=schema),
            **kwargs)

    # -- relation interface --------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.schema)

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def num_shards(self) -> int:
        return self.shard_map.shards

    @property
    def version(self) -> int:
        """The current write version (bumped by every insert/delete)."""
        return self._version

    def __len__(self) -> int:
        with self._lock:
            return sum(int(shard.alive[: shard.size].sum())
                       for shard in self._shards)

    def __contains__(self, gid: int) -> bool:
        with self._lock:
            if not 0 <= gid < self._gid_count:
                return False
            shard = self._shards[self._gid_shard[gid]]
            return bool(shard.alive[self._gid_slot[gid]])

    def shard_sizes(self) -> list[int]:
        """Alive rows per shard."""
        with self._lock:
            return [int(shard.alive[: shard.size].sum())
                    for shard in self._shards]

    def to_records(self) -> list[dict[str, Any]]:
        with self.snapshot() as snap:
            order = np.argsort(snap.global_ids, kind="stable")
            return snap.relation.take(order).to_records()

    # -- write listeners -----------------------------------------------------
    def add_write_listener(self, listener) -> None:
        """Register ``listener(relation, version)`` to run after every
        committed write (version bump).

        Listeners fire *outside* the relation lock -- by the time one
        runs, :attr:`version` may already have advanced further, so
        they are suited to invalidation-style hooks (e.g. the server's
        result cache), not to observing individual writes.
        """
        with self._lock:
            self._write_listeners.append(listener)

    def remove_write_listener(self, listener) -> None:
        """Unregister a listener added by :meth:`add_write_listener`
        (a no-op if it is not registered)."""
        with self._lock:
            try:
                self._write_listeners.remove(listener)
            except ValueError:
                pass

    def _notify_write(self) -> None:
        if not self._write_listeners:
            return
        with self._lock:
            listeners = list(self._write_listeners)
            version = self._version
        for listener in listeners:
            listener(self, version)

    # -- mutation ------------------------------------------------------------
    def insert(self, record: Mapping[str, Any] | Sequence[Any]) -> int:
        """Insert one record (dict or schema-ordered sequence); returns
        its global id."""
        if isinstance(record, Mapping):
            row = []
            for attribute in self.schema:
                if attribute.name not in record:
                    raise ValueError(
                        f"record is missing attribute {attribute.name!r}")
                row.append(record[attribute.name])
        else:
            row = list(record)
            if len(row) != self.arity:
                raise ValueError(
                    f"record of arity {len(row)} does not match the "
                    f"schema arity {self.arity}")
        ranks = self._encode(row)
        values = np.empty(self.arity, dtype=object)
        values[:] = row
        return self.insert_ranks(ranks, values)

    def _encode(self, row: list) -> np.ndarray:
        """The rank vector of one schema-ordered record, in one pass.

        Equal to ``Attribute.encode([value])`` per attribute.  A record
        that pass rejects, or that encodes to a NaN, is encoded again
        attribute by attribute, so it raises the same error."""
        try:
            ranks = np.array(
                [value if rank_of is None else rank_of[value]
                 for rank_of, value in zip(self._rank_of, row)],
                dtype=np.float64)
            if ranks.shape == self._signs.shape \
                    and not any(map(math.isnan, ranks.tolist())):
                return ranks * self._signs
        except (KeyError, TypeError, ValueError):
            pass
        return np.array([attribute.encode([value])[0]
                         for attribute, value in zip(self.schema, row)],
                        dtype=np.float64)

    def insert_ranks(self, vector, values: np.ndarray | None = None
                     ) -> int:
        """Insert one pre-encoded rank vector; returns its global id."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.arity,):
            raise ValueError(
                f"expected a rank vector of length {self.arity}")
        # a NumPy reduction over a handful of values costs several
        # times this Python loop
        if not all(map(math.isfinite, vector.tolist())):
            raise ValueError("rank vector contains non-finite values")
        with self._lock:
            shard_index = self.shard_map.shard_of(vector)
            shard = self._shards[shard_index]
            gid = self._gid_count
            slot = shard.append(vector, gid, values)
            self._map_gids(1)
            self._gid_shard[gid] = shard_index
            self._gid_slot[gid] = slot
            for tracked in self._tracked.values():
                # the finite check above is stricter than the
                # maintainer's NaN check
                maintainer_slot = tracked.maintainers[
                    shard_index].insert_valid(vector[tracked.columns])
                assert maintainer_slot == slot
            self._version += 1
        self._notify_write()
        return gid

    def delete(self, gid: int) -> None:
        """Delete a row by global id."""
        with self._lock:
            if gid not in self:
                raise KeyError(f"tuple {gid} is not alive")
            shard_index = int(self._gid_shard[gid])
            slot = int(self._gid_slot[gid])
            for tracked in self._tracked.values():
                tracked.maintainers[shard_index].delete(slot)
            self._shards[shard_index].kill(slot)
            self._version += 1
        self._notify_write()

    def _bulk_insert(self, ranks: np.ndarray,
                     values: np.ndarray | None) -> np.ndarray:
        ranks = np.ascontiguousarray(ranks, dtype=np.float64)
        # routing reads only the rows and the immutable shard map, so it
        # runs before the lock: readers and writers do not wait on it
        assignment = self.shard_map.shard_of_block(ranks)
        routed = [np.flatnonzero(assignment == shard_index)
                  for shard_index in range(self.num_shards)]
        with self._lock:
            base = self._gid_count
            gids = np.arange(base, base + ranks.shape[0], dtype=np.intp)
            if ranks.shape[0] == 0:
                return gids
            self._map_gids(ranks.shape[0])
            self._gid_shard[base:base + ranks.shape[0]] = assignment
            slot_of = self._gid_slot[base:base + ranks.shape[0]]
            for shard_index, rows in enumerate(routed):
                if rows.size == 0:
                    continue
                start = self._shards[shard_index].append_block(
                    ranks[rows], gids[rows],
                    values[rows] if values is not None else None)
                slot_of[rows] = np.arange(start, start + rows.size)
                for tracked in self._tracked.values():
                    tracked.maintainers[shard_index].bulk_load(
                        ranks[rows][:, tracked.columns])
            self._version += 1
        self._notify_write()
        return gids

    def _map_gids(self, count: int) -> None:
        """Make room in the gid map for ``count`` more gids and count
        them; the caller holds the lock and fills their entries."""
        needed = self._gid_count + count
        if needed > self._gid_shard.shape[0]:
            self._gid_shard = _grown(self._gid_shard, needed)
            self._gid_slot = _grown(self._gid_slot, needed)
        self._gid_count = needed

    # -- tracked maintenance -------------------------------------------------
    def track(self, expression) -> PGraph:
        """Attach per-shard incremental maintainers for a p-expression
        (or p-graph); existing rows are bulk-loaded.  Returns the
        normalised p-graph, usable as a key for :meth:`skyline_gids`."""
        from ..algorithms.incremental import PSkylineMaintainer

        graph, columns = resolve_expression(self.names, self.schema,
                                            expression)
        key = self._graph_key(graph)
        with self._lock:
            if key in self._tracked:
                return self._tracked[key].graph
            # an index array: projecting a rank vector by one is several
            # times faster than by a list, and every tracked insert does it
            columns = np.asarray(columns, dtype=np.intp)
            maintainers = []
            for shard in self._shards:
                maintainer = PSkylineMaintainer(
                    graph, capacity=max(64, shard.size),
                    context=self.context, kernel=self.kernel,
                    rows=_shard_rows(shard, columns))
                # load the shard in slot order so maintainer ids align
                # with storage slots; dead slots take their ids dead
                if shard.size:
                    maintainer._bulk_load(
                        shard.ranks[: shard.size][:, columns],
                        shard.alive[: shard.size])
                maintainers.append(maintainer)
            self._tracked[key] = _TrackedGraph(graph, columns, maintainers)
            return graph

    def tracked(self) -> list[PGraph]:
        with self._lock:
            return [tracked.graph for tracked in self._tracked.values()]

    def skyline_gids(self, expression) -> np.ndarray:
        """The maintained ``M_pi`` of a tracked p-graph, as sorted
        global ids (merged from the per-shard skylines)."""
        graph, _columns = resolve_expression(self.names, self.schema,
                                             expression)
        with self._lock:
            tracked = self._tracked.get(self._graph_key(graph))
            if tracked is None:
                raise KeyError(
                    f"p-graph over {graph.names} is not tracked; call "
                    "track() first")
            pieces = self._shard_skylines(tracked)
        return self._merge_skylines(pieces, graph, self.context)

    def _shard_skylines(self, tracked: _TrackedGraph
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-shard skyline as ``(projected ranks, global ids)`` pairs,
        empty shards skipped; caller holds the lock."""
        pieces: list[tuple[np.ndarray, np.ndarray]] = []
        for shard, maintainer in zip(self._shards, tracked.maintainers):
            slots = maintainer.skyline_ids()
            if slots.size:
                pieces.append((maintainer.skyline_ranks(),
                               shard.gids[slots]))
        return pieces

    def _merge_skylines(self, pieces, graph: PGraph,
                        context) -> np.ndarray:
        """The second half of the partition identity: ``osdc`` over the
        union of the per-shard skylines, under ``context``; returns
        sorted global ids."""
        from ..algorithms.osdc import osdc

        if not pieces:
            return np.empty(0, dtype=np.intp)
        union_ranks = np.concatenate([ranks for ranks, _gids in pieces])
        union_gids = np.concatenate([gids for _ranks, gids in pieces])
        local = osdc(union_ranks, graph, context=context,
                     kernel=self.kernel)
        return np.sort(union_gids[local])

    # -- MVCC snapshots ------------------------------------------------------
    def snapshot(self) -> ShardSnapshot:
        """Pin an immutable view of the current version.

        Copies no shard: each pin shares its shard's frozen base and
        sorted dead slots and views the rows appended since
        (:meth:`_Shard.pin`), so the pool's registration of every base
        stays valid across writes.
        """
        with self._lock:
            pins, gids, values = zip(*(shard.pin()
                                       for shard in self._shards))
            self._readers[self._version] = \
                self._readers.get(self._version, 0) + 1
            return ShardSnapshot(self, self._version, self.schema, pins,
                                 gids, values)

    def _release(self, version: int) -> None:
        with self._lock:
            remaining = self._readers.get(version, 0) - 1
            if remaining > 0:
                self._readers[version] = remaining
            else:
                # last reader gone: the version's materialisations are
                # now unreferenced and reclaimed by the collector
                self._readers.pop(version, None)

    def live_versions(self) -> tuple[int, ...]:
        """Versions still pinned by open snapshots (introspection)."""
        with self._lock:
            return tuple(sorted(self._readers))

    # -- queries -------------------------------------------------------------
    def p_skyline(self, expression, *, algorithm: str = "auto",
                  stats=None, context=None, timeout: float | None = None,
                  snapshot: ShardSnapshot | None = None,
                  pool=None, planner=None, **options) -> Relation:
        """Evaluate ``M_pi`` over a pinned snapshot; returns a
        :class:`Relation` of the maximal tuples in global-id order.

        Reads run on the snapshot (the one given, or a fresh pin), so
        concurrent writes never shift the answer mid-query.  A tracked
        p-graph read at the current version is served by merging the
        per-shard skylines in this process; untracked queries go
        through the planner's shard-aware rule (scatter/gather over
        pre-registered shards on ``pool`` or the default pool,
        single-shard, or serial).  An explicit ``algorithm`` runs that
        registry algorithm over the materialised snapshot unchanged.
        """
        from ..algorithms.base import ensure_context
        from ..engine.context import ExecutionContext

        graph, columns = resolve_expression(self.names, self.schema,
                                            expression)
        if timeout is not None:
            if context is not None:
                raise ValueError(
                    "pass either timeout or context, not both")
            context = ExecutionContext.create(stats=stats,
                                              timeout=timeout)
        context = ensure_context(context, stats)
        owned = snapshot is None
        with self._lock:
            snap = self.snapshot() if owned else snapshot
            tracked = self._tracked.get(self._graph_key(graph)) \
                if algorithm == "auto" else None
            pieces = None
            if tracked is not None and snap.version == self._version:
                pieces = self._shard_skylines(tracked)
        try:
            if pieces is not None:
                self._annotate(context, snap, "maintained",
                               [int(gids.size) for _ranks, gids in pieces])
                return snap.take_gids(
                    self._merge_skylines(pieces, graph, context))
            return self._query_snapshot(snap, graph, columns, algorithm,
                                        pool, planner, context, options)
        finally:
            if owned:
                snap.close()

    def _query_snapshot(self, snap: ShardSnapshot, graph: PGraph,
                        columns: list[int], algorithm: str, pool,
                        planner, context, options) -> Relation:
        """Untracked path: planner-chosen scatter/gather, single-shard
        or serial evaluation over the snapshot."""
        from ..algorithms.base import get_algorithm
        from ..engine.pool import get_default_pool, pool_available

        if algorithm != "auto":
            # any registry algorithm consumes the materialised snapshot
            # relation unchanged
            self._annotate(context, snap, algorithm, None)
            function = get_algorithm(algorithm)
            ranks = snap.relation.ranks[:, columns]
            local = function(ranks, graph, context=context, **options)
            return self._finish(snap, np.asarray(local, dtype=np.intp))
        if planner is None:
            from ..planner import DEFAULT_PLANNER
            planner = DEFAULT_PLANNER
        plan = planner.plan_sharded(snap, graph, context,
                                    columns=columns)
        plan.record(context)
        self._annotate(context, snap, plan.algorithm, None)
        if plan.algorithm == "sharded-scatter-gather" \
                and (pool is not None or pool_available()):
            if pool is None:
                pool = get_default_pool()
            # empty shards add no live rows, so the pool's virtual rows
            # are the snapshot's
            indices = pool.run_sharded(snap.pins, graph, columns=columns,
                                       context=context)
            return snap.take_gids(snap.gids_at(indices))
        # single-shard and sharded-serial: at most one shard holds rows
        # in the first, so the dense snapshot is that shard's rows; the
        # plan reads its columns from the snapshot's matrix
        local = planner.execute(snap.relation.ranks, graph,
                                context=context, columns=columns)
        return self._finish(snap, np.asarray(local, dtype=np.intp))

    @staticmethod
    def _finish(snap: ShardSnapshot, positions: np.ndarray) -> Relation:
        """Snapshot row positions -> result relation in global-id order."""
        gids = snap.gids_at(positions)
        order = np.argsort(gids, kind="stable")
        return snap.relation.take(positions[order])

    def _annotate(self, context, snap: ShardSnapshot, mode: str,
                  skylines: list[int] | None) -> None:
        info = {
            "count": self.num_shards,
            "partition": self.shard_map.kind,
            "version": snap.version,
            "rows": [len(pin) for pin in snap.pins],
            "mode": mode,
        }
        if skylines is not None:
            info["skylines"] = skylines
        if context.stats is not None:
            context.stats.extra["shards"] = info
            context.stats.extra["relation_version"] = snap.version
        context.event("shard-query", mode=mode, shards=self.num_shards,
                      version=snap.version)

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _graph_key(graph: PGraph) -> tuple:
        return (graph.names, graph.closure, graph.orders)

    def __repr__(self) -> str:
        return (f"ShardedRelation({len(self)} tuples over "
                f"[{', '.join(self.names)}], {self.num_shards} shards, "
                f"version {self.version})")
