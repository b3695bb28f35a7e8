"""Dominance tests for p-skyline preferences (Proposition 1).

Given two tuples ``t'`` and ``t`` over ranks where *smaller is better*,
Proposition 1 states that ``t' ≻_pi t`` holds iff the tuples are
distinguishable and

.. math::  Desc(Better(t', t)) \\supseteq Better(t, t')

Three kernel families implement this:

* **scalar** kernels represent attribute sets as Python-int bitmasks --
  ``(b1 | b2) != 0 and b2 & ~desc_union(b1) == 0`` -- and serve the
  structural algorithms and tests;
* **gemm** kernels recast the subset condition as a *coverage* test --
  an attribute won by ``t`` must have an ancestor won by ``t'`` -- which
  turns into one small float32 GEMM per comparison block
  (``covered = better_flags @ descendant_matrix``);
* **bitmask** kernels pack the ``Better`` sets of whole comparison
  blocks into unsigned-integer mask matrices (one bit per attribute,
  narrowest dtype that fits) and evaluate Proposition 1 as pure integer
  vector ops.  For ``d <= DENSE_TABLE_LIMIT`` the descendant union is a
  single gather from a precomputed dense ``desc_union[mask]`` table of
  ``2^d`` entries; above that it is an OR-reduction over the set-bit
  columns.  All temporaries live in a per-thread workspace arena, so
  steady-state screening performs no allocation.

The per-call kernel is picked by :func:`select_kernel` (``"auto"``
resolves by dimensionality and block size); :func:`forced_kernel` is a
context manager that overrides every selection on the current thread,
which the verification harness uses to cross-check kernels without
touching algorithm signatures.

Screening is serial: one kernel call per chunk, with ``check`` firing
between chunks so deadlines and cancellation interrupt long screens.
Workspace arenas are *leased* per kernel entry from per-thread free
lists (:func:`_lease_workspace`), so concurrent server threads -- and
screens nested inside a ``check`` callback -- never share scratch
buffers.

All kernels operate on *rank* matrices produced by
:class:`~repro.core.relation.Relation`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .bitsets import iter_bits
from .pgraph import PGraph

__all__ = ["Dominance", "KERNELS", "DENSE_TABLE_LIMIT",
           "BITMASK_WIDTH_LIMIT", "THREAD_MIN_ROWS", "select_kernel",
           "forced_kernel", "current_forced_kernel", "native_available",
           "screen_block_multi"]

#: The concrete kernel families (``"auto"`` additionally resolves to one
#: of these through :func:`select_kernel`).
KERNELS = ("bitmask", "gemm", "scalar")

#: Largest dimensionality for which the bitmask family materialises the
#: dense ``desc_union[mask]`` lookup table (``2^d`` entries).
DENSE_TABLE_LIMIT = 16

#: Largest dimensionality the bitmask family supports at all (one bit
#: per attribute in a uint64 lane).
BITMASK_WIDTH_LIMIT = 64

#: Below this many pairwise comparisons ``auto`` stays on the GEMM
#: kernel: the bitmask family's per-call packing loop (a few ufunc
#: launches per attribute) only amortises on real blocks.
SMALL_BLOCK_PAIRS = 256

#: Rows of ``against`` processed per inner screening block; bounds the
#: workspace footprint at ``chunk x AGAINST_CHUNK`` masks.
AGAINST_CHUNK = 4096

#: Block size splitting the end-to-end tracer's ``small`` and ``large``
#: screen counts.  Nothing in the library branches on it.
THREAD_MIN_ROWS = 2048


def _mask_dtype_for(d: int) -> np.dtype:
    """The narrowest unsigned dtype holding ``d`` attribute bits."""
    if d <= 8:
        return np.dtype(np.uint8)
    if d <= 16:
        return np.dtype(np.uint16)
    if d <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


# -- kernel selection --------------------------------------------------------

def native_available() -> bool:
    """Always ``False``: the compiled kernel family was removed.  Kept
    only because ``e2e/`` reads it for its host tag; delete it when the
    benchmark stops doing so."""
    return False


_FORCED = threading.local()


def current_forced_kernel() -> str | None:
    """The kernel forced on this thread, or ``None``."""
    return getattr(_FORCED, "kernel", None)


@contextmanager
def forced_kernel(name: str):
    """Force every kernel selection on this thread to ``name``.

    Wins over both ``"auto"`` resolution and explicit per-call kernel
    arguments, so a caller can cross-check any algorithm on any kernel
    without plumbing options through its signature.  Nestable; restores
    the previous force on exit.
    """
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {KERNELS}")
    previous = current_forced_kernel()
    _FORCED.kernel = name
    try:
        yield
    finally:
        _FORCED.kernel = previous


def select_kernel(kernel: str | None = None, *, d: int,
                  pairs: int | None = None) -> str:
    """Resolve a kernel request to a concrete kernel name.

    ``kernel`` may be ``None`` / ``"auto"`` (pick by ``d`` and the
    expected number of ``pairs`` per block) or a concrete name.  A
    :func:`forced_kernel` override on the current thread wins over
    everything.
    """
    forced = current_forced_kernel()
    if forced is not None:
        kernel = forced
    if kernel is None or kernel == "auto":
        if d > BITMASK_WIDTH_LIMIT:
            return "gemm"
        if pairs is not None and pairs < SMALL_BLOCK_PAIRS:
            return "gemm"
        return "bitmask"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNELS} or 'auto'")
    if kernel == "bitmask" and d > BITMASK_WIDTH_LIMIT:
        raise ValueError(
            f"{kernel} kernels support at most {BITMASK_WIDTH_LIMIT} "
            f"attributes, got {d}")
    return kernel


# -- workspace arena ---------------------------------------------------------

class _Workspace:
    """A per-thread arena of reusable flat arrays.

    ``get`` returns a contiguous view of the named backing array,
    reshaped to the requested shape, growing the backing only when a
    request exceeds its capacity.  Views from one kernel invocation are
    invalidated by the next -- public methods returning workspace-backed
    results must copy.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...],
            dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (name, dtype)
        backing = self._arrays.get(key)
        if backing is None or backing.size < size:
            capacity = max(size, 1024)
            if backing is not None:
                capacity = max(capacity, 2 * backing.size)
            backing = np.empty(capacity, dtype=dtype)
            self._arrays[key] = backing
        return backing[:size].reshape(shape)


#: Per-thread free lists of workspace arenas.  Threads each see their
#: own list (so concurrent server threads never share scratch buffers),
#: and *leasing* -- rather than handing every caller the one arena of
#: its thread -- keeps nested kernel entries safe: a ``check`` callback
#: that runs another screen mid-loop pops a *distinct* arena because
#: the outer entry still holds its lease.
_WORKSPACES = threading.local()


def _workspace_pool() -> list:
    pool = getattr(_WORKSPACES, "pool", None)
    if pool is None:
        pool = []
        _WORKSPACES.pool = pool
    return pool


@contextmanager
def _lease_workspace():
    """Lease an arena for the duration of one kernel entry point.

    LIFO per thread: the steady state re-leases the same warm arena
    (zero allocation), while nested entries get a fresh one.  Views
    handed out under a lease follow the usual contract -- valid until
    the next kernel call on this thread after the lease is released.
    """
    pool = _workspace_pool()
    arena = pool.pop() if pool else _Workspace()
    try:
        yield arena
    finally:
        pool.append(arena)


def _pack_better_masks(block: np.ndarray, against: np.ndarray,
                       mdtype: np.dtype,
                       arena: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Pack the pairwise ``Better`` sets of a comparison block.

    Returns workspace-backed ``(buv, bvu)`` mask matrices of shape
    ``(b, a)``: ``buv[i, j] = Better(against[j], block[i])`` and
    ``bvu[i, j] = Better(block[i], against[j])`` as packed attribute
    bitmasks.  The packing depends only on the rank columns, never on a
    p-graph, so one packed pair serves every graph over the same columns
    (see :func:`screen_block_multi`).  The views stay valid across
    :meth:`Dominance._eval_packed` calls (evaluation reads but never
    writes them) and are invalidated by the next packing on this thread.
    """
    d = block.shape[1]
    b = block.shape[0]
    a = against.shape[0]
    buv = arena.get("buv", (b, a), mdtype)      # Better(against, block)
    bvu = arena.get("bvu", (b, a), mdtype)      # Better(block, against)
    utmp = arena.get("utmp", (b, a), mdtype)
    bool_tmp = arena.get("btmp", (b, a), np.bool_)
    buv[...] = 0
    bvu[...] = 0
    # column-wise packing: per attribute, two comparisons against the
    # broadcast column, weighted by the attribute's bit -- no (b, a, d)
    # tensor is ever materialised
    for i in range(d):
        bit = mdtype.type(1 << i)
        block_col = block[:, i:i + 1]           # (b, 1)
        against_col = against[None, :, i]       # (1, a)
        np.greater(block_col, against_col, out=bool_tmp)
        np.multiply(bool_tmp, bit, out=utmp, casting="unsafe")
        np.bitwise_or(buv, utmp, out=buv)
        np.less(block_col, against_col, out=bool_tmp)
        np.multiply(bool_tmp, bit, out=utmp, casting="unsafe")
        np.bitwise_or(bvu, utmp, out=bvu)
    return buv, bvu


class Dominance:
    """Dominance oracle for a fixed p-graph over ``d`` rank columns."""

    __slots__ = ("graph", "desc", "_desc_matrix", "_ones", "_mask_dtype",
                 "_powers64", "_closure_masks", "_table")

    def __init__(self, graph: PGraph):
        self.graph = graph
        # desc[i] = strict descendants of attribute i, as python int mask.
        self.desc = graph.closure
        d = graph.d
        # _desc_matrix[i, j] = 1 iff j is a strict descendant of i; used by
        # the coverage GEMM:  (lt @ M)[j] > 0  <=>  some won ancestor of j.
        matrix = np.zeros((d, d), dtype=np.float32)
        for i in range(d):
            for j in iter_bits(self.desc[i]):
                matrix[i, j] = 1.0
        self._desc_matrix = matrix
        self._ones = np.ones((d, 1), dtype=np.float32)
        if d <= BITMASK_WIDTH_LIMIT:
            self._mask_dtype = _mask_dtype_for(d)
            self._powers64 = np.left_shift(
                np.uint64(1), np.arange(d, dtype=np.uint64))
            self._closure_masks = np.array(
                [self.desc[i] for i in range(d)],
                dtype=self._mask_dtype) if d else \
                np.zeros(0, dtype=self._mask_dtype)
        else:  # masks no longer fit a machine word: bitmask family off
            self._mask_dtype = None
            self._powers64 = None
            self._closure_masks = None
        self._table = None  # dense desc_union table, built lazily

    def prepare(self) -> "Dominance":
        """Eagerly build the lazy bitmask tables (idempotent).

        :class:`~repro.engine.compiled.CompiledPreference` calls this at
        compile time so cached preferences never pay the table build on
        the query path.
        """
        self._dense_table()
        return self

    def _dense_table(self) -> np.ndarray | None:
        """The ``desc_union[mask]`` table, or ``None`` when ``d`` exceeds
        :data:`DENSE_TABLE_LIMIT`."""
        d = self.graph.d
        if d > DENSE_TABLE_LIMIT:
            return None
        table = self._table
        if table is None:
            # doubling build: entries [2^i, 2^{i+1}) equal the lower half
            # with attribute i's descendants OR-ed in
            table = np.zeros(1 << d, dtype=self._mask_dtype)
            for i in range(d):
                size = 1 << i
                table[size:2 * size] = table[:size] | \
                    self._mask_dtype.type(self.desc[i])
            table.setflags(write=False)
            self._table = table
        return table

    # -- scalar kernels ------------------------------------------------------
    def better_masks(self, u: np.ndarray, v: np.ndarray) -> tuple[int, int]:
        """Return ``(Better(u, v), Better(v, u))`` as bitmasks."""
        powers = self._powers64
        if powers is None:  # d > 64: python-int masks stay exact
            b_uv = 0
            b_vu = 0
            for i in range(self.graph.d):
                if u[i] < v[i]:
                    b_uv |= 1 << i
                elif v[i] < u[i]:
                    b_vu |= 1 << i
            return b_uv, b_vu
        u = np.asarray(u)
        v = np.asarray(v)
        b_uv = int(powers[np.less(u, v)].sum(dtype=np.uint64))
        b_vu = int(powers[np.less(v, u)].sum(dtype=np.uint64))
        return b_uv, b_vu

    def dominates(self, u: np.ndarray, v: np.ndarray) -> bool:
        """True iff ``u ≻_pi v`` (u preferred to v)."""
        b_uv, b_vu = self.better_masks(u, v)
        if not (b_uv | b_vu):
            return False  # indistinguishable
        return (b_vu & ~self._desc_union(b_uv)) == 0

    def indistinguishable(self, u: np.ndarray, v: np.ndarray) -> bool:
        """True iff ``u ≈_pi v`` (equal on every relevant attribute)."""
        b_uv, b_vu = self.better_masks(u, v)
        return not (b_uv | b_vu)

    def compare(self, u: np.ndarray, v: np.ndarray) -> str:
        """Classify the pair: ``'>'``, ``'<'``, ``'~'`` or ``'='``.

        ``'>'`` means ``u ≻ v``, ``'<'`` means ``v ≻ u``, ``'='`` means
        indistinguishable and ``'~'`` means incomparable (indifferent but
        distinguishable).
        """
        b_uv, b_vu = self.better_masks(u, v)
        if not (b_uv | b_vu):
            return "="
        u_wins = (b_vu & ~self._desc_union(b_uv)) == 0
        v_wins = (b_uv & ~self._desc_union(b_vu)) == 0
        if u_wins and v_wins:  # pragma: no cover - impossible for valid graphs
            raise AssertionError("dominance in both directions")
        if u_wins:
            return ">"
        if v_wins:
            return "<"
        return "~"

    def top_mask(self, u: np.ndarray, v: np.ndarray) -> int:
        """``Top(u, v)``: topmost attributes where the tuples disagree.

        An attribute is *topmost* when none of its ancestors disagrees.
        """
        b_uv, b_vu = self.better_masks(u, v)
        diff = b_uv | b_vu
        top = 0
        for i in iter_bits(diff):
            if not (self.graph.ancestors_mask[i] & diff):
                top |= 1 << i
        return top

    def _desc_union(self, mask: int) -> int:
        table = self._dense_table()
        if table is not None:
            return int(table[mask])
        union = 0
        for i in iter_bits(mask):
            union |= self.desc[i]
        return union

    # -- bulk kernels ----------------------------------------------------------
    # Every operand of the GEMM kernel is 0/1 float32 (flags, the 0/1
    # descendant matrix, ones) and every product a count <= d, so no NaN
    # can arise.  A BLAS sgemm may still leave the FPU's invalid flag
    # set: it was seen twice as "invalid value encountered in matmul",
    # both times with exact answers, and never reproduced.  The flag is
    # noise, not a result, so the kernel does not turn it into a
    # warning.  (The decorator form costs less per call than a ``with``
    # block, which matters on the one-row insert path.)
    @np.errstate(invalid="ignore")
    def _dominated_flags(self, lt: np.ndarray, gt: np.ndarray) -> np.ndarray:
        """Pairwise dominance from comparison flags (the GEMM kernel).

        ``lt``/``gt`` are ``(..., d)`` booleans: the *dominator candidate*
        is better / worse on each attribute.  Returns a boolean array of
        the leading shape: candidate dominates.
        """
        shape = lt.shape[:-1]
        d = lt.shape[-1]
        lt_flat = lt.reshape(-1, d).astype(np.float32)
        gt_flat = gt.reshape(-1, d).astype(np.float32)
        covered = lt_flat @ self._desc_matrix
        # a win of the dominated side is fatal unless an ancestor covers it
        fatal = gt_flat * (covered == 0)
        fatal_any = (fatal @ self._ones)[:, 0] > 0
        distinguishable = ((lt_flat + gt_flat) @ self._ones)[:, 0] > 0
        return (distinguishable & ~fatal_any).reshape(shape)

    def _bitmask_flags(self, block: np.ndarray, against: np.ndarray,
                       arena: _Workspace) -> np.ndarray:
        """``(b, a)`` booleans: ``against[j] ≻_pi block[i]``.

        The returned array is backed by ``arena``: it is only valid
        until the next kernel call on that arena, so callers either
        consume it immediately or copy.
        """
        buv, bvu = _pack_better_masks(block, against, self._mask_dtype,
                                      arena)
        return self._eval_packed(buv, bvu, arena)

    def _eval_packed(self, buv: np.ndarray, bvu: np.ndarray,
                     arena: _Workspace) -> np.ndarray:
        """Evaluate Proposition 1 on pre-packed ``Better`` masks.

        ``buv``/``bvu`` come from :func:`_pack_better_masks` (possibly
        packed for a *different* graph over the same columns: the masks
        depend only on the ranks).  Reads the packed masks but never
        writes them, so a single packing can be replayed against many
        p-graphs.  The returned boolean array is workspace-backed.
        """
        d = self.graph.d
        mdtype = self._mask_dtype
        b, a = buv.shape
        utmp = arena.get("utmp", (b, a), mdtype)
        union = arena.get("union", (b, a), mdtype)
        bool_tmp = arena.get("btmp", (b, a), np.bool_)
        out = arena.get("out", (b, a), np.bool_)
        table = self._dense_table()
        if table is not None:
            indices = arena.get("idx", (b, a), np.intp)
            np.copyto(indices, buv, casting="unsafe")
            np.take(table, indices, out=union)
        else:
            # OR-reduce the descendant masks of buv's set bits
            union[...] = 0
            closures = self._closure_masks
            for i in range(d):
                np.bitwise_and(buv, mdtype.type(1 << i), out=utmp)
                np.not_equal(utmp, 0, out=bool_tmp)
                np.multiply(bool_tmp, closures[i], out=utmp,
                            casting="unsafe")
                np.bitwise_or(union, utmp, out=union)
        np.bitwise_not(union, out=union)
        np.bitwise_and(bvu, union, out=union)       # uncovered block wins
        np.equal(union, 0, out=out)                 # coverage holds
        np.bitwise_or(buv, bvu, out=utmp)
        np.not_equal(utmp, 0, out=bool_tmp)         # distinguishable
        np.logical_and(out, bool_tmp, out=out)
        return out

    def _scalar_flags(self, block: np.ndarray,
                      against: np.ndarray) -> np.ndarray:
        """``(b, a)`` booleans via per-pair scalar tests (reference)."""
        out = np.empty((block.shape[0], against.shape[0]), dtype=bool)
        for i in range(block.shape[0]):
            u = block[i]
            for j in range(against.shape[0]):
                out[i, j] = self.dominates(against[j], u)
        return out

    def _pair_flags(self, block: np.ndarray, against: np.ndarray,
                    kernel: str,
                    arena: _Workspace | None = None) -> np.ndarray:
        """Dispatch ``(b, a)`` pairwise flags to a concrete kernel.

        ``kernel`` must already be concrete (see :func:`select_kernel`).
        The result may be arena-backed (bitmask family): loops pass
        their leased ``arena`` down; one-shot callers may leave it
        ``None`` to lease per call.
        """
        if kernel == "bitmask":
            if arena is None:
                with _lease_workspace() as arena:
                    return self._bitmask_flags(block, against, arena)
            return self._bitmask_flags(block, against, arena)
        if kernel == "scalar":
            return self._scalar_flags(block, against)
        lt = against[None, :, :] < block[:, None, :]  # against better
        gt = against[None, :, :] > block[:, None, :]  # block better
        return self._dominated_flags(lt, gt)

    def dominators_mask(self, candidates: np.ndarray, target: np.ndarray,
                        kernel: str | None = None) -> np.ndarray:
        """Boolean vector: ``candidates[i] ≻_pi target`` for each row.

        ``candidates`` is an ``(m, d)`` rank matrix, ``target`` a length-``d``
        vector.
        """
        kernel = select_kernel(kernel, d=self.graph.d,
                               pairs=candidates.shape[0])
        target = np.asarray(target)
        flags = self._pair_flags(target.reshape(1, -1), candidates, kernel)
        result = flags[0]
        # workspace-backed results must not outlive the next kernel call
        return result.copy() if kernel == "bitmask" else result

    def dominated_mask(self, candidates: np.ndarray, target: np.ndarray,
                       kernel: str | None = None) -> np.ndarray:
        """Boolean vector: ``target ≻_pi candidates[i]`` for each row."""
        kernel = select_kernel(kernel, d=self.graph.d,
                               pairs=candidates.shape[0])
        target = np.asarray(target)
        flags = self._pair_flags(candidates, target.reshape(1, -1), kernel)
        result = flags[:, 0]
        return result.copy() if kernel == "bitmask" else result

    def any_dominator(self, candidates: np.ndarray, target: np.ndarray,
                      kernel: str | None = None) -> bool:
        """True iff some row of ``candidates`` dominates ``target``."""
        return bool(self.dominators_mask(candidates, target,
                                         kernel=kernel).any())

    def screen_block(self, block: np.ndarray, against: np.ndarray,
                     chunk: int = 256, check=None,
                     kernel: str | None = None) -> np.ndarray:
        """Boolean survivors mask: rows of ``block`` not dominated by any
        row of ``against``.

        Quadratic but fully vectorised; used as the oracle, as the dense
        base case of recursive screening, and by the scan-based algorithms.
        ``chunk`` bounds the per-block workspace (``chunk x AGAINST_CHUNK``
        mask matrices).  ``check`` (e.g. ``ExecutionContext.check``) is
        invoked once per outer chunk and between inner ``against`` blocks,
        so deadlines and cancellations interrupt long screenings even when
        the early exit below keeps firing on the first inner block.  The
        loop holds one workspace lease for its whole run
        (:func:`_lease_workspace`), so screens nested inside a ``check``
        callback operate on distinct scratch buffers.
        """
        n = block.shape[0]
        m = against.shape[0]
        survivors = np.ones(n, dtype=bool)
        if n == 0 or m == 0:
            return survivors
        kernel = select_kernel(kernel, d=self.graph.d,
                               pairs=min(chunk, n) * min(AGAINST_CHUNK, m))
        with _lease_workspace() as arena:
            for start in range(0, n, chunk):
                if check is not None:
                    check("screen-block")
                stop = min(start + chunk, n)
                sub = block[start:stop]  # (c, d)
                dominated = np.zeros(stop - start, dtype=bool)
                for a_start in range(0, m, AGAINST_CHUNK):
                    if a_start and check is not None:
                        check("screen-block")
                    part = against[a_start:a_start + AGAINST_CHUNK]
                    flags = self._pair_flags(sub, part, kernel, arena)
                    dominated |= flags.any(axis=1)
                    if dominated.all():
                        break
                survivors[start:stop] = ~dominated
        return survivors


def screen_block_multi(dominances, rows: np.ndarray, *, chunk: int = 256,
                       check=None, counters=None) -> list:
    """Self-screen ``rows`` under many p-graphs, packing each block once.

    ``dominances`` is a sequence of :class:`Dominance` oracles whose
    graphs all span the same ``rows`` columns.  Returns one boolean
    survivors mask per oracle -- ``masks[k][i]`` is True iff no row of
    ``rows`` dominates ``rows[i]`` under graph ``k`` -- exactly
    ``[dom.screen_block(rows, rows) for dom in dominances]`` but with
    the packed ``Better``-mask matrices shared: each
    ``(block, against)`` pair is packed once (a *mask miss*) and then
    replayed through :meth:`Dominance._eval_packed` for every graph
    that still has undominated rows in the block (each replay after the
    first is a *mask hit*).

    ``counters`` (a mutable mapping) accumulates exact ``"mask_hits"``
    and ``"mask_misses"`` counts and records the concrete replay backend
    under ``"kernel"``, so ``fusion`` gate artifacts show which backend
    did the work.  Falls back to
    independent :meth:`~Dominance.screen_block` calls when the
    dimensionality exceeds :data:`BITMASK_WIDTH_LIMIT` (no packed
    representation exists there).
    """
    dominances = list(dominances)
    n = rows.shape[0]
    k = len(dominances)
    if k == 0:
        return []
    d = rows.shape[1]
    if d > BITMASK_WIDTH_LIMIT or n == 0:
        if counters is not None:
            counters["kernel"] = select_kernel(
                None, d=d, pairs=n * n if n else None)
        return [dom.screen_block(rows, rows, chunk=chunk, check=check)
                for dom in dominances]
    if counters is not None:
        counters["kernel"] = "bitmask"
    mdtype = _mask_dtype_for(d)
    for dom in dominances:
        dom._dense_table()  # build outside the hot loop
    dominated = [np.zeros(n, dtype=bool) for _ in range(k)]
    with _lease_workspace() as arena:
        for start in range(0, n, chunk):
            if check is not None:
                check("screen-multi")
            stop = min(start + chunk, n)
            block = rows[start:stop]
            for a_start in range(0, n, AGAINST_CHUNK):
                if a_start and check is not None:
                    check("screen-multi")
                active = [idx for idx in range(k)
                          if not dominated[idx][start:stop].all()]
                if not active:
                    break
                part = rows[a_start:a_start + AGAINST_CHUNK]
                buv, bvu = _pack_better_masks(block, part, mdtype, arena)
                if counters is not None:
                    counters["mask_misses"] = \
                        counters.get("mask_misses", 0) + 1
                    counters["mask_hits"] = \
                        counters.get("mask_hits", 0) + len(active) - 1
                for idx in active:
                    flags = dominances[idx]._eval_packed(buv, bvu, arena)
                    dominated[idx][start:stop] |= flags.any(axis=1)
    return [~mask for mask in dominated]
