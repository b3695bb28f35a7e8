"""Compiled ``native`` dominance kernels (optional numba backend).

The packed-bitmask family (:mod:`repro.core.dominance`) already keeps
its temporaries in a reusable workspace arena, but every ``screen_block``
call still pays a handful of NumPy ufunc launches per attribute and a
full ``(block, against)`` mask matrix of memory traffic per chunk.  This
module compiles the same Proposition 1 test --

    dominated(u, v)  =  ((b_uv | b_vu) != 0)
                      & ((b_vu & ~desc_union(b_uv)) == 0)

-- into tight machine loops with ``numba.njit(cache=True, nogil=True)``:

* :func:`screen_chunk` fuses packing and evaluation per *pair* with a
  per-row early exit (a row stops scanning ``against`` at its first
  dominator), writing into a caller-owned ``dominated`` vector -- the
  steady-state hot path performs zero Python-level allocations;
* :func:`pair_flags` fills a full ``(b, a)`` flag matrix for the
  ``dominators_mask`` / ``dominated_mask`` entry points;
* :func:`pack_masks` / :func:`eval_any` split packing from evaluation so
  :func:`~repro.core.dominance.screen_block_multi` can pack each block
  once and replay it for many p-graphs (the fused batch path).

All mask operands are ``uint64`` (one compiled signature per function,
``d <= 64`` guaranteed by the caller); descendant unions come from the
dense ``desc_union[mask]`` table when the dimensionality permits one and
from an OR-reduction over set bits otherwise.

**Import is cheap and never touches numba.**  The first call to
:func:`availability` probes lazily: it imports numba, JIT-compiles and
warms every kernel on a miniature workload, and records the outcome.
When numba is missing or compilation fails the probe leaves the
pure-Python source functions in place (they are njit-compatible Python
and remain callable -- the test suite uses them to exercise the native
code path without a compiler) and reports a precise reason string
(``"numba missing"`` vs ``"JIT compile failed: ..."``) that
:func:`~repro.core.dominance.select_kernel` callers surface in trace
events and in the host tag printed by ``repro-skyline gate``.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["availability", "available", "unavailable_reason", "warmup",
           "pair_flags", "screen_chunk", "pack_masks", "eval_any"]

_PROBE_LOCK = threading.Lock()
_AVAILABLE: bool | None = None  # None = not probed yet
_REASON: str | None = None

#: Placeholder passed for the dense table when ``d`` exceeds the dense
#: table limit (numba cannot take ``None`` for an array argument).
EMPTY_TABLE = np.zeros(1, dtype=np.uint64)


# -- kernel sources ----------------------------------------------------------
# Plain-Python definitions restricted to the njit-compatible subset.
# ``_probe`` rebinds the module-level names to their compiled versions
# when numba is importable and compilation succeeds.

def _screen_chunk(block, against, closures, table, use_table,
                  dominated):
    """Mark rows of ``block`` dominated by some row of ``against``.

    ``dominated`` is a ``(b,)`` boolean vector updated in place; rows
    already marked are skipped, and each remaining row stops scanning at
    its first dominator (per-row early exit).
    """
    b, d = block.shape
    a = against.shape[0]
    one = np.uint64(1)
    zero = np.uint64(0)
    for i in range(b):
        if dominated[i]:
            continue
        for j in range(a):
            buv = zero  # Better(against[j], block[i])
            bvu = zero  # Better(block[i], against[j])
            for k in range(d):
                x = block[i, k]
                y = against[j, k]
                if x > y:
                    buv |= one << np.uint64(k)
                elif x < y:
                    bvu |= one << np.uint64(k)
            if (buv | bvu) == zero:
                continue  # indistinguishable
            if use_table:
                union = table[buv]
            else:
                union = zero
                mask = buv
                k = 0
                while mask != zero:
                    if (mask & one) != zero:
                        union |= closures[k]
                    mask >>= one
                    k += 1
            if (bvu & ~union) == zero:
                dominated[i] = True
                break


def _pair_flags(block, against, closures, table, use_table, out):
    """Fill ``out[i, j] = against[j] dominates block[i]`` (no early exit)."""
    b, d = block.shape
    a = against.shape[0]
    one = np.uint64(1)
    zero = np.uint64(0)
    for i in range(b):
        for j in range(a):
            buv = zero
            bvu = zero
            for k in range(d):
                x = block[i, k]
                y = against[j, k]
                if x > y:
                    buv |= one << np.uint64(k)
                elif x < y:
                    bvu |= one << np.uint64(k)
            if (buv | bvu) == zero:
                out[i, j] = False
                continue
            if use_table:
                union = table[buv]
            else:
                union = zero
                mask = buv
                k = 0
                while mask != zero:
                    if (mask & one) != zero:
                        union |= closures[k]
                    mask >>= one
                    k += 1
            out[i, j] = (bvu & ~union) == zero


def _pack_masks(block, against, buv, bvu):
    """Pack pairwise ``Better`` masks into caller-owned uint64 matrices.

    ``buv[i, j] = Better(against[j], block[i])`` and ``bvu[i, j] =
    Better(block[i], against[j])`` -- graph-independent, so one packing
    serves every p-graph over the same columns (the fused replay loop).
    """
    b, d = block.shape
    a = against.shape[0]
    one = np.uint64(1)
    zero = np.uint64(0)
    for i in range(b):
        for j in range(a):
            mu = zero
            mv = zero
            for k in range(d):
                x = block[i, k]
                y = against[j, k]
                if x > y:
                    mu |= one << np.uint64(k)
                elif x < y:
                    mv |= one << np.uint64(k)
            buv[i, j] = mu
            bvu[i, j] = mv


def _eval_any(buv, bvu, closures, table, use_table, dominated):
    """Proposition 1 over pre-packed masks, any-reduced per row.

    Updates ``dominated`` in place with a per-row early exit, skipping
    rows already marked (mirrors :func:`_screen_chunk` on packed input).
    """
    b, a = buv.shape
    one = np.uint64(1)
    zero = np.uint64(0)
    for i in range(b):
        if dominated[i]:
            continue
        for j in range(a):
            mu = buv[i, j]
            mv = bvu[i, j]
            if (mu | mv) == zero:
                continue
            if use_table:
                union = table[mu]
            else:
                union = zero
                mask = mu
                k = 0
                while mask != zero:
                    if (mask & one) != zero:
                        union |= closures[k]
                    mask >>= one
                    k += 1
            if (mv & ~union) == zero:
                dominated[i] = True
                break


pair_flags = _pair_flags
screen_chunk = _screen_chunk
pack_masks = _pack_masks
eval_any = _eval_any


# -- probe / availability ----------------------------------------------------

def warmup() -> None:
    """Run every kernel on a miniature workload.

    Under numba this triggers (or loads, with ``cache=True``) the JIT
    compilation of each kernel's single ``uint64``/``float64``
    signature; pool workers call it once at spawn so queries never pay
    compile latency.
    """
    block = np.asarray([[0.0, 1.0], [1.0, 0.0]])
    against = np.asarray([[0.0, 0.0]])
    closures = np.zeros(2, dtype=np.uint64)
    table = np.zeros(4, dtype=np.uint64)
    for use_table in (True, False):
        dominated = np.zeros(2, dtype=bool)
        screen_chunk(block, against, closures, table, use_table,
                     dominated)
        out = np.zeros((2, 1), dtype=bool)
        pair_flags(block, against, closures, table, use_table, out)
        if not (dominated == out[:, 0]).all():  # pragma: no cover
            raise AssertionError("native kernels disagree at warmup")
        buv = np.zeros((2, 1), dtype=np.uint64)
        bvu = np.zeros((2, 1), dtype=np.uint64)
        pack_masks(block, against, buv, bvu)
        packed = np.zeros(2, dtype=bool)
        eval_any(buv, bvu, closures, table, use_table, packed)
        if not (packed == dominated).all():  # pragma: no cover
            raise AssertionError("native packed replay disagrees at warmup")


def _probe() -> None:
    global _AVAILABLE, _REASON
    global pair_flags, screen_chunk, pack_masks, eval_any
    try:
        import numba
    except Exception as error:
        _AVAILABLE = False
        _REASON = f"numba missing ({type(error).__name__}: {error})"
        return
    try:
        jit = numba.njit(cache=True, nogil=True)
        compiled = {name: jit(function) for name, function in (
            ("pair_flags", _pair_flags),
            ("screen_chunk", _screen_chunk),
            ("pack_masks", _pack_masks),
            ("eval_any", _eval_any))}
        pair_flags = compiled["pair_flags"]
        screen_chunk = compiled["screen_chunk"]
        pack_masks = compiled["pack_masks"]
        eval_any = compiled["eval_any"]
        warmup()
    except Exception as error:
        # leave the pure-Python sources bound: never half-compiled
        pair_flags = _pair_flags
        screen_chunk = _screen_chunk
        pack_masks = _pack_masks
        eval_any = _eval_any
        _AVAILABLE = False
        message = f"{type(error).__name__}: {error}"
        _REASON = f"JIT compile failed: {message[:300]}"
        return
    _AVAILABLE = True
    _REASON = None


def availability() -> tuple[bool, str | None]:
    """``(available, reason)`` -- probing (and JIT-warming) on first call.

    ``reason`` is ``None`` when the compiled backend is usable, else a
    precise explanation: ``"numba missing (...)"`` or
    ``"JIT compile failed: ..."``.
    """
    if _AVAILABLE is None:
        with _PROBE_LOCK:
            if _AVAILABLE is None:
                _probe()
    return bool(_AVAILABLE), _REASON


def available() -> bool:
    """True iff the compiled backend imported and JIT-warmed cleanly."""
    return availability()[0]


def unavailable_reason() -> str | None:
    """Why the backend is off (``None`` when it is on)."""
    return availability()[1]
