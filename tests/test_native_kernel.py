"""The compiled ``native`` backend: probe, fallback, and dispatch.

The cross-kernel property tests (``tests/test_kernels.py``) iterate
``KERNELS`` and therefore cover whichever path the host machine has.
This module pins *both* paths explicitly by monkeypatching the probe
outcome in :mod:`repro.core.native`:

* simulated **unavailable** -- every ``"native"`` request must degrade
  to ``"bitmask"`` with a precise reason, surfaced as a
  ``kernel-fallback`` trace event and by the ``gate`` host tag;
* simulated **available** -- the native dispatch runs the (njit-
  compatible, still plain-Python here) kernel sources, which must agree
  bit-for-bit with the scalar and bitmask families, including the
  dense-table limit crossing and the fused multi-graph replay counters.

The ``native`` gate tier (workload
:func:`repro.bench.perf_gate.run_native_gate`, checks in
:data:`~repro.bench.perf_gate.TIERS`) is exercised on synthetic
artifacts for both backend states plus a quick real run.
"""

import random

import numpy as np
import pytest

from repro.algorithms.base import Stats, resolve_kernel
from repro.bench.perf_gate import TIERS, evaluate, run_native_gate
from repro.core import native
from repro.core.dominance import (DENSE_TABLE_LIMIT, Dominance,
                                  forced_kernel, native_available,
                                  screen_block_multi, select_kernel)
from repro.engine import ExecutionContext
from repro.sampling.random_pexpr import PExpressionSampler


def sample_graph(d: int, seed: int = 0):
    rng = random.Random(f"native:{d}:{seed}")
    sampler = PExpressionSampler([f"A{i}" for i in range(d)],
                                 method="counting")
    return sampler.sample_graph(rng)


@pytest.fixture
def simulate_available(monkeypatch):
    """Pretend the probe succeeded (kernel sources stay plain Python)."""
    monkeypatch.setattr(native, "_AVAILABLE", True)
    monkeypatch.setattr(native, "_REASON", None)


@pytest.fixture
def simulate_unavailable(monkeypatch):
    monkeypatch.setattr(native, "_AVAILABLE", False)
    monkeypatch.setattr(native, "_REASON", "numba missing (simulated)")


# -- probe / availability ----------------------------------------------------

def test_availability_invariant():
    available, reason = native.availability()
    assert isinstance(available, bool)
    if available:
        assert reason is None
    else:
        # the reason string must identify the failure class precisely
        assert reason.startswith(("numba missing",
                                  "JIT compile failed: "))
    assert native.available() == available
    assert native.unavailable_reason() == reason
    assert native_available() == available


def test_unavailable_probe_keeps_pure_sources_bound():
    if native.available():
        pytest.skip("compiled backend present on this host")
    # the dispatch path must still work: sources are njit-compatible
    # Python and stay bound when numba is absent or compilation failed
    assert native.screen_chunk is native._screen_chunk
    assert native.pair_flags is native._pair_flags
    assert native.pack_masks is native._pack_masks
    assert native.eval_any is native._eval_any


def test_warmup_smoke():
    # runs the bound kernels (compiled or plain) on the miniature
    # workload, cross-checking screen against flags and packed replay
    native.warmup()


# -- selection policy under both backend states ------------------------------

def test_select_kernel_degrades_without_backend(simulate_unavailable):
    assert select_kernel("native", d=6) == "bitmask"
    assert select_kernel(None, d=6, pairs=1 << 20) == "bitmask"
    with forced_kernel("native"):
        assert select_kernel(None, d=6, pairs=1 << 20) == "bitmask"
        assert select_kernel("gemm", d=6) == "bitmask"  # force wins first
    # small blocks and over-wide graphs are unaffected by availability
    assert select_kernel(None, d=6, pairs=8) == "gemm"
    assert select_kernel(None, d=70) == "gemm"


def test_select_kernel_prefers_native_with_backend(simulate_available):
    assert select_kernel(None, d=6, pairs=1 << 20) == "native"
    assert select_kernel("native", d=6) == "native"
    with forced_kernel("native"):
        assert select_kernel("gemm", d=6) == "native"
    # the auto guards still apply before the native preference
    assert select_kernel(None, d=6, pairs=8) == "gemm"
    assert select_kernel(None, d=70) == "gemm"
    with pytest.raises(ValueError, match="native"):
        select_kernel("native", d=65)


def test_resolve_kernel_records_fallback_reason(simulate_unavailable):
    dominance = Dominance(sample_graph(5))
    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=16)
    resolved = resolve_kernel(dominance, context, kernel="native",
                              pairs=1 << 20)
    assert resolved == "bitmask"
    assert stats.extra["kernel"] == "bitmask"
    events = [event for event in context.trace.events()
              if event.phase == "kernel-fallback"]
    assert len(events) == 1
    assert events[0].counters["requested"] == "native"
    assert events[0].counters["kernel"] == "bitmask"
    assert events[0].counters["reason"] == "numba missing (simulated)"


def test_resolve_kernel_fallback_event_for_forced_native(
        simulate_unavailable):
    dominance = Dominance(sample_graph(5))
    context = ExecutionContext.create(stats=Stats(), trace=16)
    with forced_kernel("native"):
        assert resolve_kernel(dominance, context, kernel=None,
                              pairs=1 << 20) == "bitmask"
    assert any(event.phase == "kernel-fallback"
               for event in context.trace.events())


def test_resolve_kernel_quiet_when_native_serves(simulate_available):
    dominance = Dominance(sample_graph(5))
    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=16)
    assert resolve_kernel(dominance, context, kernel="native",
                          pairs=1 << 20) == "native"
    assert stats.extra["kernel"] == "native"
    assert not any(event.phase == "kernel-fallback"
                   for event in context.trace.events())


def test_resolve_kernel_quiet_for_interpreted_requests(
        simulate_unavailable):
    dominance = Dominance(sample_graph(5))
    context = ExecutionContext.create(stats=Stats(), trace=16)
    assert resolve_kernel(dominance, context, kernel="bitmask",
                          pairs=1 << 20) == "bitmask"
    assert not any(event.phase == "kernel-fallback"
                   for event in context.trace.events())


# -- native dispatch agrees with the reference kernels -----------------------

@pytest.mark.parametrize("d", [3, 8, DENSE_TABLE_LIMIT,
                               DENSE_TABLE_LIMIT + 1, 20])
def test_native_dispatch_matches_scalar(simulate_available, d):
    dominance = Dominance(sample_graph(d)).prepare()
    rng = np.random.default_rng(d)
    ranks = rng.integers(0, 3, size=(40, d)).astype(float)
    ranks = np.vstack([ranks, ranks[:8]])  # duplicates stress ties
    half = ranks.shape[0] // 2
    block, against = ranks[:half], ranks[half:]
    native_screen = dominance.screen_block(block, against,
                                           kernel="native").copy()
    assert np.array_equal(
        native_screen, dominance.screen_block(block, against,
                                              kernel="scalar"))
    assert np.array_equal(
        dominance.dominators_mask(against, block[0], kernel="native"),
        dominance.dominators_mask(against, block[0], kernel="scalar"))
    assert np.array_equal(
        dominance.dominated_mask(against, block[0], kernel="native"),
        dominance.dominated_mask(against, block[0], kernel="scalar"))
    # the dense desc_union table is used exactly up to the limit
    closures, table, use_table = dominance._native_tables()
    assert use_table == (d <= DENSE_TABLE_LIMIT)
    assert closures.dtype == np.uint64
    if use_table:
        assert table.size == 1 << d
        assert table.dtype == np.uint64


def test_native_screen_chunked_early_exit_still_checks(
        simulate_available):
    dominance = Dominance(sample_graph(4))
    rng = np.random.default_rng(4)
    best = np.zeros((1, 4))
    worse = np.abs(rng.normal(size=(2000, 4))) + 1.0
    ranks = np.vstack([best, worse])
    calls = []
    mask = dominance.screen_block(ranks, ranks, chunk=64,
                                  kernel="native",
                                  check=lambda phase: calls.append(phase))
    assert mask[0] and not mask[1:].any()
    assert len(calls) >= (ranks.shape[0] + 63) // 64
    assert set(calls) == {"screen-block"}


def test_screen_block_multi_native_replay_matches_bitmask(
        simulate_available):
    d = 5
    graphs = [sample_graph(d, seed=s) for s in range(4)]
    rows = np.random.default_rng(7).integers(
        0, 4, size=(120, d)).astype(float)
    native_counters: dict = {}
    native_masks = screen_block_multi(
        [Dominance(graph) for graph in graphs], rows, chunk=48,
        counters=native_counters)
    assert native_counters["kernel"] == "native"
    bitmask_counters: dict = {}
    with forced_kernel("bitmask"):
        bitmask_masks = screen_block_multi(
            [Dominance(graph) for graph in graphs], rows, chunk=48,
            counters=bitmask_counters)
    assert bitmask_counters["kernel"] == "bitmask"
    for got, want in zip(native_masks, bitmask_masks):
        assert np.array_equal(got, want)
    # the shared-packing economics are identical across replay backends
    assert native_counters["mask_misses"] == \
        bitmask_counters["mask_misses"]
    assert native_counters["mask_hits"] == bitmask_counters["mask_hits"]


def test_screen_block_multi_forced_native_degrades(simulate_unavailable):
    d = 4
    graphs = [sample_graph(d, seed=s) for s in range(2)]
    rows = np.random.default_rng(9).integers(
        0, 4, size=(60, d)).astype(float)
    counters: dict = {}
    with forced_kernel("native"):
        masks = screen_block_multi([Dominance(g) for g in graphs], rows,
                                   counters=counters)
    assert counters["kernel"] == "bitmask"
    for graph, mask in zip(graphs, masks):
        want = Dominance(graph).screen_block(rows, rows, kernel="scalar")
        assert np.array_equal(mask, want)


def test_fusion_stats_record_replay_kernel():
    from repro.core.query import p_skyline_batch
    rows = np.random.default_rng(31).integers(
        0, 6, size=(300, 3)).astype(float)
    expressions = ["A0 & A1 & A2", "A0 & A1 & A2",  # duplicate
                   "A0 * A1 * A2",                  # contained base
                   "A0 & A1 * A2"]                  # shares the base
    stats = Stats()
    p_skyline_batch(rows, expressions, stats=stats)
    fusion = stats.extra["fusion"]
    assert fusion["screened"] == 2  # the multi replay actually ran
    expected = "native" if native_available() else "bitmask"
    assert fusion["kernel"] == expected


# -- native gate tier --------------------------------------------------------

NATIVE_SCHEMA = "repro-perf-gate-native/1"
SPEEDUP = "floor screens[native-screen-d4].speedup_native_over_bitmask"


def compare_native(current: dict, baseline: dict | None) -> dict:
    return evaluate(TIERS["native"], current, baseline)


def failing(verdicts: dict) -> list[str]:
    return [key for key, verdict in verdicts.items()
            if verdict.startswith("fail")]


def _fake_artifact(*, available: bool, cores: int = 4) -> dict:
    return {
        "schema": NATIVE_SCHEMA,
        "cores": cores,
        "native_available": available,
        "native_reason": None if available else
            "numba missing (simulated)",
        "fallback_kernel": "native" if available else "bitmask",
        "screens": [{
            "name": "native-screen-d4",
            "survivors": 7,
            "timings": {"bitmask": 1.0, "native": 0.2}
            if available else {"bitmask": 1.0, "native": 1.0},
            "speedup_native_over_bitmask": 5.0 if available else 1.0,
        }],
    }


def test_compare_native_passes_both_backend_states():
    verdicts = compare_native(_fake_artifact(available=True), None)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP] == "pass"
    verdicts = compare_native(_fake_artifact(available=False), None)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP].startswith(
        "unmeasured: compiled backend unavailable (numba missing")


def test_compare_native_catches_speedup_collapse():
    slow = _fake_artifact(available=True)
    slow["screens"][0]["speedup_native_over_bitmask"] = 1.2
    assert failing(compare_native(slow, None)) == [SPEEDUP]
    # ...but a single-core host cannot measure it
    slow["cores"] = 1
    verdicts = compare_native(slow, None)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP].startswith("unmeasured: host has 1 core(s)")


def test_compare_native_catches_broken_fallback():
    broken = _fake_artifact(available=False)
    broken["fallback_kernel"] = "native"  # resolution must degrade
    assert failing(compare_native(broken, None)) == [
        "equal fallback_kernel"]
    silent = _fake_artifact(available=False)
    silent["native_reason"] = None  # the reason is part of the contract
    assert failing(compare_native(silent, None)) == ["equal native_reason"]


def test_compare_native_baseline_survivors_always_gate():
    current = _fake_artifact(available=False)
    baseline = _fake_artifact(available=True)  # different backend...
    baseline["screens"][0]["survivors"] = 9
    assert failing(compare_native(current, baseline)) == [
        "exact screens[native-screen-d4].survivors"]
    # ...so timings are unmeasured even when wildly different
    baseline["screens"][0]["survivors"] = 7
    baseline["screens"][0]["timings"] = {"bitmask": 1e-6, "native": 1e-6}
    verdicts = compare_native(current, baseline)
    assert failing(verdicts) == []
    assert verdicts["time screens[native-screen-d4].timings"].startswith(
        "unmeasured: native_available differs")
    # same backend: the TIME_FACTOR check applies
    same = _fake_artifact(available=False)
    same["screens"][0]["timings"] = {"bitmask": 1e-6, "native": 1e-6}
    assert failing(compare_native(current, same)) == [
        "time screens[native-screen-d4].timings.bitmask",
        "time screens[native-screen-d4].timings.native"]


def test_run_native_gate_quick_self_check():
    artifact = run_native_gate(quick=True)
    assert artifact["schema"] == NATIVE_SCHEMA
    assert artifact["native_available"] == native_available()
    expected = "native" if artifact["native_available"] else "bitmask"
    assert artifact["fallback_kernel"] == expected
    if not artifact["native_available"]:
        assert artifact["native_reason"].startswith(
            ("numba missing", "JIT compile failed: "))
    names = {record["name"] for record in artifact["screens"]}
    assert {"native-screen-d4", "native-screen-d8",
            "native-screen-d16"} <= names
    # the quick run gates against itself; the speedup floor is
    # unmeasured (quick workloads are small, and this host may be on
    # the fallback)
    verdicts = compare_native(artifact, artifact)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP].startswith("unmeasured: ")


# -- CLI surface -------------------------------------------------------------

def test_cli_list_backends(capsys):
    from repro.cli import main
    assert main(["gate"]) == 0
    out = capsys.readouterr().out
    host, _catalogue = out.split("tiers:\n")
    lines = dict(line.strip().split(": ", 1)
                 for line in host.strip().splitlines()[1:])
    assert set(lines) == {"native", "bitmask", "gemm", "scalar"}
    for name in ("bitmask", "gemm", "scalar"):
        assert lines[name] == "available"
    if native_available():
        assert lines["native"] == "available"
    else:
        assert lines["native"].startswith("unavailable (")
        assert ("numba missing" in lines["native"] or
                "JIT compile failed" in lines["native"])
