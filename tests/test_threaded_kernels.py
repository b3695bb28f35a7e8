"""Thread-equivalence property suite for the intra-worker screen layer.

The screening thread budget must never change an answer: for every
kernel family, chunk size, dimensionality and budget the ``prange``
screen returns bit-identical survivors and exact counters, the budget
reaches no other screen, deadlines/cancellation are honoured between
chunks, and the layer composes with the process pool without
oversubscribing (workers pin a budget of 1).  The suite also covers the
budget-resolution order (override > pin > env > auto, or 1 without the
compiled layer), the workspace-lease arena (nested kernel entries get
distinct scratch buffers) and the ``threads`` perf-gate tier.
"""

import random
import time

import numpy as np
import pytest

import repro.core.dominance as dominance_module
from repro.core import native
from repro.core.dominance import (DENSE_TABLE_LIMIT, KERNELS, Dominance,
                                  _lease_workspace,
                                  _resolve_screen_threads,
                                  screen_block_multi)
from repro.engine.context import CancellationToken, ExecutionContext
from repro.engine.errors import QueryCancelled, QueryTimeout
from repro.engine.threads import (DEFAULT_THREAD_CAP, ENV_VAR,
                                  WIDE_THREAD_CAP, auto_budget,
                                  budget_source, cap_for,
                                  effective_budget, pin_thread_budget,
                                  thread_budget)
from repro.sampling.random_pexpr import PExpressionSampler


def sample_graph(d: int, seed: int = 0):
    rng = random.Random(f"threads:{d}:{seed}")
    sampler = PExpressionSampler([f"A{i}" for i in range(d)],
                                 method="counting")
    return sampler.sample_graph(rng)


@pytest.fixture(autouse=True)
def _clean_policy(monkeypatch):
    """Every test starts from the pure auto policy."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    pin_thread_budget(None)
    yield
    pin_thread_budget(None)


@pytest.fixture
def parallel_layer(monkeypatch):
    """The compiled ``prange`` layer switched on.

    With numba this is the real layer.  Without it the njit-compatible
    Python sources stand in for the compiled kernels (``prange`` is
    plain ``range`` there), so a budget above 1 still routes
    ``screen_block`` through ``_native_screen_parallel`` and the parity
    checks below compare two distinct code paths on every host.
    Returns the thread counts requested from the ``prange`` path.
    """
    requested = []
    compiled = native.parallel_available()
    apply = native.set_thread_count
    if not compiled:
        monkeypatch.setattr(native, "availability", lambda: (True, None))
        monkeypatch.setattr(native, "parallel_availability",
                            lambda: (True, None))

    def set_thread_count(threads):
        requested.append(threads)
        return apply(threads) if compiled else threads

    monkeypatch.setattr(native, "set_thread_count", set_thread_count)
    return requested


# -- budget resolution -------------------------------------------------------

@pytest.mark.usefixtures("parallel_layer")
class TestBudgetResolution:
    def test_auto_is_cores_capped(self):
        budget, source = budget_source(4)
        assert source == "auto"
        assert budget == auto_budget(4)
        assert 1 <= budget <= DEFAULT_THREAD_CAP

    def test_env_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        assert budget_source() == (7, "env")

    def test_pin_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        pin_thread_budget(3)
        assert budget_source() == (3, "pinned")

    def test_override_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        pin_thread_budget(3)
        with thread_budget(5):
            assert budget_source() == (5, "override")
            assert effective_budget() == 5

    def test_override_nests_and_restores(self):
        with thread_budget(2):
            with thread_budget(6):
                assert effective_budget() == 6
            assert effective_budget() == 2
        assert budget_source()[1] == "auto"

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            with thread_budget(0):
                pass  # pragma: no cover
        with pytest.raises(ValueError):
            pin_thread_budget(-1)

    def test_unparseable_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "banana")
        assert budget_source()[1] == "auto"
        monkeypatch.setenv(ENV_VAR, "0")
        assert budget_source()[1] == "auto"

    def test_d_aware_cap(self):
        assert cap_for(DENSE_TABLE_LIMIT) == DEFAULT_THREAD_CAP
        assert cap_for(DENSE_TABLE_LIMIT + 1) == WIDE_THREAD_CAP
        assert cap_for(None) == DEFAULT_THREAD_CAP

    def test_explicit_argument_is_forced(self):
        assert _resolve_screen_threads(3, 4) == (3, True)
        with thread_budget(2):
            # the argument wins over the scope, both are "forced"
            assert _resolve_screen_threads(5, 4) == (5, True)
            assert _resolve_screen_threads(None, 4) == (2, True)


# -- thread equivalence ------------------------------------------------------

def _case(d: int, n: int, m: int, seed: int = 0):
    graph = sample_graph(d, seed)
    rng = np.random.default_rng(seed * 31 + d)
    block = rng.integers(0, 4, size=(n, d)).astype(float)
    against = np.vstack([block[: m // 2],
                         rng.normal(size=(m - m // 2, d)).round(1)])
    return Dominance(graph).prepare(), block, against


@pytest.mark.parametrize("d", [5, 18])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("chunk", [16, 64])
@pytest.mark.parametrize("budget", [2, 5])
def test_screen_block_thread_equivalence(parallel_layer, d, kernel, chunk,
                                         budget):
    dominance, block, against = _case(d, 200, 240)
    serial = dominance.screen_block(block, against, chunk=chunk,
                                    kernel=kernel, threads=1)
    threaded = dominance.screen_block(block, against, chunk=chunk,
                                      kernel=kernel, threads=budget)
    assert np.array_equal(serial, threaded)
    # the budget reaches the native prange screen and nothing else
    assert parallel_layer == ([budget] if kernel == "native" else [])


def test_screen_block_budget_scope_equivalence(parallel_layer):
    dominance, block, against = _case(6, 300, 300)
    serial = dominance.screen_block(block, against)
    with thread_budget(4):
        scoped = dominance.screen_block(block, against)
    assert np.array_equal(serial, scoped)
    assert parallel_layer == [4]


def test_screen_block_oversized_budget_clamps_to_rows(parallel_layer):
    dominance, block, against = _case(4, 9, 50)
    serial = dominance.screen_block(block, against, threads=1)
    huge = dominance.screen_block(block, against, threads=64)
    assert np.array_equal(serial, huge)
    assert parallel_layer == [9]


def test_screen_block_multi_equivalence_and_exact_counters(parallel_layer):
    graphs = [sample_graph(6, seed) for seed in range(3)]
    dominances = [Dominance(g).prepare() for g in graphs]
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 3, size=(150, 6)).astype(float)
    serial_counters, threaded_counters = {}, {}
    serial = screen_block_multi(dominances, rows, chunk=32,
                                counters=serial_counters, threads=1)
    threaded = screen_block_multi(dominances, rows, chunk=32,
                                  counters=threaded_counters, threads=4)
    for left, right in zip(serial, threaded):
        assert np.array_equal(left, right)
    # identical chunk structure at every budget => exact counters
    for key in ("mask_hits", "mask_misses", "kernel"):
        assert serial_counters[key] == threaded_counters[key]
    assert serial_counters["kernel"] == "native"
    assert serial_counters["threads"] == 1
    assert parallel_layer == [4]


def test_deadline_honoured_between_chunks():
    dominance, block, against = _case(5, 400, 400)
    context = ExecutionContext(deadline=time.monotonic() - 1.0)
    with pytest.raises(QueryTimeout):
        dominance.screen_block(block, against, chunk=16,
                               check=context.check, threads=4)


def test_cancel_honoured_mid_screen_between_chunks():
    dominance, block, against = _case(5, 400, 400)
    token = CancellationToken()
    context = ExecutionContext(cancel=token)
    calls = [0]

    def check(phase):
        calls[0] += 1
        if calls[0] > 3:
            token.cancel()
        context.check(phase)

    with pytest.raises(QueryCancelled):
        dominance.screen_block(block, against, chunk=16, check=check,
                               threads=4)
    assert calls[0] > 3


# -- workspace arena ---------------------------------------------------------

def test_nested_leases_are_distinct_arenas():
    with _lease_workspace() as outer:
        with _lease_workspace() as inner:
            assert inner is not outer
            a = outer.get("buv", (4, 4), np.uint32)
            b = inner.get("buv", (4, 4), np.uint32)
            assert not np.shares_memory(a, b)
    # steady state re-leases a warm arena instead of allocating
    with _lease_workspace() as warm:
        assert warm in (outer, inner)


def test_reentrant_screen_inside_check_callback(monkeypatch):
    """Regression: a screen nested inside a ``check`` callback used to
    share the single per-thread workspace with the outer screen,
    clobbering its live ``buv``/``bvu``/``dom`` buffers.  Leasing gives
    the nested entry a distinct arena, so the outer answer is unchanged.
    """
    monkeypatch.setattr(dominance_module, "AGAINST_CHUNK", 16)
    dominance, block, against = _case(6, 120, 200)
    other, other_block, other_against = _case(6, 40, 60, seed=3)
    expected = dominance.screen_block(block, against, chunk=8)

    def nosy_check(phase):
        other.screen_block(other_block, other_against, chunk=8)

    got = dominance.screen_block(block, against, chunk=8,
                                 check=nosy_check)
    assert np.array_equal(expected, got)


# -- native parallel layer ---------------------------------------------------

def test_parallel_sources_alias_serial_without_numba():
    available, reason = native.parallel_availability()
    if available:
        pytest.skip("compiled parallel layer is up on this host")
    assert reason
    assert native.set_thread_count(4) == 1
    # the graceful degradation: the parallel names stay bound to the
    # pure-python sources (``prange`` is plain ``range`` there), so
    # dispatch never branches and the answers match the serial kernels
    dominance, block, against = _case(4, 30, 40)
    block = np.ascontiguousarray(block, dtype=np.float64)
    against = np.ascontiguousarray(against, dtype=np.float64)
    closures, table, use_table = dominance._native_tables()
    serial = np.zeros(block.shape[0], dtype=bool)
    parallel = np.zeros(block.shape[0], dtype=bool)
    native.screen_chunk(block, against, closures, table, use_table,
                        serial)
    native.screen_chunk_parallel(block, against, closures, table,
                                 use_table, parallel)
    assert np.array_equal(serial, parallel)
    shape = (block.shape[0], against.shape[0])
    buv_s, bvu_s = (np.zeros(shape, dtype=np.uint64) for _ in range(2))
    buv_p, bvu_p = (np.zeros(shape, dtype=np.uint64) for _ in range(2))
    native.pack_masks(block, against, buv_s, bvu_s)
    native.pack_masks_parallel(block, against, buv_p, bvu_p)
    assert np.array_equal(buv_s, buv_p) and np.array_equal(bvu_s, bvu_p)
    dom_s = np.zeros(block.shape[0], dtype=bool)
    dom_p = np.zeros(block.shape[0], dtype=bool)
    native.eval_any(buv_s, bvu_s, closures, table, use_table, dom_s)
    native.eval_any_parallel(buv_p, bvu_p, closures, table, use_table,
                             dom_p)
    assert np.array_equal(dom_s, dom_p)


def test_set_thread_count_reports_applied_budget():
    applied = native.set_thread_count(2)
    assert applied >= 1
    if not native.parallel_available():
        assert applied == 1


# -- pool x threads topology -------------------------------------------------

def test_pool_workers_pin_thread_budget():
    from repro.algorithms.base import Stats
    from repro.algorithms.parallel import parallel_osdc
    from repro.engine.pool import WORKER_THREAD_BUDGET, pool_available

    assert WORKER_THREAD_BUDGET == 1
    if not pool_available():
        pytest.skip("worker pool unavailable in this environment")
    graph = sample_graph(4)
    rng = np.random.default_rng(11)
    ranks = rng.normal(size=(120, 4)).round(2)
    stats = Stats()
    context = ExecutionContext.create(stats=stats)
    result = parallel_osdc(ranks, graph, context=context, processes=2,
                           min_chunk=16)
    serial = Dominance(graph).prepare().screen_block(ranks, ranks)
    assert set(np.asarray(result).tolist()) == \
        set(np.flatnonzero(serial).tolist())
    assert stats.extra["pool"]["thread_budget"] == WORKER_THREAD_BUDGET


@pytest.mark.usefixtures("parallel_layer")
def test_plan_records_thread_budget():
    from repro.planner import Plan

    from repro.algorithms.base import Stats

    stats = Stats()
    context = ExecutionContext.create(stats=stats)
    Plan("osdc", "because", thread_budget=1).record(context)
    assert stats.extra["plan"]["thread_budget"] == 1
    stats = Stats()
    context = ExecutionContext.create(stats=stats)
    with thread_budget(6):
        Plan("osdc", "because").record(context)
    assert stats.extra["plan"]["thread_budget"] == 6


@pytest.mark.usefixtures("parallel_layer")
def test_context_threads_scopes_the_query():
    from repro.algorithms.base import Stats
    from repro.core.query import p_skyline

    expression = "A0 & A1 & A2 & A3 & A4"
    rng = np.random.default_rng(3)
    ranks = rng.normal(size=(80, 5)).round(2)
    stats = Stats()
    context = ExecutionContext.create(stats=stats, threads=3)
    baseline = p_skyline(ranks, expression, algorithm="osdc")
    scoped = p_skyline(ranks, expression, algorithm="osdc",
                       context=context)
    assert np.array_equal(np.asarray(baseline), np.asarray(scoped))
    assert stats.extra["thread_budget"] == 3


def test_budget_is_one_without_the_parallel_layer(monkeypatch):
    """Without the compiled layer every screen is serial, so whatever
    the context, pin or environment asks for, the budget recorded is
    the one applied -- 1 -- with the reason."""
    from repro.algorithms.base import Stats
    from repro.core.query import p_skyline

    why = "numba missing (test)"
    monkeypatch.setattr(native, "parallel_availability",
                        lambda: (False, why))
    monkeypatch.setenv(ENV_VAR, "7")
    pin_thread_budget(3)
    source = f"compiled parallel layer unavailable: {why}"
    assert budget_source() == (1, source)
    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=16, threads=4)
    p_skyline(np.random.default_rng(3).normal(size=(80, 5)).round(2),
              "A0 & A1 & A2 & A3 & A4", algorithm="osdc", context=context)
    assert stats.extra["thread_budget"] == 1
    events = [event.counters for event in context.trace.events()
              if event.phase == "kernel-select"]
    assert events and all(event["threads"] == 1
                          and event["threads_source"] == source
                          for event in events)


# -- threads gate tier -------------------------------------------------------

SPEEDUP = "floor screens[threaded-screen-d8].speedup_threaded_over_serial"


def compare_threaded(current: dict, baseline: dict | None) -> dict:
    from repro.bench.perf_gate import TIERS, evaluate

    return evaluate(TIERS["threads"], current, baseline)


def failing(verdicts: dict) -> list[str]:
    return [key for key, verdict in verdicts.items()
            if verdict.startswith("fail")]


def test_threaded_gate_quick_self_check():
    from repro.bench.perf_gate import run_threaded_gate

    artifact = run_threaded_gate(quick=True)
    assert artifact["schema"] == "repro-perf-gate-threads/1"
    assert {"cpu_count", "thread_budget"} <= set(artifact["host"])
    for record in artifact["screens"]:
        assert record["parity"] is True
    # the quick run gates against itself; the speedup floor is
    # unmeasured (this host may be single-core or serial)
    verdicts = compare_threaded(artifact, artifact)
    assert failing(verdicts) == []
    speedups = [verdict for key, verdict in verdicts.items()
                if key.startswith("floor ")]
    assert speedups and all(v.startswith("unmeasured: ")
                            for v in speedups)
    if not (artifact["native_available"]
            and artifact["parallel_native"]):
        # both budgets ran the same serial screen: parity is vacuous
        assert all(record["layer"] == "serial"
                   for record in artifact["screens"])
        parities = [verdict for key, verdict in verdicts.items()
                    if key.endswith(".parity")]
        assert parities and all(v.startswith(
            "unmeasured: compiled parallel layer unavailable")
            for v in parities)


def _fake_artifact():
    return {
        "schema": "repro-perf-gate-threads/1",
        "workload": {"budget": 4},
        "cores": 8,
        "host": {"cpu_count": 8, "thread_budget": 4},
        "native_available": True,
        "parallel_native": True,
        "screens": [{
            "name": "threaded-screen-d8",
            "kernel": "native",
            "budget": 4,
            "parity": True,
            "survivors": 100,
            "timings": {"serial": 1.0, "threaded": 0.5},
            "speedup_threaded_over_serial": 2.0,
        }],
        "pool": {"available": True, "worker_thread_budget": 1,
                 "expected_budget": 1},
    }


def test_compare_threaded_flags_parity_violation():
    artifact = _fake_artifact()
    artifact["screens"][0]["parity"] = False
    assert failing(compare_threaded(artifact, None)) == [
        "equal screens[threaded-screen-d8].parity"]


def test_compare_threaded_flags_slow_speedup_on_compiled_hosts():
    artifact = _fake_artifact()
    artifact["screens"][0]["speedup_threaded_over_serial"] = 1.1
    assert failing(compare_threaded(artifact, None)) == [SPEEDUP]
    # the speedup is unmeasured off compiled-parallel hosts...
    waived = _fake_artifact()
    waived["parallel_native"] = False
    waived["screens"][0]["speedup_threaded_over_serial"] = 1.1
    verdicts = compare_threaded(waived, None)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP].startswith(
        "unmeasured: compiled parallel layer unavailable")
    # ...and on small hosts
    small = _fake_artifact()
    small["cores"] = 2
    small["screens"][0]["speedup_threaded_over_serial"] = 1.1
    verdicts = compare_threaded(small, None)
    assert failing(verdicts) == []
    assert verdicts[SPEEDUP].startswith("unmeasured: host has 2 core(s)")


def test_compare_threaded_flags_pool_budget_mismatch():
    artifact = _fake_artifact()
    artifact["pool"]["worker_thread_budget"] = 4
    assert failing(compare_threaded(artifact, None)) == [
        "equal pool.worker_thread_budget"]


def test_compare_threaded_host_shape_gates_timing_drift():
    baseline = _fake_artifact()
    slower = _fake_artifact()
    slower["screens"][0]["timings"] = {"serial": 10.0, "threaded": 5.0}
    slower["screens"][0]["speedup_threaded_over_serial"] = 2.0
    # same host shape: the 10x regression trips the drift gate
    timings = "time screens[threaded-screen-d8].timings"
    assert failing(compare_threaded(slower, baseline)) == [
        f"{timings}.serial", f"{timings}.threaded"]
    # different host shape (e.g. CI runner with another core count):
    # timings are unmeasured, survivors still gate
    moved = _fake_artifact()
    moved["host"] = {"cpu_count": 2, "thread_budget": 2}
    moved["screens"][0]["timings"] = {"serial": 10.0, "threaded": 5.0}
    verdicts = compare_threaded(moved, baseline)
    assert failing(verdicts) == []
    assert verdicts[timings].startswith("unmeasured: host shape")
    diverged = _fake_artifact()
    diverged["host"] = {"cpu_count": 2, "thread_budget": 2}
    diverged["screens"][0]["survivors"] = 7
    assert failing(compare_threaded(diverged, baseline)) == [
        "exact screens[threaded-screen-d8].survivors"]


def test_threaded_bench_record_shape():
    from repro.bench.perf_gate import run_threaded_bench

    record = run_threaded_bench(6, 1_500, budget=2)
    assert record["parity"] is True
    assert record["budget"] == 2
    assert record["layer"] in ("prange-native", "serial")
    assert set(record["timings"]) == {"serial", "threaded"}


# -- CLI surface -------------------------------------------------------------

def test_cli_list_backends_reports_thread_layer(capsys):
    from repro.cli import main

    assert main(["gate"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.strip().split(": ", 1)
                 for line in out.split("tiers:")[0].splitlines()[1:])
    assert "threads" in lines
    assert lines["threads"].startswith("budget ")
    source = budget_source()[1]
    assert f"({source})" in lines["threads"]
    if native.parallel_available():
        assert "prange-native" in lines["threads"]
    else:
        assert "layer serial (compiled parallel layer unavailable" in \
            lines["threads"]
