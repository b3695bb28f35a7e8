"""Cross-kernel property tests: bitmask ≡ gemm ≡ scalar.

The three dominance kernel families (packed-bitmask, coverage GEMM,
scalar reference) implement the same Proposition 1 test
and must agree bit-for-bit on every workload -- including
dimensionalities that cross the dense-table limit (d > 16, OR-reduction
path) and the bitmask width limit (d > 64 has no packed kernel at all).
Adversarial datasets stress tie handling: exact duplicates, all-equal
rows, coarse integer grids, anti-correlated fronts, constant columns,
negatives.
"""

import random

import numpy as np
import pytest

from repro.algorithms.base import Stats
from repro.bench.perf_gate import TIERS, evaluate
from repro.core.dominance import (DENSE_TABLE_LIMIT, KERNELS, Dominance,
                                  current_forced_kernel, forced_kernel,
                                  select_kernel)
from repro.core.relation import Relation
from repro.core.attributes import lowest
from repro.engine import ExecutionContext
from repro.sampling.random_pexpr import PExpressionSampler


def sample_graph(d: int, seed: int = 0):
    rng = random.Random(f"kernels:{d}:{seed}")
    sampler = PExpressionSampler([f"A{i}" for i in range(d)],
                                 method="counting")
    return sampler.sample_graph(rng)


def adversarial_datasets(d: int, rng: np.random.Generator):
    """Datasets chosen to stress tie handling and mask packing."""
    n = 40
    yield "gaussian", rng.normal(size=(n, d)).round(2)
    yield "all-equal", np.zeros((n, d))
    base = rng.integers(0, 3, size=(n, d)).astype(float)
    yield "integer-grid", base
    yield "duplicates", np.vstack([base[: n // 2], base[: n // 2]])
    anti = rng.normal(size=(n, d))
    anti[:, 0] = -anti[:, 1:].sum(axis=1)
    yield "anti-correlated", anti.round(2)
    constant = rng.normal(size=(n, d)).round(2)
    constant[:, d // 2] = 7.0
    yield "constant-column", constant
    yield "negatives", -np.abs(rng.normal(size=(n, d))).round(2)


@pytest.mark.parametrize("d", [2, 3, 8, 16, 17, 20])
def test_kernels_agree_on_adversarial_data(d):
    graph = sample_graph(d)
    dominance = Dominance(graph).prepare()
    rng = np.random.default_rng(d)
    for name, ranks in adversarial_datasets(d, rng):
        half = ranks.shape[0] // 2
        block, against = ranks[:half], ranks[half:]
        reference = None
        for kernel in KERNELS:
            screened = dominance.screen_block(block, against,
                                              kernel=kernel)
            dominators = dominance.dominators_mask(against, block[0],
                                                   kernel=kernel)
            dominated = dominance.dominated_mask(against, block[0],
                                                 kernel=kernel)
            got = (screened.copy(), dominators.copy(), dominated.copy())
            if reference is None:
                reference = got
                continue
            for label, a, b in zip(("screen", "dominators", "dominated"),
                                   reference, got):
                assert np.array_equal(a, b), \
                    f"{kernel} disagrees on {label} for {name} at d={d}"


@pytest.mark.parametrize("d", [1, 4, 9, 20])
def test_gemm_pair_flags_are_exact_without_numeric_warnings(d):
    """The coverage GEMM equals the scalar reference pair for pair, and
    no floating-point warning escapes it (they are raised as errors)."""
    dominance = Dominance(sample_graph(d, seed=3))
    rng = np.random.default_rng(100 + d)
    with np.errstate(all="raise"):
        for rows, cols in ((1, 1), (7, 13), (64, 40), (150, 3)):
            block = rng.integers(-3, 4, size=(rows, d)).astype(float)
            against = rng.normal(size=(cols, d)).round(1)
            against[: cols // 2] = block[0]  # exact ties
            assert np.array_equal(
                dominance._pair_flags(block, against, "gemm"),
                dominance._pair_flags(block, against, "scalar"))


def test_kernels_agree_self_screen_with_duplicates():
    graph = sample_graph(6)
    dominance = Dominance(graph).prepare()
    rng = np.random.default_rng(6)
    ranks = rng.integers(0, 2, size=(30, 6)).astype(float)
    ranks = np.vstack([ranks, ranks[:10]])  # exact duplicates survive
    masks = [dominance.screen_block(ranks, ranks, kernel=kernel).copy()
             for kernel in KERNELS]
    for kernel, mask in zip(KERNELS[1:], masks[1:]):
        assert np.array_equal(masks[0], mask), kernel


def test_bitmask_beyond_width_limit_rejected():
    # p-graphs cap at 64 attributes, which is also the widest packable
    # mask; the policy layer still guards the boundary explicitly
    assert select_kernel(None, d=65) == "gemm"
    with pytest.raises(ValueError, match="bitmask"):
        select_kernel("bitmask", d=65)
    # at the limit itself the packed kernel works and agrees with scalar
    graph = sample_graph(64)
    dominance = Dominance(graph).prepare()
    ranks = np.random.default_rng(0).normal(size=(16, 64)).round(1)
    packed = dominance.screen_block(ranks, ranks, kernel="bitmask").copy()
    scalar = dominance.screen_block(ranks, ranks, kernel="scalar")
    assert np.array_equal(packed, scalar)


def test_select_kernel_policy():
    from repro.core.dominance import BITMASK_WIDTH_LIMIT
    assert select_kernel(None, d=6, pairs=1 << 20) == "bitmask"
    assert select_kernel(None, d=6, pairs=8) == "gemm"  # small block
    assert select_kernel(None, d=70) == "gemm"  # beyond the width limit
    assert select_kernel("scalar", d=6) == "scalar"
    # boundary: the packed family serves exactly up to the width limit
    assert select_kernel(None, d=BITMASK_WIDTH_LIMIT,
                         pairs=1 << 20) == "bitmask"
    assert select_kernel(None, d=BITMASK_WIDTH_LIMIT + 1,
                         pairs=1 << 20) == "gemm"
    # the dense-table limit does not change the family, only how the
    # descendant union is materialised inside it
    assert select_kernel(None, d=DENSE_TABLE_LIMIT,
                         pairs=1 << 20) == "bitmask"
    assert select_kernel(None, d=DENSE_TABLE_LIMIT + 1,
                         pairs=1 << 20) == "bitmask"
    with pytest.raises(ValueError):
        select_kernel("fancy", d=6)
    # the compiled family is gone: its name is unknown, not a fallback
    with pytest.raises(ValueError, match="unknown kernel 'native'"):
        select_kernel("native", d=6)


def test_forced_kernel_wins_over_everything():
    assert current_forced_kernel() is None
    with forced_kernel("scalar"):
        assert current_forced_kernel() == "scalar"
        assert select_kernel("bitmask", d=6, pairs=1 << 20) == "scalar"
        with forced_kernel("gemm"):  # nesting restores the outer force
            assert select_kernel(None, d=6) == "gemm"
        assert current_forced_kernel() == "scalar"
    assert current_forced_kernel() is None


def test_forced_kernel_rejects_unknown_names():
    for name in ("auto", "native"):
        with pytest.raises(ValueError):
            with forced_kernel(name):
                pass


def test_screen_block_chunked_early_exit_still_checks():
    """Chunking keeps the early exit AND the cancellation callback."""
    graph = sample_graph(4)
    dominance = Dominance(graph)
    rng = np.random.default_rng(4)
    # one dominating row first, then strictly worse rows: every later
    # chunk is fully dominated, so the inner loop exits early
    best = np.zeros((1, 4))
    worse = np.abs(rng.normal(size=(2000, 4))) + 1.0
    ranks = np.vstack([best, worse])
    calls = []
    mask = dominance.screen_block(ranks, ranks, chunk=64,
                                  check=lambda phase: calls.append(phase))
    assert mask[0] and not mask[1:].any()
    # the callback fires between outer chunks even when inner loops
    # early-exit -- one call per outer chunk at minimum
    assert len(calls) >= (ranks.shape[0] + 63) // 64
    assert set(calls) == {"screen-block"}


def test_stats_and_trace_record_selected_kernel():
    from repro.algorithms import get_algorithm
    graph = sample_graph(5)
    ranks = np.random.default_rng(5).normal(size=(200, 5))
    for name in ("bnl", "sfs", "less", "salsa", "osdc", "naive"):
        stats = Stats()
        context = ExecutionContext.create(stats=stats, trace=16)
        get_algorithm(name)(ranks, graph, context=context)
        assert stats.extra["kernel"] in KERNELS, name
        events = [event for event in context.trace.events()
                  if event.phase == "kernel-select"]
        assert events and \
            events[0].counters["kernel"] == stats.extra["kernel"], name


def test_algorithms_agree_under_each_forced_kernel():
    from repro.algorithms import get_algorithm
    graph = sample_graph(5, seed=1)
    ranks = np.random.default_rng(15).integers(
        0, 4, size=(120, 5)).astype(float)
    for name in ("bnl", "sfs", "less", "salsa", "osdc", "dc", "naive"):
        function = get_algorithm(name)
        results = []
        for kernel in KERNELS:
            with forced_kernel(kernel):
                results.append(sorted(int(i)
                                      for i in function(ranks, graph)))
        for kernel, result in zip(KERNELS[1:], results[1:]):
            assert results[0] == result, (name, kernel)


def test_incremental_maintainer_accepts_kernel():
    from repro.algorithms.incremental import PSkylineMaintainer
    graph = sample_graph(4, seed=2)
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(60, 4)).round(2)
    maintainers = {kernel: PSkylineMaintainer(graph, kernel=kernel)
                   for kernel in KERNELS}
    for row in rows:
        for maintainer in maintainers.values():
            maintainer.insert(row)
    skylines = [np.sort(m.skyline_ranks(), axis=0)
                for m in maintainers.values()]
    for kernel, skyline in zip(KERNELS[1:], skylines[1:]):
        assert np.array_equal(skylines[0], skyline), kernel


def test_relation_ranks_are_c_contiguous():
    records = [{"a": float(i), "b": float(-i)} for i in range(10)]
    relation = Relation.from_records(records, [lowest("a"), lowest("b")])
    assert relation.ranks.flags["C_CONTIGUOUS"]
    taken = relation.take(np.asarray([3, 1, 2]))
    assert taken.ranks.flags["C_CONTIGUOUS"]


def test_dense_table_limit_crossing():
    """d=16 builds the 2^16 table; d=17 falls back to OR-reduction."""
    dense = Dominance(sample_graph(DENSE_TABLE_LIMIT)).prepare()
    assert dense._table is not None
    assert dense._table.size == 1 << DENSE_TABLE_LIMIT
    assert not dense._table.flags.writeable
    wide = Dominance(sample_graph(DENSE_TABLE_LIMIT + 1)).prepare()
    assert wide._table is None


def test_perf_gate_quick_run_and_compare():
    artifact = TIERS["kernels"].run(quick=True)
    names = {record["name"] for record in artifact["kernels"]}
    assert {"screen-d4", "screen-d8", "screen-d16",
            "scalar-parity-d4"} <= names
    for record in artifact["algorithms"]:
        assert record["kernel"] in KERNELS
    tier = TIERS["kernels"]
    # self-comparison has no failing check; the speedup floors are
    # unmeasured at quick scale (the 2x gate applies to the full run)
    verdicts = evaluate(tier, artifact, artifact)
    assert not [v for v in verdicts.values() if v.startswith("fail")]
    assert verdicts["floor kernels[screen-d4].speedup_bitmask_over_gemm"] \
        .startswith("unmeasured: quick scale")
    # a counter regression is caught
    broken = {
        "schema": artifact["schema"],
        "kernels": [dict(record) for record in artifact["kernels"]],
        "algorithms": [dict(record) for record in artifact["algorithms"]],
    }
    broken["algorithms"][0]["output_size"] += 1
    verdicts = evaluate(tier, broken, artifact)
    assert verdicts["exact algorithms[bnl].output_size"].startswith("fail")
    # a speedup collapse is caught within-run, without any baseline
    slow = dict(artifact["kernels"][0])
    slow["speedup_bitmask_over_gemm"] = 1.01
    verdicts = evaluate(tier, {"kernels": [slow], "algorithms": []}, None)
    assert verdicts["floor kernels[screen-d4].speedup_bitmask_over_gemm"] \
        .startswith("fail")
    assert verdicts["exact kernels[screen-d4].survivors"] == \
        "unmeasured: no committed baseline"


def test_cli_gate_kernels_quick_smoke(tmp_path, monkeypatch, capsys):
    import json

    from pathlib import Path

    from repro.cli import main

    # --check reads the committed baseline from the working directory
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCH_4.json").write_text(
        (root / "BENCH_4.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert main(["gate", "kernels", "--quick", "--check"]) == 0
    out = capsys.readouterr().out
    assert "kernels (BENCH_4.json)" in out
    artifact = json.loads(
        (tmp_path / "bench-out" / "BENCH_4.json").read_text())
    assert artifact["verdicts"]
    assert not [v for v in artifact["verdicts"].values()
                if v.startswith("fail")]
