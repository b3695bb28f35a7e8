"""The CI performance gate: one registry of pinned-workload tiers.

``repro-skyline gate [TIER ...] [--check] [--quick] [--out DIR]`` (or
``python -m repro.bench.perf_gate``, the same parser) runs the named
tiers and writes one JSON artifact per tier into ``--out`` (default
``bench-out/``), named after the tier's committed baseline
(``BENCH_4.json`` ... ``BENCH_8.json`` at the repo root), so a baseline
is only regenerated by an explicit ``--out .``.  With no tier named it
prints the host tag -- the core count -- and the tier catalogue.

Every tier is declared once in :data:`TIERS`: its baseline file, a
workload function returning the artifact payload, and a tuple of
declarative :class:`Check` objects of five kinds:

* ``floor`` / ``ceiling`` -- a within-run timing ratio (speedups,
  overheads) against a module constant; machine-independent to first
  order, but unmeasured on quick workloads;
* ``equal`` -- a within-run exact equality (cache counters, survivor
  parity, fallback resolution);
* ``exact`` -- a work counter equal to the baseline's (deterministic
  given the pinned seeds: survivors, output sizes, fusion counters);
* ``close`` -- a structural counter within :data:`COUNTER_TOLERANCE`
  of the baseline's (tie-breaking in ``argpartition``/``argsort`` may
  shift slightly across NumPy versions);
* ``time`` -- wall time under :data:`TIME_FACTOR` times the
  baseline's, applied only between identically shaped hosts
  (``cpu_count`` of the ``host`` tag; untagged baselines always
  compare).

A check that cannot be measured on this host or at this scale -- fewer
cores than workers, quick workloads, no comparable baseline -- is
*waived*: each waiver is a predicate on the artifact's host tag or
scale, and a waived check records ``"unmeasured: <reason>"``, never a
pass.  Every artifact carries the resulting ``verdicts`` map
(check -> ``pass`` / ``fail: ...`` / ``unmeasured: ...``); ``--check``
exits non-zero when any verdict fails.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..core.bitsets import iter_bits

__all__ = ["Check", "Tier", "TIERS", "host_tag", "evaluate", "render",
           "kernel_workload", "run_kernel_bench", "run_algorithm_bench",
           "run_gate", "run_parallel_gate", "run_sharded_gate",
           "run_server_gate", "run_batch_gate", "main"]

#: Pinned workload parameters.  Changing any of these invalidates the
#: committed baselines -- regenerate them (``--out .``) in the same
#: commit.
SEED = 2015
KERNEL_DIMS = (4, 8, 16)
KERNEL_ROWS = 100_000
ALGO_ROWS = 20_000
ALGO_DIMS = 6
GATE_ALGORITHMS = ("bnl", "sfs", "less", "salsa", "osdc")
PARALLEL_ROWS = 500_000
PARALLEL_DIMS = 6
PARALLEL_WORKERS = 4
BATCH_ROWS = 64_000
BATCH_QUERIES = 16
BATCH_REPEATS = 5
AUTO_DIMS = 8
AUTO_WIDTH = 6
AUTO_QUERIES = 4
AUTO_REPEATS = 5
AUTO_ALPHA = 1.0  # independent attributes
SHARDED_ROWS = 100_000
SHARDED_DIMS = 6
SHARDED_SHARDS = 4
SHARDED_WORKERS = 4
INSERT_BASE_ROWS = 20_000
INSERT_STREAM = 2_000
SERVER_ROWS = 20_000
SERVER_DIMS = 5
SERVER_STATEMENTS = 64
SERVER_CLIENTS = 4
FUSION_ROWS = 40_000
FUSION_DIMS = 6
FUSION_QUERIES = 64
FUSION_INTENTS = 6
FUSION_CORPUS = "tests/corpus"

#: Baseline tolerances: structural counters may drift by this relative
#: amount; wall time must stay under this factor (shared CI runners).
COUNTER_TOLERANCE = 0.2
TIME_FACTOR = 10.0

#: Within-run floors and ceilings.  The pooled and sharded speedups
#: need at least as many cores as workers; below that they are waived
#: and only the ``SINGLE_CORE_OVERHEAD`` ceiling (which any passing
#: speedup satisfies too) bounds the orchestration cost.  The
#: warm-over-cold, batch, cache, fusion and insert ratios measure work
#: or start-up removed, so they gate on every host.  The default path
#: at the planner's parallel threshold must beat serial ``osdc`` end to
#: end (``MAX_AUTO_OVER_OSDC``) wherever the host has a core per pool
#: worker.
MIN_SPEEDUP = 2.0
MIN_PARALLEL_SPEEDUP = 2.0
SINGLE_CORE_OVERHEAD = 2.5
MIN_WARM_OVER_COLD = 1.5
MIN_BATCH_SPEEDUP = 2.5
MAX_AUTO_OVER_OSDC = 1.0
MIN_SHARDED_SPEEDUP = 1.3
MAX_INSERT_OVERHEAD = 1.2
MIN_CACHE_SPEEDUP = 2.0
MIN_FUSED_SPEEDUP = 2.0


# -- host tag ----------------------------------------------------------------

def host_tag() -> dict:
    """The ``host`` stamped into every artifact: ``cpu_count`` (the
    cores this process may use), the host *shape* that wall-time checks
    compare.  Every kernel family is pure NumPy and always available,
    so nothing else varies by host."""
    from ..engine.pool import usable_cores

    return {"cpu_count": usable_cores()}


def _shape(artifact: dict) -> dict | None:
    """The host shape wall-time checks compare: the core count.  Older
    baselines also carry a thread budget, which no check reads."""
    host = artifact.get("host")
    return host and {"cpu_count": host.get("cpu_count")}


def _artifact(schema: str, quick: bool, workload: dict, **payload) -> dict:
    host = host_tag()
    return {"schema": schema,
            "workload": {"seed": SEED, "quick": quick, **workload},
            "cores": host["cpu_count"], "host": host, **payload}


# -- workloads ---------------------------------------------------------------

def _pinned_case(rows: int, dims: int, seed: int):
    """The deterministic ``(ranks, graph)`` pair for one workload."""
    from ..sampling.random_pexpr import PExpressionSampler

    rng = random.Random(f"perf-gate:{seed}:{dims}")
    nrng = np.random.default_rng(seed + dims)
    graph = PExpressionSampler(
        [f"A{i}" for i in range(dims)],
        method="counting").sample_graph(rng)
    ranks = np.ascontiguousarray(nrng.normal(size=(rows, dims)).round(3))
    return ranks, graph


def kernel_workload(ranks: np.ndarray, graph):
    """Split a dataset into the ``bench_pscreen``-style screening pair.

    Median split on the first root attribute: the better half is the
    ``against`` set, the worse half is the ``block`` to screen -- the
    exact shape of PSCREEN's dense base case at scale.
    """
    root = next(iter_bits(graph.roots))
    column = ranks[:, root]
    tau = float(np.median(column))
    against = np.ascontiguousarray(ranks[column < tau])
    block = np.ascontiguousarray(ranks[column >= tau])
    if against.shape[0] == 0 or block.shape[0] == 0:  # degenerate median
        half = ranks.shape[0] // 2
        against, block = ranks[:half], ranks[half:]
    return block, against


def run_kernel_bench(dims: int, rows: int, seed: int = SEED,
                     kernels: Sequence[str] = ("bitmask", "gemm")) -> dict:
    """Time ``screen_block`` per kernel on one pinned workload."""
    from ..core.dominance import Dominance

    ranks, graph = _pinned_case(rows, dims, seed)
    dominance = Dominance(graph).prepare()
    block, against = kernel_workload(ranks, graph)
    record = {
        "name": f"screen-d{dims}",
        "d": dims,
        "rows": int(rows),
        "block_rows": int(block.shape[0]),
        "against_rows": int(against.shape[0]),
        "timings": {},
    }
    survivors = None
    for kernel in kernels:
        # warm up workspaces and tables off the clock
        dominance.screen_block(block[:512], against[:512], kernel=kernel)
        start = time.perf_counter()
        mask = dominance.screen_block(block, against, kernel=kernel)
        record["timings"][kernel] = time.perf_counter() - start
        count = int(mask.sum())
        if survivors is None:
            survivors = count
        elif count != survivors:
            raise AssertionError(
                f"kernel {kernel!r} disagrees on screen-d{dims}: "
                f"{count} survivors vs {survivors}")
    record["survivors"] = survivors
    if "bitmask" in record["timings"] and "gemm" in record["timings"]:
        record["speedup_bitmask_over_gemm"] = (
            record["timings"]["gemm"] / record["timings"]["bitmask"])
    return record


def run_algorithm_bench(name: str, ranks: np.ndarray, graph) -> dict:
    """One end-to-end algorithm run with counters and the chosen kernel."""
    from ..algorithms.base import Stats, get_algorithm
    from ..engine import ExecutionContext

    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=64)
    function = get_algorithm(name)
    function(ranks, graph, context=context)  # warm caches off the clock
    stats = Stats()
    context = ExecutionContext.create(stats=stats, trace=64)
    start = time.perf_counter()
    result = function(ranks, graph, context=context)
    seconds = time.perf_counter() - start
    return {
        "name": name,
        "rows": int(ranks.shape[0]),
        "d": int(graph.d),
        "seconds": seconds,
        "output_size": int(np.asarray(result).size),
        "kernel": stats.extra.get("kernel"),
        "dominance_tests": stats.dominance_tests,
        "passes": stats.passes,
        "recursive_calls": stats.recursive_calls,
        "pruned_by_filter": stats.pruned_by_filter,
    }


def run_gate(*, quick: bool = False) -> dict:
    """The ``kernels`` tier: per-kernel screens plus scan/D&C runs."""
    kernel_rows = 4_000 if quick else KERNEL_ROWS
    algo_rows = 2_000 if quick else ALGO_ROWS
    kernels = [run_kernel_bench(dims, kernel_rows) for dims in KERNEL_DIMS]
    # scalar parity probe: tiny, but pins all three families to the same
    # survivor count on a shared workload
    parity = run_kernel_bench(KERNEL_DIMS[0], 400,
                              kernels=("bitmask", "gemm", "scalar"))
    parity["name"] = "scalar-parity-d4"
    # too small to gate on a timing ratio -- only survivor parity matters
    parity.pop("speedup_bitmask_over_gemm", None)
    ranks, graph = _pinned_case(algo_rows, ALGO_DIMS, SEED)
    algorithms = [run_algorithm_bench(name, ranks, graph)
                  for name in GATE_ALGORITHMS]
    return _artifact(
        "repro-perf-gate/1", quick,
        {"kernel_rows": kernel_rows, "kernel_dims": list(KERNEL_DIMS),
         "algorithm_rows": algo_rows, "algorithm_dims": ALGO_DIMS,
         "algorithms": list(GATE_ALGORITHMS)},
        kernels=kernels + [parity],
        algorithms=algorithms)


def run_parallel_gate(*, quick: bool = False) -> dict:
    """The ``pool`` tier (:mod:`repro.bench.pool_bench`).  The auto
    workload stays at the planner's parallel threshold in quick mode
    too: below it no query would reach the pool."""
    from ..planner import DEFAULT_PLANNER
    from .pool_bench import measure_auto, measure_batch, measure_parallel

    parallel_rows = 40_000 if quick else PARALLEL_ROWS
    batch_rows = 8_000 if quick else BATCH_ROWS
    batch_queries = 6 if quick else BATCH_QUERIES
    batch_repeats = 1 if quick else BATCH_REPEATS
    auto_rows = DEFAULT_PLANNER.parallel_threshold
    auto_queries = 2 if quick else AUTO_QUERIES
    auto_repeats = 1 if quick else AUTO_REPEATS
    return _artifact(
        "repro-perf-gate-parallel/1", quick,
        {"parallel_rows": parallel_rows, "batch_rows": batch_rows,
         "batch_queries": batch_queries, "dims": PARALLEL_DIMS,
         "workers": PARALLEL_WORKERS, "auto_rows": auto_rows},
        parallel=measure_parallel(parallel_rows, PARALLEL_DIMS,
                                  workers=PARALLEL_WORKERS, seed=SEED),
        batch=measure_batch(batch_rows, PARALLEL_DIMS,
                            queries=batch_queries,
                            workers=PARALLEL_WORKERS, seed=SEED,
                            repeats=batch_repeats),
        auto=measure_auto(auto_rows, AUTO_DIMS, queries=auto_queries,
                          width=AUTO_WIDTH, repeats=auto_repeats,
                          alpha=AUTO_ALPHA, seed=SEED))


def run_sharded_gate(*, quick: bool = False) -> dict:
    """The ``shards`` tier (:mod:`repro.bench.shard_bench`)."""
    from .shard_bench import (measure_insert_overhead,
                              measure_read_after_writes, measure_sharded)

    sharded_rows = 10_000 if quick else SHARDED_ROWS
    insert_base = 4_000 if quick else INSERT_BASE_ROWS
    insert_stream = 400 if quick else INSERT_STREAM
    return _artifact(
        "repro-perf-gate-sharded/1", quick,
        {"sharded_rows": sharded_rows, "insert_base_rows": insert_base,
         "insert_stream": insert_stream, "dims": SHARDED_DIMS,
         "shards": SHARDED_SHARDS, "workers": SHARDED_WORKERS},
        sharded=measure_sharded(sharded_rows, SHARDED_DIMS,
                                shards=SHARDED_SHARDS,
                                workers=SHARDED_WORKERS, seed=SEED),
        writes=measure_read_after_writes(sharded_rows, SHARDED_DIMS,
                                         shards=SHARDED_SHARDS,
                                         workers=SHARDED_WORKERS,
                                         seed=SEED),
        insert=measure_insert_overhead(insert_base, insert_stream,
                                       SHARDED_DIMS,
                                       shards=SHARDED_SHARDS, seed=SEED))


def run_server_gate(*, quick: bool = False) -> dict:
    """The ``server`` tier (:mod:`repro.bench.server_bench`)."""
    from .server_bench import measure_server

    rows = 4_000 if quick else SERVER_ROWS
    repeat = 1 if quick else 2
    return _artifact(
        "repro-perf-gate-server/1", quick,
        {"rows": rows, "dims": SERVER_DIMS,
         "statements": SERVER_STATEMENTS, "clients": SERVER_CLIENTS,
         "repeat": repeat},
        server=measure_server(rows, SERVER_DIMS,
                              statements=SERVER_STATEMENTS,
                              clients=SERVER_CLIENTS, repeat=repeat,
                              seed=SEED))


def run_batch_gate(*, quick: bool = False) -> dict:
    """The ``fusion`` tier (:mod:`repro.bench.batch_bench`).  Quick
    mode keeps the full batch width: the speedup is driven by the
    dedup/sharing ratio of the workload, not its size."""
    from .batch_bench import measure_fused_batch, replay_fused_batch_corpus

    rows = 4_000 if quick else FUSION_ROWS
    return _artifact(
        "repro-perf-gate-fusion/1", quick,
        {"rows": rows, "dims": FUSION_DIMS, "queries": FUSION_QUERIES,
         "intents": FUSION_INTENTS},
        batch=measure_fused_batch(rows, FUSION_DIMS,
                                  queries=FUSION_QUERIES,
                                  intents=FUSION_INTENTS, seed=SEED),
        corpus=replay_fused_batch_corpus(FUSION_CORPUS))


# -- checks ------------------------------------------------------------------

#: A waiver: ``(current, baseline) -> reason`` (``None`` = not waived).
Waiver = Callable[[dict, dict | None], str | None]

#: kind -> (fails(got, want), failure detail template).
_KINDS = {
    "floor": (lambda got, want: got is None or got < want,
              "{got} is below the {want} floor"),
    "ceiling": (lambda got, want: got is None or got > want,
                "{got} is above the {want} ceiling"),
    "equal": (operator.ne, "{got} != expected {want}"),
    "exact": (operator.ne, "{got} != baseline {want}"),
    "close": (lambda got, want: abs(got - want)
              > COUNTER_TOLERANCE * max(abs(want), 1.0),
              f"{{got}} drifted more than {COUNTER_TOLERANCE:.0%} from "
              "baseline {want}"),
    "time": (lambda got, want: got >= want * TIME_FACTOR,
             f"{{got}} is {TIME_FACTOR:g}x the baseline {{want}} or more"),
}
_BASELINE_KINDS = ("exact", "close", "time")


@dataclass(frozen=True)
class Check:
    """One declarative check, applied to every record of ``section``.

    ``section`` names the artifact key holding one record (a dict) or
    several (a list, matched to the baseline's by ``name``); ``""`` is
    the artifact itself.  The checked value is ``record[field]``, or
    ``value(record)`` when given; a dict value (``timings``) is checked
    per key.  ``limit`` is the floor, ceiling or expected value of the
    within-run kinds (a callable receives the record).  ``where``
    selects records; ``waivers`` are tried in order.
    """

    kind: str
    section: str
    field: str
    limit: Any = None
    value: Callable[[dict], Any] | None = None
    waivers: tuple[Waiver, ...] = ()
    where: Callable[[dict], bool] | None = None


def _each(kind: str, section: str, fields: Sequence[str],
          *waivers: Waiver) -> tuple[Check, ...]:
    return tuple(Check(kind, section, field, waivers=waivers)
                 for field in fields)


def _no_baseline(current, baseline):
    return None if baseline else "no committed baseline"


def _scale_differs(current, baseline):
    mine, theirs = (artifact.get("workload", {}).get("quick")
                    for artifact in (current, baseline))
    if None not in (mine, theirs) and mine != theirs:
        return (f"{'quick' if mine else 'full'}-scale run, "
                f"{'quick' if theirs else 'full'}-scale baseline")


def _shape_differs(current, baseline):
    mine, theirs = _shape(current), _shape(baseline)
    if mine and theirs and mine != theirs:
        return f"host shape {mine} differs from the baseline's {theirs}"


def _quick_scale(current, baseline):
    if current.get("workload", {}).get("quick"):
        return "quick scale: workloads too small for a stable ratio"


def _fewer_cores(need: int | Callable[[dict], int], noun: str,
                 tail: str) -> Waiver:
    def waiver(current, baseline):
        cores = current.get("cores") or \
            (current.get("host") or {}).get("cpu_count", 1)
        floor = need(current) if callable(need) else need
        if cores < floor:
            return f"host has {cores} core(s) < {floor}{noun}: {tail}"
    return waiver


def _workload(key: str) -> Callable[[dict], int]:
    return lambda artifact: artifact["workload"][key]


def _auto_serial(current, baseline):
    if not (current.get("auto") or {}).get("pooled", 1):
        return ("no auto query reached the pool (parallel-osdc runs "
                "serially with one process per host core): nothing "
                "registered")


def _records(section: str, artifact: dict | None) -> dict[str, dict]:
    """``label -> record`` for one section of an artifact."""
    if not artifact:
        return {}
    if not section:
        return {"": artifact}
    held = artifact.get(section)
    if isinstance(held, list):
        return {f"{section}[{record['name']}]": record for record in held}
    return {section: held} if held is not None else {}


def _show(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else repr(value)


def _verdict(kind: str, got, want) -> str:
    if kind == "time" and not want:
        return "unmeasured: the baseline recorded no timing"
    fails, detail = _KINDS[kind]
    if fails(got, want):
        return "fail: " + detail.format(got=_show(got), want=_show(want))
    return "pass"


def _verdicts(check: Check, current: dict, baseline: dict | None):
    """``(key, verdict)`` for every record ``check`` covers."""
    against = check.kind in _BASELINE_KINDS
    waivers = check.waivers
    if check.kind in ("floor", "ceiling"):  # timing ratios
        waivers += (_quick_scale,)
    if check.kind == "time":
        waivers = (_shape_differs,) + waivers
    if against:
        waivers = (_no_baseline, _scale_differs) + waivers
    reason = next(filter(None, (waiver(current, baseline)
                                for waiver in waivers)), None)
    bases = _records(check.section, baseline)
    read = check.value or (lambda record: record.get(check.field))
    for label, record in _records(check.section, current).items():
        if check.where is not None and not check.where(record):
            continue
        key = f"{check.kind} {label + '.' if label else ''}{check.field}"
        base = bases.get(label)
        if reason is not None or (against and base is None):
            yield key, f"unmeasured: {reason or 'no baseline record'}"
            continue
        got = read(record)
        if against:
            want = read(base)
        else:
            want = check.limit(record) if callable(check.limit) \
                else check.limit
        if isinstance(got, dict):  # per-key timings
            for sub, value in got.items():
                yield f"{key}.{sub}", _verdict(check.kind, value,
                                               (want or {}).get(sub))
        else:
            yield key, _verdict(check.kind, got, want)


@dataclass(frozen=True)
class Tier:
    """One gate tier: a workload, its committed baseline, its checks."""

    name: str
    baseline: str
    about: str
    workload: Callable[..., dict]
    checks: tuple[Check, ...]


def evaluate(tier: Tier, current: dict,
             baseline: dict | None) -> dict[str, str]:
    """The ``verdicts`` map of one artifact: check -> ``pass`` /
    ``fail: <detail>`` / ``unmeasured: <reason>``."""
    return {key: verdict for check in tier.checks
            for key, verdict in _verdicts(check, current, baseline)}


def _replaced(speedup: str) -> str:
    return (f"the {speedup} check is replaced by the "
            f"{SINGLE_CORE_OVERHEAD:.1f}x bounded-overhead check")


TIERS: dict[str, Tier] = {tier.name: tier for tier in (
    Tier("kernels", "BENCH_4.json",
         "bitmask vs gemm screens at d=4/8/16 plus scan and "
         "divide-and-conquer algorithm runs", run_gate, (
             Check("floor", "kernels", "speedup_bitmask_over_gemm",
                   MIN_SPEEDUP,  # the scalar-parity probe has no ratio
                   where=lambda r: "speedup_bitmask_over_gemm" in r),
             Check("exact", "kernels", "survivors"),
             Check("time", "kernels", "timings"),
             Check("exact", "algorithms", "output_size"),
             Check("exact", "algorithms", "kernel"),
             *_each("close", "algorithms",
                    ("dominance_tests", "passes", "recursive_calls")),
             Check("time", "algorithms", "seconds"))),
    Tier("pool", "BENCH_5.json",
         "serial vs cold vs warm worker pool, a warm query batch vs "
         "cold calls, and auto vs osdc at the parallel threshold",
         run_parallel_gate, (
             Check("floor", "parallel", "speedup_warm_over_cold",
                   MIN_WARM_OVER_COLD),
             Check("floor", "parallel", "speedup_warm_over_serial",
                   MIN_PARALLEL_SPEEDUP, waivers=(_fewer_cores(
                       _workload("workers"), " workers",
                       _replaced(f"{MIN_PARALLEL_SPEEDUP:.1f}x "
                                 "parallel-over-serial")),)),
             Check("ceiling", "parallel", "warm_over_serial",
                   SINGLE_CORE_OVERHEAD,
                   value=lambda r: r["warm_seconds"] / r["serial_seconds"]),
             Check("floor", "batch", "speedup_batch_over_cold",
                   MIN_BATCH_SPEEDUP),
             # one registration per relation, whatever columns the
             # queries read
             Check("equal", "auto", "segments", 1,
                   waivers=(_auto_serial,)),
             Check("ceiling", "auto", "auto_over_osdc",
                   MAX_AUTO_OVER_OSDC, waivers=(_fewer_cores(
                       lambda a: a.get("auto", {}).get("workers", 0),
                       " pool workers",
                       f"the {MAX_AUTO_OVER_OSDC:.1f}x auto-over-osdc "
                       "ceiling needs a core per worker"), _auto_serial)),
             *_each("exact", "parallel", ("output_size", "chunk_skylines")),
             Check("exact", "parallel", "kernel"),
             *_each("close", "parallel",
                    ("serial_dominance_tests", "pooled_dominance_tests")),
             Check("exact", "batch", "output_sizes"),
             *_each("time", "parallel", ("warm_seconds", "cold_seconds")),
             *_each("time", "batch", ("warm_seconds", "cold_seconds")))),
    Tier("shards", "BENCH_6.json",
         "maintained per-shard serve vs monolithic scatter/gather, a "
         "scatter read after writes, and sharded vs flat insert cost",
         run_sharded_gate, (
             Check("floor", "sharded", "speedup_serve_over_monolithic",
                   MIN_SHARDED_SPEEDUP, waivers=(_fewer_cores(
                       _workload("workers"), " workers",
                       _replaced(f"{MIN_SHARDED_SPEEDUP:.1f}x "
                                 "serve-over-monolithic")),)),
             Check("ceiling", "sharded", "serve_over_monolithic",
                   SINGLE_CORE_OVERHEAD,
                   value=lambda r: r["serve_seconds"]
                   / r["monolithic_seconds"]),
             Check("ceiling", "insert", "insert_overhead",
                   MAX_INSERT_OVERHEAD),
             *_each("exact", "sharded",
                    ("output_size", "shard_skylines", "shard_rows",
                     "version")),
             *_each("exact", "insert", ("output_size", "shard_skylines")),
             # writes below the re-base share leave every base
             # registered: the read ships deltas, registers nothing
             Check("equal", "writes", "new_segments", 0),
             Check("equal", "writes", "touched_shards",
                   lambda r: r["shards"]),
             Check("exact", "writes", "output_size"),
             Check("time", "writes", "read_seconds"),
             *_each("time", "sharded", ("monolithic_seconds",
                                        "scatter_seconds", "serve_seconds")),
             *_each("time", "insert", ("single_seconds",
                                       "sharded_seconds")))),
    Tier("server", "BENCH_7.json",
         "correlated statements from concurrent clients, result cache "
         "off vs warm", run_server_gate, (
             Check("floor", "server", "speedup_cached_over_uncached",
                   MIN_CACHE_SPEEDUP),
             Check("equal", "server", "cold_misses",
                   lambda r: r["distinct_statements"]),
             Check("equal", "server", "cold_hits",
                   lambda r: r["cold_queries"] - r["distinct_statements"]),
             Check("equal", "server", "shed_partial",
                   lambda r: r["shed_queries"]),
             Check("equal", "server", "errors", 0),
             Check("exact", "server", "distinct_statements"),
             *_each("time", "server",
                    ("uncached_p99_ms", "warm_p99_ms", "warm_seconds"),
                    _fewer_cores(_workload("clients"), " clients",
                                 "baseline qps/p99 comparisons are "
                                 f"advisory; the {MIN_CACHE_SPEEDUP:.1f}x "
                                 "cache speedup and the exact counter "
                                 "checks still gate")))),
    Tier("fusion", "BENCH_8.json",
         "fused vs sequential execute_batch, plus the fused-batch "
         "corpus replay", run_batch_gate, (
             Check("floor", "batch", "speedup_fused_over_unfused",
                   MIN_FUSED_SPEEDUP),
             Check("equal", "batch", "dedup_hits",
                   lambda r: r["queries"] - r["distinct"]),
             Check("equal", "corpus", "cases", True,
                   value=lambda r: r["cases"] > 0),
             Check("equal", "corpus", "mismatches", []),
             *_each("exact", "batch",
                    ("queries", "distinct", "groups", "dedup_hits",
                     "base_evaluations", "screened", "fallbacks",
                     "mask_hits", "mask_misses", "output_sizes")),
             *_each("time", "batch", ("unfused_seconds", "fused_seconds")))),
)}


# -- entry point -------------------------------------------------------------

def render(tier: Tier, artifact: dict) -> str:
    """One line per verdict, under a per-tier tally."""
    verdicts = artifact["verdicts"]
    tally = {state: sum(v.startswith(state) for v in verdicts.values())
             for state in ("pass", "fail", "unmeasured")}
    lines = [f"{tier.name} ({tier.baseline}): "
             + ", ".join(f"{n} {state}" for state, n in tally.items())]
    lines += [f"  {key}: {verdict}" for key, verdict in verdicts.items()]
    return "\n".join(lines)


def _load_baseline(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as source:
            return json.load(source)
    except FileNotFoundError:
        return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-skyline gate",
        description="pinned-workload performance gate: run each TIER, "
                    "write its artifact and verdicts; with no TIER, print "
                    "the host tag and the tier catalogue")
    parser.add_argument("tiers", nargs="*", metavar="TIER",
                        help=f"one of: {', '.join(TIERS)}")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any check fails")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads: a smoke test in which "
                             "timing ratios and baseline checks go "
                             "unmeasured")
    parser.add_argument("--out", default="bench-out", metavar="DIR",
                        help="directory for the artifacts, each named "
                             "after its tier's baseline (default: "
                             "bench-out; '--out .' regenerates the "
                             "committed baselines)")
    arguments = parser.parse_args(argv)
    unknown = sorted(set(arguments.tiers) - set(TIERS))
    if unknown:
        parser.error(f"unknown tier(s) {', '.join(unknown)}; choose from "
                     f"{', '.join(TIERS)}")
    print(f"host: {host_tag()['cpu_count']} core(s)")
    if not arguments.tiers:
        print("tiers:")
        for tier in TIERS.values():
            print(f"  {tier.name}: {tier.baseline} -- {tier.about}")
        return 0
    os.makedirs(arguments.out, exist_ok=True)
    failed = False
    for name in arguments.tiers:
        tier = TIERS[name]
        artifact = tier.workload(quick=arguments.quick)
        artifact["verdicts"] = evaluate(tier, artifact,
                                        _load_baseline(tier.baseline))
        path = os.path.join(arguments.out, tier.baseline)
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(artifact, sink, indent=2)
            sink.write("\n")
        print(render(tier, artifact))
        print(f"wrote {path}")
        failed |= any(verdict.startswith("fail")
                      for verdict in artifact["verdicts"].values())
    return int(failed and arguments.check)


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
