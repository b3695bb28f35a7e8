"""The CI performance gate: one registry of pinned-workload tiers.

``repro-skyline gate [TIER ...] [--check] [--quick] [--out DIR]`` (or
``python -m repro.bench.perf_gate``, the same parser) runs the named
tiers and writes one JSON artifact per tier into ``--out`` (default
``bench-out/``), named after the tier's committed baseline
(``BENCH_4.json`` ... ``BENCH_8.json`` at the repo root), so a baseline
is only regenerated by an explicit ``--out .``.  With no tier named it
prints the host tag -- the core count -- and the tier catalogue.

Every tier is declared once in :data:`TIERS`: its baseline file, its
workload function (:mod:`repro.bench.gate_workloads`) with the ``full``
and ``quick`` size maps it runs at, and a tuple of declarative
:class:`Check` objects of five kinds:

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
  baseline's, applied only between identically shaped hosts (equal
  ``host`` tags).

A check that cannot be measured on this host or at this scale -- fewer
cores than workers, quick workloads, no comparable baseline -- is
*waived*: each waiver is a predicate on the artifact's host tag or
scale, and a waived check records ``"unmeasured: <reason>"``, never a
pass.  Every artifact carries the resulting ``verdicts`` map
(check -> ``pass`` / ``fail: ...`` / ``unmeasured: ...``); ``--check``
exits non-zero when any verdict fails, and refuses to start when a
tier's baseline or corpus is missing from the working directory.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import gate_workloads as workloads

__all__ = ["Check", "Tier", "TIERS", "host_tag", "evaluate", "render",
           "main"]

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
    mine, theirs = current.get("host"), baseline.get("host")
    if mine != theirs:
        return f"host shape {mine} differs from the baseline's {theirs}"


def _quick_scale(current, baseline):
    if current.get("workload", {}).get("quick"):
        return "quick scale: workloads too small for a stable ratio"


def _fewer_cores(section: str, field: str, noun: str,
                 tail: str) -> Waiver:
    """Waived when the host has fewer cores than the
    ``artifact[section][field]`` processes or clients the record ran."""
    def waiver(current, baseline):
        cores = current["host"]["cpu_count"]
        need = current[section][field]
        if cores < need:
            return f"host has {cores} core(s) < {need}{noun}: {tail}"
    return waiver


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
    """One gate tier: a workload, the sizes it runs at, its committed
    baseline, its checks.

    ``workload`` receives ``full`` or ``quick`` (rows, queries,
    repeats) and returns the artifact's sections.  ``inputs`` are the
    other paths, relative to the working directory, that the workload
    reads."""

    name: str
    baseline: str
    about: str
    workload: Callable[[dict], dict]
    full: dict[str, int]
    quick: dict[str, int]
    checks: tuple[Check, ...]
    inputs: tuple[str, ...] = ()

    def run(self, quick: bool = False) -> dict:
        """The artifact of one run, without its verdicts."""
        sizes = self.quick if quick else self.full
        return {"schema": f"repro-perf-gate-{self.name}/2",
                "workload": {"seed": workloads.SEED, "quick": quick,
                             **sizes},
                "host": host_tag(), **self.workload(sizes)}


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
         "divide-and-conquer algorithm runs", workloads.kernels,
         {"kernel_rows": 100_000, "algorithm_rows": 20_000},
         {"kernel_rows": 4_000, "algorithm_rows": 2_000}, (
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
         workloads.pool,
         {"parallel_rows": 500_000, "batch_rows": 64_000,
          "batch_queries": 16, "batch_repeats": 5, "auto_queries": 4,
          "auto_repeats": 5},
         {"parallel_rows": 40_000, "batch_rows": 8_000,
          "batch_queries": 6, "batch_repeats": 1, "auto_queries": 2,
          "auto_repeats": 1}, (
             Check("floor", "parallel", "speedup_warm_over_cold",
                   MIN_WARM_OVER_COLD),
             Check("floor", "parallel", "speedup_warm_over_serial",
                   MIN_PARALLEL_SPEEDUP, waivers=(_fewer_cores(
                       "parallel", "workers", " workers",
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
                       "auto", "workers", " pool workers",
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
         "maintained serve (one in-process merge of the per-shard "
         "skylines) vs monolithic scatter/gather, the serve over 2/4/8 "
         "shards, a scatter read after writes, and tracked "
         "ShardedRelation.insert_ranks vs flat maintainer inserts",
         workloads.shards,
         {"sharded_rows": 100_000, "insert_base_rows": 20_000,
          "insert_stream": 2_000},
         {"sharded_rows": 10_000, "insert_base_rows": 4_000,
          "insert_stream": 400}, (
             Check("floor", "sharded", "speedup_serve_over_monolithic",
                   MIN_SHARDED_SPEEDUP, waivers=(_fewer_cores(
                       "sharded", "workers", " workers",
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
                                       "sharded_seconds")),
             *_each("exact", "sweep", ("output_size", "shard_skylines")),
             Check("time", "sweep", "serve_seconds"))),
    Tier("server", "BENCH_7.json",
         "correlated statements from concurrent clients, result cache "
         "off vs warm", workloads.server,
         {"rows": 20_000, "repeat": 2}, {"rows": 4_000, "repeat": 1}, (
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
                    _fewer_cores("server", "clients", " clients",
                                 "baseline qps/p99 comparisons are "
                                 f"advisory; the {MIN_CACHE_SPEEDUP:.1f}x "
                                 "cache speedup and the exact counter "
                                 "checks still gate")))),
    Tier("fusion", "BENCH_8.json",
         "fused vs sequential execute_batch, plus the fused-batch "
         "corpus replay", workloads.fusion,
         {"rows": 40_000}, {"rows": 4_000}, (
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
             *_each("time", "batch", ("unfused_seconds", "fused_seconds"))),
         inputs=(workloads.CORPUS,)),
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
    if arguments.check:
        # a missing baseline would leave every baseline check unmeasured
        for name in arguments.tiers:
            for path in (TIERS[name].baseline, *TIERS[name].inputs):
                if not os.path.exists(path):
                    parser.error(f"--check: {name} needs {path}, not found "
                                 f"at {os.path.abspath(path)}; run from "
                                 "the repository root")
    os.makedirs(arguments.out, exist_ok=True)
    failed = False
    for name in arguments.tiers:
        tier = TIERS[name]
        artifact = tier.run(arguments.quick)
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
