"""Measurement core for cross-query batch fusion.

Two measurements behind the ``fusion`` tier of the perf gate
(:mod:`repro.bench.perf_gate`, baseline ``BENCH_8.json``):

* :func:`measure_fused_batch` -- one pinned *correlated* workload
  (elicitation-derived statements from
  :func:`repro.server.loadgen.correlated_statements`, the same
  generator the load-gen CLI uses) answered by
  :meth:`~repro.sql.PreferenceSQL.execute_batch` twice: once with
  ``fuse=False`` (the pre-fusion sequential path) and once fused.  The
  sequential answers are the correctness oracle for the fused ones, and
  the ``stats.extra["fusion"]`` counters (dedup hits, groups, base
  evaluations, shared-mask hits/misses) land in the record exactly --
  the gate pins them byte for byte against the committed baseline.
* :func:`replay_fused_batch_corpus` -- every committed regression-
  corpus entry replayed through the ``fused-batch`` metamorphic axis of
  :mod:`repro.verify.metamorphic` (evaluate inside a fused batch next
  to containment-related companion queries; the result must be
  unchanged).  The gate requires zero mismatches.

The workload is pinned by seed, so the fusion counters are exactly
reproducible across runs and machines; only the wall-clock fields vary.
"""

from __future__ import annotations

import time

import numpy as np

from ..algorithms.base import Stats

__all__ = ["pinned_correlated_statements", "measure_fused_batch",
           "replay_fused_batch_corpus"]

#: Correlation parameter of the pinned data set (matches the pool and
#: shard gates: positively correlated attributes, small skylines).
DEFAULT_ALPHA = 0.2


def pinned_correlated_statements(names, count: int, *, seed: int = 2015,
                                 intents: int = 6,
                                 pareto_fraction: float = 0.2
                                 ) -> list[str]:
    """The deterministic correlated statement workload: ``count``
    ``PREFERRING``-only statements over ``names``, drawn from
    ``intents`` hidden priority chains (no ``WHERE``/``TOP``, so every
    statement is fusable).  A ``pareto_fraction`` of the statements ask
    the unrefined Pareto of their intent, giving each group a contained
    base member for the shared-mask screening path."""
    from ..server.loadgen import correlated_statements

    return correlated_statements(names, count, table="data", seed=seed,
                                 intents=intents, where_fraction=0.0,
                                 top_fraction=0.0,
                                 pareto_fraction=pareto_fraction)


def measure_fused_batch(rows: int, dims: int, *, queries: int = 64,
                        intents: int = 6, algorithm: str = "osdc",
                        seed: int = 2015) -> dict:
    """Fused vs sequential ``execute_batch`` on one pinned correlated
    workload; the sequential answers are the oracle."""
    from ..core.relation import Relation
    from ..data.gaussian import equicorrelated_gaussian
    from ..sql import PreferenceSQL

    nrng = np.random.default_rng(seed + dims)
    ranks = np.ascontiguousarray(
        equicorrelated_gaussian(rows, dims, DEFAULT_ALPHA, nrng))
    relation = Relation.from_array(ranks)
    statements = pinned_correlated_statements(
        relation.names, queries, seed=seed, intents=intents)
    engine = PreferenceSQL()
    engine.register("data", relation)

    # absorb one-off costs (parse cache, numpy warmup) before timing
    engine.execute_batch(statements[:4], algorithm=algorithm, fuse=False)

    start = time.perf_counter()
    unfused = engine.execute_batch(statements, algorithm=algorithm,
                                   fuse=False)
    unfused_seconds = time.perf_counter() - start

    stats = Stats()
    start = time.perf_counter()
    fused = engine.execute_batch(statements, algorithm=algorithm,
                                 stats=stats)
    fused_seconds = time.perf_counter() - start

    for index, (got, want) in enumerate(zip(fused, unfused)):
        if not np.array_equal(got.ranks, want.ranks):
            raise AssertionError(
                f"fused statement {index} disagrees with the "
                "sequential answer")
    fusion = stats.extra["fusion"]
    return {
        "name": f"fused-q{queries}-n{rows}-d{dims}",
        "rows": int(rows),
        "d": int(dims),
        "alpha": float(DEFAULT_ALPHA),
        "queries": int(fusion["queries"]),
        "intents": int(intents),
        "algorithm": algorithm,
        "distinct": int(fusion["distinct"]),
        "groups": int(fusion["groups"]),
        "dedup_hits": int(fusion["dedup_hits"]),
        "base_evaluations": int(fusion["base_evaluations"]),
        "screened": int(fusion["screened"]),
        "fallbacks": int(fusion["fallbacks"]),
        "mask_hits": int(fusion["mask_hits"]),
        "mask_misses": int(fusion["mask_misses"]),
        "kernel": fusion["kernel"],
        "output_sizes": [len(result) for result in fused],
        "unfused_seconds": unfused_seconds,
        "fused_seconds": fused_seconds,
        "speedup_fused_over_unfused": unfused_seconds / fused_seconds,
    }


def replay_fused_batch_corpus(directory: str) -> dict:
    """Replay every corpus entry through the ``fused-batch``
    metamorphic axis; returns ``{"cases": n, "mismatches": [...]}``."""
    from ..algorithms.base import REGISTRY
    from ..verify.corpus import iter_corpus
    from ..verify.fuzzer import case_rng
    from ..verify.metamorphic import TRANSFORMS, run_transform

    transform = TRANSFORMS["fused-batch"]
    cases = 0
    mismatches: list[str] = []
    for path, entry in iter_corpus(directory):
        function = REGISTRY.get(entry["algorithm"])
        if function is None:
            continue
        rng = case_rng(entry.get("seed") or 0,
                       entry.get("case_index") or 0)
        found = run_transform(transform, entry["ranks"], entry["graph"],
                              function, rng,
                              algorithm=entry["algorithm"])
        cases += 1
        mismatches.extend(f"{path}: {mismatch}" for mismatch in found)
    return {"cases": cases, "mismatches": mismatches}
