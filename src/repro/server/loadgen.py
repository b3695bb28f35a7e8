"""A concurrent load generator with elicitation-derived workloads.

Realistic service load is *correlated*: many users ask near-identical
questions.  The workload builder models this with the elicitation
machinery of Mindolin & Chomicki (:mod:`repro.elicitation.greedy`): a
handful of hidden attribute-priority chains play the role of latent
user intents, and each statement elicits a p-expression from a random
*subset* of one chain's example pairs.  Overlapping subsets of the same
chain yield overlapping -- frequently identical -- p-graphs, so the
stream repeats itself the way real query logs do, which is exactly
what exercises the server's result cache.

:func:`run_load` drives a server with N blocking clients on threads and
reports sustained throughput, latency quantiles and the shed/cached/
error mix; the ``server`` tier of ``repro-skyline gate`` and the
``repro-skyline load-gen`` CLI are thin wrappers around it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..elicitation.greedy import ExamplePair, elicit
from .client import SkylineClient

__all__ = ["correlated_statements", "run_load", "LoadReport"]


def _chain_pairs(chain: list[str]) -> list[ExamplePair]:
    """Example pairs whose only consistent explanation is the priority
    chain ``chain[0] > chain[1] > ...`` (each adjacent pair trades a win
    on the higher attribute for a loss on the lower one)."""
    pairs = []
    for upper, lower in zip(chain, chain[1:]):
        superior = {name: 0.5 for name in chain}
        inferior = {name: 0.5 for name in chain}
        superior[upper] = 0.0
        inferior[upper] = 1.0
        superior[lower] = 1.0
        inferior[lower] = 0.0
        pairs.append(ExamplePair(superior, inferior))
    return pairs


def correlated_statements(names, count: int, *, table: str = "data",
                          seed: int = 0, intents: int = 6,
                          where_fraction: float = 0.25,
                          top_fraction: float = 0.25,
                          pareto_fraction: float = 0.0) -> list[str]:
    """``count`` Preference SQL statements drawn from ``intents`` hidden
    priority chains over ``names`` (see the module docstring).

    ``pareto_fraction`` statements ask the plain Pareto of their
    intent's chain -- the elicitation starting point of a user who has
    given no example pairs yet.  A Pareto spelling is contained in
    every elicited refinement of the same chain, which is exactly the
    shared-base shape the batch fusion layer screens from.  (The extra
    random draw only happens when the fraction is positive, so seeded
    streams of existing callers are unchanged.)
    """
    rng = np.random.default_rng(seed)
    names = list(names)
    chains = []
    for _ in range(max(1, intents)):
        size = int(rng.integers(2, min(4, len(names)) + 1))
        chain = list(rng.choice(names, size=size, replace=False))
        chains.append((chain, _chain_pairs(chain)))
    statements = []
    for _ in range(count):
        chain, pairs = chains[int(rng.integers(len(chains)))]
        if pareto_fraction and rng.random() < pareto_fraction:
            pairs = []  # ask the unrefined intent itself
        if len(pairs) > 1:
            keep = sorted(
                rng.choice(len(pairs),
                           size=int(rng.integers(1, len(pairs) + 1)),
                           replace=False))
            subset = [pairs[i] for i in keep]
        else:
            subset = pairs
        result = elicit(chain, subset)
        if result.expression is not None:
            preferring = str(result.expression)
        else:  # no edges learned: fall back to the Pareto of the intent
            preferring = " * ".join(chain)
        clauses = [f"SELECT * FROM {table}"]
        if rng.random() < where_fraction:
            column = names[int(rng.integers(len(names)))]
            clauses.append(f"WHERE {column} < {rng.uniform(0.5, 2.0):.2f}")
        clauses.append(f"PREFERRING {preferring}")
        if rng.random() < top_fraction:
            clauses.append(f"TOP {int(rng.integers(1, 16))}")
        statements.append(" ".join(clauses))
    return statements


@dataclass
class LoadReport:
    """What one :func:`run_load` run measured."""

    queries: int
    elapsed_s: float
    qps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    cached: int
    shed: int
    errors: int
    server: dict | None

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "elapsed_s": self.elapsed_s,
            "qps": self.qps,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "cached": self.cached,
            "shed": self.shed,
            "errors": self.errors,
            "server": self.server,
        }


def run_load(address, statements, *, clients: int = 4, repeat: int = 1,
             timeout: float | None = 30.0,
             no_cache: bool = False, batch: int = 0) -> LoadReport:
    """Replay ``statements`` against a server from ``clients`` threads.

    Each client walks the whole statement list ``repeat`` times starting
    at its own offset (so concurrent clients hit overlapping statements
    at different moments -- the cache-friendly pattern of a shared
    workload).  Latencies are measured per request, client-side.

    With ``batch > 0`` each client sends its walk as ``"statements"``
    batch requests of that size instead of one request per statement --
    the server answers cache hits per statement and runs the misses
    through the fused batch path.  Per-statement latencies are then the
    batch round-trip amortised over its statements; outcomes are still
    counted per statement from the per-statement payloads.
    """
    statements = list(statements)
    if not statements:
        raise ValueError("no statements to run")
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()
    latencies: list[float] = []
    outcome = {"cached": 0, "shed": 0, "errors": 0}

    def _tally(local: dict, response: dict) -> None:
        if not response.get("ok"):
            local["errors"] += 1
        elif response.get("partial"):
            local["shed"] += 1
        elif response.get("cached"):
            local["cached"] += 1

    def _client(offset: int) -> None:
        with SkylineClient(address, socket_timeout=timeout) as client:
            barrier.wait()
            local_lat = []
            local = {"cached": 0, "shed": 0, "errors": 0}
            for round_ in range(repeat):
                walk = [statements[(offset + position) % len(statements)]
                        for position in range(len(statements))]
                if batch > 0:
                    for start in range(0, len(walk), batch):
                        chunk = walk[start:start + batch]
                        started = time.perf_counter()
                        response = client.query_batch(
                            chunk, timeout=timeout, no_cache=no_cache,
                            raise_errors=False)
                        per_ms = ((time.perf_counter() - started) * 1e3
                                  / len(chunk))
                        local_lat.extend([per_ms] * len(chunk))
                        results = response.get("results") \
                            or [None] * len(chunk)
                        for entry in results:
                            if entry is None:
                                entry = {"ok": response.get("ok", False)}
                            _tally(local, entry)
                    continue
                for statement in walk:
                    started = time.perf_counter()
                    response = client.query(
                        statement, timeout=timeout, no_cache=no_cache,
                        raise_errors=False)
                    local_lat.append(
                        (time.perf_counter() - started) * 1e3)
                    _tally(local, response)
            with lock:
                latencies.extend(local_lat)
                for key in outcome:
                    outcome[key] += local[key]

    threads = [threading.Thread(target=_client, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    server_stats = None
    try:
        with SkylineClient(address, socket_timeout=timeout) as client:
            server_stats = client.stats()
    except Exception:
        pass
    array = np.asarray(latencies, dtype=np.float64)
    return LoadReport(
        queries=int(array.size),
        elapsed_s=float(elapsed),
        qps=float(array.size / elapsed) if elapsed > 0 else 0.0,
        mean_ms=float(array.mean()) if array.size else 0.0,
        p50_ms=float(np.percentile(array, 50)) if array.size else 0.0,
        p99_ms=float(np.percentile(array, 99)) if array.size else 0.0,
        max_ms=float(array.max()) if array.size else 0.0,
        cached=outcome["cached"],
        shed=outcome["shed"],
        errors=outcome["errors"],
        server=server_stats,
    )
