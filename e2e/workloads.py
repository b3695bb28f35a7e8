"""The four end-to-end workloads.

Every workload generates its inputs from the seed, sets up
:data:`SETUP_REPEATS` times from cold (``setup_s`` is the median),
drives a closed loop for the requested seconds through the library's
public entry points, checks every answer against serial ``osdc`` and
returns one result dict.  The library receives only the generated
inputs; nothing here configures it.

* ``planner-mix`` -- ``p_skyline(relation, text, algorithm="auto")`` on
  three 5k-row relations: planning and estimation do the work.
* ``pool-large`` -- the same at 210k rows, where the planner sends most
  queries to ``parallel-osdc`` on the worker pool.
* ``sql-server`` -- Preference SQL through ``SkylineServer`` in its own
  process, from one ``SkylineClient`` connection, singles and batches.
* ``shard-writes`` -- inserts, deletes, ad-hoc and tracked reads on a
  4-shard ``ShardedRelation``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro import (Relation, ShardedRelation, Stats, default_cache,
                   p_skyline)
from repro.data import alpha_for_correlation, equicorrelated_gaussian
from repro.engine.pool import shutdown_default_pool
from repro.sampling import PExpressionSampler
from repro.server import SkylineClient
from repro.server.loadgen import correlated_statements
from repro.sql import PreferenceSQL

import layers

E2E = Path(__file__).resolve().parent

#: Warm-up queries, each planned the same way on every seed (an
#: estimated plan would make ``setup_s`` depend on the estimator's
#: draw): a weak order always runs ``layered``; a small non-weak-order
#: query runs on the pool at pool-large's size and is scattered across
#: shards on shard-writes.
WEAK_ORDER = "A0 & (A1 * A2)"
WARM_UP = "(A0 & A1) * A2 * A3"

#: Workload sizes per scale.  A run is time-boxed, so the library
#: workloads are sized for about 200 or more queries per 20 s run:
#: planner-mix's per-query times spread over two decades and its median
#: only settles with that many samples, and pool-large sits just above
#: the planner's 200k parallel threshold.  ``smoke`` keeps each
#: workload's busy layers busy: pool-large stays at that threshold and
#: shard-writes at its 50k scatter/gather threshold.
SCALES = {
    "full": {
        "planner-mix": {"rows": 5_000, "dims": 8, "warm_up": WEAK_ORDER},
        "pool-large": {"rows": 210_000, "dims": 8, "warm_up": WARM_UP},
        "sql-server": {"rows": 50_000, "dims": 6, "statements": 2400,
                       "warm_statements": 8},
        "shard-writes": {"rows": 100_000, "dims": 6},
    },
    "smoke": {
        "planner-mix": {"rows": 2_000, "dims": 8, "warm_up": WEAK_ORDER},
        "pool-large": {"rows": 200_000, "dims": 8, "warm_up": WARM_UP},
        "sql-server": {"rows": 2_000, "dims": 6, "statements": 120,
                       "warm_statements": 2},
        "shard-writes": {"rows": 50_000, "dims": 6},
    },
}

#: A run sets up from cold at least SETUP_REPEATS times and for at least
#: SETUP_MIN_S seconds; ``setup_s`` reports the median.  planner-mix's
#: few-millisecond set-up thus takes hundreds of samples, enough that
#: one slow moment of a shared host does not move the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
#: planner-mix / pool-large relations: target pairwise correlations.
CORRELATIONS = (-0.1, 0.0, 0.5)
#: p-expression widths, cycled so every run covers each equally.
WIDTHS = (4, 5, 6, 7, 8)
#: sql-server traffic: every BATCH_EVERY-th request is a batch.
BATCH_EVERY = 8
BATCH_SIZE = 16
#: shard-writes operation mix: (kind, cumulative probability).
SHARD_MIX = (("insert", 0.6), ("delete", 0.7), ("read", 0.9),
             ("tracked", 1.0))
#: Share of tracked reads checked against osdc on a pinned snapshot.
TRACKED_CHECK = 0.1
#: Seed of the fixed sql-server statement stream.
STATEMENT_SEED = 2015
#: A default-path query this much slower than the reference is a
#: "slow pick".
SLOW_PICK = 1.15


def host_tag() -> dict:
    from repro.core.dominance import native_available
    from repro.engine.threads import effective_budget

    return {
        "nproc": os.cpu_count(),
        "native_available": native_available(),
        "thread_budget": effective_budget(),
        "REPRO_THREAD_BUDGET": os.environ.get("REPRO_THREAD_BUDGET"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def names_for(dims: int) -> list[str]:
    return [f"A{j}" for j in range(dims)]


def gaussian(rows: int, dims: int, rho: float,
             rng: np.random.Generator) -> np.ndarray:
    return equicorrelated_gaussian(rows, dims,
                                   alpha_for_correlation(rho, dims), rng)


def data_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one workload's data (any integer seed)."""
    return np.random.default_rng([seed % 2**64, stream])


def sql_relation(seed: int, rows: int, dims: int) -> Relation:
    """The sql-server relation; the server process and the oracle build
    it from the same seed."""
    rng = data_rng(seed, 3)
    return Relation.from_array(gaussian(rows, dims, 0.0, rng),
                               names=names_for(dims))


#: A query shape's attributes before the seed places it on columns.
PLACEHOLDER = re.compile(r"\bx(\d+)\b")


def place(text: str, columns) -> str:
    """Put the placeholder attributes ``x0, x1, ...`` of ``text`` on
    ``columns``."""
    return PLACEHOLDER.sub(lambda match: columns[int(match.group(1))], text)


class ExpressionStream:
    """p-expression texts for one purpose.

    The shapes -- p-graphs drawn uniformly by ``PExpressionSampler``,
    widths cycling through ``widths`` -- are one fixed draw shared by
    every seed, so runs on different seeds measure the same mix; the
    seed picks the columns each shape lands on.  The columns of the
    generated data are exchangeable, so that choice changes the inputs
    but not the work.
    """

    def __init__(self, names, widths, purpose: str, seed: int):
        self.names = list(names)
        self.widths = widths
        self.shapes = random.Random(f"{purpose}-shapes")
        self.columns = random.Random(f"{purpose}-columns-{seed}")
        self._samplers: dict[int, PExpressionSampler] = {}

    def draw(self, index: int) -> str:
        width = self.widths[index % len(self.widths)]
        sampler = self._samplers.get(width)
        if sampler is None:
            sampler = self._samplers[width] = PExpressionSampler(
                [f"x{j}" for j in range(width)])
        shape = str(sampler.sample_expression(self.shapes))
        return place(shape, self.columns.sample(self.names, width))


def geometric_mean(ratios) -> float:
    """The summary of per-query ratios: steadier than their median when
    the ratios spread over orders of magnitude."""
    return float(np.exp(np.mean(np.log(ratios)))) if len(ratios) else 0.0


def timed(function):
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def setup_repeated(build, warm_up, teardown):
    """Set up from cold as often as :data:`SETUP_REPEATS` and
    :data:`SETUP_MIN_S` ask and keep the last; returns it with every
    set-up's seconds."""
    times = []
    state = None
    first = time.perf_counter()
    while len(times) < SETUP_REPEATS or \
            time.perf_counter() - first < SETUP_MIN_S:
        if times:
            teardown(state)
        started = time.perf_counter()
        state = build()
        warm_up(state)
        times.append(time.perf_counter() - started)
    return state, times


def reset_engine(_state=None) -> None:
    """Back to a cold engine: no worker pool, empty compiled-preference
    cache."""
    shutdown_default_pool()
    default_cache().clear()


class Workload:
    """One run: seed, sizes, the closed-loop bookkeeping, the optional
    tracer.

    ``ops_per_s`` divides by the timed phase's wall time minus the
    :meth:`aside` intervals (input generation, reference runs, oracle
    checks), so it is the throughput of the default path alone.
    """

    def __init__(self, name: str, seed: int, seconds: float, scale: str,
                 trace: bool, out: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.sizes = SCALES[scale][name]
        self.out = out
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.ratios: list[float] = []
        self.ops = 0
        self.failures: list[str] = []
        self.aside_s = 0.0
        self.wall_s = 0.0
        self._started = self.deadline = 0.0
        self.extra: dict = {}
        self.provided: dict = {}
        self.remote: list[dict] = []
        self.trace = trace
        # the sql-server engine runs in the server process, which traces
        # itself; wrappers here would only see the client's frames
        self.tracer = layers.Tracer() \
            if trace and name != "sql-server" else None
        if self.tracer is not None:
            self.tracer.install()

    # -- the timed phase ----------------------------------------------------
    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.recording = True
        self._started = time.perf_counter()
        self.deadline = self._started + self.seconds

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def end(self) -> None:
        self.wall_s = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.recording = False

    @contextmanager
    def aside(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.aside_s += time.perf_counter() - started

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- tracing ------------------------------------------------------------
    def op(self, index):
        return self.tracer.operation(index) if self.tracer else nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def stats(self):
        """Work counters for the traced default path (None untraced)."""
        return Stats() if self.tracer else None

    def back_to_back(self, op: int, default, reference, *,
                     default_first: bool, charged_s: float = 0.0):
        """Operation ``op`` on the default path and on the serial-osdc
        reference, one right after the other.  ``charged_s`` is work
        done before both that belongs to the default path.  The
        reference time is set aside."""
        def run_default():
            with self.op(op):
                return timed(default)

        def run_reference():
            with self.untraced():
                return timed(reference)

        if default_first:
            result, seconds = run_default()
            expected, reference_s = run_reference()
        else:
            expected, reference_s = run_reference()
            result, seconds = run_default()
        seconds += charged_s
        self.aside_s += reference_s
        self.ratios.append(seconds / reference_s)
        self.latency["query"].append(seconds)
        if self.tracer is not None:
            self.tracer.reference_sizes[op] = len(expected)
        return result, expected

    # -- result -------------------------------------------------------------
    def result(self, setup_times, gen_s, rss_mb) -> dict:
        queries = self.latency["query"]
        attempted = self.ops
        metrics = {
            "setup_s": statistics.median(setup_times),
            "default_over_osdc": geometric_mean(self.ratios),
            "peak_rss_mb": rss_mb,
        }
        # latency and throughput are reported, not gated (see
        # layers.END_TO_END)
        diagnostics = {
            "ops_per_s": self.ops / max(self.wall_s - self.aside_s, 1e-9),
            "gen_s": gen_s,
            "setup_runs": len(setup_times),
            "timed_s": self.wall_s,
            "aside_s": self.aside_s,
            "query_samples": len(queries),
            "error_rate": len(self.failures) / max(attempted, 1),
            "slow_pick_share": sum(r > SLOW_PICK for r in self.ratios)
            / max(len(self.ratios), 1),
        }
        for kind, values in self.latency.items():
            diagnostics[f"{kind}_p50_ms"] = percentile(values, 50) * 1e3
            diagnostics[f"{kind}_p95_ms"] = percentile(values, 95) * 1e3
        diagnostics.update(self.extra)
        result = {
            "workload": self.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "host": host_tag(), "attempted": attempted,
            "failed": len(self.failures), "failures": self.failures[:20],
            "metrics": metrics, "diagnostics": diagnostics,
        }
        if self.trace:
            processes = self.remote
            if self.tracer is not None:
                self.tracer.uninstall()
                processes = [{"summary": self.tracer.summary(),
                              "spans": self.tracer.span_list()}] + processes
            summary = layers.merge_summaries(
                *(process["summary"] for process in processes))
            unmeasured = layers.host_layers()
            missing = layers.vacuous(self.name, summary, unmeasured)
            if missing:
                result["failures"].append(
                    "layers declared busy never fired: " + ", ".join(missing))
            result.update({
                "layers": layers.layer_metrics(summary, attempted,
                                               unmeasured, self.provided),
                "labels": summary["labels"],
                "unmeasured": unmeasured,
                "vacuous": missing,
                "idle_activity": layers.idle_activity(self.name, summary),
                "summary": summary,
                "spans": [span for process in processes
                          for span in process["spans"]],
            })
        return result


# -- planner-mix / pool-large ---------------------------------------------------

def run_library(workload: Workload) -> dict:
    sizes = workload.sizes
    rows, dims = sizes["rows"], sizes["dims"]
    names = names_for(dims)
    started = time.perf_counter()
    rng = data_rng(workload.seed, 1)
    matrices = [gaussian(rows, dims, rho, rng) for rho in CORRELATIONS]
    stream = ExpressionStream(names, WIDTHS, "library", workload.seed)
    gen_s = time.perf_counter() - started

    def build():
        return [Relation.from_array(matrix, names=names)
                for matrix in matrices]

    def warm_up(relations):
        for relation in relations:
            p_skyline(relation, sizes["warm_up"], algorithm="auto")
            p_skyline(relation, sizes["warm_up"], algorithm="osdc")

    relations, setup_times = setup_repeated(build, warm_up, reset_engine)

    workload.begin()
    index = 0
    while workload.running():
        with workload.aside():
            # relation and width both cycle: (relation, d) repeats every
            # len(relations) * len(WIDTHS) queries
            relation = relations[index % len(relations)]
            text = stream.draw(index // len(relations))
        result, expected = workload.back_to_back(
            index,
            lambda: p_skyline(relation, text, algorithm="auto",
                              stats=workload.stats()),
            lambda: p_skyline(relation, text, algorithm="osdc"),
            default_first=index % 2 == 0)
        with workload.aside():
            if not np.array_equal(result.ranks, expected.ranks):
                workload.fail(f"query {index} ({text}): auto returned "
                              f"{len(result)} rows, osdc {len(expected)}")
        workload.ops += 1
        index += 1
    workload.end()
    rss = peak_rss_mb()
    shutdown_default_pool()
    return workload.result(setup_times, gen_s, rss)


# -- sql-server ------------------------------------------------------------------

class ServerProcess:
    """The sql-server workload's ``SkylineServer`` in its own process
    (``e2e/server_main.py``); closing its stdin stops it."""

    def __init__(self, seed: int, rows: int, dims: int, trace: bool,
                 result_path: Path):
        self.result_path = result_path
        self.process = subprocess.Popen(
            [sys.executable, str(E2E / "server_main.py"),
             "--seed", str(seed), "--rows", str(rows), "--dims", str(dims),
             "--trace", "1" if trace else "0",
             "--result", str(result_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("the server process did not start")
        host, port = line.split()
        self.address = (host, int(port))

    def command(self, word: str) -> None:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Stop the server; returns what it reported on the way out."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server process exited with {self.process.returncode}")
        return json.loads(self.result_path.read_text())


def request_plan(statements: list[str]):
    """Every BATCH_EVERY-th request is a BATCH_SIZE batch, the others
    single statements; the statement stream cycles."""
    position = 0
    request = 0
    while True:
        request += 1
        size = BATCH_SIZE if request % BATCH_EVERY == 0 else 1
        chunk = [statements[(position + k) % len(statements)]
                 for k in range(size)]
        position += size
        yield chunk if size > 1 else chunk[0]


def answer_of(relation: Relation) -> dict:
    """``{"columns", "rows"}`` as the server's JSON would carry them."""
    names = list(relation.names)
    rows = [[record[name] for name in names]
            for record in relation.to_records()]
    return {"columns": names, "rows": json.loads(json.dumps(rows))}


def run_sql_server(workload: Workload) -> dict:
    sizes = workload.sizes
    rows, dims = sizes["rows"], sizes["dims"]
    names = names_for(dims)
    started = time.perf_counter()
    # a fixed statement stream, as for the query shapes; the seed
    # permutes the columns the statements name
    columns = random.Random(f"sql-columns-{workload.seed}").sample(
        names, dims)

    def stream(count: int, seed: int) -> list[str]:
        placeholders = [f"x{j}" for j in range(dims)]
        return [place(statement, columns)
                for statement in correlated_statements(
                    placeholders, count, table="data", seed=seed,
                    intents=24, pareto_fraction=0.1)]

    statements = stream(sizes["statements"], STATEMENT_SEED)
    warm = stream(sizes["warm_statements"] + BATCH_SIZE, STATEMENT_SEED + 1)
    # the reference: in-process serial osdc on an identically seeded
    # relation
    sql = PreferenceSQL()
    sql.register("data", sql_relation(workload.seed, rows, dims))
    gen_s = time.perf_counter() - started
    trace = workload.trace
    report = workload.out / f"server-{workload.seed}-{int(trace)}.json"

    def build():
        server = ServerProcess(workload.seed, rows, dims, trace, report)
        client = SkylineClient(server.address)
        if not client.ping():
            raise RuntimeError("the server did not answer ping")
        return server, client

    def warm_up(state):
        _server, client = state
        for statement in warm[:sizes["warm_statements"]]:
            client.query(statement)
        client.query_batch(warm[sizes["warm_statements"]:])

    def teardown(state):
        server, client = state
        client.close()
        server.stop()

    # one closed-loop connection: with two, the server's executor
    # threads hand the interpreter lock back and forth and a run's
    # latencies swing by 10% between runs of the same seed
    (server, client), setup_times = setup_repeated(build, warm_up, teardown)
    before = client.stats()

    def check(statement: str, answer: dict, expected: Relation) -> None:
        if {"columns": answer.get("columns"),
                "rows": answer.get("rows")} != answer_of(expected):
            workload.fail(f"{statement}: server answer differs from osdc")

    plan = request_plan(statements)
    first: dict[str, dict] = {}      # statement -> its first answer
    checked: set[str] = set()        # first answers already compared
    singles: list[tuple] = []        # (seconds, response)
    fusion: dict[str, int] = defaultdict(int)
    if trace:
        server.command("record")
    workload.begin()
    while workload.running():
        request = next(plan)
        if isinstance(request, list):
            response, seconds = timed(
                lambda: client.query_batch(request, raise_errors=False))
            workload.latency["batch"].append(seconds)
            answers = response.get("results") if response.get("ok") \
                else None
            answers = answers or [response] * len(request)
            for key, value in (response.get("fusion") or {}).items():
                if isinstance(value, int):
                    fusion[key] += value
        else:
            response, seconds = timed(
                lambda: client.query(request, raise_errors=False))
            workload.latency["query"].append(seconds)
            singles.append((seconds, response))
            request, answers = [request], [response]
        with workload.aside():
            for statement, answer in zip(request, answers):
                workload.ops += 1
                if not answer.get("ok"):
                    workload.fail(f"{statement}: {answer.get('error')}")
                elif answer.get("partial"):
                    workload.fail(f"{statement}: shed (partial answer)")
                else:
                    first.setdefault(statement, answer)
        if len(answers) == 1 and response.get("ok") \
                and not response.get("cached") \
                and not response.get("partial"):
            # a statement the server executed, against in-process serial
            # osdc right after it; cache hits are measured by
            # server.cache.hit_ratio, not credited to the path
            statement = request[0]
            with workload.aside():
                expected, reference_s = timed(
                    lambda: sql.execute(statement, algorithm="osdc"))
                workload.ratios.append(seconds / reference_s)
                check(statement, response, expected)
                if first.get(statement) is response:
                    checked.add(statement)
    workload.end()
    after = client.stats()
    client.close()
    reported = server.stop()

    # oracle for the statements first answered from the cache or a batch
    started = time.perf_counter()
    for statement, answer in first.items():
        if statement not in checked:
            check(statement, answer,
                  sql.execute(statement, algorithm="osdc"))
    oracle_s = time.perf_counter() - started

    cache = {key: after["cache"][key] - before["cache"][key]
             for key in ("hits", "misses", "evictions")}
    counters = {key: after["counters"][key] - before["counters"][key]
                for key in ("shed", "errors")}
    exec_ms = [response["elapsed_ms"] for _, response in singles
               if "elapsed_ms" in response]
    wait_ms = [seconds * 1e3 - response["elapsed_ms"]
               for seconds, response in singles
               if "elapsed_ms" in response]
    hit_ratio = cache["hits"] / max(cache["hits"] + cache["misses"], 1)
    workload.extra.update({
        "distinct_statements": len(first),
        "oracle_s": oracle_s,
        "server_cache_hit_ratio": hit_ratio,
    })
    if trace:
        workload.remote.append(reported)
        workload.provided.update({
            "server.exec_ms": percentile(exec_ms, 50),
            "server.wait_ms.p50": percentile(wait_ms, 50),
            "server.wait_ms.p95": percentile(wait_ms, 95),
            "server.cache.hit_ratio": hit_ratio,
            "server.cache.evictions": cache["evictions"],
            "server.shed": counters["shed"],
            "server.errors": counters["errors"],
            "fusion.dedup_share": fusion["dedup_hits"]
            / max(fusion["queries"], 1),
            "fusion.mask_hit_share": fusion["mask_hits"]
            / max(fusion["mask_hits"] + fusion["mask_misses"], 1),
            "fusion.fallbacks": fusion["fallbacks"],
        })
    return workload.result(setup_times, gen_s, reported["peak_rss_mb"])


# -- shard-writes ----------------------------------------------------------------

def run_shard_writes(workload: Workload) -> dict:
    sizes = workload.sizes
    rows, dims = sizes["rows"], sizes["dims"]
    names = names_for(dims)
    started = time.perf_counter()
    rng = data_rng(workload.seed, 4)
    base = gaussian(rows, dims, 0.0, rng)
    inserts = gaussian(20_000, dims, 0.0, rng)
    # the operation mix is fixed like the query shapes; the seed picks
    # which live rows the deletes hit
    choices = random.Random("shard-ops")
    victims = random.Random(f"shard-deletes-{workload.seed}")
    stream = ExpressionStream(names, (4, 5, 6), "shard-reads", workload.seed)
    tracked = [stream.draw(i) for i in range(2)]
    gen_s = time.perf_counter() - started

    def build():
        sharded = ShardedRelation.from_relation(
            Relation.from_array(base, names=names), shards=4)
        for text in tracked:
            sharded.track(text)
        return sharded

    def warm_up(sharded):
        sharded.p_skyline(WARM_UP)
        sharded.p_skyline(WARM_UP, algorithm="osdc")
        sharded.skyline_gids(tracked[0])

    sharded, setup_times = setup_repeated(build, warm_up, reset_engine)

    live = list(range(rows))
    inserted = reads = index = 0
    workload.begin()
    while workload.running():
        with workload.aside():
            draw = choices.random()
            kind = next(kind for kind, edge in SHARD_MIX if draw < edge)
        if kind == "insert":
            row = [float(value) for value in inserts[inserted % len(inserts)]]
            inserted += 1
            with workload.op(index):
                gid, seconds = timed(lambda: sharded.insert(row))
            live.append(gid)
            workload.latency["write"].append(seconds)
        elif kind == "delete":
            slot = victims.randrange(len(live))
            gid = live[slot]
            live[slot] = live[-1]
            live.pop()
            with workload.op(index):
                _, seconds = timed(lambda: sharded.delete(gid))
            workload.latency["write"].append(seconds)
        elif kind == "read":
            with workload.aside():
                text = stream.draw(reads)
            shard_read(workload, sharded, text, index, reads)
            reads += 1
        else:
            text = tracked[choices.randrange(len(tracked))]
            with workload.op(index):
                gids, seconds = timed(lambda: sharded.skyline_gids(text))
            workload.latency["query"].append(seconds)
            workload.latency["tracked"].append(seconds)
            if choices.random() < TRACKED_CHECK:
                with workload.aside(), workload.untraced():
                    check_tracked(workload, sharded, text, gids)
        workload.ops += 1
        index += 1
    workload.end()
    rss = peak_rss_mb()
    shutdown_default_pool()
    workload.extra["reads"] = reads
    return workload.result(setup_times, gen_s, rss)


def shard_read(workload: Workload, sharded, text: str, index: int,
               reads: int) -> None:
    """One ad-hoc read: pinning a snapshot plus the default ``auto``
    ``p_skyline`` on it, next to ``osdc`` on the same pinned snapshot.
    The pin is charged to the default path in both orders."""
    with workload.op(index):
        snapshot, pin_s = timed(sharded.snapshot)
    try:
        result, expected = workload.back_to_back(
            index,
            lambda: sharded.p_skyline(text, snapshot=snapshot,
                                      stats=workload.stats()),
            lambda: sharded.p_skyline(text, algorithm="osdc",
                                      snapshot=snapshot),
            default_first=reads % 2 == 0, charged_s=pin_s)
    finally:
        snapshot.close()
    with workload.aside():
        workload.latency["read"].append(workload.latency["query"][-1])
        if not np.array_equal(result.ranks, expected.ranks):
            workload.fail(f"read {index} ({text}): auto returned "
                          f"{len(result)} rows, osdc {len(expected)}")


def check_tracked(workload: Workload, sharded, text: str, gids) -> None:
    with sharded.snapshot() as snapshot:
        expected = sharded.p_skyline(text, algorithm="osdc",
                                     snapshot=snapshot)
        got = snapshot.take_gids(gids)
    if not np.array_equal(got.ranks, expected.ranks):
        workload.fail(f"tracked read ({text}): {len(got)} rows, osdc "
                      f"{len(expected)}")


RUNNERS = {
    "planner-mix": run_library,
    "pool-large": run_library,
    "sql-server": run_sql_server,
    "shard-writes": run_shard_writes,
}


def run(name: str, seed: int, seconds: float, scale: str, trace: bool,
        out: Path) -> dict:
    """Run one workload in this process and return its result."""
    return RUNNERS[name](Workload(name, seed, seconds, scale, trace, out))
