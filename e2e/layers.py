"""Outside-in layer tracer for the end-to-end benchmark.

The tracer wraps the public functions of each library layer *at their
use site* (modules bind names at import, so ``repro.planner`` calls its
own ``estimate_pskyline_size`` binding, not the one in
``repro.estimation``) and records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory; :meth:`Tracer.summary`
folds them into per-name calls, total and self time, where a span's self
time is its duration minus the part of it that its child spans cover.

Nothing inside the library is changed: :meth:`Tracer.uninstall` restores
every original binding.  Pool workers are visible only as the
parent-side call into the pool.

Every site in :data:`SITES` must resolve when the tracer is installed,
and :func:`vacuous` names every layer declared busy for a workload whose
spans never fired -- a mis-patched call site fails the run instead of
reporting "no time spent".

The module also holds the benchmark's metric catalogue
(:data:`END_TO_END`, :data:`PER_LAYER`); it imports the library only
inside functions, so the benchmark's parent process never does.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

WORKLOADS = ("planner-mix", "pool-large", "sql-server", "shard-writes")

#: Gated end-to-end metrics: name -> unit.  Every workload reports all
#: of them.  Latency and throughput are diagnostics: on the shared
#: 2-vCPU host the benchmark was calibrated on, they follow the host's
#: speed (planner-mix's median p50 over ten seeds moved 37% between two
#: sets of runs a few hours apart, and spread 0.36 between quartiles
#: within one set), which ``default_over_osdc`` divides out (it moved
#: under 1%).
END_TO_END = {
    "setup_s": "s",
    "default_over_osdc": "ratio",
    "peak_rss_mb": "MB",
}

#: (span name, layer, "module:attribute.path" or "module:DICT[key]").
#: One span name may cover several sites of the same function.
SITES = (
    ("parse", "core.parser", "repro.core.query:parse"),
    ("parse", "core.parser", "repro.core.parser:parse"),
    ("compile", "engine.compiled",
     "repro.engine.compiled:PreferenceCache.get"),
    ("sql.parse", "sql", "repro.server.service:parse_query"),
    ("sql.parse", "sql", "repro.sql.executor:parse_query"),
    ("sql.execute", "sql", "repro.sql.executor:PreferenceSQL.execute_parsed"),
    ("sql.execute_batch", "sql",
     "repro.sql.executor:PreferenceSQL.execute_batch"),
    ("planner.plan", "planner", "repro.planner:Planner.plan"),
    ("planner.plan_sharded", "planner", "repro.planner:Planner.plan_sharded"),
    ("estimation", "estimation", "repro.planner:estimate_pskyline_size"),
    ("algo.osdc", "algorithms", "repro.algorithms.base:REGISTRY[osdc]"),
    ("algo.osdc", "algorithms", "repro.algorithms.osdc:osdc"),
    ("algo.bnl", "algorithms", "repro.algorithms.base:REGISTRY[bnl]"),
    ("algo.naive", "algorithms", "repro.algorithms.base:REGISTRY[naive]"),
    ("algo.parallel-osdc", "algorithms",
     "repro.algorithms.base:REGISTRY[parallel-osdc]"),
    ("algo.layered", "algorithms", "repro.planner:layered"),
    ("pscreen.screen", "algorithms",
     "repro.algorithms.pscreen:PScreener.screen"),
    ("osdc.lookahead", "algorithms",
     "repro.algorithms.osdc:pskyline_single_point"),
    ("osdc.lookahead", "algorithms",
     "repro.algorithms.osdc:pscreen_single_point"),
    ("dominance.screen_block", "core.dominance",
     "repro.core.dominance:Dominance.screen_block"),
    ("dominance.dominators_mask", "core.dominance",
     "repro.core.dominance:Dominance.dominators_mask"),
    ("pool.run_query", "engine.pool", "repro.engine.pool:WorkerPool.run_query"),
    ("pool.run_sharded", "engine.pool",
     "repro.engine.pool:WorkerPool.run_sharded"),
    ("pool.merge_sharded_skylines", "engine.pool",
     "repro.engine.pool:WorkerPool.merge_sharded_skylines"),
    ("pool.register", "engine.pool", "repro.engine.pool:WorkerPool.register"),
    ("fusion.build", "core.fusion", "repro.core.fusion:FusionPlan.build"),
    ("fusion.execute", "core.fusion", "repro.core.fusion:FusionPlan.execute"),
    ("sharding.insert", "core.sharding",
     "repro.core.sharding:ShardedRelation.insert"),
    ("sharding.delete", "core.sharding",
     "repro.core.sharding:ShardedRelation.delete"),
    ("sharding.snapshot", "core.sharding",
     "repro.core.sharding:ShardedRelation.snapshot"),
    ("sharding.skyline_gids", "core.sharding",
     "repro.core.sharding:ShardedRelation.skyline_gids"),
    ("sharding.take_gids", "core.sharding",
     "repro.core.sharding:ShardSnapshot.take_gids"),
    ("server.cache.get", "server", "repro.server.cache:ResultCache.get"),
    ("server.serialize", "server", "repro.server.service:serialize_relation"),
    ("server.frame", "server", "repro.server.service:encode_frame"),
    ("server.frame", "server", "repro.server.protocol:decode_frame"),
)

#: Span-name prefixes each workload keeps busy; every one must fire in
#: that workload's traced run.  A bare prefix ("algo") is satisfied by
#: any span under it ("algo.bnl", ...).
BUSY = {
    "planner-mix": ("parse", "compile", "planner.plan", "estimation",
                    "algo", "dominance"),
    "pool-large": ("parse", "compile", "planner.plan", "algo.parallel-osdc",
                   "pool.run_query", "pool.register"),
    "sql-server": ("sql.parse", "sql.execute", "sql.execute_batch",
                   "compile", "algo.osdc", "fusion.build", "fusion.execute",
                   "server.cache.get", "server.serialize", "server.frame"),
    "shard-writes": ("parse", "planner.plan_sharded", "estimation",
                     "pool.run_sharded", "pool.register", "sharding.insert",
                     "sharding.delete", "sharding.snapshot",
                     "sharding.skyline_gids", "sharding.take_gids"),
}

#: Prefixes each workload should leave untouched (the "no change"
#: prediction); activity there is reported, not failed.
IDLE = {
    "planner-mix": ("pool", "sql", "server", "fusion", "sharding"),
    "pool-large": ("estimation", "sql", "server", "fusion", "sharding"),
    "sql-server": ("planner", "estimation", "pool", "sharding"),
    "shard-writes": ("sql", "server", "fusion"),
}

#: Planner decisions reported as ``planner.pick.<algorithm>`` counts.
PICKS = ("osdc", "bnl", "layered", "naive", "parallel-osdc",
         "sharded-scatter-gather", "sharded-serial", "single-shard")

_ALGORITHMS = ("osdc", "bnl", "naive", "layered", "parallel-osdc")

#: The per-layer metrics of every traced run: name -> unit.
#: ``<span>.calls`` counts calls over the traced run; ``<span>.ms`` is
#: the span's self time per completed operation, so one run's ``.ms``
#: values add up to its traced time per operation.
PER_LAYER = {
    "parse.ms": "ms/op",
    "compile.ms": "ms/op",
    "compile.hit_ratio": "ratio",
    "sql.parse.ms": "ms/op",
    "sql.execute.ms": "ms/op",
    "sql.execute_batch.ms": "ms/op",
    "planner.plan.ms": "ms/op",
    "planner.plan_sharded.ms": "ms/op",
    **{f"planner.pick.{name}": "count" for name in PICKS},
    "planner.slow_pick_share": "ratio",
    "estimation.calls": "count",
    "estimation.ms": "ms/op",
    "estimation.zero_share": "ratio",
    **{f"algo.{name}.{kind}": unit for name in _ALGORITHMS
       for kind, unit in (("calls", "count"), ("ms", "ms/op"))},
    "pscreen.screen.calls": "count",
    "pscreen.screen.ms": "ms/op",
    "pscreen.survivor_share": "ratio",
    "osdc.lookahead.ms": "ms/op",
    "stats.dominance_tests": "count/op",
    "stats.splits": "count/op",
    "stats.pruned_by_lookahead": "count/op",
    **{f"dominance.screen_block.{size}.{kind}": unit
       for size in ("small", "large")
       for kind, unit in (("calls", "count"), ("pairs", "count"),
                          ("ms", "ms/op"))},
    "dominance.dominators_mask.calls": "count",
    "dominance.dominators_mask.ms": "ms/op",
    "pool.run_query.calls": "count",
    "pool.run_query.ms": "ms/op",
    "pool.run_sharded.calls": "count",
    "pool.run_sharded.ms": "ms/op",
    "pool.merge_sharded_skylines.ms": "ms/op",
    "pool.register.calls": "count",
    "pool.register.ms": "ms/op",
    "pool.register.bytes": "B",
    "pool.chunks": "count",
    "fusion.build.ms": "ms/op",
    "fusion.execute.ms": "ms/op",
    "fusion.dedup_share": "ratio",
    "fusion.mask_hit_share": "ratio",
    "fusion.fallbacks": "count",
    "sharding.insert.ms": "ms/op",
    "sharding.delete.ms": "ms/op",
    "sharding.snapshot.ms": "ms/op",
    "sharding.skyline_gids.ms": "ms/op",
    "sharding.take_gids.ms": "ms/op",
    "server.exec_ms": "ms",
    "server.wait_ms.p50": "ms",
    "server.wait_ms.p95": "ms",
    "server.cache.hit_ratio": "ratio",
    "server.cache.evictions": "count",
    "server.cache.get.ms": "ms/op",
    "server.serialize.ms": "ms/op",
    "server.frame.ms": "ms/op",
    "server.shed": "count",
    "server.errors": "count",
    "trace.overhead": "ratio",
}

#: Metric prefix -> the host-dependent layer it measures.  Metrics of a
#: layer the host cannot run read ``"unmeasured"``; the ``native.`` view
#: is report-only, since it exists on some hosts only.
HOST_LAYER_OF = {"pool.": "engine.pool", "native.": "core.native"}

_STAT_FIELDS = ("dominance_tests", "splits", "pruned_by_lookahead")
#: Spans that evaluate a query and fill its ``Stats`` (pooled sharded
#: reads reach the pool without an algorithm call in this process).
_WORK_SPANS = ("algo.", "pool.run_", "pool.merge_")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Spans, counters and labels recorded by the installed wrappers.

    The wrappers record only while :attr:`recording` is on; it starts
    off.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []     # (id, name, start, end, parent, op)
        self.counters: dict[str, float] = defaultdict(float)
        self.labels: dict[str, object] = {}
        self.estimates: list[tuple] = []   # (op, estimated output size)
        self.reference_sizes: dict = {}    # op -> reference output size
        self.origin = time.perf_counter()
        #: Blocks with at least this many rows are where the thread
        #: layer tiles (read from the library at install).
        self.thread_min_rows = 0
        self._recording = False
        self._cache_mark: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple] = []
        self._registrations: dict[int, object] = {}

    @property
    def recording(self) -> bool:
        return self._recording

    @recording.setter
    def recording(self, on: bool) -> None:
        """Start or stop recording.  Compile-cache hits and misses are
        the change in ``default_cache().stats()`` over the recorded
        time, which is exact however many threads call the cache."""
        from repro.engine.compiled import default_cache

        if on == self._recording:
            return
        stats = default_cache().stats()
        if on:
            self._cache_mark = stats
        else:
            for key in ("hits", "misses"):
                self.add(f"compile.{key}", stats[key] - self._cache_mark[key])
        self._recording = on

    def add(self, counter: str, amount: float) -> None:
        """Add to a counter (the server's executor threads share them)."""
        with self._lock:
            self.counters[counter] += amount

    # -- span bookkeeping ---------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.work_depth = 0
        return local

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        op = state.op if state.op is not None else (
            parent[1] if parent is not None else span_id)
        state.stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.records.append((span_id, name, start, end,
                                 parent[0] if parent else None, op))

    @contextmanager
    def operation(self, op):
        """Tag the spans this thread opens in the body with ``op``."""
        state = self._state()
        previous, state.op = state.op, op
        try:
            yield
        finally:
            state.op = previous

    @contextmanager
    def paused(self):
        """Call through the wrappers without recording (reference runs)."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def current_op(self):
        state = self._state()
        if state.op is not None:
            return state.op
        return state.stack[-1][1] if state.stack else None

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every site in :data:`SITES` (raises if one is missing)."""
        from repro.core import dominance
        from repro.engine.threads import effective_budget

        self.thread_min_rows = dominance.THREAD_MIN_ROWS
        self.labels["thread_budget"] = effective_budget()
        wrappers: dict[int, object] = {}
        for name, _layer, site in SITES:
            owner, key, original = _resolve(site)
            raw = original.__func__ if isinstance(original, classmethod) \
                else original
            wrapper = wrappers.get(id(raw))
            if wrapper is None:
                wrapper = wrappers[id(raw)] = self._wrap(name, raw)
            _assign(owner, key, classmethod(wrapper)
                    if isinstance(original, classmethod) else wrapper)
            self._originals.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._originals:
            owner, key, original = self._originals.pop()
            _assign(owner, key, original)

    def _wrap(self, name: str, function):
        observe = _OBSERVERS.get(name)
        does_work = name.startswith(_WORK_SPANS)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return function(*args, **kwargs)
            state = tracer._state()
            # work counters are read off the outermost evaluating call
            # only; nested ones are already inside its totals
            outermost = does_work and state.work_depth == 0
            before = _stats_of(kwargs) if outermost else None
            span_name = tracer._screen_name(args) \
                if name == "dominance.screen_block" else name
            state.work_depth += does_work
            try:
                with tracer.span(span_name):
                    result = function(*args, **kwargs)
            finally:
                state.work_depth -= does_work
            if before is not None:
                tracer._count_stats(*before)
            if observe is not None:
                observe(tracer, span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def _screen_name(self, args) -> str:
        size = "large" if args[1].shape[0] >= self.thread_min_rows \
            else "small"
        return f"dominance.screen_block.{size}"

    def _count_stats(self, stats, old) -> None:
        for field, value in zip(_STAT_FIELDS, old):
            self.add(f"stats.{field}", getattr(stats, field) - value)
        if stats.extra.get("kernel"):
            self.labels["kernel"] = stats.extra["kernel"]

    # -- results ------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name ``calls`` / ``total_ms`` / ``self_ms``, counters and
        labels (JSON-serialisable)."""
        children = defaultdict(list)
        for _id, _name, start, end, parent, _op in self.records:
            if parent is not None:
                children[parent].append((start, end))
        spans: dict[str, dict] = {}
        for span_id, name, start, end, _parent, _op in self.records:
            entry = spans.setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["total_ms"] += duration * 1e3
            entry["self_ms"] += (duration - covered(
                children.get(span_id, ()), start, end)) * 1e3
        counters = dict(self.counters)
        if self.estimates:
            counters["estimation.values"] = len(self.estimates)
            counters["estimation.zero"] = sum(
                1 for op, value in self.estimates
                if value == 0 and self.reference_sizes.get(op, 0) > 0)
        return {"spans": spans, "counters": counters,
                "labels": dict(self.labels)}

    def span_list(self) -> list:
        """Every span as ``[name, start_s, end_s, id, parent, op]``."""
        return [[name, round(start - self.origin, 7),
                 round(end - self.origin, 7), span_id, parent, op]
                for span_id, name, start, end, parent, op
                in sorted(self.records, key=lambda record: record[2])]


def _resolve(site: str):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    if path.endswith("]"):
        attribute, key = path[:-1].split("[")
        table = getattr(owner, attribute)
        return table, ("item", key), table[key]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, ("attr", parts[-1]), \
        inspect.getattr_static(owner, parts[-1])


def _assign(owner, key, value) -> None:
    kind, name = key
    if kind == "item":
        owner[name] = value
    else:
        setattr(owner, name, value)


def _stats_of(kwargs):
    context = kwargs.get("context")
    stats = context.stats if context is not None else None
    if stats is None:
        stats = kwargs.get("stats")
    if stats is None:
        return None
    return stats, tuple(getattr(stats, field) for field in _STAT_FIELDS)


# -- per-site observers: (prepare(args) -> value, observe(...)) ----------------

def _observe_screen(tracer, name, args, _kwargs, _result):
    tracer.add(f"{name}.pairs", args[1].shape[0] * args[2].shape[0])


def _observe_pscreen(tracer, _name, args, kwargs, result):
    w_idx = args[3] if len(args) > 3 else kwargs["w_idx"]
    tracer.add("pscreen.screen.input", len(w_idx))
    tracer.add("pscreen.screen.survivors", len(result))


def _observe_plan(tracer, _name, _args, _kwargs, plan):
    tracer.add(f"planner.pick.{plan.algorithm}", 1)


def _observe_estimate(tracer, _name, _args, _kwargs, value):
    tracer.estimates.append((tracer.current_op(), float(value)))


def _observe_register(tracer, _name, args, _kwargs, registration):
    # ``register`` returns the existing registration for an array it
    # already holds; only new ones copy bytes into shared memory
    if tracer._registrations.get(id(registration)) is not registration:
        tracer._registrations[id(registration)] = registration
        tracer.add("pool.register.bytes", args[1].nbytes)


def _observe_pooled(tracer, _name, _args, kwargs, _result):
    context = kwargs.get("context")
    stats = context.stats if context is not None else None
    pool = stats.extra.get("pool") if stats is not None else None
    if pool:
        tracer.add("pool.chunks", pool["chunks"])
        tracer.add("pool.queries", 1)


_OBSERVERS = {
    "dominance.screen_block": _observe_screen,
    "pscreen.screen": _observe_pscreen,
    "planner.plan": _observe_plan,
    "planner.plan_sharded": _observe_plan,
    "estimation": _observe_estimate,
    "pool.register": _observe_register,
    "pool.run_query": _observe_pooled,
    "pool.run_sharded": _observe_pooled,
}


# -- layer metrics -------------------------------------------------------------

def merge_summaries(*summaries) -> dict:
    """Add the span tables and counters of several processes."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = defaultdict(float)
    labels: dict[str, object] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = spans.setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for field in into:
                into[field] += entry[field]
        for name, value in summary["counters"].items():
            counters[name] += value
        labels.update(summary.get("labels", {}))
    return {"spans": spans, "counters": dict(counters), "labels": labels}


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: dict, ops: int, unmeasured: dict[str, str],
                  provided: dict | None = None) -> dict[str, object]:
    """Every :data:`PER_LAYER` metric (plus the report-only ``native.``
    view) from a traced run's summary.

    ``provided`` carries the metrics measured outside the tracer (server
    responses, the untraced run); absent ones read 0 -- the layer was
    idle.  Metrics of a layer this host cannot run read
    ``"unmeasured"``.
    """
    spans = summary["spans"]
    counters = summary["counters"]
    ops = max(ops, 1)

    def count(key: str) -> float:
        return counters.get(key, 0)

    hits, misses = count("compile.hits"), count("compile.misses")
    derived = {
        "compile.hit_ratio": _share(hits, hits + misses),
        "estimation.zero_share": _share(count("estimation.zero"),
                                        count("estimation.values")),
        "pscreen.survivor_share": _share(count("pscreen.screen.survivors"),
                                         count("pscreen.screen.input")),
        "pool.register.bytes": count("pool.register.bytes"),
        "pool.chunks": _share(count("pool.chunks"), count("pool.queries")),
        **{f"stats.{field}": count(f"stats.{field}") / ops
           for field in _STAT_FIELDS},
        **{f"planner.pick.{name}": count(f"planner.pick.{name}")
           for name in PICKS},
    }
    derived.update(provided or {})
    metrics: dict[str, object] = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        entry = spans.get(stem, {"calls": 0, "self_ms": 0.0})
        if name in derived:
            metrics[name] = derived[name]
        elif kind == "pairs":
            metrics[name] = count(name)
        elif kind == "calls":
            metrics[name] = entry["calls"]
        elif kind == "ms":
            metrics[name] = entry["self_ms"] / ops
        else:
            metrics[name] = 0.0
    # the same screens, credited to the compiled kernel some hosts have
    screens = metrics["dominance.screen_block.small.ms"] + \
        metrics["dominance.screen_block.large.ms"]
    metrics["native.screen_block.ms"] = screens \
        if summary["labels"].get("kernel") == "native" else 0.0
    for name in metrics:
        for prefix, layer in HOST_LAYER_OF.items():
            if name.startswith(prefix) and layer in unmeasured:
                metrics[name] = "unmeasured"
    return metrics


def vacuous(workload: str, summary: dict,
            unmeasured: dict[str, str]) -> list[str]:
    """Busy prefixes of ``workload`` whose spans never fired (layers the
    host cannot run are skipped)."""
    missing = []
    for prefix in BUSY[workload]:
        layer = next(layer for name, layer, _site in SITES
                     if _matches(name, prefix))
        if layer in unmeasured:
            continue
        if not any(_matches(name, prefix) and entry["calls"] > 0
                   for name, entry in summary["spans"].items()):
            missing.append(prefix)
    return missing


def idle_activity(workload: str, summary: dict) -> list[str]:
    """Spans that fired under a prefix the workload should leave idle."""
    return sorted(name for name, entry in summary["spans"].items()
                  if entry["calls"] and any(
                      _matches(name, prefix) for prefix in IDLE[workload]))


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def host_layers() -> dict[str, str]:
    """Layers this host cannot run, with the reason."""
    from repro.core import native
    from repro.core.dominance import native_available
    from repro.engine.pool import pool_available
    from repro.engine.threads import effective_budget

    unmeasured = {}
    if not native_available():
        unmeasured["core.native"] = native.unavailable_reason() or \
            "native kernel unavailable"
    if effective_budget() <= 1:
        unmeasured["engine.threads"] = "screen thread budget is 1"
    if not pool_available():
        unmeasured["engine.pool"] = "this process cannot host a pool"
    return unmeasured
