"""Shared infrastructure for the p-skyline algorithms.

Every algorithm in this package has the uniform signature::

    algorithm(ranks, graph, *, stats=None, **options) -> np.ndarray

where ``ranks`` is an ``(n, d)`` float64 matrix with *smaller is better*
semantics, ``graph`` the :class:`~repro.core.pgraph.PGraph` over exactly the
``d`` columns, and the return value the sorted row indices of the p-skyline
``M_pi(D)``.  Algorithms register themselves by name in :data:`REGISTRY` so
the query layer and the benchmark harness can enumerate them.

:class:`Stats` counts structural work (dominance tests, splits, passes, ...)
so the output-sensitivity claims can be verified independently of
wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..core.pgraph import PGraph
from ..engine.context import ExecutionContext

__all__ = ["Stats", "Algorithm", "AlgorithmInfo", "REGISTRY",
           "REGISTRY_INFO", "register", "get_algorithm", "get_info",
           "check_shape", "check_input", "check_columns",
           "project_columns", "run_on_columns", "ensure_context",
           "resolve_kernel"]


@dataclass
class Stats:
    """Structural work counters, filled in by the algorithms.

    ``dominance_tests`` counts *tuple-vs-tuple* dominance evaluations, also
    when they are performed inside a vectorised kernel (each row of a
    one-vs-many comparison counts as one test).

    Every numeric field must be handled by :meth:`merge` (summed, or
    maximised for the fields named in :data:`Stats.MAX_FIELDS`); the
    drift-guard test fails when a counter is added without merge support.
    """

    #: Numeric fields combined with ``max`` (peaks/depths); every other
    #: numeric field is summed by :meth:`merge`.
    MAX_FIELDS = ("max_depth", "window_peak")

    dominance_tests: int = 0
    comparisons: int = 0
    splits: int = 0
    recursive_calls: int = 0
    max_depth: int = 0
    passes: int = 0
    window_peak: int = 0
    pruned_by_lookahead: int = 0
    pruned_by_filter: int = 0
    io_reads: int = 0
    io_writes: int = 0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "Stats") -> None:
        self.dominance_tests += other.dominance_tests
        self.comparisons += other.comparisons
        self.splits += other.splits
        self.recursive_calls += other.recursive_calls
        self.max_depth = max(self.max_depth, other.max_depth)
        self.passes += other.passes
        self.window_peak = max(self.window_peak, other.window_peak)
        self.pruned_by_lookahead += other.pruned_by_lookahead
        self.pruned_by_filter += other.pruned_by_filter
        self.io_reads += other.io_reads
        self.io_writes += other.io_writes


class Algorithm(Protocol):
    """The callable protocol all registered algorithms satisfy.

    ``context`` is accepted by every algorithm through ``**options``;
    callers passing only ``stats`` get a default context synthesized by
    :func:`ensure_context` (the compatibility shim).
    """

    def __call__(self, ranks: np.ndarray, graph: PGraph, *,
                 stats: Stats | None = None, **options) -> np.ndarray:
        ...  # pragma: no cover


REGISTRY: dict[str, Algorithm] = {}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Declared guarantees of a registered algorithm.

    The verification harness (:mod:`repro.verify`) keys its invariant
    checks on these flags instead of hard-coding algorithm names:

    ``progressive``
        The algorithm can emit p-skyline members incrementally in
        ``≻ext`` order; ``iterator`` is the generator realising it
        (e.g. :func:`~repro.algorithms.bbs.bbs_iter`).  Any prefix of
        the emission must be a prefix of the full, deterministic
        emission sequence.
    ``bounded_window``
        The algorithm honours a ``window_size`` option and reports the
        high-water mark in ``Stats.window_peak`` (which must never
        exceed the bound).
    ``external``
        The algorithm spills to disk and fills ``Stats.io_reads`` /
        ``Stats.io_writes``.
    ``parallel``
        The algorithm may fan work out to worker processes.  Deadlines
        and cancellation tokens are honoured *on* the parallel path:
        the pool ships the absolute deadline and mirrors the token
        into a shared cancel event (see :mod:`repro.engine.pool`).
        It also accepts ``columns=``: given a base matrix and the
        columns the query reads, it ships the pair to the pool instead
        of a projected copy (see :func:`run_on_columns`).  Given
        ``processes=1`` it runs serially in the calling process (the
        pool's own tasks ask for that).
    ``counts_dominance``
        ``Stats.dominance_tests`` reflects every tuple-vs-tuple test,
        so work lower bounds (each eliminated tuple was tested at
        least once) can be asserted.
    """

    name: str
    function: Algorithm
    progressive: bool = False
    iterator: Callable | None = None
    bounded_window: bool = False
    external: bool = False
    parallel: bool = False
    counts_dominance: bool = True

    @property
    def guarantees(self) -> frozenset[str]:
        """The declared capabilities as a set of tags."""
        return frozenset(
            tag for tag, held in (
                ("progressive", self.progressive),
                ("bounded-window", self.bounded_window),
                ("external", self.external),
                ("parallel", self.parallel),
                ("counts-dominance", self.counts_dominance),
            ) if held
        )


REGISTRY_INFO: dict[str, AlgorithmInfo] = {}


def register(name: str, *, progressive: bool = False,
             iterator: Callable | None = None,
             bounded_window: bool = False, external: bool = False,
             parallel: bool = False,
             counts_dominance: bool = True
             ) -> Callable[[Algorithm], Algorithm]:
    """Decorator adding an algorithm to :data:`REGISTRY` under ``name``.

    Keyword flags declare the invariants the algorithm guarantees (see
    :class:`AlgorithmInfo`); they are recorded in :data:`REGISTRY_INFO`
    for the verification harness.
    """
    if progressive and iterator is None:
        raise ValueError(
            f"progressive algorithm {name!r} must declare its iterator"
        )

    def decorator(function: Algorithm) -> Algorithm:
        if name in REGISTRY:
            raise ValueError(f"algorithm {name!r} registered twice")
        REGISTRY[name] = function
        REGISTRY_INFO[name] = AlgorithmInfo(
            name=name, function=function, progressive=progressive,
            iterator=iterator, bounded_window=bounded_window,
            external=external, parallel=parallel,
            counts_dominance=counts_dominance,
        )
        return function

    return decorator


def get_algorithm(name: str) -> Algorithm:
    """Look up an algorithm by registry name."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(
            f"unknown algorithm {name!r}; available: {known}"
        ) from None


def get_info(name: str) -> AlgorithmInfo:
    """The declared :class:`AlgorithmInfo` of a registered algorithm."""
    get_algorithm(name)  # raises the canonical KeyError when unknown
    return REGISTRY_INFO[name]


def ensure_context(context: ExecutionContext | None,
                   stats: Stats | None = None) -> ExecutionContext:
    """The compatibility shim between the old ``stats=`` convention and
    the engine layer.

    * ``context=None``: synthesize a fresh :class:`ExecutionContext`
      wrapping ``stats`` (which may be ``None`` -- counting stays off).
    * ``context`` given without stats of its own: adopt the caller's
      ``stats`` so the pre-engine calling convention keeps filling the
      same counters.
    """
    if context is None:
        return ExecutionContext(stats=stats)
    if context.stats is None and stats is not None:
        context.stats = stats
    return context


def resolve_kernel(dominance, context: ExecutionContext,
                   kernel: str | None = None,
                   pairs: int | None = None) -> str:
    """Resolve an algorithm's dominance-kernel choice once per run.

    Returns the concrete kernel name (``"bitmask"`` / ``"gemm"`` /
    ``"scalar"``), recording it in ``Stats.extra["kernel"]`` and as a
    ``kernel-select`` trace event so bench artifacts and ``explain``
    output show which family did the work.  ``pairs`` is the expected
    per-block comparison count the auto policy sizes against.
    """
    from ..core.dominance import select_kernel

    resolved = select_kernel(kernel, d=dominance.graph.d, pairs=pairs)
    if context.stats is not None:
        context.stats.extra["kernel"] = resolved
    context.event("kernel-select", kernel=resolved)
    return resolved


def check_shape(ranks: np.ndarray, graph: PGraph,
                columns=None) -> np.ndarray:
    """The shape checks of :func:`check_input` (``columns`` ``None``)
    or :func:`check_columns`, without their NaN scan.  Returns
    ``ranks`` as a float64 matrix, not necessarily contiguous."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim != 2:
        raise ValueError("expected a 2-d rank matrix")
    if columns is None and ranks.shape[1] != graph.d:
        raise ValueError(
            f"rank matrix has {ranks.shape[1]} columns but the p-graph has "
            f"{graph.d} attributes"
        )
    if columns is not None and len(columns) != graph.d:
        raise ValueError(
            f"{len(columns)} columns selected but the p-graph has "
            f"{graph.d} attributes"
        )
    return ranks


def check_input(ranks: np.ndarray, graph: PGraph) -> np.ndarray:
    """Validate and normalise an input rank matrix against its p-graph."""
    ranks = np.ascontiguousarray(check_shape(ranks, graph))
    if np.isnan(ranks).any():
        raise ValueError("rank matrix contains NaNs")
    return ranks


def check_columns(ranks: np.ndarray, graph: PGraph,
                  columns) -> np.ndarray:
    """:func:`check_input` for the columns ``columns`` of ``ranks``,
    without projecting them: the width must match the p-graph and only
    the referenced columns may not hold NaNs.  Returns ``ranks`` as a
    float64 matrix (the base matrix, not a projection)."""
    ranks = check_shape(ranks, graph, columns)
    # one contiguous pass settles the common NaN-free case; per-column
    # views (no copy) find out whether a NaN sits in a column we read
    if np.isnan(ranks).any() and any(np.isnan(ranks[:, column]).any()
                                     for column in columns):
        raise ValueError("rank matrix contains NaNs")
    return ranks


def project_columns(ranks: np.ndarray, columns) -> np.ndarray:
    """The copy ``ranks[:, columns]``; ``ranks`` itself when ``columns``
    is ``None`` or selects every column in order.

    NumPy lays the copy out column by column, and it is left that way:
    at 5k rows a row-major copy made neither the sampling estimator nor
    OSDC faster.  :func:`check_input` makes the row-major copy the
    algorithms need.
    """
    if columns is None or tuple(columns) == tuple(range(ranks.shape[1])):
        return ranks
    return ranks[:, list(columns)]


def run_on_columns(algorithm: str, ranks: np.ndarray, graph: PGraph,
                   columns, **kwargs) -> np.ndarray:
    """Run the registered ``algorithm`` on the columns ``columns`` of
    the base matrix ``ranks``.

    A ``parallel`` algorithm receives the base matrix and ``columns``:
    the worker pool registers each base matrix into shared memory once
    and workers slice the columns.  Every other algorithm receives the
    projection, taken here exactly once.
    """
    function = get_algorithm(algorithm)
    if columns is not None and REGISTRY_INFO[algorithm].parallel:
        return function(ranks, graph, columns=columns, **kwargs)
    return function(project_columns(ranks, columns), graph, **kwargs)
