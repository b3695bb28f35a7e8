"""Golden answers and work counters of ``osdc`` and ``dc``.

``tests/golden/osdc_dc_counters.json`` holds, for 144 seeded cases, the
answer's digest and size and the ``Stats`` counters the divide-and-
conquer driver fills: ``dominance_tests``, ``splits``,
``pruned_by_lookahead``, ``recursive_calls`` and ``max_depth``.  A
change to how the driver stores or moves rows must leave every one of
them exact: the split order, the look-ahead pivot and the screens'
inputs are all observable through them.

Regenerate (only when a counter is *meant* to change) with::

    PYTHONPATH=src python tests/test_osdc_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import Relation, p_skyline
from repro.algorithms import Stats, osdc
from repro.core.attributes import highest, lowest
from repro.core.parser import parse
from repro.core.pgraph import PGraph

GOLDEN = Path(__file__).parent / "golden" / "osdc_dc_counters.json"
COUNTERS = ("dominance_tests", "splits", "pruned_by_lookahead",
            "recursive_calls", "max_depth")


def _datasets() -> dict:
    """Seeded inputs with ties, a constant column and duplicate rows."""
    rng = np.random.default_rng(2015)
    ties = rng.integers(0, 10, size=(1500, 5)).astype(float)
    constant = rng.random((1200, 5))
    constant[:, 2] = 0.5
    distinct = rng.integers(0, 40, size=(300, 5)).astype(float)
    duplicates = distinct[rng.permutation(np.repeat(np.arange(300), 4))]
    # anti-correlated: near the simplex, so skylines are large
    anti = rng.dirichlet(np.ones(5), size=2000) \
        + rng.normal(scale=0.02, size=(2000, 5))
    anti[:, 1] = np.round(anti[:, 1], 2)  # ties on one column
    return {"ties": ties, "constant": constant, "duplicates": duplicates,
            "anti": anti}


#: Column subsets, in and out of order, of the five columns.
EXPRESSIONS = ("A0 * A1 * A2 * A3", "(A3 & A1) * A2 * A4",
               "A4 * (A0 & (A2 * A3))")


def _data(matrix: np.ndarray, mode: str):
    if mode == "relation":
        schema = [lowest("A0"), highest("A1"), lowest("A2"),
                  lowest("A3"), highest("A4")]
        return Relation.from_array(matrix, schema=schema)
    if mode == "frozen":
        frozen = matrix.copy()
        frozen.setflags(write=False)
        return frozen
    return matrix.copy()


def _runs():
    """Every (key, data, expression, algorithm, options) of the grid:
    three data modes at the defaults, the two other ``select`` values
    and ``leaf_size=1`` on the relation."""
    variants = [("relation", {}), ("frozen", {}), ("writeable", {}),
                ("relation", {"select": "rotate"}),
                ("relation", {"select": "widest"}),
                ("relation", {"leaf_size": 1})]
    for name, matrix in _datasets().items():
        for expression in EXPRESSIONS:
            for algorithm in ("osdc", "dc"):
                for mode, options in variants:
                    suffix = ",".join(f"{k}={v}" for k, v in options.items())
                    key = f"{name}|{expression}|{algorithm}|{mode}|{suffix}"
                    yield key, _data(matrix, mode), expression, algorithm, \
                        options


def _measure(data, expression: str, algorithm: str, options: dict) -> dict:
    stats = Stats()
    result = p_skyline(data, expression, algorithm=algorithm, stats=stats,
                       **options)
    answer = result.ranks if isinstance(result, Relation) \
        else np.asarray(result, dtype=np.int64)
    record = {"size": int(len(answer)),
              "digest": hashlib.sha256(
                  np.ascontiguousarray(answer).tobytes()).hexdigest()[:16]}
    record.update({name: int(getattr(stats, name)) for name in COUNTERS})
    return record


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


RUNS = list(_runs())


def test_the_grid_is_complete():
    assert len(RUNS) == 144
    assert sorted(key for key, *_ in RUNS) == sorted(_golden())


@pytest.mark.parametrize("key,data,expression,algorithm,options", RUNS,
                         ids=[run[0] for run in RUNS])
def test_answers_and_counters_are_exact(key, data, expression, algorithm,
                                        options):
    assert _measure(data, expression, algorithm, options) == _golden()[key]


def test_osdc_keeps_one_working_copy_of_the_columns_it_reads():
    """``osdc`` over 4 of 8 columns of a read-only matrix holds one
    working copy of those rows (plus its row ids): the transient peak
    stays under 1.5 copies of the projection."""
    rng = np.random.default_rng(7)
    base = rng.random((200_000, 8))
    base.setflags(write=False)
    expression = "(A6 & A1) * A3 * A4"
    projected = base.shape[0] * 4 * base.itemsize
    graph = PGraph.from_expression(parse("(A & B) * C * D"))
    expected = osdc(np.ascontiguousarray(base[:, [6, 1, 3, 4]]), graph)
    tracemalloc.start()
    try:
        got = p_skyline(base, expression, algorithm="osdc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < 1.5 * projected, peak / projected


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {key: _measure(data, expression, algorithm, options)
              for key, data, expression, algorithm, options in _runs()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
