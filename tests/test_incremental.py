"""Tests for incremental p-skyline maintenance."""

import numpy as np
import pytest

from conftest import random_expression
from repro.algorithms import naive
from repro.algorithms.incremental import PSkylineMaintainer
from repro.core.parser import parse
from repro.core.pgraph import PGraph


def reference_skyline(maintainer, ranks_by_id):
    alive_ids = sorted(i for i in ranks_by_id if i in maintainer)
    if not alive_ids:
        return set()
    block = np.array([ranks_by_id[i] for i in alive_ids])
    local = naive(block, maintainer.graph)
    return {alive_ids[i] for i in local.tolist()}


class TestInsert:
    def test_first_insert_is_maximal(self):
        graph = PGraph.from_expression(parse("A * B"))
        maintainer = PSkylineMaintainer(graph)
        tuple_id = maintainer.insert([1.0, 2.0])
        assert maintainer.skyline_ids().tolist() == [tuple_id]

    def test_dominated_insert_is_shadowed(self):
        graph = PGraph.from_expression(parse("A & B"))
        maintainer = PSkylineMaintainer(graph)
        maintainer.insert([0.0, 0.0])
        shadowed = maintainer.insert([1.0, 0.0])
        assert shadowed not in set(maintainer.skyline_ids().tolist())
        assert shadowed in maintainer  # retained, still alive

    def test_insert_evicts_dominated(self):
        graph = PGraph.from_expression(parse("A & B"))
        maintainer = PSkylineMaintainer(graph)
        old = maintainer.insert([1.0, 1.0])
        new = maintainer.insert([0.0, 5.0])
        assert maintainer.skyline_ids().tolist() == [new]
        assert old in maintainer

    def test_duplicates_coexist(self):
        graph = PGraph.from_expression(parse("A * B"))
        maintainer = PSkylineMaintainer(graph)
        first = maintainer.insert([1.0, 1.0])
        second = maintainer.insert([1.0, 1.0])
        assert maintainer.skyline_ids().tolist() == [first, second]

    def test_validation(self):
        graph = PGraph.from_expression(parse("A * B"))
        maintainer = PSkylineMaintainer(graph)
        with pytest.raises(ValueError):
            maintainer.insert([1.0])
        with pytest.raises(ValueError):
            maintainer.insert([1.0, np.nan])


class TestDelete:
    def test_delete_shadowed_is_cheap(self):
        graph = PGraph.from_expression(parse("A & B"))
        maintainer = PSkylineMaintainer(graph)
        top = maintainer.insert([0.0, 0.0])
        shadowed = maintainer.insert([1.0, 0.0])
        maintainer.delete(shadowed)
        assert maintainer.skyline_ids().tolist() == [top]
        assert shadowed not in maintainer

    def test_delete_skyline_member_promotes(self):
        graph = PGraph.from_expression(parse("A & B"))
        maintainer = PSkylineMaintainer(graph)
        top = maintainer.insert([0.0, 0.0])
        middle = maintainer.insert([1.0, 0.0])
        bottom = maintainer.insert([1.0, 1.0])
        maintainer.delete(top)
        assert maintainer.skyline_ids().tolist() == [middle]
        maintainer.delete(middle)
        assert maintainer.skyline_ids().tolist() == [bottom]

    def test_delete_unknown_id(self):
        graph = PGraph.from_expression(parse("A"))
        maintainer = PSkylineMaintainer(graph)
        with pytest.raises(KeyError):
            maintainer.delete(0)
        tuple_id = maintainer.insert([1.0])
        maintainer.delete(tuple_id)
        with pytest.raises(KeyError):
            maintainer.delete(tuple_id)


@pytest.mark.parametrize("seed", range(6))
def test_random_workload_matches_recomputation(seed, rng, nrng):
    rng.seed(seed)
    nrng = np.random.default_rng(seed)
    d = rng.randint(1, 5)
    names = [f"A{i}" for i in range(d)]
    graph = PGraph.from_expression(random_expression(names, rng),
                                   names=names)
    maintainer = PSkylineMaintainer(graph, capacity=4)
    ranks_by_id = {}
    for step in range(150):
        alive = sorted(i for i in ranks_by_id if i in maintainer)
        if alive and rng.random() < 0.35:
            victim = rng.choice(alive)
            maintainer.delete(victim)
            del ranks_by_id[victim]
        else:
            values = nrng.integers(0, 4, size=d).astype(float)
            tuple_id = maintainer.insert(values)
            ranks_by_id[tuple_id] = values
        expected = reference_skyline(maintainer, ranks_by_id)
        got = set(maintainer.skyline_ids().tolist())
        assert got == expected, step


@pytest.mark.parametrize("seed", range(4))
def test_kept_skyline_equals_osdc_of_alive_rows(seed):
    """The skyline is kept as ids plus their rows, never rescanned: after
    every operation of a seeded random sequence both equal a
    from-scratch ``osdc`` over the alive rows."""
    from repro.algorithms.osdc import osdc

    nrng = np.random.default_rng(seed)
    graph = PGraph.from_expression(parse("(A0 & A1) * A2 * A3"),
                                   names=["A0", "A1", "A2", "A3"])
    maintainer = PSkylineMaintainer(graph, capacity=8)
    rows = {}
    for step in range(300):
        alive = sorted(rows)
        if alive and nrng.random() < 0.4:
            # favour skyline members, whose deletes promote
            skyline = maintainer.skyline_ids()
            pool = skyline if skyline.size and nrng.random() < 0.5 \
                else alive
            victim = int(nrng.choice(pool))
            maintainer.delete(victim)
            del rows[victim]
        elif nrng.random() < 0.1:
            block = nrng.integers(0, 6, size=(20, 4)).astype(float)
            for tuple_id, row in zip(maintainer.bulk_load(block), block):
                rows[int(tuple_id)] = row
        else:
            row = nrng.integers(0, 6, size=4).astype(float)
            rows[maintainer.insert(row)] = row
        alive = np.array(sorted(rows), dtype=np.intp)
        if not alive.size:
            assert maintainer.skyline_ids().size == 0
            continue
        block = np.array([rows[i] for i in alive.tolist()])
        expected = np.sort(alive[osdc(block, graph)])
        assert np.array_equal(maintainer.skyline_ids(), expected), step
        assert np.array_equal(maintainer.skyline_ranks(),
                              maintainer.ranks_of(expected)), step


def test_rejected_inputs_stay_rejected():
    graph = PGraph.from_expression(parse("A * B"))
    maintainer = PSkylineMaintainer(graph)
    for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [np.nan, 1.0],
                [1.0, float("nan")]):
        with pytest.raises(ValueError):
            maintainer.insert(bad)
    with pytest.raises((TypeError, ValueError)):
        maintainer.insert(["a", 1.0])
    assert maintainer._size == 0
    # infinities are ranks like any other; only NaN has no order
    assert maintainer.insert([np.inf, -np.inf]) == 0
