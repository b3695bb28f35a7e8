"""Self-test of the end-to-end benchmark.

    python -m pytest e2e -q

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload traced at ``--scale smoke`` and checks the metric catalogue
against ``BENCHMARK.json``, the oracle, the vacuity check and the
tracer's self-time arithmetic.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent
ROOT = E2E.parent
sys.path[:0] = [str(E2E), str(ROOT / "src")]

import layers  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    run = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--scale", "smoke",
         "--seconds", "1", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    line = json.loads(run.stdout.strip().splitlines()[-1])
    results = json.loads((out / "summary.json").read_text())
    return {"line": line, "results": results, "out": out}


def test_catalogue_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["e2e"]
    assert [w["name"] for w in declared["workloads"]] == \
        list(layers.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        layers.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        layers.PER_LAYER


def test_smoke_runs_every_workload_correctly(smoke):
    line = smoke["line"]
    assert line["correct"] and line["failed"] == 0
    assert set(smoke["results"]) == set(layers.WORKLOADS)
    for workload, (result,) in smoke["results"].items():
        assert result["diagnostics"]["error_rate"] == 0, workload
        assert set(result["metrics"]) == set(layers.END_TO_END), workload
        assert all(value > 0 for value in result["metrics"].values()), \
            workload
        for name in layers.PER_LAYER:
            assert f"{workload}.{name}" in line["metrics"], name
            assert line["metrics"][f"{workload}.{name}"]["unit"] == \
                layers.PER_LAYER[name]


def test_smoke_busy_layers_fired(smoke):
    for workload, (result,) in smoke["results"].items():
        assert result["vacuous"] == [], workload
        trace = json.loads(
            (smoke["out"] / f"trace-{workload}.json").read_text())
        assert trace["spans"], workload
        assert trace["layers"]["trace.overhead"] > 0
        for prefix in layers.BUSY[workload]:
            assert any(name == prefix or name.startswith(prefix + ".")
                       for name in trace["span_table"]), (workload, prefix)


def test_vacuity_check_names_a_silent_layer():
    summary = {"spans": {name: {"calls": 1} for name in
                         ("parse", "compile", "planner.plan", "algo.bnl",
                          "dominance.dominators_mask")}}
    assert layers.vacuous("planner-mix", summary, {}) == ["estimation"]
    summary["spans"]["estimation"] = {"calls": 0}
    assert layers.vacuous("planner-mix", summary, {}) == ["estimation"]
    # a layer the host cannot run is reported unmeasured, not vacuous
    assert layers.vacuous("pool-large", {"spans": {}},
                          {"engine.pool": "no pool"}) == \
        ["parse", "compile", "planner.plan", "algo.parallel-osdc"]


def test_self_time_is_duration_minus_child_coverage():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.005)
        time.sleep(0.005)
    records = {name: [] for name in ("outer", "inner")}
    for _id, name, start, end, _parent, _op in tracer.records:
        records[name].append((start, end))
    (outer,) = records["outer"]
    children = sum(end - start for start, end in records["inner"])
    spans = tracer.summary()["spans"]
    assert spans["outer"]["self_ms"] == pytest.approx(
        ((outer[1] - outer[0]) - children) * 1e3, abs=1e-6)
    assert spans["inner"]["self_ms"] == pytest.approx(
        spans["inner"]["total_ms"])
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 2


def test_covered_merges_overlapping_children():
    assert layers.covered([(0, 2), (1, 3), (5, 6)], 0, 5.5) == 3.5
    assert layers.covered([(-1, 1)], 0, 4) == 1


def test_wrappers_patch_use_sites_and_restore():
    import numpy as np
    from repro import REGISTRY, p_skyline
    from repro import planner

    original = REGISTRY["osdc"], planner.estimate_pskyline_size
    tracer = layers.Tracer()
    tracer.install()
    try:
        ranks = np.random.default_rng(0).random((500, 4))
        text = "(A0 & A1) * A2 * A3"
        tracer.recording = True
        with tracer.operation(7):
            p_skyline(ranks, text, algorithm="auto")
            with tracer.paused():
                p_skyline(ranks, text, algorithm="osdc")
            p_skyline(ranks, text, algorithm="auto")
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert (REGISTRY["osdc"], planner.estimate_pskyline_size) == original
    summary = tracer.summary()
    for name in ("parse", "planner.plan", "estimation"):
        assert summary["spans"][name]["calls"] >= 1, name
    assert {record[5] for record in tracer.records} == {7}
    # the paused reference compile is not counted; the second auto
    # query finds the first one's compiled preference
    counters = summary["counters"]
    assert counters["compile.hits"] + counters["compile.misses"] == \
        summary["spans"]["compile"]["calls"]
    assert counters["compile.hits"] >= 1


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "e2e/run.py", "--workload", "planner-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
