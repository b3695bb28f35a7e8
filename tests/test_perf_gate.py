"""The perf-gate tier registry: committed baselines, waivers, mutations.

Every committed ``BENCH_*.json`` checked against itself must have no
failing check, and every check it recorded as ``unmeasured`` must come
back ``unmeasured``.  Mutated copies of the baselines must fail
exactly the check that guards the mutated field, and a gate run must
never overwrite the committed baselines unless asked to, nor check
without them.
"""

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.gate_workloads import SEED
from repro.bench.perf_gate import TIERS, evaluate, host_tag, main

ROOT = Path(__file__).resolve().parents[1]
KINDS = {"floor", "ceiling", "equal", "exact", "close", "time"}


def baseline(tier: str) -> dict:
    return json.loads((ROOT / TIERS[tier].baseline).read_text())


def failing(verdicts: dict) -> list[str]:
    return [key for key, verdict in verdicts.items()
            if verdict.startswith("fail")]


def test_registry_declares_the_five_tiers():
    assert list(TIERS) == ["kernels", "pool", "shards", "server",
                           "fusion"]
    assert sorted(tier.baseline for tier in TIERS.values()) == sorted(
        f"BENCH_{n}.json" for n in range(4, 9))
    for tier in TIERS.values():
        assert {check.kind for check in tier.checks} <= KINDS
        assert set(tier.quick) == set(tier.full)


@pytest.mark.parametrize("quick", [False, True])
def test_workload_block_is_the_chosen_size_map(quick):
    tier = replace(TIERS["fusion"], workload=lambda sizes: {"ran": sizes})
    artifact = tier.run(quick)
    sizes = tier.quick if quick else tier.full
    assert artifact["workload"] == {"seed": SEED, "quick": quick, **sizes}
    assert artifact["ran"] is sizes
    assert artifact["host"] == host_tag() and "cores" not in artifact


def assert_waivers_hold(verdicts: dict, artifact: dict) -> None:
    """Every check ``artifact`` recorded as unmeasured is unmeasured in
    ``verdicts`` too, never a silent pass.  The waivers read the
    artifact's own host tag and scale, not the host running the test,
    so this holds on any host."""
    recorded = {key: verdict
                for key, verdict in artifact.get("verdicts", {}).items()
                if verdict.startswith("unmeasured: ")}
    for key, verdict in recorded.items():
        assert verdicts.get(key) == verdict, key


@pytest.mark.parametrize("tier", list(TIERS))
def test_committed_baseline_passes_against_itself(tier):
    artifact = baseline(tier)
    verdicts = evaluate(TIERS[tier], artifact, artifact)
    assert verdicts and failing(verdicts) == []
    assert all(verdict == "pass" or verdict.startswith("unmeasured: ")
               for verdict in verdicts.values())
    assert_waivers_hold(verdicts, artifact)


def one_core(tier: str) -> dict:
    """The committed baseline as a one-core host records it against
    itself: its core-scaled checks are waived."""
    artifact = baseline(tier)
    artifact["host"] = {"cpu_count": 1}
    artifact["verdicts"] = evaluate(TIERS[tier], artifact, artifact)
    return artifact


WAIVED = [tier for tier in TIERS
          if any(verdict.startswith("unmeasured: ")
                 for verdict in one_core(tier)["verdicts"].values())]


def test_core_scaled_tiers_waive_on_one_core():
    assert WAIVED == ["pool", "shards", "server"]


@pytest.mark.parametrize("tier", WAIVED)
def test_a_passed_waiver_fails_the_recorded_verdicts(tier, monkeypatch):
    """The waiver half of the self-check can fail: an ``evaluate`` that
    passes a waived check breaks it."""
    from repro.bench import perf_gate

    artifact = one_core(tier)
    verdicts_of = perf_gate._verdicts

    def lenient(check, current, baseline):
        for key, verdict in verdicts_of(check, current, baseline):
            yield key, ("pass" if verdict.startswith("unmeasured: ")
                        else verdict)

    monkeypatch.setattr(perf_gate, "_verdicts", lenient)
    verdicts = evaluate(TIERS[tier], artifact, artifact)
    with pytest.raises(AssertionError):
        assert_waivers_hold(verdicts, artifact)


@pytest.mark.parametrize("tier", list(TIERS))
def test_baseline_checks_unmeasured_without_a_baseline(tier):
    artifact = baseline(tier)
    verdicts = evaluate(TIERS[tier], artifact, None)
    assert failing(verdicts) == []
    against = [key for key in verdicts
               if key.split(" ", 1)[0] in ("exact", "close", "time")]
    assert against
    for key in against:
        assert verdicts[key] == "unmeasured: no committed baseline"


def test_quick_run_against_full_baseline_is_unmeasured():
    artifact = baseline("fusion")
    quick = copy.deepcopy(artifact)
    quick["workload"]["quick"] = True
    quick["batch"]["distinct"] += 1  # incomparable anyway
    verdicts = evaluate(TIERS["fusion"], quick, artifact)
    assert verdicts["exact batch.distinct"] == \
        "unmeasured: quick-scale run, full-scale baseline"


def _set(path: str, value):
    def mutate(artifact):
        *parents, leaf = path.split(".")
        target = artifact
        for key in parents:
            target = target[int(key)] if key.isdigit() else target[key]
        target[leaf] = value(target[leaf]) if callable(value) else value
    return mutate


MUTATIONS = [
    ("kernels", _set("kernels.0.survivors", lambda v: v + 1),
     "exact kernels[screen-d4].survivors"),
    ("kernels", _set("algorithms.4.dominance_tests", lambda v: v * 2),
     "close algorithms[osdc].dominance_tests"),
    ("pool", _set("parallel.speedup_warm_over_cold", 1.1),
     "floor parallel.speedup_warm_over_cold"),
    ("pool", _set("parallel.serial_seconds", lambda v: v / 100),
     "ceiling parallel.warm_over_serial"),
    ("pool", _set("batch.output_sizes", []),
     "exact batch.output_sizes"),
    ("shards", _set("insert.insert_overhead", 1.5),
     "ceiling insert.insert_overhead"),
    ("shards", _set("sharded.version", 2), "exact sharded.version"),
    ("shards", _set("writes.new_segments", 1),
     "equal writes.new_segments"),
    ("shards", _set("writes.touched_shards", 3),
     "equal writes.touched_shards"),
    ("shards", _set("sweep.0.shard_skylines", lambda v: v[::-1] + [1]),
     "exact sweep[serve-s2].shard_skylines"),
    ("server", _set("server.cold_misses", lambda v: v + 1),
     "equal server.cold_misses"),
    ("server", _set("server.errors", 3), "equal server.errors"),
    ("fusion", _set("corpus.mismatches", ["case-0: differs"]),
     "equal corpus.mismatches"),
    ("fusion", _set("corpus.cases", 0), "equal corpus.cases"),
    ("fusion", _set("batch.speedup_fused_over_unfused", 1.0),
     "floor batch.speedup_fused_over_unfused"),
]


@pytest.mark.parametrize("tier,mutate,check", MUTATIONS,
                         ids=[check for _, _, check in MUTATIONS])
def test_mutated_baseline_fails_its_check(tier, mutate, check):
    artifact = baseline(tier)
    mutated = copy.deepcopy(artifact)
    mutate(mutated)
    verdicts = evaluate(TIERS[tier], mutated, artifact)
    assert failing(verdicts) == [check]


def test_gate_writes_into_out_and_leaves_baselines_alone(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    committed = json.dumps(baseline("fusion"), indent=2)
    (tmp_path / "BENCH_8.json").write_text(committed)
    (tmp_path / "tests" / "corpus").mkdir(parents=True)
    canned = baseline("fusion")
    tier = TIERS["fusion"]
    monkeypatch.setitem(TIERS, "fusion", replace(
        tier, workload=lambda sizes: copy.deepcopy(canned)))
    assert main(["fusion", "--check"]) == 0
    assert (tmp_path / "BENCH_8.json").read_text() == committed
    written = json.loads((tmp_path / "bench-out" / "BENCH_8.json")
                         .read_text())
    assert written["verdicts"] == evaluate(tier, canned, canned)
    # an explicit --out . is how a baseline is regenerated
    assert main(["fusion", "--out", "."]) == 0
    assert "verdicts" in json.loads((tmp_path / "BENCH_8.json").read_text())


def test_check_exit_status_follows_the_verdicts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_7.json").write_text(json.dumps(baseline("server")))
    broken = baseline("server")
    broken["server"]["errors"] = 1
    tier = TIERS["server"]
    monkeypatch.setitem(TIERS, "server", replace(
        tier, workload=lambda sizes: copy.deepcopy(broken)))
    assert main(["server"]) == 0  # recorded, not enforced
    assert main(["server", "--check"]) == 1


@pytest.mark.parametrize("tier,present,missing", [
    ("kernels", [], "BENCH_4.json"),
    ("fusion", [], "BENCH_8.json"),
    ("fusion", ["BENCH_8.json"], "tests/corpus"),
], ids=["kernels-baseline", "fusion-baseline", "fusion-corpus"])
def test_check_refuses_to_run_without_its_baseline(tier, present, missing,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    """Run outside the repository root, ``--check`` would read every
    baseline check as unmeasured and pass; it exits non-zero, naming
    the path it tried, before any workload runs."""
    monkeypatch.chdir(tmp_path)
    for name in present:
        (tmp_path / name).write_text(json.dumps(baseline(tier)))

    def never(sizes):
        raise AssertionError("the workload ran")

    monkeypatch.setitem(TIERS, tier, replace(TIERS[tier], workload=never))
    with pytest.raises(SystemExit) as exit_info:
        main([tier, "--quick", "--check"])
    assert exit_info.value.code != 0
    assert str(tmp_path / missing) in capsys.readouterr().err
    assert not (tmp_path / "bench-out").exists()


def test_unknown_tier_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["kernels", "warp-drive"])
    assert "warp-drive" in capsys.readouterr().err


def test_threads_tier_is_gone(capsys):
    from repro.cli import main as cli_main

    with pytest.raises(SystemExit) as exit_info:
        cli_main(["gate", "threads"])
    assert exit_info.value.code != 0
    assert "unknown tier(s) threads" in capsys.readouterr().err


def _kernels_on(host: dict) -> dict:
    artifact = baseline("kernels")
    artifact["host"] = host
    return artifact


def test_host_shape_compares_cpu_count_only():
    """The host tag is the core count alone: the same core count
    compares the timings, another core count waives them."""
    fresh = host_tag()
    assert set(fresh) == {"cpu_count"}
    cores = fresh["cpu_count"]
    verdicts = evaluate(TIERS["kernels"], _kernels_on(fresh),
                        _kernels_on(dict(fresh)))
    timed = {key: verdict for key, verdict in verdicts.items()
             if key.startswith("time ")}
    assert timed and all(verdict == "pass" for verdict in timed.values())
    moved = dict(fresh, cpu_count=cores + 1)
    verdicts = evaluate(TIERS["kernels"], _kernels_on(fresh),
                        _kernels_on(moved))
    assert failing(verdicts) == []
    assert verdicts["time algorithms[osdc].seconds"] == (
        f"unmeasured: host shape {{'cpu_count': {cores}}} differs from "
        f"the baseline's {{'cpu_count': {cores + 1}}}")


def test_bare_gate_prints_host_and_catalogue(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    host, catalogue = out.split("tiers:\n")
    # the core count is the whole host tag: no backend lines
    assert host == f"host: {host_tag()['cpu_count']} core(s)\n"
    assert "threads" not in out
    for tier in TIERS.values():
        assert f"  {tier.name}: {tier.baseline} -- " in catalogue


def _with_auto(cores: int, **auto) -> dict:
    """The committed pool baseline with its ``auto`` record replaced."""
    artifact = baseline("pool")
    artifact["host"] = {"cpu_count": cores}
    artifact["auto"] = {"name": "auto-q4-n200000-d8-k6", "workers": 2,
                        "pooled": 4, "segments": 1, "auto_over_osdc": 0.8,
                        **auto}
    return artifact


@pytest.mark.parametrize("auto,check", [
    ({}, None),
    ({"segments": 4}, "equal auto.segments"),
    ({"auto_over_osdc": 1.2}, "ceiling auto.auto_over_osdc"),
])
def test_pool_auto_checks(auto, check):
    artifact = _with_auto(2, **auto)
    verdicts = evaluate(TIERS["pool"], artifact, baseline("pool"))
    assert failing(verdicts) == ([check] if check else [])


def test_pool_auto_ceiling_unmeasured_below_a_core_per_worker():
    artifact = _with_auto(1, auto_over_osdc=1.2)
    verdicts = evaluate(TIERS["pool"], artifact, baseline("pool"))
    assert failing(verdicts) == []
    assert verdicts["ceiling auto.auto_over_osdc"].startswith(
        "unmeasured: host has 1 core(s) < 2 pool workers")


def test_pool_auto_checks_unmeasured_when_no_query_was_pooled():
    # one core: parallel-osdc takes its serial fallback, so nothing is
    # registered and auto is serial osdc plus planning
    artifact = _with_auto(1, pooled=0, segments=0, auto_over_osdc=1.05)
    verdicts = evaluate(TIERS["pool"], artifact, baseline("pool"))
    assert failing(verdicts) == []
    assert verdicts["equal auto.segments"].startswith(
        "unmeasured: no auto query reached the pool")
