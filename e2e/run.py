"""End-to-end benchmark: the library's default query paths against
serial ``osdc`` on four workloads.

    python3 e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                       [--trace [0|1]] [--repeat N] [--scale smoke]
                       [--out DIR]

Each workload runs in a fresh process (this script with ``--child``),
so the worker pool, the compiled-preference cache and the default
planner's seeded RNG start cold and identical.  The report names every
metric with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics, or with ``--trace`` the per-layer metrics.

``--trace`` splits the seconds between an untraced and a traced process
per workload: end-to-end numbers always come from the untraced one, the
traced one writes ``<out>/trace-<workload>.json`` and
``trace.overhead`` is its ``ops_per_s`` over the untraced run's.
``--repeat N`` runs N consecutive seeds from ``--seed`` on and prints
each metric's and diagnostic's median, min, max and spread.  The exit
status is non-zero when any answer disagreed with ``osdc``, an
operation failed, or a layer declared busy never fired.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

E2E = Path(__file__).resolve().parent
ROOT = E2E.parent
SRC = ROOT / "src"
#: Wall-clock cap on the processes of one workload and seed.
TIMEOUT_S = 170
#: Longest accepted ``--seconds``: set-up and sql-server's oracle take
#: up to about half the timed phase again, which must fit in TIMEOUT_S.
MAX_SECONDS = 60


class ChildFailed(RuntimeError):
    """A workload process crashed or overran :data:`TIMEOUT_S`."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the default query paths "
                    "against serial osdc.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=layers.WORKLOADS,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=E2E / "out",
                        help="directory for results and trace files")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or list(layers.WORKLOADS)
    args.out = args.out.resolve()
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


# -- child side ----------------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    result = workloads.run(args.workload[0], args.seed, args.seconds,
                           args.scale, bool(args.trace), args.out)
    result_path(args, args.workload[0], args.seed, args.trace).write_text(
        json.dumps(result))
    return 0


def result_path(args, workload: str, seed: int, trace) -> Path:
    return args.out / f"result-{workload}-{seed}-{int(trace)}.json"


# -- parent side ---------------------------------------------------------------

def run_child(args, workload: str, seed: int, seconds: float, trace: bool,
              deadline: float) -> dict:
    """One workload run in a fresh process (its own process group, so
    every process it leaves behind is killed with it)."""
    path = result_path(args, workload, seed, trace)
    path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_THREAD_BUDGET", None)   # the auto budget, recorded
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(E2E / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--scale", args.scale, "--out", str(args.out)]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=sys.stderr, start_new_session=True)
    try:
        process.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} ran past {TIMEOUT_S} s") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise ChildFailed(
            f"{workload} exited with status {process.returncode}")
    return json.loads(path.read_text())


def measure(args, workload: str, seed: int) -> dict:
    """The result of one workload and seed (untraced, or untraced plus
    traced with ``--trace``)."""
    deadline = time.monotonic() + TIMEOUT_S
    if not args.trace:
        return run_child(args, workload, seed, args.seconds, False, deadline)
    plain = run_child(args, workload, seed, args.seconds / 2, False,
                      deadline)
    traced = run_child(args, workload, seed, args.seconds / 2, True,
                       deadline)
    per_layer = traced["layers"]
    per_layer["trace.overhead"] = (traced["diagnostics"]["ops_per_s"]
                                   / plain["diagnostics"]["ops_per_s"])
    per_layer["planner.slow_pick_share"] = \
        plain["diagnostics"]["slow_pick_share"]
    trace_file = args.out / f"trace-{workload}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": traced["seconds"],
        "host": traced["host"], "labels": traced["labels"],
        "unmeasured": traced["unmeasured"], "vacuous": traced["vacuous"],
        "idle_activity": traced["idle_activity"], "layers": per_layer,
        "span_table": traced["summary"]["spans"],
        "counters": traced["summary"]["counters"],
        "span_fields": ["name", "start_s", "end_s", "id", "parent", "op"],
        "spans": traced.pop("spans"),
    }))
    return {**traced,
            "metrics": plain["metrics"],
            "diagnostics": plain["diagnostics"],
            "traced_diagnostics": traced["diagnostics"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
            "trace_file": str(trace_file)}


def correct(result: dict) -> bool:
    return result["failed"] == 0 and not result.get("vacuous")


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict) -> list[str]:
    host = result["host"]
    lines = [f"== {result['workload']}  seed={result['seed']}  "
             f"host: nproc={host['nproc']} "
             f"native={host['native_available']} "
             f"thread_budget={host['thread_budget']} "
             f"REPRO_THREAD_BUDGET={host['REPRO_THREAD_BUDGET']} "
             f"python={host['python']}"]
    for name, unit in layers.END_TO_END.items():
        lines.append(f"  {name:<34} {fmt(result['metrics'][name]):>14} "
                     f"{unit}")
    for name, value in result["diagnostics"].items():
        if isinstance(value, (int, float)):
            lines.append(f"  ({name:<32} {fmt(value):>14})")
    if "layers" in result:
        lines.append(f"  -- layers (trace: {result['trace_file']})")
        for name, value in result["layers"].items():
            unit = layers.PER_LAYER.get(name, "ms/op")
            lines.append(f"  {name:<34} {fmt(value):>14} {unit}")
        lines.append(f"  labels: {result['labels']}")
        for layer, reason in result["unmeasured"].items():
            lines.append(f"  unmeasured layer {layer}: {reason}")
        if result["idle_activity"]:
            lines.append("  active in layers predicted idle: "
                         + ", ".join(result["idle_activity"]))
        if result["vacuous"]:
            lines.append("  VACUOUS: layers declared busy never fired: "
                         + ", ".join(result["vacuous"]))
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    lines.append(f"  correct={correct(result)}  "
                 f"attempted={result['attempted']}  "
                 f"failed={result['failed']}")
    return lines


def spread(results: list[dict], key: str, table) -> list[str]:
    """A header, then median, min, max, (max-min)/median and quartile
    spread per metric named in ``table`` across repeated runs of one
    workload."""
    lines = [f"  {'metric':<34} {'median':>11} {'min':>11} {'max':>11} "
             f"{'range/med':>9} {'iqr/med':>8}"]
    for name in table:
        values = [run[key][name] for run in results
                  if isinstance(run[key].get(name), (int, float))]
        if len(values) < 2:
            continue
        median = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4)
        scale = abs(median) or 1.0
        lines.append(
            f"  {name:<34} {median:>11.5g} {min(values):>11.5g} "
            f"{max(values):>11.5g} {(max(values) - min(values)) / scale:>9.3f} "
            f"{(quartiles[2] - quartiles[0]) / scale:>8.3f}")
    return lines


def final_line(by_workload: dict[str, list[dict]], trace: bool) -> dict:
    """The closing JSON object; medians over repeats, metric names
    prefixed by the workload when there is more than one."""
    key, table = ("layers", layers.PER_LAYER) if trace \
        else ("metrics", layers.END_TO_END)
    metrics = {}
    for workload, results in by_workload.items():
        prefix = f"{workload}." if len(by_workload) > 1 else ""
        for name, unit in table.items():
            values = [result[key][name] for result in results
                      if isinstance(result[key].get(name), (int, float))]
            if values:
                metrics[prefix + name] = {
                    "value": statistics.median(values), "unit": unit}
    every = [result for results in by_workload.values()
             for result in results]
    return {"correct": all(correct(result) for result in every),
            "attempted": sum(result["attempted"] for result in every),
            "failed": sum(result["failed"] for result in every),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no library sources under {SRC}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    if args.child:
        return child_main(args)
    by_workload: dict[str, list[dict]] = {}
    for workload in args.workload:
        for repeat in range(args.repeat):
            try:
                result = measure(args, workload, args.seed + repeat)
            except ChildFailed as error:
                print(f"e2e: {error}", file=sys.stderr)
                return 1
            by_workload.setdefault(workload, []).append(result)
            print("\n".join(report(result)), flush=True)
    if args.repeat > 1:
        for workload, results in by_workload.items():
            print(f"== spread over {len(results)} seeds: {workload}")
            if args.trace:
                print("\n".join(spread(results, "layers", layers.PER_LAYER)))
            else:
                print("\n".join(spread(results, "metrics",
                                       layers.END_TO_END)))
                print("\n".join(spread(results, "diagnostics",
                                       results[0]["diagnostics"])[1:]))
    (args.out / "summary.json").write_text(json.dumps(by_workload))
    line = final_line(by_workload, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
