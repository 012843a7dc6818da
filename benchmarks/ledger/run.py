"""The perf ledger: four workloads, two clocks, one command.

    python benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--quick]

Each repetition of a workload runs in a fresh child interpreter
(``child.py``) with BLAS pinned to one thread and no ``REPRO_*`` variable
set.  Wall-clock metrics are medians over the repetitions; virtual-clock
metrics and program counters must be identical across them.  With
``--trace 1`` one more child runs with the timing wrappers of
``tracing.py`` installed and supplies the per-layer numbers.

Every metric is printed by name with its unit; the run is written to
``results/`` and appended to ``results/history.jsonl``.  The last line of
standard output, per workload, is the JSON object ``BENCHMARK.json``'s
driver reads.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
RESULTS_DIR = os.path.join(LEDGER_DIR, "results")
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
CHILD_TIMEOUT_S = 170


class LedgerError(RuntimeError):
    """The benchmark itself is broken (not: the program got slower)."""


def child_environment() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(workload: str, seed: int, quick: bool, scratch: str,
              trace_out: str = "") -> Dict[str, Any]:
    """One repetition in a fresh interpreter; traced when ``trace_out`` is set."""
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "child.py"),
        "--workload", workload, "--seed", str(seed), "--quick", str(int(quick)),
        "--scratch", scratch, "--spawned-at", repr(time.monotonic()),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, env=child_environment(), cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise LedgerError(f"{workload}: child exited with {done.returncode}")
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    for name, (wrapper, program) in rep["agree"].items():
        if wrapper != program:
            raise LedgerError(
                f"{workload}: {name} is {wrapper} by the ledger's count but "
                f"{program} by the program's own"
            )
    if rep["exact"].get("exec.cache_hits"):
        raise LedgerError(f"{workload}: the campaign used a result cache")
    return rep


def quartiles(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3, "values": values,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, end_to_end: List[str]) -> Dict[str, Any]:
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR)
    try:
        trace_path = os.path.join(RESULTS_DIR, f"trace-{name}-{seed}.json")
        reps: List[Dict[str, Any]] = []
        traced = None
        if quick:
            # Smoke sizes: one child supplies everything, traced if asked.
            reps.append(run_child(name, seed, quick, scratch, trace_path if trace else ""))
            traced = reps[0] if trace else None
        else:
            measured = 0.0
            while len(reps) < MIN_REPS or measured < seconds:
                reps.append(run_child(name, seed, quick, scratch))
                measured += reps[-1]["wall_s"]
            if trace:
                traced = run_child(name, seed, quick, scratch, trace_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Virtual-clock metrics and counters repeat exactly, traced or not.
    children = reps + ([traced] if traced and traced is not reps[0] else [])
    first = reps[0]["exact"]
    for rep in children[1:]:
        for key in sorted(set(first) & set(rep["exact"])):
            if rep["exact"][key] != first[key]:
                raise LedgerError(
                    f"{name}: {key} differs between repetitions of seed {seed}: "
                    f"{first[key]!r} vs {rep['exact'][key]!r}"
                )

    result: Dict[str, Any] = {
        "reps": len(reps),
        "end_to_end": {m: quartiles([rep[m] for rep in reps]) for m in end_to_end},
        "wall_raw_s": quartiles([rep["wall_raw_s"] for rep in reps]),
        "attempted": sum(rep["attempted"] for rep in children),
        "failed": sum(rep["failed"] for rep in children),
        "failures": [reason for rep in children for reason in rep["failures"]][:10],
        "ops_per_rep": reps[0]["attempted"],
        "exact": first,
        "info": reps[0]["info"],
        "sizing": reps[0]["sizing"],
        "per_layer": None,
    }
    if traced:
        wall = result["end_to_end"]["wall_s"]["median"]
        layers = dict(traced["exact"], **traced["layers"])
        layers["bench.trace_overhead"] = traced["wall_s"] / wall
        layers["sim.events_per_wall_s"] = layers["sim.events"] / wall
        result["per_layer"] = {
            k: v for k, v in layers.items() if isinstance(v, (int, float))
        }
        result["traced_wall_s"] = traced["wall_s"]
        result["trace_spans"] = traced["spans"]
    return result


def environment(seed: int, quick: bool) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "nogit"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {pin: "1" for pin in THREAD_PINS},
        "backend": "reference",
        "seed": seed,
        "quick": quick,
        "unix_time": time.time(),
    }


def print_workload(name: str, result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name}: {result['reps']} reps, {result['ops_per_rep']} ops per rep ==")
    print(f"   sizing {json.dumps(result['sizing'], sort_keys=True)}")
    for metric, stats in result["end_to_end"].items():
        note = ""
        if metric == "wall_s":
            note = (f"  ({result['ops_per_rep']} ops, "
                    f"{result['ops_per_rep'] / stats['median']:.1f} ops per wall second)")
        print(f"   {metric:34s} {stats['median']:14.6f} {units[metric]:8s} "
              f"[q1 {stats['q1']:.6f}, q3 {stats['q3']:.6f}]{note}")
    raw = result["wall_raw_s"]
    print(f"   {'wall_raw_s (as clocked, not gated)':34s} {raw['median']:14.6f} {'s':8s} "
          f"[q1 {raw['q1']:.6f}, q3 {raw['q3']:.6f}]")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':34s} {share:14.6f} {'ratio':8s} "
          f"({result['failed']} of {result['attempted']} ops)")
    for reason in result["failures"]:
        print(f"      failed: {reason}")
    info = result["info"]
    if "tail_percentile" in info:
        print(f"   virt_tail_ms is p{info['tail_percentile']} of "
              f"{info['latency_samples']} samples")
    shown = result["per_layer"] if result["per_layer"] is not None else {
        k: v for k, v in result["exact"].items() if isinstance(v, (int, float))
    }
    for metric in sorted(shown):
        print(f"   {metric:34s} {shown[metric]:14.6f} {units.get(metric, '?')}")
    if result["per_layer"] is not None:
        print(f"   traced run: {result['traced_wall_s']:.3f} s wall, "
              f"{result['trace_spans']} spans")


def driver_line(result: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    if trace:
        values = result["per_layer"]
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": result["end_to_end"][m["name"]]["median"], "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="keep adding repetitions (at least %d) until their "
                        "timed runs add up to this" % MIN_REPS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: 1 rep, 40 sessions, 1 iteration")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure under {ROOT}/src/repro", file=sys.stderr)
        return 2

    os.environ.update({pin: "1" for pin in THREAD_PINS})
    os.makedirs(RESULTS_DIR, exist_ok=True)
    selected = [args.workload] if args.workload else names
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    declared = {m["name"] for m in spec["per_layer"]}
    document = {
        "environment": environment(args.seed, args.quick),
        "trace": bool(args.trace),
        "workloads": {},
    }
    lines = []
    for name in selected:
        try:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.quick, end_to_end
            )
        except (LedgerError, subprocess.TimeoutExpired) as exc:
            print(f"ledger error: {exc}", file=sys.stderr)
            return 3
        emitted = result["per_layer"] if args.trace else {
            k: v for k, v in result["exact"].items() if isinstance(v, (int, float))
        }
        undeclared = sorted(set(emitted) - declared)
        if undeclared:
            print(f"ledger error: {name} emits {undeclared}, which BENCHMARK.json "
                  "does not declare", file=sys.stderr)
            return 3
        document["workloads"][name] = result
        print_workload(name, result, spec)
        lines.append(driver_line(result, spec, bool(args.trace)))

    sha = document["environment"]["git_sha"]
    suffix = "".join(
        part for part in (
            f"-{args.workload}" if args.workload else "",
            "-trace" if args.trace else "",
            "-quick" if args.quick else "",
        )
    )
    path = os.path.join(RESULTS_DIR, f"{sha}-{args.seed}{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    with open(os.path.join(RESULTS_DIR, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(document, sort_keys=True) + "\n")
    print(f"written to {os.path.relpath(path, ROOT)}")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
