"""Checks of the ledger itself.  Not part of tier-1:

    python -m pytest benchmarks/ledger -q

One ``--quick --trace`` run of all four workloads (~20 s) feeds most of
the tests; ``run.py`` already refuses a run whose wrapper counts disagree
with the program's own counters, so a green run is itself the check that
every wrapper is bound where the program looks its name up.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def ledger(script, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "ledger", script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick_traced():
    """``run.py --quick --trace``: the driver lines and the result file."""
    done = ledger("run.py", "--quick", "--trace", "1", "--seed", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    written = next(line for line in lines if line.startswith("written to "))
    with open(os.path.join(ROOT, written[len("written to "):]), encoding="utf-8") as handle:
        document = json.load(handle)
    driver = [json.loads(line) for line in lines[-len(WORKLOADS):]]
    return {"stdout": done.stdout, "document": document,
            "driver": dict(zip(WORKLOADS, driver))}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_quick_run_emits_every_declared_metric(quick_traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        line = quick_traced["driver"][workload]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        result = quick_traced["document"]["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["median"] > 0
            assert re.search(
                rf"^\s+{metric['name']}\s+[\d.]+ {metric['unit']}\s",
                quick_traced["stdout"], re.MULTILINE,
            )
    environment = quick_traced["document"]["environment"]
    assert {"git_sha", "nproc", "python", "numpy", "blas", "thread_pins",
            "backend", "seed"} <= set(environment)


def test_end_to_end_line_without_trace():
    done = ledger("run.py", "--workload", "fleet-offload", "--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


#: wrapper-side counts and the workloads that must exercise them
EXERCISED = {
    "sim.events": WORKLOADS,
    "netsim.messages": WORKLOADS,
    "web.scripts_calls": WORKLOADS,
    "web.handler_runs": WORKLOADS,
    "snapshot.capture_full_calls": WORKLOADS,
    "snapshot.capture_delta_calls": WORKLOADS,
    "snapshot.restore_calls": WORKLOADS,
    "snapshot.tensor_text_s": WORKLOADS,
    "core.offload_calls": WORKLOADS,
    "nn.plan_compiles": WORKLOADS,
    "nn.forward_calls": WORKLOADS,
    "nn.forward_batch_calls": ["serve-partial"],
    "nn.forward_batch_items": ["serve-partial"],
    "core.server_batch_infer_s": ["serve-partial"],
    "core.partition_s": ["campaign-quick"],
    "fleet.pick_calls": ["fleet-offload", "serve-partial"],
    "fleet.build_s": ["fleet-offload", "serve-partial"],
    "fleet.failovers": ["fleet-offload"],
    "core.handshake_misses": ["fleet-offload"],
    "exec.tasks": ["campaign-quick"],
    "eval.section_s.fig8": ["campaign-quick"],
    "vmsynth.table1_s": ["campaign-quick"],
    "serve.items.light": ["serve-partial"],
    "serve.items.heavy": ["serve-partial"],
    "serve.items.over": ["serve-partial"],
    "serve.submit_s.heavy": ["serve-partial"],
    "devices.predictor_rel_err": ["paper-googlenet"],
    "virt_offload_after_ack_s": ["paper-googlenet"],
    "virt_p50_ms": ["fleet-offload", "serve-partial"],
    "virt_sat_rps": ["serve-partial"],
}


@pytest.mark.parametrize("metric", sorted(EXERCISED))
def test_wrappers_see_the_workloads_meant_for_them(quick_traced, metric):
    for workload in EXERCISED[metric]:
        value = quick_traced["driver"][workload]["metrics"][metric]["value"]
        assert value > 0, f"{metric} is {value} on {workload}"


def test_layers_absent_from_a_workload_read_zero(quick_traced):
    for workload in WORKLOADS:
        metrics = quick_traced["driver"][workload]["metrics"]
        if workload != "serve-partial":
            assert all(
                v["value"] == 0 for k, v in metrics.items() if k.startswith("serve.")
            )
        if workload != "campaign-quick":
            assert all(
                v["value"] == 0 for k, v in metrics.items()
                if k.startswith(("exec.", "eval.", "vmsynth."))
            )
    googlenet = quick_traced["driver"]["paper-googlenet"]["metrics"]
    assert googlenet["nn.forward_batch_calls"]["value"] == 0
    assert googlenet["fleet.pick_calls"]["value"] == 0


def test_traced_run_accounts_for_the_wall_clock(quick_traced):
    for workload in WORKLOADS:
        metrics = quick_traced["driver"][workload]["metrics"]
        assert 0 <= metrics["bench.unaccounted_share"]["value"] <= 0.05
        assert metrics["bench.trace_overhead"]["value"] > 0
    googlenet = quick_traced["driver"]["paper-googlenet"]["metrics"]
    phases = sum(
        v["value"] for k, v in googlenet.items() if k.startswith("virt.phase.")
    )
    assert phases > 0
    assert abs(googlenet["virt.unattributed_s"]["value"]) <= 1e-9 * phases


def test_compare_judges_by_direction_and_bound(quick_traced, tmp_path):
    base = quick_traced["document"]
    slower = copy.deepcopy(base)
    stats = slower["workloads"]["fleet-offload"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        stats[key] *= 1.5
    stats["values"] = [value * 1.5 for value in stats["values"]]
    moved = copy.deepcopy(base)
    moved["workloads"]["serve-partial"]["exact"]["virt_sat_rps"] *= 0.98
    paths = {}
    for name, document in (("a", base), ("slower", slower), ("moved", moved)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    same = ledger("compare.py", paths["a"], paths["a"])
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.strip().endswith("better=0 unresolved=0 worse=0")
    for candidate, row in (("slower", "wall_s"), ("moved", "virt_sat_rps")):
        worse = ledger("compare.py", paths["a"], paths[candidate])
        assert worse.returncode == 1
        flagged = [line for line in worse.stdout.splitlines() if line.endswith("worse")]
        assert len(flagged) == 1 and row in flagged[0]
    better = ledger("compare.py", paths["slower"], paths["a"])
    assert better.returncode == 0 and "better" in better.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = ledger("run.py", "--workload", "fleet-offload", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
