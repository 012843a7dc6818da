#!/usr/bin/env python
"""Campaign wall-clock benchmark and the perf claims that ride on it.

Runs the reproduction campaign twice in this process — an unrecorded
warm-up, then the timed run with its per-section wall clock — verifies the
two reports are byte-identical, then times compiled
execution plans against the reference layer walk (single-image GoogLeNet
and batched smallnet forwards), compares the DAG scheduler's
interval-colored arena footprint against the retired two-slot
allocator's (the ``dag_forward`` stage),
runs the multi-edge fleet scheduler shoot-out and a mid-run edge kill
(the ``fleet`` stage: virtual-time p50/p99 per policy on a skewed fleet),
compares continuous-batching against sequential per-request serving under
rising offered load (the ``serving`` stage: requests/sec and the p99 knee,
plus bitwise result equality and kill-replay determinism),
and writes the timings, speedups, an ``environment``
block (BLAS, CPU count) and claim verdicts to
``BENCH_perf.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--full]

``--quick`` mode (the default) is the CI-sized campaign (one model,
truncated sweeps); ``--full`` runs all three paper models.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)  # tests.memos: the one way to empty the memos

from repro.eval.campaign import run_campaign  # noqa: E402


def _timed_campaign(label: str, **kwargs):
    """One campaign run; returns (wall_seconds, result)."""
    print(f"-- {label} ...", flush=True)
    started = time.perf_counter()
    result = run_campaign(**kwargs)
    wall = time.perf_counter() - started
    stats = result.engine_stats
    print(
        f"   {wall:6.2f}s wall  ({len(stats.tasks)} sections, "
        f"compute {stats.compute_seconds:.2f}s)",
        flush=True,
    )
    return wall, result


def _best_of(fn, repetitions=5):
    times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _bench_optimized_forward():
    """Compiled-plan vs reference forwards, single image and batched.

    GoogLeNet carries the single-image claim (the paper's headline model,
    forward-dominated); the batched-throughput claim is measured on
    smallnet, the size class the edge server actually batches (large
    convolutions are GEMM-bound either way, so batching buys nothing
    there — see docs/PERFORMANCE.md).
    """
    from repro.nn.zoo import build_model
    from repro.sim import SeededRng
    from tests.memos import clear_memos

    print("-- optimized forward (googlenet single, smallnet batch) ...",
          flush=True)
    google = build_model("googlenet")
    image = SeededRng(7, "bench/googlenet").uniform_array(
        tuple(google.network.input_shape), 0, 255
    )
    plan = google.network.plan_for()
    plan.forward(image)  # warm the plan arena + conv operand caches
    google.network.forward_reference(image)  # warm reference caches
    reference_s = _best_of(lambda: google.network.forward_reference(image))
    # a repeated input is a memo lookup: empty the memo so each timed
    # call runs the kernels
    optimized_s = _best_of(lambda: (clear_memos(), plan.forward(image)))

    small = build_model("smallnet")
    batch = [
        SeededRng(seed, "bench/batch").uniform_array(
            tuple(small.network.input_shape), 0, 255
        )
        for seed in range(8)
    ]
    small_plan = small.network.plan_for()
    small_plan.forward(batch[0])
    small_plan.forward_batch(batch)
    looped_s = _best_of(
        lambda: [(clear_memos(), small_plan.forward(sample))
                 for sample in batch],
        repetitions=20,
    )
    # a batch's rows are answered from the memo like single forwards: empty
    # it so each repetition runs the batched kernels
    batched_s = _best_of(
        lambda: (clear_memos(), small_plan.forward_batch(batch)),
        repetitions=20,
    )
    result = {
        "googlenet_reference_ms": round(reference_s * 1000, 3),
        "googlenet_optimized_ms": round(optimized_s * 1000, 3),
        "googlenet_speedup": round(reference_s / optimized_s, 3),
        "batch_model": "smallnet",
        "batch_size": len(batch),
        "batch_looped_ms": round(looped_s * 1000, 3),
        "batch_batched_ms": round(batched_s * 1000, 3),
        "batch_per_image_speedup": round(looped_s / batched_s, 3),
    }
    print(
        f"   googlenet {result['googlenet_speedup']:.2f}x single-image, "
        f"smallnet batch-8 {result['batch_per_image_speedup']:.2f}x "
        "per-image",
        flush=True,
    )
    return result


#: googlenet arena footprint under the PR 3 two-slot + sub-arena scheme.
#: Deterministic (computed from layer shapes alone, not timing), so it is
#: a valid cross-PR constant even though the old allocator is gone.
TWO_SLOT_GOOGLENET_ARENA_BYTES = 22_453_760


def _bench_dag_forward(forward):
    """GoogLeNet's interval-colored arena vs the old two-slot footprint.

    The forward time is the ``optimized_forward`` stage's googlenet number
    from *this* run; the arena-size comparison is deterministic.
    """
    from repro.nn.zoo import build_model

    print("-- dag forward (interval-colored arena vs two-slot footprint) ...",
          flush=True)
    stats = build_model("googlenet").network.plan_for().stats
    dag_ms = forward["googlenet_optimized_ms"]
    result = {
        "googlenet_dag_ms": dag_ms,
        "arena_slots": stats.arena_slots,
        "arena_bytes": stats.arena_bytes,
        "two_slot_arena_bytes": TWO_SLOT_GOOGLENET_ARENA_BYTES,
        "arena_shrink": round(
            TWO_SLOT_GOOGLENET_ARENA_BYTES / stats.arena_bytes, 3
        ),
        "branches": stats.branches,
        "joins": stats.joins,
    }
    print(
        f"   dag {dag_ms:.1f}ms, arena {stats.arena_bytes / 1e6:.1f}MB in "
        f"{stats.arena_slots} slots ({result['arena_shrink']:.1f}x smaller)",
        flush=True,
    )
    return result


def _fleet_specs():
    """A deliberately skewed fleet: device speed AND link quality spread."""
    from repro.fleet import EdgeSpec
    from repro.netsim import NetemProfile

    return [
        EdgeSpec(
            "edge-fast", server_speedup=1.0, profile=NetemProfile.lan_1gbps()
        ),
        EdgeSpec(
            "edge-mid",
            server_speedup=0.7,
            profile=NetemProfile(bandwidth_bps=30e6, latency_s=0.005),
        ),
        EdgeSpec(
            "edge-slow",
            server_speedup=0.4,
            profile=NetemProfile(bandwidth_bps=8e6, latency_s=0.02),
        ),
    ]


def _bench_fleet(sessions=400, requests=2, rate=25.0, seed=0):
    """Fleet scheduling policies + mid-run edge kill, in virtual time.

    Latencies here are *virtual* seconds (deterministic: same seed, same
    numbers on any machine); only the wall-clock cost of simulating them
    varies.  Two questions:

    (a) under skewed edge profiles, do the load-aware policies
        (min-response-time, queue-aware) beat the load-oblivious baselines
        (round-robin, random) on p99 latency?
    (b) does killing the *fastest* edge mid-run complete every session
        with p99 degradation bounded by one reply timeout + a re-run?
    """
    from repro.fleet import POLICY_NAMES, FleetScenario

    print("-- fleet (4 policies x skewed edges, then a mid-run kill) ...",
          flush=True)
    workload = dict(
        sessions=sessions,
        requests_per_session=requests,
        arrival_rate_per_s=rate,
        seed=seed,
        reply_timeout=1.0,
    )
    reports = {
        name: FleetScenario(edges=_fleet_specs(), policy=name, **workload).run()
        for name in POLICY_NAMES
    }
    policies = {
        name: {
            "p50_ms": round(r.p50_latency * 1e3, 3),
            "p99_ms": round(r.p99_latency * 1e3, 3),
            "mean_ms": round(r.mean_latency * 1e3, 3),
            "requests": r.count,
            "all_correct": r.all_correct,
            "admission_waits": r.admission_waits,
            "utilization": {
                row.name: round(row.utilization, 4) for row in r.edges
            },
        }
        for name, r in reports.items()
    }
    for name, row in policies.items():
        print(
            f"   {name:18s} p50 {row['p50_ms']:7.1f}ms  "
            f"p99 {row['p99_ms']:7.1f}ms  mean {row['mean_ms']:7.1f}ms",
            flush=True,
        )

    healthy = reports["queue-aware"]
    killed_scenario = FleetScenario(
        edges=_fleet_specs(), policy="queue-aware", **workload
    )
    killed_scenario.inject_kill(
        "edge-fast", healthy.makespan_seconds / 3
    )
    killed = killed_scenario.run()
    expected = sessions * requests
    degradation_bound_s = killed_scenario.reply_timeout + 2 * max(
        r.latency_seconds for r in healthy.records
    )
    print(
        f"   kill edge-fast @ {healthy.makespan_seconds / 3:.2f}s: "
        f"{killed.count}/{expected} served, {killed.failovers} failovers, "
        f"p99 {killed.p99_latency * 1e3:.1f}ms "
        f"(healthy {healthy.p99_latency * 1e3:.1f}ms)",
        flush=True,
    )
    return {
        "sessions": sessions,
        "requests_per_session": requests,
        "arrival_rate_per_s": rate,
        "seed": seed,
        "policies": policies,
        "kill": {
            "edge": "edge-fast",
            "at_seconds": round(healthy.makespan_seconds / 3, 6),
            "served": killed.count,
            "expected": expected,
            "all_correct": killed.all_correct,
            "failovers": killed.failovers,
            "handshake_misses": killed.handshake_misses,
            "p99_ms": round(killed.p99_latency * 1e3, 3),
            "healthy_p99_ms": round(healthy.p99_latency * 1e3, 3),
            "degradation_bound_ms": round(degradation_bound_s * 1e3, 3),
        },
    }


def _bench_serving(sessions=32, requests=2, seed=7):
    """Continuous batching vs sequential serving under rising offered load.

    Virtual-time again, so every number is deterministic.  The workload is
    resnet-mini at split 0 — the rear-heavy partition where the server's
    batched forward dominates its device time — on a single edge, so the
    server (not routing) is the bottleneck.  Three questions:

    (a) requests/sec vs offered load: where is the p99 knee, and does the
        batching loop push it out (higher throughput at saturation)?
    (b) are the batched results bitwise-identical to sequential serving at
        *every* load point (labels, scores, snapshot kinds)?
    (c) does a same-seed serving run — including one with a mid-run edge
        kill and revival — replay byte-for-byte?
    """
    from repro.fleet import EdgeSpec, FleetScenario
    from repro.serve import ServingConfig

    print("-- serving (continuous batching vs sequential, rising load) ...",
          flush=True)

    def run(rate, serving, *, edges=1, kill=None):
        scenario = FleetScenario(
            model_name="resnet-mini",
            edges=[EdgeSpec(name=f"edge-{i}") for i in range(edges)],
            policy="queue-aware",
            sessions=sessions,
            requests_per_session=requests,
            arrival_rate_per_s=rate,
            mean_think_seconds=0.05,
            mode="offload-partial",
            split_index=0,
            seed=seed,
            reply_timeout=120.0,
            serving=serving,
        )
        if kill is not None:
            name, at, revive = kill
            scenario.inject_kill(name, at, revive_at_seconds=revive)
        return scenario.run()

    config = ServingConfig(max_batch=8, batch_timeout_s=0.02)

    def result_key(record):
        return (
            record.session, record.request_index, record.result_label,
            record.expected_label, record.result_score,
            record.snapshot_kind,
        )

    sweep = {}
    bitwise_equal = True
    for rate in (8.0, 24.0, 64.0):
        seq = run(rate, None)
        bat = run(rate, config)
        equal = sorted(map(result_key, seq.records)) == sorted(
            map(result_key, bat.records)
        )
        bitwise_equal = bitwise_equal and equal and seq.all_correct
        sweep[str(rate)] = {
            "offered_rate_per_s": rate,
            "sequential_rps": round(seq.count / seq.makespan_seconds, 3),
            "batched_rps": round(bat.count / bat.makespan_seconds, 3),
            "sequential_p99_ms": round(seq.p99_latency * 1e3, 3),
            "batched_p99_ms": round(bat.p99_latency * 1e3, 3),
            "results_identical": equal,
            "serving": bat.serving,
        }
        print(
            f"   rate {rate:5.1f}/s: sequential "
            f"{sweep[str(rate)]['sequential_rps']:7.2f} rps "
            f"(p99 {sweep[str(rate)]['sequential_p99_ms']:8.1f}ms)  "
            f"batched {sweep[str(rate)]['batched_rps']:7.2f} rps "
            f"(p99 {sweep[str(rate)]['batched_p99_ms']:8.1f}ms)  "
            f"identical: {equal}",
            flush=True,
        )

    # Same-seed byte-determinism, including under a mid-run edge kill
    # (two edges so the failover path actually runs).
    kill = ("edge-0", 0.35, 1.2)
    first = run(48.0, config, edges=2, kill=kill)
    second = run(48.0, config, edges=2, kill=kill)
    kill_deterministic = (
        first.render_markdown() == second.render_markdown()
        and first.all_correct
        and first.count == sessions * requests
    )
    print(
        f"   kill edge-0 @ 0.35s (revive 1.2s): byte-identical replay: "
        f"{first.render_markdown() == second.render_markdown()}, "
        f"{first.count}/{sessions * requests} served",
        flush=True,
    )

    saturated = sweep["64.0"]
    return {
        "model": "resnet-mini",
        "split_index": 0,
        "sessions": sessions,
        "requests_per_session": requests,
        "seed": seed,
        "max_batch": config.max_batch,
        "batch_timeout_s": config.batch_timeout_s,
        "sweep": sweep,
        "saturating_rate_per_s": saturated["offered_rate_per_s"],
        "bitwise_equal_at_every_load": bitwise_equal,
        "kill_replay_deterministic": kill_deterministic,
    }


def _bench_modelstore(seed=5):
    """Upload-byte economics of the multi-tenant edge model store.

    Virtual-time and fully deterministic.  Two questions:

    (a) does a pre-warmed fleet (stores primed before t=0) serve the same
        workload with strictly fewer upload bytes than a cold fleet?
    (b) under a memory budget that fits one tenant's rear half but not
        two, does LRU eviction keep every edge's resident bytes under the
        budget while every result stays correct?

    The failover re-upload after a cold edge kill + revival is recorded
    alongside (bytes on the wire, bytes the segment handshake skipped).
    """
    from repro.fleet import FleetScenario, default_fleet

    print("-- modelstore (cold vs warm fleet, eviction, failover "
          "re-upload) ...", flush=True)

    def fleet_run(prewarm):
        scenario = FleetScenario(
            sessions=12,
            requests_per_session=2,
            seed=seed,
            edges=default_fleet(3),
            prewarm=prewarm,
        )
        return scenario.run()

    cold = fleet_run(False)
    warm = fleet_run(True)
    print(
        f"   cold fleet uploads {cold.upload_bytes} B, warm fleet "
        f"{warm.upload_bytes} B",
        flush=True,
    )

    # the two tenants are the same net split at adjacent layers: either
    # rear half (138 903 B) fits the budget, their union (140 075 B) does
    # not, and ~137 KB of parameter blobs are shared between them
    budget = 139_500
    eviction = FleetScenario(
        sessions=10,
        requests_per_session=2,
        seed=seed,
        edges=default_fleet(2, memory_budget_bytes=budget),
        tenants=["smallnet:2", "smallnet:3"],
        mode="offload-partial",
    ).run()
    evictions = sum(row.store_evictions for row in eviction.edges)
    max_resident = max(row.store_resident_bytes for row in eviction.edges)
    print(
        f"   eviction: {evictions} demotions, max resident "
        f"{max_resident} B (budget {budget} B), "
        f"{eviction.presend['bytes_deduped']} B deduped",
        flush=True,
    )

    scenario = FleetScenario(
        sessions=10,
        requests_per_session=2,
        seed=seed,
        edges=default_fleet(2),
        tenants=["smallnet:2", "smallnet:3"],
        mode="offload-partial",
        reply_timeout=2.0,
    )
    scenario.inject_kill("edge-0", 0.5, revive_at_seconds=1.5, cold=True)
    killed = scenario.run()
    print(
        f"   failover re-upload: {killed.upload_bytes} B on the wire, "
        f"{killed.presend['bytes_deduped']} B deduped",
        flush=True,
    )
    return {
        "seed": seed,
        "cold_fleet": {
            "upload_bytes": cold.upload_bytes,
            "presend": cold.presend,
            "all_correct": cold.all_correct,
        },
        "warm_fleet": {
            "upload_bytes": warm.upload_bytes,
            "presend": warm.presend,
            "all_correct": warm.all_correct,
        },
        "eviction": {
            "memory_budget_bytes": budget,
            "tenants": ["smallnet:2", "smallnet:3"],
            "evictions": evictions,
            "max_resident_bytes": max_resident,
            "bytes_deduped": eviction.presend["bytes_deduped"],
            "all_correct": eviction.all_correct,
        },
        "failover_reupload": {
            "upload_bytes": killed.upload_bytes,
            "bytes_deduped": killed.presend["bytes_deduped"],
            "all_correct": killed.all_correct,
        },
    }


def _blas_info():
    """The numpy build's BLAS/LAPACK configuration, JSON-friendly.

    Recorded in the ``environment`` block so cross-box trajectories are
    interpretable (a 1.2x GEMM on OpenBLAS and on netlib are different
    facts).
    """
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - older numpy without mode=
        return {"numpy": np.__version__}
    deps = config.get("Build Dependencies", {})
    info = {"numpy": np.__version__}
    for kind in ("blas", "lapack"):
        entry = deps.get(kind, {})
        info[kind] = {
            key: entry.get(key)
            for key in ("name", "version", "detection method")
            if entry.get(key) is not None
        }
    return info


def _bench_exits(model_name="smallnet_exits", bandwidth_mbps=100.0):
    """Deadline-aware (split, exit) selection: accuracy scales with SLO.

    Sweeps a data-driven deadline grid at one bandwidth and records the
    joint (split, exit) pair ``choose_under_deadline`` picks per
    deadline.  Two claims: tightening the deadline never moves the
    chosen exit *later* (accuracy only ever degrades as the SLO
    tightens), and a generous enough deadline always picks the full
    network — the final exit at the model's full accuracy.  The default
    bandwidth is compute-dominated on purpose: early exits sit low in
    the spine, so their candidate splits ship big feature tensors, and
    on a slow link the full network's late split beats every early exit
    outright (no transition to see).  Everything is analytic over
    deterministically seeded predictor fits, so the sweep is
    reproducible across runs.
    """
    from repro.eval.fig8 import make_optimizer
    from repro.eval.fig_accuracy import deadline_grid_ms
    from repro.eval.scenarios import Testbed, build_paper_model

    print("-- exits (deadline-aware accuracy scaling) ...", flush=True)
    model = build_paper_model(model_name)
    network = model.network
    optimizer = make_optimizer(model_name)
    link = Testbed(bandwidth_bps=bandwidth_mbps * 1e6).profile
    # The probe choice's estimate sweep drives the deadline grid, so the
    # sweep hits every exit's feasibility threshold whatever the scale.
    probe = optimizer.choose_under_deadline(network, link, 3600.0)
    started = time.perf_counter()
    sweep = []
    for deadline_ms in deadline_grid_ms([probe]):
        choice = optimizer.choose_under_deadline(
            network, link, deadline_ms / 1e3
        )
        sweep.append(
            {
                "deadline_ms": deadline_ms,
                "split_index": choice.point.index,
                "split_label": choice.point.label,
                "exit_index": choice.exit.index,
                "exit_name": choice.exit.name,
                "accuracy": choice.accuracy,
                "predicted_s": round(choice.best.total_seconds, 6),
                "feasible": choice.feasible,
            }
        )
        print(
            f"   {deadline_ms:9.3f} ms -> split @{choice.point.index} "
            f"({choice.point.label}), exit {choice.exit.name} "
            f"(acc {choice.accuracy:.3f}, "
            f"{'feasible' if choice.feasible else 'infeasible'})",
            flush=True,
        )
    sweep_seconds = time.perf_counter() - started
    exit_indices = [row["exit_index"] for row in sweep]
    last = sweep[-1]
    return {
        "model": model_name,
        "bandwidth_mbps": bandwidth_mbps,
        "sweep": sweep,
        "sweep_ms": round(sweep_seconds * 1000, 3),
        "exit_indices": exit_indices,
        "never_later": all(
            a <= b for a, b in zip(exit_indices, exit_indices[1:])
        ),
        "generous_full_network": (
            last["exit_name"] == "final"
            and last["feasible"]
            and abs(last["accuracy"] - network.final_accuracy) < 1e-12
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full campaign (all paper models) instead of --quick",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_perf.json"),
        help="where to write the JSON results (default: repo-root BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    quick = not args.full

    # One unrecorded run first so the measured stage sees a warm process
    # (model zoo + conv caches) and does not eat the one-time build cost.
    _, warmup = _timed_campaign("warmup (unrecorded)", quick=quick)
    serial_wall, serial = _timed_campaign("serial", quick=quick)
    forward = _bench_optimized_forward()
    dag = _bench_dag_forward(forward)
    fleet = _bench_fleet()
    serving = _bench_serving()
    modelstore = _bench_modelstore()
    exits = _bench_exits()

    # The warm-up is the baseline: a second run in a warm process must
    # reproduce the first report byte for byte.
    identical = {"serial": serial.report_markdown == warmup.report_markdown}

    cpu_count = os.cpu_count() or 1
    claims = {
        "optimized_forward_speedup": {
            "held": forward["googlenet_speedup"] >= 1.3,
            "skipped": False,
            "threshold": 1.3,
            "measured": forward["googlenet_speedup"],
        },
        "batched_per_image_throughput": {
            "held": forward["batch_per_image_speedup"] >= 2.0,
            "skipped": False,
            "threshold": 2.0,
            "measured": forward["batch_per_image_speedup"],
        },
        # Deterministic (layer shapes only): interval coloring must shrink
        # the arena the retired two-slot allocator needed.
        "interval_coloring_shrinks_arena": {
            "held": dag["arena_bytes"] < dag["two_slot_arena_bytes"],
            "skipped": False,
            "measured_bytes": dag["arena_bytes"],
            "two_slot_bytes": dag["two_slot_arena_bytes"],
        },
        # Load-aware scheduling must pay off where it matters — the tail —
        # when the edges are genuinely unequal.  Virtual-time latencies,
        # so this is deterministic, not a flaky wall-clock race.
        "fleet_load_aware_beats_oblivious_p99": {
            "held": max(
                fleet["policies"]["min-response-time"]["p99_ms"],
                fleet["policies"]["queue-aware"]["p99_ms"],
            )
            < min(
                fleet["policies"]["round-robin"]["p99_ms"],
                fleet["policies"]["random"]["p99_ms"],
            ),
            "skipped": False,
            "p99_ms": {
                name: row["p99_ms"] for name, row in fleet["policies"].items()
            },
        },
        # Killing the fastest edge mid-run must lose zero requests and
        # keep p99 within one reply timeout + a full re-run of the cost.
        "fleet_kill_bounded_p99": {
            "held": fleet["kill"]["served"] == fleet["kill"]["expected"]
            and fleet["kill"]["all_correct"]
            and fleet["kill"]["p99_ms"]
            < fleet["kill"]["healthy_p99_ms"]
            + fleet["kill"]["degradation_bound_ms"],
            "skipped": False,
            "served": fleet["kill"]["served"],
            "expected": fleet["kill"]["expected"],
            "p99_ms": fleet["kill"]["p99_ms"],
            "bound_ms": fleet["kill"]["healthy_p99_ms"]
            + fleet["kill"]["degradation_bound_ms"],
        },
        # At saturating offered load the coalesced rear-half forwards must
        # finish the same work in less virtual time than per-request
        # serving (and not at the tail's expense).
        "serving_batched_throughput_beats_sequential": {
            "held": (
                serving["sweep"]["64.0"]["batched_rps"]
                > serving["sweep"]["64.0"]["sequential_rps"]
                and serving["sweep"]["64.0"]["batched_p99_ms"]
                < serving["sweep"]["64.0"]["sequential_p99_ms"]
            ),
            "skipped": False,
            "offered_rate_per_s": serving["saturating_rate_per_s"],
            "batched_rps": serving["sweep"]["64.0"]["batched_rps"],
            "sequential_rps": serving["sweep"]["64.0"]["sequential_rps"],
        },
        # Batching must be invisible in the results: identical labels,
        # scores, and snapshot kinds at every load point, and same-seed
        # serving runs (with a mid-run kill) must replay byte-for-byte.
        "serving_results_bitwise_equal_sequential": {
            "held": serving["bitwise_equal_at_every_load"]
            and serving["kill_replay_deterministic"],
            "skipped": False,
            "bitwise_equal_at_every_load": (
                serving["bitwise_equal_at_every_load"]
            ),
            "kill_replay_deterministic": (
                serving["kill_replay_deterministic"]
            ),
        },
        # A pre-warmed fleet runs the same seeded workload without paying
        # for any model upload; the cold fleet pays for every edge.
        "warm_fleet_presend_bytes_below_cold": {
            "held": modelstore["warm_fleet"]["upload_bytes"]
            < modelstore["cold_fleet"]["upload_bytes"]
            and modelstore["cold_fleet"]["all_correct"]
            and modelstore["warm_fleet"]["all_correct"],
            "skipped": False,
            "cold_upload_bytes": modelstore["cold_fleet"]["upload_bytes"],
            "warm_upload_bytes": modelstore["warm_fleet"]["upload_bytes"],
        },
        # Two tenants whose rear halves cannot coexist under the budget
        # must thrash (evictions observed), yet every edge ends the run
        # within budget and every inference result stays correct.
        "eviction_keeps_resident_under_budget": {
            "held": modelstore["eviction"]["evictions"] > 0
            and modelstore["eviction"]["max_resident_bytes"]
            <= modelstore["eviction"]["memory_budget_bytes"]
            and modelstore["eviction"]["all_correct"],
            "skipped": False,
            "evictions": modelstore["eviction"]["evictions"],
            "max_resident_bytes": modelstore["eviction"]["max_resident_bytes"],
            "memory_budget_bytes": (
                modelstore["eviction"]["memory_budget_bytes"]
            ),
        },
        # Tightening the completion deadline must never move the chosen
        # early exit *later* — accuracy degrades monotonically with the
        # SLO, never recovers as it tightens.
        "exit_never_later_as_deadline_tightens": {
            "held": exits["never_later"],
            "skipped": False,
            "model": exits["model"],
            "bandwidth_mbps": exits["bandwidth_mbps"],
            "exit_indices": exits["exit_indices"],
        },
        # A generous enough deadline must always pick the full network:
        # the final exit, feasible, at the model's full accuracy.
        "generous_deadline_picks_full_network": {
            "held": exits["generous_full_network"],
            "skipped": False,
            "final_choice": exits["sweep"][-1],
        },
    }
    claims_hold = all(
        claim["held"] for claim in claims.values() if not claim["skipped"]
    )

    payload = {
        "campaign": "quick" if quick else "full",
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "python": platform.python_version(),
        # Hardware/library context so cross-box trajectories are
        # interpretable (the GEMM speedups depend on it).
        "environment": {
            "blas": _blas_info(),
            "cpu_count": cpu_count,
        },
        "stages": {
            "serial": {
                **dataclasses.asdict(serial.engine_stats),
                "compute_seconds": serial.engine_stats.compute_seconds,
            },
            "optimized_forward": forward,
            "dag_forward": dag,
            "fleet": fleet,
            "serving": serving,
            "modelstore": modelstore,
            "exits": exits,
        },
        "speedup": {
            "optimized_vs_reference": forward["googlenet_speedup"],
            "batched_vs_looped": forward["batch_per_image_speedup"],
        },
        "reports_identical": identical,
        "claims": claims,
        "all_claims_hold": claims_hold and serial.all_claims_hold,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nresults written to {args.out}")

    failures = [name for name, same in identical.items() if not same]
    if failures:
        print(f"ERROR: reports diverged from the warm-up run: {failures}",
              file=sys.stderr)
        return 1
    failed_claims = [
        name for name, claim in claims.items()
        if not claim["skipped"] and not claim["held"]
    ]
    if failed_claims:
        print(f"ERROR: performance claims failed: {failed_claims}",
              file=sys.stderr)
        return 1
    skipped = [name for name, claim in claims.items() if claim["skipped"]]
    skip_note = f" (skipped: {', '.join(skipped)})" if skipped else ""
    print(
        f"campaign {serial_wall:.2f}s, "
        f"optimized forward {forward['googlenet_speedup']:.2f}x, "
        f"batch-8 {forward['batch_per_image_speedup']:.2f}x per-image; "
        f"report byte-identical to the warm-up's{skip_note}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
