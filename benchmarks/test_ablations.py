"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not in the paper's figures, but each one probes an assumption the paper
relies on (or a forward-looking remark it makes):

* bandwidth sweep — offloading's win depends on the 30 Mbps link;
* partition adaptivity — the optimizer reacts to network status;
* decision policy — §IV.A's "execute locally while uploading" advice;
* snapshot optimizations — live-state elimination and data-URL images;
* GPU edge server — the "~80x with WebGL" outlook;
* energy — offloading saves client energy, the classic motivation.
"""

import pytest

from repro.eval.ablations import (
    bandwidth_sweep,
    decision_study,
    energy_study,
    gpu_server_study,
    partition_adaptivity,
    session_cache_study,
    snapshot_optimization_study,
)
from repro.eval.reporting import format_table


def test_ablation_bandwidth_sweep(benchmark, archive):
    points = benchmark.pedantic(
        lambda: bandwidth_sweep("googlenet", (1, 2, 4, 8, 15, 30, 60, 120)),
        rounds=1,
        iterations=1,
    )
    archive(
        "ablation_bandwidth",
        format_table(
            ["Mbps", "offload s", "client s", "offload wins"],
            [
                [p.bandwidth_mbps, p.offload_seconds, p.client_seconds, str(p.offload_wins)]
                for p in points
            ],
            title="Ablation — offloading vs bandwidth (GoogLeNet)",
        ),
    )
    # Offloading loses on a ~1 Mbps link and wins from a few Mbps up.
    assert not points[0].offload_wins
    assert all(p.offload_wins for p in points if p.bandwidth_mbps >= 8)
    # Monotone: more bandwidth never hurts.
    times = [p.offload_seconds for p in points]
    assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))


def test_ablation_partition_adaptivity(benchmark, archive):
    choices = benchmark.pedantic(
        lambda: partition_adaptivity("googlenet", (1, 4, 30, 120)),
        rounds=1,
        iterations=1,
    )
    archive(
        "ablation_partition_adaptivity",
        format_table(
            ["Mbps", "chosen point"],
            [[mbps, label] for mbps, label in choices.items()],
            title="Ablation — optimizer's offload point vs bandwidth (GoogLeNet)",
        ),
    )
    # At 30 Mbps the optimizer picks the paper's 1st_pool; on a much slower
    # link it moves the split at least as deep (never shallower).
    assert choices[30] == "1st_pool"
    from repro.eval.scenarios import build_paper_model

    network = build_paper_model("googlenet").network
    depth = {label: network.point_by_label(label).index for label in set(choices.values())}
    assert depth[choices[1]] >= depth[choices[30]]
    assert depth[choices[120]] <= depth[choices[4]]


def test_ablation_decision_policy(benchmark, archive):
    outcomes = benchmark.pedantic(decision_study, rounds=1, iterations=1)
    archive(
        "ablation_decision_policy",
        format_table(
            ["model", "policy", "measured best", "local s", "offload s"],
            [
                [
                    o.model,
                    o.decision.action,
                    o.measured_best,
                    o.measured_local_seconds,
                    o.measured_offload_seconds,
                ]
                for o in outcomes
            ],
            title="Ablation — before-ACK decision policy vs ground truth",
        ),
    )
    for outcome in outcomes:
        assert outcome.policy_agrees, outcome.model
    by_model = {o.model: o for o in outcomes}
    # The paper's §IV.A pattern: offload GoogLeNet, run AgeNet locally.
    assert by_model["googlenet"].decision.action == "offload"
    assert by_model["agenet"].decision.action == "local"


def test_ablation_snapshot_optimizations(benchmark, archive):
    sizes = benchmark.pedantic(
        lambda: snapshot_optimization_study("googlenet"), rounds=1, iterations=1
    )
    archive(
        "ablation_snapshot_optimizations",
        format_table(
            ["capture policy", "snapshot MB"],
            [
                ["conservative (all state)", sizes.conservative_bytes / 1e6],
                ["live-state elimination", sizes.live_only_bytes / 1e6],
                ["live + data-URL image", sizes.data_url_bytes / 1e6],
            ],
            title="Ablation — snapshot size under capture policies (GoogLeNet)",
        ),
    )
    assert sizes.live_only_bytes < sizes.conservative_bytes
    assert sizes.live_state_saving > 0.3
    assert sizes.data_url_bytes < 0.2 * sizes.live_only_bytes


def test_ablation_gpu_server(benchmark, archive):
    study = benchmark.pedantic(gpu_server_study, rounds=1, iterations=1)
    archive(
        "ablation_gpu_server",
        format_table(
            ["configuration", "seconds"],
            [
                ["offload to CPU server", study.cpu_offload_seconds],
                ["offload to 80x GPU server", study.gpu_offload_seconds],
                ["GPU server DNN exec only", study.gpu_server_exec_seconds],
            ],
            title="Ablation — WebGL-class (80x) edge server (GoogLeNet)",
        ),
    )
    assert study.gpu_offload_seconds < 0.5 * study.cpu_offload_seconds
    # With an 80x server the DNN itself is nearly free...
    assert study.gpu_server_exec_seconds < 0.2
    # ...so migration (transfer) now dominates the remaining time.
    assert study.gpu_offload_seconds > 5 * study.gpu_server_exec_seconds


def test_ablation_session_cache(benchmark, archive):
    """The paper's §VI future work: reuse state left at the server."""
    study = benchmark.pedantic(
        lambda: session_cache_study("googlenet"), rounds=1, iterations=1
    )
    archive(
        "ablation_session_cache",
        format_table(
            ["configuration", "value"],
            [
                ["first offload (s)", study.first_offload_seconds],
                ["repeat, full snapshot (s)", study.repeat_without_cache_seconds],
                ["repeat, delta snapshot (s)", study.repeat_with_cache_seconds],
                ["full snapshot (MB)", study.full_snapshot_bytes / 1e6],
                ["delta snapshot (MB)", study.delta_snapshot_bytes / 1e6],
            ],
            title="Ablation — session cache: repeat offloading (GoogLeNet)",
        ),
    )
    # The repeat delta removes nearly the whole snapshot payload...
    assert study.bytes_saving > 0.95
    # ...and the repeat offload gets faster end to end.
    assert study.repeat_with_cache_seconds < study.repeat_without_cache_seconds


def test_ablation_feature_quantization(benchmark, archive):
    """Quantize the transmitted feature; measure REAL accuracy impact."""
    from repro.eval.ablations import quantization_study

    impacts = benchmark.pedantic(
        lambda: quantization_study("agenet", num_inputs=10), rounds=1, iterations=1
    )
    archive(
        "ablation_feature_quantization",
        format_table(
            ["bits", "label agreement", "feature bytes", "vs text"],
            [
                [
                    impact.bits,
                    impact.agreement,
                    impact.quantized_bytes,
                    f"-{impact.size_reduction:.0%}",
                ]
                for impact in impacts
            ],
            title="Ablation — feature quantization at 1st_pool (AgeNet)",
        ),
    )
    by_bits = {impact.bits: impact for impact in impacts}
    # 8-bit quantization is accuracy-free and removes >90% of the bytes.
    assert by_bits[8].agreement == 1.0
    assert by_bits[8].size_reduction > 0.9
    # Fewer bits never increases size; agreement degrades monotonically-ish.
    sizes = [impact.quantized_bytes for impact in impacts]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_ablation_multi_client_contention(benchmark, archive):
    """Shared edge server under synchronized client bursts."""
    from repro.eval.workloads import contention_study

    reports = benchmark.pedantic(
        lambda: contention_study("smallnet", (1, 2, 4, 8)), rounds=1, iterations=1
    )
    archive(
        "ablation_multi_client",
        format_table(
            ["clients", "mean latency s", "max latency s", "all correct"],
            [
                [count, report.mean_latency, report.max_latency, str(report.all_correct)]
                for count, report in reports.items()
            ],
            title="Ablation — FIFO queueing on a shared edge server (smallnet)",
        ),
    )
    latencies = [report.mean_latency for report in reports.values()]
    # More clients, more queueing — never less.
    assert all(b >= a - 1e-9 for a, b in zip(latencies, latencies[1:]))
    assert reports[8].mean_latency > 1.2 * reports[1].mean_latency
    assert all(report.all_correct for report in reports.values())


def test_ablation_predictor_features(benchmark, archive):
    """Flops-only vs multivariate latency prediction (grid-profiled)."""
    from repro.eval.ablations import predictor_feature_study

    rows = benchmark.pedantic(predictor_feature_study, rounds=1, iterations=1)
    archive(
        "ablation_predictor_features",
        format_table(
            ["device", "flops-only rel err", "multivariate rel err"],
            [
                [row.device, row.flops_only_error, row.multivariate_error]
                for row in rows
            ],
            title="Ablation — latency predictor feature sets",
        ),
    )
    by_device = {row.device: row for row in rows}
    # The paper's compute-bound client: one feature is enough.
    client = by_device["odroid-xu4"]
    assert client.flops_only_error < 0.1
    # A memory-bound device: the output-size feature is essential.
    bound = by_device["memory-bound-accelerator"]
    assert bound.multivariate_error < 0.1
    assert bound.flops_only_error > 3 * bound.multivariate_error


def test_ablation_video_streaming(benchmark, archive):
    """Continuous per-frame offloading (the paper's §I video workload)."""
    from repro.eval.streaming import run_stream

    def study():
        return {
            "client": run_stream("agenet", frames=4, fps=1.0, mode="client"),
            "offload": run_stream("agenet", frames=4, fps=1.0, mode="offload"),
            "offload+gpu": run_stream(
                "agenet", frames=4, fps=1.0, mode="offload", server_speedup=80.0
            ),
        }

    reports = benchmark.pedantic(study, rounds=1, iterations=1)
    archive(
        "ablation_video_streaming",
        format_table(
            ["mode", "achieved fps", "mean latency s", "keeps up @1fps", "correct"],
            [
                [
                    mode,
                    report.achieved_fps,
                    report.mean_latency,
                    str(report.keeps_up),
                    str(report.all_correct),
                ]
                for mode, report in reports.items()
            ],
            title="Ablation — streaming video, AgeNet per frame",
        ),
    )
    # Offloading multiplies throughput ~8x over the client...
    assert reports["offload"].achieved_fps > 5 * reports["client"].achieved_fps
    # ...and a GPU edge server sustains the source rate.
    assert reports["offload+gpu"].keeps_up
    assert all(report.all_correct for report in reports.values())


def test_ablation_edge_vs_cloud(benchmark, archive):
    """Nearby edge server vs datacenter cloud (the paper's motivation)."""
    from repro.eval.ablations import edge_vs_cloud_study

    rows = benchmark.pedantic(
        lambda: edge_vs_cloud_study("googlenet"), rounds=1, iterations=1
    )
    archive(
        "ablation_edge_vs_cloud",
        format_table(
            ["location", "Mbps", "latency ms", "total s", "migration s", "exec s"],
            [
                [
                    row.location,
                    row.bandwidth_mbps,
                    row.one_way_latency_ms,
                    row.total_seconds,
                    row.migration_seconds,
                    row.server_exec_seconds,
                ]
                for row in rows
            ],
            title="Ablation — server placement (GoogLeNet, offload after ACK)",
        ),
    )
    by_location = {row.location: row for row in rows}
    # Same hardware: the nearby edge server wins (the paper's premise)...
    assert by_location["edge"].total_seconds < by_location["cloud"].total_seconds
    # ...and migration cost is strictly lower at the edge.
    assert (
        by_location["edge"].migration_seconds
        < by_location["cloud"].migration_seconds
    )
    # Only an accelerator makes the far datacenter competitive.
    assert (
        by_location["cloud-gpu"].total_seconds < by_location["edge"].total_seconds
    )


def test_ablation_baseline_comparison(benchmark, archive):
    """Snapshot offloading vs the §V comparator approaches."""
    from repro.eval.ablations import baseline_comparison_study

    rows = benchmark.pedantic(
        lambda: baseline_comparison_study("googlenet"), rounds=1, iterations=1
    )
    archive(
        "ablation_baseline_comparison",
        format_table(
            ["approach", "first use s", "steady state s", "any app", "handover"],
            [
                [
                    row.approach,
                    row.first_use_seconds,
                    row.steady_state_seconds,
                    str(row.any_app),
                    str(row.stateless_handover),
                ]
                for row in rows
            ],
            title="Ablation — offloading approaches compared (GoogLeNet)",
        ),
    )
    by_approach = {row.approach: row for row in rows}
    snapshot = by_approach["snapshot offloading"]
    specialized = by_approach["specialized service"]
    # Generality costs <25% at steady state vs a purpose-built service.
    assert snapshot.steady_state_seconds < 1.25 * specialized.steady_state_seconds
    assert snapshot.any_app and snapshot.stateless_handover


def test_ablation_network_variability(benchmark, archive):
    """Adaptive vs fixed partitioning over a fading Wi-Fi trace."""
    from repro.eval.ablations import variability_study

    study = benchmark.pedantic(
        lambda: variability_study(seed=3), rounds=1, iterations=1
    )
    archive(
        "ablation_network_variability",
        format_table(
            ["request", "Mbps", "adaptive point"],
            [
                [index, mbps, point]
                for index, (mbps, point) in enumerate(
                    zip(study.bandwidths_mbps, study.adaptive_points)
                )
            ],
            title=(
                "Ablation — adaptive partitioning under a fading link "
                f"(fixed {study.fixed_total_seconds:.1f}s vs adaptive "
                f"{study.adaptive_total_seconds:.1f}s)"
            ),
        ),
    )
    assert study.adaptive_wins
    # During the deep fades the optimizer must move the split deeper.
    faded_points = {
        point
        for mbps, point in zip(study.bandwidths_mbps, study.adaptive_points)
        if mbps < 2.0
    }
    assert faded_points and faded_points != {"1st_pool"}
    # It never violates the denaturing constraint.
    assert "input" not in study.adaptive_points


def test_ablation_model_size_scaling(benchmark, archive):
    """Pre-sending economics from 27 MB (GoogLeNet) to 233 MB (AlexNet)."""
    from repro.eval.ablations import model_size_scaling_study

    points = benchmark.pedantic(model_size_scaling_study, rounds=1, iterations=1)
    archive(
        "ablation_model_size_scaling",
        format_table(
            ["model", "model MB", "presend s", "client s", "before-ACK s", "policy"],
            [
                [
                    p.model,
                    p.model_mb,
                    p.presend_seconds,
                    p.client_seconds,
                    p.before_ack_seconds,
                    p.policy_action,
                ]
                for p in points
            ],
            title="Ablation — model size vs pre-sending economics",
        ),
    )
    by_model = {p.model: p for p in points}
    # Bigger model, longer pre-send.
    assert (
        by_model["googlenet"].presend_seconds
        < by_model["agenet"].presend_seconds
        < by_model["alexnet"].presend_seconds
    )
    # AlexNet's 233 MB makes before-ACK offloading hopeless and the policy
    # must say "local"; GoogLeNet's 27 MB still pays off.
    assert by_model["alexnet"].policy_action == "local"
    assert not by_model["alexnet"].before_ack_pays_off
    assert by_model["googlenet"].policy_action == "offload"
    assert by_model["googlenet"].before_ack_pays_off


def test_ablation_energy(benchmark, archive):
    study = benchmark.pedantic(energy_study, rounds=1, iterations=1)
    archive(
        "ablation_energy",
        format_table(
            ["configuration", "client energy (J)"],
            [
                ["local execution", study.local_joules],
                ["offload after ACK", study.offload_joules],
            ],
            title="Ablation — client energy (GoogLeNet)",
        ),
    )
    assert study.offload_saves_energy
    assert study.offload_joules < 0.2 * study.local_joules
