"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not in the paper's figures, but each one probes an assumption the paper
relies on (or a forward-looking remark it makes):

* bandwidth sweep — offloading's win depends on the 30 Mbps link;
* partition adaptivity — the optimizer reacts to network status;
* decision policy — §IV.A's "execute locally while uploading" advice;
* snapshot optimizations — live-state elimination and data-URL images;
* GPU edge server — the "~80x with WebGL" outlook.

Every test archives its table under ``benchmarks/results``.  The claims
of the bandwidth, partition, decision, snapshot, gpu, cache, baselines and
placement studies are asserted in ``tests/test_ablation_claims.py``, so
the default test run checks them; the contention and streaming claims are
asserted here.
"""

from repro.eval.ablations import (
    bandwidth_sweep,
    contention_study,
    decision_study,
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


def test_ablation_multi_client_contention(benchmark, archive):
    """Shared edge server under synchronized client bursts."""
    reports = benchmark.pedantic(
        lambda: contention_study("smallnet", (1, 2, 4, 8)), rounds=1, iterations=1
    )
    archive(
        "ablation_multi_client",
        format_table(
            ["clients", "mean latency s", "max latency s", "all correct"],
            [
                [
                    count,
                    report.mean_latency,
                    report.latency_quantile(1.0),
                    str(report.all_correct),
                ]
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
