"""Each kept ablation study's paper claim, checked by the default test run.

The studies live in :mod:`repro.eval.ablations`;
``benchmarks/test_ablations.py`` runs the same calls and archives their
tables under ``benchmarks/results``.  Here only the claims are asserted:

* bandwidth sweep — offloading's win depends on the 30 Mbps link;
* partition adaptivity — the optimizer reacts to network status;
* decision policy — §IV.A's "execute locally while uploading" advice;
* snapshot optimizations — live-state elimination and data-URL images;
* GPU edge server — the "~80x with WebGL" outlook;
* session cache — the §VI future work: reuse state left at the server;
* baselines — snapshot offloading against the §V comparator approaches;
* placement — a nearby edge server against a datacenter cloud (§I).
"""

from repro.eval.ablations import (
    bandwidth_sweep,
    baseline_comparison_study,
    decision_study,
    edge_vs_cloud_study,
    gpu_server_study,
    partition_adaptivity,
    session_cache_study,
    snapshot_optimization_study,
)
from repro.eval.scenarios import build_paper_model


def test_bandwidth_sweep_crossover():
    points = bandwidth_sweep("googlenet", (1, 2, 4, 8, 15, 30, 60, 120))
    # Offloading loses on a ~1 Mbps link and wins from a few Mbps up.
    assert not points[0].offload_wins
    assert all(p.offload_wins for p in points if p.bandwidth_mbps >= 8)
    # Monotone: more bandwidth never hurts.
    times = [p.offload_seconds for p in points]
    assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))


def test_partition_moves_deeper_as_bandwidth_drops():
    choices = partition_adaptivity("googlenet", (1, 4, 30, 120))
    # At 30 Mbps the optimizer picks the paper's 1st_pool; on a much slower
    # link it moves the split at least as deep (never shallower).
    assert choices[30] == "1st_pool"
    network = build_paper_model("googlenet").network
    depth = {label: network.point_by_label(label).index for label in set(choices.values())}
    assert depth[choices[1]] >= depth[choices[30]]
    assert depth[choices[120]] <= depth[choices[4]]


def test_decision_policy_matches_ground_truth():
    outcomes = decision_study()
    for outcome in outcomes:
        assert outcome.policy_agrees, outcome.model
    by_model = {o.model: o for o in outcomes}
    # The paper's §IV.A pattern: offload GoogLeNet, run AgeNet locally.
    assert by_model["googlenet"].decision.action == "offload"
    assert by_model["agenet"].decision.action == "local"


def test_snapshot_optimizations_shrink_the_snapshot():
    sizes = snapshot_optimization_study("googlenet")
    assert sizes.live_only_bytes < sizes.conservative_bytes
    assert sizes.live_state_saving > 0.3
    assert sizes.data_url_bytes < 0.2 * sizes.live_only_bytes


def test_gpu_server_leaves_transfer_dominant():
    study = gpu_server_study()
    assert study.gpu_offload_seconds < 0.5 * study.cpu_offload_seconds
    # With an 80x server the DNN itself is nearly free...
    assert study.gpu_server_exec_seconds < 0.2
    # ...so migration (transfer) now dominates the remaining time.
    assert study.gpu_offload_seconds > 5 * study.gpu_server_exec_seconds


def test_session_cache_repeat_is_a_small_delta():
    study = session_cache_study("googlenet")
    # The repeat delta removes nearly the whole snapshot payload...
    assert study.bytes_saving > 0.95
    # ...and the repeat offload gets faster end to end.
    assert study.repeat_with_cache_seconds < study.repeat_without_cache_seconds


def test_snapshot_offloading_against_baselines():
    rows = baseline_comparison_study("googlenet")
    by_approach = {row.approach: row for row in rows}
    snapshot = by_approach["snapshot offloading"]
    specialized = by_approach["specialized service"]
    # Generality costs <25% at steady state vs a purpose-built service.
    assert snapshot.steady_state_seconds < 1.25 * specialized.steady_state_seconds
    assert snapshot.any_app and snapshot.stateless_handover


def test_edge_beats_cloud_on_the_same_hardware():
    rows = edge_vs_cloud_study("googlenet")
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
