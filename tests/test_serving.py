"""Continuous-batching serving: equivalence, determinism, and telemetry.

The serving loop's core contract is that batching is *invisible* in the
results: a fleet run with a :class:`~repro.serve.ServingConfig` produces
exactly the labels, scores, and snapshot kinds of the sequential run — only
the timing changes.  These tests pin that contract across the model zoo
(including GoogLeNet, whose mid split crosses inception branch-and-join
stages), pin byte-determinism of serving runs with and without mid-run edge
kills, and check the new request-path telemetry end to end.
"""

import pytest

from repro.fleet import EdgeSpec, FleetScenario, FleetScheduler, make_policy
from repro.serve import ServingConfig
from repro.sim import SeededRng, Simulator


def _run(model, *, serving=None, sessions=6, rate=16.0, seed=11,
         split_index=None, kill=None, deadline=None, requests=2,
         think=0.1, edges=1):
    config = serving
    if serving is True:
        config = ServingConfig(max_batch=8, batch_timeout_s=0.02)
    scenario = FleetScenario(
        model_name=model,
        edges=[EdgeSpec(name=f"edge-{i}") for i in range(edges)],
        policy="queue-aware",
        sessions=sessions,
        requests_per_session=requests,
        arrival_rate_per_s=rate,
        mean_think_seconds=think,
        mode="offload-partial",
        split_index=split_index,
        seed=seed,
        reply_timeout=120.0,
        serving=config,
        deadline_s=deadline,
    )
    if kill is not None:
        name, at, revive = kill
        scenario.inject_kill(name, at, revive_at_seconds=revive)
    return scenario, scenario.run()


def _result_key(record):
    return (
        record.session,
        record.request_index,
        record.result_label,
        record.expected_label,
        record.result_score,
        record.snapshot_kind,
    )


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("model", ["smallnet", "tinynet", "resnet-mini"])
    def test_light_models_bitwise_equal(self, model):
        _, seq = _run(model, serving=None)
        _, bat = _run(model, serving=True)
        assert seq.all_correct and bat.all_correct
        assert sorted(map(_result_key, seq.records)) == sorted(
            map(_result_key, bat.records)
        )

    def test_rear_heavy_split_bitwise_equal(self):
        # split 0 pushes every layer but the stem to the server — the
        # config where batches actually form back-to-back.
        _, seq = _run("resnet-mini", serving=None, split_index=0,
                      sessions=10, rate=48.0, think=0.05)
        _, bat = _run("resnet-mini", serving=True, split_index=0,
                      sessions=10, rate=48.0, think=0.05)
        assert seq.all_correct and bat.all_correct
        assert sorted(map(_result_key, seq.records)) == sorted(
            map(_result_key, bat.records)
        )

    @pytest.mark.serving
    @pytest.mark.parametrize("model", ["googlenet", "agenet", "gendernet"])
    def test_paper_models_bitwise_equal(self, model):
        # GoogLeNet's default mid split lands inside the inception stack,
        # so the batched rear-part forward crosses concat joins; AgeNet /
        # GenderNet cover the plain convolutional pipelines.
        _, seq = _run(model, serving=None, sessions=3, rate=16.0,
                      requests=1)
        _, bat = _run(model, serving=True, sessions=3, rate=16.0,
                      requests=1)
        assert seq.all_correct and bat.all_correct
        assert sorted(map(_result_key, seq.records)) == sorted(
            map(_result_key, bat.records)
        )

    def test_multi_edge_labels_equal_even_when_routing_differs(self):
        # With several edges the server-reported queue depth feeds the
        # queue-aware policy, so a batching fleet may legitimately *route*
        # differently than a sequential one — but every session's inference
        # results must still be identical.
        _, seq = _run("smallnet", serving=None, edges=2)
        _, bat = _run("smallnet", serving=True, edges=2)
        label_key = lambda r: (
            r.session, r.request_index, r.result_label, r.expected_label,
            r.result_score,
        )
        assert sorted(map(label_key, seq.records)) == sorted(
            map(label_key, bat.records)
        )


class TestServingDeterminism:
    def test_same_seed_replays_byte_identical(self):
        _, first = _run("resnet-mini", serving=True, split_index=0,
                        sessions=10, rate=48.0, think=0.05)
        _, second = _run("resnet-mini", serving=True, split_index=0,
                         sessions=10, rate=48.0, think=0.05)
        assert first.render_markdown() == second.render_markdown()
        assert first.serving == second.serving

    def test_mid_run_kill_replays_byte_identical(self):
        kill = ("edge-0", 0.35, 1.2)
        _, first = _run("resnet-mini", serving=True, split_index=0,
                        sessions=10, rate=48.0, think=0.05, kill=kill,
                        edges=2)
        _, second = _run("resnet-mini", serving=True, split_index=0,
                         sessions=10, rate=48.0, think=0.05, kill=kill,
                         edges=2)
        assert first.render_markdown() == second.render_markdown()
        assert first.all_correct
        # Every admitted request still completes exactly once.
        assert first.count == 20


class TestServingTelemetry:
    def test_request_path_fires_batch_metrics(self):
        scenario, report = _run(
            "resnet-mini", serving=True, split_index=0,
            sessions=12, rate=64.0, think=0.05, edges=2,
        )
        # Real batches formed on the request path, so the batched-forward
        # counter (previously only the explicit benchmark API) fired.
        metrics = scenario.sim.metrics
        forwards = sum(
            metrics.value("server_batch_forwards_total", server=name) or 0
            for name in ("edge-0", "edge-1")
        )
        assert forwards > 0
        assert report.serving is not None
        assert report.serving["batched_items"] > 0
        assert report.serving["max_batch"] >= 2
        assert report.serving["items"] == report.count
        # Serving-loop histograms observed every served item.
        items_observed = sum(
            hist.count
            for hist in (
                metrics.get("server_serving_batch_items", server=name)
                for name in ("edge-0", "edge-1")
            )
            if hist is not None
        )
        assert items_observed == report.serving["batches"]

    def test_report_without_serving_has_no_serving_block(self):
        _, report = _run("smallnet", serving=None, sessions=2, rate=8.0)
        assert report.serving is None
        assert "serving:" not in report.render_markdown()

    def test_deadline_misses_are_counted(self):
        # A 1 ms completion deadline under saturating load must be missed,
        # by every item: no rear half runs in 1 ms.
        _, report = _run(
            "resnet-mini",
            serving=ServingConfig(max_batch=8, batch_timeout_s=0.02),
            split_index=0, sessions=10, rate=64.0, think=0.05, deadline=0.001,
        )
        assert report.all_correct  # misses are accounting, not failures
        assert report.serving["deadline_misses"] == report.serving["items"] > 0

    def test_queue_depth_reaches_scheduler(self):
        sim = Simulator()
        scheduler = FleetScheduler(
            sim, ["edge-0", "edge-1"],
            make_policy("queue-aware", SeededRng(0, "t")),
        )
        # Same observed latency on both; server-reported backlog must
        # steer the queue-aware policy to the empty edge.
        scheduler.complete("edge-0", 0.1)
        scheduler.complete("edge-1", 0.1)
        scheduler.observe_server_queue("edge-0", 5)
        assert scheduler.try_pick() == "edge-1"
        assert (
            sim.metrics.value("fleet_edge_server_queue_depth", edge="edge-0")
            == 5
        )
        # A revival forgets the stale depth along with the window.
        scheduler.begin("edge-0")
        scheduler.fail("edge-0")
        scheduler.mark_alive("edge-0")
        assert scheduler.edge("edge-0").server_queue_depth == 0


class TestServingThroughput:
    def test_batching_beats_sequential_at_saturation(self):
        # The tentpole claim in miniature: at saturating offered load with
        # a rear-heavy split, coalesced forwards finish the same work in
        # less virtual time *and* with a lower p99.
        _, seq = _run("resnet-mini", serving=None, split_index=0,
                      sessions=24, rate=64.0, think=0.05, seed=7)
        _, bat = _run("resnet-mini", serving=True, split_index=0,
                      sessions=24, rate=64.0, think=0.05, seed=7)
        assert sorted(map(_result_key, seq.records)) == sorted(
            map(_result_key, bat.records)
        )
        seq_rps = seq.count / seq.makespan_seconds
        bat_rps = bat.count / bat.makespan_seconds
        assert bat_rps > seq_rps
        assert bat.p99_latency < seq.p99_latency
