"""Tests for the observability layer: registry, spans, exporters, wiring.

Includes the PR's acceptance checks: for an offload-mode session the
registry phase histograms agree with the ``PhaseBreakdown`` totals to
within 1e-9, and the Prometheus text export round-trips through
``tests/prometheus.py::parse_prometheus_text``.
"""

import gc
import json
import math
import weakref

import pytest

from repro.eval.scenarios import Testbed
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    SpanRecorder,
    collect_metrics,
    spans_to_events,
    to_json,
    to_prometheus_text,
)
from repro.sim import Simulator
from tests.prometheus import parse_prometheus_text


class TestCountersAndGauges:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("requests_total") == 3.5
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(4)
        gauge.dec()
        gauge.inc(0.5)
        assert registry.value("queue_depth") == 3.5

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("bytes_total", link="a->b").inc(10)
        registry.counter("bytes_total", link="b->a").inc(7)
        assert registry.value("bytes_total", link="a->b") == 10
        assert registry.value("bytes_total", link="b->a") == 7
        assert len(registry.series("bytes_total")) == 2

    def test_same_name_same_labels_is_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("n", server="e").inc()
        registry.counter("n", server="e").inc()
        assert registry.value("n", server="e") == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricsError):
            registry.gauge("x_total")

    def test_untouched_metric_reads_zero(self):
        assert MetricsRegistry().value("never_created") == 0.0


class TestHistogram:
    def test_observe_count_sum_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        for value in (0.3, 0.1, 0.2):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.6)
        assert hist.quantile(0.0) == 0.1
        assert hist.quantile(1.0) == 0.3
        assert hist.quantile(0.5) == 0.2
        assert hist.mean() == pytest.approx(0.2)

    def test_empty_quantile_raises(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(MetricsError):
            hist.quantile(0.5)

    def test_bucket_counts_cumulative(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.5, 1.5, 2.5, 2.5):
            hist.observe(value)
        assert hist.bucket_counts((1.0, 2.0, 3.0)) == [1, 2, 4]


class TestTimerAndClock:
    def test_timer_uses_virtual_clock(self):
        sim = Simulator()

        def workload():
            with sim.metrics.timer("step_seconds", stage="restore"):
                yield sim.timeout(2.5)

        sim.spawn(workload())
        sim.run()
        hist = sim.metrics.get("step_seconds", stage="restore")
        assert hist.count == 1
        assert hist.quantile(1.0) == pytest.approx(2.5)


class TestMerge:
    def test_merge_sums_counters_and_concats_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(4.0)
        b.counter("only_b_total", shard="1").inc()
        merged = MetricsRegistry.merged([a, b])
        assert merged.value("n") == 5
        assert merged.get("h").count == 2
        assert merged.get("h").sum == pytest.approx(5.0)
        assert merged.value("only_b_total", shard="1") == 1

    def test_merge_kind_conflict_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(MetricsError):
            a.merge(b)

    def test_collect_metrics_captures_new_simulators(self):
        with collect_metrics() as registries:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert sim.metrics in registries
        merged = MetricsRegistry.merged(registries)
        assert merged.value("sim_events_dispatched_total") >= 1

    def test_a_collected_registry_keeps_no_simulator_alive(self):
        # the registry holds the clock: a finished testbed is garbage even
        # while the collector that wraps its run still holds the registry
        with collect_metrics() as registries:
            testbed = Testbed()
            assert testbed.run_offload("smallnet", wait_for_ack=True).correct
            exported = to_prometheus_text(MetricsRegistry.merged(registries))
            simulator = weakref.ref(testbed.sim)
            del testbed
            gc.collect()
            assert simulator() is None
            assert len(registries) == 1
            assert to_prometheus_text(MetricsRegistry.merged(registries)) == exported

    def test_nested_collectors_each_see_their_own_block(self):
        with collect_metrics() as outer:
            with collect_metrics() as inner:
                first = Simulator()
            # equal lists here: leaving `inner` must not unhook `outer`
            second = Simulator()
        after = Simulator()
        # registries compare by identity
        assert inner == [first.metrics]
        assert outer == [first.metrics, second.metrics]
        assert after.metrics not in outer


class TestSpans:
    def test_span_context_manager_records_clock_interval(self):
        sim = Simulator()

        def workload():
            with sim.spans.span("transfer", track="network") as attrs:
                yield sim.timeout(1.5)
                attrs["bytes"] = 100

        sim.spawn(workload())
        sim.run()
        (span,) = sim.spans.by_track("network")
        assert span.duration == pytest.approx(1.5)
        assert span.attrs["bytes"] == 100

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder().add("x", 2.0, 1.0)

    def test_chrome_export_assigns_tracks_in_first_seen_order(self):
        recorder = SpanRecorder()
        recorder.add("a", 0.0, 1.0, track="client")
        recorder.add("b", 1.0, 2.0, track="server")
        recorder.add("c", 2.0, 3.0, track="client")
        events = spans_to_events(recorder.spans)
        names = {e["tid"]: e["args"]["name"]
                 for e in events if e["name"] == "thread_name"}
        assert names == {1: "client", 2: "server"}
        spans = [e for e in events if e["ph"] == "X"]
        assert [s["tid"] for s in spans] == [1, 2, 1]


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("req_total", help="requests", server="edge").inc(5)
        registry.gauge("cache_size", server="edge").set(2)
        hist = registry.histogram("wait_seconds", device="cpu")
        for value in (0.001, 0.02, 1.7):
            hist.observe(value)
        return registry

    def test_prometheus_round_trip(self):
        registry = self._populated()
        parsed = parse_prometheus_text(to_prometheus_text(registry))
        assert parsed["types"]["req_total"] == "counter"
        assert parsed["types"]["wait_seconds"] == "histogram"
        samples = parsed["samples"]
        assert samples[("req_total", (("server", "edge"),))] == 5
        assert samples[("cache_size", (("server", "edge"),))] == 2
        assert samples[("wait_seconds_count", (("device", "cpu"),))] == 3
        assert samples[("wait_seconds_sum", (("device", "cpu"),))] == pytest.approx(
            1.721
        )
        # cumulative buckets end at the +Inf bucket == count
        inf_key = ("wait_seconds_bucket", (("device", "cpu"), ("le", "+Inf")))
        assert samples[inf_key] == 3

    def test_prometheus_buckets_monotone(self):
        parsed = parse_prometheus_text(to_prometheus_text(self._populated()))
        buckets = sorted(
            (dict(labels)["le"], value)
            for (name, labels), value in parsed["samples"].items()
            if name == "wait_seconds_bucket"
        )
        counts = [v for _, v in sorted(
            buckets, key=lambda kv: math.inf if kv[0] == "+Inf" else float(kv[0])
        )]
        assert counts == sorted(counts)

    def test_prometheus_text_is_grouped_by_family_then_sorted_by_labels(self):
        # registered out of order, with one family name a prefix of another
        registry = MetricsRegistry()
        registry.counter("net_bytes", help="bytes", link="b->a").inc(7)
        registry.gauge("net", link="z").set(1.5)
        registry.counter("net_bytes", link="a->b").inc(10)
        registry.histogram("wait", help="waits", device="gpu").observe(0.3)
        registry.gauge("net", link="a").set(2)
        registry.counter("net_bytes").inc(1)
        registry.histogram("wait", device="cpu").observe(2.0)
        assert to_prometheus_text(registry, buckets=(0.5, 1.0)) == (
            "# TYPE net gauge\n"
            'net{link="a"} 2\n'
            'net{link="z"} 1.5\n'
            "# HELP net_bytes bytes\n"
            "# TYPE net_bytes counter\n"
            "net_bytes 1\n"
            'net_bytes{link="a->b"} 10\n'
            'net_bytes{link="b->a"} 7\n'
            "# HELP wait waits\n"
            "# TYPE wait histogram\n"
            'wait_bucket{device="cpu",le="0.5"} 0\n'
            'wait_bucket{device="cpu",le="1"} 0\n'
            'wait_bucket{device="cpu",le="+Inf"} 1\n'
            'wait_sum{device="cpu"} 2\n'
            'wait_count{device="cpu"} 1\n'
            'wait_bucket{device="gpu",le="0.5"} 1\n'
            'wait_bucket{device="gpu",le="1"} 1\n'
            'wait_bucket{device="gpu",le="+Inf"} 1\n'
            'wait_sum{device="gpu"} 0.3\n'
            'wait_count{device="gpu"} 1\n'
        )
        assert [m.labels for m in registry.series("net_bytes")] == [
            (), (("link", "a->b"),), (("link", "b->a"),)
        ]
        assert [m.name for m in registry.series("net")] == ["net", "net"]

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("!!! not a metric line")

    def test_json_export_parses(self):
        document = json.loads(to_json(self._populated()))
        family = document["metrics"]["wait_seconds"]
        assert family["kind"] == "histogram"
        (series,) = family["series"]
        assert series["count"] == 3
        assert series["labels"] == {"device": "cpu"}


class TestKernelInstrumentation:
    def test_dispatch_counter_matches_kernel_count(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.metrics.value("sim_events_dispatched_total") == sim.dispatched

    def test_spawn_and_wakeup_counters(self):
        sim = Simulator()

        def workload():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.spawn(workload())
        sim.run()
        assert sim.metrics.value("sim_processes_spawned_total") == 1
        # start + two timeout completions
        assert sim.metrics.value("sim_process_wakeups_total") == 3


class TestSessionTelemetry:
    """Acceptance: registry phase histograms == PhaseBreakdown totals."""

    @pytest.fixture(scope="class")
    def offload_world(self):
        testbed = Testbed()
        result = testbed.run_offload("smallnet", wait_for_ack=True)
        return testbed, result

    def test_phase_histograms_match_breakdown(self, offload_world):
        testbed, result = offload_world
        registry = testbed.sim.metrics
        for phase, seconds in result.phases.as_dict().items():
            hist = registry.get(
                "session_phase_seconds", phase=phase, mode=result.mode
            )
            assert hist is not None, phase
            assert hist.sum == pytest.approx(seconds, abs=1e-9)

    def test_total_histogram_matches_wall_time(self, offload_world):
        testbed, result = offload_world
        hist = testbed.sim.metrics.get("session_total_seconds", mode=result.mode)
        assert hist.sum == pytest.approx(result.total_seconds, abs=1e-9)
        assert testbed.sim.metrics.value("sessions_total", mode=result.mode) == 1

    def test_spans_cover_exactly_the_session(self, offload_world):
        testbed, result = offload_world
        spans = testbed.sim.spans.by_category("session-phase")
        assert spans, "session emitted no spans"
        assert sum(s.duration for s in spans) == pytest.approx(
            result.total_seconds, abs=1e-9
        )
        assert min(s.start for s in spans) == pytest.approx(result.started_at)
        assert max(s.end for s in spans) == pytest.approx(result.finished_at)
        assert {s.track for s in spans} <= {"client", "network", "server"}

    def test_prometheus_export_of_real_run_round_trips(self, offload_world):
        testbed, _ = offload_world
        parsed = parse_prometheus_text(to_prometheus_text(testbed.sim.metrics))
        samples = parsed["samples"]
        assert samples[("server_executions_total", (("server", "edge-1"),))] == 1
        assert parsed["types"]["session_phase_seconds"] == "histogram"

    def test_network_counters_match_link_state(self, offload_world):
        testbed, _ = offload_world
        registry = testbed.sim.metrics
        channel = testbed.topology.channel
        for link in (channel.link_ab, channel.link_ba):
            assert registry.value(
                "net_bytes_sent_total", link=link.name
            ) == link.bytes_sent
            assert registry.value(
                "net_messages_delivered_total", link=link.name
            ) == link.delivered_count

    def test_device_queue_wait_observed(self, offload_world):
        testbed, _ = offload_world
        hist = testbed.sim.metrics.get(
            "device_queue_wait_seconds", device=testbed.server_profile.name
        )
        assert hist is not None and hist.count > 0
        assert hist.quantile(0.0) >= 0.0
