"""Hypothesis property tests for the observability layer.

Two families of invariants:

* pure histogram algebra — merging registries must behave like
  concatenating the underlying sample lists, and nearest-rank quantiles
  must be order statistics;
* end-to-end accounting — for ANY (mode, seed, downlink-loss)
  combination, the per-phase histograms and the session-phase spans must
  sum exactly to the session wall time, and the server must execute each
  request at most once no matter how many retransmissions the loss
  forces.

``derandomize=True`` keeps every run byte-for-byte deterministic: the
example stream depends only on the strategy definitions, never on wall
clock or global RNG state.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.session import OffloadingSession, expected_label_for
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import Channel, NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.obs import Histogram, MetricsRegistry
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app
from repro.web.values import TypedArray

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=50)


class TestHistogramAlgebra:
    @settings(derandomize=True, deadline=None)
    @given(values=samples)
    def test_quantile_endpoints_are_order_statistics(self, values):
        hist = MetricsRegistry().histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.quantile(0.0) == min(values)
        assert hist.quantile(1.0) == max(values)
        assert min(values) <= hist.quantile(0.5) <= max(values)

    @settings(derandomize=True, deadline=None)
    @given(values=samples, qs=st.lists(st.floats(0, 1), min_size=2, max_size=6))
    def test_quantile_monotone_in_q(self, values, qs):
        hist = MetricsRegistry().histogram("h")
        for value in values:
            hist.observe(value)
        ordered = sorted(qs)
        results = [hist.quantile(q) for q in ordered]
        assert results == sorted(results)

    @settings(derandomize=True, deadline=None)
    @given(left=samples, right=samples)
    def test_merge_is_concatenation(self, left, right):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in left:
            a.histogram("h", shard="x").observe(value)
        for value in right:
            b.histogram("h", shard="x").observe(value)
        merged = MetricsRegistry.merged([a, b])
        hist = merged.get("h", shard="x")
        assert hist.count == len(left) + len(right)
        assert hist.sum == pytest.approx(sum(left) + sum(right))
        assert hist.quantile(0.0) == min(left + right)
        assert hist.quantile(1.0) == max(left + right)
        assert sorted(hist.observations) == sorted(left + right)

    @settings(derandomize=True, deadline=None)
    @given(
        left=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), max_size=12),
        right=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), max_size=12),
    )
    def test_merge_orders_ties_as_observing_one_by_one_would(self, left, right):
        # -0.0 == 0.0 but they export differently, so tie order is visible
        merged, one_by_one = Histogram("h"), Histogram("h")
        other = Histogram("h")
        for value in left:
            merged.observe(value)
            one_by_one.observe(value)
        for value in right:
            other.observe(value)
        merged.merge_from(other)
        for value in other.observations:
            one_by_one.observe(value)
        assert list(map(repr, merged.observations)) == list(
            map(repr, one_by_one.observations)
        )
        assert merged.sum == pytest.approx(one_by_one.sum)

    @settings(derandomize=True, deadline=None)
    @given(values=samples, edges=st.lists(finite_floats, min_size=1, max_size=8))
    def test_bucket_counts_cumulative_and_end_at_count(self, values, edges):
        hist = MetricsRegistry().histogram("h")
        for value in values:
            hist.observe(value)
        bounds = sorted(set(edges))
        counts = hist.bucket_counts(bounds)
        assert counts == sorted(counts)
        assert all(c <= hist.count for c in counts)
        for bound, count in zip(bounds, counts):
            assert count == sum(1 for v in values if v <= bound)

    @settings(derandomize=True, deadline=None)
    @given(increments=st.lists(st.floats(0, 1e6, allow_nan=False), max_size=20))
    def test_counter_equals_sum_of_increments(self, increments):
        registry = MetricsRegistry()
        counter = registry.counter("n_total")
        for delta in increments:
            counter.inc(delta)
        assert registry.value("n_total") == pytest.approx(sum(increments))


def run_session(mode, seed, loss_down=0.0, reply_timeout=None, retries=0):
    """One complete session in a fresh world; returns (sim, server, result)."""
    sim = Simulator()
    channel = Channel(
        sim,
        "client",
        "edge",
        NetemProfile(bandwidth_bps=30e6, latency_s=0.001),
        profile_back=NetemProfile(
            bandwidth_bps=30e6, latency_s=0.001, loss=loss_down
        ),
    )
    server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
    server.serve(channel.end_b)
    client = ClientAgent(
        sim,
        Device(sim, odroid_xu4_client()),
        channel.end_a,
        capture_options=CaptureOptions(include_canvas_pixels=True),
    )
    model = smallnet(seed=seed)
    image = TypedArray(SeededRng(seed, "px").uniform_array((3, 32, 32), 0, 255))
    session = OffloadingSession(
        sim,
        client,
        make_inference_app(model),
        "smallnet",
        image,
        full_costs=network_costs(model.network),
        expected_label=expected_label_for(model, image),
        reply_timeout=reply_timeout,
        retries=retries,
    )
    if mode == "client":
        process = sim.spawn(session.run_client_only())
    else:
        process = sim.spawn(
            session.run_offload(wait_for_ack=(mode == "offload-after-ack"))
        )
    sim.run()
    assert process.ok, process.value
    return sim, server, process.value


class TestSessionAccounting:
    """Spans and phase histograms must tile the session exactly."""

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=8,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        mode=st.sampled_from(["client", "offload-after-ack", "offload-before-ack"]),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_phase_spans_tile_wall_time(self, mode, seed):
        sim, server, result = run_session(mode, seed)
        spans = sim.spans.by_category("session-phase")
        assert spans
        assert sum(s.duration for s in spans) == pytest.approx(
            result.total_seconds, abs=1e-9
        )
        assert min(s.start for s in spans) == pytest.approx(result.started_at)
        assert max(s.end for s in spans) == pytest.approx(result.finished_at)
        # phase histograms carry exactly the PhaseBreakdown totals
        for phase, seconds in result.phases.as_dict().items():
            hist = sim.metrics.get(
                "session_phase_seconds", phase=phase, mode=result.mode
            )
            assert hist.sum == pytest.approx(seconds, abs=1e-9)

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=6,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=5),
        loss_down=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_lossy_downlink_preserves_accounting_and_at_most_once(
        self, seed, loss_down
    ):
        # Replies may be dropped; the client retransmits.  However the
        # protocol churns, the span accounting must still tile the wall
        # time and the server must never run the DNN twice.
        sim, server, result = run_session(
            "offload-before-ack",
            seed,
            loss_down=loss_down,
            reply_timeout=1.0,
            retries=30,
        )
        assert result.correct
        assert server.executions == 1
        spans = sim.spans.by_category("session-phase")
        assert sum(s.duration for s in spans) == pytest.approx(
            result.total_seconds, abs=1e-9
        )
        retransmissions = sim.metrics.value(
            "client_retransmissions_total", client="client"
        )
        cached_replies = sim.metrics.value(
            "server_replies_from_cache_total", server="edge"
        )
        requests_received = sim.metrics.value(
            "server_requests_total", server="edge"
        )
        # The uplink is lossless, so every send arrives; each received
        # request was either the one execution or a cached reply.
        assert requests_received == retransmissions + 1
        assert requests_received == server.executions + cached_replies
