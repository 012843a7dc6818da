"""Failure injection: lossy links, retransmission, at-most-once execution."""

import pytest

from repro.core.client import ClientAgent, OffloadError
from repro.core.server import EdgeServer
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import Channel, NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app
from repro.web.values import TypedArray


def make_world(loss_up=0.0, loss_down=0.0):
    sim = Simulator()
    channel = Channel(
        sim,
        "client",
        "edge",
        NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=loss_up),
        profile_back=NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=loss_down),
    )
    server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
    server.serve(channel.end_b)
    client = ClientAgent(
        sim,
        Device(sim, odroid_xu4_client()),
        channel.end_a,
        capture_options=CaptureOptions(include_canvas_pixels=True),
    )
    model = smallnet()
    client.start_app(make_inference_app(model), presend=False)
    client.runtime.globals["pending_pixels"] = TypedArray(
        SeededRng(0, "px").uniform_array((3, 32, 32), 0, 255)
    )
    client.runtime.dispatch("click", "load_btn")
    client.mark_offload_point("click", "infer_btn")
    # Without pre-send, install the model at the server directly (keeps the
    # lossy-link tests focused on the snapshot exchange).
    server.store.install(model, model.files())
    return sim, client, server, channel, model


def offload(sim, client, model, **kwargs):
    client.runtime.dispatch("click", "infer_btn")
    event = client.take_intercepted()
    process = sim.spawn(
        client.offload(event, server_costs=network_costs(model.network), **kwargs)
    )
    sim.run()
    return process


class TestRetransmission:
    def test_reliable_link_no_retries_needed(self):
        sim, client, server, channel, model = make_world()
        process = offload(sim, client, model, reply_timeout=5.0, retries=3)
        assert process.ok
        assert server.served_requests == 1

    def test_lost_snapshot_recovered_by_retry(self):
        # Uplink drops everything until we flip it off: first attempt dies.
        sim, client, server, channel, model = make_world()
        channel.link_ab.profile = channel.link_ab.profile.__class__(
            bandwidth_bps=30e6, latency_s=0.001, loss=0.999999
        )
        sim.schedule(1.0, lambda: channel.link_ab.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
        ))
        process = offload(sim, client, model, reply_timeout=2.0, retries=3)
        assert process.ok
        assert "label" in client.runtime.document.get("result").text_content

    def test_lost_reply_not_reexecuted(self):
        # Downlink drops the first reply; the retransmitted request must be
        # answered from the reply cache without running the DNN again.
        sim, client, server, channel, model = make_world()
        channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=0.999999)
        )
        sim.schedule(1.0, lambda: channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
        ))
        process = offload(sim, client, model, reply_timeout=2.0, retries=5)
        assert process.ok
        assert server.served_requests == 1  # executed exactly once

    def test_exhausted_retries_raise(self):
        sim, client, server, channel, model = make_world()
        channel.go_down()
        process = offload(sim, client, model, reply_timeout=0.5, retries=2)
        assert process.ok is False
        assert isinstance(process.value, OffloadError)
        assert "after 3 attempt" in str(process.value)

    def test_no_timeout_means_wait_forever(self):
        sim, client, server, channel, model = make_world()
        process = offload(sim, client, model)  # default: no timeout
        assert process.ok

    def test_slow_reply_stale_result_discarded(self):
        # The first reply is merely SLOW (server busy), not lost: the
        # client times out, retransmits, then receives TWO results.  The
        # second offload must not be confused by the leftover.
        sim, client, server, channel, model = make_world()
        server.device.execute(3.0, label="busy-with-something")  # head-of-line
        process = offload(sim, client, model, reply_timeout=1.0, retries=5)
        assert process.ok
        assert process.value.request_id == 1
        # A follow-up offload still works and matches its own request.
        process2 = offload(sim, client, model, reply_timeout=5.0, retries=1)
        assert process2.ok
        assert process2.value.request_id > 1

    def test_duplicate_execution_never_happens_under_heavy_retry(self):
        sim, client, server, channel, model = make_world()
        server.device.execute(2.5, label="busy")  # force several timeouts
        process = offload(sim, client, model, reply_timeout=0.5, retries=10)
        assert process.ok
        assert server.served_requests == 1


class TestReliabilityTelemetry:
    """Counter-backed versions of the failure stories: the registry must
    tell the same story the protocol state does."""

    def test_lossy_downlink_executes_at_most_once(self):
        sim, client, server, channel, model = make_world()
        channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=0.999999)
        )
        sim.schedule(1.0, lambda: channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
        ))
        process = offload(sim, client, model, reply_timeout=2.0, retries=5)
        assert process.ok
        assert server.executions == 1
        cached = sim.metrics.value("server_replies_from_cache_total", server="edge")
        retransmissions = sim.metrics.value(
            "client_retransmissions_total", client="client"
        )
        timeouts = sim.metrics.value("client_reply_timeouts_total", client="client")
        assert cached >= 1
        assert retransmissions == cached  # lossless uplink: all arrive
        assert timeouts == retransmissions
        assert sim.metrics.value("net_messages_sent_total", endpoint="client") >= 2

    def test_restart_between_offloads_falls_back_and_reexecutes(self):
        sim, client, server, channel, model = make_world()
        first = offload(sim, client, model)
        assert first.ok and first.value.snapshot.kind == "full"
        server.restart()
        second = offload(sim, client, model)
        assert second.ok
        # The client tried a delta, was told the session is gone, and
        # transparently re-sent a full snapshot; both requests executed.
        assert second.value.snapshot.kind == "full"
        assert server.executions == 2
        assert sim.metrics.value("server_restarts_total", server="edge") == 1
        assert sim.metrics.value(
            "client_session_fallbacks_total", client="client"
        ) == 1

    def test_restart_mid_session_reexecutes_after_reply_loss(self):
        # The reply to the first execution is lost AND the server restarts
        # before the retransmission lands: the reply cache is gone, so the
        # at-most-once guarantee degrades (by design) to a re-execution —
        # the client still converges on a correct answer.
        sim, client, server, channel, model = make_world()
        channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=0.999999)
        )
        sim.schedule(1.0, lambda: channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
        ))
        sim.schedule(1.5, server.restart)
        process = offload(sim, client, model, reply_timeout=2.0, retries=5)
        assert process.ok
        assert server.executions == 2
        assert sim.metrics.value(
            "server_replies_from_cache_total", server="edge"
        ) == 0
        assert "label" in client.runtime.document.get("result").text_content

    def test_exhausted_retries_count_failures(self):
        sim, client, server, channel, model = make_world()
        channel.go_down()
        process = offload(sim, client, model, reply_timeout=0.5, retries=2)
        assert process.ok is False
        assert sim.metrics.value(
            "client_offload_failures_total", client="client"
        ) == 1
        assert sim.metrics.value(
            "client_reply_timeouts_total", client="client"
        ) == 3
        assert server.executions == 0
