"""Tests for server-side session caching (the paper's §VI future work).

After the first offload, the server keeps the restored browser; follow-up
offloads send deltas against the fingerprint the server returned, and the
client falls back to a full snapshot when the session is gone.
"""

import re

import pytest

from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import Channel, NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app
from repro.web.values import TypedArray
from tests.memos import clear_memos


@pytest.fixture
def world():
    sim = Simulator()
    channel = Channel(sim, "client", "edge", NetemProfile.wifi_30mbps())
    server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
    server.serve(channel.end_b)
    client = ClientAgent(
        sim,
        Device(sim, odroid_xu4_client()),
        channel.end_a,
        capture_options=CaptureOptions(include_canvas_pixels=True),
    )
    model = smallnet()
    client.start_app(make_inference_app(model), presend=True)
    client.runtime.globals["pending_pixels"] = TypedArray(
        SeededRng(0, "px").uniform_array((3, 32, 32), 0, 255)
    )
    client.runtime.dispatch("click", "load_btn")
    client.mark_offload_point("click", "infer_btn")
    sim.run()  # finish pre-sending
    return sim, client, server, model


def offload_once(sim, client, model, **kwargs):
    client.runtime.dispatch("click", "infer_btn")
    event = client.take_intercepted()
    process = sim.spawn(
        client.offload(event, server_costs=network_costs(model.network), **kwargs)
    )
    sim.run()
    assert process.ok, process.value
    return process.value


class TestSessionCache:
    def test_first_offload_is_full_then_delta(self, world):
        sim, client, server, model = world
        first = offload_once(sim, client, model)
        second = offload_once(sim, client, model)
        assert first.snapshot.kind == "full"
        assert second.snapshot.kind == "delta"

    def test_repeat_delta_is_tiny(self, world):
        sim, client, server, model = world
        first = offload_once(sim, client, model)
        second = offload_once(sim, client, model)
        # Nothing changed between inferences: the delta is ~a header.
        assert second.snapshot.size_bytes < first.snapshot.size_bytes / 100
        assert second.total_seconds < first.total_seconds

    def test_delta_offload_still_correct(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        offload_once(sim, client, model)
        text = client.runtime.document.get("result").text_content
        assert "label" in text
        assert server.served_requests == 2

    def test_new_image_travels_in_delta(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        # The user loads a different photo.
        client.runtime.globals["pending_pixels"] = TypedArray(
            SeededRng(1, "px2").uniform_array((3, 32, 32), 0, 255)
        )
        client.runtime.dispatch("click", "load_btn")
        second = offload_once(sim, client, model)
        assert second.snapshot.kind == "delta"
        # The delta carries the new canvas pixels (big), little else.
        assert second.snapshot.feature_bytes > 10_000
        # Server computed on the NEW image: its canvas matches the client's.
        browser = server._sessions[("client", client.runtime.app_name)][0]
        server_canvas = browser.document.get("canvas").image_data
        client_canvas = client.runtime.document.get("canvas").image_data
        assert server_canvas.equals(client_canvas)

    def test_each_state_is_hashed_once(self, world, monkeypatch):
        """Three requests: one baseline pass per request on the server, one
        pass inside each delta capture, none in any restore — and tensor
        text is rendered for shipped programs only, never to fingerprint."""
        from repro.core import server as server_module
        from repro.core.snapshot import capture, codegen, restore

        sim, client, server, model = world
        calls = {"server": 0, "capture_delta": 0, "restore": 0}

        original = restore.fingerprint_runtime

        def counted(where):
            def wrapper(runtime):
                calls[where] += 1
                return original(runtime)

            return wrapper

        monkeypatch.setattr(server_module, "fingerprint_runtime", counted("server"))
        monkeypatch.setattr(capture, "fingerprint_runtime", counted("capture_delta"))
        # the name restore_snapshot itself would reach
        monkeypatch.setattr(restore, "fingerprint_runtime", counted("restore"))

        clear_memos()
        outcomes = []
        for seed in (5, 6, 7):
            client.runtime.globals["pending_pixels"] = TypedArray(
                SeededRng(seed, "px").uniform_array((3, 32, 32), 0, 255)
            )
            client.runtime.dispatch("click", "load_btn")
            outcomes.append(offload_once(sim, client, model))
        assert [o.snapshot.kind for o in outcomes] == ["full", "delta", "delta"]
        assert calls["server"] == 3
        assert calls["restore"] == 0
        # the server's reply to each request + the client's two delta offloads
        assert calls["capture_delta"] == 3 + 2

        literal = re.compile(r"^_h\d+ = (?:TA|NP)\(", re.MULTILINE)
        shipped = sum(
            len(literal.findall(snapshot.program))
            for outcome in outcomes
            for snapshot in (outcome.snapshot, outcome.delta)
        )
        info = codegen.text_cache_info()
        assert shipped >= 3  # every request carried its new canvas
        assert info["hits"] + info["misses"] == shipped

    def test_session_loss_falls_back_to_full(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        server._sessions.clear()  # server restarted / evicted the session
        recovered = offload_once(sim, client, model)
        assert recovered.snapshot.kind == "full"
        assert server.served_requests == 2

    def test_cache_disabled_always_full(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        second = offload_once(sim, client, model, use_session_cache=False)
        assert second.snapshot.kind == "full"

    def test_fingerprint_travels_with_realistic_size(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        baseline = client.session_baselines["smallnet-app"]
        assert 100 < baseline.size_bytes < 10_000

    def test_lru_eviction_bounds_memory(self):
        """A capacity-1 server keeps only the most recent session."""
        sim = Simulator()
        server = EdgeServer(
            sim,
            Device(sim, edge_server_x86()),
            name="edge",
            session_cache_capacity=1,
        )
        clients = []
        for index in range(2):
            channel = Channel(sim, f"client-{index}", "edge", NetemProfile.wifi_30mbps())
            server.serve(channel.end_b)
            client = ClientAgent(
                sim,
                Device(sim, odroid_xu4_client()),
                channel.end_a,
                capture_options=CaptureOptions(include_canvas_pixels=True),
            )
            model = smallnet(seed=index)
            client.start_app(make_inference_app(model), presend=True)
            client.runtime.globals["pending_pixels"] = TypedArray(
                SeededRng(index, "px").uniform_array((3, 32, 32), 0, 255)
            )
            client.runtime.dispatch("click", "load_btn")
            client.mark_offload_point("click", "infer_btn")
            clients.append((client, model))
        sim.run()
        # Client 0 offloads, then client 1: client 0's session is evicted.
        offload_once(sim, *clients[0])
        offload_once(sim, *clients[1])
        assert server.evicted_sessions == 1
        assert len(server._sessions) == 1
        # Client 0's next offload transparently falls back to full.
        recovered = offload_once(sim, *clients[0])
        assert recovered.snapshot.kind == "full"

    def test_invalid_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            EdgeServer(
                sim,
                Device(sim, edge_server_x86()),
                session_cache_capacity=0,
            )

    def test_dead_local_changes_not_shipped(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        # Local-only state the inference handler never reads.
        client.runtime.globals["ui_theme"] = "dark"
        second = offload_once(sim, client, model)
        assert "ui_theme" not in second.snapshot.program


class TestCacheTelemetry:
    """The hit/miss/eviction counters expose the LRU cache's behaviour."""

    def _metric(self, sim, name, **labels):
        return sim.metrics.value(name, **labels)

    def test_hits_and_size_gauge(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)          # full: neither hit nor miss
        offload_once(sim, client, model)          # delta: cache hit
        assert self._metric(sim, "server_session_cache_hits_total", server="edge") == 1
        assert self._metric(sim, "server_session_cache_misses_total", server="edge") == 0
        assert self._metric(sim, "server_session_cache_size", server="edge") == 1

    def test_eviction_past_capacity_counted(self):
        sim = Simulator()
        server = EdgeServer(
            sim,
            Device(sim, edge_server_x86()),
            name="edge",
            session_cache_capacity=1,
        )
        clients = []
        for index in range(2):
            channel = Channel(
                sim, f"client-{index}", "edge", NetemProfile.wifi_30mbps()
            )
            server.serve(channel.end_b)
            client = ClientAgent(
                sim,
                Device(sim, odroid_xu4_client()),
                channel.end_a,
                capture_options=CaptureOptions(include_canvas_pixels=True),
            )
            model = smallnet(seed=index)
            client.start_app(make_inference_app(model), presend=True)
            client.runtime.globals["pending_pixels"] = TypedArray(
                SeededRng(index, "px").uniform_array((3, 32, 32), 0, 255)
            )
            client.runtime.dispatch("click", "load_btn")
            client.mark_offload_point("click", "infer_btn")
            clients.append((client, model))
        sim.run()
        offload_once(sim, *clients[0])
        offload_once(sim, *clients[1])  # evicts client 0's session
        value = lambda name: sim.metrics.value(name, server="edge")
        assert value("server_session_cache_evictions_total") == 1
        assert value("server_session_cache_size") == 1
        # Client 0's delta now misses; the transparent fallback re-fills
        # the cache, evicting client 1 in turn.
        recovered = offload_once(sim, *clients[0])
        assert recovered.snapshot.kind == "full"
        assert value("server_session_cache_misses_total") == 1
        assert value("server_session_cache_evictions_total") == 2
        assert (
            sim.metrics.value(
                "client_session_fallbacks_total", client="client-0"
            )
            == 1
        )

    def test_session_loss_fallback_counted(self, world):
        sim, client, server, model = world
        offload_once(sim, client, model)
        server.restart()
        recovered = offload_once(sim, client, model)
        assert recovered.snapshot.kind == "full"
        assert sim.metrics.value("server_restarts_total", server="edge") == 1
        assert sim.metrics.value("server_session_cache_misses_total", server="edge") == 1
        assert sim.metrics.value("client_session_fallbacks_total", client="client") == 1
