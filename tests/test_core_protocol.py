"""Tests for the wire protocol, pre-sending and the server/client agents."""

import pytest

from repro.core import protocol
from repro.core.client import ClientAgent, OffloadError
from repro.core.presend import PresendManager
from repro.core.server import EdgeServer
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import Channel, NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app
from repro.web.values import TypedArray


@pytest.fixture
def world():
    """A wired-up client/server pair over a fast LAN."""
    sim = Simulator()
    channel = Channel(
        sim, "client", "edge", NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
    )
    server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
    server.serve(channel.end_b)
    client = ClientAgent(sim, Device(sim, odroid_xu4_client()), channel.end_a)
    return sim, client, server, channel


@pytest.fixture
def model():
    return smallnet()


def pixels():
    return TypedArray(SeededRng(11, "px").uniform_array((3, 32, 32), 0, 255))


class TestPayloadSizes:
    def test_manifest_small(self, model):
        payload = protocol.ManifestPayload(model.model_id, model.files())
        assert payload.size_bytes < 2048

    def test_model_file_payload_sized_by_file(self, model):
        file = model.files()[1]
        payload = protocol.ModelFilePayload(model.model_id, file)
        assert payload.size_bytes == file.size_bytes

    def test_snapshot_payload_includes_deliveries(self, model):
        class FakeSnapshot:
            size_bytes = 1000

        delivery = protocol.ModelDelivery(model=model, files=model.files())
        payload = protocol.SnapshotPayload(FakeSnapshot(), [delivery])
        assert payload.size_bytes == 1000 + model.total_bytes
        assert payload.delivery_bytes == model.total_bytes


class TestPresend:
    def test_upload_completes_and_acks(self, world, model):
        sim, client, server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        sim.run()
        assert manager.is_acked(model.model_id)
        assert server.store.has_complete(model.model_id)
        assert server.store.get_model(model.model_id) is model

    def test_ack_time_matches_transfer_time(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        ack = manager.ack_event(model.model_id)
        sim.run()
        # ~142 KB at 30 Mbps plus framing/latency: tens of milliseconds.
        expected = model.total_bytes * 8 / 30e6
        assert ack.value == pytest.approx(expected, rel=0.5)

    def test_cancel_stops_remaining_files(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        sim.run(until=0.001)  # only the manifest got out
        manager.cancel()
        sim.run()
        assert not manager.is_acked(model.model_id)
        assert manager.missing_files(model)

    def test_pending_deliveries_before_start(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        deliveries = manager.pending_deliveries()
        assert len(deliveries) == 1
        assert deliveries[0].size_bytes == model.total_bytes

    def test_no_deliveries_after_ack(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        sim.run()
        assert manager.pending_deliveries() == []

    def test_double_start_rejected(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        with pytest.raises(RuntimeError):
            manager.start()

    def test_mark_delivered_excludes_from_missing(self, world, model):
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        files = model.files()
        manager.mark_delivered(model, files[:2])
        missing = manager.missing_files(model)
        assert len(missing) == len(files) - 2


class TestOffloadRoundTrip:
    def _start(self, world, model):
        from repro.core.snapshot import CaptureOptions

        sim, client, server, _channel = world
        client.capture_options = CaptureOptions(include_canvas_pixels=True)
        app = make_inference_app(model)
        client.start_app(app, presend=True)
        client.runtime.globals["pending_pixels"] = pixels()
        client.runtime.dispatch("click", "load_btn")
        client.mark_offload_point("click", "infer_btn")
        return sim, client, server

    def test_offload_after_ack(self, world, model):
        sim, client, server = self._start(world, model)
        sim.run()  # let pre-sending finish
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        costs = network_costs(model.network)
        process = sim.spawn(client.offload(event, server_costs=costs))
        sim.run()
        assert process.ok
        outcome = process.value
        assert outcome.delivery_bytes == 0
        assert outcome.phases.server_exec > 0
        assert "label" in client.runtime.document.get("result").text_content
        assert server.served_requests == 1

    def test_offload_before_ack_attaches_model(self, world, model):
        sim, client, server = self._start(world, model)
        # Click immediately: upload has not finished.
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        process = sim.spawn(
            client.offload(event, server_costs=network_costs(model.network))
        )
        sim.run()
        assert process.ok
        assert process.value.delivery_bytes > 0
        assert server.store.has_complete(model.model_id)
        assert "label" in client.runtime.document.get("result").text_content

    def test_bytes_never_sent_twice(self, world, model):
        sim, client, server = self._start(world, model)
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        process = sim.spawn(
            client.offload(event, server_costs=network_costs(model.network))
        )
        sim.run()
        total_sent = (
            world[3].link_ab.bytes_sent
        )  # client -> server direction
        # Everything sent once: model + snapshot + manifests, well under 2x.
        assert total_sent < 1.5 * (model.total_bytes + process.value.snapshot.size_bytes)

    def test_server_without_system_refuses(self, model):
        sim = Simulator()
        channel = Channel(sim, "client", "edge", NetemProfile.wifi_30mbps())
        server = EdgeServer(
            sim, Device(sim, edge_server_x86()), name="edge", installed=False
        )
        server.serve(channel.end_b)
        client = ClientAgent(sim, Device(sim, odroid_xu4_client()), channel.end_a)
        app = make_inference_app(model)
        client.start_app(app, presend=False)
        client.runtime.globals["pending_pixels"] = pixels()
        client.runtime.dispatch("click", "load_btn")
        client.mark_offload_point("click", "infer_btn")
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        process = sim.spawn(client.offload(event))
        sim.run()
        assert process.ok is False
        assert isinstance(process.value, OffloadError)

    def test_capability_probe(self, world, model):
        sim, client, server, channel = world
        replies = []

        def probe():
            channel.end_a.send(protocol.PING, None)
            reply = yield channel.end_a.recv_kind(protocol.PONG)
            replies.append(reply.payload)

        sim.spawn(probe())
        sim.run()
        assert replies[0].has_offloading_system is True
        assert replies[0].server_name == "edge"

    def test_two_sequential_offloads_second_is_fast(self, world, model):
        sim, client, server = self._start(world, model)
        sim.run()
        costs = network_costs(model.network)
        times = []
        for _ in range(2):
            client.runtime.dispatch("click", "infer_btn")
            event = client.take_intercepted()
            process = sim.spawn(client.offload(event, server_costs=costs))
            sim.run()
            assert process.ok
            times.append(process.value.total_seconds)
        # The model is already at the server both times; round trips match.
        assert times[1] == pytest.approx(times[0], rel=0.5)
        assert server.served_requests == 2
