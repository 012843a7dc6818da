"""Tests for the wire protocol, pre-sending and the server/client agents."""

import functools
import gc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.client import ClientAgent, OffloadError
from repro.core.presend import PresendManager
from repro.core.server import EdgeServer
from repro.core.session import expected_label_for
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import Channel, NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.values import TypedArray


def wired(profile):
    """A client agent and an edge server joined by one ``profile`` channel."""
    sim = Simulator()
    channel = Channel(sim, "client", "edge", profile)
    server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
    server.serve(channel.end_b)
    client = ClientAgent(sim, Device(sim, odroid_xu4_client()), channel.end_a)
    return sim, client, server, channel


@pytest.fixture
def world():
    """A wired-up client/server pair over a fast LAN."""
    return wired(NetemProfile(bandwidth_bps=30e6, latency_s=0.001))


@pytest.fixture
def model():
    return smallnet()


def pixels():
    return TypedArray(SeededRng(11, "px").uniform_array((3, 32, 32), 0, 255))


class TestPayloadSizes:
    def test_manifest_small(self, model):
        payload = protocol.ManifestPayload(model.model_id, model.files(), model)
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
        (delivery,) = manager.pending_deliveries()
        assert delivery.files

    def test_a_manager_waiting_for_its_ack_goes_with_its_owner(self, world, model):
        """The ACK wait never comes to an end here (the upload was
        cancelled), and the manager holds that process: the process must
        not hold the manager back, or the two are a cycle that keeps the
        manager and its models until the cyclic collector runs."""
        sim, _client, _server, channel = world
        manager = PresendManager(sim, channel.end_a, [model])
        manager.start()
        sim.run(until=0.001)
        manager.cancel()
        sim.run()
        assert manager._ack_proc.is_alive
        gone = weakref.ref(manager)
        gc.disable()
        try:
            del manager
            assert gone() is None
        finally:
            gc.enable()

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
        (delivery,) = manager.pending_deliveries()
        assert delivery.files == files[2:]


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


# -- one ACK per upload ---------------------------------------------------------

#: 50 ms one way: an offload that starts at once has its snapshot captured
#: while the manifest is still in flight
SLOW_LINK = NetemProfile(bandwidth_bps=30e6, latency_s=0.05)

MOMENTS = ("before-manifest", "between-files", "after-last-file", "after-ack")


def smallnet_app(partial):
    """A smallnet app, or one whose split-2 rear half is pre-sent."""
    model = smallnet()
    if not partial:
        return model, make_inference_app(model)
    front, rear = model.split(2)
    return model, make_partial_inference_app(front, rear, name="smallnet@2")


def start_app(world, app, partial):
    _sim, client, _server, _channel = world
    client.capture_options = CaptureOptions(include_canvas_pixels=True)
    client.start_app(app, presend=True)
    client.runtime.globals["pending_pixels"] = pixels()
    client.runtime.dispatch("click", "load_btn")
    if partial:
        client.mark_offload_point("front_complete")
    else:
        client.mark_offload_point("click", "infer_btn")


def click_and_offload(client):
    """Simulated process: one click, its intercepted event offloaded."""
    client.runtime.globals.pop("result_label", None)
    client.runtime.dispatch("click", "infer_btn")
    outcome = yield from client.offload(client.take_intercepted())
    return outcome


def acks_delivered(end):
    """The model id of every MODEL_ACK delivered to ``end`` from now on."""
    acks = []
    deliver = end._deliver

    def counting(message):
        if message.kind == protocol.MODEL_ACK:
            acks.append(message.payload["model_id"])
        deliver(message)

    end._deliver = counting
    return acks


def moment_of(server, presend, model_id):
    """Where the pre-send of ``model_id`` stands, from both ends."""
    entry = server.store.entry(model_id)
    if entry is None:
        return "before-manifest"
    if not entry.complete:
        return "between-files"
    if not presend.is_acked(model_id):
        return "after-last-file"
    return "after-ack"


@functools.lru_cache(maxsize=None)
def presend_timeline(partial):
    """(manifest in, last file in, ACK back, capture) of a lone pre-send.

    The first three are virtual times at the edge and back at the client;
    the last is how long an offload takes from its click to choosing what
    rides along (the snapshot capture), measured by one offload after it.
    """
    world = wired(SLOW_LINK)
    sim, client, server, _channel = world
    arrivals = []
    for name in ("begin_upload", "receive_file"):
        method = getattr(server.store, name)

        def spy(*args, _method=method):
            arrivals.append(sim.now)
            return _method(*args)

        setattr(server.store, name, spy)
    _model, app = smallnet_app(partial)
    start_app(world, app, partial)
    (uploaded,) = app.presend_models()
    ack = client.presend.ack_event(uploaded.model_id)
    sim.run()
    decided = []
    pending = client.presend.pending_deliveries
    client.presend.pending_deliveries = lambda: decided.append(sim.now) or pending()
    clicked = sim.now
    sim.spawn(click_and_offload(client))
    sim.run()
    return arrivals[0], arrivals[-1], ack.value, decided[0] - clicked


class TestOneAckPerUpload:
    """Whatever completes an upload — its last file or a snapshot's
    deliveries — the edge ACKs it once, and the model is runnable there."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        partial=st.booleans(),
        moment=st.sampled_from(MOMENTS),
        share=st.floats(min_value=0.1, max_value=0.9),
    )
    @example(partial=False, moment="before-manifest", share=0.5)
    @example(partial=False, moment="between-files", share=0.5)
    @example(partial=False, moment="after-last-file", share=0.5)
    @example(partial=False, moment="after-ack", share=0.5)
    @example(partial=True, moment="before-manifest", share=0.5)
    @example(partial=True, moment="between-files", share=0.5)
    @example(partial=True, moment="after-last-file", share=0.5)
    @example(partial=True, moment="after-ack", share=0.5)
    def test_an_offload_during_presend_is_acked_once(self, partial, moment, share):
        manifest_in, last_file_in, ack_back, capture = presend_timeline(partial)
        start, end = {
            "before-manifest": (capture, manifest_in),
            "between-files": (manifest_in, last_file_in),
            "after-last-file": (last_file_in, ack_back),
            "after-ack": (ack_back, 2 * ack_back),
        }[moment]
        world = wired(SLOW_LINK)
        sim, client, server, channel = world
        model, app = smallnet_app(partial)
        (uploaded,) = app.presend_models()
        model_id = uploaded.model_id
        acks = acks_delivered(channel.end_a)
        start_app(world, app, partial)
        presend = client.presend
        seen = []
        pending = presend.pending_deliveries
        presend.pending_deliveries = (
            lambda: seen.append(moment_of(server, presend, model_id)) or pending()
        )

        def offload_later():
            yield sim.timeout(start + share * (end - start) - capture)
            outcome = yield from click_and_offload(client)
            return outcome

        first = sim.spawn(offload_later())
        sim.run()
        assert first.ok, first.value
        assert seen == [moment]
        labels = [client.runtime.globals.get("result_label")]
        assert acks == [model_id]
        assert presend.is_acked(model_id)
        assert not presend._ack_proc.is_alive
        assert server.store.has_complete(model_id)
        assert server.store.get_model(model_id) is uploaded

        assert pending() == []
        second = sim.spawn(click_and_offload(client))
        sim.run()
        assert second.ok, second.value
        assert second.value.delivery_bytes == 0
        labels.append(client.runtime.globals.get("result_label"))
        assert acks == [model_id]
        assert labels == [expected_label_for(model, pixels())] * 2
