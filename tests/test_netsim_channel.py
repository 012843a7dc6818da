"""Unit tests for bidirectional channels, endpoints and topology."""

import gc
import weakref

import pytest

from repro.netsim import Channel, NetemProfile, ReceiveTimeout, Topology
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def chan(sim):
    return Channel(sim, "client", "server", NetemProfile(bandwidth_bps=8e6, latency_s=0.0))


class TestChannel:
    def test_send_and_recv(self, sim, chan):
        client, server = chan.ends()
        received = []

        def server_proc():
            message = yield server.recv()
            received.append((sim.now, message.kind, message.payload))

        sim.spawn(server_proc())
        client.send("HELLO", payload=b"x" * 999_744)  # 1 MB incl. frame
        sim.run()
        assert received == [(1.0, "HELLO", b"x" * 999_744)]

    def test_recv_before_send_blocks(self, sim, chan):
        client, server = chan.ends()
        log = []

        def server_proc():
            message = yield server.recv()
            log.append(sim.now)
            assert message.kind == "LATE"

        sim.spawn(server_proc())
        sim.schedule(5.0, lambda: client.send("LATE", size_bytes=0))
        sim.run()
        assert log == [5.0]

    def test_messages_buffered_until_recv(self, sim, chan):
        client, server = chan.ends()
        client.send("A", size_bytes=1000)
        client.send("B", size_bytes=1000)
        sim.run()
        assert server.pending == 2
        first, second, third = server.recv(), server.recv(), server.recv()
        assert first.value.kind == "A"
        assert second.value.kind == "B"
        assert not third.triggered
        assert server.pending == 0

    def test_recv_kind_buffers_other_kinds(self, sim, chan):
        client, server = chan.ends()
        got = []

        def server_proc():
            ack = yield server.recv_kind("ACK")
            got.append(ack.kind)

        sim.spawn(server_proc())
        client.send("DATA", size_bytes=1000)
        client.send("ACK", size_bytes=0)
        sim.run()
        assert got == ["ACK"]
        assert server.pending == 1
        assert server.recv().value.kind == "DATA"

    def test_recv_kind_finds_buffered_message(self, sim, chan):
        client, server = chan.ends()
        client.send("DATA", size_bytes=1000)
        client.send("ACK", size_bytes=0)
        sim.run()
        got = []

        def server_proc():
            ack = yield server.recv_kind("ACK")
            got.append(ack.kind)

        sim.spawn(server_proc())
        sim.run()
        assert got == ["ACK"]

    def test_recv_timeout_fails(self, sim, chan):
        _, server = chan.ends()
        caught = []

        def server_proc():
            try:
                yield server.recv(timeout=2.0)
            except ReceiveTimeout:
                caught.append(sim.now)

        sim.spawn(server_proc())
        sim.run()
        assert caught == [2.0]

    def test_recv_timeout_does_not_fire_after_delivery(self, sim, chan):
        client, server = chan.ends()
        results = []

        def server_proc():
            message = yield server.recv(timeout=10.0)
            results.append(message.kind)

        sim.spawn(server_proc())
        client.send("FAST", size_bytes=0)
        sim.run()
        assert results == ["FAST"]

    def test_bidirectional_traffic(self, sim, chan):
        client, server = chan.ends()
        log = []

        def server_proc():
            message = yield server.recv()
            server.send("PONG", size_bytes=message.size_bytes)

        def client_proc():
            client.send("PING", size_bytes=1_000_000)
            message = yield client.recv()
            log.append((sim.now, message.kind))

        sim.spawn(server_proc())
        sim.spawn(client_proc())
        sim.run()
        assert log == [(2.0, "PONG")]

    def test_send_delivery_event_times(self, sim, chan):
        client, _ = chan.ends()
        event = client.send("DATA", size_bytes=2_000_000)
        sim.run()
        assert event.ok
        assert event.value.delivered_at == pytest.approx(2.0)

    def test_channel_down_fails_send(self, sim, chan):
        client, _ = chan.ends()
        chan.go_down()
        event = client.send("DATA", size_bytes=100)
        sim.run()
        assert event.ok is False


class _Payload:
    """A payload a weak reference can watch."""

    size_bytes = 100


class TestNoMessageHistory:
    """A delivered message lives only as long as its receiver holds it."""

    N = 12

    def _send_watched(self, chan):
        client, _ = chan.ends()
        refs = []
        for index in range(self.N):
            payload = _Payload()
            refs.append(weakref.ref(payload))
            client.send("PING", payload=payload, seq=index)
        return refs

    def _assert_counted_and_released(self, sim, chan, refs):
        gc.collect()
        assert [ref() for ref in refs] == [None] * self.N
        assert chan.link_ab.delivered_count == self.N
        value = sim.metrics.value
        assert value("net_messages_sent_total", endpoint="client") == self.N
        assert value("net_messages_received_total", endpoint="server") == self.N
        assert value("net_messages_delivered_total", link=chan.link_ab.name) == self.N

    def test_pulled_messages_are_released(self, sim, chan):
        _, server = chan.ends()
        seen = []

        def server_proc():
            for _ in range(self.N):
                message = yield server.recv()
                seen.append(message.headers["seq"])

        sim.spawn(server_proc())
        refs = self._send_watched(chan)
        sim.run()
        assert seen == list(range(self.N))
        self._assert_counted_and_released(sim, chan, refs)


class TestTopology:
    def test_attach_and_profile(self, sim):
        topo = Topology(sim)
        topo.add_edge_host("edge-1", NetemProfile(bandwidth_bps=30e6))
        client_end, edge_end = topo.attach("edge-1")
        assert topo.attached_to == "edge-1"
        assert topo.channel.link_ab.profile.bandwidth_bps == 30e6
        assert client_end.peer is edge_end

    def test_attach_unknown_edge_raises(self, sim):
        topo = Topology(sim)
        with pytest.raises(KeyError):
            topo.attach("nowhere")

    def test_duplicate_edge_rejected(self, sim):
        topo = Topology(sim)
        topo.add_edge_host("edge-1")
        with pytest.raises(ValueError):
            topo.add_edge_host("edge-1")

    def test_handover_tears_down_old_channel(self, sim):
        topo = Topology(sim)
        topo.add_edge_host("edge-1")
        topo.add_edge_host("edge-2")
        old_client_end, _ = topo.attach("edge-1")
        old_channel = topo.channel
        topo.handover("edge-2")
        assert topo.attached_to == "edge-2"
        assert not old_channel.link_ab.up
        event = old_client_end.send("STALE", size_bytes=10)
        sim.run()
        assert event.ok is False

    def test_a_dropped_channel_frees_what_is_parked_on_it(self, sim):
        """An edge death drops its channels for good: the receives still
        waiting on them are forgotten without waking anyone (nothing could
        wake them), so a process parked on one goes by reference counting
        with the ends; a receive with a timeout still times out."""
        topo = Topology(sim)
        topo.add_edge_host("edge-1")
        client_end, edge_end = topo.connect("client", "edge-1")
        log = []

        def parked(end):
            yield end.recv()
            log.append("woken")

        def timed(end):
            try:
                yield end.recv(timeout=1.0)
            except ReceiveTimeout:
                log.append("timed out")

        parked_process = weakref.ref(sim.spawn(parked(edge_end)))
        sim.spawn(timed(client_end))
        sim.run(until=0.5)
        ends = [weakref.ref(end) for end in (client_end, edge_end)]
        gc.collect()
        gc.disable()
        try:
            assert topo.fail_edge("edge-1") == 1
            assert parked_process() is None
            assert client_end.peer is None
            # a loop that was busy at the drop parks afterwards: the same
            parked_later = weakref.ref(sim.spawn(parked(edge_end)))
            sim.run(until=0.6)
            assert parked_later() is None
            event = client_end.send("STALE", size_bytes=10)
            del client_end, edge_end
            sim.run()
            assert event.ok is False
            assert log == ["timed out"]
            assert [end() for end in ends] == [None, None]
        finally:
            gc.enable()

    def test_handover_to_current_edge_rejected(self, sim):
        topo = Topology(sim)
        topo.add_edge_host("edge-1")
        topo.attach("edge-1")
        with pytest.raises(ValueError):
            topo.handover("edge-1")

    def test_handover_log_records_times(self, sim):
        topo = Topology(sim)
        topo.add_edge_host("edge-1")
        topo.add_edge_host("edge-2")
        topo.attach("edge-1")
        sim.schedule(4.0, lambda: topo.handover("edge-2"))
        sim.run()
        assert topo.handover_log == [(0.0, "edge-1"), (4.0, "edge-2")]
