"""An edge holds what is in flight, not what it has served.

One protocol loop runs per channel an edge ever served, so anything a loop
keeps after answering grows with the channels a run opens: a fleet run's
memory must be its working set — the snapshots still being served, the
bounded text memo and each cached session with its latest reply — not its
history.
"""

import gc
import weakref

from repro.core import protocol
from repro.core.server import EdgeServer
from repro.core.snapshot import codegen
from repro.fleet import FleetScenario
from repro.netsim import NetemProfile

from tests.test_reliability import make_world, offload


def _served_run(monkeypatch):
    """A small fleet run with one kill; returns what every edge was sent."""
    served = []  # (edge name, sender, weakref to the SNAPSHOT payload)
    on_snapshot = EdgeServer._on_snapshot

    def recording(server, endpoint, message):
        served.append((server.name, message.sender, weakref.ref(message.payload)))
        return on_snapshot(server, endpoint, message)

    monkeypatch.setattr(EdgeServer, "_on_snapshot", recording)
    scenario = FleetScenario(
        sessions=40, requests_per_session=3, arrival_rate_per_s=25.0,
        reply_timeout=1.0, seed=13,
    )
    scenario.inject_kill("edge-0", 0.6, revive_at_seconds=1.2, cold=True)
    report = scenario.run()
    gc.collect()
    return scenario, report, served


class TestFleetRunHoldsItsWorkingSet:
    def test_no_served_snapshot_outlives_its_request(self, monkeypatch):
        scenario, report, served = _served_run(monkeypatch)
        assert report.all_correct
        assert len(report.records) == 40 * 3
        assert [edge for _, edge in scenario.kill_log] == ["edge-0"]
        assert len(served) >= 40 * 3
        alive = [name for name, _, ref in served if ref() is not None]
        assert alive == []
        # What is left of the run's tensor text is the memo, within budget.
        assert codegen.text_cache_info()["bytes"] <= codegen.TEXT_CACHE_BUDGET_BYTES

    def test_reply_cache_holds_one_entry_per_sender(self, monkeypatch):
        scenario, report, served = _served_run(monkeypatch)
        for name, server in scenario.servers.items():
            senders = {sender for edge, sender, _ in served if edge == name}
            assert {sender for sender, _ in server._sessions} <= senders
            assert len(server._sessions) <= server.session_cache_capacity
            replies = [reply for _, _, reply in server._sessions.values()]
            # one reply per cached session, each its session's own
            assert len({id(reply) for reply in replies}) == len(server._sessions)
            for _, request_id, reply in server._sessions.values():
                assert reply.request_id == request_id
        assert sum(len(server._sessions) for server in scenario.servers.values()) > 0


class TestReplyCacheKeepsTheLatestReply:
    def test_retransmission_after_lost_reply_is_answered_from_cache(self):
        sim, client, server, channel, model = make_world()
        assert offload(sim, client, model).ok
        # The second request's reply is lost until t = 1 s after it is sent:
        # the client retransmits, and the edge answers from its cache.
        lossy = NetemProfile(bandwidth_bps=30e6, latency_s=0.001, loss=0.999999)
        channel.link_ba.set_profile(lossy)
        sim.schedule(1.0, lambda: channel.link_ba.set_profile(
            NetemProfile(bandwidth_bps=30e6, latency_s=0.001)
        ))
        second = offload(sim, client, model, reply_timeout=2.0, retries=5)
        assert second.ok
        assert server.executions == 2
        assert sim.metrics.value(
            "server_replies_from_cache_total", server="edge"
        ) >= 1
        (_, latest_id, latest_reply), = server._sessions.values()
        assert latest_id == second.value.request_id
        assert isinstance(latest_reply, protocol.ResultPayload)
