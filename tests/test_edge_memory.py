"""An edge holds what is in flight, not what it has served.

One protocol loop runs per channel an edge ever served, so anything a loop
keeps after answering grows with the channels a run opens: a fleet run's
memory must be its working set — the snapshots still being served, the
tensor texts their arrays and snapshots hold, and each cached session with
its latest reply — not its history.  And a finished session must go when
it finishes, by reference counting, not when the cyclic collector next runs.
"""

import gc
import weakref

import pytest

from repro.core import client as client_module
from repro.core import protocol
from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.snapshot import Snapshot, codegen
from repro.fleet import FleetScenario, default_fleet
from repro.netsim import NetemProfile
from repro.serve import ServingConfig

from tests.garbage import cyclic_garbage
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
        # No text outlives every owner: each one the memo can still find is
        # held by a live array it was rendered from or by a live snapshot
        # that carries it (the edges' cached replies).
        live = {id(text) for text in codegen._texts.values()}
        owned = {id(text) for _, text in codegen._owned.values()}
        carried = {
            id(text)
            for obj in gc.get_objects() if isinstance(obj, Snapshot)
            for text in obj.texts
        }
        assert live <= owned | carried

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


def _recording(monkeypatch, seen):
    """Record a weak reference to each client runtime, client-captured
    snapshot, reply payload the client receives and codegen, in ``seen``."""
    for kind in ("client runtime", "client snapshot", "reply", "codegen"):
        seen[kind] = []

    agent_init = ClientAgent.__init__

    def init_agent(agent, *args, **kwargs):
        agent_init(agent, *args, **kwargs)
        seen["client runtime"].append(weakref.ref(agent.runtime))

    monkeypatch.setattr(ClientAgent, "__init__", init_agent)
    for name in ("capture_snapshot", "capture_delta"):
        capture = getattr(client_module, name)

        def recorded_capture(*args, _capture=capture, **kwargs):
            snapshot = _capture(*args, **kwargs)
            seen["client snapshot"].append(weakref.ref(snapshot))
            return snapshot

        monkeypatch.setattr(client_module, name, recorded_capture)
    await_reply = ClientAgent._await_reply

    def recorded_await(agent, request_id, timeout):
        outcome, message = yield from await_reply(agent, request_id, timeout)
        if outcome == "result":
            seen["reply"].append(weakref.ref(message.payload))
        return outcome, message

    monkeypatch.setattr(ClientAgent, "_await_reply", recorded_await)
    codegen_init = codegen.HeapCodegen.__init__

    def init_codegen(heap_codegen, *args, **kwargs):
        codegen_init(heap_codegen, *args, **kwargs)
        seen["codegen"].append(weakref.ref(heap_codegen))

    monkeypatch.setattr(codegen.HeapCodegen, "__init__", init_codegen)


class TestAFinishedSessionFreesItself:
    @pytest.mark.parametrize("served", ["inline", "batched"])
    def test_fleet_run_leaves_no_cyclic_session(self, monkeypatch, served):
        seen = {}
        _recording(monkeypatch, seen)
        alive = {}
        # batched: partial offloads, whose rear halves the serving loop runs
        extra = (
            {"mode": "offload-partial", "serving": ServingConfig()}
            if served == "batched" else {}
        )

        def run():
            scenario = FleetScenario(
                edges=default_fleet(2), sessions=8, requests_per_session=3,
                arrival_rate_per_s=8.0, reply_timeout=1.0, seed=7, **extra,
            )
            scenario.inject_kill("edge-0", 0.375, revive_at_seconds=0.75, cold=True)
            report = scenario.run()
            # The kill dropped live channels, and a request failed over.
            assert [edge for _, edge in scenario.kill_log] == ["edge-0"]
            assert sum(record.failovers for record in report.records) >= 1
            # Before any collection: an edge keeps each cached session's
            # latest reply; nothing else of a finished session is alive.
            cached = {
                id(reply)
                for server in scenario.servers.values()
                for _, _, reply in server._sessions.values()
            }
            for kind, refs in seen.items():
                alive[kind] = [
                    ref for ref in refs
                    if ref() is not None and id(ref()) not in cached
                ]
            return scenario, report

        # What the collector alone frees: no `repro` object, and nothing
        # but app-script function <-> namespace pairs (one per runtime
        # that compiled its app's script; tests/garbage.py names them).
        found = cyclic_garbage(run)
        assert all(len(refs) > 0 for refs in seen.values()), seen
        assert {kind: len(refs) for kind, refs in alive.items()} == dict.fromkeys(seen, 0)
        assert found == {}
