"""Unit tests for the fleet: policies, scheduler, topology, handshake.

The end-to-end failover behaviour lives in ``test_fleet_failover.py`` and
the property-based invariants in ``test_fleet_properties.py``; this module
pins down the building blocks — policy selection math, scheduler
bookkeeping, the multi-client topology extension, and the MODEL_QUERY /
MODEL_STATUS digest handshake — plus one small healthy-fleet run.
"""

import pytest

from repro.core import protocol
from repro.core.server import EdgeServer
from repro.devices import Device, edge_server_x86
from repro.fleet import (
    EdgeSpec,
    FleetScenario,
    FleetScheduler,
    PolicyError,
    compare_policies,
    default_fleet,
    make_policy,
)
from repro.fleet.policies import POLICY_NAMES
from repro.netsim import EdgeDown, Topology
from repro.nn.zoo import build_model
from repro.sim import SeededRng, Simulator
from tests.memos import clear_memos


def scheduler(policy="round-robin", names=("a", "b", "c"), **kwargs):
    sim = Simulator()
    return FleetScheduler(sim, names, make_policy(policy), **kwargs)


class TestPolicies:
    def test_registry_builds_every_policy(self):
        for name in POLICY_NAMES:
            assert make_policy(name, SeededRng(0, "t")).name == name
        with pytest.raises(PolicyError):
            make_policy("least-loaded")

    def test_round_robin_cycles_in_registration_order(self):
        sched = scheduler("round-robin")
        picks = [sched.try_pick() for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_random_is_seed_deterministic(self):
        def picks(seed):
            sim = Simulator()
            sched = FleetScheduler(
                sim, ["a", "b", "c"], make_policy("random", SeededRng(seed, "p"))
            )
            return [sched.try_pick() for _ in range(12)]

        assert picks(5) == picks(5)
        assert picks(5) != picks(6)  # astronomically unlikely to collide

    def test_min_response_time_prefers_fastest_window(self):
        sched = scheduler("min-response-time")
        for seconds, name in ((0.5, "a"), (0.1, "b"), (0.3, "c")):
            sched.begin(name)
            sched.complete(name, seconds)
        assert sched.try_pick() == "b"

    def test_min_response_time_probes_unmeasured_edges_first(self):
        sched = scheduler("min-response-time")
        sched.begin("a")
        sched.complete("a", 0.001)  # blazing fast, but "b"/"c" are unknown
        assert sched.try_pick() == "b"
        sched.begin("b")
        sched.complete("b", 0.2)
        assert sched.try_pick() == "c"

    def test_queue_aware_scales_by_outstanding(self):
        sched = scheduler("queue-aware")
        for name, seconds in (("a", 0.1), ("b", 0.3), ("c", 0.35)):
            sched.begin(name)
            sched.complete(name, seconds)
        # "a" is 3x faster, but stack up requests and its expected wait
        # (mean_rt * (outstanding + 1)) passes "b"'s.
        assert sched.try_pick() == "a"
        sched.begin("a")
        assert sched.try_pick() == "a"  # 0.1 * 2 < 0.3
        sched.begin("a")
        assert sched.try_pick() == "b"  # 0.1 * 3 == 0.3: queue breaks the tie


class TestScheduler:
    def test_validation(self):
        with pytest.raises(PolicyError):
            scheduler(names=())
        with pytest.raises(PolicyError):
            scheduler(names=("a", "a"))
        with pytest.raises(PolicyError):
            scheduler(window=0)
        with pytest.raises(PolicyError):
            scheduler(max_outstanding_per_edge=0)

    def test_window_is_sliding(self):
        sched = scheduler(window=2)
        state = sched.edge("a")
        for seconds in (1.0, 2.0, 3.0):
            sched.begin("a")
            sched.complete("a", seconds)
        assert state.window_values() == [2.0, 3.0]
        assert state.mean_response_seconds() == pytest.approx(2.5)

    def test_admission_control_caps_outstanding(self):
        sched = scheduler(names=("a",), max_outstanding_per_edge=2)
        assert sched.try_pick() == "a"
        sched.begin("a")
        sched.begin("a")
        assert sched.try_pick() is None  # full: back off
        assert sched.sim.metrics.value("fleet_admission_waits_total") == 1
        sched.complete("a", 0.1)
        assert sched.try_pick() == "a"

    def test_fail_marks_dead_and_excludes(self):
        sched = scheduler()
        sched.begin("b")
        sched.fail("b")
        assert not sched.edge("b").alive
        assert sched.edge("b").outstanding == 0
        assert "b" not in {sched.try_pick() for _ in range(6)}
        # dead-with-no-candidates is not an admission wait
        sched2 = scheduler(names=("a",))
        sched2.begin("a")
        sched2.fail("a")
        assert sched2.try_pick() is None
        assert sched2.sim.metrics.value("fleet_admission_waits_total") == 0

    def test_exclusion_is_per_request(self):
        sched = scheduler("round-robin")
        assert sched.try_pick(frozenset({"a", "b"})) == "c"
        assert sched.try_pick(frozenset({"a", "b", "c"})) is None

    def test_mark_alive_revives_and_forgets_stale_window(self):
        sched = scheduler()
        sched.begin("a")
        sched.complete("a", 9.0)
        sched.begin("a")
        sched.fail("a")
        assert not sched.edge("a").alive
        sched.mark_alive("a")
        assert sched.edge("a").alive
        assert sched.edge("a").window_values() == []
        assert sched.any_alive()


class TestFleetTopology:
    def setup_method(self):
        self.sim = Simulator()
        self.topo = Topology(self.sim)
        self.topo.add_edge_host("e0")
        self.topo.add_edge_host("e1")

    def test_concurrent_connections_are_stable_by_identity(self):
        a0, _ = self.topo.connect("alice", "e0")
        a1, _ = self.topo.connect("alice", "e1")  # concurrent, no teardown
        b0, _ = self.topo.connect("bob", "e0")
        assert a0 is not a1 and a0 is not b0
        again, _ = self.topo.connect("alice", "e0")
        assert again is a0  # same pair -> same channel ends

    def test_fail_edge_drops_channels_and_blocks_connect(self):
        self.topo.connect("alice", "e0")
        self.topo.connect("bob", "e0")
        keep, _ = self.topo.connect("alice", "e1")
        assert self.topo.fail_edge("e0") == 2
        assert not self.topo.edge_is_up("e0")
        with pytest.raises(EdgeDown):
            self.topo.connect("alice", "e0")
        assert self.topo.connection("alice", "e0") is None
        assert self.topo.connection("alice", "e1").end_a is keep

    def test_restore_edge_builds_fresh_channels(self):
        old, _ = self.topo.connect("alice", "e0")
        self.topo.fail_edge("e0")
        self.topo.restore_edge("e0")
        fresh, _ = self.topo.connect("alice", "e0")
        assert fresh is not old  # identity change => handshake redone
        assert [entry[1:] for entry in self.topo.outage_log] == [
            ("e0", "fail"), ("e0", "restore")
        ]


class TestDigestHandshake:
    def _query(self, server, topo, client, model, fingerprint=None):
        client_end, edge_end = topo.connect(client, "e0")
        server.serve(edge_end)
        client_end.send(
            protocol.MODEL_QUERY,
            protocol.ModelQueryPayload(
                model_id=model.model_id,
                fingerprint=fingerprint or model.fingerprint(),
                files=model.files(),
            ),
        )
        wait = client_end.recv_kind(protocol.MODEL_STATUS, timeout=5.0)
        topo.sim.run_until(lambda: wait.triggered)
        return wait.value.payload

    def test_status_reflects_store_contents(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_edge_host("e0")
        server = EdgeServer(sim, Device(sim, edge_server_x86()), name="e0")
        model = build_model("tinynet")

        miss = self._query(server, topo, "c0", model)
        assert miss.present is False

        server.store.begin_upload(model.model_id, model.files())
        for file in model.files():
            server.store.receive_file(model.model_id, file)
        server.store.attach_model(model.model_id, model)
        hit = self._query(server, topo, "c1", model)
        assert hit.present is True
        assert hit.server_name == "e0"

        stale = self._query(server, topo, "c2", model, fingerprint="0" * 64)
        assert stale.present is False  # same id, different params digest

    def test_segment_status_names_exactly_the_missing_files(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_edge_host("e0")
        server = EdgeServer(sim, Device(sim, edge_server_x86()), name="e0")
        smallnet = build_model("smallnet")
        _, rear2 = smallnet.split(2)
        _, rear3 = smallnet.split(3)

        # cold store: every file of the manifest is missing
        cold = self._query(server, topo, "c0", rear2)
        assert cold.present is False
        assert cold.missing_files == [f.name for f in rear2.files()]

        # install rear@2; its sibling split shares the parameter blobs,
        # so the answer asks only for the one file actually absent
        server.store.begin_upload(rear2.model_id, rear2.files())
        for file in rear2.files():
            server.store.receive_file(rear2.model_id, file)
        server.store.attach_model(rear2.model_id, rear2)
        sibling = self._query(server, topo, "c1", rear3)
        assert sibling.present is False
        assert sibling.missing_files == [f"{rear3.name}.json"]

        # the installed model itself: present, nothing missing
        warm = self._query(server, topo, "c2", rear2)
        assert warm.present is True
        assert warm.missing_files == []


class TestFleetScenario:
    def test_default_fleet_is_skewed(self):
        specs = default_fleet(3, skew=2.0)
        speeds = [spec.server_speedup for spec in specs]
        assert speeds[0] == 1.0
        assert speeds[-1] == pytest.approx(0.5)
        assert speeds == sorted(speeds, reverse=True)
        with pytest.raises(ValueError):
            default_fleet(0)

    def test_healthy_run_serves_everything_correctly(self):
        scenario = FleetScenario(sessions=6, requests_per_session=2, seed=2)
        report = scenario.run()
        assert report.count == 12
        assert report.all_correct
        assert report.failovers == 0
        # one pre-send per edge that got traffic, handshake hits after
        assert report.handshake_misses <= len(scenario.specs)
        assert sum(row.served for row in report.edges) == 12

    def test_trace_arrivals_and_partial_mode(self):
        scenario = FleetScenario(
            sessions=4,
            requests_per_session=2,
            mode="offload-partial",
            seed=4,
            edges=[EdgeSpec("only")],
        )
        report = scenario.run()
        assert report.count == 8
        assert report.all_correct

    def test_report_is_deterministic_and_serializable(self):
        def run():
            scenario = FleetScenario(sessions=5, requests_per_session=2, seed=9)
            scenario.inject_kill("edge-2", 0.5, revive_at_seconds=2.0)
            report = scenario.run()
            return report.render_markdown(), report.records, report.serving

        assert run() == run()

    def test_scenario_runs_once(self):
        scenario = FleetScenario(sessions=1, requests_per_session=1)
        scenario.run()
        with pytest.raises(RuntimeError):
            scenario.run()

    def test_compare_policies_runs_each(self):
        reports = compare_policies(
            policies=("round-robin", "queue-aware"),
            sessions=3,
            requests_per_session=1,
            seed=3,
        )
        assert set(reports) == {"round-robin", "queue-aware"}
        assert all(r.all_correct for r in reports.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScenario(sessions=0)
        with pytest.raises(ValueError):
            FleetScenario(mode="local")
        scenario = FleetScenario(sessions=1)
        with pytest.raises(KeyError):
            scenario.inject_kill("nope", 1.0)
        with pytest.raises(ValueError):
            scenario.inject_kill("edge-0", 2.0, revive_at_seconds=1.0)


class TestRecordOnceReplay:
    """Work that depends only on the app's script text runs once per text."""

    @staticmethod
    def _seeded_run():
        scenario = FleetScenario(
            sessions=10, requests_per_session=2, seed=5, reply_timeout=1.0
        )
        scenario.inject_kill("edge-0", 0.7, revive_at_seconds=2.0)
        report = scenario.run()
        assert report.count == 20 and report.all_correct
        return scenario, report

    def test_cold_and_warm_memo_render_the_same_bytes(self):
        from repro.obs import to_prometheus_text
        from repro.web import scripts

        for memo in (
            scripts._script_code, scripts._function_segments, scripts._sorted_names
        ):
            memo.cache_clear()
        clear_memos()

        def rendered():
            scenario, report = self._seeded_run()
            return report.render_markdown(), to_prometheus_text(scenario.sim.metrics)

        cold = rendered()
        assert scripts._script_code.cache_info().currsize > 0
        warm = rendered()
        assert cold == warm

    def test_scripts_are_parsed_per_distinct_source_not_per_request(self, monkeypatch):
        import ast
        import builtins
        from collections import Counter

        parsed, compiled = Counter(), Counter()
        real_parse, real_compile = ast.parse, builtins.compile

        def counting_parse(source, *args, **kwargs):
            parsed[source] += 1
            return real_parse(source, *args, **kwargs)

        def counting_compile(source, filename, *args, **kwargs):
            if filename in ("<app-script>", "<snapshot>"):
                compiled[filename, source] += 1
            return real_compile(source, filename, *args, **kwargs)

        import repro.core.snapshot.restore as restore_module

        restores = []
        real_namespace = restore_module._restore_namespace

        def counting_namespace(*args, **kwargs):
            restores.append(1)  # one fresh namespace = one exec of a program
            return real_namespace(*args, **kwargs)

        restore_module._program_code.cache_clear()
        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(builtins, "compile", counting_compile)
        monkeypatch.setattr(restore_module, "_restore_namespace", counting_namespace)
        _scenario, report = self._seeded_run()
        monkeypatch.undo()

        # a memo warmed by an earlier test may leave nothing to parse; what
        # must never happen is one text being analysed twice
        assert all(count == 1 for count in parsed.values()), parsed.most_common(1)
        script_compiles = {
            source: count
            for (filename, source), count in compiled.items()
            if filename == "<app-script>"
        }
        assert all(count == 1 for count in script_compiles.values())
        assert len(parsed) + len(script_compiles) < report.count
        # a snapshot's program is code only (its tensors ride beside it), so
        # it too is compiled once per distinct text — fewer than requests —
        # while restoring still executes a program per snapshot: per request
        program_compiles = {
            source: count
            for (filename, source), count in compiled.items()
            if filename == "<snapshot>"
        }
        assert program_compiles
        assert all(count == 1 for count in program_compiles.values())
        assert len(program_compiles) < report.count
        assert len(restores) >= 2 * report.count

    def test_cursor_wait_dispatches_exactly_what_the_full_scan_did(self, monkeypatch):
        _scenario, report = self._seeded_run()
        by_cursor = (_scenario.sim.dispatched, report.render_markdown())

        def full_scan(sim, processes):
            processes = list(processes)
            sim.run_until(lambda: all(p.triggered for p in processes))

        monkeypatch.setattr(Simulator, "run_until_done", full_scan)
        _scenario, report = self._seeded_run()
        assert (_scenario.sim.dispatched, report.render_markdown()) == by_cursor

    def test_a_failing_session_is_still_reraised_by_run(self):
        scenario = FleetScenario(sessions=3, requests_per_session=1, seed=5)
        real = scenario._interactions_for

        def failing(session_name):
            if session_name == "user-0001":
                raise RuntimeError("session crashed")
            return real(session_name)

        scenario._interactions_for = failing
        with pytest.raises(RuntimeError, match="session crashed"):
            scenario.run()
        assert len(scenario.records) == 2  # the others ran to completion first


@pytest.mark.fleet
class TestFleetAtScale:
    """Saturated fleets: the smallest worlds that still queue at admission
    and fail over under a kill (deselect with -m 'not fleet')."""

    def test_two_thousand_sessions_all_served(self):
        """200 sessions of one request at 400/s: enough to saturate
        admission (604 waits) and spread over all three edges."""
        scenario = FleetScenario(
            sessions=200,
            requests_per_session=1,
            arrival_rate_per_s=400.0,
            seed=1,
        )
        report = scenario.run()
        assert report.count == 200
        assert report.all_correct
        assert report.admission_waits > 0  # 400/s genuinely saturates
        assert {row.name for row in report.edges if row.served} == {
            spec.name for spec in scenario.specs
        }

    def test_kill_at_scale_completes_every_session(self):
        """150 sessions of two requests at 150/s (arrivals over ~1 s), edge-1
        killed at 0.3 s and revived at 0.75 s: 6 failovers, 420 admission
        waits."""
        scenario = FleetScenario(
            sessions=150,
            requests_per_session=2,
            arrival_rate_per_s=150.0,
            seed=2,
            reply_timeout=1.0,
        )
        scenario.inject_kill("edge-1", 0.3, revive_at_seconds=0.75)
        report = scenario.run()
        assert report.count == 300
        assert report.all_correct
        keys = {(r.session, r.request_index) for r in report.records}
        assert len(keys) == 300
        # the small world still exercises the lock: sessions queue at
        # admission, the kill lands mid-arrivals and forces failovers, and
        # every edge serves
        assert report.admission_waits > 0
        assert report.failovers > 0
        last_arrival = max(
            r.issued_at for r in report.records if r.request_index == 0
        )
        assert [at for at, _ in report.kills] == [0.3]
        assert report.kills[0][0] < last_arrival
        assert all(row.served for row in report.edges)
