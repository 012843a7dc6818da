"""Fault-injection suite: edges die mid-session at chosen protocol points.

Each test runs the same seeded workload twice: once healthy (to locate the
exact virtual-time window of the phase under attack from the per-request
phase durations — everything is deterministic, so the windows replay
exactly), then again with the kill injected inside that window.  The
invariants, whichever point the edge dies at:

* the scheduler detects the death through the client's reply timeout (or
  the refused reconnect) and fails the work over to the next-best edge;
* no admitted request is dropped — the report holds every (session,
  request) pair — and none is applied twice on the client;
* the inference *results* are bitwise identical to a healthy run: same
  label and the exact same confidence float for every request.
"""

import pytest

from repro.fleet import EdgeSpec, FleetScenario
from repro.netsim import NetemProfile
from repro.nn.zoo import build_model

#: slow enough that transfer phases are wide windows to aim kills into
SLOW = NetemProfile(bandwidth_bps=4e6, latency_s=0.002)


def two_edges():
    return [EdgeSpec("edge-0", profile=SLOW), EdgeSpec("edge-1", profile=SLOW)]


def make_scenario(**overrides):
    kwargs = dict(
        edges=two_edges(),
        sessions=1,
        requests_per_session=1,
        seed=11,
        reply_timeout=2.0,
    )
    kwargs.update(overrides)
    return FleetScenario(**kwargs)


def result_fingerprint(report):
    """Everything the user saw, keyed by (session, request index)."""
    return {
        (r.session, r.request_index): (r.result_label, r.result_score)
        for r in report.records
    }


def assert_conservation(report, expected_requests):
    """Every request served exactly once, none dropped or double-counted."""
    keys = [(r.session, r.request_index) for r in report.records]
    assert len(keys) == len(set(keys)) == expected_requests
    assert sum(row.served for row in report.edges) == expected_requests
    assert report.all_correct


class TestKillDuringUpload:
    """The edge dies while the first snapshot + model upload is in flight.

    The model files ride along with the snapshot (pre-send had no time to
    finish), so this is the paper's worst case: the server never saw the
    request, the client's reply timer is the only detector.
    """

    def test_failover_reruns_presend_on_fresh_edge(self):
        healthy = make_scenario().run()
        rec = healthy.records[0]
        assert rec.edge == "edge-0"
        assert rec.phases.transfer_to_server > 0.1  # a real window

        scenario = make_scenario()
        kill_at = rec.issued_at + rec.phases.transfer_to_server / 2
        scenario.inject_kill("edge-0", kill_at)
        report = scenario.run()

        assert_conservation(report, 1)
        survivor = report.records[0]
        assert survivor.edge == "edge-1"
        assert survivor.failovers == 1
        assert report.handshake_misses == 2  # upload re-ran on edge-1
        # the reply timeout is visible in the latency, but bounded by it
        assert survivor.latency_seconds > scenario.reply_timeout
        assert survivor.latency_seconds < scenario.reply_timeout + 2 * (
            rec.latency_seconds + 0.1
        )
        assert result_fingerprint(report) == result_fingerprint(healthy)

    def test_handshake_hit_skips_reupload_when_store_survives(self):
        # Prime edge-1 with traffic first (two sessions spread out), then
        # kill edge-0 mid-upload: the failover lands on an edge that
        # already holds the model, so the digest handshake *hits* and only
        # the snapshot is retransmitted.
        def scenario():
            return make_scenario(sessions=3, requests_per_session=1, seed=29)

        healthy = scenario().run()
        by_edge = {}
        for rec in healthy.records:
            by_edge.setdefault(rec.edge, []).append(rec)
        assert set(by_edge) == {"edge-0", "edge-1"}  # both saw traffic
        victim = max(by_edge["edge-0"], key=lambda r: r.issued_at)

        attacked = scenario()
        attacked.inject_kill(
            "edge-0",
            victim.issued_at + victim.phases.transfer_to_server / 2,
        )
        report = attacked.run()
        assert_conservation(report, 3)
        assert report.failovers >= 1
        # no third upload: edge-1's store already matched the fingerprint
        assert report.handshake_misses == healthy.handshake_misses
        assert result_fingerprint(report) == result_fingerprint(healthy)


class TestKillBetweenRounds:
    """The edge dies while the user thinks, between partial-inference rounds.

    Nothing is in flight: the next round discovers the corpse at connect
    time (the dropped channel refuses), so failover is immediate — no
    reply-timeout penalty at all.
    """

    def test_remaining_rounds_move_without_timeout_penalty(self):
        config = dict(
            mode="offload-partial",
            requests_per_session=3,
            mean_think_seconds=1.5,
            seed=12,  # draws a real think pause between rounds 0 and 1
        )
        healthy = make_scenario(**config).run()
        assert [r.request_index for r in healthy.records] == [0, 1, 2]
        first, second = healthy.records[0], healthy.records[1]
        gap = second.issued_at - first.completed_at
        assert gap > 0.2  # a real think-time window to kill inside

        scenario = make_scenario(**config)
        scenario.inject_kill("edge-0", first.completed_at + gap / 2)
        report = scenario.run()

        assert_conservation(report, 3)
        assert report.records[0].edge == "edge-0"
        for rec in report.records[1:]:
            assert rec.edge == "edge-1"
            # EdgeDown at connect, not a reply timeout: latency stays far
            # below the timeout-detection path
            assert rec.latency_seconds < scenario.reply_timeout
        assert result_fingerprint(report) == result_fingerprint(healthy)

    def test_revived_edge_rejoins_the_fleet(self):
        config = dict(
            requests_per_session=4,
            mean_think_seconds=1.5,
            policy="round-robin",
        )
        healthy = make_scenario(**config).run()
        first = healthy.records[0]
        scenario = make_scenario(**config)
        kill_at = first.completed_at + 0.05
        scenario.inject_kill("edge-0", kill_at, revive_at_seconds=kill_at + 1.0)
        report = scenario.run()
        assert_conservation(report, 4)
        # after revival the round-robin rotation reaches edge-0 again
        assert any(
            r.edge == "edge-0" and r.issued_at > kill_at + 1.0
            for r in report.records
        )
        assert result_fingerprint(report) == result_fingerprint(healthy)


class TestKillMidReply:
    """The edge dies while the *result delta* is on the wire back.

    The server executed the request; the client never hears about it.  The
    reply timer fires, the request re-runs on the next edge, and the client
    applies exactly one result — the at-most-once contract is client-side
    too.
    """

    def test_result_applied_once_and_identical(self):
        healthy = make_scenario().run()
        rec = healthy.records[0]
        assert rec.phases.transfer_to_client > 0.001

        scenario = make_scenario()
        # the reply is on the wire until the client's delta restore starts,
        # that phase's length before completion — aim for the middle of that flight
        delivered_at = rec.completed_at - rec.phases.snapshot_restore_client
        kill_at = delivered_at - rec.phases.transfer_to_client / 2
        scenario.inject_kill("edge-0", kill_at)
        report = scenario.run()

        assert_conservation(report, 1)
        survivor = report.records[0]
        assert survivor.edge == "edge-1"
        assert survivor.failovers == 1
        # edge-0 DID execute before dying (its device accrued busy time);
        # the client still applied exactly one result.
        edge0 = next(row for row in report.edges if row.name == "edge-0")
        assert edge0.busy_seconds > 0
        assert edge0.served == 0  # never fed the response-time window
        assert result_fingerprint(report) == result_fingerprint(healthy)


class TestKillUnderEvictionPressure:
    """Cold kills landing on an edge whose cache is thrashing.

    Two tenants (the same net split at layers 2 and 3) share ~137 KB of
    parameter blobs; the budget fits either rear half alone but not both,
    so each edge's store evicts continuously.  A cold kill then lands on
    an edge that has *just* demoted a tenant: the revived store is empty,
    the client's handshake state is stale, and every recovery path —
    refusal retry, segment-level re-upload, cross-tenant dedup — runs in
    one scenario.  Results must still be bitwise identical to the healthy
    run, and the re-upload must send only the missing segments.
    """

    #: fits one rear half (138 903 B) but not the union (140 075 B)
    BUDGET = 139_500

    def make(self, **overrides):
        kwargs = dict(
            edges=[
                EdgeSpec(
                    "edge-0", profile=SLOW, memory_budget_bytes=self.BUDGET
                ),
                EdgeSpec(
                    "edge-1", profile=SLOW, memory_budget_bytes=self.BUDGET
                ),
            ],
            sessions=6,
            requests_per_session=2,
            mode="offload-partial",
            tenants=["smallnet:2", "smallnet:3"],
            seed=23,
            reply_timeout=2.0,
        )
        kwargs.update(overrides)
        return FleetScenario(**kwargs)

    def attacked_run(self, kill_at, **overrides):
        scenario = self.make(**overrides)
        scenario.inject_kill(
            "edge-0", kill_at, revive_at_seconds=kill_at + 1.0, cold=True
        )
        return scenario.run()

    def test_cold_kill_on_thrashing_edge_keeps_results_identical(self):
        healthy = self.make().run()
        assert healthy.all_correct
        # the budget really thrashes: both edges evicted during the run
        assert all(row.store_evictions > 0 for row in healthy.edges)
        assert healthy.presend["bytes_deduped"] > 0
        # aim the kill mid-upload of a late edge-0 request — by then the
        # edge has served both tenants and evicted at least once
        victim = [r for r in healthy.records if r.edge == "edge-0"][2]
        kill_at = victim.issued_at + victim.phases.transfer_to_server / 2

        report = self.attacked_run(kill_at)
        assert_conservation(report, 12)
        assert report.failovers >= 1
        assert all(row.store_evictions > 0 for row in report.edges)
        # every edge's resident set stayed under the budget at run end
        assert all(
            row.store_resident_bytes <= self.BUDGET for row in report.edges
        )
        assert result_fingerprint(report) == result_fingerprint(healthy)

    def test_reupload_sends_only_missing_segments(self):
        healthy = self.make().run()
        victim = [r for r in healthy.records if r.edge == "edge-0"][2]
        kill_at = victim.issued_at + victim.phases.transfer_to_server / 2

        report = self.attacked_run(kill_at)
        assert result_fingerprint(report) == result_fingerprint(healthy)
        # a whole-model-or-nothing handshake would pay a full rear half on
        # every post-eviction and post-kill miss; the segment handshake
        # ships only what the store actually lacks.
        assert report.presend["bytes_deduped"] > 0
        smallnet = build_model("smallnet")
        rear_half = min(smallnet.split(k)[1].total_bytes for k in (2, 3))
        assert report.upload_bytes < report.handshake_misses * rear_half

    def test_attacked_run_replays_bitwise(self):
        healthy = self.make().run()
        victim = [r for r in healthy.records if r.edge == "edge-0"][2]
        kill_at = victim.issued_at + victim.phases.transfer_to_server / 2
        first = self.attacked_run(kill_at)
        second = self.attacked_run(kill_at)
        assert first.render_markdown() == second.render_markdown()
        assert first.records == second.records
        assert first.serving == second.serving


class TestArrivalWhileTheOnlyEdgeIsDown:
    """A session's first request finds the fleet dead and waits it out.

    Picking, attaching and waiting for a revival are part of the request:
    the user clicked at arrival, so the wait belongs in its latency.
    """

    def test_first_request_latency_counts_the_outage(self):
        config = dict(edges=[EdgeSpec("edge-0", profile=SLOW)])
        arrival = make_scenario(**config).run().records[0].issued_at
        revive_at = arrival + 1.0
        scenario = make_scenario(**config)
        scenario.inject_kill("edge-0", arrival / 2, revive_at_seconds=revive_at)
        report = scenario.run()
        assert_conservation(report, 1)
        first = report.records[0]
        assert first.issued_at == arrival
        assert first.latency_seconds >= revive_at - arrival
        # the refused connect is a counted failover, not a silent retry
        assert first.failovers == 1
        assert report.failovers == 1


class TestKillWholeFleetEventually:
    def test_every_edge_dead_raises_loudly(self):
        scenario = make_scenario()
        # both edges die while the only request's upload is in flight
        scenario.inject_kill("edge-0", 0.2)
        scenario.inject_kill("edge-1", 0.25)
        from repro.fleet import NoEdgeAvailable

        with pytest.raises(NoEdgeAvailable):
            scenario.run()

    def test_bounded_p99_under_mid_run_kill(self):
        # The ISSUE's bench claim in miniature: a mid-run kill completes
        # every session with p99 bounded by timeout + a healthy round.
        def scenario():
            return make_scenario(
                sessions=8, requests_per_session=2, seed=17, reply_timeout=1.0
            )

        healthy = scenario().run()
        attacked = scenario()
        attacked.inject_kill("edge-0", healthy.makespan_seconds / 3)
        report = attacked.run()
        assert_conservation(report, 16)
        bound = (
            attacked.reply_timeout
            + 2 * max(r.latency_seconds for r in healthy.records)
            + 0.5
        )
        assert report.p99_latency < bound
        assert result_fingerprint(report) == result_fingerprint(healthy)
