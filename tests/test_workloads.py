"""Interaction scripts and several interactive clients on one edge server.

A one-edge :class:`~repro.fleet.FleetScenario` is the multi-client
simulator: each session replays a script of photo loads and inference
taps, as a real protocol client whose requests contend for the edge's
FIFO browser device.
"""

import pytest

from repro.eval.ablations import contention_study
from repro.fleet import EdgeSpec, FleetScenario


def one_edge(sessions, requests=3, **kwargs):
    return FleetScenario(
        "smallnet",
        edges=[EdgeSpec("edge")],
        sessions=sessions,
        requests_per_session=requests,
        **kwargs,
    )


def script(seed, requests):
    """One session's interactions, as the scenario will replay them."""
    return one_edge(1, requests, seed=seed)._interactions_for("user-0000")


class TestTraceGeneration:
    def test_trace_starts_with_image_load(self):
        assert script(0, 4)[0].action == "new_image"

    def test_trace_has_requested_inferences(self):
        assert sum(1 for i in script(1, 5) if i.action == "infer") == 5

    def test_times_monotone(self):
        times = [interaction.at_seconds for interaction in script(2, 6)]
        assert times == sorted(times)

    def test_deterministic_for_seed(self):
        assert script(3, 4) == script(3, 4)

    def test_zero_inferences_rejected(self):
        with pytest.raises(ValueError):
            one_edge(1, requests=0)


class TestMultiClient:
    def test_two_clients_all_correct(self):
        report = one_edge(2).run()
        assert report.count == 6  # 3 inferences each
        assert report.all_correct

    def test_session_cache_used_after_first_request(self):
        report = one_edge(1).run()
        kinds = [record.snapshot_kind for record in report.records]
        assert kinds == ["full", "delta", "delta"]

    def test_sessions_isolated_per_client(self):
        scenario = one_edge(2)
        scenario.run()
        # One cached browser per (client, app) pair.
        assert len(scenario.servers["edge"]._sessions) == 2

    def test_a_failing_client_is_still_reraised_by_run(self):
        scenario = one_edge(2)
        real = scenario._session_proc

        def failing(index, start_at):
            if index == 1:
                yield scenario.sim.timeout(start_at + 0.01)
                raise RuntimeError("client crashed")
            yield from real(index, start_at)

        scenario._session_proc = failing
        with pytest.raises(RuntimeError, match="client crashed"):
            scenario.run()
        assert len(scenario.records) == 3  # the other client finished first

    def test_contention_increases_latency(self):
        reports = contention_study("smallnet", (1, 4))
        assert reports[4].mean_latency > reports[1].mean_latency
        assert reports[4].all_correct

    def test_latency_records_consistent(self):
        report = one_edge(2).run()
        for record in report.records:
            assert record.completed_at >= record.issued_at
        assert report.latency_quantile(1.0) >= report.mean_latency
