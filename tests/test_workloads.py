"""Tests for interaction traces and multi-client scenarios."""

import pytest

from repro.eval.workloads import (
    Interaction,
    MultiClientScenario,
    contention_study,
    generate_trace,
)
from repro.sim import SeededRng


class TestTraceGeneration:
    def test_trace_starts_with_image_load(self):
        trace = generate_trace(SeededRng(0, "t"), inferences=4)
        assert trace[0].action == "new_image"

    def test_trace_has_requested_inferences(self):
        trace = generate_trace(SeededRng(1, "t"), inferences=5)
        assert sum(1 for i in trace if i.action == "infer") == 5

    def test_times_monotone(self):
        trace = generate_trace(SeededRng(2, "t"), inferences=6)
        times = [interaction.at_seconds for interaction in trace]
        assert times == sorted(times)

    def test_deterministic_for_seed(self):
        a = generate_trace(SeededRng(3, "t"), inferences=4)
        b = generate_trace(SeededRng(3, "t"), inferences=4)
        assert a == b

    def test_zero_inferences_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(SeededRng(0, "t"), inferences=0)


class TestMultiClient:
    def test_two_clients_all_correct(self):
        report = MultiClientScenario("smallnet", num_clients=2).run()
        assert report.count == 6  # 3 inferences each
        assert report.all_correct

    def test_session_cache_used_after_first_request(self):
        report = MultiClientScenario("smallnet", num_clients=1).run()
        kinds = [record.snapshot_kind for record in report.records]
        assert kinds[0] == "full"
        assert all(kind == "delta" for kind in kinds[1:])

    def test_cache_disabled_all_full(self):
        report = MultiClientScenario(
            "smallnet", num_clients=1, session_cache=False
        ).run()
        assert all(record.snapshot_kind == "full" for record in report.records)

    def test_sessions_isolated_per_client(self):
        scenario = MultiClientScenario("smallnet", num_clients=2)
        scenario.run()
        # One cached browser per (client, app) pair.
        assert len(scenario.server._sessions) == 2

    def test_a_failing_client_is_still_reraised_by_run(self):
        scenario = MultiClientScenario("smallnet", num_clients=2)
        real = scenario._client_process

        def failing(client):
            if client is scenario.clients[1]:
                yield scenario.sim.timeout(0.01)
                raise RuntimeError("client crashed")
            yield from real(client)

        scenario._client_process = failing
        with pytest.raises(RuntimeError, match="client crashed"):
            scenario.run()
        assert scenario.report.count == 3  # the other client finished first

    def test_contention_increases_latency(self):
        reports = contention_study("smallnet", (1, 4))
        assert reports[4].mean_latency > reports[1].mean_latency
        assert reports[4].all_correct

    def test_latency_records_consistent(self):
        report = MultiClientScenario("smallnet", num_clients=2).run()
        for record in report.records:
            assert record.completed_at >= record.issued_at
        assert report.max_latency >= report.mean_latency

    def test_custom_trace_respected(self):
        scenario = MultiClientScenario("smallnet", num_clients=1)
        scenario.set_trace(
            0,
            [
                Interaction(0.0, "new_image"),
                Interaction(1.0, "infer"),
                Interaction(30.0, "infer"),
            ],
        )
        report = scenario.run()
        assert report.count == 2
        assert report.records[1].issued_at == pytest.approx(30.0)
