"""Tests for the campaign's task runner (``repro.exec``)."""

import pytest

import repro.exec
import repro.exec.engine
from repro.eval.scenarios import Testbed
from repro.exec import ExecutionEngine, Task, TaskError
from repro.obs import MetricsRegistry, collect_metrics, to_prometheus_text


def session_probe(model_name="smallnet", bandwidth_mbps=30.0, simulators=1):
    """``simulators`` offloaded inferences, each on a fresh testbed.

    Returns the results and, collected by the task itself, the registries
    of the simulators it built.
    """
    with collect_metrics() as registries:
        results = [
            Testbed(bandwidth_bps=bandwidth_mbps * 1e6).run_offload(
                model_name, wait_for_ack=True
            )
            for _ in range(simulators)
        ]
    return results, list(registries)


def probe_task(key="probe", **kwargs):
    return Task(key, session_probe, kwargs)


def test_package_exports_exactly_what_the_engine_defines():
    defined = {
        name
        for name, value in vars(repro.exec.engine).items()
        if getattr(value, "__module__", None) == "repro.exec.engine"
    }
    assert set(repro.exec.__all__) == defined


class TestEngine:
    def test_duplicate_keys_rejected(self):
        ran = []
        task = Task("a", lambda: ran.append("a"))
        with pytest.raises(TaskError):
            ExecutionEngine().run([task, task])
        assert ran == []  # rejected before anything ran

    def test_serial_run(self):
        engine = ExecutionEngine()
        outcomes = engine.run(
            [probe_task("a"), probe_task("b", bandwidth_mbps=4.0), probe_task("c")]
        )
        assert [o.key for o in outcomes] == ["a", "b", "c"]
        assert [t.key for t in engine.last_run.tasks] == ["a", "b", "c"]
        [[a], _], [[b], _], [[c], _] = (o.payload for o in outcomes)
        assert a.total_seconds == c.total_seconds < b.total_seconds
        assert all(o.wall_seconds > 0 for o in outcomes)

    def test_task_exception_propagates_and_stops_the_run(self):
        class Boom(Exception):
            pass

        def fail(message):
            raise Boom(message)

        ran = []
        with pytest.raises(Boom, match="^kapow$"):
            ExecutionEngine().run(
                [
                    Task("first", lambda: ran.append("first")),
                    Task("boom", fail, {"message": "kapow"}),
                    Task("later", lambda: ran.append("later")),
                ]
            )
        assert ran == ["first"]

    def test_last_run_accounts_for_the_wall_clock(self):
        engine = ExecutionEngine()
        outcomes = engine.run([probe_task("a"), probe_task("b")])
        stats = engine.last_run
        assert [t.wall_seconds for t in stats.tasks] == [
            o.wall_seconds for o in outcomes
        ]
        assert stats.compute_seconds == sum(t.wall_seconds for t in stats.tasks)
        assert 0 < stats.compute_seconds <= stats.wall_seconds

    def test_engine_announces_registries_in_task_order(self):
        """An enclosing collector sees every task's registries exactly once,
        in creation order — no capture, no replay."""
        tasks = [
            probe_task("a", simulators=2),
            probe_task("b", bandwidth_mbps=4.0),
            probe_task("c", simulators=3),
        ]
        with collect_metrics() as registries:
            outcomes = ExecutionEngine().run(tasks)
        per_task = [o.payload[1] for o in outcomes]
        assert [len(found) for found in per_task] == [2, 1, 3]
        expected = [registry for found in per_task for registry in found]
        assert registries == expected  # registries compare by identity
        assert to_prometheus_text(MetricsRegistry.merged(registries)) == (
            to_prometheus_text(MetricsRegistry.merged(expected))
        )
