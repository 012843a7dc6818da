"""Unit tests for generator-based simulated processes."""

import weakref

import pytest

from repro.sim import Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTimeouts:
    def test_process_waits_for_timeout(self, sim):
        log = []

        def proc():
            log.append(("start", sim.now))
            yield sim.timeout(3.0)
            log.append(("end", sim.now))

        sim.spawn(proc())
        sim.run()
        assert log == [("start", 0.0), ("end", 3.0)]

    def test_timeout_carries_value(self, sim):
        result = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            result.append(value)

        sim.spawn(proc())
        sim.run()
        assert result == ["payload"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            for _ in range(3):
                yield sim.timeout(2.0)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [2.0, 4.0, 6.0]


class TestEvents:
    def test_manual_event_wakes_waiter(self, sim):
        gate = sim.event("gate")
        log = []

        def waiter():
            value = yield gate
            log.append((sim.now, value))

        def opener():
            yield sim.timeout(5.0)
            gate.succeed("open")

        sim.spawn(waiter())
        sim.spawn(opener())
        sim.run()
        assert log == [(5.0, "open")]

    def test_waiting_on_already_triggered_event(self, sim):
        gate = sim.event("gate")
        gate.succeed(42)
        got = []

        def proc():
            value = yield gate
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == [42]

    def test_failed_event_raises_in_process(self, sim):
        gate = sim.event("gate")
        caught = []

        def proc():
            try:
                yield gate
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(proc())
        sim.schedule(1.0, lambda: gate.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_event_cannot_trigger_twice(self, sim):
        gate = sim.event()
        gate.succeed(1)
        with pytest.raises(Exception):
            gate.succeed(2)

    def test_process_return_value_propagates(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        results = []

        def parent():
            value = yield sim.spawn(child())
            results.append((sim.now, value))

        sim.spawn(parent())
        sim.run()
        assert results == [(1.0, "done")]

    def test_child_exception_propagates_to_parent(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child failed")

        caught = []

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(parent())
        sim.run()
        assert caught == ["child failed"]

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.spawn(proc())
        sim.run()
        assert process.triggered
        assert process.ok is False
        assert isinstance(process.value, TypeError)


class TestConditions:
    def test_any_of_resumes_on_first(self, sim):
        log = []

        def proc():
            result = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(2.0, "fast")])
            log.append((sim.now, result))

        sim.spawn(proc())
        sim.run()
        assert log == [(2.0, {1: "fast"})]

    def test_all_of_waits_for_every_event(self, sim):
        log = []

        def proc():
            result = yield sim.all_of([sim.timeout(5.0, "slow"), sim.timeout(2.0, "fast")])
            log.append((sim.now, sorted(result.values())))

        sim.spawn(proc())
        sim.run()
        assert log == [(5.0, ["fast", "slow"])]

    def test_empty_all_of_succeeds_immediately(self, sim):
        log = []

        def proc():
            yield sim.all_of([])
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0.0]

    @pytest.mark.parametrize("how", ["any_of", "all_of", "all_of failing"])
    def test_a_fired_condition_holds_none_of_its_members(self, sim, how):
        """A member still pending holds the condition in its callbacks; a
        condition that held its members back would make a cycle with it."""
        condition, members = self._fired(sim, how)
        assert condition.triggered
        assert condition.ok is (how != "all_of failing")
        assert [member() for member in members] == [None, None]

    @staticmethod
    def _fired(sim, how):
        pending = sim.event("never")
        if how == "any_of":
            members = [sim.timeout(1.0, "fast"), pending]
        elif how == "all_of":
            members = [sim.timeout(1.0, "fast"), sim.timeout(2.0, "slow")]
        else:
            failing = sim.event("failing")
            sim.schedule(1.0, failing.fail, RuntimeError("gone"))
            members = [failing, pending]
        condition = getattr(sim, how.split()[0])(members)
        sim.run()
        return condition, [weakref.ref(member) for member in members]


class TestInterrupts:
    def test_interrupt_reaches_process(self, sim):
        log = []

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        process = sim.spawn(proc())
        sim.schedule(3.0, lambda: process.interrupt("handover"))
        sim.run()
        assert log == [(3.0, "handover")]

    def test_unhandled_interrupt_kills_process(self, sim):
        def proc():
            yield sim.timeout(100.0)

        process = sim.spawn(proc())
        sim.schedule(1.0, lambda: process.interrupt())
        sim.run()
        assert process.triggered
        assert process.ok is False

    def test_interrupting_finished_process_raises(self, sim):
        def proc():
            yield sim.timeout(1.0)

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(Exception):
            process.interrupt()

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(2.0)

        process = sim.spawn(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive
