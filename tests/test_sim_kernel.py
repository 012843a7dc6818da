"""Unit tests for the discrete-event kernel (clock, queue, loop, rng)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SeededRng, Simulator, SimulationError
from repro.sim.clock import Clock, ClockError
from repro.sim.events import EventQueue
from repro.sim.rng import _CHUNK


def oracle_normal_array(self, shape, scale: float = 1.0) -> np.ndarray:
    """``SeededRng.normal_array`` before array draws were streamed."""
    return self.np.normal(0.0, scale, size=shape).astype(np.float32)


def oracle_uniform_array(
    self, shape, low: float = 0.0, high: float = 1.0
) -> np.ndarray:
    """``SeededRng.uniform_array`` before array draws were streamed."""
    return self.np.uniform(low, high, size=shape).astype(np.float32)


def oracle_image(self, height: int, width: int, channels: int = 3) -> np.ndarray:
    """``SeededRng.image`` before array draws were streamed."""
    return self.np.uniform(0.0, 255.0, size=(height, width, channels)).astype(
        np.float32
    )


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype == np.float32
        and a.shape == b.shape
        and np.array_equal(a.view(np.uint32), b.view(np.uint32))
    )


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            Clock(-1.0)

    def test_advance_to(self):
        clock = Clock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_allowed(self):
        clock = Clock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_backwards_rejected(self):
        clock = Clock(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(1.0)

    def test_advance_by(self):
        clock = Clock(1.0)
        clock.advance_by(0.5)
        assert clock.now == 1.5

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ClockError):
            Clock().advance_by(-0.1)


class TestEventQueue:
    def test_pop_order_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, order.append, ("b",))
        queue.push(1.0, order.append, ("a",))
        queue.push(3.0, order.append, ("c",))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.fire()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.push(1.0, order.append, (name,))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_priority_beats_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, ("normal",), priority=1)
        queue.push(1.0, order.append, ("urgent",), priority=0)
        while queue:
            queue.pop().fire()
        assert order == ["urgent", "normal"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, ("x",))
        event.cancel()
        assert queue.pop() is None
        assert fired == []

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(4.0, lambda: None)
        first = queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0
        first.cancel()
        assert queue.peek_time() == 4.0


    @given(
        pushes=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5]),  # duplicate timestamps
                st.integers(0, 2),  # URGENT / NORMAL / LOW
                st.booleans(),  # cancelled before any pop
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_sorted_by_time_priority_insertion(self, pushes):
        queue = EventQueue()
        live = []
        for index, (time, priority, cancelled) in enumerate(pushes):
            # The payload is an unorderable callable: nothing may compare it.
            event = queue.push(time, lambda: None, (index,), priority=priority)
            if cancelled:
                event.cancel()
            else:
                live.append((time, priority, index))
        expected = sorted(live)
        assert len(queue) == len(expected)
        assert bool(queue) == bool(expected)
        popped = []
        while True:
            assert queue.peek_time() == (
                expected[len(popped)][0] if len(popped) < len(expected) else None
            )
            event = queue.pop()
            if event is None:
                break
            popped.append((event.time, event.priority, event.args[0]))
        assert popped == expected
        assert len(queue) == 0 and not queue


class TestSeededRng:
    """Both views are built on first use, with the values they always had;
    streamed array draws equal the parent's one-shot draw-then-cast."""

    @pytest.mark.parametrize("child", [None, "link/edge-0"])
    def test_same_values_as_eager_construction(self, child):
        rng = SeededRng(11, "root") if child is None else SeededRng(11, "root").child(child)
        name = "root" if child is None else f"root/{child}"
        assert rng.name == name
        mixed = SeededRng._mix(11, name)
        eager_np = np.random.default_rng(mixed)
        eager_py = random.Random(mixed)
        assert "np" not in vars(rng)  # not built until drawn from
        assert "_py" not in vars(rng)

        # scalar methods, in one interleaved sequence on the stdlib stream
        assert rng.uniform(1.0, 3.0) == eager_py.uniform(1.0, 3.0)
        assert "_py" in vars(rng)
        assert rng.expovariate(2.0) == eager_py.expovariate(2.0)
        assert rng.gauss(0.0, 1.0) == eager_py.gauss(0.0, 1.0)
        assert rng.randint(0, 9) == eager_py.randint(0, 9)
        assert rng.random() == eager_py.random()
        assert rng.chance(0.5) == (eager_py.random() < 0.5)
        assert rng.choice("abcdef") == eager_py.choice("abcdef")
        expected = list(range(8))
        eager_py.shuffle(expected)
        assert rng.shuffled(range(8)) == expected
        assert "np" not in vars(rng)  # scalar draws never build it

        # array methods, in sequence on the numpy stream
        assert np.array_equal(
            rng.normal_array((2, 3), scale=0.5),
            eager_np.normal(0.0, 0.5, size=(2, 3)).astype(np.float32),
        )
        assert np.array_equal(
            rng.uniform_array((4,), -1.0, 1.0),
            eager_np.uniform(-1.0, 1.0, size=(4,)).astype(np.float32),
        )
        assert np.array_equal(
            rng.image(2, 3),
            eager_np.uniform(0.0, 255.0, size=(2, 3, 3)).astype(np.float32),
        )
        assert rng.np is rng.np
        assert rng._py is rng._py

    def test_array_draws_never_build_the_stdlib_view(self):
        rng = SeededRng(3, "arrays-only")
        rng.normal_array((5,))
        rng.uniform_array((2, 2))
        rng.image(2, 2)
        assert "_py" not in vars(rng)

    SIZES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]
    SHAPES = SIZES + [(2, 3, 4), (3, _CHUNK // 2 + 5), (0,), (4, 0, 2), (), 7]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_streamed_draws_equal_the_one_shot_oracle(self, seed, shape):
        rng = SeededRng(seed, "stream")
        oracle = SeededRng(seed, "stream")
        for scale in (1.0, 0.01, 0.3):
            assert bit_equal(
                rng.normal_array(shape, scale),
                oracle_normal_array(oracle, shape, scale),
            )
            assert rng.random() == oracle.random()  # interleaved scalar draw
            # the stream sits where the one-shot draw left it
            assert bit_equal(
                rng.normal_array((3,), scale),
                oracle_normal_array(oracle, (3,), scale),
            )
        assert bit_equal(
            rng.uniform_array(shape, -2.0, 5.0),
            oracle_uniform_array(oracle, shape, -2.0, 5.0),
        )
        assert rng.gauss(0.0, 1.0) == oracle.gauss(0.0, 1.0)
        assert bit_equal(rng.uniform_array((3,)), oracle_uniform_array(oracle, (3,)))
        assert bit_equal(rng.image(5, 7), oracle_image(oracle, 5, 7))
        assert bit_equal(rng.normal_array((3,)), oracle_normal_array(oracle, (3,)))

    def test_large_image_equals_the_one_shot_oracle(self):
        # 227 x 227 x 3 = 154,587 values: three chunks
        rng, oracle = SeededRng(9, "img"), SeededRng(9, "img")
        assert bit_equal(rng.image(227, 227), oracle_image(oracle, 227, 227))
        assert bit_equal(rng.normal_array((4,)), oracle_normal_array(oracle, (4,)))


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(2.5, lambda: seen.append(sim.now))
        end = sim.run()
        assert seen == [1.0, 2.5]
        assert end == 2.5

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.0, lambda: None)

    def test_run_until_time_limit(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("early"))
        sim.schedule(5.0, lambda: seen.append("late"))
        sim.run(until=3.0)
        assert seen == ["early"]
        assert sim.now == 3.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_with_until_advances_idle_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, lambda: seen.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("second", 2.0)]

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_condition(self):
        sim = Simulator()
        counter = []
        for i in range(5):
            sim.schedule(float(i), lambda: counter.append(1))
        sim.run_until(lambda: len(counter) >= 3)
        assert len(counter) == 3
        assert sim.now == 2.0

    def test_run_until_condition_idle_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False)

    @staticmethod
    def _sleeper(sim, delay, fail=None):
        yield sim.timeout(delay)
        if fail is not None:
            raise fail
        return delay

    def test_run_until_done_out_of_order_completion(self):
        sim = Simulator()
        delays = [3.0, 1.0, 4.0, 1.0, 2.0]
        processes = [sim.spawn(self._sleeper(sim, d)) for d in delays]
        straggler = sim.spawn(self._sleeper(sim, 9.0))
        assert sim.run_until_done(processes) == 4.0
        assert [p.value for p in processes] == delays
        assert not straggler.triggered

    def test_run_until_done_stops_on_the_event_the_full_scan_would(self):
        def run(wait):
            sim = Simulator()
            processes = [
                sim.spawn(self._sleeper(sim, d)) for d in (0.5, 0.1, 0.5, 0.3)
            ]
            sim.schedule(0.5, lambda: None, label="same-instant bystander")
            wait(sim, processes)
            return sim.dispatched, sim.now

        by_cursor = run(lambda sim, ps: sim.run_until_done(ps))
        by_scan = run(
            lambda sim, ps: sim.run_until(lambda: all(p.triggered for p in ps))
        )
        assert by_cursor == by_scan

    def test_run_until_done_empty_list_returns_at_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run_until_done([]) == 0.0
        assert sim.dispatched == 0

    def test_run_until_done_reraises_after_everyone_finished(self):
        sim = Simulator()
        boom = ValueError("boom")
        processes = [
            sim.spawn(self._sleeper(sim, 2.0)),
            sim.spawn(self._sleeper(sim, 1.0, fail=boom)),
            sim.spawn(self._sleeper(sim, 3.0)),
        ]
        with pytest.raises(ValueError) as caught:
            sim.run_until_done(processes)
        assert caught.value is boom
        assert sim.now == 3.0 and all(p.triggered for p in processes)

    def test_run_until_done_idle_before_done_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until_done([sim.event("never")])
