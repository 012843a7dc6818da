"""The simulator event loop.

:class:`Simulator` binds the virtual :class:`~repro.sim.clock.Clock` to the
:class:`~repro.sim.events.EventQueue` and provides the factory methods that
processes and components use to schedule work:

>>> sim = Simulator()
>>> def hello(name):
...     print(f"{sim.now:.1f}: hello {name}")
>>> _ = sim.schedule(2.0, hello, "edge")
>>> sim.run()
2.0: hello edge
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.metrics import MetricsRegistry, announce_registry
from repro.obs.spans import SpanRecorder
from repro.sim.clock import Clock
from repro.sim.events import NORMAL, EventQueue, ScheduledEvent
from repro.sim.process import AllOf, AnyOf, Process, SimEvent, Timeout


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress safely."""


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Parameters
    ----------
    start:
        Initial virtual time in seconds.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after this
        many dispatched events, which turns accidental infinite loops into
        loud failures instead of hangs.
    """

    def __init__(self, start: float = 0.0, max_events: int = 5_000_000):
        self.clock = Clock(start)
        self.queue = EventQueue()
        self.max_events = max_events
        self.dispatched = 0
        #: telemetry for everything running on this simulator; it holds the
        #: clock, not the simulator, so a collector keeping the registry
        #: does not keep the simulator (and all it owns) alive
        clock = self.clock
        self.metrics = MetricsRegistry(clock=lambda: clock.now)
        self.spans = SpanRecorder(clock=lambda: clock.now)
        announce_registry(self.metrics)
        self._dispatched_counter = self.metrics.counter(
            "sim_events_dispatched_total", help="events fired by the kernel loop"
        )
        self._spawned_counter = self.metrics.counter(
            "sim_processes_spawned_total", help="simulated processes started"
        )
        self._wakeup_counter = self.metrics.counter(
            "sim_process_wakeups_total",
            help="process resumptions (start + every wait completion)",
        )

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    # -- scheduling -----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        return self.queue.push(
            self.now + delay, callback, args, priority=priority, label=label
        )

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when!r}, current time is {self.now!r}"
            )
        return self.queue.push(when, callback, args, priority=priority, label=label)

    # -- process / event factories -------------------------------------------
    def spawn(self, generator: Generator, label: str = "") -> Process:
        """Start a simulated process from a generator."""
        self._spawned_counter.inc()
        return Process(self, generator, label=label)

    def event(self, label: str = "") -> SimEvent:
        """Create an untriggered one-shot event."""
        return SimEvent(self, label=label)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds after ``delay`` virtual seconds."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    # -- the loop ---------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single earliest event.  Returns False when idle."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self.dispatched += 1
        self._dispatched_counter.inc()
        if self.dispatched > self.max_events:
            raise SimulationError(
                f"dispatched more than {self.max_events} events; "
                "likely a runaway simulation"
            )
        event.fire()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the final virtual time.  When ``until`` is given and events
        remain beyond it, the clock is advanced exactly to ``until``.
        """
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                return self.now
            self.step()
        if until is not None and until > self.now:
            self.clock.advance_to(until)
        return self.now

    def run_until(self, condition: Callable[[], bool], limit: Optional[float] = None) -> float:
        """Run until ``condition()`` holds (checked after every event)."""
        if condition():
            return self.now
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                raise SimulationError("simulation went idle before condition held")
            if limit is not None and next_time > limit:
                raise SimulationError(
                    f"condition still false at time limit {limit!r}"
                )
            self.step()
            if condition():
                return self.now

    def run_until_done(self, processes: Iterable[SimEvent]) -> float:
        """Run until every given process has finished.

        Re-raises the exception of the first (in list order) process that
        failed.  ``triggered`` never resets, so the condition keeps a
        cursor on the first unfinished process instead of re-scanning the
        list after every event: O(1) amortised per event, and — unlike
        waiting on an :class:`AllOf` — no extra event is scheduled.
        """
        waiting = list(processes)
        cursor = 0

        def all_done() -> bool:
            nonlocal cursor
            while cursor < len(waiting) and waiting[cursor].triggered:
                cursor += 1
            return cursor == len(waiting)

        self.run_until(all_done)
        for process in waiting:
            if process.ok is False:
                raise process.value
        return self.now
