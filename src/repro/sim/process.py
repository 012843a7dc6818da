"""Generator-based simulated processes.

A process is a Python generator that yields *waitable events*:

``Timeout(3.0)``
    resume after 3 virtual seconds,
``SimEvent``
    resume when someone calls :meth:`SimEvent.succeed` (or ``fail``),
``AnyOf([...])`` / ``AllOf([...])``
    resume when any / all of the child events have triggered,
``Process``
    resume when the child process returns (processes are themselves events).

This is a deliberately small subset of the SimPy model: enough to express
the paper's protocols (a client agent waiting for an ACK while a user event
may arrive first, a server agent serving snapshot requests, a VM synthesis
pipeline) without pulling in a dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class ProcessDied(RuntimeError):
    """Raised when interacting with a process that already terminated."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot event that processes can wait on.

    The event is *triggered* once ``succeed`` or ``fail`` is called; waiters
    registered before or after triggering are resumed exactly once each.
    """

    def __init__(self, sim: "Simulator", label: str = ""):
        self.sim = sim
        self.label = label
        self.triggered = False
        self.ok: Optional[bool] = None
        self.value: Any = None
        self._callbacks: list[Callable[["SimEvent"], None]] = []

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._trigger(ok=False, value=exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise ProcessDied(f"event {self.label or self!r} already triggered")
        self.triggered = True
        self.ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            # Deliver on the event queue at the current instant so that
            # same-time resumptions interleave deterministically.
            self.sim.schedule(0.0, callback, self, label=f"resume:{self.label}")

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        if self.triggered:
            self.sim.schedule(0.0, callback, self, label=f"resume:{self.label}")
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.label!r} {state}>"


class Timeout(SimEvent):
    """An event that succeeds after a fixed virtual delay."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(sim, label=f"timeout({delay})")
        self.delay = delay
        sim.schedule(delay, self.succeed, value, label=self.label)


class _Condition(SimEvent):
    """Base for AnyOf / AllOf composite events."""

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], label: str):
        super().__init__(sim, label=label)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._child_triggered)

    def _child_triggered(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event.ok is False:
            self.fail(event.value)
        elif self._satisfied():
            self.succeed(self._collect())
        else:
            return
        # Fired: a member still pending keeps this condition in its
        # callbacks, so holding the members back would make a cycle that
        # keeps both (and whatever their values hold) until the cyclic
        # collector runs.  Its callback still runs, and returns above.
        self.events = []

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            index: event.value
            for index, event in enumerate(self.events)
            if event.triggered and event.ok
        }


class AnyOf(_Condition):
    """Succeeds as soon as any child event succeeds."""

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, events, label="any_of")

    def _satisfied(self) -> bool:
        return any(event.triggered and event.ok for event in self.events)


class AllOf(_Condition):
    """Succeeds once every child event has succeeded."""

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, events, label="all_of")

    def _satisfied(self) -> bool:
        return all(event.triggered and event.ok for event in self.events)


class Process(SimEvent):
    """A running simulated process wrapping a generator.

    The process is itself a :class:`SimEvent` that succeeds with the
    generator's return value (or fails with its uncaught exception), so
    processes can wait on each other.
    """

    def __init__(self, sim: "Simulator", generator: Generator, label: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim, label=label or getattr(generator, "__name__", "proc"))
        self._generator = generator
        # Kick off on the queue so construction order does not matter.
        sim.schedule(0.0, self._resume, None, label=f"start:{self.label}")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.triggered:
            raise ProcessDied(f"cannot interrupt finished process {self.label!r}")
        self.sim.schedule(
            0.0, self._throw, Interrupt(cause), label=f"interrupt:{self.label}"
        )

    # -- internals ---------------------------------------------------------
    def _resume(self, event: Optional[SimEvent]) -> None:
        if self.triggered:
            return
        self.sim._wakeup_counter.inc()
        if event is not None and event.ok is False:
            self._step(lambda: self._generator.throw(event.value))
        else:
            value = event.value if event is not None else None
            self._step(lambda: self._generator.send(value))

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._step(lambda: self._generator.throw(exc))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process as a failure.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, SimEvent):
            self.fail(
                TypeError(
                    f"process {self.label!r} yielded {target!r}; "
                    "processes must yield SimEvent instances"
                )
            )
            return
        # Only the event holds the process it resumes, not the other way
        # round: a process parked on an event nothing will trigger goes
        # when that event does.
        target.add_callback(self._resume)
