"""Event records and the time-ordered event queue.

Events are ordered by ``(time, priority, sequence)``: earlier time first,
then lower priority value, then insertion order.  The sequence number makes
the ordering total, which keeps simulations deterministic even when many
events share a timestamp (a very common situation — e.g. an ACK arriving in
the same instant a snapshot transfer completes).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Priorities: NORMAL for almost everything; URGENT for bookkeeping that must
# observe state before same-time application events; LOW for idle work.
URGENT = 0
NORMAL = 1
LOW = 2


@dataclass
class ScheduledEvent:
    """A callback scheduled at a point in virtual time."""

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True

    def fire(self) -> Any:
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__name__", "<fn>")
        return f"ScheduledEvent(t={self.time:.6f}, {name}, {state})"


class EventQueue:
    """A heap of :class:`ScheduledEvent` with deterministic total order.

    Heap entries are ``(time, priority, seq, event)`` tuples, so ``heapq``
    orders them with C tuple comparison; ``seq`` is unique, which decides
    every comparison before it could reach the event.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = NORMAL,
        label: str = "",
    ) -> ScheduledEvent:
        seq = next(self._counter)
        event = ScheduledEvent(
            time=time,
            priority=priority,
            seq=seq,
            callback=callback,
            args=args,
            label=label,
        )
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[ScheduledEvent]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]
