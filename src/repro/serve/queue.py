"""Work items and per-model batch queues for the serving loop.

A :class:`WorkItem` is one offloaded rear-half inference after its snapshot
has been restored: everything the server needs to finish the request (the
browser runtime, the pending event, the virtual execution cost) plus the
accounting the protocol loop reads back once the item completes (queue
wait, per-item execution share, batch size, any handler error).

Items from concurrent protocol loops land in a :class:`BatchQueue` keyed by
model id — only same-model inferences can share a batched forward — and the
:class:`~repro.serve.loop.ServingLoop` dispatcher cuts each queue into FIFO
batches of at most ``max_batch`` items, waiting at most the batch timeout
for company.  Items that carry no batch hint (no model id / feature) go to
the dedicated *solo* queue, cut with ``max_batch=1`` and no timeout, so
unbatchable requests pay queue accounting but never wait for company that
cannot come.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.sim import SimEvent

#: queue key for items that cannot share a batch with anything
SOLO_KEY = "__solo__"


@dataclass
class WorkItem:
    """One enqueued rear-half inference, from restore to reply."""

    sender: str
    request_id: int
    #: the browser runtime the snapshot was restored into
    browser: Any
    #: the pending event whose handlers finish the inference
    event: Any
    #: virtual execution cost of this item alone (analytic cost model)
    exec_seconds: float
    #: model id shared by every item in this batch queue (None = solo)
    model_id: Optional[str] = None
    #: the feature tensor the rear half consumes (None = solo)
    feature: Any = None
    enqueued_at: float = 0.0
    #: absolute virtual time by which this item should complete
    deadline_at: Optional[float] = None
    #: succeeds with the item once its batch has executed, and is None
    #: from then on (an item holding the event whose value it is would be
    #: a cycle); a drained item keeps its failed event
    done: SimEvent = None  # type: ignore[assignment]

    # -- filled in by the serving loop at dispatch / completion -----------
    #: when the dispatcher popped this item into a batch
    formed_at: float = 0.0
    #: enqueue -> batch execution start (forming wait + device FIFO wait)
    queue_seconds: float = 0.0
    #: this item's proportional share of the batch's device time
    exec_share_seconds: float = 0.0
    batch_size: int = 0
    #: the deadline had already passed when the dispatcher cut this item into
    #: a batch — the miss is counted once, at dequeue, not at completion
    dead_on_arrival: bool = False
    #: exception raised by the handler, if any (classified by the server)
    error: Optional[BaseException] = None

    @property
    def batchable(self) -> bool:
        return self.model_id is not None and self.feature is not None

    @property
    def batch_key(self) -> str:
        return self.model_id if self.batchable else SOLO_KEY


@dataclass
class BatchQueue:
    """FIFO of pending work items for one (server, model) pair."""

    key: str
    items: List[WorkItem] = field(default_factory=list)
    #: armed by the dispatcher while it sleeps; succeeded on push
    arrival: Optional[SimEvent] = None

    def push(self, item: WorkItem) -> None:
        self.items.append(item)
        if self.arrival is not None and not self.arrival.triggered:
            self.arrival.succeed(item)

    def pop_prefix(self, count: int) -> List[WorkItem]:
        """Remove and return the oldest ``count`` items (FIFO order)."""
        taken, self.items = self.items[:count], self.items[count:]
        return taken

    def __len__(self) -> int:
        return len(self.items)
