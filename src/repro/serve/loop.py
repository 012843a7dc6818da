"""The event-driven serving core: enqueue, form, dispatch, resume.

:class:`ServingLoop` sits between the per-endpoint protocol loops and the
server's FIFO browser device.  A protocol loop that has restored a snapshot
no longer executes it inline; it :meth:`~ServingLoop.submit`\\ s a
:class:`~repro.serve.queue.WorkItem` and yields on ``item.done`` — a plain
simulator event.  One dispatcher process per batch queue watches arrivals,
cuts a batch when the queue is full or its oldest item has waited out the
timeout, and dispatches each batch as its own simulated process:

* **virtual time** — one ``device.execute`` for the whole batch, priced by
  :meth:`~repro.devices.device.Device.batch_forward_seconds` (the longest
  item at full cost, every other item at the profile's marginal fraction),
  queued FIFO behind whatever the device is doing;
* **real compute** — delegated to the ``compute`` callback the server
  installs: for a real batch, one batched forward
  (``EdgeServer.batch_partial_inference``) fills the inference memo, and
  then every item's handler runs as it would alone, answered from the memo
  with the bits its own forward computes;
* **accounting** — per item: queue wait (enqueue → batch execution start),
  a proportional share of the batch's device time, the batch size, and a
  deadline-miss flag; per server: the ``server_queue_depth`` gauge and the
  batch-size / queue-wait histograms.

Dispatchers never block on execution: a batch is handed to the device and
the dispatcher immediately goes back to forming, so the batch timeout
bound holds exactly — no item waits in the queue past its timeout (the
device's FIFO backlog is accounted as queue wait, not forming wait).

Determinism: dispatcher wake-ups, batch cuts, and completions are all
scheduled through the simulator's event queue at the current virtual
instant, so same-seed runs — including runs with mid-run edge kills, which
:meth:`ServingLoop.drain` folds into the ordinary error path — replay
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.devices.device import Device
from repro.serve.queue import SOLO_KEY, BatchQueue, WorkItem
from repro.sim import Simulator


#: tolerance for "the timeout has expired" on the float virtual clock
_EPS = 1e-9


class FormerError(RuntimeError):
    """Raised for invalid serving-loop knobs."""


class ServingDropped(RuntimeError):
    """A queued work item was dropped (server restart) before executing."""


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one server's continuous-batching loop."""

    #: most work items one batched forward may serve
    max_batch: int = 4
    #: longest an item may wait in the queue for a fuller batch, seconds
    batch_timeout_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise FormerError("max_batch must be >= 1")
        if self.batch_timeout_s < 0:
            raise FormerError("batch_timeout_s must be >= 0")


class ServingLoop:
    """Per-server continuous batching over the FIFO browser device."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        server_name: str,
        config: ServingConfig,
        *,
        compute: Optional[Callable[[List[WorkItem]], None]] = None,
    ):
        self.sim = sim
        self.device = device
        self.server_name = server_name
        self.config = config
        #: runs the real handlers for a dispatched batch; None = virtual
        #: time only (the forming property tests drive the loop bare)
        self.compute = compute
        self._queues: Dict[str, BatchQueue] = {}
        #: deterministic aggregates for reports (no registry scraping)
        self.stats: Dict[str, float] = {
            "batches": 0,
            "items": 0,
            "batched_items": 0,
            "max_batch": 0,
            "queue_wait_seconds": 0.0,
            "deadline_misses": 0,
            "dead_on_arrival": 0,
        }
        metrics = sim.metrics
        self._depth_gauge = metrics.gauge(
            "server_queue_depth",
            help="work items queued in the serving loop",
            server=server_name,
        )
        self._queue_wait_hist = metrics.histogram(
            "server_batch_queue_wait_seconds",
            help="enqueue-to-batch-start wait per served work item",
            server=server_name,
        )
        self._batch_items_hist = metrics.histogram(
            "server_serving_batch_items",
            help="work items per serving-loop dispatch (including solo)",
            server=server_name,
        )
        self._deadline_counter = metrics.counter(
            "server_deadline_misses_total",
            help="work items completing past their deadline",
            server=server_name,
        )
        self._doa_counter = metrics.counter(
            "server_deadline_dead_on_arrival_total",
            help="work items whose deadline had passed before dispatch",
            server=server_name,
        )

    # -- intake ---------------------------------------------------------------
    def submit(
        self,
        *,
        sender: str,
        request_id: int,
        browser: Any,
        event: Any,
        exec_seconds: float,
        model_id: Optional[str] = None,
        feature: Any = None,
        deadline_s: Optional[float] = None,
    ) -> WorkItem:
        """Enqueue one restored request; returns the item to wait on.

        ``deadline_s`` is this item's completion SLO, enqueue-relative (it
        rides in on the snapshot); None disables deadline accounting.
        """
        now = self.sim.now
        item = WorkItem(
            sender=sender,
            request_id=request_id,
            browser=browser,
            event=event,
            exec_seconds=exec_seconds,
            model_id=model_id,
            feature=feature,
            enqueued_at=now,
            deadline_at=(now + deadline_s if deadline_s is not None else None),
            done=self.sim.event(label=f"serve-done:{sender}:{request_id}"),
        )
        queue = self._queue_for(item.batch_key)
        queue.push(item)
        self._depth_gauge.set(self.depth())
        return item

    def depth(self) -> int:
        """Work items currently queued (not yet cut into a batch)."""
        return sum(len(queue) for queue in self._queues.values())

    # -- fault handling -------------------------------------------------------
    def drain(self, exc: BaseException) -> int:
        """Fail every *queued* item (server restart drops its queues).

        Items already cut into an executing batch are past the queue and
        complete normally, exactly like the sequential path's in-flight
        request surviving a restart.  Returns the number dropped.
        """
        dropped = 0
        for queue in self._queues.values():
            for item in queue.pop_prefix(len(queue)):
                item.done.fail(exc)
                dropped += 1
        self._depth_gauge.set(0)
        return dropped

    # -- dispatching ----------------------------------------------------------
    def _queue_for(self, key: str) -> BatchQueue:
        queue = self._queues.get(key)
        if queue is None:
            queue = BatchQueue(key=key)
            self._queues[key] = queue
            if key == SOLO_KEY:
                # A solo item can have no batch-mates: cut it at once.
                max_batch, timeout_s = 1, 0.0
            else:
                max_batch = self.config.max_batch
                timeout_s = self.config.batch_timeout_s
            self.sim.spawn(
                self._dispatcher(queue, max_batch, timeout_s),
                label=f"serve-dispatch:{self.server_name}:{key}",
            )
        return queue

    def _dispatcher(self, queue: BatchQueue, max_batch: int, timeout_s: float):
        """Cut FIFO prefixes of at most ``max_batch`` items.

        A batch is cut once the queue holds ``max_batch`` items or its
        oldest item has waited ``timeout_s``: under light load the timeout
        bounds added latency, under heavy load the size cap keeps batches
        forming back-to-back.
        """
        while True:
            if not queue.items:
                arrival = self.sim.event(
                    label=f"serve-arrival:{self.server_name}:{queue.key}"
                )
                queue.arrival = arrival
                yield arrival
                queue.arrival = None
                continue
            wait = 0.0
            if len(queue.items) < max_batch:
                wait = timeout_s - (self.sim.now - queue.items[0].enqueued_at)
            if wait > _EPS:
                # Sleep until the timeout expires or more work arrives —
                # whichever is first re-evaluates the decision.
                arrival = self.sim.event(
                    label=f"serve-arrival:{self.server_name}:{queue.key}"
                )
                queue.arrival = arrival
                yield self.sim.any_of([self.sim.timeout(wait), arrival])
                queue.arrival = None
                continue
            batch = queue.pop_prefix(max_batch)
            self._depth_gauge.set(self.depth())
            for item in batch:
                item.formed_at = self.sim.now
                item.batch_size = len(batch)
                if (
                    item.deadline_at is not None
                    and self.sim.now > item.deadline_at
                ):
                    # Dead on arrival: the deadline passed while the item
                    # sat in the queue.  Count the miss here, once — the
                    # completion check below would otherwise re-count it —
                    # and flag the item so the reply can say the result
                    # was already stale when work began.  The item still
                    # executes: a late answer beats none.
                    item.dead_on_arrival = True
                    self.stats["deadline_misses"] += 1
                    self.stats["dead_on_arrival"] += 1
                    self._deadline_counter.inc()
                    self._doa_counter.inc()
            # Hand the batch to the device and go straight back to
            # forming: the device FIFO serializes executions, and the
            # batch timeout stays a hard bound on forming wait.
            self.sim.spawn(
                self._run_batch(batch),
                label=(
                    f"serve-batch:{self.server_name}:{queue.key}"
                    f":{len(batch)}"
                ),
            )

    def _run_batch(self, batch: List[WorkItem]):
        per_item = [item.exec_seconds for item in batch]
        batch_seconds = self.device.batch_forward_seconds(per_item)
        yield self.device.execute(batch_seconds, label="batch-dnn")
        completed_at = self.sim.now
        started_at = completed_at - batch_seconds
        total = sum(per_item)
        if self.compute is not None:
            self.compute(batch)
        self.stats["batches"] += 1
        self.stats["items"] += len(batch)
        if len(batch) > 1:
            self.stats["batched_items"] += len(batch)
        self.stats["max_batch"] = max(self.stats["max_batch"], len(batch))
        self._batch_items_hist.observe(float(len(batch)))
        for item in batch:
            item.queue_seconds = max(0.0, started_at - item.enqueued_at)
            item.exec_share_seconds = (
                batch_seconds * (item.exec_seconds / total)
                if total > 0.0
                else batch_seconds / len(batch)
            )
            self.stats["queue_wait_seconds"] += item.queue_seconds
            self._queue_wait_hist.observe(item.queue_seconds)
            if (
                not item.dead_on_arrival
                and item.deadline_at is not None
                and completed_at > item.deadline_at
            ):
                self.stats["deadline_misses"] += 1
                self._deadline_counter.inc()
            done, item.done = item.done, None  # see WorkItem.done
            done.succeed(item)
