"""Runtime device model: executing layers and snapshots on virtual time.

A :class:`Device` combines a static :class:`~repro.devices.profiles.DeviceProfile`
with a simulator handle.  Work is expressed as *durations* derived from the
analytic cost model; :meth:`Device.execute` turns a duration into a simulated
busy period on the device's single FIFO execution resource (one browser tab
executes one script at a time, like a real JS main thread).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterable, Optional

from repro.devices.profiles import DeviceProfile
from repro.sim import SimEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.cost import LayerCost


class FifoResource:
    """A capacity-1 resource with FIFO waiters (a mutex on virtual time)."""

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: Deque[SimEvent] = deque()

    @property
    def busy(self) -> bool:
        return self._busy

    def acquire(self) -> SimEvent:
        """Returns an event that succeeds once the resource is held."""
        event = self.sim.event(label=f"acquire:{self.name}")
        if not self._busy:
            self._busy = True
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if not self._busy:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._busy = False


class Device:
    """A simulated machine executing DNN layers and snapshot operations."""

    def __init__(self, sim: Simulator, profile: DeviceProfile):
        self.sim = sim
        self.profile = profile
        self.cpu = FifoResource(sim, name=f"cpu:{profile.name}")
        self.busy_seconds = 0.0
        self._queue_wait = sim.metrics.histogram(
            "device_queue_wait_seconds",
            help="time work items waited for the device's FIFO resource",
            device=profile.name,
        )
        self._busy_counter = sim.metrics.counter(
            "device_busy_seconds_total", help="seconds the device was executing",
            device=profile.name,
        )

    @property
    def name(self) -> str:
        return self.profile.name

    # -- analytic durations ---------------------------------------------------
    def layer_seconds(self, cost: "LayerCost") -> float:
        """Predicted wall time for one layer on this device."""
        return self.profile.seconds_for(cost.kind, cost.flops)

    def forward_seconds(self, costs: Iterable["LayerCost"]) -> float:
        """Wall time for a sequence of layers."""
        return sum(self.layer_seconds(cost) for cost in costs)

    def batch_forward_seconds(self, item_seconds: Iterable[float]) -> float:
        """Wall time for one *batched* forward serving several work items.

        The longest item pays full price; every other item pays only the
        profile's marginal fraction of its own solo cost (the batched
        kernels amortize dispatch and weight-matrix reuse).  A batch of
        one therefore costs exactly :meth:`forward_seconds` of that item,
        which keeps single-item serving identical to sequential serving.
        """
        seconds = list(item_seconds)
        if not seconds:
            return 0.0
        longest = max(seconds)
        marginal = self.profile.batch_marginal_fraction
        return longest + marginal * (sum(seconds) - longest)

    def snapshot_capture_seconds(self, size_bytes: int) -> float:
        """Time to serialize ``size_bytes`` of snapshot text."""
        return (
            self.profile.snapshot_fixed_s
            + size_bytes / self.profile.snapshot_serialize_bps
        )

    def snapshot_restore_seconds(self, size_bytes: int) -> float:
        """Time to parse and execute ``size_bytes`` of snapshot text."""
        return (
            self.profile.snapshot_fixed_s
            + size_bytes / self.profile.snapshot_restore_bps
        )

    # -- simulated execution -----------------------------------------------------
    def execute(self, seconds: float, label: str = "work") -> SimEvent:
        """Occupy the device for ``seconds``; returns a completion event.

        Work items queue FIFO behind whatever the device is already doing,
        so e.g. a server busy restoring one client's snapshot delays the
        next client's request — the behaviour multi-tenant ablations need.
        """
        if seconds < 0:
            raise ValueError(f"cannot execute negative work ({seconds!r}s)")
        done = self.sim.event(label=f"{self.name}:{label}")
        requested_at = self.sim.now

        def run(_event: Optional[SimEvent]) -> None:
            self._queue_wait.observe(self.sim.now - requested_at)

            def finish() -> None:
                self.busy_seconds += seconds
                self._busy_counter.inc(seconds)
                self.cpu.release()
                done.succeed(seconds)

            self.sim.schedule(seconds, finish, label=f"{self.name}:{label}:done")

        self.cpu.acquire().add_callback(run)
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.name})"
