"""Point-to-point simulated links with netem-style shaping.

A :class:`Link` is unidirectional.  Transmissions serialize FIFO: a message
must wait for the tail of the previous transmission before its own bits go on
the wire, exactly as a token-bucket-shaped interface behaves.  Delivery time
is therefore::

    start    = max(now, busy_until)
    tx_time  = (size_bytes * 8) / bandwidth_bps
    deliver  = start + tx_time + latency (+ jitter)

The paper shapes its Ethernet to 30 Mbps with ``netem`` to emulate Wi-Fi;
:class:`NetemProfile` captures that configuration (rate, delay, jitter,
loss) and can be changed at runtime to model varying network status — the
signal the partition optimizer consumes.

A link counts what it carries and keeps no per-message log: a delivered
message lives only as long as its receiver holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.sim import SeededRng, SimEvent, Simulator
from repro.netsim.message import Message


class LinkDown(RuntimeError):
    """Raised (as an event failure) when sending over a downed link."""


@dataclass(frozen=True)
class NetemProfile:
    """Shaping parameters, mirroring a ``tc netem`` + rate-limit setup."""

    bandwidth_bps: float = 30e6  # paper: capped under 30 Mbps
    latency_s: float = 0.001  # one-way propagation delay
    jitter_s: float = 0.0
    loss: float = 0.0  # probability a message is silently dropped

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")

    def with_bandwidth(self, bandwidth_bps: float) -> "NetemProfile":
        return replace(self, bandwidth_bps=bandwidth_bps)

    def transfer_seconds(self, size_bytes: int) -> float:
        """Pure serialization + propagation time for one message."""
        return (size_bytes * 8.0) / self.bandwidth_bps + self.latency_s

    @classmethod
    def wifi_30mbps(cls) -> "NetemProfile":
        """The paper's emulated Wi-Fi: 30 Mbps, ~1 ms one-way delay."""
        return cls(bandwidth_bps=30e6, latency_s=0.001)

    @classmethod
    def lan_1gbps(cls) -> "NetemProfile":
        return cls(bandwidth_bps=1e9, latency_s=0.0002)

    @classmethod
    def cellular_lte(cls) -> "NetemProfile":
        """A plausible LTE uplink for ablations: 10 Mbps, 25 ms delay."""
        return cls(bandwidth_bps=10e6, latency_s=0.025, jitter_s=0.005)


class Link:
    """A unidirectional FIFO link on the virtual clock."""

    def __init__(
        self,
        sim: Simulator,
        profile: NetemProfile,
        name: str = "link",
        rng: Optional[SeededRng] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.rng = rng or SeededRng(0, f"link/{name}")
        self.up = True
        self._busy_until = 0.0
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_sent = 0
        metrics = sim.metrics
        self._bytes_counter = metrics.counter(
            "net_bytes_sent_total", help="payload bytes put on the wire",
            link=name,
        )
        self._delivered_counter = metrics.counter(
            "net_messages_delivered_total", help="messages delivered", link=name
        )
        self._dropped_counter = metrics.counter(
            "net_messages_dropped_total",
            help="messages lost to loss or link-down",
            link=name,
        )

    # -- dynamic reconfiguration ------------------------------------------
    def set_profile(self, profile: NetemProfile) -> None:
        """Apply a new shaping profile to future transmissions."""
        self.profile = profile

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        self.profile = self.profile.with_bandwidth(bandwidth_bps)

    def go_down(self) -> None:
        self.up = False

    def go_up(self) -> None:
        self.up = True

    # -- state ---------------------------------------------------------------
    @property
    def busy_until(self) -> float:
        return self._busy_until

    def queueing_delay(self) -> float:
        """How long a new message would wait before its bits hit the wire."""
        return max(0.0, self._busy_until - self.sim.now)

    def estimated_transfer_seconds(self, size_bytes: int) -> float:
        """Queueing + serialization + propagation estimate for planning."""
        return self.queueing_delay() + self.profile.transfer_seconds(size_bytes)

    # -- transmission -----------------------------------------------------------
    def transmit(
        self,
        message: Message,
        on_deliver: Callable[[Message], None],
    ) -> SimEvent:
        """Send a message; ``on_deliver`` runs at delivery time.

        Returns a :class:`SimEvent` that succeeds with the message at the
        moment of delivery, fails with :class:`LinkDown` if the link is down,
        and (for lossy profiles) fails with :class:`LinkDown` when the
        message is dropped, so senders can model retransmission.
        """
        done = self.sim.event(label=f"tx:{self.name}:{message.kind}")
        if not self.up:
            done.fail(LinkDown(f"link {self.name} is down"))
            return done
        if self.profile.loss and self.rng.chance(self.profile.loss):
            self.dropped_count += 1
            self._dropped_counter.inc()
            # Bits still occupy the wire before being lost downstream.
            self._occupy(message.size_bytes)
            done.fail(LinkDown(f"message {message.msg_id} lost on {self.name}"))
            return done

        message.sent_at = self.sim.now
        arrival = self._occupy(message.size_bytes) + self.profile.latency_s
        if self.profile.jitter_s:
            arrival += self.rng.uniform(0.0, self.profile.jitter_s)
        self.bytes_sent += message.size_bytes
        self._bytes_counter.inc(message.size_bytes)

        def deliver() -> None:
            if not self.up:
                self.dropped_count += 1
                self._dropped_counter.inc()
                done.fail(LinkDown(f"link {self.name} went down in flight"))
                return
            message.delivered_at = self.sim.now
            self.delivered_count += 1
            self._delivered_counter.inc()
            on_deliver(message)
            done.succeed(message)

        self.sim.schedule_at(arrival, deliver, label=f"deliver:{message.kind}")
        return done

    def _occupy(self, size_bytes: int) -> float:
        """Reserve wire time for ``size_bytes``; returns serialization end."""
        start = max(self.sim.now, self._busy_until)
        tx_time = (size_bytes * 8.0) / self.profile.bandwidth_bps
        self._busy_until = start + tx_time
        return self._busy_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return (
            f"Link({self.name}, {self.profile.bandwidth_bps / 1e6:.1f} Mbps, "
            f"{state})"
        )
