"""Bidirectional channels between two hosts.

A :class:`Channel` is a pair of opposing :class:`~repro.netsim.link.Link`
objects plus two :class:`ChannelEnd` endpoints.  Protocol agents hold an
endpoint and use:

``send(message)``
    returns a SimEvent succeeding at delivery time (fails on link-down/loss),
``recv()``
    returns a SimEvent succeeding with the next inbound message (FIFO),
``recv_kind(kind)``
    like ``recv`` but waits for a specific message kind, buffering others.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.sim import SimEvent, Simulator
from repro.netsim.link import Link, NetemProfile
from repro.netsim.message import Message


class ReceiveTimeout(RuntimeError):
    """Failure value for ``recv`` calls that exceeded their deadline."""


class ChannelEnd:
    """One side of a bidirectional channel."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.peer: Optional["ChannelEnd"] = None
        self.peer_name = ""
        self._outgoing: Optional[Link] = None
        self._inbox: Deque[Message] = deque()
        self._recv_waiters: Deque[SimEvent] = deque()
        self._kind_waiters: Dict[str, Deque[SimEvent]] = {}
        self._sent_counter = sim.metrics.counter(
            "net_messages_sent_total", help="messages handed to the link",
            endpoint=name,
        )
        self._received_counter = sim.metrics.counter(
            "net_messages_received_total", help="messages delivered to this end",
            endpoint=name,
        )
        self._timeout_counter = sim.metrics.counter(
            "net_recv_timeouts_total", help="recv waits that hit their deadline",
            endpoint=name,
        )

    # -- wiring (done by Channel) ------------------------------------------
    def _attach(self, outgoing: Link, peer: "ChannelEnd") -> None:
        self._outgoing = outgoing
        self.peer = peer
        self.peer_name = peer.name

    def _abandon(self) -> None:
        """Forget the receives waiting here and the peer; a receive
        made later waits on nothing either (see :meth:`Channel.discard`)."""
        self._recv_waiters.clear()
        self._kind_waiters.clear()
        self.peer = None

    # -- sending -------------------------------------------------------------
    def send(
        self,
        kind: str,
        payload: Any = None,
        size_bytes: Optional[int] = None,
        **headers: Any,
    ) -> SimEvent:
        """Send a message to the peer; returns the delivery event."""
        return self.send_message(
            Message(
                kind=kind,
                payload=payload,
                size_bytes=size_bytes,
                headers=dict(headers),
            )
        )

    def send_message(self, message: Message) -> SimEvent:
        """Send a pre-built message (used by protocol relays)."""
        if self._outgoing is None:
            raise RuntimeError(f"endpoint {self.name} is not attached to a channel")
        message.sender = self.name
        message.recipient = self.peer_name
        self._sent_counter.inc()
        return self._outgoing.transmit(message, self._to_peer)

    def _to_peer(self, message: Message) -> None:
        self.peer._deliver(message)

    # -- receiving -------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        self._received_counter.inc()
        waiters = self._kind_waiters.get(message.kind)
        if waiters:
            waiters.popleft().succeed(message)
            return
        if self._recv_waiters:
            self._recv_waiters.popleft().succeed(message)
            return
        self._inbox.append(message)

    def recv(self, timeout: Optional[float] = None) -> SimEvent:
        """Wait for the next inbound message (any kind)."""
        event = self.sim.event(label=f"recv:{self.name}")
        if self._inbox:
            event.succeed(self._inbox.popleft())
            return event
        if self.peer is not None:  # else nothing can arrive
            self._recv_waiters.append(event)
        self._arm_timeout(event, timeout, "recv")
        return event

    def recv_kind(self, kind: str, timeout: Optional[float] = None) -> SimEvent:
        """Wait for the next inbound message of a given kind.

        Messages of other kinds stay buffered for plain ``recv`` callers.
        """
        event = self.sim.event(label=f"recv:{self.name}:{kind}")
        for index, message in enumerate(self._inbox):
            if message.kind == kind:
                del self._inbox[index]
                event.succeed(message)
                return event
        if self.peer is not None:  # else nothing can arrive
            self._kind_waiters.setdefault(kind, deque()).append(event)
        self._arm_timeout(event, timeout, kind)
        return event

    def _arm_timeout(
        self, event: SimEvent, timeout: Optional[float], what: str
    ) -> None:
        if timeout is None:
            return

        def expire() -> None:
            if not event.triggered:
                self._discard_waiter(event)
                self._timeout_counter.inc()
                event.fail(
                    ReceiveTimeout(f"{self.name}: no {what} within {timeout}s")
                )

        self.sim.schedule(timeout, expire, label=f"recv-timeout:{self.name}")

    def cancel_wait(self, event: SimEvent) -> None:
        """Withdraw an untriggered recv event so it cannot eat a message.

        Needed when racing two ``recv_kind`` waits (e.g. RESULT vs ERROR):
        once one wins, the loser must be cancelled or it would silently
        consume the next message of its kind.
        """
        if not event.triggered:
            self._discard_waiter(event)

    def _discard_waiter(self, event: SimEvent) -> None:
        try:
            self._recv_waiters.remove(event)
        except ValueError:
            pass
        for waiters in self._kind_waiters.values():
            try:
                waiters.remove(event)
            except ValueError:
                pass

    @property
    def pending(self) -> int:
        return len(self._inbox)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelEnd({self.name}, pending={len(self._inbox)})"


class Channel:
    """A bidirectional channel: two links and two endpoints."""

    def __init__(
        self,
        sim: Simulator,
        name_a: str,
        name_b: str,
        profile: NetemProfile,
        profile_back: Optional[NetemProfile] = None,
    ):
        self.sim = sim
        self.link_ab = Link(sim, profile, name=f"{name_a}->{name_b}")
        self.link_ba = Link(sim, profile_back or profile, name=f"{name_b}->{name_a}")
        self.end_a = ChannelEnd(sim, name_a)
        self.end_b = ChannelEnd(sim, name_b)
        self.end_a._attach(self.link_ab, self.end_b)
        self.end_b._attach(self.link_ba, self.end_a)

    def ends(self) -> tuple:
        return self.end_a, self.end_b

    def set_profile(self, profile: NetemProfile) -> None:
        """Reshape both directions (like re-running ``tc``)."""
        self.link_ab.set_profile(profile)
        self.link_ba.set_profile(profile)

    def go_down(self) -> None:
        self.link_ab.go_down()
        self.link_ba.go_down()

    def go_up(self) -> None:
        self.link_ab.go_up()
        self.link_ba.go_up()

    def discard(self) -> None:
        """Take the channel down for good: nothing crosses it again.

        Each end forgets the receives waiting on it, now and later, without
        waking them (nothing could have), and lets go of its peer.  Two ends that
        hold each other, and a process parked on an end that holds the
        process through its waiter, are cycles; severed, a dead channel and
        the processes parked on it go when nothing else holds them, instead
        of waiting for the cyclic collector.  A receive with a timeout still
        times out, and a send on a discarded end fails as on any down link.
        """
        self.go_down()
        self.end_a._abandon()
        self.end_b._abandon()
