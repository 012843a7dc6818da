"""Hosts and topologies: clients among several edge service areas.

The paper's mobility story — "when a mobile client moves to a different
service area, snapshot-based offloading can readily work on a new edge
server" — needs a notion of *which* edge server the client is currently
attached to.  :class:`Topology` models a client that can attach to exactly
one edge host at a time and hand over to another, tearing down the old
channel and creating a fresh one (the new server shares no state with the
old one, which is exactly the property the paper exploits).

Fleet scenarios (:mod:`repro.fleet`) extend that single-client picture:
:meth:`Topology.connect` gives any number of named clients their own
channel to any edge host simultaneously, and :meth:`Topology.fail_edge`
models an edge node dying — every channel to it goes down (in-flight
messages are lost) and is discarded, so a later :meth:`connect` after
:meth:`restore_edge` builds a fresh connection, exactly like TCP sessions
dying with a crashed server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim import Simulator
from repro.netsim.channel import Channel, ChannelEnd
from repro.netsim.link import NetemProfile


class EdgeDown(RuntimeError):
    """Raised when connecting to an edge host that is currently down."""


@dataclass
class Host:
    """A named machine in the topology."""

    name: str
    role: str = "edge"  # "client" | "edge" | "cloud"
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.role not in ("client", "edge", "cloud"):
            raise ValueError(f"unknown host role {self.role!r}")


class Topology:
    """A client host plus a set of edge hosts, with single attachment."""

    def __init__(self, sim: Simulator, client_name: str = "client"):
        self.sim = sim
        self.client = Host(client_name, role="client")
        self.edges: Dict[str, Host] = {}
        self.profiles: Dict[str, NetemProfile] = {}
        self._channel: Optional[Channel] = None
        self._attached_to: Optional[str] = None
        self.handover_log: List[Tuple[float, str]] = []
        #: fleet extension: named clients with concurrent per-edge channels
        self.clients: Dict[str, Host] = {self.client.name: self.client}
        self._links: Dict[Tuple[str, str], Channel] = {}
        self._edge_up: Dict[str, bool] = {}
        #: (virtual time, edge name, "fail" | "restore")
        self.outage_log: List[Tuple[float, str, str]] = []

    # -- construction --------------------------------------------------------
    def add_edge_host(
        self, name: str, profile: Optional[NetemProfile] = None, **tags: str
    ) -> Host:
        if name in self.edges:
            raise ValueError(f"edge host {name!r} already exists")
        host = Host(name, role="edge", tags=dict(tags))
        self.edges[name] = host
        self.profiles[name] = profile or NetemProfile.wifi_30mbps()
        self._edge_up[name] = True
        return host

    def add_client_host(self, name: str, **tags: str) -> Host:
        """Register an extra client host for fleet scenarios."""
        if name in self.clients or name in self.edges:
            raise ValueError(f"host {name!r} already exists")
        host = Host(name, role="client", tags=dict(tags))
        self.clients[name] = host
        return host

    # -- attachment ----------------------------------------------------------
    @property
    def attached_to(self) -> Optional[str]:
        return self._attached_to

    @property
    def channel(self) -> Optional[Channel]:
        return self._channel

    def attach(self, edge_name: str) -> Tuple[ChannelEnd, ChannelEnd]:
        """Attach the client to an edge host; returns (client_end, edge_end).

        Any previous attachment is torn down first (its channel goes down, so
        in-flight messages to the old server are lost — matching a real
        departure from the old service area).
        """
        if edge_name not in self.edges:
            raise KeyError(f"no edge host named {edge_name!r}")
        if self._channel is not None:
            self._channel.discard()
        self._channel = Channel(
            self.sim,
            self.client.name,
            edge_name,
            self.profiles[edge_name],
        )
        self._attached_to = edge_name
        self.handover_log.append((self.sim.now, edge_name))
        return self._channel.end_a, self._channel.end_b

    def handover(self, new_edge_name: str) -> Tuple[ChannelEnd, ChannelEnd]:
        """Move to a different service area."""
        if new_edge_name == self._attached_to:
            raise ValueError(f"client already attached to {new_edge_name!r}")
        return self.attach(new_edge_name)

    # -- fleet attachment (many clients, many concurrent channels) -----------
    def connect(
        self, client_name: str, edge_name: str
    ) -> Tuple[ChannelEnd, ChannelEnd]:
        """Connect a named client to an edge host; returns (client_end, edge_end).

        Unlike :meth:`attach`, connections are concurrent: one client may
        hold channels to several edges, and many clients to one edge.
        Reconnecting an existing pair returns the same channel ends, so the
        caller can detect (by identity) whether a fresh connection — and
        therefore a fresh handshake — happened.  Connecting to a failed
        edge raises :class:`EdgeDown`.
        """
        if edge_name not in self.edges:
            raise KeyError(f"no edge host named {edge_name!r}")
        if not self._edge_up.get(edge_name, True):
            raise EdgeDown(f"edge host {edge_name!r} is down")
        if client_name not in self.clients:
            self.add_client_host(client_name)
        key = (client_name, edge_name)
        channel = self._links.get(key)
        if channel is None:
            channel = Channel(
                self.sim, client_name, edge_name, self.profiles[edge_name]
            )
            self._links[key] = channel
        return channel.end_a, channel.end_b

    def connection(self, client_name: str, edge_name: str) -> Optional[Channel]:
        return self._links.get((client_name, edge_name))

    def edge_is_up(self, edge_name: str) -> bool:
        if edge_name not in self.edges:
            raise KeyError(f"no edge host named {edge_name!r}")
        return self._edge_up.get(edge_name, True)

    def fail_edge(self, edge_name: str) -> int:
        """An edge node dies: every channel to it goes down and is dropped.

        In-flight messages on those channels are lost (the link refuses
        delivery once down), and the dead :class:`Channel` objects are
        discarded so a post-:meth:`restore_edge` ``connect`` builds a fresh
        one.  Returns the number of connections torn down.
        """
        if edge_name not in self.edges:
            raise KeyError(f"no edge host named {edge_name!r}")
        self._edge_up[edge_name] = False
        torn_down = 0
        for key in [k for k in self._links if k[1] == edge_name]:
            self._links.pop(key).discard()
            torn_down += 1
        if self._attached_to == edge_name and self._channel is not None:
            self._channel.go_down()
            torn_down += 1
        self.outage_log.append((self.sim.now, edge_name, "fail"))
        return torn_down

    def restore_edge(self, edge_name: str) -> None:
        """Bring a failed edge back; clients must reconnect explicitly."""
        if edge_name not in self.edges:
            raise KeyError(f"no edge host named {edge_name!r}")
        self._edge_up[edge_name] = True
        self.outage_log.append((self.sim.now, edge_name, "restore"))
