"""Client-side load-aware scheduling over a fleet of edge servers.

The :class:`FleetScheduler` is the fleet's front-end brain: it keeps, per
edge, a sliding window of *observed* response times, the number of requests
currently outstanding (the client-observed queue depth), and a liveness
flag — and feeds those to a pluggable :class:`~repro.fleet.policies.Policy`
to pick a target per request.  Everything it knows comes from the client
side of the wire: completions feed the window, timeouts mark an edge dead,
and revivals are reported by the scenario's health probe.  All of it is
exported through the owning simulator's :mod:`repro.obs` registry
(``fleet_*`` metrics), so a campaign can interrogate scheduling behaviour
the same way it interrogates servers and links.

Admission control is a per-edge in-flight cap: when every live edge is at
``max_outstanding_per_edge``, :meth:`try_pick` returns ``None`` and the
caller backs off — bounding server queues instead of letting p99 run away.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional

from repro.fleet.policies import Policy, PolicyError
from repro.sim import Simulator


class NoEdgeAvailable(RuntimeError):
    """Raised when a request exhausts every live edge in the fleet."""


class EdgeState:
    """Everything the scheduler knows about one edge, client-side."""

    def __init__(self, name: str, order: int, window: int):
        self.name = name
        #: registration position — the deterministic tie-breaker
        self.order = order
        self.alive = True
        self.outstanding = 0
        #: last *server-reported* serving-queue depth (piggybacked on
        #: replies); 0 for servers without a serving loop.  Client-side
        #: ``outstanding`` only counts this gateway's in-flight requests —
        #: this is the server's own view of its backlog.
        self.server_queue_depth = 0
        self.served = 0
        self.failures = 0
        self._window: Deque[float] = deque(maxlen=window)

    def observe(self, seconds: float) -> None:
        self._window.append(seconds)

    def mean_response_seconds(self) -> float:
        """Window mean; 0.0 while unprobed so new edges get tried first."""
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    def window_values(self) -> List[float]:
        return list(self._window)

    def reset_window(self) -> None:
        self._window.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "DEAD"
        return (
            f"EdgeState({self.name}, {state}, out={self.outstanding}, "
            f"mean={self.mean_response_seconds():.3f}s)"
        )


class FleetScheduler:
    """Per-request edge selection from live latency and queue signals."""

    def __init__(
        self,
        sim: Simulator,
        edge_names: Iterable[str],
        policy: Policy,
        *,
        window: int = 16,
        max_outstanding_per_edge: int = 8,
    ):
        names = list(edge_names)
        if not names:
            raise PolicyError("a fleet needs at least one edge")
        if len(set(names)) != len(names):
            raise PolicyError(f"duplicate edge names in {names!r}")
        if window <= 0:
            raise PolicyError("window must be positive")
        if max_outstanding_per_edge <= 0:
            raise PolicyError("max_outstanding_per_edge must be positive")
        self.sim = sim
        self.policy = policy
        self.window = window
        self.max_outstanding_per_edge = max_outstanding_per_edge
        self._edges: Dict[str, EdgeState] = {
            name: EdgeState(name, order, window)
            for order, name in enumerate(names)
        }
        metrics = sim.metrics
        self._dispatch_counters = {
            name: metrics.counter(
                "fleet_dispatches_total",
                help="requests dispatched to this edge",
                edge=name, policy=policy.name,
            )
            for name in names
        }
        self._outstanding_gauges = {
            name: metrics.gauge(
                "fleet_edge_outstanding",
                help="requests currently in flight to this edge",
                edge=name,
            )
            for name in names
        }
        self._dead_counters = {
            name: metrics.counter(
                "fleet_edge_marked_dead_total",
                help="times the scheduler declared this edge dead",
                edge=name,
            )
            for name in names
        }
        self._server_queue_gauges = {
            name: metrics.gauge(
                "fleet_edge_server_queue_depth",
                help="last server-reported serving-queue depth",
                edge=name,
            )
            for name in names
        }
        self._admission_wait_counter = metrics.counter(
            "fleet_admission_waits_total",
            help="picks deferred because every live edge was at its "
            "in-flight cap",
        )
        self._latency_histogram = metrics.histogram(
            "fleet_request_latency_seconds",
            help="client-observed response time of dispatched requests",
            policy=policy.name,
        )

    # -- queries ---------------------------------------------------------------
    def edge(self, name: str) -> EdgeState:
        return self._edges[name]

    def edges(self) -> List[EdgeState]:
        """All edges in registration order."""
        return sorted(self._edges.values(), key=lambda state: state.order)

    def any_alive(self) -> bool:
        return any(state.alive for state in self._edges.values())

    # -- selection ---------------------------------------------------------------
    def try_pick(
        self, exclude: FrozenSet[str] = frozenset()
    ) -> Optional[str]:
        """Pick an edge for one request, or ``None`` if none is admissible.

        Dead edges and ``exclude`` (edges this request already failed over
        from) never qualify; edges at the in-flight cap are admission-
        controlled out.  ``None`` with live-but-full edges means "back off
        and retry"; ``None`` with every edge dead or excluded means the
        caller must wait for a revival (or give up).
        """
        candidates = [
            state
            for state in self.edges()
            if state.alive
            and state.name not in exclude
            and state.outstanding < self.max_outstanding_per_edge
        ]
        if not candidates:
            if any(
                state.alive and state.name not in exclude
                for state in self._edges.values()
            ):
                self._admission_wait_counter.inc()
            return None
        return self.policy.choose(candidates).name

    # -- request lifecycle -------------------------------------------------------
    def begin(self, name: str) -> None:
        state = self._edges[name]
        state.outstanding += 1
        self._dispatch_counters[name].inc()
        self._outstanding_gauges[name].set(state.outstanding)

    def complete(self, name: str, seconds: float) -> None:
        """A dispatched request came back: feed the response-time window."""
        state = self._edges[name]
        state.outstanding = max(0, state.outstanding - 1)
        state.served += 1
        state.observe(seconds)
        self._outstanding_gauges[name].set(state.outstanding)
        self._latency_histogram.observe(seconds)

    def observe_server_queue(self, name: str, depth: int) -> None:
        """A reply reported the server's own serving-queue depth."""
        state = self._edges[name]
        state.server_queue_depth = max(0, int(depth))
        self._server_queue_gauges[name].set(state.server_queue_depth)

    def fail(self, name: str) -> None:
        """A dispatched request failed (timeout / link down): mark dead.

        The failure is the scheduler's *detection* of an edge death — no
        oracle tells it; the reply just never arrived.  All bookkeeping for
        the edge's other in-flight requests stays intact: each of them will
        fail (or complete, if the edge comes back fast) on its own.
        """
        state = self._edges[name]
        state.outstanding = max(0, state.outstanding - 1)
        state.failures += 1
        self._outstanding_gauges[name].set(state.outstanding)
        if state.alive:
            state.alive = False
            self._dead_counters[name].inc()

    def refuse(self, name: str) -> None:
        """A dispatched request was *refused* (explicit ERROR reply).

        The edge answered, so it is alive — a refusal is a state problem
        (stale handshake, evicted model, bad manifest), not a death.  The
        slot is released and the failure counted, but the edge stays
        schedulable: the client re-handshakes and retries.
        """
        state = self._edges[name]
        state.outstanding = max(0, state.outstanding - 1)
        state.failures += 1
        self._outstanding_gauges[name].set(state.outstanding)

    def mark_alive(self, name: str) -> None:
        """Health probe says the edge is back; forget stale latency data."""
        state = self._edges[name]
        if not state.alive:
            state.alive = True
            state.reset_window()
            state.server_queue_depth = 0  # stale: the process restarted
