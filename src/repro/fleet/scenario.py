"""Fleet scenarios: many clients, many edges, one load-aware scheduler.

A :class:`FleetScenario` places several :class:`~repro.core.server.EdgeServer`
instances — each with its own device profile and link quality — on one
:class:`~repro.netsim.topology.Topology`, then drives hundreds-to-thousands
of user sessions against them.  Each session is a real protocol client
(browser runtime, snapshots, pre-send, deltas); the shared client-side
:class:`~repro.fleet.scheduler.FleetScheduler` picks an edge per request
from live response-time windows and queue depths under a pluggable policy.

A session builds its client (browser runtime, device, app, offload
point) once, when it arrives; the agent has no wire until its first
request attaches it.  Every request, the first included, takes one path:
the scheduler picks an edge (or the session backs off), the request takes
an in-flight slot there, the fleet connects the client, the client
attaches (:meth:`~repro.core.client.ClientAgent.attach`: rebind and — on
a channel new to it — handshake), and then offloads.  All of that lies
between the click and the applied result, so it is all in the request's
latency.

What makes it a *fleet* rather than N copies of the paper's testbed:

* **digest handshake** — before uploading a model to an edge, the client
  sends ``MODEL_QUERY`` with the model's manifest digest; a hit (some
  earlier client already uploaded it, or the store survived a server
  restart) skips pre-send entirely.  The query also carries the model's
  manifest, so a *miss* is answered at segment granularity: the client
  uploads only the files whose bytes the edge lacks, and files shared
  with any other stored model (multi-tenant fleets, two splits of one
  network) are deduplicated by checksum instead of re-sent.
* **multi-tenant workloads** — ``tenants`` runs several models (or
  several splits of one model) through the same fleet; with a per-edge
  ``memory_budget_bytes`` the stores evict LRU under pressure, and
  ``prewarm`` starts every edge warm (models resident and complete)
  instead of cold.
* **admission control** — per-edge in-flight caps bound server queues;
  requests beyond the cap back off instead of stacking up.
* **failover** — :meth:`FleetScenario.inject_kill` makes an edge die
  mid-run (links down, server restarted, in-flight messages lost).  The
  scheduler *detects* this through reply (or handshake) timeouts and
  refused connects, marks the edge dead, and re-routes the request — and
  every other in-flight request on that edge — to the next-best edge,
  re-running pre-send only if the digest handshake misses there.

No request is ever silently dropped: a request either completes exactly
once (the at-most-once reply cache plus per-request ids make retransmits
and failovers safe) or the scenario raises loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.client import ClientAgent, OffloadError, PhaseBreakdown
from repro.core.server import EdgeServer
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.fleet.policies import Policy, make_policy
from repro.fleet.scheduler import FleetScheduler, NoEdgeAvailable
from repro.netsim import EdgeDown, NetemProfile, ReceiveTimeout, Topology
from repro.netsim.link import LinkDown
from repro.nn.cost import costs_for_range, network_costs
from repro.nn.model import Model
from repro.nn.zoo import build_model
from repro.serve import ServingConfig
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.values import TypedArray

#: a session that finds no edge waits ``step * attempts``, capped
BACKOFF_STEP_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 0.25
#: chance that a session loads a new photo before a follow-up request
NEW_IMAGE_PROBABILITY = 0.3


@dataclass(frozen=True)
class Interaction:
    """One user action in a session."""

    at_seconds: float
    action: str  # "new_image" | "infer"


def poisson_arrivals(
    rng: SeededRng, rate_per_s: float, count: int
) -> List[float]:
    """Absolute start times of ``count`` sessions arriving Poisson(rate).

    Inter-arrival gaps are exponential with mean ``1/rate_per_s``,
    cumulated from t=0.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    starts: List[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        starts.append(now)
    return starts


@dataclass(frozen=True)
class EdgeSpec:
    """Configuration of one edge server in the fleet."""

    name: str
    #: relative compute speed of the edge device (1.0 = the paper's x86 box)
    server_speedup: float = 1.0
    #: link shaping between every client and this edge
    profile: NetemProfile = field(default_factory=NetemProfile.wifi_30mbps)
    installed: bool = True
    session_cache_capacity: int = 256
    #: model-store budget; LRU eviction above it (None = unbounded)
    memory_budget_bytes: Optional[int] = None


def default_fleet(
    count: int = 3,
    skew: float = 2.0,
    memory_budget_bytes: Optional[int] = None,
) -> List[EdgeSpec]:
    """A heterogeneous fleet: server speeds spread by ``skew``.

    Edge 0 is the fastest; each subsequent edge is slower by an even step
    down to ``1/skew`` of edge 0 — the skewed-profile setup under which
    load-aware policies visibly beat round-robin on tail latency.
    """
    if count <= 0:
        raise ValueError("a fleet needs at least one edge")
    specs = []
    for index in range(count):
        fraction = index / max(1, count - 1)
        speedup = 1.0 / (1.0 + (skew - 1.0) * fraction)
        specs.append(
            EdgeSpec(
                name=f"edge-{index}",
                server_speedup=speedup,
                memory_budget_bytes=memory_budget_bytes,
            )
        )
    return specs


@dataclass
class FleetRequestRecord:
    """One completed request, as the client observed it."""

    session: str
    request_index: int
    issued_at: float
    completed_at: float
    edge: str
    #: edges this request failed over from before completing
    failovers: int
    snapshot_kind: str
    result_label: Optional[int]
    expected_label: Optional[int]
    #: the winning attempt's Fig. 7 phases; ``client_exec`` is the front
    #: half in partial mode and ``other`` is the latency no phase claims
    #: (pick, back-off, handshake, failed attempts, device waits) —
    #: unclamped, so a phase that over-claims shows as a negative ``other``
    phases: PhaseBreakdown
    #: the classifier's confidence, exactly as the app displayed it —
    #: lets tests assert bitwise-identical results across fleet layouts
    result_score: Optional[float] = None

    @property
    def latency_seconds(self) -> float:
        return self.completed_at - self.issued_at

    # The three names below are read by benchmarks/ledger/workloads.py
    # (record_phase_metrics) only; program code and tests read ``phases``.
    @property
    def transfer_to_server_seconds(self) -> float:
        return self.phases.transfer_to_server

    @property
    def transfer_to_client_seconds(self) -> float:
        return self.phases.transfer_to_client

    @property
    def restore_seconds(self) -> float:
        return self.phases.snapshot_restore_client

    @property
    def correct(self) -> bool:
        return (
            self.expected_label is not None
            and self.result_label == self.expected_label
        )


@dataclass
class EdgeReportRow:
    """Per-edge aggregate for the fleet report."""

    name: str
    served: int
    failures: int
    busy_seconds: float
    utilization: float
    mean_latency: float
    #: model-store state at report time (cold replacements reset to 0)
    store_resident_bytes: int = 0
    #: budget evictions over the run (metrics-backed: survives cold swaps)
    store_evictions: int = 0


class FleetReport:
    """Outcome of one fleet run: per-request records plus aggregates."""

    def __init__(
        self,
        policy: str,
        records: List[FleetRequestRecord],
        edges: List[EdgeReportRow],
        *,
        makespan_seconds: float,
        sessions: int,
        failovers: int,
        admission_waits: int,
        handshake_hits: int,
        handshake_misses: int,
        kills: List[Tuple[float, str]],
        presend: Dict,
        serving: Optional[Dict] = None,
    ):
        self.policy = policy
        self.records = records
        self.edges = edges
        self.makespan_seconds = makespan_seconds
        self.sessions = sessions
        self.failovers = failovers
        self.admission_waits = admission_waits
        self.handshake_hits = handshake_hits
        self.handshake_misses = handshake_misses
        self.kills = kills
        #: aggregated serving-loop stats (None when serving is disabled)
        self.serving = serving
        #: model-upload accounting: files skipped / bytes deduped by the
        #: segment handshake, bytes sent by pre-send, delivery ride-alongs
        self.presend = presend

    @property
    def upload_bytes(self) -> int:
        """Total model bytes that crossed the wire (pre-send + deliveries)."""
        return self.presend["bytes_sent"] + self.presend["delivery_bytes"]

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def all_correct(self) -> bool:
        return all(record.correct for record in self.records)

    def latencies(self) -> List[float]:
        return sorted(record.latency_seconds for record in self.records)

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank quantile of request latency (q in [0, 1])."""
        ordered = self.latencies()
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
        return ordered[rank]

    @property
    def p50_latency(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_latency(self) -> float:
        return self.latency_quantile(0.99)

    @property
    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.latency_seconds for r in self.records) / len(self.records)

    def render_markdown(self) -> str:
        """Deterministic plain-text report (byte-stable across runs)."""
        from repro.eval.reporting import format_table

        lines = [f"# Fleet report — policy `{self.policy}`", ""]
        lines.append(
            f"{self.sessions} sessions, {self.count} requests, "
            f"makespan {self.makespan_seconds:.3f}s virtual, "
            f"all correct: {self.all_correct}"
        )
        lines.append(
            f"latency p50 {self.p50_latency:.4f}s, "
            f"p99 {self.p99_latency:.4f}s, "
            f"mean {self.mean_latency:.4f}s, "
            f"max {self.latency_quantile(1.0):.4f}s"
        )
        lines.append(
            f"failovers {self.failovers}, admission waits "
            f"{self.admission_waits}, handshake {self.handshake_hits} hits / "
            f"{self.handshake_misses} misses"
        )
        stats = self.presend
        lines.append(
            f"model upload: {self.upload_bytes} B on the wire "
            f"({stats['bytes_sent']} B pre-sent, {stats['delivery_bytes']} B "
            f"with snapshots), {stats['files_skipped']} files / "
            f"{stats['bytes_deduped']} B deduped by the segment handshake"
        )
        if self.kills:
            killed = ", ".join(
                f"{name}@{at:.3f}s" for at, name in self.kills
            )
            lines.append(f"edge kills: {killed}")
        if self.serving is not None:
            stats = self.serving
            mean_batch = (
                stats["items"] / stats["batches"] if stats["batches"] else 0.0
            )
            mean_wait = (
                stats["queue_wait_seconds"] / stats["items"]
                if stats["items"]
                else 0.0
            )
            lines.append(
                f"serving: {stats['batches']} batches, "
                f"{stats['items']} items "
                f"({stats['batched_items']} in real batches, "
                f"max batch {stats['max_batch']}), "
                f"mean batch {mean_batch:.2f}, "
                f"mean queue wait {mean_wait * 1e3:.3f}ms, "
                f"deadline misses {stats['deadline_misses']}"
            )
        lines.append("")
        lines.append(
            format_table(
                [
                    "edge", "served", "failures", "busy_s", "util_%",
                    "mean_lat_s", "resident_B", "evictions",
                ],
                [
                    [
                        row.name,
                        row.served,
                        row.failures,
                        f"{row.busy_seconds:.3f}",
                        f"{100.0 * row.utilization:.1f}",
                        f"{row.mean_latency:.4f}",
                        row.store_resident_bytes,
                        row.store_evictions,
                    ]
                    for row in self.edges
                ],
                title="Per-edge utilization",
            )
        )
        lines.append("")
        return "\n".join(lines)


@dataclass
class _Tenant:
    """One model workload sharing the fleet: app, split, cost tables."""

    model: Model
    app: object  # repro.web.app.WebApp
    #: what the edge must hold: the whole model, or the rear half
    presend_model: Model
    #: what the edge executes: the whole model's costs, or the rear half's
    server_costs: object
    #: the front half the client executes (partial mode only)
    front_costs: object = None
    #: tells a batching server which stored model / restored global carry
    #: the rear-half inference, so concurrent same-model requests can share
    #: one batched forward (partial mode only)
    batch_hint: Optional[Dict] = None


class FleetScenario:
    """N edge servers + M user sessions + one scheduling policy."""

    def __init__(
        self,
        model_name: str = "smallnet",
        edges: Optional[List[EdgeSpec]] = None,
        policy: str = "queue-aware",
        *,
        sessions: int = 40,
        requests_per_session: int = 2,
        arrival_rate_per_s: float = 8.0,
        mean_think_seconds: float = 1.0,
        mode: str = "offload",
        split_index: Optional[int] = None,
        seed: int = 0,
        max_outstanding_per_edge: int = 8,
        reply_timeout: float = 5.0,
        serving: Optional[ServingConfig] = None,
        tenants: Optional[List[str]] = None,
        prewarm: bool = False,
        deadline_s: Optional[float] = None,
    ):
        if sessions <= 0 or requests_per_session <= 0:
            raise ValueError("sessions and requests_per_session must be positive")
        if mode not in ("offload", "offload-partial"):
            raise ValueError(f"unknown mode {mode!r}")
        self.model_name = model_name
        self.specs = list(edges) if edges is not None else default_fleet(3)
        self.policy_name = policy
        self.sessions = sessions
        self.requests_per_session = requests_per_session
        self.arrival_rate_per_s = arrival_rate_per_s
        self.mean_think_seconds = mean_think_seconds
        self.mode = mode
        self.seed = seed
        self.reply_timeout = reply_timeout
        #: per-edge continuous-batching config (None = sequential serving)
        self.serving_config = serving
        self.prewarm = prewarm
        #: per-request completion SLO.  Rides in every snapshot; the serving
        #: loop counts misses against it.
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.deadline_s = deadline_s

        self.sim = Simulator(max_events=20_000_000)
        self.rng = SeededRng(seed, f"fleet/{model_name}/{policy}")
        self.topology = Topology(self.sim, client_name="fleet-gateway")
        self.servers: Dict[str, EdgeServer] = {}
        for spec in self.specs:
            self.topology.add_edge_host(spec.name, profile=spec.profile)
            self.servers[spec.name] = EdgeServer(
                self.sim,
                Device(self.sim, edge_server_x86(spec.server_speedup)),
                name=spec.name,
                installed=spec.installed,
                session_cache_capacity=spec.session_cache_capacity,
                serving=serving,
                memory_budget_bytes=spec.memory_budget_bytes,
            )
        self.policy: Policy = make_policy(policy, self.rng.child("policy"))
        self.scheduler = FleetScheduler(
            self.sim,
            [spec.name for spec in self.specs],
            self.policy,
            max_outstanding_per_edge=max_outstanding_per_edge,
        )

        # The models and their cost tables are shared by every session (they
        # never mutate parameters).
        # A tenant spec is "model" or "model:split" (partial mode only);
        # sessions are assigned round-robin over the tenant list.
        specs_list = list(tenants) if tenants else [model_name]
        self.tenants: List[_Tenant] = [
            self._build_tenant(spec, split_index) for spec in specs_list
        ]

        self.records: List[FleetRequestRecord] = []
        #: model bytes that rode along with snapshots (unfinished pre-sends)
        self._delivery_bytes = 0
        self.kill_log: List[Tuple[float, str]] = []
        self._kills: List[Tuple[float, str, bool]] = []
        self._revivals: List[Tuple[float, str]] = []
        self._ran = False

        metrics = self.sim.metrics
        labels = {"policy": self.policy.name}
        self._requests_counter = metrics.counter(
            "fleet_requests_total", help="requests completed fleet-wide",
            **labels,
        )
        self._failover_counter = metrics.counter(
            "fleet_failovers_total",
            help="request attempts abandoned on one edge and re-routed",
            **labels,
        )
        self._handshake_hit_counter = metrics.counter(
            "fleet_handshake_hits_total",
            help="digest handshakes answered 'model present' (pre-send skipped)",
        )
        self._handshake_miss_counter = metrics.counter(
            "fleet_handshake_misses_total",
            help="digest handshakes answered 'model missing' (pre-send ran)",
        )
        self._sessions_counter = metrics.counter(
            "fleet_sessions_total", help="user sessions completed", **labels
        )
        if prewarm:
            self._prewarm_stores()

    # -- tenants -----------------------------------------------------------------
    def _build_tenant(self, spec: str, default_split: Optional[int]) -> _Tenant:
        """Build one tenant's model, app and cost tables from its spec."""
        name, _, split_text = spec.partition(":")
        split: Optional[int] = default_split
        if split_text:
            if self.mode != "offload-partial":
                raise ValueError(
                    f"tenant {spec!r} names a split point but mode is "
                    f"{self.mode!r} (splits need offload-partial)"
                )
            split = int(split_text)
        model = build_model(name)
        network = model.network
        app_name = spec.replace(":", "@")
        if self.mode != "offload-partial":
            return _Tenant(
                model=model,
                app=make_inference_app(model, name=f"{app_name}-fleet"),
                presend_model=model,
                server_costs=network_costs(network),
            )
        last = len(network.layers) - 1
        if split is None:
            split = last // 2
        front_model, rear_model = model.split(split)
        return _Tenant(
            model=model,
            app=make_partial_inference_app(
                front_model, rear_model, name=f"{app_name}-fleet-partial"
            ),
            presend_model=rear_model,
            server_costs=costs_for_range(network, split + 1, last),
            front_costs=costs_for_range(network, 0, split),
            batch_hint={
                "model_id": rear_model.model_id,
                "feature_global": "feature",
            },
        )

    def _prewarm_stores(self) -> None:
        """Start every installed edge warm: tenant models resident + complete.

        Models are pushed straight into the stores (no wire cost, as if an
        operator had staged the fleet before opening it to traffic); with a
        memory budget smaller than the tenant mix, later models evict
        earlier ones LRU — a deliberately *partially* warm fleet.
        """
        for spec in self.specs:
            server = self.servers[spec.name]
            if not server.installed:
                continue
            for tenant in self.tenants:
                model = tenant.presend_model
                server.store.install(model, model.files())

    # -- fault injection ---------------------------------------------------------
    def inject_kill(
        self,
        edge_name: str,
        at_seconds: float,
        *,
        revive_at_seconds: Optional[float] = None,
        cold: bool = False,
    ) -> None:
        """Schedule an edge death at a virtual time (before :meth:`run`).

        The edge's links go down (in-flight messages lost, channels
        discarded) and its server process restarts — cached sessions and
        the at-most-once reply cache are gone; the model store survives
        unless ``cold`` (a replacement box with an empty disk).  With
        ``revive_at_seconds`` the edge later comes back and the scenario's
        health probe tells the scheduler.
        """
        if edge_name not in self.servers:
            raise KeyError(f"no edge named {edge_name!r}")
        if revive_at_seconds is not None and revive_at_seconds <= at_seconds:
            raise ValueError("revive must come after the kill")
        self._kills.append((at_seconds, edge_name, cold))
        if revive_at_seconds is not None:
            self._revivals.append((revive_at_seconds, edge_name))

    def _kill_now(self, edge_name: str, cold: bool) -> None:
        self.topology.fail_edge(edge_name)
        server = self.servers[edge_name]
        server.restart()
        if cold:
            server.store = server.fresh_store()
        self.kill_log.append((self.sim.now, edge_name))
        self.sim.metrics.counter(
            "fleet_edge_kills_total", help="injected edge deaths",
            edge=edge_name,
        ).inc()

    def _revive_now(self, edge_name: str) -> None:
        self.topology.restore_edge(edge_name)
        # The health probe's view: the edge answers again.  Its stale
        # response-time window is forgotten by mark_alive.
        self.scheduler.mark_alive(edge_name)

    # -- the per-request scheduling loop ------------------------------------------
    def _offload_with_failover(
        self, session: str, agent: ClientAgent, tenant: _Tenant, event
    ):
        """Dispatch one request, failing over until it completes.

        Returns ``(edge_name, outcome, failovers)``.  Raises
        :class:`NoEdgeAvailable` only when every edge is dead with no
        revival pending — a dropped request is always loud.
        """
        excluded: Set[str] = set()
        failovers = 0
        waits = 0
        while True:
            edge_name = self.scheduler.try_pick(frozenset(excluded))
            if edge_name is None:
                if not self.scheduler.any_alive() and not any(
                    at > self.sim.now for at, _ in self._revivals
                ):
                    raise NoEdgeAvailable(
                        f"{session}: every edge is dead and none will revive"
                    )
                waits += 1
                excluded.clear()  # a revived or drained edge may qualify now
                yield self.sim.timeout(
                    min(BACKOFF_CAP_SECONDS, BACKOFF_STEP_SECONDS * waits)
                )
                continue
            self.scheduler.begin(edge_name)
            issued_at = self.sim.now
            try:
                fresh = self.topology.connection(session, edge_name) is None
                client_end, edge_end = self.topology.connect(session, edge_name)
                if fresh:
                    self.servers[edge_name].serve(edge_end)
                present = yield from agent.attach(
                    client_end, tenant.presend_model, self.reply_timeout
                )
                if present is not None:
                    if present:
                        self._handshake_hit_counter.inc()
                    else:
                        self._handshake_miss_counter.inc()
                outcome = yield from agent.offload(
                    event,
                    server_costs=tenant.server_costs,
                    reply_timeout=self.reply_timeout,
                    batch_hint=tenant.batch_hint,
                    deadline_s=self.deadline_s,
                )
            except (OffloadError, ReceiveTimeout, LinkDown, EdgeDown) as error:
                # Either way the request re-routes and its handshake with
                # this edge is invalidated, so a later attach there re-asks
                # at segment granularity.  An OffloadError (an explicit
                # ERROR reply, or no reply after the retries) leaves the
                # edge schedulable: a refusal is almost always a stale
                # handshake (the store evicted the model behind our back).
                # A refused connect, a dropped link or a handshake answer
                # that never came is how the scheduler *detects* an edge
                # death; the replacement process comes up with whatever
                # store survived (or a cold one).
                agent.forget(edge_name)
                if isinstance(error, OffloadError):
                    self.scheduler.refuse(edge_name)
                else:
                    self.scheduler.fail(edge_name)
                self._failover_counter.inc()
                failovers += 1
                excluded.add(edge_name)
                continue
            self._delivery_bytes += outcome.delivery_bytes
            self.scheduler.complete(edge_name, self.sim.now - issued_at)
            self.scheduler.observe_server_queue(
                edge_name, outcome.server_queue_depth
            )
            self._requests_counter.inc()
            return edge_name, outcome, failovers

    # -- session processes ---------------------------------------------------------
    def _interactions_for(self, session_name: str) -> List[Interaction]:
        rng = self.rng.child(f"think/{session_name}")
        interactions: List[Interaction] = []
        now = 0.0
        for index in range(self.requests_per_session):
            if index == 0 or rng.chance(NEW_IMAGE_PROBABILITY):
                interactions.append(Interaction(at_seconds=now, action="new_image"))
            interactions.append(Interaction(at_seconds=now, action="infer"))
            now += rng.expovariate(1.0 / self.mean_think_seconds)
        return interactions

    def _session_proc(self, index: int, start_at: float):
        session_name = f"user-{index:04d}"
        yield self.sim.timeout(start_at)
        tenant = self.tenants[index % len(self.tenants)]
        # The session's browser and app exist before any edge is picked;
        # every request, the first included, attaches inside
        # _offload_with_failover.
        agent = ClientAgent(
            self.sim,
            Device(self.sim, odroid_xu4_client()),
            None,
            name=session_name,
        )
        agent.start_app(tenant.app, presend=False)
        if self.mode == "offload-partial":
            agent.mark_offload_point("front_complete")
        else:
            agent.mark_offload_point("click", "infer_btn")
        image_rng = self.rng.child(f"images/{session_name}")
        shape = tuple(tenant.model.network.input_shape)
        interactions = self._interactions_for(session_name)
        started = self.sim.now
        request_index = 0
        expected_label: Optional[int] = None
        for interaction in interactions:
            wait = started + interaction.at_seconds - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            if interaction.action == "new_image":
                pixels = TypedArray(image_rng.uniform_array(shape, 0, 255))
                expected_label = int(
                    np.argmax(tenant.model.inference(pixels.data))
                )
                agent.runtime.globals["pending_pixels"] = pixels
                agent.runtime.dispatch("click", "load_btn")
                continue
            issued_at = self.sim.now
            front_seconds = 0.0
            if self.mode == "offload-partial":
                front_seconds = agent.device.forward_seconds(tenant.front_costs)
                yield agent.device.execute(front_seconds, label="front-dnn")
            agent.runtime.dispatch("click", "infer_btn")
            event = agent.take_intercepted()
            edge_name, outcome, failovers = yield from (
                self._offload_with_failover(session_name, agent, tenant, event)
            )
            phases = outcome.phases
            phases.client_exec = front_seconds
            phases.other = (self.sim.now - issued_at) - phases.accounted()
            self.records.append(
                FleetRequestRecord(
                    session=session_name,
                    request_index=request_index,
                    issued_at=issued_at,
                    completed_at=self.sim.now,
                    edge=edge_name,
                    failovers=failovers,
                    snapshot_kind=outcome.snapshot.kind,
                    result_label=agent.runtime.globals.get("result_label"),
                    expected_label=expected_label,
                    phases=phases,
                    result_score=agent.runtime.globals.get("result_score"),
                )
            )
            request_index += 1
        self._sessions_counter.inc()

    # -- running ---------------------------------------------------------------------
    def run(self) -> FleetReport:
        if self._ran:
            raise RuntimeError("a FleetScenario can only run once")
        self._ran = True
        arrival_rng = self.rng.child("arrivals")
        starts = poisson_arrivals(
            arrival_rng, self.arrival_rate_per_s, self.sessions
        )
        processes = [
            self.sim.spawn(
                self._session_proc(index, start_at),
                label=f"fleet-session-{index}",
            )
            for index, start_at in enumerate(starts)
        ]
        for at_seconds, edge_name, cold in sorted(self._kills):
            self.sim.schedule(
                at_seconds, self._kill_now, edge_name, cold,
                label=f"kill:{edge_name}",
            )
        for at_seconds, edge_name in sorted(self._revivals):
            self.sim.schedule(
                at_seconds, self._revive_now, edge_name,
                label=f"revive:{edge_name}",
            )
        self.sim.run_until_done(processes)
        return self._build_report()

    def _build_report(self) -> FleetReport:
        makespan = self.sim.now
        rows: List[EdgeReportRow] = []
        for spec in self.specs:
            state = self.scheduler.edge(spec.name)
            device = self.servers[spec.name].device
            latencies = [
                r.latency_seconds for r in self.records if r.edge == spec.name
            ]
            utilization = (
                device.busy_seconds / makespan if makespan > 0 else 0.0
            )
            self.sim.metrics.gauge(
                "fleet_edge_utilization",
                help="edge device busy fraction over the run",
                edge=spec.name,
            ).set(utilization)
            rows.append(
                EdgeReportRow(
                    name=spec.name,
                    served=state.served,
                    failures=state.failures,
                    busy_seconds=device.busy_seconds,
                    utilization=utilization,
                    mean_latency=(
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    store_resident_bytes=self.servers[spec.name].store.resident_bytes,
                    store_evictions=int(
                        self.sim.metrics.value(
                            "store_evictions_total", server=spec.name
                        )
                    ),
                )
            )
        registry = self.sim.metrics
        presend_stats = {
            "files_skipped": int(registry.value("presend_files_skipped_total")),
            "bytes_deduped": int(registry.value("presend_bytes_deduped_total")),
            "bytes_sent": int(registry.value("presend_bytes_sent_total")),
            "delivery_bytes": self._delivery_bytes,
        }
        serving_stats = None
        if self.serving_config is not None:
            serving_stats = {
                "batches": 0,
                "items": 0,
                "batched_items": 0,
                "max_batch": 0,
                "queue_wait_seconds": 0.0,
                "deadline_misses": 0,
                "dead_on_arrival": 0,
            }
            for spec in self.specs:
                loop = self.servers[spec.name].serving
                if loop is None:
                    continue
                for key, value in loop.stats.items():
                    if key == "max_batch":
                        serving_stats[key] = max(serving_stats[key], value)
                    else:
                        serving_stats[key] += value
            serving_stats["queue_wait_seconds"] = round(
                serving_stats["queue_wait_seconds"], 9
            )
        return FleetReport(
            self.policy.name,
            list(self.records),
            rows,
            makespan_seconds=makespan,
            sessions=self.sessions,
            failovers=int(self._failover_counter.value),
            admission_waits=int(
                registry.value("fleet_admission_waits_total") or 0
            ),
            handshake_hits=int(self._handshake_hit_counter.value),
            handshake_misses=int(self._handshake_miss_counter.value),
            kills=list(self.kill_log),
            presend=presend_stats,
            serving=serving_stats,
        )

