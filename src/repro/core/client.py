"""The client-side offloading agent.

The agent owns the client browser runtime and device, installs the event
interceptor that diverts offload-marked events ("we take a snapshot just
before executing a computation-intensive part"), runs the migration —
capture, ship (with model deliveries if the ACK has not arrived), await the
result delta, apply it — and accounts every phase on the virtual clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core import protocol
from repro.core.snapshot import (
    CaptureOptions,
    Snapshot,
    capture_delta,
    capture_snapshot,
    restore_snapshot,
)
from repro.devices.device import Device
from repro.netsim.channel import ChannelEnd
from repro.nn.model import Model
from repro.core.presend import PresendManager
from repro.sim import Simulator
from repro.web.app import WebApp
from repro.web.events import Event
from repro.web.runtime import WebRuntime


class OffloadError(RuntimeError):
    """The server refused or failed an offloading request."""


#: (phase key, display name, track) in execution order — the canonical
#: timeline layout shared by span emission and the chrome-trace exporter
PHASE_TRACKS: Tuple[Tuple[str, str, str], ...] = (
    ("client_exec", "DNN exec (front/local)", "client"),
    ("snapshot_capture_client", "snapshot capture", "client"),
    ("transfer_to_server", "snapshot uplink", "network"),
    ("snapshot_restore_server", "snapshot restore", "server"),
    ("server_queue", "batch queue", "server"),
    ("server_exec", "DNN exec", "server"),
    ("snapshot_capture_server", "delta capture", "server"),
    ("transfer_to_client", "delta downlink", "network"),
    ("snapshot_restore_client", "delta restore", "client"),
    ("other", "queueing / protocol", "network"),
)


@dataclass
class PhaseBreakdown:
    """Durations of each phase of one inference (Fig. 7's segments)."""

    client_exec: float = 0.0
    snapshot_capture_client: float = 0.0
    transfer_to_server: float = 0.0
    snapshot_restore_server: float = 0.0
    #: time spent queued in the server's batching loop (0 when the server
    #: executes inline); attributed from the reply's ``timings["queue"]``
    server_queue: float = 0.0
    server_exec: float = 0.0
    snapshot_capture_server: float = 0.0
    transfer_to_client: float = 0.0
    snapshot_restore_client: float = 0.0
    #: queueing, propagation residue, scheduling — everything unattributed
    other: float = 0.0

    def accounted(self) -> float:
        return (
            self.client_exec
            + self.snapshot_capture_client
            + self.transfer_to_server
            + self.snapshot_restore_server
            + self.server_queue
            + self.server_exec
            + self.snapshot_capture_server
            + self.transfer_to_client
            + self.snapshot_restore_client
        )

    def total(self) -> float:
        return self.accounted() + self.other

    def as_dict(self) -> Dict[str, float]:
        return {
            "client_exec": self.client_exec,
            "snapshot_capture_client": self.snapshot_capture_client,
            "transfer_to_server": self.transfer_to_server,
            "snapshot_restore_server": self.snapshot_restore_server,
            "server_queue": self.server_queue,
            "server_exec": self.server_exec,
            "snapshot_capture_server": self.snapshot_capture_server,
            "transfer_to_client": self.transfer_to_client,
            "snapshot_restore_client": self.snapshot_restore_client,
            "other": self.other,
        }


@dataclass
class OffloadOutcome:
    """Everything observable about one completed offload round trip."""

    snapshot: Snapshot
    delta: Snapshot
    request_id: int
    #: the round trip's Fig. 7 phases, client- and server-measured;
    #: ``client_exec`` and ``other`` are the caller's to fill
    phases: PhaseBreakdown
    #: bytes of model files that rode along with the snapshot
    delivery_bytes: int = 0
    #: server-reported serving-queue depth at reply time (0 when the
    #: server runs without a serving loop)
    server_queue_depth: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.finished_at - self.started_at


class ClientAgent:
    """The embedded device: browser runtime + offloading machinery.

    An agent may exist before it has a wire: built with ``endpoint=None``
    (a fleet session loads its app before any edge is picked), it is
    connected by the first :meth:`rebind` or :meth:`attach`.  ``name``
    labels its metrics (default: the endpoint's name); an agent without an
    endpoint needs one.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        endpoint: Optional[ChannelEnd],
        capture_options: CaptureOptions = CaptureOptions(),
        *,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.device = device
        self.endpoint = endpoint
        self.capture_options = capture_options
        self.runtime = WebRuntime("client-browser")
        self.presend: Optional[PresendManager] = None
        self.intercepted: List[Event] = []
        self._request_ids = itertools.count(1)
        self.runtime.events.set_interceptor(self.intercepted.append)
        #: per-app fingerprint of the state cached on the current server;
        #: when present, follow-up offloads send deltas instead of full
        #: snapshots (the paper's future-work reuse of server-side state)
        self.session_baselines: Dict[str, Any] = {}
        #: server -> (channel end, pre-send manager or None) of the digest
        #: handshake :meth:`attach` ran there; a new channel re-asks
        self._presends: Dict[
            str, Tuple[ChannelEnd, Optional[PresendManager]]
        ] = {}
        metrics = sim.metrics
        labels = {"client": name if name is not None else endpoint.name}
        self._offload_counter = metrics.counter(
            "client_offload_requests_total", help="offload round trips started",
            **labels,
        )
        self._retransmit_counter = metrics.counter(
            "client_retransmissions_total",
            help="snapshot payloads retransmitted after a reply timeout",
            **labels,
        )
        self._timeout_counter = metrics.counter(
            "client_reply_timeouts_total", help="reply waits that timed out",
            **labels,
        )
        self._fallback_counter = metrics.counter(
            "client_session_fallbacks_total",
            help="delta offloads retried as full snapshots (session lost)",
            **labels,
        )
        self._failure_counter = metrics.counter(
            "client_offload_failures_total",
            help="offload round trips abandoned with an error", **labels,
        )
        self._local_counter = metrics.counter(
            "client_local_executions_total",
            help="events executed on the client device instead of offloaded",
            **labels,
        )

    # -- attachment --------------------------------------------------------------
    def rebind(self, endpoint: ChannelEnd) -> None:
        """Point the agent at a channel endpoint (fleet attach or failover).

        The browser runtime and all app state stay put — only the wire
        changes, exactly as when a mobile client re-associates with a new
        edge server.  Any pre-send manager is dropped: it belonged to the
        old server's store; :meth:`attach`'s digest handshake decides
        whether the new edge needs its own upload.
        """
        self.endpoint = endpoint
        self.presend = None

    def attach(
        self, endpoint: ChannelEnd, model: Model, timeout: Optional[float]
    ):
        """Simulated sub-process: bind to ``endpoint``, then make sure its
        server holds ``model`` (fleet attach and failover).

        A new channel rebinds the agent; a new *server* also drops the
        app's session baseline, which is useless there and would cost one
        failed delta round.  The digest handshake runs once per channel: a
        fresh one (first contact, or a reconnect after an edge death) must
        re-ask, because the store may have changed behind it.  A miss is
        answered at segment granularity: the reply names exactly the files
        the edge lacks, and the pre-send uploads only those — the rest is
        already resident, possibly under another model id.

        Returns the answer's ``present`` flag, or None when this channel
        was already asked.
        """
        server = endpoint.peer_name
        if self.endpoint is not endpoint:
            if self.endpoint is None or self.endpoint.peer_name != server:
                self.session_baselines.pop(self.runtime.app_name, None)
            self.rebind(endpoint)
        known = self._presends.get(server)
        if known is not None and known[0] is endpoint:
            self.presend = known[1]
            return None
        manifest = model.files()
        endpoint.send(
            protocol.MODEL_QUERY,
            protocol.ModelQueryPayload(
                model_id=model.model_id,
                fingerprint=model.fingerprint(),
                files=manifest,
            ),
        )
        reply = yield endpoint.recv_kind(protocol.MODEL_STATUS, timeout=timeout)
        manager = None
        if not reply.payload.present:
            missing = set(reply.payload.missing_files)
            resident = {f.name for f in manifest} - missing
            manager = PresendManager(
                self.sim,
                endpoint,
                [model],
                skip_files={model.model_id: resident} if resident else None,
            )
            manager.start()
        self.presend = manager
        self._presends[server] = (endpoint, manager)
        return reply.payload.present

    def forget(self, server: str) -> None:
        """Drop the handshake with ``server``: the next attach re-asks."""
        self._presends.pop(server, None)

    # -- app lifecycle -----------------------------------------------------------
    def start_app(self, app: WebApp, presend: bool = True) -> None:
        """Load the app; begin pre-sending its models if enabled."""
        self.runtime.load_app(app)
        self.runtime.events.set_interceptor(self.intercepted.append)
        if presend:
            self.presend = PresendManager(
                self.sim, self.endpoint, app.presend_models()
            )
            self.presend.start()
        else:
            self.presend = None

    def mark_offload_point(self, event_type: str, target_id: Optional[str] = None) -> None:
        """Declare which event triggers offloading (Fig. 5's choice)."""
        self.runtime.events.mark_offload_event(event_type, target_id)

    def take_intercepted(self) -> Event:
        if not self.intercepted:
            raise OffloadError("no event was intercepted")
        return self.intercepted.pop(0)

    # -- the migration ----------------------------------------------------------------
    def _await_reply(self, request_id: int, timeout: Optional[float]):
        """Wait for this request's RESULT or ERROR, discarding stale ones.

        Returns ``("result"|"error", message)`` or ``("timeout", None)``.
        """
        from repro.netsim.channel import ReceiveTimeout

        while True:
            result_wait = self.endpoint.recv_kind(protocol.RESULT, timeout=timeout)
            error_wait = self.endpoint.recv_kind(protocol.ERROR)
            try:
                yield self.sim.any_of([result_wait, error_wait])
            except ReceiveTimeout:
                self.endpoint.cancel_wait(result_wait)
                self.endpoint.cancel_wait(error_wait)
                # The timeout's traceback holds this frame, and the waits
                # hold the timeout: dropping them breaks the cycle.
                del result_wait, error_wait
                return ("timeout", None)
            if error_wait.triggered:
                self.endpoint.cancel_wait(result_wait)
                error_id = error_wait.value.payload.request_id
                if error_id in (0, request_id):
                    return ("error", error_wait.value)
                continue  # an old request's error; ignore it
            self.endpoint.cancel_wait(error_wait)
            reply = result_wait.value
            if reply.payload.request_id == request_id:
                return ("result", reply)
            # A stale RESULT from a slow earlier attempt; drop and re-wait.

    def offload(
        self,
        event: Event,
        server_costs: Optional[List[Any]] = None,
        use_session_cache: bool = True,
        reply_timeout: Optional[float] = None,
        retries: int = 0,
        batch_hint: Optional[Dict[str, str]] = None,
        deadline_s: Optional[float] = None,
    ):
        """Simulated process performing one offload round trip.

        ``batch_hint`` (``{"model_id": ..., "feature_global": ...}``) rides
        in the snapshot metadata and tells a batching server which stored
        model and which restored global hold this request's rear-half
        inference, so concurrent same-model requests can share one batched
        forward.  Servers without a serving loop ignore it.

        ``deadline_s`` is this request's completion SLO; it rides in the
        snapshot metadata, and the serving loop counts the item as a
        deadline miss if it completes later.  Servers without a serving
        loop ignore it.

        Yields simulation events; the process result is an
        :class:`OffloadOutcome`.  Raises :class:`OffloadError` if the server
        replies with an ERROR (e.g. no offloading system installed).

        With ``use_session_cache`` (default), follow-up offloads of the same
        app send a *delta* against the state the previous offload left on
        the server; if the server lost that session, the agent falls back
        to a full snapshot transparently.

        ``reply_timeout`` / ``retries`` enable loss tolerance: if no reply
        arrives in time the snapshot is retransmitted (the server dedups by
        request id, so execution stays at-most-once).
        """
        started_at = self.sim.now
        self._offload_counter.inc()

        # 1. Capture the execution state: full, or a delta against the
        # state cached on the server from the previous offload.
        baseline = (
            self.session_baselines.get(self.runtime.app_name)
            if use_session_cache
            else None
        )
        if baseline is not None:
            snapshot = capture_delta(
                self.runtime,
                baseline,
                pending_event=event,
                options=CaptureOptions(
                    live_only=True,
                    include_canvas_pixels=self.capture_options.include_canvas_pixels,
                ),
            )
        else:
            snapshot = capture_snapshot(self.runtime, event, self.capture_options)
        if server_costs is not None:
            snapshot.metadata["server_costs"] = server_costs
        if batch_hint is not None:
            snapshot.metadata["batch"] = dict(batch_hint)
        if deadline_s is not None:
            snapshot.metadata["deadline_s"] = float(deadline_s)
        capture_seconds = self.device.snapshot_capture_seconds(snapshot.size_bytes)
        yield self.device.execute(capture_seconds, label="snapshot-capture")

        # 2. Decide what must ride along: any model files the server lacks.
        deliveries: List[protocol.ModelDelivery] = []
        if self.presend is not None:
            deliveries = self.presend.pending_deliveries()
            if deliveries:
                # Stop the background upload; the snapshot supersedes it.
                self.presend.cancel()
                for delivery in deliveries:
                    self.presend.mark_delivered(delivery.model, delivery.files)

        # 3. Ship the snapshot and wait for the result, retransmitting the
        # whole payload on timeout (the lost message may have carried the
        # model files; the server's store and reply cache keep everything
        # idempotent).
        request_id = next(self._request_ids)
        payload = protocol.SnapshotPayload(
            snapshot=snapshot, deliveries=deliveries, request_id=request_id
        )
        attempt = 0
        send_event = self.endpoint.send(protocol.SNAPSHOT, payload)
        while True:
            status, reply = yield from self._await_reply(request_id, reply_timeout)
            if status == "result":
                break
            if status == "timeout":
                self._timeout_counter.inc()
                attempt += 1
                if attempt > retries:
                    self._failure_counter.inc()
                    raise OffloadError(
                        f"no reply to request {request_id} after "
                        f"{attempt} attempt(s)"
                    )
                self._retransmit_counter.inc()
                self.endpoint.send(protocol.SNAPSHOT, payload)
                continue
            reason = reply.payload.reason
            if baseline is not None and "no cached session" in reason:
                # The server lost our session (restart / handover): retry
                # once with a full snapshot.
                self._fallback_counter.inc()
                self.session_baselines.pop(self.runtime.app_name, None)
                outcome = yield from self.offload(
                    event,
                    server_costs=server_costs,
                    use_session_cache=False,
                    reply_timeout=reply_timeout,
                    retries=retries,
                    batch_hint=batch_hint,
                    deadline_s=deadline_s,
                )
                return outcome
            self._failure_counter.inc()
            raise OffloadError(reason)

        # 4. Apply the delta snapshot to continue execution locally.
        delta = reply.payload.delta
        restore_seconds = self.device.snapshot_restore_seconds(delta.size_bytes)
        yield self.device.execute(restore_seconds, label="delta-restore")
        report = restore_snapshot(delta, self.runtime)
        if report.pending_event is not None:
            self.runtime.run_event(report.pending_event)
        self.session_baselines[self.runtime.app_name] = reply.payload.fingerprint

        outbound = send_event.value if send_event.triggered and send_event.ok else None
        timings = reply.payload.timings
        return OffloadOutcome(
            snapshot=snapshot,
            delta=delta,
            request_id=request_id,
            phases=PhaseBreakdown(
                snapshot_capture_client=capture_seconds,
                transfer_to_server=(
                    (outbound.delivered_at - outbound.sent_at) if outbound else 0.0
                ),
                snapshot_restore_server=timings.get("restore", 0.0),
                server_queue=timings.get("queue", 0.0),
                server_exec=timings.get("exec", 0.0),
                snapshot_capture_server=timings.get("capture", 0.0),
                transfer_to_client=reply.delivered_at - reply.sent_at,
                snapshot_restore_client=restore_seconds,
            ),
            delivery_bytes=payload.delivery_bytes,
            server_queue_depth=reply.payload.queue_depth,
            started_at=started_at,
            finished_at=self.sim.now,
        )

    # -- local execution -----------------------------------------------------------
    def run_local(self, event: Event, costs: List[Any]):
        """Simulated process: execute the event's handlers on the client."""
        self._local_counter.inc()
        seconds = self.device.forward_seconds(costs)
        yield self.device.execute(seconds, label="local-dnn")
        self.runtime.run_event(event)
        return seconds
