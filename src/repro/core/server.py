"""The edge-server agent.

A generic edge server in the paper runs "our offloading server program for
handling network connection, a web browser for executing the snapshot, and
the support libraries".  :class:`EdgeServer` is that program: it stores
pre-sent model files, ACKs completed uploads, and serves snapshot requests
by restoring each snapshot into a browser runtime, running the pending
event, and returning a delta snapshot — all on the server device's virtual
clock.  The browser device is a FIFO resource, so concurrent clients queue
honestly behind each other.

Servers can also start *without* the offloading system installed
(``installed=False``); they then refuse snapshots until a VM overlay is
synthesized (paper §III.B.3), which is how on-demand installation is
exercised end to end.

The browser state left behind by each served app is kept so follow-up
offloads can send deltas — the paper's §VI future work.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import protocol
from repro.core.snapshot import capture_delta, fingerprint_runtime, restore_snapshot
from repro.devices.device import Device
from repro.netsim.channel import ChannelEnd
from repro.netsim.message import Message
from repro.nn.modelstore import ModelStore, ModelStoreError
from repro.serve import ServingConfig, ServingDropped, ServingLoop, WorkItem
from repro.sim import Simulator
from repro.web.runtime import MissingModelError, WebRuntime


class _BatchRowProxy:
    """Serves one precomputed batched-forward row as ``inference``.

    While a batched work item's pending event runs, the browser's installed
    model is swapped for this proxy so the handler's ``inference(feature)``
    call returns the row the batched forward already computed — the layer
    walk happened once for the whole batch.  Any call with a *different*
    input (a handler that infers twice, or on fresh data) falls through to
    the real model, so correctness never depends on the swap.
    """

    def __init__(self, model, feature, row):
        self._model = model
        self._feature = feature
        self._row = row

    def inference(self, x, *args, **kwargs):
        if not args and not kwargs and np.array_equal(
            np.asarray(x), self._feature
        ):
            return np.array(self._row, copy=True)
        return self._model.inference(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._model, name)


class EdgeServer:
    """One edge server: model store + browser pool + protocol loops.

    ``serve`` may be called once per connected client; each endpoint gets
    its own protocol loop, while the model store, the session cache and the
    (FIFO) browser device are shared — multiple clients contend for the
    same hardware, as on a real edge node.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        name: str = "edge",
        installed: bool = True,
        session_cache_capacity: int = 32,
        serving: Optional[ServingConfig] = None,
        memory_budget_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.device = device
        self.name = name
        self.installed = installed
        #: the continuous-batching loop; None = sequential inline serving
        #: (the seed behaviour, byte-identical by construction)
        self.serving: Optional[ServingLoop] = (
            ServingLoop(sim, device, name, serving, compute=self._compute_batch)
            if serving is not None
            else None
        )
        #: model-cache budget; None = unbounded (the seed behaviour)
        self.memory_budget_bytes = memory_budget_bytes
        self.store = self.fresh_store()
        self.served_requests = 0
        self.errors: List[str] = []
        #: the most recent browser runtime, for inspection in tests
        self.last_runtime: Optional[WebRuntime] = None
        self.endpoints: List[ChannelEnd] = []
        #: virtual times at which an overlay finished installing
        self.install_log: List[float] = []
        #: keep the browser (state + code) of each served app so follow-up
        #: offloads can send deltas (the paper's future-work reuse).
        #: Bounded: edge servers have finite memory, so sessions are
        #: evicted LRU beyond ``session_cache_capacity`` — clients whose
        #: session was evicted transparently fall back to full snapshots.
        if session_cache_capacity <= 0:
            raise ValueError("session_cache_capacity must be positive")
        self.session_cache_capacity = session_cache_capacity
        self._sessions: "OrderedDict[tuple, WebRuntime]" = OrderedDict()
        self.evicted_sessions = 0
        #: at-most-once execution: replies cached per (sender, request_id)
        #: so a retransmitted request is answered without re-executing
        self._replies: Dict[tuple, protocol.ResultPayload] = {}
        metrics = sim.metrics
        self._requests_counter = metrics.counter(
            "server_requests_total", help="snapshot requests received",
            server=name,
        )
        self._executions_counter = metrics.counter(
            "server_executions_total",
            help="offloaded computations actually executed (at-most-once "
            "per request id: cached replies do not count)",
            server=name,
        )
        self._cached_reply_counter = metrics.counter(
            "server_replies_from_cache_total",
            help="retransmitted requests answered from the reply cache",
            server=name,
        )
        self._refused_counter = metrics.counter(
            "server_refused_requests_total",
            help="requests refused because no offloading system is installed",
            server=name,
        )
        self._error_counter = metrics.counter(
            "server_errors_total", help="ERROR replies sent", server=name
        )
        self._cache_hit_counter = metrics.counter(
            "server_session_cache_hits_total",
            help="delta requests served from a cached session", server=name,
        )
        self._cache_miss_counter = metrics.counter(
            "server_session_cache_misses_total",
            help="delta requests whose session was gone", server=name,
        )
        self._cache_evict_counter = metrics.counter(
            "server_session_cache_evictions_total",
            help="sessions evicted LRU beyond capacity", server=name,
        )
        self._cache_size_gauge = metrics.gauge(
            "server_session_cache_size", help="sessions currently cached",
            server=name,
        )

    @property
    def executions(self) -> int:
        """How many requests this server actually executed (not cached)."""
        return int(self._executions_counter.value)

    def fresh_store(self) -> ModelStore:
        """A new, empty model store with this server's budget and metrics.

        Used at construction and by cold-replacement fault injection (a
        swapped-in box with an empty disk keeps the same configuration).
        """
        return ModelStore(
            self.memory_budget_bytes, metrics=self.sim.metrics, server=self.name
        )

    def restart(self) -> None:
        """Simulate an offloading-server process restart.

        All in-memory state is lost — cached sessions and the at-most-once
        reply cache — so a client whose reply was in flight may observe a
        re-execution, and delta offloads transparently fall back to full
        snapshots.  The model store and the synthesized VM overlay survive
        (they live on disk in the paper's design).
        """
        self._sessions.clear()
        self._replies.clear()
        self._cache_size_gauge.set(0)
        if self.serving is not None:
            # Queued-but-unformed work dies with the process; each waiting
            # protocol loop resumes with the failure and answers its
            # (likely dead) channel through the ordinary error path.
            self.serving.drain(
                ServingDropped(f"server {self.name} restarted")
            )
        self.sim.metrics.counter(
            "server_restarts_total", help="simulated process restarts",
            server=self.name,
        ).inc()

    # -- wiring ---------------------------------------------------------------
    def serve(self, endpoint: ChannelEnd) -> None:
        """Attach a client channel endpoint and start its protocol loop."""
        self.endpoints.append(endpoint)
        self.sim.spawn(
            self._loop(endpoint), label=f"server:{self.name}:{len(self.endpoints)}"
        )

    def _loop(self, endpoint: ChannelEnd):
        while True:
            message = yield endpoint.recv()
            handler = {
                protocol.PING: self._on_ping,
                protocol.MODEL_MANIFEST: self._on_manifest,
                protocol.MODEL_FILE: self._on_model_file,
                protocol.MODEL_OBJECT: self._on_model_object,
                protocol.MODEL_QUERY: self._on_model_query,
                protocol.SNAPSHOT: self._on_snapshot,
                protocol.VM_OVERLAY: self._on_vm_overlay,
            }.get(message.kind)
            if handler is None:
                self._error(endpoint, f"unknown message kind {message.kind!r}")
                continue
            result = handler(endpoint, message)
            if result is not None:  # handler is a sub-process generator
                try:
                    yield from result
                except Exception as exc:  # a failed request must not kill the loop
                    request_id = getattr(message.payload, "request_id", 0)
                    self._error(endpoint, f"request failed: {exc}", request_id)

    # -- capability ---------------------------------------------------------------
    def _on_ping(self, endpoint: ChannelEnd, message: Message) -> None:
        endpoint.send(
            protocol.PONG,
            protocol.CapabilityPayload(
                has_offloading_system=self.installed, server_name=self.name
            ),
        )

    # -- model upload ---------------------------------------------------------------
    def _on_manifest(self, endpoint: ChannelEnd, message: Message) -> None:
        if not self._require_installed(endpoint, "model upload"):
            return
        manifest: protocol.ManifestPayload = message.payload
        try:
            self.store.begin_upload(manifest.model_id, manifest.files)
        except ModelStoreError as exc:
            self._error(endpoint, str(exc))

    def _on_model_file(self, endpoint: ChannelEnd, message: Message) -> None:
        if not self._require_installed(endpoint, "model upload"):
            return
        payload: protocol.ModelFilePayload = message.payload
        try:
            self.store.receive_file(payload.model_id, payload.file)
        except ModelStoreError as exc:
            self._error(endpoint, str(exc))

    def _on_model_object(self, endpoint: ChannelEnd, message: Message) -> None:
        if not self._require_installed(endpoint, "model upload"):
            return
        payload: protocol.ModelObjectPayload = message.payload
        try:
            self.store.attach_model(payload.model_id, payload.model)
        except ModelStoreError as exc:
            self._error(endpoint, str(exc))
            return
        endpoint.send(protocol.MODEL_ACK, protocol.ack_payload(payload.model_id))

    def _on_model_query(self, endpoint: ChannelEnd, message: Message) -> None:
        """Digest handshake: answer whether a matching model is stored.

        A fleet client failing over to this edge asks before re-running
        pre-send; a hit means some earlier client (or this one, before the
        server restarted — the store survives restarts) already uploaded a
        model with the same params fingerprint, so the whole upload can be
        skipped.  An uninstalled server answers ``present=False`` rather
        than erroring: the query is a probe, not a request.
        """
        payload: protocol.ModelQueryPayload = message.payload
        present = self.installed and self.store.matches_fingerprint(
            payload.model_id, payload.fingerprint
        )
        # Exactly the files whose bytes this store lacks, content-addressed —
        # a file another model already uploaded under a different name is
        # *not* missing.
        if not self.installed:
            missing = [file.name for file in payload.files]
        elif present:
            missing = []
        else:
            missing = self.store.missing_from_manifest(payload.files)
        self.sim.metrics.counter(
            "server_model_queries_total",
            help="digest-handshake queries answered",
            server=self.name,
            present=str(bool(present)).lower(),
        ).inc()
        endpoint.send(
            protocol.MODEL_STATUS,
            protocol.ModelStatusPayload(
                model_id=payload.model_id,
                present=present,
                server_name=self.name,
                missing_files=missing,
            ),
        )

    # -- snapshots --------------------------------------------------------------------
    def _on_snapshot(self, endpoint: ChannelEnd, message: Message):
        """Returns the request-serving sub-process."""
        payload: protocol.SnapshotPayload = message.payload
        self._requests_counter.inc()
        if not self.installed:
            self._refused_counter.inc()
            self._error(
                endpoint, "no offloading system installed", payload.request_id
            )
            return None
        return self._serve_snapshot(endpoint, payload, sender=message.sender)

    def _serve_snapshot(
        self,
        endpoint: ChannelEnd,
        payload: protocol.SnapshotPayload,
        sender: str = "",
    ):
        snapshot = payload.snapshot
        timings: Dict[str, float] = {}

        # At-most-once: a retransmission of an already-served request (the
        # reply was lost in flight) gets the cached reply; re-executing a
        # delta snapshot twice would corrupt the cached session.
        reply_key = (sender, payload.request_id)
        if payload.request_id and reply_key in self._replies:
            self._cached_reply_counter.inc()
            endpoint.send(protocol.RESULT, self._replies[reply_key])
            return

        # Any model files delivered with the snapshot are stored first,
        # completing uploads the pre-send did not finish.
        for delivery in payload.deliveries:
            model = delivery.model
            try:
                self.store.begin_upload(model.model_id, model.files())
                for file in delivery.files:
                    self.store.receive_file(model.model_id, file)
                entry = self.store.begin_upload(model.model_id, model.files())
                if entry.complete and entry.model is None:
                    self.store.attach_model(model.model_id, model)
            except ModelStoreError as exc:
                self._error(endpoint, str(exc), payload.request_id)
                return

        # Resolve the executing browser: a cached session for delta
        # snapshots, a fresh runtime for full snapshots.
        session_key = (sender, snapshot.app_name)
        if snapshot.kind == "delta":
            browser = self._sessions.get(session_key)
            if browser is None:
                self._cache_miss_counter.inc()
                self._error(
                    endpoint,
                    f"no cached session for app {snapshot.app_name!r}",
                    payload.request_id,
                )
                return
            self._cache_hit_counter.inc()
            self._sessions.move_to_end(session_key)  # LRU touch
        else:
            browser = WebRuntime(f"{self.name}-browser")
        for model_id in snapshot.model_refs.values():
            if self.store.has_complete(model_id):
                try:
                    browser.install_model(self.store.get_model(model_id))
                except ModelStoreError:
                    pass  # files complete but no runnable handle yet

        # 1. Restore the snapshot (virtual: parse cost; real: exec program).
        restore_seconds = self.device.snapshot_restore_seconds(snapshot.size_bytes)
        yield self.device.execute(restore_seconds, label="snapshot-restore")
        timings["restore"] = restore_seconds
        try:
            report = restore_snapshot(snapshot, browser)
            # What step 3 diffs the handler's changes against.
            baseline = fingerprint_runtime(browser)
        except Exception as exc:
            self._error(endpoint, f"restore failed: {exc}", payload.request_id)
            return
        self.last_runtime = browser

        # 2. Continue execution: run the pending event's handlers — inline
        # (sequential, the seed behaviour) or through the serving loop's
        # batch queue (enqueue, yield, resume on batch completion).
        exec_seconds = self._execution_seconds(snapshot)
        if self.serving is not None and report.pending_event is not None:
            model_id, feature = self._batch_target(snapshot, browser)
            item = self.serving.submit(
                sender=sender,
                request_id=payload.request_id,
                browser=browser,
                event=report.pending_event,
                exec_seconds=exec_seconds,
                model_id=model_id,
                feature=feature,
                deadline_s=snapshot.metadata.get("deadline_s"),
            )
            yield item.done
            timings["queue"] = item.queue_seconds
            timings["exec"] = item.exec_share_seconds
            self._executions_counter.inc()
            if item.error is not None:
                if isinstance(item.error, MissingModelError):
                    self._error(endpoint, str(item.error), payload.request_id)
                else:
                    self._error(
                        endpoint,
                        f"handler failed: {item.error}",
                        payload.request_id,
                    )
                return
        else:
            yield self.device.execute(exec_seconds, label="dnn-exec")
            timings["exec"] = exec_seconds
            self._executions_counter.inc()
            if report.pending_event is not None:
                try:
                    browser.run_event(report.pending_event)
                except MissingModelError as exc:
                    self._error(endpoint, str(exc), payload.request_id)
                    return
                except Exception as exc:
                    self._error(
                        endpoint, f"handler failed: {exc}", payload.request_id
                    )
                    return

        # 3. Capture the new state as a delta snapshot and send it back.
        delta = capture_delta(browser, baseline)
        capture_seconds = self.device.snapshot_capture_seconds(delta.size_bytes)
        yield self.device.execute(capture_seconds, label="snapshot-capture")
        timings["capture"] = capture_seconds
        self.served_requests += 1
        # Keep the browser for follow-up delta offloads and tell the client
        # exactly what state was left behind.
        self._sessions[session_key] = browser
        self._sessions.move_to_end(session_key)
        while len(self._sessions) > self.session_cache_capacity:
            self._sessions.popitem(last=False)  # evict least recent
            self.evicted_sessions += 1
            self._cache_evict_counter.inc()
        self._cache_size_gauge.set(len(self._sessions))
        reply = protocol.ResultPayload(
            delta=delta,
            request_id=payload.request_id,
            timings=timings,
            fingerprint=delta.fingerprint,
            queue_depth=(
                self.serving.depth() if self.serving is not None else 0
            ),
        )
        if payload.request_id:
            self._replies[reply_key] = reply
        endpoint.send(protocol.RESULT, reply)

    def batch_partial_inference(self, model_id: str, features) -> list:
        """Run one batched rear-part forward for N concurrent sessions.

        Under heavy traffic many clients offload the *same* pre-sent model
        at once; instead of N independent layer walks, the stored model's
        compiled plan stacks all N feature tensors through one
        im2col/matmul per scheduled DAG step — branch-and-join stages
        (inception concats, residual adds) included, since the plan inlines
        composites into first-class steps (``Model.inference_batch``).
        Returns the
        per-session outputs in request order.  Originally an explicit
        server API exercised only by the throughput benchmark; with a
        :class:`~repro.serve.ServingLoop` attached it is the request path —
        the loop's batches (size >= 2) land here, so the
        ``server_batch_forwards_total`` / ``server_batch_size`` metrics
        count real serving traffic.
        """
        if not features:
            return []
        model = self.store.get_model(model_id)
        outputs = model.inference_batch(features)
        self.sim.metrics.counter(
            "server_batch_forwards_total",
            help="batched rear-part forwards executed", server=self.name,
        ).inc()
        self.sim.metrics.histogram(
            "server_batch_size",
            help="sessions per batched forward", server=self.name,
        ).observe(float(len(features)))
        return [outputs[index] for index in range(outputs.shape[0])]

    def _execution_seconds(self, snapshot) -> float:
        """Virtual duration of the offloaded computation on this device."""
        costs = snapshot.metadata.get("server_costs")
        if costs:
            return self.device.forward_seconds(costs)
        return 0.0

    def _batch_target(
        self, snapshot, browser: WebRuntime
    ) -> Tuple[Optional[str], Optional[np.ndarray]]:
        """Resolve a snapshot's batch hint against the restored state.

        Clients that offload a rear-half inference attach
        ``metadata["batch"] = {"model_id", "feature_global"}``; the feature
        tensor itself only exists *after* restore, so resolution happens
        here.  Anything missing or malformed makes the item solo — it still
        flows through the serving loop (queue accounting, batches of one)
        but never shares a forward.
        """
        hint = snapshot.metadata.get("batch")
        if not isinstance(hint, dict):
            return None, None
        model_id = hint.get("model_id")
        feature_global = hint.get("feature_global")
        if not model_id or not feature_global:
            return None, None
        value = browser.globals.get(feature_global)
        data = getattr(value, "data", None)
        if data is None:
            return None, None
        return model_id, np.asarray(data)

    def _compute_batch(self, batch: List[WorkItem]) -> None:
        """Run the real handlers for one dispatched batch.

        Real batches (>= 2 items, one shared model id by queue construction)
        go through :meth:`batch_partial_inference` — one stacked layer walk
        — and each item's handler reads its row back through a
        :class:`_BatchRowProxy`.  Batches of one take the untouched
        per-item path: a batched forward of one would return the same bits
        (:meth:`~repro.nn.plan.ExecutionPlan.forward_batch`), but it would
        count as a batch in the ``server_batch_*`` telemetry.  Handler
        exceptions are stored per item for the protocol loop to classify;
        one bad request never poisons its batchmates.
        """
        rows = None
        if len(batch) > 1:
            try:
                rows = self.batch_partial_inference(
                    batch[0].model_id,
                    [item.feature for item in batch],
                )
            except Exception:
                rows = None  # fall back to independent per-item forwards
        for index, item in enumerate(batch):
            try:
                real = (
                    item.browser.installed_models.get(item.model_id)
                    if item.model_id is not None
                    else None
                )
                if rows is not None and real is not None:
                    item.browser.installed_models[item.model_id] = (
                        _BatchRowProxy(real, item.feature, rows[index])
                    )
                    try:
                        item.browser.run_event(item.event)
                    finally:
                        item.browser.installed_models[item.model_id] = real
                else:
                    item.browser.run_event(item.event)
            except Exception as exc:
                item.error = exc

    # -- on-demand installation -----------------------------------------------------
    def _on_vm_overlay(self, endpoint: ChannelEnd, message: Message):
        overlay = message.payload
        return self._synthesize(endpoint, overlay)

    def _synthesize(self, endpoint: ChannelEnd, overlay):
        """VM synthesis: decompress the overlay, apply it to the base image."""
        seconds = overlay.synthesis_seconds()
        yield self.device.execute(seconds, label="vm-synthesis")
        self.installed = True
        self.install_log.append(self.sim.now)
        for model in overlay.bundled_models:
            self.store.begin_upload(model.model_id, model.files())
            for file in model.files():
                self.store.receive_file(model.model_id, file)
            self.store.attach_model(model.model_id, model)
        endpoint.send(protocol.VM_READY, {"server": self.name})

    # -- helpers ---------------------------------------------------------------------
    def _require_installed(self, endpoint: ChannelEnd, what: str) -> bool:
        if not self.installed:
            self._refused_counter.inc()
            self._error(endpoint, f"{what} refused: no offloading system installed")
            return False
        return True

    def _error(self, endpoint: ChannelEnd, reason: str, request_id: int = 0) -> None:
        self.errors.append(reason)
        self._error_counter.inc()
        endpoint.send(protocol.ERROR, protocol.ErrorPayload(reason, request_id))
