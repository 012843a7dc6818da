"""Pre-sending NN models to the edge server (paper §III.B.1).

"When a web app starts, the client device sends the NN model files
(including the description/parameters of the NN) to the server.  The server
saves the files and sends an ACK message to the client.  After receiving
the ACK, the client just needs to send the snapshot without the model."

:class:`PresendManager` runs that upload as a simulated process — manifest
first (naming the model), then one message per file — and tracks the ACK
per model, which the edge sends as soon as the upload is complete.  The
upload can be *cancelled between files* when the user triggers offloading
early: whatever has not been transmitted yet rides along with the snapshot
instead (see :class:`repro.core.protocol.ModelDelivery`), so bytes are
never sent twice, and the edge ACKs the upload the delivery completes.

``skip_files`` feeds the segment-level handshake answer back in: files the
server reported as already resident (content-addressed — possibly uploaded
under a *different* model) are marked sent up front, so only the missing
segments ever touch the wire.  The skipped byte volume is accounted in the
``presend_files_skipped_total`` / ``presend_bytes_deduped_total`` counters,
and actually-transmitted file bytes in ``presend_bytes_sent_total``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core import protocol
from repro.netsim.channel import ChannelEnd
from repro.nn.model import Model, ModelFile
from repro.sim import Interrupt, Process, SimEvent, Simulator


class PresendManager:
    """Client-side model upload state machine."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: ChannelEnd,
        models: List[Model],
        *,
        skip_files: Optional[Dict[str, Set[str]]] = None,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.models = list(models)
        # Read once: each ``model_id`` re-checks every parameter.
        model_ids = [model.model_id for model in self.models]
        self._sent_files: Dict[str, set] = {model_id: set() for model_id in model_ids}
        self._skipped_counter = sim.metrics.counter(
            "presend_files_skipped_total",
            help="model files skipped because the server already held their "
            "bytes (segment-level handshake)",
        )
        self._deduped_counter = sim.metrics.counter(
            "presend_bytes_deduped_total",
            help="file bytes never sent thanks to content-addressed dedup",
        )
        self._sent_counter = sim.metrics.counter(
            "presend_bytes_sent_total",
            help="model file bytes transmitted by pre-send uploads",
        )
        if skip_files:
            for model_id, model in zip(model_ids, self.models):
                known = skip_files.get(model_id)
                if not known:
                    continue
                sent = self._sent_files[model_id]
                sizes = {file.name: file.size_bytes for file in model.files()}
                for name in sorted(known):
                    if name in sizes and name not in sent:
                        sent.add(name)
                        self._skipped_counter.inc()
                        self._deduped_counter.inc(sizes[name])
        self._acked: Dict[str, bool] = {model_id: False for model_id in model_ids}
        self._ack_events: Dict[str, SimEvent] = {
            model_id: sim.event(label=f"ack:{model_id}") for model_id in model_ids
        }
        self._upload_proc: Optional[Process] = None
        self._ack_proc: Optional[Process] = None
        self.started = False
        self.cancelled = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Begin uploading all models (call when the app starts)."""
        if self.started:
            raise RuntimeError("pre-sending already started")
        self.started = True
        self._upload_proc = self.sim.spawn(self._upload(), label="presend-upload")
        self._ack_proc = self.sim.spawn(
            _await_acks(self.sim, self.endpoint, self._acked, self._ack_events),
            label="presend-acks",
        )

    def cancel(self) -> None:
        """Stop sending further files (offloading is superseding the upload)."""
        self.cancelled = True
        if self._upload_proc is not None and self._upload_proc.is_alive:
            self._upload_proc.interrupt("superseded by snapshot")

    # -- queries -----------------------------------------------------------------
    def is_acked(self, model_id: str) -> bool:
        return self._acked.get(model_id, False)

    def ack_event(self, model_id: str) -> SimEvent:
        """Event that succeeds when the server ACKs this model."""
        return self._ack_events[model_id]

    def pending_deliveries(self) -> List[protocol.ModelDelivery]:
        """Model deliveries a snapshot must carry right now.

        Any un-ACKed model is included — with the files not transmitted yet
        (possibly none: when every file went out but the ACK is still in
        flight, the delivery is zero-byte, and the edge, whose upload is
        already complete, does not ACK it again).
        """
        deliveries = []
        for model in self.models:
            model_id = model.model_id
            if self.is_acked(model_id):
                continue
            sent = self._sent_files.get(model_id, set())
            files = [file for file in model.files() if file.name not in sent]
            deliveries.append(protocol.ModelDelivery(model=model, files=files))
        return deliveries

    def mark_delivered(self, model: Model, files: List[ModelFile]) -> None:
        """Record files that reached the server via a snapshot delivery."""
        sent = self._sent_files.setdefault(model.model_id, set())
        sent.update(file.name for file in files)

    # -- processes ----------------------------------------------------------------
    def _upload(self):
        try:
            for model in self.models:
                # Read once: the manifest announced is the one whose files
                # are sent (each ``model_id`` re-checks every parameter).
                model_id, files = model.model_id, model.files()
                sent = self._sent_files[model_id]
                manifest = protocol.ManifestPayload(model_id, files, model)
                yield self.endpoint.send(protocol.MODEL_MANIFEST, manifest)
                for file in files:
                    if file.name in sent:
                        continue  # already delivered via a snapshot
                    payload = protocol.ModelFilePayload(model_id, file)
                    # Mark at transmit time: once send() is called the bits
                    # are committed to the FIFO wire and will arrive before
                    # any later snapshot, so they must not ride along too.
                    sent.add(file.name)
                    self._sent_counter.inc(file.size_bytes)
                    yield self.endpoint.send(protocol.MODEL_FILE, payload)
        except Interrupt:
            return  # cancelled between messages; remaining files ride along


def _await_acks(
    sim: Simulator,
    endpoint: ChannelEnd,
    acked: Dict[str, bool],
    ack_events: Dict[str, SimEvent],
):
    """Mark each model ACKed, and succeed its event, as its MODEL_ACK
    arrives.  Not a method: the manager holds this process, so a process
    holding the manager would be a cycle, kept by one that waits for an
    ACK that never comes until the cyclic collector runs."""
    remaining = set(acked)
    while remaining:
        message = yield endpoint.recv_kind(protocol.MODEL_ACK)
        model_id = message.payload["model_id"]
        if model_id in remaining:
            remaining.discard(model_id)
            acked[model_id] = True
            ack_events[model_id].succeed(sim.now)
