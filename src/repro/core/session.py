"""End-to-end offloading sessions and their phase breakdowns.

One :class:`OffloadingSession` is one user interaction with a benchmark
app: the image is loaded, the inference button is clicked, and the
configured execution mode runs to completion on the virtual clock.  The
result carries the paper's Fig. 7 phase breakdown — snapshot capture (C),
transmission, restore (S), DNN execution, capture (S), transmission,
restore (C) — measured off the actual simulated timeline, plus the DOM
text the user would see (so correctness is checked, not assumed).

Modes (the paper's Fig. 6 configurations):

* ``client``  — the app runs entirely on the client.
* ``server``  — the app runs entirely on the server (:func:`run_server_only`).
* ``offload`` — snapshot-based offloading of the full inference handler;
  before the ACK the model files ride along, after the ACK only the
  snapshot travels.
* ``offload-partial`` — partial inference: ``front()`` on the client, the
  ``front_complete`` event offloads ``rear()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.client import (
    PHASE_TRACKS,
    ClientAgent,
    OffloadOutcome,
    PhaseBreakdown,
)
from repro.core.snapshot import CaptureOptions
from repro.devices.device import Device
from repro.nn.cost import LayerCost
from repro.sim import Simulator
from repro.web.app import WebApp
from repro.web.events import Event
from repro.web.runtime import WebRuntime
from repro.web.values import ImageData


@dataclass
class SessionResult:
    """Outcome of one inference interaction."""

    mode: str
    model_name: str
    total_seconds: float
    phases: PhaseBreakdown
    result_text: str = ""
    result_label: Optional[int] = None
    #: label the same model computes without any offloading (ground truth)
    expected_label: Optional[int] = None
    snapshot_bytes: int = 0
    snapshot_code_bytes: int = 0
    snapshot_feature_bytes: int = 0
    delivery_bytes: int = 0
    delta_bytes: int = 0
    partition_label: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def correct(self) -> bool:
        """Did offloading preserve the app's result?"""
        if self.expected_label is None or self.result_label is None:
            return False
        return self.result_label == self.expected_label

    @property
    def migration_seconds(self) -> float:
        """Table 1's "migration time": everything except DNN execution."""
        return self.total_seconds - self.phases.client_exec - self.phases.server_exec


def record_session_telemetry(sim: Simulator, result: "SessionResult") -> None:
    """Feed one finished session into ``sim.metrics`` and ``sim.spans``.

    Every phase duration is observed into the ``session_phase_seconds``
    histogram (labeled by phase and mode), and the positive phases are
    emitted as spans on the client / network / server tracks, reconstructed
    in execution order from ``started_at`` — the same timeline
    :mod:`repro.eval.traces` renders, now queryable as data.
    """
    registry = sim.metrics
    registry.counter(
        "sessions_total", help="finished sessions", mode=result.mode
    ).inc()
    registry.histogram(
        "session_total_seconds", help="wall time of one session",
        mode=result.mode,
    ).observe(result.total_seconds)
    phases = result.phases.as_dict()
    cursor = result.started_at
    for key, label, track in PHASE_TRACKS:
        duration = phases.get(key, 0.0)
        registry.histogram(
            "session_phase_seconds", help="duration of one session phase",
            phase=key, mode=result.mode,
        ).observe(duration)
        if duration <= 0:
            continue
        sim.spans.add(
            label,
            cursor,
            cursor + duration,
            track=track,
            category="session-phase",
            phase=key,
            mode=result.mode,
            model=result.model_name,
        )
        cursor += duration


class OffloadingSession:
    """Drives one user interaction through a configured execution mode."""

    def __init__(
        self,
        sim: Simulator,
        client: ClientAgent,
        app: WebApp,
        model_name: str,
        input_image: ImageData,
        *,
        full_costs: List[LayerCost],
        front_costs: Optional[List[LayerCost]] = None,
        rear_costs: Optional[List[LayerCost]] = None,
        expected_label: Optional[int] = None,
        partition_label: Optional[str] = None,
        reply_timeout: Optional[float] = None,
        retries: int = 0,
    ):
        self.sim = sim
        self.client = client
        self.app = app
        self.model_name = model_name
        self.input_image = input_image
        self.full_costs = full_costs
        self.front_costs = front_costs or []
        self.rear_costs = rear_costs or []
        self.expected_label = expected_label
        self.partition_label = partition_label
        #: loss tolerance for the offload modes (passed to ClientAgent.offload)
        self.reply_timeout = reply_timeout
        self.retries = retries

    # -- shared steps -----------------------------------------------------------
    def _load_image(self, runtime: WebRuntime) -> None:
        runtime.globals["pending_pixels"] = self.input_image
        runtime.dispatch("click", "load_btn")

    def _finish(
        self,
        mode: str,
        started_at: float,
        phases: PhaseBreakdown,
        runtime: WebRuntime,
        outcome: Optional[OffloadOutcome] = None,
    ) -> SessionResult:
        finished_at = self.sim.now
        total = finished_at - started_at
        phases.other = max(0.0, total - phases.accounted())
        result = SessionResult(
            mode=mode,
            model_name=self.model_name,
            total_seconds=total,
            phases=phases,
            result_text=runtime.document.get("result").text_content,
            result_label=runtime.globals.get("result_label"),
            expected_label=self.expected_label,
            partition_label=self.partition_label,
            started_at=started_at,
            finished_at=finished_at,
        )
        if outcome is not None:
            result.snapshot_bytes = outcome.snapshot.size_bytes
            result.snapshot_code_bytes = outcome.snapshot.code_bytes
            result.snapshot_feature_bytes = outcome.snapshot.feature_bytes
            result.delivery_bytes = outcome.delivery_bytes
            result.delta_bytes = outcome.delta.size_bytes
        record_session_telemetry(self.sim, result)
        return result

    # -- modes --------------------------------------------------------------------
    def run_client_only(self, presend: bool = False):
        """The app runs entirely on the client device."""
        self.client.start_app(self.app, presend=presend)
        self._load_image(self.client.runtime)
        started_at = self.sim.now
        event = Event("click", "infer_btn")
        yield from self.client.run_local(event, self.full_costs)
        phases = PhaseBreakdown(
            client_exec=self.client.device.forward_seconds(self.full_costs)
        )
        return self._finish("client", started_at, phases, self.client.runtime)

    def run_offload(
        self,
        wait_for_ack: bool,
        capture_options: CaptureOptions = CaptureOptions(include_canvas_pixels=True),
    ):
        """Full-inference offloading, before or after the pre-send ACK."""
        self.client.capture_options = capture_options
        self.client.start_app(self.app, presend=True)
        self._load_image(self.client.runtime)
        if wait_for_ack:
            acks = [
                self.client.presend.ack_event(model.model_id)
                for model in self.app.presend_models()
            ]
            yield self.sim.all_of(acks)
        started_at = self.sim.now
        self.client.mark_offload_point("click", "infer_btn")
        self.client.runtime.dispatch("click", "infer_btn")
        event = self.client.take_intercepted()
        outcome = yield from self.client.offload(
            event,
            server_costs=self.full_costs,
            reply_timeout=self.reply_timeout,
            retries=self.retries,
        )
        mode = "offload-after-ack" if wait_for_ack else "offload-before-ack"
        return self._finish(
            mode, started_at, outcome.phases, self.client.runtime, outcome
        )

    def run_offload_partial(
        self,
        wait_for_ack: bool = True,
        capture_options: CaptureOptions = CaptureOptions(),
    ):
        """Partial inference: front() locally, rear() on the edge server."""
        self.client.capture_options = capture_options
        self.client.start_app(self.app, presend=True)
        self._load_image(self.client.runtime)
        if wait_for_ack:
            acks = [
                self.client.presend.ack_event(model.model_id)
                for model in self.app.presend_models()
            ]
            yield self.sim.all_of(acks)
        started_at = self.sim.now
        self.client.mark_offload_point("front_complete")
        front_seconds = self.client.device.forward_seconds(self.front_costs)
        yield self.client.device.execute(front_seconds, label="front-dnn")
        self.client.runtime.dispatch("click", "infer_btn")  # front() runs here
        event = self.client.take_intercepted()
        outcome = yield from self.client.offload(
            event,
            server_costs=self.rear_costs,
            reply_timeout=self.reply_timeout,
            retries=self.retries,
        )
        outcome.phases.client_exec = front_seconds
        return self._finish(
            "offload-partial", started_at, outcome.phases, self.client.runtime,
            outcome,
        )


def run_server_only(
    sim: Simulator,
    server_device: Device,
    app: WebApp,
    model_name: str,
    input_image: ImageData,
    full_costs: List[LayerCost],
    expected_label: Optional[int] = None,
):
    """Simulated process: the app runs entirely on the server.

    The paper's "Server" bar: no migration, no network — just the inference
    on server hardware (the input is assumed present, as in their setup).
    """
    runtime = WebRuntime("server-browser")
    runtime.load_app(app)
    runtime.globals["pending_pixels"] = input_image
    runtime.dispatch("click", "load_btn")
    started_at = sim.now
    seconds = server_device.forward_seconds(full_costs)
    yield server_device.execute(seconds, label="server-dnn")
    runtime.run_event(Event("click", "infer_btn"))
    phases = PhaseBreakdown(server_exec=seconds)
    finished_at = sim.now
    total = finished_at - started_at
    phases.other = max(0.0, total - phases.accounted())
    result = SessionResult(
        mode="server",
        model_name=model_name,
        total_seconds=total,
        phases=phases,
        result_text=runtime.document.get("result").text_content,
        result_label=runtime.globals.get("result_label"),
        expected_label=expected_label,
        started_at=started_at,
        finished_at=finished_at,
    )
    record_session_telemetry(sim, result)
    return result


def expected_label_for(model, input_image: ImageData) -> int:
    """Ground-truth label: what the unsplit model computes locally."""
    probs = model.inference(np.asarray(input_image.data))
    return int(np.argmax(probs))


def expected_labels_for(model, input_images) -> List[int]:
    """Ground-truth labels for N images via one batched forward."""
    if not input_images:
        return []
    probs = model.inference_batch(
        [np.asarray(image.data) for image in input_images]
    )
    return [int(np.argmax(probs[index])) for index in range(probs.shape[0])]
