"""Fig. 7 — breakdown of the inference time.

For the two offloading configurations the paper decomposes (after-ACK full
offloading and partial inference), show where the time goes: snapshot
capture (C), transmission, snapshot restore (S), DNN execution, snapshot
capture (S), transmission, snapshot restore (C).  The paper's finding to
preserve: snapshot overheads are negligible next to DNN execution, and
server execution dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.session import SessionResult
from repro.eval import calibration
from repro.eval.reporting import format_stacked_bars
from repro.eval.scenarios import Testbed
from repro.nn.zoo import PAPER_MODELS

#: segment order follows the paper's legend
SEGMENTS = (
    "client_exec",
    "snapshot_capture_client",
    "transfer_to_server",
    "snapshot_restore_server",
    "server_exec",
    "snapshot_capture_server",
    "transfer_to_client",
    "snapshot_restore_client",
    "other",
)


@dataclass
class Fig7Bar:
    """One stacked bar: a (model, configuration) pair."""

    model: str
    configuration: str
    segments: Dict[str, float]
    result: SessionResult

    @property
    def total(self) -> float:
        return sum(self.segments.values())

    def snapshot_overhead(self) -> float:
        """Capture + restore on both sides."""
        return (
            self.segments["snapshot_capture_client"]
            + self.segments["snapshot_restore_server"]
            + self.segments["snapshot_capture_server"]
            + self.segments["snapshot_restore_client"]
        )

    def dnn_exec(self) -> float:
        return self.segments["client_exec"] + self.segments["server_exec"]


def _bar(model: str, configuration: str, result: SessionResult) -> Fig7Bar:
    segments = result.phases.as_dict()
    ordered = {name: segments[name] for name in SEGMENTS}
    return Fig7Bar(
        model=model, configuration=configuration, segments=ordered, result=result
    )


def run_fig7_model(
    model_name: str,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
) -> List[Fig7Bar]:
    """Both decomposed configurations for one app."""
    after = Testbed(bandwidth_bps).run_offload(model_name, wait_for_ack=True)
    partial = Testbed(bandwidth_bps).run_offload_partial(
        model_name, calibration.FIG6_PARTIAL_POINT
    )
    return [
        _bar(model_name, "offload_after_ack", after),
        _bar(model_name, "offload_partial", partial),
    ]


def run_fig7(
    models: Sequence[str] = PAPER_MODELS,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
) -> List[Fig7Bar]:
    bars: List[Fig7Bar] = []
    for model in models:
        bars.extend(run_fig7_model(model, bandwidth_bps))
    return bars


def format_fig7(bars: List[Fig7Bar]) -> str:
    return format_stacked_bars(
        {f"{bar.model} / {bar.configuration}": bar.segments for bar in bars},
        title="Fig. 7 — breakdown of the inference time",
    )


def check_fig7_shape(bars: List[Fig7Bar]) -> List[str]:
    """Violations of the paper's breakdown claims."""
    violations = []
    for bar in bars:
        if not bar.snapshot_overhead() < 0.5 * bar.dnn_exec():
            violations.append(
                f"{bar.model}/{bar.configuration}: snapshot overhead not "
                "negligible vs DNN execution"
            )
        dominant = max(bar.segments, key=bar.segments.get)
        if dominant not in ("server_exec", "client_exec"):
            violations.append(
                f"{bar.model}/{bar.configuration}: dominant phase is "
                f"{dominant}, expected DNN execution"
            )
    return violations
