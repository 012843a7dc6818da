"""Fig. 6 — execution time of inference in the three benchmark apps.

Five configurations per app: Client, Server, Offloading before the ACK,
Offloading after the ACK, and Offloading with partial inference (at
1st_pool, per §IV.B).  Each configuration runs in a fresh testbed so the
timelines are independent, exactly like separate measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.session import SessionResult
from repro.eval import calibration
from repro.eval.reporting import format_table
from repro.eval.scenarios import Testbed
from repro.nn.zoo import PAPER_MODELS

CONFIGURATIONS = (
    "client",
    "server",
    "offload_before_ack",
    "offload_after_ack",
    "offload_partial",
)


@dataclass
class Fig6Row:
    """One benchmark app's bar group."""

    model: str
    results: Dict[str, SessionResult]

    def seconds(self, configuration: str) -> float:
        return self.results[configuration].total_seconds

    def all_correct(self) -> bool:
        return all(result.correct for result in self.results.values())


def run_fig6_model(
    model_name: str,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
    partial_point: str = calibration.FIG6_PARTIAL_POINT,
) -> Fig6Row:
    """All five configurations for one app."""
    results = {
        "client": Testbed(bandwidth_bps).run_client_only(model_name),
        "server": Testbed(bandwidth_bps).run_server_only(model_name),
        "offload_before_ack": Testbed(bandwidth_bps).run_offload(
            model_name, wait_for_ack=False
        ),
        "offload_after_ack": Testbed(bandwidth_bps).run_offload(
            model_name, wait_for_ack=True
        ),
        "offload_partial": Testbed(bandwidth_bps).run_offload_partial(
            model_name, partial_point
        ),
    }
    return Fig6Row(model=model_name, results=results)


def run_fig6(
    models: Sequence[str] = PAPER_MODELS,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
) -> List[Fig6Row]:
    """All apps, one row each, in the order given."""
    return [run_fig6_model(name, bandwidth_bps) for name in models]


def format_fig6(rows: List[Fig6Row]) -> str:
    return format_table(
        ["app"] + list(CONFIGURATIONS) + ["all correct"],
        [
            [row.model]
            + [row.seconds(configuration) for configuration in CONFIGURATIONS]
            + [str(row.all_correct())]
            for row in rows
        ],
        title="Fig. 6 — inference time (seconds) per configuration",
    )


def chart_fig6(rows: List[Fig6Row]) -> str:
    """ASCII bar groups, one per app — the visual shape of the figure."""
    from repro.eval.reporting import format_bar_chart

    blocks = []
    for row in rows:
        blocks.append(
            format_bar_chart(
                {
                    configuration: row.seconds(configuration)
                    for configuration in CONFIGURATIONS
                },
                title=f"{row.model}",
            )
        )
    return "\n\n".join(blocks)


def check_fig6_shape(rows: List[Fig6Row]) -> List[str]:
    """The paper's qualitative claims; returns a list of violations."""
    violations = []
    for row in rows:
        client = row.seconds("client")
        server = row.seconds("server")
        before = row.seconds("offload_before_ack")
        after = row.seconds("offload_after_ack")
        partial = row.seconds("offload_partial")
        if not server < client / 3:
            violations.append(f"{row.model}: server not much faster than client")
        if not after < before:
            violations.append(f"{row.model}: pre-sending did not help")
        if not after < client:
            violations.append(f"{row.model}: offloading after ACK slower than client")
        if not after < 2.0 * server:
            violations.append(
                f"{row.model}: offload-after-ACK not comparable to server-only"
            )
        if not partial >= after * 0.95:
            violations.append(
                f"{row.model}: partial inference unexpectedly beat full offload"
            )
        if not row.all_correct():
            violations.append(f"{row.model}: some configuration computed a wrong label")
    by_model = {row.model: row for row in rows}
    if "agenet" in by_model:
        row = by_model["agenet"]
        if not row.seconds("offload_before_ack") > row.seconds("client"):
            violations.append(
                "agenet: offloading before ACK should be slower than local execution"
            )
    if "googlenet" in by_model:
        row = by_model["googlenet"]
        if not row.seconds("offload_before_ack") < row.seconds("client"):
            violations.append(
                "googlenet: offloading before ACK should still beat local execution"
            )
    return violations
