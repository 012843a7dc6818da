"""Table 1 — overhead of VM-based installation vs snapshot migration.

Per benchmark model, four quantities:

* VM synthesis time and overlay size (on-demand installation);
* snapshot migration time and "snapshot except feature data" size, with
  pre-sending (model already at the server);
* the same without pre-sending (model rides along with the snapshot).

The orderings to preserve: synthesis (tens of seconds) ≫ first offload
without pre-send (7-12 s) ≫ offload with pre-send (sub-second), and the
with-pre-send snapshot-minus-feature is tiny (≤ 0.1 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.eval import calibration
from repro.eval.reporting import format_table
from repro.eval.scenarios import Testbed, build_paper_model
from repro.nn.zoo import PAPER_MODELS
from repro.vmsynth import DiskImage, build_overlay, estimate_installation


@dataclass
class Table1Row:
    """One model's column in Table 1."""

    model: str
    synthesis_seconds: float
    overlay_mb: float
    presend_migration_seconds: float
    presend_snapshot_code_mb: float
    nopresend_migration_seconds: float
    nopresend_payload_mb: float


def run_table1_model(
    model_name: str,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
) -> Table1Row:
    model = build_paper_model(model_name)

    # VM synthesis: overlay with the offloading stack + this model.
    base = DiskImage.ubuntu_base()
    overlay = build_overlay(base, [model])
    installation = estimate_installation(overlay, calibration.paper_link(bandwidth_bps))

    # Snapshot migration, with and without pre-sending.
    with_presend = Testbed(bandwidth_bps).run_offload(model_name, wait_for_ack=True)
    without_presend = Testbed(bandwidth_bps).run_offload(
        model_name, wait_for_ack=False
    )
    return Table1Row(
        model=model_name,
        synthesis_seconds=installation.total_seconds,
        overlay_mb=installation.overlay_mb,
        presend_migration_seconds=with_presend.migration_seconds,
        presend_snapshot_code_mb=with_presend.snapshot_code_bytes / 1e6,
        nopresend_migration_seconds=without_presend.migration_seconds,
        # Paper reports 27 / 44 MB here: the model (riding along) plus the
        # snapshot code, i.e. everything except the feature data.
        nopresend_payload_mb=(
            without_presend.delivery_bytes + without_presend.snapshot_code_bytes
        )
        / 1e6,
    )


def run_table1(
    models: Sequence[str] = PAPER_MODELS,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
) -> List[Table1Row]:
    return [run_table1_model(name, bandwidth_bps) for name in models]


def format_table1(rows: List[Table1Row]) -> str:
    return format_table(
        [
            "configuration",
            *[row.model for row in rows],
        ],
        [
            ["VM synthesis: time (s)"] + [row.synthesis_seconds for row in rows],
            ["VM synthesis: overlay (MB)"] + [row.overlay_mb for row in rows],
            ["Offload w/ pre-send: migration (s)"]
            + [row.presend_migration_seconds for row in rows],
            ["Offload w/ pre-send: snapshot-excl-feature (MB)"]
            + [row.presend_snapshot_code_mb for row in rows],
            ["Offload w/o pre-send: migration (s)"]
            + [row.nopresend_migration_seconds for row in rows],
            ["Offload w/o pre-send: payload-excl-feature (MB)"]
            + [row.nopresend_payload_mb for row in rows],
        ],
        title="Table 1 — VM-based installation vs snapshot-based offloading",
    )


def check_table1_shape(rows: List[Table1Row]) -> List[str]:
    """Violations of Table 1's orderings and magnitudes."""
    violations = []
    for row in rows:
        if not (
            row.presend_migration_seconds
            < row.nopresend_migration_seconds
            < row.synthesis_seconds
        ):
            violations.append(
                f"{row.model}: expected presend < no-presend < synthesis ordering"
            )
        if not row.presend_migration_seconds < 1.5:
            violations.append(
                f"{row.model}: with pre-sending migration should be ~sub-second, "
                f"got {row.presend_migration_seconds:.2f}s"
            )
        if not 5.0 < row.nopresend_migration_seconds < 20.0:
            violations.append(
                f"{row.model}: without pre-sending migration should be 7-12s-ish"
            )
        if not 15.0 < row.synthesis_seconds < 30.0:
            violations.append(
                f"{row.model}: VM synthesis should take ~19-24s, got "
                f"{row.synthesis_seconds:.1f}s"
            )
        if not row.presend_snapshot_code_mb < 0.1:
            violations.append(
                f"{row.model}: snapshot-except-feature should be tiny (<0.1 MB)"
            )
        expected_overlay = {"googlenet": 65.0, "agenet": 82.0, "gendernet": 82.0}
        target = expected_overlay.get(row.model)
        if target is not None and abs(row.overlay_mb - target) > 0.15 * target:
            violations.append(
                f"{row.model}: overlay {row.overlay_mb:.1f} MB not within 15% "
                f"of the paper's {target:.0f} MB"
            )
    return violations
