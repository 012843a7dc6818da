"""Fig. 8 — inference time with partial inference at various offloading
points, plus the feature-size analysis behind it.

For each benchmark model we sweep the offload point along the spine
(Input, 1st_conv, 1st_pool, 2nd_conv, ... — conv, pool and inception
positions), run a real partial-inference session at each point, and record
measured total time alongside the partition optimizer's prediction and the
serialized feature size.  The claims to preserve (§IV.B):

* time does not increase monotonically — it surges at conv points and
  dips at pool points;
* feature size drives transmission: GoogLeNet's feature is ~14.7 MB at
  1st_conv vs ~2.9 MB at 1st_pool;
* 1st_pool minimizes inference time among denaturing points, which is why
  Fig. 6's partial bar uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.partition import PartitionOptimizer
from repro.core.session import SessionResult
from repro.devices import edge_server_x86, odroid_xu4_client
from repro.devices.predictor import fit_predictor_for
from repro.eval import calibration
from repro.eval.reporting import format_series
from repro.eval.scenarios import Testbed, build_paper_model
from repro.nn.cost import network_costs, spine_costs
from repro.nn.zoo import PAPER_MODELS

#: spine kinds shown on the paper's X axis
SWEEP_KINDS = ("input", "conv", "pool", "inception")


@dataclass
class Fig8Point:
    """One offload point of one model's sweep."""

    model: str
    label: str
    index: int
    kind: str
    measured_seconds: float
    predicted_seconds: float
    feature_mb: float
    result: SessionResult


def sweep_labels(model_name: str, max_points: Optional[int] = None) -> List[str]:
    """The offload points on a model's Fig. 8 axis, in spine order."""
    model = build_paper_model(model_name)
    labels = [
        point.label
        for point in model.network.offload_points()
        if point.layer_kind in SWEEP_KINDS
    ]
    if max_points is None:
        return labels
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    return labels[:max_points]


def make_optimizer(model_name: str) -> PartitionOptimizer:
    """The partition optimizer, with predictors profiled per device."""
    model = build_paper_model(model_name)
    costs = network_costs(model.network)
    client_profile, server_profile = odroid_xu4_client(), edge_server_x86()
    return PartitionOptimizer(
        fit_predictor_for(client_profile, costs, noise=0.02),
        fit_predictor_for(server_profile, costs, noise=0.02),
        client_profile,
        server_profile,
    )


def run_fig8_model(
    model_name: str,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
    max_points: Optional[int] = None,
) -> List[Fig8Point]:
    """Measure + predict the whole sweep for one model."""
    model = build_paper_model(model_name)
    optimizer = make_optimizer(model_name)
    spine = {point.index: point for point in spine_costs(model.network)}
    link = calibration.paper_link(bandwidth_bps)
    points: List[Fig8Point] = []
    for label in sweep_labels(model_name, max_points):
        net_point = model.network.point_by_label(label)
        result = Testbed(bandwidth_bps).run_offload_partial(model_name, label)
        estimate = optimizer.estimate(model.network, net_point, link)
        points.append(
            Fig8Point(
                model=model_name,
                label=label,
                index=net_point.index,
                kind=net_point.layer_kind,
                measured_seconds=result.total_seconds,
                predicted_seconds=estimate.total_seconds,
                feature_mb=spine[net_point.index].feature_text_bytes / 1e6,
                result=result,
            )
        )
    return points


def run_fig8(
    models: Sequence[str] = PAPER_MODELS,
    bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
    max_points: Optional[int] = None,
) -> dict:
    return {
        model: run_fig8_model(model, bandwidth_bps, max_points)
        for model in models
    }


def format_fig8(points_by_model: dict) -> str:
    blocks = []
    for model, points in points_by_model.items():
        blocks.append(
            format_series(
                [point.label for point in points],
                {
                    "measured_s": [point.measured_seconds for point in points],
                    "predicted_s": [point.predicted_seconds for point in points],
                    "feature_MB": [point.feature_mb for point in points],
                },
                title=f"Fig. 8 — partial inference sweep: {model}",
            )
        )
    return "\n\n".join(blocks)


def check_fig8_shape(points_by_model: dict) -> List[str]:
    """Violations of the paper's Fig. 8 observations."""
    violations: List[str] = []
    for model, points in points_by_model.items():
        by_label = {point.label: point for point in points}
        conv = by_label.get("1st_conv")
        pool = by_label.get("1st_pool")
        if conv is None or pool is None:
            violations.append(f"{model}: sweep lacks 1st_conv/1st_pool points")
            continue
        if not pool.feature_mb < conv.feature_mb / 2.5:
            violations.append(
                f"{model}: pooling did not shrink the feature enough "
                f"({conv.feature_mb:.1f} -> {pool.feature_mb:.1f} MB)"
            )
        if not pool.measured_seconds < conv.measured_seconds:
            violations.append(
                f"{model}: inference time did not dip from 1st_conv to 1st_pool"
            )
        # Non-monotonicity: at least one later point is faster than an
        # earlier one (the paper's headline observation).
        measured = [point.measured_seconds for point in points]
        if all(a <= b for a, b in zip(measured, measured[1:])):
            violations.append(f"{model}: sweep is monotonically increasing")
        # 1st_pool is the best *denaturing* point (excluding input).
        denaturing = [point for point in points if point.label != "input"]
        best = min(denaturing, key=lambda point: point.measured_seconds)
        if best.label != "1st_pool":
            violations.append(
                f"{model}: best denaturing point is {best.label}, paper found 1st_pool"
            )
    return violations
