"""Accuracy-vs-deadline sweep for multi-exit models (Edgent-style).

For each multi-exit model we sweep a grid of completion deadlines at
several bandwidths and record the joint (split, exit) pair the optimizer
picks per deadline (:meth:`~repro.core.partition.PartitionOptimizer.
choose_under_deadline`).  The claims to preserve:

* at a fixed bandwidth, tightening the deadline never moves the chosen
  exit *later* — accuracy degrades monotonically as the SLO tightens;
* a generous enough deadline always picks the full network (the final
  exit, at full accuracy);
* at a fixed deadline, the chosen split shifts with bandwidth — slow
  links push the split toward smaller features;
* every choice marked feasible actually meets its deadline.

The deadline grid is derived from the model's own (split, exit) estimates
across all swept bandwidths: one mark just above each exit's feasibility
threshold (the fastest pair reaching that exit) per bandwidth, plus one
below the global fastest pair and one above the global slowest — so the
sweep always shows the infeasible fallback region, *every* exit
transition, and the full-network plateau, whatever the model's scale.
Everything is analytic (predictor fits are deterministically seeded), so
same-seed runs render the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.eval import calibration
from repro.eval.fig8 import make_optimizer
from repro.eval.reporting import format_table
from repro.eval.scenarios import build_paper_model
from repro.nn.zoo import EXIT_MODELS

#: bandwidths swept by default (Mbps); the paper's 30 Mbps in the middle
DEFAULT_BANDWIDTHS_MBPS = (5.0, 30.0, 100.0)


@dataclass
class AccuracyPoint:
    """One (deadline, bandwidth) cell of one model's sweep."""

    model: str
    bandwidth_mbps: float
    deadline_ms: float
    split_label: str
    split_index: int
    exit_name: str
    exit_index: int
    accuracy: float
    predicted_seconds: float
    feasible: bool


def deadline_grid_ms(probe_choices) -> List[float]:
    """A data-driven deadline grid (ms) hitting every exit transition.

    From each bandwidth's full estimate sweep: one mark 2% above each
    exit's feasibility threshold (the fastest pair reaching that exit) —
    a deadline where that exit is just feasible — plus one mark at 80% of
    the global fastest pair (nothing feasible: the fallback region) and
    one at 120% of the global slowest (everything feasible: the full
    network wins).  Rounded to microseconds so rendered bytes are stable.
    """
    marks = set()
    totals: List[float] = []
    for choice in probe_choices:
        threshold_by_exit: Dict[str, float] = {}
        for pair in choice.estimates:
            totals.append(pair.total_seconds)
            name = pair.exit.name
            if (
                name not in threshold_by_exit
                or pair.total_seconds < threshold_by_exit[name]
            ):
                threshold_by_exit[name] = pair.total_seconds
        marks.update(1.02 * seconds for seconds in threshold_by_exit.values())
    marks.add(0.8 * min(totals))
    marks.add(1.2 * max(totals))
    return sorted(round(mark * 1e3, 3) for mark in marks)


def run_fig_accuracy_model(
    model_name: str,
    bandwidths_mbps: Sequence[float] = DEFAULT_BANDWIDTHS_MBPS,
) -> List[AccuracyPoint]:
    """Sweep deadlines x bandwidths for one multi-exit model.

    One shared deadline grid covers every bandwidth (derived from the
    union of estimate sweeps), so fixed-deadline rows compare splits
    across bandwidths directly.
    """
    model = build_paper_model(model_name)
    network = model.network
    optimizer = make_optimizer(model_name)
    links = {mbps: calibration.paper_link(mbps * 1e6) for mbps in bandwidths_mbps}
    # One probe choice per bandwidth gets the full estimate sweep; the
    # union of sweeps drives the deadline grid.
    probes = {
        mbps: optimizer.choose_under_deadline(network, link, 3600.0)
        for mbps, link in links.items()
    }
    deadlines_ms = deadline_grid_ms(probes.values())
    points: List[AccuracyPoint] = []
    for mbps in bandwidths_mbps:
        for deadline_ms in deadlines_ms:
            choice = optimizer.choose_under_deadline(
                network, links[mbps], deadline_ms / 1e3
            )
            points.append(
                AccuracyPoint(
                    model=model_name,
                    bandwidth_mbps=mbps,
                    deadline_ms=deadline_ms,
                    split_label=choice.point.label,
                    split_index=choice.point.index,
                    exit_name=choice.exit.name,
                    exit_index=choice.exit.index,
                    accuracy=choice.accuracy,
                    predicted_seconds=choice.best.total_seconds,
                    feasible=choice.feasible,
                )
            )
    return points


def run_fig_accuracy(
    models: Sequence[str] = EXIT_MODELS,
    bandwidths_mbps: Sequence[float] = DEFAULT_BANDWIDTHS_MBPS,
) -> Dict[str, List[AccuracyPoint]]:
    return {
        model: run_fig_accuracy_model(model, bandwidths_mbps)
        for model in models
    }


def format_fig_accuracy(points_by_model: Dict[str, List[AccuracyPoint]]) -> str:
    blocks = []
    for model, points in points_by_model.items():
        rows = [
            [
                f"{point.bandwidth_mbps:g}",
                f"{point.deadline_ms:.3f}",
                point.split_label,
                point.exit_name,
                f"{point.accuracy:.3f}",
                f"{point.predicted_seconds * 1e3:.3f}",
                "yes" if point.feasible else "no",
            ]
            for point in points
        ]
        blocks.append(
            format_table(
                [
                    "bw_mbps",
                    "deadline_ms",
                    "split",
                    "exit",
                    "accuracy",
                    "predicted_ms",
                    "feasible",
                ],
                rows,
                title=f"Accuracy vs deadline — {model}",
            )
        )
    return "\n\n".join(blocks)


def check_fig_accuracy_shape(
    points_by_model: Dict[str, List[AccuracyPoint]]
) -> List[str]:
    """Violations of the accuracy-scaling claims."""
    violations: List[str] = []
    split_varied = False
    multi_bandwidth = False
    for model, points in points_by_model.items():
        by_bw: Dict[float, List[AccuracyPoint]] = {}
        for point in points:
            by_bw.setdefault(point.bandwidth_mbps, []).append(point)
        for mbps, sweep in by_bw.items():
            sweep = sorted(sweep, key=lambda point: point.deadline_ms)
            exits = [point.exit_index for point in sweep]
            if any(a > b for a, b in zip(exits, exits[1:])):
                violations.append(
                    f"{model}@{mbps:g}Mbps: a tighter deadline chose a "
                    f"later exit ({exits})"
                )
            accuracies = [point.accuracy for point in sweep]
            if any(a > b + 1e-12 for a, b in zip(accuracies, accuracies[1:])):
                violations.append(
                    f"{model}@{mbps:g}Mbps: accuracy not monotone in "
                    f"deadline ({accuracies})"
                )
            last = sweep[-1]
            if not (last.exit_name == "final" and last.feasible):
                violations.append(
                    f"{model}@{mbps:g}Mbps: most generous deadline picked "
                    f"{last.exit_name} (feasible={last.feasible}), not the "
                    "full network"
                )
            for point in sweep:
                if point.feasible and (
                    point.predicted_seconds > point.deadline_ms / 1e3
                ):
                    violations.append(
                        f"{model}@{mbps:g}Mbps: 'feasible' choice at "
                        f"{point.deadline_ms}ms predicts "
                        f"{point.predicted_seconds * 1e3:.3f}ms"
                    )
        if len(by_bw) > 1:
            multi_bandwidth = True
            by_deadline: Dict[float, set] = {}
            for point in points:
                by_deadline.setdefault(point.deadline_ms, set()).add(
                    point.split_index
                )
            if any(len(splits) > 1 for splits in by_deadline.values()):
                split_varied = True
    # Bandwidth moves the split somewhere in the sweep.  Checked across
    # models, not per model: for GoogLeNet one split (1st_pool) genuinely
    # dominates at every bandwidth — the same Fig. 8 finding the fig8
    # checks lock — so demanding per-model variation would be wrong.
    if multi_bandwidth and not split_varied:
        violations.append(
            "no model's chosen split ever varied with bandwidth"
        )
    return violations
