"""The full reproduction campaign: every artifact into one report.

``python -m repro campaign --out REPORT.md`` regenerates Fig. 1, Fig. 6,
Fig. 7, Fig. 8 and Table 1 plus all ablation studies, checks every shape
claim, and renders a single self-contained markdown report — the artifact-
evaluation entry point.  A ``quick=True`` mode restricts the sweep to one
paper model for CI-speed smoke runs.

The campaign is a task list, not a script: every figure row, table row
and ablation study is one :class:`~repro.exec.Task`, and an
:class:`~repro.exec.ExecutionEngine` runs them in report order, in this
process, timing each.  The report is assembled from the outcomes and
contains no wall-clock numbers, so it is **byte-identical** from run to
run; wall-clock timings live in :attr:`CampaignResult.wall_seconds`,
per-section in :attr:`CampaignResult.engine_stats`, and can be embedded
explicitly with ``include_timings=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exec import EngineRunStats, ExecutionEngine, Task
from repro.nn.zoo import PAPER_MODELS
from repro.obs.metrics import MetricsRegistry, collect_metrics

#: ablation bandwidth grid shown in the report
ABLATION_BANDWIDTHS_MBPS = (1, 4, 30, 120)


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    report_markdown: str
    violations: Dict[str, List[str]] = field(default_factory=dict)
    #: wall-clock of the whole run (engine + assembly), measured once
    wall_seconds: float = 0.0
    #: telemetry merged across every simulator the campaign built
    metrics: Optional[MetricsRegistry] = None
    #: what the execution engine measured (per-section wall clock)
    engine_stats: Optional[EngineRunStats] = None

    @property
    def all_claims_hold(self) -> bool:
        return all(not items for items in self.violations.values())

    def timings_markdown(self) -> str:
        """The wall-clock timing block (non-deterministic by nature)."""
        from repro.eval.reporting import format_table

        rows = [
            [stats.key, stats.wall_seconds]
            for stats in (self.engine_stats.tasks if self.engine_stats else [])
        ]
        lines = [
            "### Campaign timings (wall clock)\n",
            _code_block(format_table(["section", "seconds"], rows)),
            f"\nTotal: {self.wall_seconds:.2f}s wall.",
        ]
        return "\n".join(lines)


def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def build_campaign_tasks(
    models: Sequence[str],
    include_ablations: bool = True,
    quick: bool = False,
    bandwidth_bps: Optional[float] = None,
) -> List[Task]:
    """The campaign as an explicit task list, in report order."""
    from repro.eval import ablations, calibration
    from repro.eval.fig1 import run_fig1
    from repro.eval.fig6 import run_fig6_model
    from repro.eval.fig7 import run_fig7_model
    from repro.eval.fig8 import run_fig8_model
    from repro.eval.table1 import run_table1_model

    if bandwidth_bps is None:
        bandwidth_bps = calibration.PAPER_BANDWIDTH_BPS
    tasks: List[Task] = [Task("fig1", run_fig1, {"model_name": "googlenet"})]
    for model in models:
        tasks.append(
            Task(
                f"fig6/{model}",
                run_fig6_model,
                {"model_name": model, "bandwidth_bps": bandwidth_bps},
            )
        )
    for model in models:
        tasks.append(
            Task(
                f"fig7/{model}",
                run_fig7_model,
                {"model_name": model, "bandwidth_bps": bandwidth_bps},
            )
        )
    for model in models:
        tasks.append(
            Task(
                f"fig8/{model}",
                run_fig8_model,
                {
                    "model_name": model,
                    "bandwidth_bps": bandwidth_bps,
                    "max_points": 6 if quick else None,
                },
            )
        )
    for model in models:
        tasks.append(
            Task(
                f"table1/{model}",
                run_table1_model,
                {"model_name": model, "bandwidth_bps": bandwidth_bps},
            )
        )
    if include_ablations:
        ablation_model = models[0]
        tasks.append(
            Task(
                "ablations/bandwidth",
                ablations.bandwidth_sweep,
                {
                    "model_name": ablation_model,
                    "bandwidths_mbps": ABLATION_BANDWIDTHS_MBPS,
                },
            )
        )
        tasks.append(
            Task(
                "ablations/baselines",
                ablations.baseline_comparison_study,
                {"model_name": ablation_model},
            )
        )
        tasks.append(
            Task(
                "ablations/session_cache",
                ablations.session_cache_study,
                {"model_name": ablation_model},
            )
        )
    return tasks


def run_campaign(
    models: Optional[Sequence[str]] = None,
    include_ablations: bool = True,
    quick: bool = False,
    include_timings: bool = False,
) -> CampaignResult:
    """Run everything; returns the report and any shape violations.

    ``include_timings=True`` appends the (inherently non-deterministic)
    wall-clock timing block to the report.
    """
    from repro.eval.fig1 import format_fig1
    from repro.eval.fig6 import chart_fig6, check_fig6_shape, format_fig6
    from repro.eval.fig7 import check_fig7_shape, format_fig7
    from repro.eval.fig8 import check_fig8_shape, format_fig8
    from repro.eval.reporting import format_metrics_summary, format_table
    from repro.eval.table1 import check_table1_shape, format_table1

    started = time.perf_counter()
    if models is None:
        models = ("agenet",) if quick else PAPER_MODELS

    engine = ExecutionEngine()
    tasks = build_campaign_tasks(models, include_ablations, quick)
    with collect_metrics() as registries:
        outcomes = {o.key: o for o in engine.run(tasks)}
    payload = lambda key: outcomes[key].payload  # noqa: E731

    violations: Dict[str, List[str]] = {}
    sections: List[str] = [
        "# Reproduction report",
        "",
        "Computation Offloading for Machine Learning Web Apps in the Edge "
        "Server Environment (ICDCS 2018) — regenerated artifacts.",
        f"\nModels: {', '.join(models)}.",
    ]

    sections.append("\n## Fig. 1 — GoogLeNet architecture walk\n")
    sections.append(_code_block(format_fig1(payload("fig1"))))

    sections.append("\n## Fig. 6 — execution time of inference\n")
    fig6_rows = [payload(f"fig6/{model}") for model in models]
    violations["fig6"] = check_fig6_shape(fig6_rows)
    sections.append(_code_block(format_fig6(fig6_rows)))
    sections.append(_code_block(chart_fig6(fig6_rows)))

    sections.append("\n## Fig. 7 — breakdown of the inference time\n")
    fig7_bars = [bar for model in models for bar in payload(f"fig7/{model}")]
    violations["fig7"] = check_fig7_shape(fig7_bars)
    sections.append(_code_block(format_fig7(fig7_bars)))

    sections.append("\n## Fig. 8 — partial inference sweep\n")
    fig8_points = {model: payload(f"fig8/{model}") for model in models}
    violations["fig8"] = check_fig8_shape(fig8_points)
    sections.append(_code_block(format_fig8(fig8_points)))

    sections.append("\n## Table 1 — VM-based installation overhead\n")
    table1_rows = [payload(f"table1/{model}") for model in models]
    violations["table1"] = check_table1_shape(table1_rows)
    sections.append(_code_block(format_table1(table1_rows)))

    if include_ablations:
        sections.append("\n## Ablations\n")
        sweep = payload("ablations/bandwidth")
        sections.append("### Bandwidth sweep\n")
        sections.append(
            _code_block(
                format_table(
                    ["Mbps", "offload s", "client s"],
                    [
                        [p.bandwidth_mbps, p.offload_seconds, p.client_seconds]
                        for p in sweep
                    ],
                )
            )
        )
        sections.append("### Baseline comparison\n")
        sections.append(
            _code_block(
                format_table(
                    ["approach", "first s", "steady s", "any app", "handover"],
                    [
                        [
                            row.approach,
                            row.first_use_seconds,
                            row.steady_state_seconds,
                            str(row.any_app),
                            str(row.stateless_handover),
                        ]
                        for row in payload("ablations/baselines")
                    ],
                )
            )
        )
        sections.append("### Session cache (the paper's future work)\n")
        cache_study = payload("ablations/session_cache")
        sections.append(
            _code_block(
                format_table(
                    ["quantity", "value"],
                    [
                        ["repeat w/o cache (s)",
                         cache_study.repeat_without_cache_seconds],
                        ["repeat w/ cache (s)",
                         cache_study.repeat_with_cache_seconds],
                        ["snapshot bytes saved", f"{cache_study.bytes_saving:.0%}"],
                    ],
                )
            )
        )

    metrics = MetricsRegistry.merged(registries)
    sections.append("\n## Telemetry\n")
    sections.append(
        f"Merged registry of {len(registries)} simulator runs "
        f"({len(metrics)} series). Full export: rerun with "
        "`python -m repro campaign --metrics-out metrics.prom`.\n"
    )
    sections.append(
        _code_block(
            format_metrics_summary(
                metrics,
                prefixes=("sessions_", "session_", "server_", "client_", "net_"),
            )
        )
    )

    sections.append("\n## Shape-claim verification\n")
    rows = [
        [artifact, "PASS" if not items else f"FAIL ({len(items)})"]
        for artifact, items in violations.items()
    ]
    sections.append(_code_block(format_table(["artifact", "claims"], rows)))
    for artifact, items in violations.items():
        for item in items:
            sections.append(f"- **{artifact}**: {item}")

    sections.append(
        "\n_Regenerated deterministically on the virtual clock; wall-clock "
        "timings are reported by the CLI and `benchmarks/bench_campaign.py` "
        "(see docs/PERFORMANCE.md)._"
    )

    wall = time.perf_counter() - started
    result = CampaignResult(
        report_markdown="\n".join(sections) + "\n",
        violations=violations,
        wall_seconds=wall,
        metrics=metrics,
        engine_stats=engine.last_run,
    )
    if include_timings:
        result.report_markdown += "\n" + result.timings_markdown() + "\n"
    return result


def write_report(path: str, result: CampaignResult) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.report_markdown)
    return path
