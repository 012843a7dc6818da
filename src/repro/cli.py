"""Command-line interface: regenerate any experiment from a shell.

Usage::

    python -m repro fig1
    python -m repro fig6 [--models googlenet agenet] [--bandwidth 30]
    python -m repro fig7
    python -m repro fig8 [--models agenet] [--max-points 6]
    python -m repro fig-accuracy [--models smallnet_exits] [--bandwidths 5 30]
    python -m repro table1
    python -m repro ablation {bandwidth,partition,decision,snapshot,gpu,
                              cache,contention,baselines,placement,streaming}
    python -m repro demo
    python -m repro fleet [--policy queue-aware] [--edges 3] [--sessions 40]
                          [--kill edge-0@1.5:4.0]
    python -m repro serve [--model resnet-mini] [--rate 64] [--max-batch 8]
                          [--deadline 0.5] [--kill edge-0@0.35:1.2]
    python -m repro metrics [--format prometheus|json] [--trace-out t.json]
    python -m repro campaign [--quick] [--out REPORT.md] [--timings]

Every command prints the same rows/series the paper reports and exits 0
only if the paper's shape claims hold.  Run/campaign commands accept
``--metrics-out PATH`` to dump the merged telemetry of every simulator the
command built (Prometheus text, or JSON when the path ends in ``.json``).
Results are byte-identical from run to run; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.nn.zoo import PAPER_MODELS


def _positive_int(text: str) -> int:
    """An argparse ``type=``: an out-of-range value is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # nan included
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_models_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--models",
        nargs="+",
        default=list(PAPER_MODELS),
        choices=list(PAPER_MODELS) + ["smallnet", "tinynet"],
        help="benchmark models to run (default: the paper's three)",
    )


def _add_bandwidth_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bandwidth",
        type=_positive_float,
        default=30.0,
        help="link bandwidth in Mbps (paper: 30)",
    )


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write merged run telemetry here (.json -> JSON, else "
        "Prometheus text)",
    )


def _add_fleet_load_args(
    parser: argparse.ArgumentParser, *, edges: int, sessions: int
) -> None:
    """The offered-load flags ``fleet`` and ``serve`` share (defaults differ)."""
    from repro.fleet import POLICY_NAMES

    parser.add_argument(
        "--policy",
        default="queue-aware",
        choices=list(POLICY_NAMES),
        help="edge-selection policy (default: queue-aware)",
    )
    parser.add_argument(
        "--edges", type=_positive_int, default=edges, help="fleet size"
    )
    parser.add_argument(
        "--skew", type=_positive_float, default=2.0,
        help="speed ratio between fastest and slowest edge (default: 2)",
    )
    parser.add_argument(
        "--sessions", type=_positive_int, default=sessions, help="user sessions"
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=2, help="inferences per session"
    )


def _add_fleet_run_args(
    parser: argparse.ArgumentParser, *, reply_timeout: float
) -> None:
    """The replay/fault flags ``fleet`` and ``serve`` share."""
    parser.add_argument("--seed", type=int, default=0, help="replay seed")
    parser.add_argument(
        "--reply-timeout", type=_positive_float, default=reply_timeout,
        help="seconds before a missing reply marks the edge dead",
    )
    parser.add_argument(
        "--edge-memory-budget", type=_positive_int, default=None, metavar="BYTES",
        help="per-edge model-store budget; LRU-evicts rear halves above it "
        "(default: unlimited)",
    )


def _fail_on_violations(violations: List[str]) -> int:
    if violations:
        print("\nSHAPE VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print("\nall shape claims hold")
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    from repro.eval.fig1 import format_fig1, run_fig1

    rows = run_fig1("googlenet", verify_numerically=True)
    print(format_fig1(rows))
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from repro.eval.fig6 import chart_fig6, check_fig6_shape, format_fig6, run_fig6

    rows = run_fig6(models=args.models, bandwidth_bps=args.bandwidth * 1e6)
    print(format_fig6(rows))
    print()
    print(chart_fig6(rows))
    return _fail_on_violations(check_fig6_shape(rows))


def cmd_fig7(args: argparse.Namespace) -> int:
    from repro.eval.fig7 import check_fig7_shape, format_fig7, run_fig7

    bars = run_fig7(models=args.models, bandwidth_bps=args.bandwidth * 1e6)
    print(format_fig7(bars))
    return _fail_on_violations(check_fig7_shape(bars))


def cmd_fig8(args: argparse.Namespace) -> int:
    from repro.eval.fig8 import check_fig8_shape, format_fig8, run_fig8

    points = run_fig8(
        models=args.models,
        bandwidth_bps=args.bandwidth * 1e6,
        max_points=args.max_points,
    )
    print(format_fig8(points))
    return _fail_on_violations(check_fig8_shape(points))


def cmd_fig_accuracy(args: argparse.Namespace) -> int:
    from repro.eval.fig_accuracy import (
        check_fig_accuracy_shape,
        format_fig_accuracy,
        run_fig_accuracy,
    )

    points = run_fig_accuracy(models=args.models, bandwidths_mbps=args.bandwidths)
    print(format_fig_accuracy(points))
    return _fail_on_violations(check_fig_accuracy_shape(points))


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval.table1 import check_table1_shape, format_table1, run_table1

    rows = run_table1(models=args.models, bandwidth_bps=args.bandwidth * 1e6)
    print(format_table1(rows))
    return _fail_on_violations(check_table1_shape(rows))


def cmd_ablation(args: argparse.Namespace) -> int:
    from repro.eval.ablations import study_report

    print(study_report(args.which))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.eval.campaign import run_campaign, write_report

    result = run_campaign(quick=args.quick, include_timings=args.timings)
    stats = result.engine_stats
    if args.out:
        write_report(args.out, result)
        print(
            f"report written to {args.out} ({result.wall_seconds:.1f}s, "
            f"0/{len(stats.tasks)} sections cached)"  # read by ledger/workloads.py
        )
    else:
        print(result.report_markdown)
    for task_stats in stats.tasks:
        print(f"  {task_stats.key:28s} {task_stats.wall_seconds:7.2f}s")
    print(
        f"  {'total wall':28s} {result.wall_seconds:7.2f}s "
        f"(compute {stats.compute_seconds:.2f}s)"
    )
    if not result.all_claims_hold:
        flat = [item for items in result.violations.values() for item in items]
        return _fail_on_violations(flat)
    print("all shape claims hold")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.eval.scenarios import Testbed

    result = Testbed().run_offload("googlenet", wait_for_ack=True)
    print(f"GoogLeNet offloaded inference: {result.total_seconds:.2f} s "
          f"(correct: {result.correct})")
    for phase, seconds in result.phases.as_dict().items():
        if seconds > 0:
            print(f"  {phase:28s} {seconds:7.3f} s")
    return 0


def _run_fleet_scenario(scenario, args: argparse.Namespace, what: str) -> int:
    """Inject ``--kill`` specs, run, print the report; shared by fleet/serve."""
    for spec in args.kill or []:
        try:
            name, rest = spec.split("@")
            at_str, colon, revive_str = rest.partition(":")
            scenario.inject_kill(
                name,
                float(at_str),
                revive_at_seconds=float(revive_str) if colon else None,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: --kill wants EDGE@SECONDS[:REVIVE], got {spec!r} "
                  f"({exc.args[0]})", file=sys.stderr)
            return 2
    report = scenario.run()
    text = report.render_markdown()
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"report written to {args.out}")
    if not report.all_correct:
        print(f"\nSHAPE VIOLATION: some {what} results were incorrect",
              file=sys.stderr)
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a multi-edge fleet scenario and print its report."""
    from repro.fleet import FleetScenario, default_fleet

    tenants = list(args.tenants) if args.tenants else None
    mode = "offload"
    if tenants and any(":" in spec for spec in tenants):
        mode = "offload-partial"
    scenario = FleetScenario(
        model_name=args.model,
        edges=default_fleet(
            args.edges,
            skew=args.skew,
            memory_budget_bytes=args.edge_memory_budget,
        ),
        policy=args.policy,
        sessions=args.sessions,
        requests_per_session=args.requests,
        arrival_rate_per_s=args.rate,
        mode=mode,
        seed=args.seed,
        reply_timeout=args.reply_timeout,
        tenants=tenants,
        prewarm=args.prewarm,
    )
    return _run_fleet_scenario(scenario, args, "fleet")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a fleet scenario with continuous batching on every edge."""
    from repro.fleet import FleetScenario, default_fleet
    from repro.serve import ServingConfig

    config = ServingConfig(
        max_batch=args.max_batch, batch_timeout_s=args.batch_timeout
    )
    try:
        scenario = FleetScenario(
            model_name=args.model,
            edges=default_fleet(
                args.edges,
                skew=args.skew,
                memory_budget_bytes=args.edge_memory_budget,
            ),
            policy=args.policy,
            sessions=args.sessions,
            requests_per_session=args.requests,
            arrival_rate_per_s=args.rate,
            mean_think_seconds=args.think,
            mode="offload-partial",
            split_index=args.split_index,
            seed=args.seed,
            reply_timeout=args.reply_timeout,
            serving=config,
            deadline_s=args.deadline,
        )
    except IndexError as exc:  # Network.split: the only index the builder takes
        print(f"error: --split-index: {exc}", file=sys.stderr)
        return 2
    return _run_fleet_scenario(scenario, args, "serving")


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run one instrumented offload session and print its telemetry."""
    from repro.eval.scenarios import Testbed
    from repro.eval.traces import write_span_trace
    from repro.obs import to_json, to_prometheus_text

    from repro.eval.scenarios import build_paper_model

    testbed = Testbed()
    testbed.run_offload(args.model, wait_for_ack=True)
    registry = testbed.sim.metrics
    plan = build_paper_model(args.model).network.plan_for()
    plan.record_metrics(registry)
    print(plan.describe_text(), file=sys.stderr)
    if args.format == "json":
        print(to_json(registry))
    else:
        print(to_prometheus_text(registry), end="")
    if args.trace_out:
        write_span_trace(args.trace_out, testbed.sim.spans)
        print(f"# span trace written to {args.trace_out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Computation Offloading for ML Web Apps in the "
        "Edge Server Environment' (ICDCS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="GoogLeNet architecture walk")
    p.set_defaults(func=cmd_fig1)

    for name, func in (("fig6", cmd_fig6), ("fig7", cmd_fig7), ("table1", cmd_table1)):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_models_arg(p)
        _add_bandwidth_arg(p)
        _add_metrics_arg(p)
        p.set_defaults(func=func)

    p = sub.add_parser("fig8", help="partial-inference sweep")
    _add_models_arg(p)
    _add_bandwidth_arg(p)
    _add_metrics_arg(p)
    p.add_argument("--max-points", type=_positive_int, default=None)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser(
        "fig-accuracy",
        help="accuracy-vs-deadline sweep for multi-exit models",
    )
    from repro.nn.zoo import EXIT_MODELS

    p.add_argument(
        "--models",
        nargs="+",
        default=list(EXIT_MODELS),
        choices=list(EXIT_MODELS),
        help="multi-exit models to sweep (default: all)",
    )
    p.add_argument(
        "--bandwidths",
        nargs="+",
        type=_positive_float,
        default=[5.0, 30.0, 100.0],
        metavar="MBPS",
        help="bandwidths to sweep, in Mbps (default: 5 30 100)",
    )
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_fig_accuracy)

    p = sub.add_parser("ablation", help="run one ablation study")
    from repro.eval.ablations import STUDY_NAMES

    p.add_argument("which", choices=STUDY_NAMES)
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("demo", help="one offloaded GoogLeNet inference")
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser(
        "metrics", help="run one offload session and print its telemetry"
    )
    p.add_argument(
        "--model",
        default="smallnet",
        choices=list(PAPER_MODELS) + ["smallnet", "tinynet"],
        help="benchmark model to run (default: smallnet, fast)",
    )
    p.add_argument(
        "--format",
        default="prometheus",
        choices=("prometheus", "json"),
        help="exposition format to print",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the session's span trace (Chrome Trace Event JSON)",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "fleet", help="multi-edge fleet with load-aware offload scheduling"
    )
    p.add_argument(
        "--model",
        default="smallnet",
        choices=list(PAPER_MODELS) + ["smallnet", "tinynet"],
        help="model every session offloads (default: smallnet, fast)",
    )
    _add_fleet_load_args(p, edges=3, sessions=40)
    p.add_argument(
        "--rate", type=_positive_float, default=8.0,
        help="session arrival rate per second (default: 8)",
    )
    _add_fleet_run_args(p, reply_timeout=5.0)
    p.add_argument(
        "--tenants", nargs="+", default=None, metavar="MODEL[:SPLIT]",
        help="round-robin sessions over several models, e.g. "
        "'smallnet:2 smallnet:3' (a :SPLIT switches the run to "
        "offload-partial and uploads rear halves)",
    )
    p.add_argument(
        "--prewarm", action="store_true",
        help="prime every edge's store with all tenant models before t=0 "
        "(warm-fleet baseline)",
    )
    p.add_argument(
        "--kill", action="append", metavar="EDGE@SECONDS[:REVIVE]",
        help="inject an edge death (repeatable), e.g. edge-0@1.5 or "
        "edge-0@1.5:4.0 to revive at t=4",
    )
    p.add_argument("--out", default=None, help="also write the report here")
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="fleet scenario with a continuous-batching serving loop on "
        "every edge (always offload-partial)",
    )
    p.add_argument(
        "--model",
        default="resnet-mini",
        choices=list(PAPER_MODELS) + ["smallnet", "tinynet", "resnet-mini"],
        help="model every session offloads (default: resnet-mini, whose "
        "rear half dominates server time — where batching pays)",
    )
    _add_fleet_load_args(p, edges=1, sessions=32)
    p.add_argument(
        "--rate", type=_positive_float, default=64.0,
        help="session arrival rate per second (default: 64 — batching needs "
        "a saturated server)",
    )
    p.add_argument(
        "--think", type=_positive_float, default=0.05,
        help="mean think seconds between a session's requests",
    )
    p.add_argument(
        "--split-index", type=int, default=0,
        help="partition layer: everything after it runs on the server "
        "(default 0, the rear-heavy split)",
    )
    _add_fleet_run_args(p, reply_timeout=60.0)
    p.add_argument(
        "--max-batch", type=_positive_int, default=8,
        help="most rear-half inferences coalesced into one forward",
    )
    p.add_argument(
        "--batch-timeout", type=_non_negative_float, default=0.02,
        help="longest a queued request waits for batch-mates (seconds)",
    )
    p.add_argument(
        "--deadline", type=_positive_float, default=None,
        help="per-request completion SLO in seconds; the report counts "
        "the requests that miss it",
    )
    p.add_argument(
        "--kill", action="append", metavar="EDGE@SECONDS[:REVIVE]",
        help="inject an edge death (repeatable)",
    )
    p.add_argument("--out", default=None, help="also write the report here")
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "campaign", help="regenerate every artifact into one report"
    )
    p.add_argument("--out", default=None, help="write markdown report here")
    p.add_argument(
        "--quick", action="store_true", help="one model, truncated sweeps"
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="embed the wall-clock timing table in the report (makes the "
        "report non-deterministic across runs)",
    )
    _add_metrics_arg(p)
    p.set_defaults(func=cmd_campaign)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        return args.func(args)

    from repro.obs import MetricsRegistry, collect_metrics, write_metrics

    with collect_metrics() as registries:
        code = args.func(args)
    try:
        write_metrics(metrics_out, MetricsRegistry.merged(registries))
    except OSError as exc:
        print(f"error: cannot write metrics to {metrics_out}: {exc}",
              file=sys.stderr)
        return 1
    print(f"metrics written to {metrics_out} "
          f"({len(registries)} runs merged)")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
