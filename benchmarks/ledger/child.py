"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every process-
global cache of the program (tensor-text memo, ``lru_cache``s, plan memo)
starts empty each time.  The last line of standard output is one JSON
object with the repetition's numbers; ``run.py`` aggregates them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict

from calibrate import SpeedSampler
from tracing import Tracer, install, span
from workloads import WORKLOADS


def traced_metrics(tracer: Tracer, setup_root: int, run_root: int) -> Dict[str, float]:
    """Per-layer wall self times and wrapper counts of the timed run."""
    run = tracer.summarize(run_root)
    setup = tracer.summarize(setup_root)

    def calls(*names: str) -> float:
        return float(sum(run[name][0] for name in names if name in run))

    def self_s(*names: str) -> float:
        return sum(run[name][1] for name in names if name in run)

    def with_setup(index: int, name: str) -> float:
        return float(run.get(name, [0, 0.0])[index] + setup.get(name, [0, 0.0])[index])

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    full = tracer.samples["snapshot.full_bytes"]
    delta = tracer.samples["snapshot.delta_bytes"]
    forward_s = self_s("nn.forward")
    root = tracer.spans[run_root]
    return {
        "sim.events": tracer.counts["sim.events"],
        "sim.self_s": self_s("sim.run"),
        "netsim.self_s": self_s("netsim.send", "netsim.transmit"),
        "web.scripts_s": self_s("web.scripts"),
        "web.scripts_calls": calls("web.scripts"),
        "web.run_event_s": self_s("web.run_event", "web.run_handler"),
        "web.handler_runs": calls("web.run_handler"),
        "snapshot.capture_full_s": self_s("snapshot.capture_full"),
        "snapshot.capture_full_calls": calls("snapshot.capture_full"),
        "snapshot.capture_delta_s": self_s("snapshot.capture_delta"),
        "snapshot.capture_delta_calls": calls("snapshot.capture_delta"),
        "snapshot.select_globals_s": self_s("snapshot.select_globals"),
        "snapshot.restore_s": self_s("snapshot.restore"),
        "snapshot.restore_calls": calls("snapshot.restore"),
        "snapshot.tensor_text_s": self_s("snapshot.tensor_text"),
        "snapshot.full_bytes_mean": mean(full),
        "snapshot.delta_bytes_mean": mean(delta),
        "snapshot.delta_share": (
            len(delta) / (len(full) + len(delta)) if full or delta else 0.0
        ),
        "core.offload_calls": tracer.counts["core.offload_calls"],
        "core.offload_self_s": self_s("core.offload"),
        "core.server_batch_infer_s": self_s("core.server_batch_infer"),
        "core.partition_s": self_s("core.partition"),
        # Models are built and plans compiled mostly during set-up.
        "nn.build_model_s": with_setup(1, "nn.build_model"),
        "nn.plan_compile_s": with_setup(1, "nn.plan_compile"),
        "nn.plan_compiles": with_setup(0, "nn.plan_compile"),
        "nn.forward_s": forward_s,
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_batch_s": self_s("nn.forward_batch"),
        "nn.forward_batch_calls": calls("nn.forward_batch"),
        "nn.forward_batch_items": tracer.counts["nn.forward_batch_items"],
        "nn.forward_gflops": (
            tracer.counts["nn.forward_flops"] / forward_s / 1e9 if forward_s else 0.0
        ),
        "nn.arena_bytes": float(
            sum(plan.stats.arena_bytes for plan, _ in tracer.plans.values())
        ),
        "fleet.pick_calls": calls("fleet.pick"),
        "fleet.pick_s": self_s("fleet.pick"),
        "fleet.build_s": self_s("fleet.build"),
        "obs.spans": float(
            sum(len(sim.spans.spans) for sim in tracer.simulators.values())
        ),
        "bench.unaccounted_share": run["bench.run"][1] / (root[2] - root[1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--scratch", required=True, help="directory for temporary files")
    parser.add_argument("--trace-out", default="",
                        help="install the wrappers and write a Chrome trace here")
    args = parser.parse_args()

    tracer = Tracer() if args.trace_out else None
    cli_import_s = 0.0
    if tracer is not None:
        started = time.perf_counter()
        import repro.cli  # noqa: F401 - timed: this is cli.import_s

        cli_import_s = time.perf_counter() - started
        install(tracer)

    workload = WORKLOADS[args.workload](args.seed, bool(args.quick), tracer, args.scratch)
    unsampled_s = time.monotonic() - args.spawned_at  # interpreter start, numpy
    with SpeedSampler() as setup_sampler, span(tracer, "bench.setup") as setup_span:
        workload.setup()

    from repro.core.snapshot.codegen import text_cache_info
    from repro.obs import MetricsRegistry, collect_metrics, to_json, to_prometheus_text

    forwards_before = 0
    if tracer is not None:
        tracer.start_run()
        forwards_before = sum(plan.forwards for plan, _ in tracer.plans.values())
    text_before = text_cache_info()
    with collect_metrics() as registries, SpeedSampler() as sampler, \
            span(tracer, "bench.run") as run_span:
        outcome = workload.run()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    registry = MetricsRegistry.merged(registries)
    batched = sum(s.count for s in registry.series("server_serving_batch_items"))
    if bool(batched) != workload.uses_serving_loop:
        raise RuntimeError(
            f"{args.workload}: the serving loop dispatched {batched} batches"
        )
    traced: Dict[str, float] = {}
    agree: Dict[str, Any] = {}
    if tracer is not None:
        traced = traced_metrics(tracer, setup_span.index, run_span.index)
        text_after = text_cache_info()
        lookups = sum(text_after[k] - text_before[k] for k in ("hits", "misses"))
        traced["snapshot.text_cache_hit_ratio"] = (
            (text_after["hits"] - text_before["hits"]) / lookups if lookups else 0.0
        )
        traced["cli.import_s"] = cli_import_s
        # Where the program keeps its own count of what a wrapper counted,
        # the two must agree: a wrapper bound in the wrong namespace misses
        # calls without failing.
        agree = {
            "sim.events": [
                traced["sim.events"],
                sum(s.value for s in registry.series("sim_events_dispatched_total")),
            ],
            "nn.forward_calls": [
                traced["nn.forward_calls"],
                sum(plan.forwards for plan, _ in tracer.plans.values()) - forwards_before,
            ],
            "core.offload_calls": [
                traced["core.offload_calls"],
                sum(s.value for s in registry.series("client_offload_requests_total")),
            ],
        }
        export_started = time.perf_counter()
        to_json(registry)
        to_prometheus_text(registry)
        traced["obs.export_s"] = time.perf_counter() - export_started

    measured = workload.measure(outcome, registry)
    traced.update(measured["traced"])
    agree.update(measured.get("agree", {}))
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)

    checks = measured["checks"]
    print(json.dumps({
        # the interpreter's own start precedes the first speed sample and is
        # restated at the speed seen during the rest of the set-up
        "setup_s": (unsampled_s + setup_sampler.own_s) * setup_sampler.speed,
        "wall_s": sampler.wall_s,
        "wall_raw_s": sampler.raw_wall_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.reasons,
        "exact": measured["exact"],
        "layers": traced,
        "agree": agree,
        "info": measured["info"],
        "sizing": workload.sizing(),
        "spans": len(tracer.spans) if tracer is not None else 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
