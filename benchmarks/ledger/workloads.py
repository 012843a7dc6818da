"""The four ledger workloads: what runs, and what is read off the run.

Every workload is a class with ``setup`` (imports, model build, plan
compile and one small warm-up on *other* inputs — all billed to
``setup_s``), ``run`` (the timed operations, returning whatever the
metrics need) and ``measure`` (untimed: correctness checks and metric
extraction).  ``child.py`` drives them; nothing here touches a clock.

Metrics come in two groups.  ``exact`` ones are virtual-clock times and
program counters: they repeat exactly for one seed, and ``run.py`` treats
any difference between the repetitions of one run as a benchmark error.
``traced`` ones need the wrappers of ``tracing.py`` (wall self times and
the counts only a wrapper sees) and exist in the traced child only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

from tracing import END, NAME, START, Tracer, span

#: warm-ups draw their inputs from ``seed + WARMUP_SEED_OFFSET``
WARMUP_SEED_OFFSET = 1_000_003

PHASES = (
    "client_exec",
    "snapshot_capture_client",
    "transfer_to_server",
    "snapshot_restore_server",
    "server_queue",
    "server_exec",
    "snapshot_capture_server",
    "transfer_to_client",
    "snapshot_restore_client",
    "other",
)


# -- shared helpers ----------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """Highest whole percentile that still has >= 10 samples beyond it."""
    for percent in range(99, 50, -1):
        if count - math.ceil(percent * count / 100) >= 10:
            return percent
    return 50


def percentile(ordered: List[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(percent * len(ordered) / 100))
    return ordered[rank - 1]


class Checks:
    """Operations attempted / failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def registry_metrics(registry: Any) -> Dict[str, float]:
    """Per-layer counts and virtual times read off the run's own registry."""

    def total(name: str) -> float:
        return float(sum(series.value for series in registry.series(name)))

    def histogram_sum(name: str) -> float:
        return float(sum(series.sum for series in registry.series(name)))

    bytes_up = bytes_down = 0.0
    for series in registry.series("net_bytes_sent_total"):
        target = dict(series.labels)["link"].split("->")[1]
        if target.startswith("edge"):
            bytes_up += series.value
        else:
            bytes_down += series.value
    metrics = {
        "sim.wakeups": total("sim_process_wakeups_total"),
        "netsim.messages": total("net_messages_sent_total"),
        "netsim.bytes_up": bytes_up,
        "netsim.bytes_down": bytes_down,
        "core.presend_bytes_sent": total("presend_bytes_sent_total"),
        "core.presend_files_skipped": total("presend_files_skipped_total"),
        "core.handshake_hits": total("fleet_handshake_hits_total"),
        "core.handshake_misses": total("fleet_handshake_misses_total"),
        "core.session_cache_hits": total("server_session_cache_hits_total"),
        "core.replies_from_cache": total("server_replies_from_cache_total"),
        "nn.store_evictions": total("store_evictions_total"),
        "nn.store_resident_bytes_max": max(
            [series.value for series in registry.series("store_bytes_resident")],
            default=0.0,
        ),
        "devices.virt_busy_s": total("device_busy_seconds_total"),
        "devices.virt_queue_wait_s": histogram_sum("device_queue_wait_seconds"),
        "fleet.admission_waits": total("fleet_admission_waits_total"),
        "obs.series": float(len(registry)),
    }
    # Virtual phases of OffloadingSession runs (absent on the fleet workloads,
    # whose phases come from the request records instead).
    sessions = sum(s.count for s in registry.series("session_total_seconds"))
    if sessions:
        phase_sums: Dict[str, float] = defaultdict(float)
        for series in registry.series("session_phase_seconds"):
            phase_sums[dict(series.labels)["phase"]] += series.sum
        for phase in PHASES:
            metrics[f"virt.phase.{phase}_s"] = phase_sums[phase] / sessions
        mean_total = histogram_sum("session_total_seconds") / sessions
        metrics["virt.unattributed_s"] = mean_total - sum(
            phase_sums[phase] for phase in PHASES
        ) / sessions
        metrics["netsim.virt_transfer_s"] = (
            phase_sums["transfer_to_server"] + phase_sums["transfer_to_client"]
        )
    return metrics


def record_phase_metrics(records: List[Any]) -> Dict[str, float]:
    """The virtual phases a ``FleetRequestRecord`` exposes, as means."""
    count = len(records)
    up = sum(r.transfer_to_server_seconds for r in records)
    down = sum(r.transfer_to_client_seconds for r in records)
    restore = sum(r.restore_seconds for r in records)
    latency = sum(r.latency_seconds for r in records)
    return {
        "virt.phase.transfer_to_server_s": up / count,
        "virt.phase.transfer_to_client_s": down / count,
        "virt.phase.snapshot_restore_client_s": restore / count,
        "virt.unattributed_s": (latency - up - down - restore) / count,
        "netsim.virt_transfer_s": up + down,
    }


def check_fleet_report(report: Any, issued: int, checks: Checks) -> None:
    """Every request served once, and with the label the model computes."""
    for record in report.records:
        checks.op(
            record.correct,
            f"{record.session}#{record.request_index}: label "
            f"{record.result_label} != {record.expected_label}",
        )
    if report.count < issued:
        checks.attempted += issued - report.count
        checks.fail(
            f"{issued - report.count} of {issued} requests unserved",
            issued - report.count,
        )
    served = sum(row.served for row in report.edges)
    if served != issued:
        checks.fail(f"edges served {served} requests, {issued} were issued")


def slo_share(records: List[Any], issued: int, limit_s: float) -> float:
    within = sum(
        1 for r in records if r.correct and r.latency_seconds <= limit_s
    )
    return within / issued


class Workload:
    """What ``child.py`` needs from every workload."""

    name = ""
    #: ``serve.*`` stays zero, and is checked to, wherever this is False
    uses_serving_loop = False

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer], scratch: str):
        """``quick`` selects smoke sizes; ``scratch`` is a directory to write in."""
        self.seed = seed
        self.tracer = tracer


# -- campaign-quick ----------------------------------------------------------------


class CampaignQuick(Workload):
    """``repro campaign --quick`` through ``cli.main``: every report section.

    Each repetition is a fresh interpreter that has imported nothing of the
    program but ``repro.cli`` (that import is its ``setup_s``), so model
    build, plan compile, first forwards and text-codec misses are all in
    the timed run — what ``python -m repro campaign --quick`` costs, less
    the interpreter's own start.  It runs in the child rather than in a
    process of its own so that the machine-speed sampler shares its core.
    """

    name = "campaign-quick"
    sections = 8

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer], scratch: str):
        # The campaign takes no seed and has one size; both go unused.
        super().__init__(seed, quick, tracer, scratch)
        self.report_path = os.path.join(scratch, "report.md")

    def sizing(self) -> Dict[str, Any]:
        return {"sections": self.sections, "jobs": 1}

    def setup(self) -> None:
        import repro.cli  # noqa: F401 - the import is the set-up being timed

    def run(self) -> Dict[str, Any]:
        import repro.cli

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = repro.cli.main(["campaign", "--quick", "--out", self.report_path])
        return {"code": code, "stdout": captured.getvalue()}

    def measure(self, outcome: Dict[str, Any], registry: Any) -> Dict[str, Any]:
        checks = Checks()
        stdout = outcome["stdout"]
        cached = re.search(r"(\d+)/(\d+) sections cached", stdout)
        ran = int(cached.group(2)) if cached else 0
        ok = outcome["code"] == 0 and "all shape claims hold" in stdout
        for _ in range(self.sections):
            checks.op(ok, f"campaign exit {outcome['code']} or a violated claim")
        if ran != self.sections:
            checks.fail(f"campaign ran {ran} sections, expected {self.sections}")
        with open(self.report_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        exact: Dict[str, Any] = registry_metrics(registry)
        exact.update(
            {
                "report_sha256": digest,
                "exec.tasks": float(ran),
                "exec.cache_hits": float(cached.group(1)) if cached else 0.0,
            }
        )
        traced: Dict[str, float] = {}
        if self.tracer is not None:
            stats = self.tracer.engine_runs[-1]
            traced["exec.compute_s"] = stats.compute_seconds
            traced["exec.overhead_s"] = stats.wall_seconds - stats.compute_seconds
            for task in stats.tasks:
                key = task.key.replace("/agenet", "").replace("/", ".")
                traced[f"eval.section_s.{key}"] = task.wall_seconds
                if task.key.startswith("table1/"):
                    traced["vmsynth.table1_s"] = task.wall_seconds
        return {"checks": checks, "exact": exact, "traced": traced, "info": {}}


# -- paper-googlenet ---------------------------------------------------------------


class PaperGooglenet(Workload):
    """The paper's Fig. 6/8 configurations for GoogLeNet on the 30 Mbps link.

    Per iteration, each on a fresh ``Testbed``: client-only, server-only,
    offload before and after the ACK, partial offload at three split
    points, and three back-to-back offloads with a new image each (10
    operations).  The images come from the workload seed — one fresh image
    per iteration, two more for the repeated offloads — so every iteration
    pays the tensor-text codec for its own pixels.
    """

    name = "paper-googlenet"
    model_name = "googlenet"
    splits = ("1st_pool", "3rd_pool", "5th_pool")
    ops_per_iteration = 10

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer], scratch: str):
        super().__init__(seed, quick, tracer, scratch)
        self.iterations = 1 if quick else 2

    def sizing(self) -> Dict[str, Any]:
        return {
            "iterations": self.iterations,
            "ops_per_iteration": self.ops_per_iteration,
            "splits": list(self.splits),
        }

    def setup(self) -> None:
        from repro.eval import calibration
        from repro.nn.cost import network_costs
        from repro.nn.zoo import build_model
        from repro.sim import SeededRng

        self.model = build_model(self.model_name, seed=calibration.EXPERIMENT_SEED)
        self.full_costs = network_costs(self.model.network)
        warm = SeededRng(self.seed + WARMUP_SEED_OFFSET, "ledger/paper-googlenet")
        self._iteration(warm)

    def _image(self, rng: Any) -> Any:
        from repro.web.values import TypedArray

        shape = self.model.network.input_shape
        return TypedArray(rng.uniform_array(shape, 0.0, 255.0))

    @staticmethod
    def _drive(testbed: Any, process: Any) -> Any:
        done = testbed.sim.spawn(process, label="session")
        testbed.sim.run_until(lambda: done.triggered)
        if done.ok is False:
            raise done.value
        return done.value

    def _iteration(self, rng: Any) -> List[Dict[str, Any]]:
        """One pass over the ten operations; returns one row per operation
        (kind, virtual seconds, the image it classified, the label shown)."""
        from repro.core.session import OffloadingSession, run_server_only
        from repro.core.snapshot import CaptureOptions
        from repro.eval.scenarios import Testbed
        from repro.nn.cost import costs_for_range
        from repro.web.app import make_inference_app, make_partial_inference_app

        model, name, full = self.model, self.model_name, self.full_costs
        network = model.network
        image = self._image(rng)
        rows: List[Dict[str, Any]] = []

        def session(testbed: Any, app: Any, **split: Any) -> OffloadingSession:
            return OffloadingSession(
                testbed.sim, testbed.client, app, name, image,
                full_costs=full, **split,
            )

        def keep(kind: str, result: Any) -> None:
            rows.append(
                {
                    "kind": kind,
                    "virt_s": result.total_seconds,
                    "image": image,
                    "label": result.result_label,
                }
            )

        testbed = Testbed()
        keep("client", self._drive(
            testbed, session(testbed, make_inference_app(model)).run_client_only()
        ))
        testbed = Testbed()
        keep("server", self._drive(testbed, run_server_only(
            testbed.sim, testbed.server_device, make_inference_app(model),
            name, image, full,
        )))
        for wait_for_ack in (False, True):
            testbed = Testbed()
            keep(
                "offload_after_ack" if wait_for_ack else "offload_before_ack",
                self._drive(
                    testbed,
                    session(testbed, make_inference_app(model)).run_offload(
                        wait_for_ack=wait_for_ack
                    ),
                ),
            )
        for label in self.splits:
            point = network.point_by_label(label)
            front, rear = model.split(point.index)
            app = make_partial_inference_app(
                front, rear, name=f"{name}-partial@{label}"
            )
            testbed = Testbed()
            keep(f"partial_{label}", self._drive(
                testbed,
                session(
                    testbed, app,
                    front_costs=costs_for_range(network, 0, point.index),
                    rear_costs=costs_for_range(
                        network, point.index + 1, len(network.layers) - 1
                    ),
                    partition_label=label,
                ).run_offload_partial(),
            ))

        # Three offloads in one session: the first ships a full snapshot,
        # the later ones a delta against the state cached on the server.
        testbed = Testbed()
        client = testbed.client
        client.capture_options = CaptureOptions(include_canvas_pixels=True)
        client.start_app(make_inference_app(model), presend=True)
        client.mark_offload_point("click", "infer_btn")
        current = image
        for index in range(3):
            if index > 0:
                current = self._image(rng)
            client.runtime.globals["pending_pixels"] = current
            client.runtime.dispatch("click", "load_btn")
            if index == 0:
                testbed.sim.run()  # pre-sending completes
            client.runtime.dispatch("click", "infer_btn")
            outcome = self._drive(
                testbed, client.offload(client.take_intercepted(), server_costs=full)
            )
            rows.append(
                {
                    "kind": f"repeated_{outcome.snapshot.kind}",
                    "virt_s": outcome.finished_at - outcome.started_at,
                    "image": current,
                    "label": client.runtime.globals.get("result_label"),
                }
            )
        return rows

    def run(self) -> List[Dict[str, Any]]:
        from repro.sim import SeededRng

        rng = SeededRng(self.seed, "ledger/paper-googlenet")
        rows: List[Dict[str, Any]] = []
        for _ in range(self.iterations):
            rows.extend(self._iteration(rng))
        return rows

    def measure(self, rows: List[Dict[str, Any]], registry: Any) -> Dict[str, Any]:
        from repro.core.session import expected_label_for

        checks = Checks()
        expected: Dict[int, int] = {}
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for row in rows:
            image = row["image"]
            if id(image) not in expected:
                expected[id(image)] = expected_label_for(self.model, image)
            checks.op(
                row["label"] == expected[id(image)],
                f"{row['kind']}: label {row['label']} != {expected[id(image)]}",
            )
            by_kind[row["kind"]].append(row["virt_s"])

        def mean(kind: str) -> float:
            return sum(by_kind[kind]) / len(by_kind[kind])

        exact = registry_metrics(registry)
        exact["virt_offload_after_ack_s"] = mean("offload_after_ack")
        exact["virt_offload_before_ack_s"] = mean("offload_before_ack")
        exact["virt_partial_1st_pool_s"] = mean("partial_1st_pool")
        exact["devices.predictor_rel_err"] = self._predictor_error(mean)
        if abs(exact["virt.unattributed_s"]) > 1e-9:
            raise RuntimeError(
                "PhaseBreakdown identity broken: phases miss the session "
                f"total by {exact['virt.unattributed_s']!r} s"
            )
        kinds = Counter(row["kind"] for row in rows)
        return {
            "checks": checks,
            "exact": exact,
            "traced": {},
            "info": {"operations": dict(kinds)},
        }

    def _predictor_error(self, simulated: Any) -> float:
        """Mean |predicted - simulated| / simulated over the split points."""
        from repro.eval.fig8 import make_optimizer
        from repro.eval.scenarios import Testbed

        optimizer = make_optimizer(self.model_name)
        link = Testbed().profile
        network = self.model.network
        errors = []
        for label in self.splits:
            estimate = optimizer.estimate(network, network.point_by_label(label), link)
            truth = simulated(f"partial_{label}")
            errors.append(abs(estimate.total_seconds - truth) / truth)
        return sum(errors) / len(errors)


# -- the two fleet workloads -------------------------------------------------------


def skewed_fleet() -> List[Any]:
    """Device speed *and* link quality spread (as in ``bench_campaign.py``)."""
    from repro.fleet import EdgeSpec
    from repro.netsim import NetemProfile

    return [
        EdgeSpec("edge-fast", server_speedup=1.0, profile=NetemProfile.lan_1gbps()),
        EdgeSpec(
            "edge-mid", server_speedup=0.7,
            profile=NetemProfile(bandwidth_bps=30e6, latency_s=0.005),
        ),
        EdgeSpec(
            "edge-slow", server_speedup=0.4,
            profile=NetemProfile(bandwidth_bps=8e6, latency_s=0.02),
        ),
    ]


class FleetOffload(Workload):
    """1 200 smallnet offloads over three skewed edges, with a cold kill."""

    name = "fleet-offload"
    requests_per_session = 3
    arrival_rate_per_s = 25.0
    slo_seconds = 0.5

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer], scratch: str):
        super().__init__(seed, quick, tracer, scratch)
        self.sessions = 40 if quick else 400
        # Sessions arrive over sessions / rate virtual seconds; the kill
        # lands about a third of the way in and the edge is back at two
        # thirds, so failover and the cold re-upload both have traffic.
        arrivals_s = self.sessions / self.arrival_rate_per_s
        self.kill_at = 0.375 * arrivals_s
        self.revive_at = 0.75 * arrivals_s

    def sizing(self) -> Dict[str, Any]:
        return {
            "sessions": self.sessions,
            "requests_per_session": self.requests_per_session,
            "arrival_rate_per_s": self.arrival_rate_per_s,
            "kill": ["edge-fast", self.kill_at, self.revive_at, "cold"],
            "slo_seconds": self.slo_seconds,
        }

    def _scenario(self, sessions: int, seed: int) -> Any:
        from repro.fleet import FleetScenario

        return FleetScenario(
            model_name="smallnet", mode="offload", policy="queue-aware",
            edges=skewed_fleet(), sessions=sessions,
            requests_per_session=self.requests_per_session,
            arrival_rate_per_s=self.arrival_rate_per_s,
            reply_timeout=1.0, seed=seed,
        )

    def setup(self) -> None:
        self._scenario(8, self.seed + WARMUP_SEED_OFFSET).run()

    def run(self) -> Dict[str, Any]:
        with span(self.tracer, "fleet.build"):
            scenario = self._scenario(self.sessions, self.seed)
            scenario.inject_kill(
                "edge-fast", self.kill_at, revive_at_seconds=self.revive_at, cold=True
            )
        return {"report": scenario.run()}

    def measure(self, outcome: Dict[str, Any], registry: Any) -> Dict[str, Any]:
        report = outcome["report"]
        issued = self.sessions * self.requests_per_session
        checks = Checks()
        check_fleet_report(report, issued, checks)
        ordered = report.latencies()
        tail = tail_percentile(len(ordered))
        exact = registry_metrics(registry)
        exact.update(record_phase_metrics(report.records))
        exact.update(
            {
                "virt_p50_ms": report.p50_latency * 1e3,
                "virt_tail_ms": percentile(ordered, tail) * 1e3,
                "virt_slo_share": slo_share(report.records, issued, self.slo_seconds),
                "virt_upload_mb": report.upload_bytes / 1e6,
                "fleet.failovers": float(sum(r.failovers for r in report.records)),
            }
        )
        for row in report.edges:
            exact[f"fleet.edge_share.{row.name}"] = row.served / issued
        program_failovers = registry.value("fleet_failovers_total", policy=report.policy)
        kinds = Counter(r.snapshot_kind for r in report.records)
        return {
            "checks": checks,
            "exact": exact,
            "traced": {},
            "agree": {"fleet.failovers": [exact["fleet.failovers"], program_failovers]},
            "info": {
                "tail_percentile": tail,
                "latency_samples": len(ordered),
                "makespan_virtual_s": report.makespan_seconds,
                "snapshot_kinds": dict(kinds),
            },
        }


class ServePartial(Workload):
    """resnet-mini rear halves through the batching loop at three rates."""

    name = "serve-partial"
    uses_serving_loop = True
    requests_per_session = 2
    #: session arrival rates; ~19 req/s is the edge's virtual capacity
    rates = (("light", 4.0), ("heavy", 8.0), ("over", 12.0))
    slo_seconds = 0.6
    serve_stats = (
        "batches", "items", "batched_items", "mean_batch", "max_batch",
        "virt_queue_wait_s", "deadline_misses", "submit_s",
    )

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer], scratch: str):
        super().__init__(seed, quick, tracer, scratch)
        self.sessions = 40 if quick else 100

    def sizing(self) -> Dict[str, Any]:
        return {
            "sessions_per_rate": self.sessions,
            "requests_per_session": self.requests_per_session,
            "session_rates_per_s": dict(self.rates),
            "max_batch": 8,
            "batch_timeout_s": 0.02,
            "slo_seconds": self.slo_seconds,
        }

    def _scenario(self, sessions: int, rate: float, seed: int) -> Any:
        from repro.fleet import EdgeSpec, FleetScenario
        from repro.serve import ServingConfig

        return FleetScenario(
            model_name="resnet-mini", mode="offload-partial", split_index=0,
            edges=[EdgeSpec("edge-0")],
            serving=ServingConfig(max_batch=8, batch_timeout_s=0.02),
            sessions=sessions, requests_per_session=self.requests_per_session,
            arrival_rate_per_s=rate, mean_think_seconds=0.05,
            reply_timeout=120, seed=seed,
        )

    def setup(self) -> None:
        self._scenario(8, 8.0, self.seed + WARMUP_SEED_OFFSET).run()

    def run(self) -> Dict[str, Any]:
        points = {}
        for label, rate in self.rates:
            first_span = len(self.tracer.spans) if self.tracer else 0
            with span(self.tracer, "fleet.build"):
                scenario = self._scenario(self.sessions, rate, self.seed)
            points[label] = {
                "report": scenario.run(),
                "spans": (first_span, len(self.tracer.spans) if self.tracer else 0),
            }
        return points

    def measure(self, points: Dict[str, Any], registry: Any) -> Dict[str, Any]:
        issued = self.sessions * self.requests_per_session
        checks = Checks()
        exact = registry_metrics(registry)
        traced: Dict[str, float] = {}
        records: List[Any] = []
        info: Dict[str, Any] = {}
        for label, point in points.items():
            report = point["report"]
            check_fleet_report(report, issued, checks)
            records.extend(report.records)
            serving = report.serving
            exact.update(
                {
                    f"serve.batches.{label}": float(serving["batches"]),
                    f"serve.items.{label}": float(serving["items"]),
                    f"serve.batched_items.{label}": float(serving["batched_items"]),
                    f"serve.mean_batch.{label}": serving["items"] / serving["batches"],
                    f"serve.max_batch.{label}": float(serving["max_batch"]),
                    f"serve.virt_queue_wait_s.{label}": serving["queue_wait_seconds"],
                    f"serve.deadline_misses.{label}": float(serving["deadline_misses"]),
                }
            )
            if self.tracer is not None:
                low, high = point["spans"]
                traced[f"serve.submit_s.{label}"] = sum(
                    record[END] - record[START]
                    for record in self.tracer.spans[low:high]
                    if record[NAME] == "serve.submit"
                )
            info[f"makespan_virtual_s.{label}"] = report.makespan_seconds
        exact.update(record_phase_metrics(records))

        heavy = points["heavy"]["report"]
        ordered = heavy.latencies()
        tail = tail_percentile(len(ordered))
        over = points["over"]["report"]
        exact.update(
            {
                "virt_p50_ms": heavy.p50_latency * 1e3,
                "virt_tail_ms": percentile(ordered, tail) * 1e3,
                "virt_slo_share": slo_share(heavy.records, issued, self.slo_seconds),
                "virt_light_p50_ms": points["light"]["report"].p50_latency * 1e3,
                "virt_sat_rps": over.count / over.makespan_seconds,
                "fleet.failovers": float(sum(r.failovers for r in records)),
            }
        )
        info.update({"tail_percentile": tail, "latency_samples": len(ordered)})
        return {
            "checks": checks,
            "exact": exact,
            "traced": traced,
            "info": info,
        }


WORKLOADS = {
    cls.name: cls for cls in (CampaignQuick, PaperGooglenet, FleetOffload, ServePartial)
}
