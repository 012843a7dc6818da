"""Ablation studies beyond the paper's figures.

These exercise the design choices DESIGN.md calls out:

* :func:`bandwidth_sweep` — where does offloading stop paying?  (The paper
  fixes 30 Mbps; we sweep it and find the client/offload crossover.)
* :func:`partition_adaptivity` — the optimizer should move the split point
  deeper into the network as bandwidth drops (features must shrink before
  crossing a slow link).
* :func:`decision_study` — the before-ACK local-vs-offload policy
  (§IV.A's advice) versus measured ground truth.
* :func:`snapshot_optimization_study` — live-state elimination and the
  data-URL image encoding, quantified on snapshot bytes.
* :func:`gpu_server_study` — the paper's forward-looking remark that WebGL
  gives ~80x: with a GPU server, transfer dominates and partial inference
  at deeper points loses its appeal.
* :func:`session_cache_study` — the paper's §VI future work: what a
  server-side session cache saves on repeated offloads.
* :func:`baseline_comparison_study` — snapshot offloading against a
  specialized edge service and MAUI-style offloading.
* :func:`edge_vs_cloud_study` — the same app against an edge server, a WAN
  cloud server and a WAN accelerator.
* :func:`predictor_feature_study` — flops-only versus compute+memory
  latency models, Neurosurgeon-style.
* :func:`contention_study` — one edge server under a growing burst of
  sessions.

:data:`STUDY_NAMES` lists what ``repro ablation`` runs through
:func:`study_report`; ``streaming`` lives in :mod:`repro.eval.streaming`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.decisions import Decision, OffloadPolicy
from repro.core.snapshot import CaptureOptions
from repro.devices.predictor import fit_predictor_for
from repro.eval.scenarios import Testbed, build_paper_model, paper_input_for
from repro.nn.cost import network_costs
from repro.nn.tensor import text_serialized_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet import FleetReport


# -- 1. bandwidth sweep ---------------------------------------------------------

@dataclass
class BandwidthPoint:
    bandwidth_mbps: float
    offload_seconds: float
    client_seconds: float

    @property
    def offload_wins(self) -> bool:
        return self.offload_seconds < self.client_seconds


def bandwidth_sweep(
    model_name: str = "googlenet",
    bandwidths_mbps: Sequence[float] = (1, 2, 4, 8, 15, 30, 60, 120),
) -> List[BandwidthPoint]:
    """Offload-after-ACK vs client-only across link speeds."""
    client_seconds = Testbed().run_client_only(model_name).total_seconds
    points = []
    for mbps in bandwidths_mbps:
        result = Testbed(bandwidth_bps=mbps * 1e6).run_offload(
            model_name, wait_for_ack=True
        )
        points.append(
            BandwidthPoint(
                bandwidth_mbps=mbps,
                offload_seconds=result.total_seconds,
                client_seconds=client_seconds,
            )
        )
    return points


# -- 2. partition adaptivity ----------------------------------------------------

def partition_adaptivity(
    model_name: str = "googlenet",
    bandwidths_mbps: Sequence[float] = (1, 4, 30, 120),
) -> Dict[float, str]:
    """The optimizer's chosen denaturing point per bandwidth."""
    from repro.eval.fig8 import make_optimizer

    model = build_paper_model(model_name)
    optimizer = make_optimizer(model_name)
    choices = {}
    for mbps in bandwidths_mbps:
        link = Testbed(bandwidth_bps=mbps * 1e6).profile
        choice = optimizer.choose(model.network, link, denature=True)
        choices[mbps] = choice.point.label
    return choices


# -- 3. decision policy ------------------------------------------------------------

@dataclass
class DecisionOutcome:
    model: str
    decision: Decision
    measured_local_seconds: float
    measured_offload_seconds: float

    @property
    def measured_best(self) -> str:
        return (
            "local"
            if self.measured_local_seconds <= self.measured_offload_seconds
            else "offload"
        )

    @property
    def policy_agrees(self) -> bool:
        return self.decision.action == self.measured_best


def decision_study(models: Sequence[str] = ("googlenet", "agenet")) -> List[DecisionOutcome]:
    """Before-ACK policy decisions vs measured ground truth."""
    outcomes = []
    for model_name in models:
        model = build_paper_model(model_name)
        costs = network_costs(model.network)
        testbed = Testbed()
        policy = OffloadPolicy(
            fit_predictor_for(testbed.client_profile, costs, noise=0.02),
            fit_predictor_for(testbed.server_profile, costs, noise=0.02),
            testbed.client_profile,
            testbed.server_profile,
        )
        input_bytes = text_serialized_bytes(model.network.input_shape)
        decision = policy.decide(
            costs,
            testbed.profile,
            pending_model_bytes=model.total_bytes,
            input_bytes=input_bytes,
        )
        local = Testbed().run_client_only(model_name).total_seconds
        offload = Testbed().run_offload(model_name, wait_for_ack=False).total_seconds
        outcomes.append(
            DecisionOutcome(
                model=model_name,
                decision=decision,
                measured_local_seconds=local,
                measured_offload_seconds=offload,
            )
        )
    return outcomes


# -- 4. snapshot optimizations -----------------------------------------------------

@dataclass
class SnapshotSizes:
    """Snapshot bytes under different capture policies."""

    model: str
    live_only_bytes: int
    conservative_bytes: int
    data_url_bytes: int

    @property
    def live_state_saving(self) -> float:
        """Fraction saved by live-state elimination."""
        if self.conservative_bytes == 0:
            return 0.0
        return 1.0 - self.live_only_bytes / self.conservative_bytes


def snapshot_optimization_study(model_name: str = "googlenet") -> SnapshotSizes:
    """Measure capture-policy effects on the offloading snapshot."""
    from repro.core.snapshot import capture_snapshot
    from repro.web.app import make_inference_app
    from repro.web.events import Event
    from repro.web.runtime import WebRuntime
    from repro.web.values import ImageData

    from repro.sim import SeededRng
    from repro.web.values import JSArray, TypedArray

    model = build_paper_model(model_name)
    event = Event("click", "infer_btn")
    rng = SeededRng(7, "ablation/history")

    def snapshot_with(options: CaptureOptions, as_data_url: bool) -> int:
        runtime = WebRuntime("study")
        runtime.load_app(make_inference_app(model))
        pixels = paper_input_for(model_name)
        if as_data_url:
            pixels = ImageData(pixels.data, encoded_bytes=pixels.size + 1024)
        runtime.globals["pending_pixels"] = pixels
        # Realistic dead state the pending handler never touches: previous
        # photos kept by the app.  Live-state elimination should drop them.
        shape = model.network.input_shape
        runtime.globals["photo_history"] = JSArray(
            [TypedArray(rng.uniform_array(shape, 0, 255)) for _ in range(2)]
        )
        runtime.dispatch("click", "load_btn")
        return capture_snapshot(runtime, event, options).size_bytes

    return SnapshotSizes(
        model=model_name,
        live_only_bytes=snapshot_with(
            CaptureOptions(live_only=True, include_canvas_pixels=True), False
        ),
        conservative_bytes=snapshot_with(
            CaptureOptions(live_only=False, include_canvas_pixels=True), False
        ),
        data_url_bytes=snapshot_with(
            CaptureOptions(live_only=True, include_canvas_pixels=True), True
        ),
    )


# -- 5. GPU server -----------------------------------------------------------------

@dataclass
class GpuStudy:
    model: str
    cpu_offload_seconds: float
    gpu_offload_seconds: float
    gpu_server_exec_seconds: float


def gpu_server_study(model_name: str = "googlenet") -> GpuStudy:
    """The ~80x WebGL server of the paper's outlook (§IV.A)."""
    cpu = Testbed().run_offload(model_name, wait_for_ack=True)
    gpu = Testbed(server_speedup=80.0).run_offload(model_name, wait_for_ack=True)
    return GpuStudy(
        model=model_name,
        cpu_offload_seconds=cpu.total_seconds,
        gpu_offload_seconds=gpu.total_seconds,
        gpu_server_exec_seconds=gpu.phases.server_exec,
    )


# -- 6. session cache (the paper's §VI future work) ---------------------------------

@dataclass
class SessionCacheStudy:
    """Repeated offloading with and without server-side session reuse."""

    model: str
    first_offload_seconds: float
    repeat_without_cache_seconds: float
    repeat_with_cache_seconds: float
    full_snapshot_bytes: int
    delta_snapshot_bytes: int

    @property
    def bytes_saving(self) -> float:
        if self.full_snapshot_bytes == 0:
            return 0.0
        return 1.0 - self.delta_snapshot_bytes / self.full_snapshot_bytes


def session_cache_study(model_name: str = "googlenet") -> SessionCacheStudy:
    """Quantify the future-work reuse of state left at the server."""
    without = Testbed().run_offload_repeated(
        model_name, repetitions=2, use_session_cache=False
    )
    with_cache = Testbed().run_offload_repeated(
        model_name, repetitions=2, use_session_cache=True
    )
    return SessionCacheStudy(
        model=model_name,
        first_offload_seconds=with_cache[0].total_seconds,
        repeat_without_cache_seconds=without[1].total_seconds,
        repeat_with_cache_seconds=with_cache[1].total_seconds,
        full_snapshot_bytes=without[1].snapshot.size_bytes,
        delta_snapshot_bytes=with_cache[1].snapshot.size_bytes,
    )


# -- 7. baseline comparison -------------------------------------------------------------

@dataclass
class BaselineRow:
    """One offloading approach's latency + capability profile."""

    approach: str
    first_use_seconds: float  # includes any setup on a fresh server
    steady_state_seconds: float
    any_app: bool  # can a generic server run arbitrary apps?
    stateless_handover: bool  # works on a new server without setup?


def baseline_comparison_study(model_name: str = "googlenet") -> List[BaselineRow]:
    """Snapshot offloading vs specialized service vs MAUI-style offloading.

    All three run on identical hardware and links; latencies are measured,
    capabilities follow from each approach's construction (and are
    exercised by tests: the specialized server refuses foreign apps, the
    MAUI server refuses uninstalled ones).
    """
    from repro.core.baselines import (
        MauiServer,
        SpecializedEdgeService,
        maui_exec,
        maui_install,
        specialized_request,
    )
    from repro.devices import Device, edge_server_x86

    model = build_paper_model(model_name)
    pixels = paper_input_for(model_name).data

    # Snapshot-based offloading (measured end to end).
    snapshot_first = Testbed().run_offload(model_name, wait_for_ack=False)
    snapshot_steady = Testbed().run_offload(model_name, wait_for_ack=True)

    # Specialized service: pre-deployed for exactly this task.
    testbed = Testbed()
    service = SpecializedEdgeService(
        testbed.sim,
        Device(testbed.sim, edge_server_x86()),
        model,
        service=model_name,
    )
    client_end, server_end = testbed.topology.attach("edge-1")
    service.serve(server_end)
    times = []
    for _ in range(2):
        process = testbed.sim.spawn(
            specialized_request(client_end, model_name, pixels)
        )
        testbed.sim.run_until(lambda: process.triggered)
        times.append(process.value[1])
    specialized_first, specialized_steady = times

    # MAUI-style: install the executable+model first, then execute remotely.
    testbed = Testbed()
    maui = MauiServer(testbed.sim, Device(testbed.sim, edge_server_x86()))
    client_end, server_end = testbed.topology.attach("edge-1")
    maui.serve(server_end)
    install = testbed.sim.spawn(maui_install(client_end, model_name, model))
    testbed.sim.run_until(lambda: install.triggered)
    first_exec = testbed.sim.spawn(maui_exec(client_end, model_name, pixels))
    testbed.sim.run_until(lambda: first_exec.triggered)
    second_exec = testbed.sim.spawn(maui_exec(client_end, model_name, pixels))
    testbed.sim.run_until(lambda: second_exec.triggered)

    return [
        BaselineRow(
            approach="snapshot offloading",
            first_use_seconds=snapshot_first.total_seconds,
            steady_state_seconds=snapshot_steady.total_seconds,
            any_app=True,
            stateless_handover=True,
        ),
        BaselineRow(
            approach="specialized service",
            first_use_seconds=specialized_first,
            steady_state_seconds=specialized_steady,
            any_app=False,
            stateless_handover=False,
        ),
        BaselineRow(
            approach="MAUI-style (pre-installed app)",
            first_use_seconds=install.value + first_exec.value[1],
            steady_state_seconds=second_exec.value[1],
            any_app=False,
            stateless_handover=False,
        ),
    ]


# -- 8. edge vs datacenter cloud -------------------------------------------------------

@dataclass
class LocationRow:
    """Offloading to a given server location/class."""

    location: str
    bandwidth_mbps: float
    one_way_latency_ms: float
    total_seconds: float
    migration_seconds: float
    server_exec_seconds: float


def edge_vs_cloud_study(model_name: str = "googlenet") -> List[LocationRow]:
    """The edge-computing motivation, quantified (paper §I).

    Three server placements for the same client and app:

    * *edge*: the paper's nearby server — 30 Mbps, ~1 ms;
    * *cloud*: the same x86 hardware behind a WAN — 20 Mbps, 40 ms;
    * *cloud-GPU*: a datacenter accelerator (80x) behind the same WAN.

    Expected shape: proximity wins while servers are CPU-bound (the
    paper's setting); only an accelerator makes the remote datacenter
    competitive for these single-shot inferences.
    """
    placements = (
        ("edge", 30.0, 1.0, 1.0),
        ("cloud", 20.0, 40.0, 1.0),
        ("cloud-gpu", 20.0, 40.0, 80.0),
    )
    rows = []
    for location, mbps, latency_ms, speedup in placements:
        result = Testbed(
            bandwidth_bps=mbps * 1e6,
            latency_s=latency_ms / 1e3,
            server_speedup=speedup,
        ).run_offload(model_name, wait_for_ack=True)
        rows.append(
            LocationRow(
                location=location,
                bandwidth_mbps=mbps,
                one_way_latency_ms=latency_ms,
                total_seconds=result.total_seconds,
                migration_seconds=result.migration_seconds,
                server_exec_seconds=result.phases.server_exec,
            )
        )
    return rows


# -- 9. predictor feature sets ---------------------------------------------------------

@dataclass
class PredictorStudyRow:
    """Prediction error of one feature set on one device class."""

    device: str
    flops_only_error: float
    multivariate_error: float


def predictor_feature_study() -> List[PredictorStudyRow]:
    """Flops-only vs compute+memory latency models, Neurosurgeon-style.

    Profiled over a configuration grid.  On the paper's compute-bound
    devices one feature suffices; on a memory-bandwidth-bound device the
    flops-only model breaks and the output-size feature rescues it.
    """
    from repro.devices import Device, DeviceProfile, odroid_xu4_client
    from repro.devices.predictor import (
        LatencyPredictor,
        MultivariatePredictor,
        prediction_error,
        profile_device,
        profiling_grid,
    )
    from repro.sim import Simulator

    grid = profiling_grid()
    profiles = [
        odroid_xu4_client(),
        DeviceProfile(
            name="memory-bound-accelerator",
            gflops_by_kind={"conv": 20.0, "pool": 40.0, "relu": 80.0, "fc": 20.0},
            default_gflops=20.0,
            mem_bw_bps=200e6,
        ),
    ]
    rows = []
    for profile in profiles:
        sim = Simulator()
        device = Device(sim, profile)
        samples = profile_device(profile, grid, noise=0.01)
        rows.append(
            PredictorStudyRow(
                device=profile.name,
                flops_only_error=prediction_error(
                    LatencyPredictor().fit(samples), device, grid
                ),
                multivariate_error=prediction_error(
                    MultivariatePredictor().fit(samples), device, grid
                ),
            )
        )
    return rows


# -- 10. contention on one edge ----------------------------------------------------------

def contention_study(
    model_name: str = "smallnet",
    client_counts: Sequence[int] = (1, 4),
    seed: int = 0,
) -> Dict[int, FleetReport]:
    """Request latency as the load on one shared edge server grows.

    ``count`` sessions of three requests all arrive within a few
    milliseconds and think 50 ms between requests, so a bigger burst means
    deeper FIFO queues on the edge's browser device.
    """
    from repro.fleet import EdgeSpec, FleetScenario

    return {
        count: FleetScenario(
            model_name=model_name,
            edges=[EdgeSpec("edge")],
            sessions=count,
            requests_per_session=3,
            arrival_rate_per_s=1000.0,
            mean_think_seconds=0.05,
            seed=seed,
        ).run()
        for count in client_counts
    }


# -- CLI rendering ---------------------------------------------------------------

#: study names `repro ablation` accepts, in menu order
STUDY_NAMES = (
    "bandwidth", "partition", "decision", "snapshot", "gpu",
    "cache", "contention", "baselines", "placement", "streaming",
)


def study_report(which: str) -> str:
    """Run one ablation study and render its report text — the body of
    ``repro ablation <which>``."""
    from repro.eval.reporting import format_table

    lines: List[str] = []
    if which == "bandwidth":
        points = bandwidth_sweep("googlenet")
        lines.append(
            format_table(
                ["Mbps", "offload s", "client s", "offload wins"],
                [
                    [p.bandwidth_mbps, p.offload_seconds, p.client_seconds,
                     str(p.offload_wins)]
                    for p in points
                ],
            )
        )
    elif which == "partition":
        for mbps, label in partition_adaptivity("googlenet").items():
            lines.append(f"{mbps:>6g} Mbps -> {label}")
    elif which == "decision":
        for outcome in decision_study():
            lines.append(
                f"{outcome.model}: policy={outcome.decision.action} "
                f"measured={outcome.measured_best} agrees={outcome.policy_agrees}"
            )
    elif which == "snapshot":
        sizes = snapshot_optimization_study("googlenet")
        lines.append(f"conservative  : {sizes.conservative_bytes / 1e6:.2f} MB")
        lines.append(f"live-only     : {sizes.live_only_bytes / 1e6:.2f} MB")
        lines.append(f"live+data-URL : {sizes.data_url_bytes / 1e6:.2f} MB")
    elif which == "gpu":
        study = gpu_server_study()
        lines.append(f"CPU server : {study.cpu_offload_seconds:.2f} s")
        lines.append(f"GPU server : {study.gpu_offload_seconds:.2f} s "
                     f"(exec {study.gpu_server_exec_seconds:.3f} s)")
    elif which == "cache":
        study = session_cache_study()
        lines.append(f"first offload        : {study.first_offload_seconds:.2f} s")
        lines.append(
            f"repeat, full snapshot: {study.repeat_without_cache_seconds:.2f} s"
        )
        lines.append(f"repeat, delta        : {study.repeat_with_cache_seconds:.2f} s "
                     f"({study.bytes_saving:.0%} fewer bytes)")
    elif which == "contention":
        for count, report in contention_study("smallnet", (1, 2, 4, 8)).items():
            lines.append(f"{count} clients: mean {report.mean_latency * 1000:6.1f} ms")
    elif which == "baselines":
        for row in baseline_comparison_study():
            lines.append(
                f"{row.approach:32s} first {row.first_use_seconds:6.2f}s "
                f"steady {row.steady_state_seconds:5.2f}s "
                f"any_app={row.any_app} handover={row.stateless_handover}"
            )
    elif which == "placement":
        for row in edge_vs_cloud_study():
            lines.append(
                f"{row.location:10s} total {row.total_seconds:5.2f}s "
                f"(migration {row.migration_seconds:.2f}s, "
                f"exec {row.server_exec_seconds:.2f}s)"
            )
    elif which == "streaming":
        from repro.eval.streaming import run_stream

        for mode, kwargs in (
            ("client", {}),
            ("offload", {}),
            ("offload+gpu", {"server_speedup": 80.0}),
        ):
            report = run_stream(
                "agenet",
                frames=4,
                fps=1.0,
                mode="client" if mode == "client" else "offload",
                **kwargs,
            )
            lines.append(
                f"{mode:12s} fps {report.achieved_fps:5.2f} "
                f"latency {report.mean_latency:5.2f}s keeps_up={report.keeps_up}"
            )
    else:
        raise ValueError(f"unknown ablation study {which!r}")
    return "\n".join(lines)
