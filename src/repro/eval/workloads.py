"""Interactive workloads and multi-client edge-server scenarios.

The paper measures single interactions; real edge servers serve many
clients whose requests contend for the same browser/CPU.  This module
generates user-interaction *traces* (think: a person pointing a camera and
tapping "inference" every few seconds, occasionally on a new photo) and
replays any number of them against one shared :class:`~repro.core.server.EdgeServer`,
whose FIFO device makes queueing delays honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.eval import calibration
from repro.eval.scenarios import build_paper_model, paper_input_for
from repro.netsim import NetemProfile, Channel
from repro.nn.cost import network_costs
from repro.sim import SeededRng, Simulator
from repro.web.app import make_inference_app
from repro.web.values import TypedArray


@dataclass(frozen=True)
class Interaction:
    """One user action in a trace."""

    at_seconds: float
    action: str  # "new_image" | "infer"


def generate_trace(
    rng: SeededRng,
    inferences: int = 5,
    mean_think_seconds: float = 4.0,
    new_image_probability: float = 0.4,
) -> List[Interaction]:
    """A user's session: Poisson think times, occasional new photos."""
    if inferences <= 0:
        raise ValueError("a trace needs at least one inference")
    interactions: List[Interaction] = []
    now = 0.0
    for index in range(inferences):
        now += rng.expovariate(1.0 / mean_think_seconds)
        if index == 0 or rng.chance(new_image_probability):
            interactions.append(Interaction(at_seconds=now, action="new_image"))
            now += 0.3  # the user looks at the new photo briefly
        interactions.append(Interaction(at_seconds=now, action="infer"))
    return interactions


def poisson_arrivals(
    rng: SeededRng, rate_per_s: float, count: int
) -> List[float]:
    """Absolute start times of ``count`` sessions arriving Poisson(rate).

    The fleet scenarios use this for session arrivals: inter-arrival gaps
    are exponential with mean ``1/rate_per_s``, cumulated from t=0.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    starts: List[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        starts.append(now)
    return starts


@dataclass
class RequestRecord:
    """Latency record of one offloaded inference."""

    client_name: str
    issued_at: float
    completed_at: float
    snapshot_kind: str
    correct: bool

    @property
    def latency_seconds(self) -> float:
        return self.completed_at - self.issued_at


@dataclass
class WorkloadReport:
    """Outcome of a multi-client replay."""

    records: List[RequestRecord] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.latency_seconds for r in self.records) / len(self.records)

    @property
    def max_latency(self) -> float:
        return max((r.latency_seconds for r in self.records), default=0.0)

    @property
    def all_correct(self) -> bool:
        return all(record.correct for record in self.records)


class MultiClientScenario:
    """N clients replaying traces against one shared edge server."""

    def __init__(
        self,
        model_name: str = "smallnet",
        num_clients: int = 2,
        bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
        seed: int = 0,
        session_cache: bool = True,
    ):
        self.model_name = model_name
        self.sim = Simulator()
        self.rng = SeededRng(seed, f"workload/{model_name}")
        self.server = EdgeServer(
            self.sim,
            Device(self.sim, edge_server_x86()),
            name="edge",
            session_cache=session_cache,
        )
        self.clients: List[ClientAgent] = []
        self.traces: Dict[str, List[Interaction]] = {}
        profile = NetemProfile(bandwidth_bps=bandwidth_bps, latency_s=0.001)
        for index in range(num_clients):
            name = f"client-{index}"
            channel = Channel(self.sim, name, "edge", profile)
            self.server.serve(channel.end_b)
            client = ClientAgent(
                self.sim,
                Device(self.sim, odroid_xu4_client()),
                channel.end_a,
                capture_options=CaptureOptions(include_canvas_pixels=True),
            )
            client.name = name
            self.clients.append(client)
            self.traces[name] = generate_trace(
                self.rng.child(name),
                inferences=3,
            )
        self.report = WorkloadReport()

    def set_trace(self, client_index: int, trace: List[Interaction]) -> None:
        self.traces[self.clients[client_index].name] = list(trace)

    # -- replay ------------------------------------------------------------------
    def _client_process(self, client: ClientAgent):
        model = build_paper_model(self.model_name)
        costs = network_costs(model.network)
        expected = None
        client.start_app(make_inference_app(model), presend=True)
        client.mark_offload_point("click", "infer_btn")
        image_rng = self.rng.child(f"{client.name}/images")
        shape = model.network.input_shape

        def load_new_image():
            client.runtime.globals["pending_pixels"] = TypedArray(
                image_rng.uniform_array(shape, 0, 255)
            )
            client.runtime.dispatch("click", "load_btn")
            return int(
                __import__("numpy").argmax(
                    model.inference(client.runtime.globals["pending_pixels"].data)
                )
            )

        for interaction in self.traces[client.name]:
            wait = interaction.at_seconds - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            if interaction.action == "new_image":
                expected = load_new_image()
                continue
            issued_at = self.sim.now
            client.runtime.dispatch("click", "infer_btn")
            event = client.take_intercepted()
            outcome = yield from client.offload(event, server_costs=costs)
            self.report.records.append(
                RequestRecord(
                    client_name=client.name,
                    issued_at=issued_at,
                    completed_at=self.sim.now,
                    snapshot_kind=outcome.snapshot.kind,
                    correct=client.runtime.globals.get("result_label") == expected,
                )
            )

    def run(self) -> WorkloadReport:
        processes = [
            self.sim.spawn(self._client_process(client), label=client.name)
            for client in self.clients
        ]
        self.sim.run_until_done(processes)
        return self.report


def contention_study(
    model_name: str = "smallnet",
    client_counts=(1, 4),
    seed: int = 0,
) -> Dict[int, WorkloadReport]:
    """Mean request latency as the shared server's load grows.

    All clients issue their inferences at (nearly) the same instants, so a
    bigger fleet means deeper FIFO queues on the server's browser device.
    """
    reports = {}
    for count in client_counts:
        scenario = MultiClientScenario(model_name, num_clients=count, seed=seed)
        # Synchronized bursts: every client follows the same trace times.
        base_trace = generate_trace(SeededRng(seed, "burst"), inferences=3)
        for index in range(count):
            scenario.set_trace(index, base_trace)
        reports[count] = scenario.run()
    return reports
