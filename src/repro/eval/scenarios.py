"""The shared experimental testbed.

:class:`Testbed` assembles the paper's setup on the simulator: an
Odroid-class client and an x86 edge server joined by a 30 Mbps shaped
link, with the edge server agent already serving.  Experiments create one
fresh testbed per measured configuration (virtual clocks start at zero, so
runs never contaminate each other) and use the ``run_*`` helpers, each of
which drives a full :class:`~repro.core.session.OffloadingSession` and
returns its :class:`~repro.core.session.SessionResult`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.session import (
    OffloadingSession,
    SessionResult,
    expected_label_for,
    run_server_only,
)
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.eval import calibration
from repro.netsim import NetemProfile, Topology
from repro.nn.cost import costs_for_range, network_costs
from repro.nn.model import Model
from repro.nn.zoo import build_model
from repro.sim import SeededRng, Simulator
from repro.web.app import WebApp, make_inference_app, make_partial_inference_app
from repro.web.values import TypedArray


@functools.lru_cache(maxsize=8)
def build_paper_model(name: str, seed: int = calibration.EXPERIMENT_SEED) -> Model:
    """Build (and cache) a benchmark model.

    Sessions never mutate model parameters, so sharing one instance across
    testbeds is safe and saves rebuilding GoogLeNet per configuration.
    """
    return build_model(name, seed=seed)


@functools.lru_cache(maxsize=8)
def paper_input_for(name: str) -> TypedArray:
    """The canonical input image for a benchmark app (text-serialized)."""
    model = build_paper_model(name)
    shape = model.network.input_shape
    seed = calibration.INPUT_SEEDS.get(name, 99)
    rng = SeededRng(seed, f"input/{name}")
    return TypedArray(rng.uniform_array(shape, 0.0, 255.0))


@functools.lru_cache(maxsize=8)
def expected_label(name: str) -> int:
    model = build_paper_model(name)
    return expected_label_for(model, paper_input_for(name))


class Testbed:
    """Client + edge server + shaped link, ready to run sessions."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(
        self,
        bandwidth_bps: float = calibration.PAPER_BANDWIDTH_BPS,
        latency_s: float = calibration.PAPER_LATENCY_S,
        server_installed: bool = True,
        server_speedup: float = 1.0,
    ):
        self.sim = Simulator()
        self.client_profile = odroid_xu4_client()
        self.server_profile = edge_server_x86(server_speedup)
        self.client_device = Device(self.sim, self.client_profile)
        self.server_device = Device(self.sim, self.server_profile)
        self.profile = NetemProfile(bandwidth_bps=bandwidth_bps, latency_s=latency_s)
        self.topology = Topology(self.sim)
        self.topology.add_edge_host("edge-1", self.profile)
        client_end, server_end = self.topology.attach("edge-1")
        self.server = EdgeServer(
            self.sim, self.server_device, name="edge-1", installed=server_installed
        )
        self.server.serve(server_end)
        self.client = ClientAgent(self.sim, self.client_device, client_end)

    # -- session builders -------------------------------------------------------
    def _session(
        self,
        model_name: str,
        app: WebApp,
        split_index: Optional[int] = None,
        partition_label: Optional[str] = None,
    ) -> OffloadingSession:
        model = build_paper_model(model_name)
        full = network_costs(model.network)
        front = rear = None
        if split_index is not None:
            last = len(model.network.layers) - 1
            front = costs_for_range(model.network, 0, split_index)
            rear = costs_for_range(model.network, split_index + 1, last)
        return OffloadingSession(
            self.sim,
            self.client,
            app,
            model_name,
            paper_input_for(model_name),
            full_costs=full,
            front_costs=front,
            rear_costs=rear,
            expected_label=expected_label(model_name),
            partition_label=partition_label,
        )

    def _run(self, process) -> SessionResult:
        done = self.sim.spawn(process, label="session")
        self.sim.run_until(lambda: done.triggered)
        if done.ok is False:
            raise done.value
        return done.value

    # -- the Fig. 6 configurations ------------------------------------------------
    def run_client_only(self, model_name: str) -> SessionResult:
        model = build_paper_model(model_name)
        session = self._session(model_name, make_inference_app(model))
        return self._run(session.run_client_only())

    def run_server_only(self, model_name: str) -> SessionResult:
        model = build_paper_model(model_name)
        process = run_server_only(
            self.sim,
            self.server_device,
            make_inference_app(model),
            model_name,
            paper_input_for(model_name),
            network_costs(model.network),
            expected_label=expected_label(model_name),
        )
        return self._run(process)

    def run_offload(self, model_name: str, wait_for_ack: bool) -> SessionResult:
        model = build_paper_model(model_name)
        session = self._session(model_name, make_inference_app(model))
        return self._run(session.run_offload(wait_for_ack=wait_for_ack))

    def run_offload_repeated(
        self,
        model_name: str,
        repetitions: int = 3,
        use_session_cache: bool = True,
    ):
        """N back-to-back inferences after the ACK; returns outcome list.

        Exercises the paper's future-work path: with the session cache,
        every offload after the first sends a delta against the state left
        on the server.
        """
        model = build_paper_model(model_name)
        costs = network_costs(model.network)
        self.client.start_app(make_inference_app(model), presend=True)
        self.client.runtime.globals["pending_pixels"] = paper_input_for(model_name)
        self.client.runtime.dispatch("click", "load_btn")
        self.client.mark_offload_point("click", "infer_btn")
        self.sim.run()  # pre-sending completes
        outcomes = []
        for _ in range(repetitions):
            self.client.runtime.dispatch("click", "infer_btn")
            event = self.client.take_intercepted()
            process = self.sim.spawn(
                self.client.offload(
                    event, server_costs=costs, use_session_cache=use_session_cache
                )
            )
            self.sim.run_until(lambda: process.triggered)
            if process.ok is False:
                raise process.value
            outcomes.append(process.value)
        return outcomes

    def run_offload_partial(
        self,
        model_name: str,
        point_label: str = calibration.FIG6_PARTIAL_POINT,
        wait_for_ack: bool = True,
    ) -> SessionResult:
        model = build_paper_model(model_name)
        point = model.network.point_by_label(point_label)
        front, rear = model.split(point.index)
        app = make_partial_inference_app(
            front, rear, name=f"{model_name}-partial@{point_label}"
        )
        session = self._session(
            model_name, app, split_index=point.index, partition_label=point_label
        )
        return self._run(session.run_offload_partial(wait_for_ack=wait_for_ack))
