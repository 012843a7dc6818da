"""A day in the life: one long narrative integration scenario.

A single simulated client drives everything the system offers, in one
continuous timeline, with every intermediate result checked:

  t=0    attach to edge-A (pre-installed); start the GoogLeNet-mini app;
         pre-sending begins
  click  #1 arrives before the ACK on a slow link -> model rides along
  click  #2 after ACK -> tiny delta snapshot (session cache)
  fade   the link drops to 1 Mbps; click #3 still completes (delta)
  move   handover to edge-B, which has NO offloading system
  probe  edge-B: not installed -> ship VM overlay (system + model)
  click  #4 offloads to edge-B; the stale session baseline from edge-A
         triggers the transparent full-snapshot fallback
  click  #5 -> delta against edge-B's fresh session

Uses smallnet-scale models so the whole story runs in milliseconds of
wall time while exercising the same machinery as the paper-scale runs.
"""

import numpy as np
import pytest

from repro.core import protocol
from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.core.snapshot import CaptureOptions
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import NetemProfile, Topology
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.vmsynth import DiskImage, build_overlay
from repro.vmsynth.synthesis import deliver_overlay
from repro.web.app import make_inference_app
from repro.web.values import TypedArray


def profile(mbps):
    return NetemProfile(bandwidth_bps=mbps * 1e6, latency_s=0.001)


@pytest.fixture(scope="module")
def story():
    """Run the whole narrative once; tests assert on the transcript."""
    sim = Simulator()
    model = smallnet()
    costs = network_costs(model.network)
    rng = SeededRng(0, "story")
    expected = {}

    topology = Topology(sim)
    topology.add_edge_host("edge-A", profile(2.0))  # slow enough to race ACK
    topology.add_edge_host("edge-B", profile(30.0))
    server_a = EdgeServer(sim, Device(sim, edge_server_x86()), "edge-A")
    server_b = EdgeServer(
        sim, Device(sim, edge_server_x86()), "edge-B", installed=False
    )

    client_end, server_end = topology.attach("edge-A")
    server_a.serve(server_end)
    client = ClientAgent(
        sim,
        Device(sim, odroid_xu4_client()),
        client_end,
        capture_options=CaptureOptions(include_canvas_pixels=True),
    )
    client.start_app(make_inference_app(model), presend=True)
    pixels = TypedArray(rng.uniform_array((3, 32, 32), 0, 255))
    client.runtime.globals["pending_pixels"] = pixels
    client.runtime.dispatch("click", "load_btn")
    client.mark_offload_point("click", "infer_btn")
    expected["label"] = int(np.argmax(model.inference(pixels.data)))

    transcript = {"offloads": [], "events": []}

    def offload():
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        process = sim.spawn(client.offload(event, server_costs=costs))
        sim.run_until(lambda: process.triggered)
        assert process.ok, process.value
        outcome = process.value
        transcript["offloads"].append(
            {
                "at": sim.now,
                "kind": outcome.snapshot.kind,
                "delivery_bytes": outcome.delivery_bytes,
                "label": client.runtime.globals.get("result_label"),
            }
        )
        return outcome

    # click #1: immediately, before the slow upload can finish
    offload()
    transcript["events"].append(("before-ack-offload", sim.now))
    sim.run()  # drain any remaining presend traffic

    # click #2: steady state on edge-A
    offload()

    # the link fades to 1 Mbps; click #3
    topology.channel.set_profile(profile(1.0))
    offload()
    transcript["events"].append(("fade-survived", sim.now))

    # handover to edge-B (no offloading system there)
    client_end, server_end = topology.handover("edge-B")
    server_b.serve(server_end)
    client.endpoint = client_end
    client.presend = None
    probe_reply = []

    def probe():
        client_end.send(protocol.PING, None)
        message = yield client_end.recv_kind(protocol.PONG)
        probe_reply.append(message.payload)

    sim.spawn(probe())
    sim.run()
    transcript["capability"] = probe_reply[0].has_offloading_system

    overlay = build_overlay(DiskImage.ubuntu_base(), [model])
    install = sim.spawn(deliver_overlay(client_end, overlay))
    sim.run_until(lambda: install.triggered)
    transcript["events"].append(("installed-edge-B", sim.now))

    # click #4: stale session baseline from edge-A -> fallback to full
    offload()
    # click #5: now a delta against edge-B's session
    offload()

    transcript["expected_label"] = expected["label"]
    transcript["server_a"] = server_a
    transcript["server_b"] = server_b
    transcript["client"] = client
    return transcript


class TestNarrative:
    def test_five_offloads_completed(self, story):
        assert len(story["offloads"]) == 5

    def test_every_offload_computed_the_right_label(self, story):
        for record in story["offloads"]:
            assert record["label"] == story["expected_label"]

    def test_first_offload_shipped_the_model(self, story):
        first = story["offloads"][0]
        assert first["kind"] == "full"
        assert first["delivery_bytes"] > 0

    def test_second_and_third_were_deltas(self, story):
        assert story["offloads"][1]["kind"] == "delta"
        assert story["offloads"][2]["kind"] == "delta"
        assert story["offloads"][1]["delivery_bytes"] == 0

    def test_edge_b_reported_uninstalled_then_installed(self, story):
        assert story["capability"] is False
        assert story["server_b"].installed is True
        assert story["server_b"].install_log  # timestamped installation

    def test_handover_fell_back_to_full_then_delta(self, story):
        assert story["offloads"][3]["kind"] == "full"
        assert story["offloads"][4]["kind"] == "delta"
        # The fallback was transparent: no deliveries needed (the overlay
        # bundled the model).
        assert story["offloads"][3]["delivery_bytes"] == 0

    def test_request_distribution_across_servers(self, story):
        assert story["server_a"].served_requests == 3
        assert story["server_b"].served_requests == 2
        # Edge-A also reported the stale-session error... no: the fallback
        # happened against edge-B.  Edge-B saw exactly one such error.
        assert any(
            "no cached session" in error for error in story["server_b"].errors
        )

    def test_fade_did_not_break_anything(self, story):
        events = dict(story["events"])
        assert "fade-survived" in events
