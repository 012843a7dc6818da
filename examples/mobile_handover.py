#!/usr/bin/env python
"""Mobility: hand over to a fresh edge server and install on demand.

The paper's mobility argument (§I, §III.B.3): a snapshot has no dependence
on the previous server, so after a handover the client can offload to any
new edge server — installing the offloading system there at runtime via VM
synthesis if it is missing.

Timeline simulated here:

  t=0      client attaches to edge-A (pre-installed), pre-sends the model
  inference #1  -> offloaded to edge-A (fast: model already there)
  handover      -> client moves; edge-B has NO offloading system
  capability probe -> edge-B answers "not installed"
  VM synthesis  -> client ships the compressed overlay (system + model)
  inference #2  -> offloaded to edge-B (fast again: model came in overlay)

Run:  python examples/mobile_handover.py
"""

from repro.core import protocol
from repro.core.client import ClientAgent
from repro.core.server import EdgeServer
from repro.devices import Device, edge_server_x86, odroid_xu4_client
from repro.netsim import NetemProfile, Topology
from repro.nn.cost import network_costs
from repro.nn.zoo import smallnet
from repro.sim import SeededRng, Simulator
from repro.vmsynth import DiskImage, build_overlay
from repro.vmsynth.synthesis import deliver_overlay
from repro.web.app import make_inference_app
from repro.web.values import TypedArray


def offload_once(sim, client, model, label):
    client.runtime.dispatch("click", "infer_btn")
    event = client.take_intercepted()
    process = sim.spawn(
        client.offload(event, server_costs=network_costs(model.network))
    )
    sim.run_until(lambda: process.triggered)
    outcome = process.value
    print(f"  {label}: {outcome.total_seconds:.3f} s "
          f"(models attached: {outcome.delivery_bytes / 1e3:.0f} kB), result "
          f"{client.runtime.document.get('result').text_content!r}")
    return outcome


def main() -> None:
    sim = Simulator()
    model = smallnet()

    topology = Topology(sim)
    topology.add_edge_host("edge-A", NetemProfile.wifi_30mbps())
    topology.add_edge_host("edge-B", NetemProfile.wifi_30mbps())

    server_a = EdgeServer(sim, Device(sim, edge_server_x86()), "edge-A", installed=True)
    server_b = EdgeServer(sim, Device(sim, edge_server_x86()), "edge-B", installed=False)

    # -- attach to edge-A, start the app, pre-send the model ---------------
    client_end, server_end = topology.attach("edge-A")
    server_a.serve(server_end)
    client = ClientAgent(
        sim,
        Device(sim, odroid_xu4_client()),
        client_end,
    )
    client.start_app(make_inference_app(model), presend=True)
    client.runtime.globals["pending_pixels"] = TypedArray(
        SeededRng(0, "handover").uniform_array((3, 32, 32), 0, 255)
    )
    client.runtime.dispatch("click", "load_btn")
    client.mark_offload_point("click", "infer_btn")
    sim.run()  # let pre-sending to edge-A finish
    print(f"t={sim.now:.3f}s  attached to edge-A, model pre-sent and ACKed")
    offload_once(sim, client, model, "inference #1 on edge-A")

    # -- handover: edge-B has no offloading system --------------------------
    client_end, server_end = topology.handover("edge-B")
    server_b.serve(server_end)
    client.rebind(client_end)  # the old server's state is simply left behind
    print(f"t={sim.now:.3f}s  handed over to edge-B")

    probe = client_end.send(protocol.PING, None)
    answer = client_end.recv_kind(protocol.PONG)
    sim.run_until(lambda: answer.triggered)
    capability = answer.value.payload
    print(f"t={sim.now:.3f}s  edge-B capability: "
          f"installed={capability.has_offloading_system}")

    # -- on-demand installation via VM synthesis ---------------------------
    overlay = build_overlay(DiskImage.ubuntu_base(), [model])
    print(f"          shipping VM overlay: {overlay.size_mb:.1f} MB compressed "
          f"(system + model)")
    install = sim.spawn(deliver_overlay(client_end, overlay))
    sim.run_until(lambda: install.triggered)
    print(f"t={sim.now:.3f}s  edge-B synthesized the VM and is ready")

    # -- offload to the fresh server ----------------------------------------
    offload_once(sim, client, model, "inference #2 on edge-B")
    print("\nThe snapshot needed nothing from edge-A: handover is stateless.")


if __name__ == "__main__":
    main()
