"""Every calibrated constant of the reproduction, with provenance.

The paper reports measurements from a physical testbed (Odroid-XU4 client,
x86 server, netem-shaped Ethernet, WebKit + CaffeJS).  Our substrate is a
simulator, so a handful of constants anchor virtual time to that testbed.
This module is the single registry of those constants; experiments import
from here, and EXPERIMENTS.md cites these names when comparing paper
numbers to measured numbers.

None of the *shape* claims (who wins, crossovers, orderings) depend on
fine-tuning these: they follow from architecture-derived quantities (model
bytes, per-layer FLOPs, feature sizes) divided by rates in the right
ballpark.
"""

from __future__ import annotations

from repro.netsim.link import NetemProfile

#: Paper §IV: "We limited the network bandwidth under 30 Mbps to emulate
#: the network condition similar to Wi-Fi by using netem".
PAPER_BANDWIDTH_BPS = 30e6

#: One-way LAN latency under netem; the paper does not report it, 1 ms is
#: a standard shaped-Ethernet figure.  Sub-dominant everywhere.
PAPER_LATENCY_S = 0.001


def paper_link(bandwidth_bps: float = PAPER_BANDWIDTH_BPS) -> NetemProfile:
    """The testbed's shaped link, at ``bandwidth_bps`` (the paper's 30 Mbps)."""
    return NetemProfile(bandwidth_bps=bandwidth_bps, latency_s=PAPER_LATENCY_S)


#: Device throughputs live in repro.devices.profiles; they were chosen so
#: that GoogLeNet (3.19 GFLOPs, computed from the architecture) lands near
#: 20 s on the client and 2.5 s on the server — the magnitudes of Fig. 6
#: for CaffeJS without GPU — preserving the ~8x client/server gap.
CLIENT_GOOGLENET_SECONDS_TARGET = 20.0
SERVER_GOOGLENET_SECONDS_TARGET = 2.5

#: Input images for the benchmark apps, matching each model's input layer.
#: The pixels travel as canvas data (text-serialized), the dominant part of
#: a full-offload snapshot — the paper's ~0.6 s migration at 30 Mbps.
INPUT_SEEDS = {"googlenet": 11, "agenet": 12, "gendernet": 13}

#: VM overlay compression (repro.vmsynth.components): solving the paper's
#: two overlay equations (65 MB with a 27 MB model, 82 MB with 44 MB)
#: gives ~0.37 for binaries/libraries and ~0.98 for model parameters.
#: Synthesis-side rates (decompress 80 MB/s, apply 400 MB/s, boot 0.8 s)
#: put total install time in the paper's 19-24 s band once transfer at
#: 30 Mbps is added.
OVERLAY_BINARY_RATIO = 0.374
OVERLAY_MODEL_RATIO = 0.98

#: The paper's Fig. 6 partial-inference bar offloads at the first pool
#: layer: "the partial inference result in Fig. 6 was based on offloading
#: at 1st_pool layer".
FIG6_PARTIAL_POINT = "1st_pool"

#: Canonical experiment seed; every experiment is deterministic given it.
EXPERIMENT_SEED = 0
