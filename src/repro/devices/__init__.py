"""Device models and latency prediction.

The paper's testbed is an Odroid-XU4 client (ARM big.LITTLE, 2.0/1.5 GHz)
and an x86 edge server (3.4 GHz quad-core), both running DNN inference in
JavaScript (CaffeJS on WebKit, no GPU).  We model each machine as a
:class:`~repro.devices.device.Device` with calibrated per-layer-type
effective throughputs, and reproduce the Neurosurgeon-style per-layer
latency *prediction model* the paper uses to pick partition points
(:mod:`repro.devices.predictor`).
"""

from repro.devices.profiles import (
    DeviceProfile,
    edge_server_x86,
    odroid_xu4_client,
)
from repro.devices.device import Device, FifoResource
from repro.devices.predictor import LatencyPredictor, ProfiledSample

__all__ = [
    "Device",
    "DeviceProfile",
    "FifoResource",
    "LatencyPredictor",
    "ProfiledSample",
    "edge_server_x86",
    "odroid_xu4_client",
]
