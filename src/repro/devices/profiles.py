"""Calibrated device profiles.

Throughputs are *effective* GFLOP/s for DNN layers executed by a JavaScript
ML framework (CaffeJS on WebKit) — far below hardware peak, which is exactly
the regime the paper measures ("since Caffe.js cannot exploit GPUs yet, the
server execution time is much longer than it should be").

Calibration rationale (see also ``repro.eval.calibration``):

* GoogLeNet forward is ~3.2 GFLOPs.  The paper's Fig. 6 shows client-side
  inference of tens of seconds and server-side inference of a few seconds.
  ``CLIENT_CONV_GFLOPS = 0.16`` puts the Odroid client near 20 s and
  ``SERVER_CONV_GFLOPS = 1.30`` puts the x86 server near 2.5 s, preserving
  the paper's ~8x client/server gap.
* fc layers are memory-bound in JS; they get a lower effective rate.
* Snapshot capture/restore rates are tuned so that a ~0.1 MB snapshot costs
  milliseconds (the paper: "negligible") while multi-MB feature payloads
  cost a visible-but-small fraction of a second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a machine's effective DNN performance."""

    name: str
    #: effective throughput per layer kind, in GFLOP/s
    gflops_by_kind: Mapping[str, float] = field(default_factory=dict)
    #: fallback throughput for layer kinds not listed above
    default_gflops: float = 0.5
    #: fixed dispatch overhead added per layer execution (framework cost)
    per_layer_overhead_s: float = 0.0
    #: rate at which the browser serializes state into snapshot text, bytes/s
    snapshot_serialize_bps: float = 50e6
    #: rate at which the browser parses/executes snapshot text, bytes/s
    snapshot_restore_bps: float = 80e6
    #: fixed cost of taking / restoring any snapshot (DOM walk, page setup)
    snapshot_fixed_s: float = 0.01
    #: marginal cost of adding one more sample to a batched forward, as a
    #: fraction of that sample's standalone cost.  The batched kernels
    #: (batched im2col + broadcast GEMM) amortize dispatch and weight-matrix
    #: reuse across the batch; the measured smallnet batch-8 speedup is
    #: ~2.3x per image, i.e. each extra sample costs ~1/2.3 ≈ 0.45 of a
    #: solo forward.  1.0 disables amortization (a batch costs the sum of
    #: its items); the first item always costs its full solo time.
    batch_marginal_fraction: float = 0.45
    memory_bytes: int = 2 * 1024**3
    cores: int = 4

    def gflops_for(self, kind: str) -> float:
        """Effective GFLOP/s for a layer kind."""
        return float(self.gflops_by_kind.get(kind, self.default_gflops))

    def seconds_for(self, kind: str, flops: float) -> float:
        """Time to execute ``flops`` floating point ops of a given kind."""
        rate = self.gflops_for(kind) * 1e9
        return flops / rate + self.per_layer_overhead_s


def odroid_xu4_client() -> DeviceProfile:
    """The paper's client: Odroid-XU4 (ARM big.LITTLE 2.0/1.5 GHz, 2 GB)."""
    return DeviceProfile(
        name="odroid-xu4",
        gflops_by_kind={
            "conv": 0.16,
            "fc": 0.10,
            "pool": 0.30,
            "relu": 0.60,
            "lrn": 0.20,
            "softmax": 0.30,
            "concat": 1.00,
            "dropout": 2.00,
            "input": 10.0,
        },
        default_gflops=0.20,
        per_layer_overhead_s=0.002,
        snapshot_serialize_bps=30e6,
        snapshot_restore_bps=45e6,
        snapshot_fixed_s=0.015,
        memory_bytes=2 * 1024**3,
        cores=4,
    )


def edge_server_x86(speedup: float = 1.0) -> DeviceProfile:
    """The paper's edge server: x86 3.4 GHz quad-core, 16 GB, no GPU.

    ``speedup`` scales every throughput; used by ablations (e.g. the paper's
    remark that WebGL would give ~80x on DNN inference).
    """
    base = {
        "conv": 1.30,
        "fc": 0.80,
        "pool": 2.40,
        "relu": 5.00,
        "lrn": 1.60,
        "softmax": 2.40,
        "concat": 8.00,
        "dropout": 16.0,
        "input": 80.0,
    }
    return DeviceProfile(
        name="edge-x86" if speedup == 1.0 else f"edge-x86-{speedup:g}x",
        gflops_by_kind={kind: rate * speedup for kind, rate in base.items()},
        default_gflops=1.6 * speedup,
        per_layer_overhead_s=0.0005,
        snapshot_serialize_bps=120e6,
        snapshot_restore_bps=180e6,
        snapshot_fixed_s=0.005,
        memory_bytes=16 * 1024**3,
        cores=4,
    )
