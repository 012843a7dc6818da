"""The paper's contribution: snapshot-based offloading for ML web apps.

Subpackages / modules:

* :mod:`repro.core.snapshot` — capture a running web app's execution state
  into an executable *snapshot program*, restore it on another runtime, and
  capture the result as a *delta snapshot* to send back (paper §III.A).
* :mod:`repro.core.protocol` / :mod:`repro.core.presend` — the wire protocol
  and the NN-model pre-sending state machine with its ACK race (§III.B.1).
* :mod:`repro.core.partition` — the partition-point optimizer for partial
  inference, driven by a Neurosurgeon-style latency predictor and the
  runtime network status (§III.B.2); the same price decides between local
  execution and offloading while the model still uploads (§IV.A).
* :mod:`repro.core.privacy` — input exposure accounting and the
  hill-climbing feature-inversion attack the design defends against.
* :mod:`repro.core.client` / :mod:`repro.core.server` — the client and edge
  server agents exchanging messages over the simulated network.
* :mod:`repro.core.session` — end-to-end offloading sessions with the phase
  timeline that Figs. 6–7 and Table 1 are computed from.
"""

from repro.core.snapshot import (
    CaptureOptions,
    Snapshot,
    SnapshotError,
    capture_delta,
    capture_snapshot,
    restore_snapshot,
)
from repro.core.partition import PartitionChoice, PartitionOptimizer
from repro.core.session import OffloadingSession, SessionResult

__all__ = [
    "CaptureOptions",
    "OffloadingSession",
    "PartitionChoice",
    "PartitionOptimizer",
    "SessionResult",
    "Snapshot",
    "SnapshotError",
    "capture_delta",
    "capture_snapshot",
    "restore_snapshot",
]
