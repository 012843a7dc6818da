"""Wire protocol between the client and the edge server.

Message kinds (all travel as :class:`repro.netsim.Message`):

=================  ==========================================================
``PING`` / ``PONG``        capability probe: does this edge server run the
                           offloading system? (``PONG`` carries a bool)
``MODEL_MANIFEST``         announces an upload: model id + file list (and
                           the model it names, served once the files are in)
``MODEL_FILE``             one model file (sized by its real byte count)
``MODEL_ACK``              server: all files stored (paper's ACK), sent by
                           whichever message completed the upload — the
                           manifest, the last file or a snapshot's
                           deliveries
``MODEL_QUERY``            digest handshake: does this edge already hold a
                           model with this manifest digest? (fleet
                           clients ask before re-running pre-send)
``MODEL_STATUS``           server's answer to ``MODEL_QUERY``
``SNAPSHOT``               a full snapshot, optionally with model deliveries
                           attached (offloading before the ACK)
``RESULT``                 the server's delta snapshot with the new state
``VM_OVERLAY``             a compressed VM overlay for on-demand install
``VM_READY``               synthesis finished; offloading system available
``ERROR``                  refusal (e.g. server without the system)
=================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.nn.model import Model, ModelFile

PING = "PING"
PONG = "PONG"
MODEL_MANIFEST = "MODEL_MANIFEST"
MODEL_FILE = "MODEL_FILE"
MODEL_ACK = "MODEL_ACK"
MODEL_QUERY = "MODEL_QUERY"
MODEL_STATUS = "MODEL_STATUS"
SNAPSHOT = "SNAPSHOT"
RESULT = "RESULT"
VM_OVERLAY = "VM_OVERLAY"
VM_READY = "VM_READY"
ERROR = "ERROR"

#: nominal wire size of pure control payloads (ids, flags)
CONTROL_BYTES = 64


@dataclass
class ManifestPayload:
    """MODEL_MANIFEST body: the file list and the model it names.

    The model rides as a handle beside the file list, not in its size:
    its bytes are the ``MODEL_FILE`` messages, and the edge serves it only
    once every one of them has arrived.
    """

    model_id: str
    files: List[ModelFile]
    model: Model

    @property
    def size_bytes(self) -> int:
        # id + (name, checksum, size) per file
        return CONTROL_BYTES + 96 * len(self.files)


@dataclass
class ModelFilePayload:
    """MODEL_FILE body: one file's content."""

    model_id: str
    file: ModelFile

    @property
    def size_bytes(self) -> int:
        return self.file.size_bytes


@dataclass
class ModelQueryPayload:
    """MODEL_QUERY body: model id, manifest digest and file manifest.

    The digest-first handshake of the fleet scheduler: before pre-sending
    to a new edge (or after failing over to one), the client asks whether
    the server already holds a model whose ``Model.fingerprint()`` matches.
    A hit skips the whole upload — another client already paid for it.

    ``files`` is the model's manifest — name, checksum and size per file —
    so the server can answer which files it is *missing* at content-address
    granularity.  A miss then costs only the missing segments instead of
    the whole model, and files shared with any other stored model (two
    rear halves split at different layers, say) are never re-sent.
    """

    model_id: str
    fingerprint: str
    files: List[ModelFile]

    @property
    def size_bytes(self) -> int:
        return (
            CONTROL_BYTES
            + len(self.fingerprint.encode("ascii"))
            + 96 * len(self.files)
        )


@dataclass
class ModelStatusPayload:
    """MODEL_STATUS body: whether the queried model is present and matching.

    ``missing_files`` is the segment-level answer to the query's manifest:
    exactly the file names whose bytes the server does not hold (empty
    when every segment is resident, possibly under other model ids — the
    upload's manifest alone then completes it).
    """

    model_id: str
    present: bool
    server_name: str = ""
    missing_files: List[str] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return CONTROL_BYTES + sum(
            len(name.encode("utf-8")) + 2 for name in self.missing_files
        )


@dataclass
class ModelDelivery:
    """Model files riding along with a snapshot (pre-ACK offloading).

    Names its model as a manifest does; the edge ACKs the upload when the
    delivery completes it.
    """

    model: Model
    files: List[ModelFile]

    @property
    def size_bytes(self) -> int:
        return sum(file.size_bytes for file in self.files)


@dataclass
class SnapshotPayload:
    """SNAPSHOT body: the snapshot plus any model deliveries."""

    snapshot: Any  # repro.core.snapshot.Snapshot
    deliveries: List[ModelDelivery] = field(default_factory=list)
    request_id: int = 0

    @property
    def size_bytes(self) -> int:
        return self.snapshot.size_bytes + sum(
            delivery.size_bytes for delivery in self.deliveries
        )

    @property
    def delivery_bytes(self) -> int:
        return sum(delivery.size_bytes for delivery in self.deliveries)


@dataclass
class ResultPayload:
    """RESULT body: the server's delta snapshot plus its timing report.

    ``fingerprint`` is the hashed signature of the state the server keeps
    cached after this request; the client diffs against it to send a
    *delta* on its next offload — the paper's future-work reuse of "the
    data and code left at the server".
    """

    delta: Any  # repro.core.snapshot.Snapshot
    request_id: int = 0
    #: server-side phase durations, for the Fig. 7 breakdown; servers with
    #: a serving loop add a ``"queue"`` entry (batching delay) so clients
    #: can attribute latency to waiting rather than execution
    timings: Dict[str, float] = field(default_factory=dict)
    fingerprint: Optional[Any] = None  # StateFingerprint
    #: work items still queued in the server's serving loop at reply time
    #: (0 without a serving loop) — the load signal the fleet scheduler's
    #: queue-aware policy folds into its scoring
    queue_depth: int = 0

    @property
    def size_bytes(self) -> int:
        fingerprint_bytes = (
            self.fingerprint.size_bytes if self.fingerprint is not None else 0
        )
        return self.delta.size_bytes + CONTROL_BYTES + fingerprint_bytes


@dataclass
class CapabilityPayload:
    """PONG body."""

    has_offloading_system: bool
    server_name: str = ""

    @property
    def size_bytes(self) -> int:
        return CONTROL_BYTES


@dataclass
class ErrorPayload:
    """ERROR body."""

    reason: str
    request_id: int = 0

    @property
    def size_bytes(self) -> int:
        return CONTROL_BYTES + len(self.reason.encode("utf-8"))


def ack_payload(model_id: str) -> Dict[str, Any]:
    """MODEL_ACK body (dict keeps it trivially sizable)."""
    return {"model_id": model_id}
