"""Typed network messages and payload sizing.

Transmission time in the simulator is driven entirely by message size, so
every payload must expose an explicit byte count.  Payload objects from other
subsystems (snapshots, model files, VM overlays) implement a ``size_bytes``
attribute or property; raw ``bytes``/``str`` payloads are sized directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_message_ids = itertools.count(1)

# Fixed per-message framing overhead (headers etc.).  Small but nonzero so
# that zero-byte control messages (e.g. ACK) still take time on the wire.
FRAME_OVERHEAD_BYTES = 256


def payload_size(payload: Any) -> int:
    """Best-effort byte size of a payload object.

    Accepts ``None`` (0 bytes), ``bytes``/``bytearray``, ``str`` (UTF-8),
    numbers (8 bytes), objects exposing ``size_bytes`` (attribute, property
    or zero-arg method), and lists/tuples/dicts of the above.
    """
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    size_attr = getattr(payload, "size_bytes", None)
    if size_attr is not None:
        return int(size_attr() if callable(size_attr) else size_attr)
    if isinstance(payload, (list, tuple, set)):
        return sum(payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_size(key) + payload_size(value) for key, value in payload.items()
        )
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


@dataclass
class Message:
    """A unit of transfer between two hosts.

    ``size_bytes`` may be given explicitly (e.g. a compressed overlay whose
    on-the-wire size differs from its logical content); otherwise it is
    computed from the payload plus framing overhead.
    """

    kind: str
    payload: Any = None
    sender: str = ""
    recipient: str = ""
    size_bytes: Optional[int] = None
    headers: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    sent_at: Optional[float] = None
    delivered_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes is None:
            self.size_bytes = payload_size(self.payload) + FRAME_OVERHEAD_BYTES
        if self.size_bytes < 0:
            raise ValueError(f"message size cannot be negative: {self.size_bytes}")

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.kind} {self.sender}->{self.recipient} "
            f"{self.size_bytes}B)"
        )
