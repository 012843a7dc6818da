"""Binary wire format for snapshots.

The simulator normally passes :class:`~repro.core.snapshot.capture.Snapshot`
objects by reference and *accounts* their size analytically.  This module
makes the encoding real: a snapshot serializes to actual bytes (and back,
bit-exactly), which pins the analytic size model to ground truth — the
encoded length must match ``Snapshot.size_bytes`` up to a small framing
overhead, and a test enforces that.

Layout (all integers little-endian):

====  =======================================================
8 B   magic ``RPSNAP02``
4 B   header length ``H``
H B   JSON header: app_name, kind, model_refs, pending_event,
      texts (how many), attachment_bytes, attachment metadata
      (index, shape, encoded_bytes)
4 B   program length ``P``
P B   UTF-8 snapshot program (code only)
—     per tensor text, in ``TEXT[i]`` order: 4 B length +
      the ASCII text
—     per attachment: 4 B raw length + float32 payload bytes
4 B   CRC-32 of everything above
====  =======================================================

The tensor texts travel as sections of their own, as they sit beside the
program in a :class:`Snapshot`; ``size_bytes`` accounts them as the quoted
literals of the paper's inline program, two quote characters each, so a
section's length prefix and the ``TEXT[i]`` that names it are framing.
Attachments are stored as raw float32 (the decoded image); their *wire*
size accounting still uses ``encoded_bytes`` (the data-URL analog), so an
encoder that actually compressed them would only shrink this container.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict

import numpy as np

from repro.core.snapshot.capture import Snapshot

MAGIC = b"RPSNAP02"


class WireFormatError(ValueError):
    """Raised on malformed or corrupted snapshot bytes."""


def encode_snapshot(snapshot: Snapshot) -> bytes:
    """Serialize a snapshot to bytes (attached models are NOT included —
    they travel as model files in their own messages)."""
    attachments_meta = [
        {
            "index": index,
            "shape": list(array.shape),
            "encoded_bytes": _encoded_bytes_for(snapshot, index),
        }
        for index, array in sorted(snapshot.attachments.items())
    ]
    header = {
        "app_name": snapshot.app_name,
        "kind": snapshot.kind,
        "model_refs": snapshot.model_refs,
        "pending_event": snapshot.pending_event,
        "texts": len(snapshot.texts),
        "attachment_bytes": snapshot.attachment_bytes,
        "attachments": attachments_meta,
    }
    sections = [
        json.dumps(header, sort_keys=True).encode("utf-8"),
        snapshot.program.encode("utf-8"),
    ]
    sections += [text.encode("ascii") for text in snapshot.texts]
    sections += [
        np.asarray(array, dtype=np.float32).tobytes()
        for _index, array in sorted(snapshot.attachments.items())
    ]
    parts = [MAGIC]
    for section in sections:
        parts.append(struct.pack("<I", len(section)))
        parts.append(section)
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _encoded_bytes_for(snapshot: Snapshot, index: int) -> int:
    # Per-attachment encoded size is not tracked individually; distribute
    # the total proportionally to element counts (exact for one attachment,
    # which is the overwhelmingly common case).
    total_elements = sum(a.size for a in snapshot.attachments.values()) or 1
    share = snapshot.attachments[index].size / total_elements
    return int(round(snapshot.attachment_bytes * share))


def decode_snapshot(data: bytes) -> Snapshot:
    """Reconstruct a snapshot from :func:`encode_snapshot` output."""
    if len(data) < len(MAGIC) + 8:
        raise WireFormatError("snapshot bytes too short")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise WireFormatError("CRC mismatch: snapshot bytes corrupted")
    if not body.startswith(MAGIC):
        raise WireFormatError("bad magic: not a snapshot")
    offset = len(MAGIC)

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(body):
            raise WireFormatError("truncated snapshot")
        chunk = body[offset : offset + count]
        offset += count
        return chunk

    def take_section() -> bytes:
        (length,) = struct.unpack("<I", take(4))
        return take(length)

    # The CRC vouches for the bytes, not for what they say: a container
    # somebody else wrote can still carry a header without a field, a text
    # that is not ASCII, a payload that does not fill its shape.
    try:
        header = json.loads(take_section().decode("utf-8"))
        program = take_section().decode("utf-8")
        texts = tuple(
            take_section().decode("ascii") for _ in range(int(header["texts"]))
        )
        attachments: Dict[int, np.ndarray] = {}
        for meta in header["attachments"]:
            attachments[int(meta["index"])] = np.frombuffer(
                take_section(), dtype=np.float32
            ).reshape(meta["shape"])
        if offset != len(body):
            raise WireFormatError(f"{len(body) - offset} trailing bytes")
        pending = header["pending_event"]
        return Snapshot(
            app_name=header["app_name"],
            kind=header["kind"],
            program=program,
            attachments=attachments,
            texts=texts,
            pending_event=tuple(pending) if pending is not None else None,
            model_refs=dict(header["model_refs"]),
            attachment_bytes=int(header["attachment_bytes"]),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed snapshot: {exc!r}") from exc


def framing_overhead(snapshot: Snapshot) -> int:
    """Container bytes beyond the accounted payload.

    The accounted size (``snapshot.size_bytes``) covers the program with
    its tensor texts inline plus the attachments at their *encoded* size;
    the container adds the header/lengths/CRC, names each text from the
    program as ``TEXT[i]`` and stores attachments as raw float32.
    """
    encoded = len(encode_snapshot(snapshot))
    raw_attachment = sum(
        a.size * 4 for a in snapshot.attachments.values()
    )
    accounted_text = snapshot.size_bytes - snapshot.attachment_bytes
    return encoded - accounted_text - raw_attachment
