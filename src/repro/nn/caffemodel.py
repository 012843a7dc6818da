"""Binary parameter blobs: the reproduction's ``.caffemodel``.

CaffeJS consumes a pair of files per model: the prototxt architecture
(:mod:`repro.nn.prototxt`) and a binary blob of trained parameters.  This
module implements the blob half with a simple, self-describing container,
so a model round-trips through *files on disk* exactly the way the
offloading system ships it.

Layout (little-endian):

====  ==========================================
8 B   magic ``RPWGHT01``
4 B   header length ``H``
H B   JSON header: model name + ordered blob
      records (layer-qualified name, shape)
—     per blob: raw float32 payload
4 B   CRC-32 of everything above
====  ==========================================
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.model import Model
from repro.nn.network import Network
from repro.nn.prototxt import (
    PrototxtError,
    network_from_prototxt,
    network_to_prototxt,
)

MAGIC = b"RPWGHT01"


class WeightsFormatError(ValueError):
    """Raised on malformed or mismatched weight blobs."""


def _blob_slots(network: Network) -> List[Tuple[str, Layer, str]]:
    """Every parameter blob as ``(qualified name, leaf, key)``, in the blob
    file's order: each spine layer's :meth:`Layer.param_slots` (the
    manifest's naming) by name.  Shapes come from ``param_shapes()``, so
    listing the slots draws nothing."""
    return [
        (f"{layer.name}::{name}", leaf, key)
        for layer in network.layers
        for name, leaf, key in sorted(layer.param_slots(), key=lambda slot: slot[0])
    ]


def encode_weights(network: Network, model_name: str = "") -> bytes:
    """Serialize a built network's parameters."""
    if not network.built:
        raise WeightsFormatError("network must be built before serialization")
    blobs = [(name, leaf.params[key]) for name, leaf, key in _blob_slots(network)]
    header = {
        "model": model_name or network.name,
        "blobs": [
            {"name": name, "shape": list(blob.shape)} for name, blob in blobs
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    parts.extend(
        np.asarray(blob, dtype=np.float32).tobytes() for _name, blob in blobs
    )
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def decode_weights(data: bytes) -> Dict[str, np.ndarray]:
    """Parse a weight blob into {qualified name: array}.

    Anything the bytes cannot mean is a :class:`WeightsFormatError`: a
    flipped bit (CRC), another magic, and — the CRC vouches for the bytes,
    not for what they say — a well-sealed container whose header is not a
    blob table or whose payloads do not fill it exactly.

    The arrays are read-only views into ``data``: decoding copies no blob
    (:func:`apply_weights` makes the one copy a network owns).
    """
    if len(data) < len(MAGIC) + 8:
        raise WeightsFormatError("weight bytes too short")
    view = memoryview(data)
    body, (crc,) = view[:-4], struct.unpack("<I", view[-4:])
    if zlib.crc32(body) != crc:
        raise WeightsFormatError("CRC mismatch: weights corrupted")
    if body[: len(MAGIC)] != MAGIC:
        raise WeightsFormatError("bad magic: not a weight blob")
    offset = len(MAGIC)
    (header_len,) = struct.unpack("<I", body[offset : offset + 4])
    offset += 4
    if offset + header_len > len(body):
        raise WeightsFormatError("truncated header")
    try:
        header = json.loads(str(body[offset : offset + header_len], "utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise WeightsFormatError(f"malformed header: {exc}") from exc
    offset += header_len
    records = header.get("blobs") if isinstance(header, dict) else None
    if not isinstance(records, list):
        raise WeightsFormatError("header carries no blob list")
    blobs: Dict[str, np.ndarray] = {}
    for record in records:
        name, shape = _blob_record(record)
        if name in blobs:
            raise WeightsFormatError(f"duplicate blob {name!r}")
        size = 4 * math.prod(shape)
        raw = body[offset : offset + size]
        if len(raw) != size:
            raise WeightsFormatError(f"truncated blob {name!r}")
        offset += size
        blobs[name] = np.frombuffer(raw, dtype=np.float32).reshape(shape)
    if offset != len(body):
        raise WeightsFormatError(f"{len(body) - offset} trailing bytes")
    return blobs


def _blob_record(record) -> Tuple[str, Tuple[int, ...]]:
    """A header record's ``(name, shape)``."""
    name, shape = (
        (record.get("name"), record.get("shape"))
        if isinstance(record, dict)
        else (None, None)
    )
    if not (
        isinstance(name, str)
        and isinstance(shape, list)
        and all(type(dim) is int and dim >= 0 for dim in shape)
    ):
        raise WeightsFormatError(
            f"blob record is not a name and non-negative integer dims: {record!r}"
        )
    return name, tuple(shape)


def apply_weights(network: Network, blobs: Dict[str, np.ndarray]) -> None:
    """Load decoded blobs into a built network (shapes must match).

    Each leaf gets its blobs in one ``params`` assignment, so a loaded
    network never draws the parameters it was built with."""
    slots = _blob_slots(network)
    expected = {name for name, _leaf, _key in slots}
    if expected != set(blobs):
        missing = sorted(expected - set(blobs))
        extra = sorted(set(blobs) - expected)
        raise WeightsFormatError(
            f"blob set mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    installs: Dict[Layer, Dict[str, np.ndarray]] = {}
    for name, leaf, key in slots:
        blob, shape = blobs[name], leaf.param_shapes()[key]
        if shape != blob.shape:
            raise WeightsFormatError(
                f"shape mismatch for {name!r}: {shape} vs {blob.shape}"
            )
        installs.setdefault(leaf, {})[key] = np.array(blob, dtype=np.float32, copy=True)
    for leaf, params in installs.items():
        leaf.params = params


def save_model_files(model: Model, directory: str) -> Tuple[str, str]:
    """Write (deploy.prototxt, weights.bin) for a model; returns paths."""
    os.makedirs(directory, exist_ok=True)
    prototxt_path = os.path.join(directory, f"{model.name}.prototxt")
    weights_path = os.path.join(directory, f"{model.name}.weights.bin")
    with open(prototxt_path, "w", encoding="utf-8") as handle:
        handle.write(network_to_prototxt(model.network))
    with open(weights_path, "wb") as handle:
        handle.write(encode_weights(model.network, model.name))
    return prototxt_path, weights_path


def load_model_files(prototxt_path: str, weights_path: str) -> Model:
    """Rebuild a model from (prototxt, weights) files — bit-exact params.

    Bytes that cannot mean a model raise :class:`PrototxtError` (the
    architecture) or :class:`WeightsFormatError` (the parameters)."""
    with open(prototxt_path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PrototxtError(f"{prototxt_path} is not UTF-8 text: {exc}") from exc
    network = network_from_prototxt(text)
    with open(weights_path, "rb") as handle:
        blobs = decode_weights(handle.read())
    apply_weights(network, blobs)
    return Model(network.name, network)
