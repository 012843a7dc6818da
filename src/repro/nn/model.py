"""Models: a network plus its distributable file set.

A *model* is what the client pre-sends to the edge server: "the NN model
files (including the description/parameters of the NN)" (paper §III.B.1).
We represent that as one JSON description file plus one parameter blob per
parameterized spine layer, with real byte sizes (4 bytes per float32
parameter plus a small header) so transfer times are honest.

Models can be split at an offload point into *front* and *rear* models with
disjoint file sets; pre-sending only the rear file set is the paper's
privacy mechanism (the server cannot invert features without the front
parameters).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.network import Network

#: serialization overhead per parameter blob file (shape header, magic, …)
BLOB_HEADER_BYTES = 128


@dataclass(frozen=True)
class ModelFile:
    """One distributable file of a model."""

    name: str
    kind: str  # "description" | "parameters"
    size_bytes: int
    checksum: str
    layer_name: Optional[str] = None

    @property
    def size_mib(self) -> float:
        return self.size_bytes / (1024**2)


def _layer_table(network) -> List[Layer]:
    """Every layer reachable from the spine, in deterministic order.

    Spine layers first-to-last; any layer exposing ``dag_branches()``
    recurses into its branches in declaration order (nested composites
    flatten the same way the lowering does), and an exit head into its
    head layers, so two networks with the same structure hash their
    layers and parameters in the same order.
    """
    return [inner for layer in network.layers for inner in _layer_tree(layer)]


def _layer_tree(layer: Layer) -> Iterator[Layer]:
    """``layer``, then every layer nested in it, depth first.  A generator,
    not a recursive closure: a closure that calls itself holds itself
    through its own cell, and with it the table, until the cyclic
    collector runs."""
    yield layer
    if hasattr(layer, "dag_branches"):
        for _tag, branch in layer.dag_branches().branches:
            for inner in branch:
                yield from _layer_tree(inner)
    for inner in getattr(layer, "head", ()):
        yield from _layer_tree(inner)


class Model:
    """A named, built network with its file manifest."""

    def __init__(self, name: str, network: Network):
        if not network.built:
            raise ValueError(f"model {name!r} needs a built network")
        self.name = name
        self.network = network
        #: (parameter witnesses, manifest, model id, fingerprint) as last
        #: derived
        self._manifest_memo: Optional[Tuple[list, List[ModelFile], str, str]] = None

    # -- identity / files --------------------------------------------------------
    def description_json(self) -> str:
        return json.dumps(self.network.describe(), sort_keys=True)

    def _manifest(self) -> Tuple[List[ModelFile], str, str]:
        """The file manifest, and the model id and fingerprint derived from it.

        Valid while every parameter array it was derived from is still
        installed (the rule of ``ExecutionPlan.is_valid``), so all three
        follow replaced parameters; re-deriving hashes only the layers
        whose blobs changed (:meth:`_parameter_file`).
        """
        memo = self._manifest_memo
        if memo is not None and all(
            layer.params.get(key) is array for layer, key, array in memo[0]
        ):
            return memo[1:]
        witnesses = [
            (layer, key, array)
            for layer in _layer_table(self.network)
            for key, array in layer.params.items()
        ]
        description = self.description_json().encode("utf-8")
        digests = [hashlib.sha1(description).hexdigest()]
        manifest = [
            ModelFile(
                name=f"{self.name}.json",
                kind="description",
                size_bytes=len(description),
                checksum=digests[0][:16],
            )
        ]
        for layer in self.network.layers:
            parameter_file = self._parameter_file(layer)
            if parameter_file is not None:
                _, raw_bytes, checksum = parameter_file
                digests.append(checksum)
                manifest.append(
                    ModelFile(
                        name=f"{self.name}.{layer.name}.bin",
                        kind="parameters",
                        size_bytes=raw_bytes + BLOB_HEADER_BYTES,
                        checksum=checksum[:16],
                        layer_name=layer.name,
                    )
                )
        digest = hashlib.sha1()
        for file in manifest:
            digest.update(file.checksum.encode("ascii"))
        model_id = f"{self.name}:{digest.hexdigest()[:12]}"
        fingerprint = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
        self._manifest_memo = (witnesses, manifest, model_id, fingerprint)
        return self._manifest_memo[1:]

    def files(self) -> List[ModelFile]:
        """The model's file manifest (memoised per layer by array identity)."""
        return list(self._manifest()[0])

    @staticmethod
    def _parameter_file(layer: Layer) -> Optional[Tuple[tuple, int, str]]:
        """``(arrays, raw_bytes, sha1 hex)`` of a layer's parameter file.

        The blobs are ``layer.param_arrays()``, named by
        :meth:`Layer.param_slots` as in the weight blob; ``None`` for a
        layer without parameters.  The sha1 is of the blobs'
        bytes in key order (the file's checksum is its first 16 digits; the
        model's fingerprint and the compiled plans' result memo read all
        40); hashing GoogLeNet's
        27 MB takes ~25 ms, so the triple is remembered *on the layer* for
        as long as every blob is the identical array, and the blobs are
        frozen meanwhile (an in-place write needs
        ``invalidate_param_cache``, which installs copies).  Split halves
        and re-built ``Model``s share the layer objects and hash nothing; a
        replaced blob re-hashes its own layer only.
        """
        blobs = layer.param_arrays()
        if not blobs:
            return None
        memo = getattr(layer, "_parameter_file_memo", None)
        if (
            memo is None
            or len(memo[0]) != len(blobs)
            or not all(a is b for a, b in zip(memo[0], blobs.values()))
        ):
            digest = hashlib.sha1()
            for _, blob in sorted(blobs.items()):
                digest.update(np.ascontiguousarray(blob))
                blob.flags.writeable = False
            memo = layer._parameter_file_memo = (
                tuple(blobs.values()),
                sum(blob.nbytes for blob in blobs.values()),
                digest.hexdigest(),
            )
        return memo

    @property
    def model_id(self) -> str:
        return self._manifest()[1]

    def fingerprint(self) -> str:
        """Content address of the description and every parameter: 64 hex
        digits of sha256 over the full sha1 of each file of the manifest,
        derived in the same pass as :meth:`files` and :attr:`model_id`.
        The digest handshake's ``MODEL_QUERY`` carries it."""
        return self._manifest()[2]

    @property
    def total_bytes(self) -> int:
        return sum(file.size_bytes for file in self.files())

    @property
    def size_mib(self) -> float:
        """Model size in MiB — the unit the paper's Table 1 reports."""
        return self.total_bytes / (1024**2)

    # -- inference -----------------------------------------------------------------
    def inference(self, x: np.ndarray) -> np.ndarray:
        """Full forward execution (the CaffeJS ``inference()`` call)."""
        return self.network.forward(x)

    def inference_batch(self, xs) -> np.ndarray:
        """Forward N inputs at once; returns stacked ``(N, ...)`` outputs.

        Runs the compiled plan's batched kernels (one stacked im2col/matmul
        per step) on the rows the inference memo cannot answer — how the
        edge server amortizes concurrent partial-inference sessions over
        one pass.  Row ``i`` is the bits ``inference(xs[i])`` returns.
        """
        return self.network.forward_batch(xs)

    # -- splitting -----------------------------------------------------------------
    def split(self, index: int) -> Tuple["Model", "Model"]:
        """Split at an offload point into (front model, rear model)."""
        halves = self.network.split(index)
        return (
            Model(f"{self.name}-front@{index}", halves.front),
            Model(f"{self.name}-rear@{index}", halves.rear),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Model({self.name!r}, {self.size_mib:.1f} MiB)"
