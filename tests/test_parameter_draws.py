"""Building a model costs its parameters and nothing more.

Parameters are drawn a chunk at a time straight into their float32 arrays
(``SeededRng._fill``) and hashed through their buffers
(``nn/model.py::Model._parameter_file``).  The values, digests and model
ids are those of the one-shot draw-then-cast and the ``tobytes()`` hash,
which are kept here as oracles.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.eval.calibration import EXPERIMENT_SEED
from repro.nn import model as model_module
from repro.nn.model import Model
from repro.nn.zoo import BUILDERS, build_model
from repro.sim import SeededRng
from tests.test_sim_kernel import (
    oracle_image,
    oracle_normal_array,
    oracle_uniform_array,
)

MIB = 1 << 20


def oracle_array_digest(array: np.ndarray) -> str:
    """A parameter file's sha1 before arrays were hashed in place."""
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def parameter_arrays(model):
    """``(path, array)`` for every parameter, in digest order."""
    return [
        (f"{index}:{layer.name}:{key}", layer.params[key])
        for index, layer in enumerate(model_module._layer_table(model.network))
        for key in sorted(layer.params)
    ]


def identity(model):
    """Everything a build must reproduce, without keeping the arrays."""
    return {
        "model_id": model.model_id,
        "fingerprint": model.fingerprint(),
        "params": [
            (path, array.dtype.str, array.shape, sha256_of_bytes(array))
            for path, array in parameter_arrays(model)
        ],
    }


def sha256_of_bytes(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def parameter_bytes(model) -> int:
    return sum(array.nbytes for _, array in parameter_arrays(model))


class TestZooUnchanged:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_streamed_build_equals_the_oracle_build(self, name, monkeypatch):
        streamed = identity(build_model(name, seed=EXPERIMENT_SEED))
        gc.collect()
        monkeypatch.setattr(SeededRng, "normal_array", oracle_normal_array)
        monkeypatch.setattr(SeededRng, "uniform_array", oracle_uniform_array)
        monkeypatch.setattr(SeededRng, "image", oracle_image)
        oracle = identity(build_model(name, seed=EXPERIMENT_SEED))
        assert streamed["params"] and streamed == oracle


class OneBlobLayer:
    """Just enough layer for ``Model._parameter_file``: one blob."""

    def __init__(self, array):
        self.params = {"weight": array}


class TestArrayDigest:
    """A parameter file hashes its blob through the buffer, whatever the
    blob's layout: the digest is that of the blob's C-order bytes."""

    BASE = np.arange(60, dtype=np.float32).reshape(3, 4, 5) / 7

    @pytest.mark.parametrize(
        "array",
        [
            BASE,
            np.asfortranarray(BASE),
            BASE.transpose(2, 0, 1),
            BASE[:, ::2, 1::2],
            BASE[::-1],
            np.array(1.5, dtype=np.float32),
            np.zeros((0, 4), dtype=np.float32),
            np.zeros((4, 0), dtype=np.float32, order="F"),
            np.arange(7, dtype=np.int64),
        ],
        ids=[
            "c", "f", "transposed", "strided", "reversed",
            "0-d", "empty", "empty-f", "int64",
        ],
    )
    def test_equals_the_tobytes_formula(self, array):
        expected = oracle_array_digest(array)
        for blob in (array, array.copy(order="K")):
            _, raw_bytes, digest = Model._parameter_file(OneBlobLayer(blob))
            assert (raw_bytes, digest) == (array.nbytes, expected)


def traced_peak(fn):
    """``(result, peak bytes)`` of ``fn()`` under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestBuildMemory:
    def test_agenet_build_peaks_at_its_parameters(self):
        # the one-shot draw held fc6's 77 MB float64 temporary next to
        # its 38.5 MB result: parameters + 73.2 MiB
        model, peak = traced_peak(lambda: build_model("agenet", seed=EXPERIMENT_SEED))
        assert peak <= parameter_bytes(model) + 4 * MIB

    def test_fingerprint_hashes_parameters_in_place(self):
        model = build_model("agenet", seed=EXPERIMENT_SEED)
        assert model._manifest_memo is None
        fingerprint, peak = traced_peak(model.fingerprint)
        assert peak < 1 * MIB  # a tobytes() copy of fc6 alone is 38.5 MB
        assert fingerprint == model.fingerprint()
