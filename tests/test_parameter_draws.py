"""Building a model draws nothing; drawing it costs its parameters.

A build binds shapes only: each leaf draws its parameters the first time
``layer.params`` is read, from a stream of its own, so the bits do not
depend on the order the leaves are read in, and anything that needs only
shapes (costs, parameter counts, Fig. 1, the loader) never draws.
Parameters are drawn a chunk at a time straight into their float32 arrays
(``SeededRng._fill``) and hashed through their buffers
(``nn/model.py::Model._parameter_file``).  The values, digests and model
ids are those of the one-shot draw-then-cast and the ``tobytes()`` hash,
which are kept here as oracles.
"""

import gc
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import fig1
from repro.eval.calibration import EXPERIMENT_SEED
from repro.nn import model as model_module
from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.layers import ConvLayer, FCLayer
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

    def param_arrays(self):
        return self.params


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


def forbid_draws(monkeypatch):
    """Make every parameter draw raise."""

    def draw(*_args, **_kwargs):
        raise AssertionError("a parameter was drawn")

    monkeypatch.setattr(SeededRng, "normal_array", draw)
    for kind in (ConvLayer, FCLayer):
        monkeypatch.setattr(kind, "init_params", draw)


def leaves(model):
    """Every layer of the model's layer table that holds parameters."""
    return [
        layer
        for layer in model_module._layer_table(model.network)
        if layer.param_shapes()
    ]


class TestBuildMemory:
    def test_agenet_build_peaks_at_its_parameters(self):
        # the one-shot draw held fc6's 77 MB float64 temporary next to
        # its 38.5 MB result: parameters + 73.2 MiB
        def build_and_draw():
            model = build_model("agenet", seed=EXPERIMENT_SEED)
            parameter_arrays(model)  # the first read of every leaf draws it
            return model

        model, peak = traced_peak(build_and_draw)
        assert peak <= parameter_bytes(model) + 4 * MIB

    def test_fingerprint_hashes_parameters_in_place(self):
        model = build_model("agenet", seed=EXPERIMENT_SEED)
        parameter_arrays(model)  # drawn before tracing: the hash alone
        assert model._manifest_memo is None
        fingerprint, peak = traced_peak(model.fingerprint)
        assert peak < 1 * MIB  # a tobytes() copy of fc6 alone is 38.5 MB
        assert fingerprint == model.fingerprint()

    def test_loading_googlenet_peaks_at_twice_its_file(self, tmp_path):
        # the file's bytes plus the one copy the network owns; copying the
        # body and each blob while decoding made it three times the file
        paths = save_model_files(build_model("googlenet"), str(tmp_path))
        file_bytes = os.path.getsize(paths[1])
        _model, peak = traced_peak(lambda: load_model_files(*paths))
        assert peak <= 2 * file_bytes + 1 * MIB

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_building_draws_nothing(self, name, monkeypatch):
        forbid_draws(monkeypatch)
        model, peak = traced_peak(lambda: build_model(name, seed=EXPERIMENT_SEED))
        assert peak < 1 * MIB  # GoogLeNet's drawn parameters are 26.7 MiB
        assert model.network.param_count == sum(
            leaf.param_count for leaf in leaves(model)
        )


#: the model ids of the seed-0 builds, drawn in table order
PINNED_IDS = {
    "googlenet": "googlenet:3b086eb9b18d",
    "resnet-mini": "resnet-mini:ff8f0ebdbeb3",
    "smallnet": "smallnet:e02e22f20839",
    "smallnet_exits": "smallnet_exits:ff47fcbbdaac",
    "tinynet": "tinynet:6b65176ee871",
}


class TestDrawOrder:
    """A leaf draws from a stream of its own, so the order in which the
    leaves are first read changes no bit."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_read_order_gives_the_same_bits(self, data):
        name = data.draw(
            st.sampled_from(sorted(set(PINNED_IDS) - {"googlenet"})), label="model"
        )
        model = build_model(name)
        order = data.draw(st.permutations(leaves(model)), label="order")
        for leaf in order:
            leaf.params
        assert identity(model) == identity(build_model(name))
        assert model.model_id == PINNED_IDS[name]

    def test_googlenet_read_backwards_keeps_its_id(self):
        model = build_model("googlenet")
        for leaf in reversed(leaves(model)):
            leaf.params
        assert model.model_id == PINNED_IDS["googlenet"]

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_param_count_is_the_drawn_size(self, name):
        model = build_model(name, seed=EXPERIMENT_SEED)
        counted = model.network.param_count
        for leaf in leaves(model):
            declared = leaf.param_count
            assert {key: blob.shape for key, blob in leaf.params.items()} == (
                leaf.param_shapes()
            )
            assert declared == sum(blob.size for blob in leaf.params.values())
        assert counted == sum(array.size for _, array in parameter_arrays(model))


class TestShapesOnlyNeverDraw:
    def test_fig1_walks_googlenet_without_drawing(self, monkeypatch):
        model = build_model("googlenet", seed=EXPERIMENT_SEED)
        monkeypatch.setattr(fig1, "build_paper_model", lambda name: model)
        with monkeypatch.context() as patch:
            forbid_draws(patch)
            undrawn_rows = fig1.run_fig1()
        parameter_arrays(model)
        assert undrawn_rows == fig1.run_fig1()
        assert sum(row.param_mb for row in undrawn_rows) == pytest.approx(
            parameter_bytes(model) / 1e6
        )

    def test_assigning_params_never_draws(self, monkeypatch):
        model = build_model("resnet-mini")
        forbid_draws(monkeypatch)
        for leaf in leaves(model):
            blobs = {
                key: np.full(shape, 0.5, dtype=np.float32)
                for key, shape in leaf.param_shapes().items()
            }
            leaf.params = blobs
            assert leaf.params is blobs
        assert model.model_id != PINNED_IDS["resnet-mini"]

    @pytest.mark.parametrize("name", ["smallnet_exits", "resnet-mini", "googlenet"])
    def test_loading_model_files_never_draws(self, name, tmp_path, monkeypatch):
        source = build_model(name)
        paths = save_model_files(source, str(tmp_path))
        forbid_draws(monkeypatch)
        loaded = load_model_files(*paths)
        assert loaded.model_id == source.model_id
        assert identity(loaded)["params"] == identity(source)["params"]
