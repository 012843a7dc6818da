"""Tests for model files, splitting, save/load and the server model store."""

import numpy as np
import pytest

from repro.nn.model import (
    Model,
    network_from_description,
    network_params_digest,
)
from repro.nn.modelstore import ModelStore, ModelStoreError
from repro.nn.zoo import build_model, smallnet, tinynet
from repro.sim import SeededRng


@pytest.fixture
def model():
    return smallnet()


class TestModelFiles:
    def test_manifest_has_description_and_blobs(self, model):
        files = model.files()
        kinds = [file.kind for file in files]
        assert kinds.count("description") == 1
        # conv1, conv2, fc3, fc4 carry parameters
        assert kinds.count("parameters") == 4

    def test_sizes_reflect_param_bytes(self, model):
        param_files = [f for f in model.files() if f.kind == "parameters"]
        total_param_bytes = sum(f.size_bytes for f in param_files)
        # 4 bytes per parameter plus per-file headers
        assert total_param_bytes >= model.network.param_count * 4
        assert total_param_bytes < model.network.param_count * 4 + 4 * 1024

    def test_model_id_stable(self, model):
        assert model.model_id == smallnet().model_id

    def test_model_id_differs_across_seeds(self):
        assert smallnet(seed=1).model_id != smallnet(seed=2).model_id

    def test_total_bytes_and_mib(self, model):
        assert model.total_bytes == sum(f.size_bytes for f in model.files())
        assert model.size_mib == pytest.approx(model.total_bytes / 2**20)

    def test_unbuilt_network_rejected(self):
        from repro.nn.zoo.smallnet import smallnet_network

        with pytest.raises(ValueError):
            Model("bad", smallnet_network())


class TestFingerprint:
    def test_build_model_leaves_fingerprint_lazy(self):
        built = build_model("smallnet")
        assert getattr(built.network, "_plan_digest_memo", None) is None
        assert built.fingerprint() == built.network._plan_digest_memo[1]

    def test_params_digest_memoized_per_network(self, model):
        first = network_params_digest(model.network)
        assert network_params_digest(model.network) == first
        assert model.network._plan_digest_memo[1] == first
        assert model.fingerprint() == first

    def test_split_halves_get_distinct_digests(self, model):
        split = model.network.split(2)
        assert network_params_digest(split.front) != network_params_digest(
            split.rear
        )


class TestModelSplit:
    def test_split_models_have_disjoint_param_files(self, model):
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        front_layers = {f.layer_name for f in front.files() if f.layer_name}
        rear_layers = {f.layer_name for f in rear.files() if f.layer_name}
        assert front_layers.isdisjoint(rear_layers)

    def test_split_inference_equals_full(self, model):
        x = SeededRng(6, "img").uniform_array((3, 32, 32), 0, 255)
        point = model.network.point_by_label("2nd_conv")
        front, rear = model.split(point.index)
        feature = front.inference(x)
        assert np.allclose(rear.inference(feature), model.inference(x), atol=1e-5)

    def test_rear_model_smaller_than_full(self, model):
        point = model.network.point_by_label("1st_conv")
        _, rear = model.split(point.index)
        assert rear.total_bytes < model.total_bytes


class TestSaveLoad:
    def test_roundtrip_preserves_inference(self, tmp_path, model):
        model.save(str(tmp_path))
        loaded = Model.load(str(tmp_path), "smallnet")
        x = SeededRng(7, "img").uniform_array((3, 32, 32), 0, 255)
        assert np.allclose(loaded.inference(x), model.inference(x), atol=1e-6)

    def test_roundtrip_preserves_manifest(self, tmp_path, model):
        model.save(str(tmp_path))
        loaded = Model.load(str(tmp_path), "smallnet")
        assert loaded.model_id == model.model_id

    def test_description_rebuilds_architecture(self, model):
        import json

        description = json.loads(model.description_json())
        rebuilt = network_from_description(description)
        assert [l.kind for l in rebuilt.layers] == [
            l.kind for l in model.network.layers
        ]
        assert rebuilt.output_shape == model.network.output_shape

    def test_inception_description_roundtrip(self):
        import json

        from repro.nn.layers import (
            ConvLayer,
            InceptionModule,
            InputLayer,
            PoolLayer,
            ReLULayer,
            SoftmaxLayer,
            FCLayer,
        )
        from repro.nn.network import Network

        net = Network(
            "mini-inception",
            [
                InputLayer((3, 8, 8)),
                InceptionModule(
                    "inc",
                    branches=[
                        [ConvLayer("a", 2, kernel=1), ReLULayer("ra")],
                        [PoolLayer("p", kernel=3, stride=1, pad=1)],
                    ],
                ),
                FCLayer("fc", 4),
                SoftmaxLayer("prob"),
            ],
        ).build(SeededRng(0, "mini"))
        model = Model("mini-inception", net)
        description = json.loads(model.description_json())
        rebuilt = network_from_description(description)
        assert rebuilt.layers[1].out_shape == net.layers[1].out_shape

    def test_inception_save_load_preserves_params(self, tmp_path):
        import numpy as np

        from repro.nn.layers import (
            ConvLayer,
            FCLayer,
            InceptionModule,
            InputLayer,
            PoolLayer,
            ReLULayer,
            SoftmaxLayer,
        )
        from repro.nn.network import Network

        net = Network(
            "inc-net",
            [
                InputLayer((3, 8, 8)),
                InceptionModule(
                    "inc",
                    branches=[
                        [ConvLayer("a", 2, kernel=1), ReLULayer("ra")],
                        [PoolLayer("p", kernel=3, stride=1, pad=1)],
                    ],
                ),
                FCLayer("fc", 4),
                SoftmaxLayer("prob"),
            ],
        ).build(SeededRng(3, "incnet"))
        model = Model("inc-net", net)
        model.save(str(tmp_path))
        loaded = Model.load(str(tmp_path), "inc-net")
        x = SeededRng(8, "x").normal_array((3, 8, 8))
        assert np.allclose(loaded.inference(x), model.inference(x), atol=1e-6)


class TestModelStore:
    def test_upload_lifecycle(self, model):
        store = ModelStore()
        entry = store.begin_upload(model.model_id, model.files())
        assert not entry.complete
        for file in model.files():
            store.receive_file(model.model_id, file)
        assert entry.complete
        assert entry.missing == []
        store.attach_model(model.model_id, model)
        assert store.get_model(model.model_id) is model

    def test_partial_upload_not_complete(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files())
        store.receive_file(model.model_id, model.files()[0])
        assert not store.has_complete(model.model_id)
        with pytest.raises(ModelStoreError):
            store.attach_model(model.model_id, model)

    def test_checksum_mismatch_rejected(self, model):
        from dataclasses import replace

        store = ModelStore()
        store.begin_upload(model.model_id, model.files())
        corrupted = replace(model.files()[0], checksum="deadbeefdeadbeef")
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, corrupted)

    def test_unknown_file_rejected(self, model):
        from dataclasses import replace

        store = ModelStore()
        store.begin_upload(model.model_id, model.files())
        alien = replace(model.files()[0], name="not-in-manifest.bin")
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, alien)

    def test_receive_without_upload_rejected(self, model):
        store = ModelStore()
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, model.files()[0])

    def test_begin_upload_idempotent(self, model):
        store = ModelStore()
        first = store.begin_upload(model.model_id, model.files())
        second = store.begin_upload(model.model_id, model.files())
        assert first is second

    def test_evict(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files())
        store.evict(model.model_id)
        assert store.stored_ids() == []

    def test_received_bytes_tracks_progress(self, model):
        store = ModelStore()
        entry = store.begin_upload(model.model_id, model.files())
        first = model.files()[0]
        store.receive_file(model.model_id, first)
        assert entry.received_bytes == first.size_bytes

    def test_rear_model_upload_keeps_front_absent(self, model):
        # Privacy: pre-send only the rear part; the store must not know the
        # front model at all.
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        store = ModelStore()
        store.begin_upload(rear.model_id, rear.files())
        for file in rear.files():
            store.receive_file(rear.model_id, file)
        store.attach_model(rear.model_id, rear)
        assert store.has_complete(rear.model_id)
        assert not store.has_complete(front.model_id)
