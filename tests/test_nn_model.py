"""Tests for model files, splitting, the file pair and the server model store."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import model as model_module
from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.model import BLOB_HEADER_BYTES, Model
from repro.nn.modelstore import ModelStore, ModelStoreError
from repro.nn.prototxt import network_from_prototxt, network_to_prototxt
from repro.nn.zoo import BUILDERS, build_model, smallnet, tinynet
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


def parent_parameter_file(model, layer):
    """A parameter file as ``Model.files()`` defined it before the per-layer
    memo: one sha1 over the joined blob bytes, in key order."""
    blobs = layer.param_arrays()
    raw = b"".join(blob.tobytes() for _, blob in sorted(blobs.items()))
    return (
        f"{model.name}.{layer.name}.bin",
        len(raw) + BLOB_HEADER_BYTES,
        hashlib.sha1(raw).hexdigest()[:16],
    )


@pytest.fixture
def blob_hashes(monkeypatch):
    """Every sha1 the model module starts that is fed an array (a parameter
    file's; the description's and the model id's are fed ``bytes``)."""
    fed_arrays = []

    class RecordingSha1:
        def __init__(self, data=b""):
            self._digest = hashlib.sha1(data)

        def update(self, data):
            if isinstance(data, np.ndarray) and self not in fed_arrays:
                fed_arrays.append(self)
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    class RecordingHashlib:
        sha1 = RecordingSha1
        sha256 = staticmethod(hashlib.sha256)

    monkeypatch.setattr(model_module, "hashlib", RecordingHashlib)
    return fed_arrays


class TestManifestMemo:
    """The manifest is memoised per layer by array identity: equal to the
    joined-bytes definition, shared by split halves, and never stale."""

    @pytest.mark.parametrize(
        "name",
        ["smallnet", "tinynet", "agenet", "resnet-mini", "googlenet"],
    )
    def test_files_equal_the_joined_bytes_definition(self, name):
        model = build_model(name)
        layers = [l for l in model.network.layers if l.param_arrays()]
        if name in ("resnet-mini", "googlenet"):
            # composite layers carry their branches' blobs in one file
            assert any(
                leaf is not l for l in layers for _, leaf, _ in l.param_slots()
            )
        parameters = [f for f in model.files() if f.kind == "parameters"]
        assert [
            (f.name, f.size_bytes, f.checksum) for f in parameters
        ] == [parent_parameter_file(model, layer) for layer in layers]

    def test_non_contiguous_blob_hashes_like_its_bytes(self, model):
        layer = model.network.layers[1]
        weight = layer.params["weight"]
        layer.params["weight"] = np.asfortranarray(weight)
        assert not layer.params["weight"].flags.c_contiguous
        file = next(f for f in model.files() if f.layer_name == layer.name)
        assert (file.name, file.size_bytes, file.checksum) == parent_parameter_file(
            model, layer
        )

    @pytest.mark.parametrize(
        "name, whole",
        [
            ("googlenet", "googlenet:3b086eb9b18d"),
            ("smallnet", "smallnet:e02e22f20839"),
            ("resnet-mini", "resnet-mini:ff8f0ebdbeb3"),
        ],
    )
    def test_splits_hash_nothing_and_keep_their_ids(self, name, whole, blob_hashes):
        model = build_model(name)
        files = {f.layer_name: f for f in model.files()}
        assert model.model_id == whole
        hashed = len(blob_hashes)
        assert hashed == len(files) - 1  # one sha1 per parameter file
        points = model.network.offload_points()
        for point in (points[1], points[len(points) // 2], points[-2]):
            front, rear = model.split(point.index)
            for half in (front, rear):
                for file in half.files():
                    if file.kind == "parameters":
                        twin = files[file.layer_name]
                        assert (file.size_bytes, file.checksum) == (
                            twin.size_bytes,
                            twin.checksum,
                        )
                # the id is the sha1 over the manifest's checksums
                digest = hashlib.sha1()
                for file in half.files():
                    digest.update(file.checksum.encode("ascii"))
                assert half.model_id == f"{half.name}:{digest.hexdigest()[:12]}"
        assert Model(model.name, model.network).model_id == whole
        assert len(blob_hashes) == hashed

    def test_replaced_blob_moves_manifest_id_and_fingerprint_together(
        self, model, blob_hashes
    ):
        """Stale identity: ``files()`` / ``model_id`` used to keep the first
        checksums for ever while ``fingerprint()`` followed the arrays."""
        before = model.files()
        old_id, old_fingerprint = model.model_id, model.fingerprint()
        hashed = len(blob_hashes)
        layer = model.network.layers[1]
        layer.params["weight"] = layer.params["weight"] + np.float32(1.0)
        after = model.files()
        assert len(blob_hashes) == hashed + 1  # that layer, nothing else
        assert model.model_id != old_id
        assert model.fingerprint() != old_fingerprint
        changed = [new for old, new in zip(before, after) if old != new]
        assert [file.layer_name for file in changed] == [layer.name]
        assert (
            changed[0].name,
            changed[0].size_bytes,
            changed[0].checksum,
        ) == parent_parameter_file(model, layer)
        assert model.files() == after and len(blob_hashes) == hashed + 1

    def test_unfreeze_then_write_moves_every_digest(self, model):
        """The supported in-place write — ``invalidate_param_cache``, then
        write — used to leave ``fingerprint()``, every checksum and
        ``model_id`` at the old bits: the digests are keyed by array
        identity, and the write kept it."""
        old = (model.fingerprint(), model.files(), model.model_id)
        before = model.inference(model_input(model))
        layer = model.network.layers[1]
        layer.invalidate_param_cache()
        layer.params["weight"][...] += np.float32(1.0)
        assert not np.array_equal(model.inference(model_input(model)), before)
        new = (model.fingerprint(), model.files(), model.model_id)
        assert [a != b for a, b in zip(old, new)] == [True, True, True]
        twin = smallnet()  # a fresh model written to the same bits
        weight = twin.network.layers[1].params["weight"]
        twin.network.layers[1].params["weight"] = weight + np.float32(1.0)
        assert (twin.fingerprint(), twin.files(), twin.model_id) == new

    def test_a_digest_freezes_what_it_remembers(self, model):
        layer = model.network.layers[1]
        layer.invalidate_param_cache()
        model.fingerprint()
        model.files()
        for key in layer.params:
            with pytest.raises(ValueError):
                layer.params[key][...] += np.float32(1.0)


def model_input(model):
    return SeededRng(3, "memo-input").uniform_array(
        model.network.input_shape, 0, 255
    )


class TestFingerprint:
    def test_build_model_leaves_fingerprint_lazy(self):
        built = build_model("smallnet")
        assert built._manifest_memo is None
        fingerprint = built.fingerprint()
        assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0
        assert fingerprint == built._manifest_memo[3]

    def test_params_digest_memoized_per_network(self, model, blob_hashes):
        first = model.fingerprint()
        hashed = len(blob_hashes)
        assert model.fingerprint() == first
        assert Model(model.name, model.network).fingerprint() == first
        assert len(blob_hashes) == hashed

    def test_fingerprint_is_sha256_over_the_full_file_sha1s(self, model):
        description = hashlib.sha1(model.description_json().encode("utf-8"))
        digests = [description.hexdigest()] + [
            Model._parameter_file(layer)[2]
            for layer in model.network.layers
            if layer.param_arrays()
        ]
        assert [d[:16] for d in digests] == [f.checksum for f in model.files()]
        expected = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
        assert model.fingerprint() == expected

    def test_split_halves_get_distinct_digests(self, model):
        front, rear = model.split(2)
        assert front.fingerprint() != rear.fingerprint()


def change_bits(model, path, how):
    """Add one to a parameter of the ``path``-th parameterised layer of the
    model's layer table: by installing a new array or by an in-place write
    after ``invalidate_param_cache``."""
    layers = [
        layer for layer in model_module._layer_table(model.network) if layer.params
    ]
    layer = layers[path % len(layers)]
    key = sorted(layer.params)[0]
    if how == "replace":
        layer.params[key] = layer.params[key] + np.float32(1.0)
    else:
        layer.invalidate_param_cache()
        layer.params[key][...] += np.float32(1.0)


class TestContentAddress:
    """``model_id`` and ``fingerprint()`` are one content address: derived
    in one pass, equal for equal bits, moved together by any change, and
    paid for with one sha1 per parameter file."""

    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        name=st.sampled_from(sorted(BUILDERS)),
        seed=st.integers(min_value=0, max_value=3),
        change=st.sampled_from([None, "replace", "in-place"]),
        data=st.data(),
    )
    def test_identity_follows_the_bits(self, name, seed, change, data, blob_hashes):
        model = build_model(name, seed=seed)
        before = len(blob_hashes)
        files = model.files()
        identity = (model.model_id, model.fingerprint())
        assert len(identity[1]) == 64
        point = data.draw(st.sampled_from(model.network.offload_points()))
        front, rear = model.split(point.index)
        halves = [(h.model_id, h.fingerprint(), h.files()) for h in (front, rear)]
        assert len({identity[1], halves[0][1], halves[1][1]}) == 3
        parameter_files = sum(file.kind == "parameters" for file in files)
        assert len(blob_hashes) - before == parameter_files

        twin = build_model(name, seed=seed)
        assert (twin.model_id, twin.fingerprint()) == identity
        if change is not None:
            path = data.draw(st.integers(min_value=0, max_value=1000))
            change_bits(model, path, change)
            change_bits(twin, path, change)
        moved = (model.model_id, model.fingerprint())
        assert (moved[0] != identity[0]) == (change is not None)
        assert (moved[1] != identity[1]) == (change is not None)
        assert (twin.model_id, twin.fingerprint()) == moved


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


def reload(model, directory):
    """``model`` written as its Caffe file pair and read back."""
    return load_model_files(*save_model_files(model, str(directory)))


def inception_net(seed):
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

    return Network(
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
    ).build(SeededRng(seed, "incnet"))


class TestSaveLoad:
    """The Caffe file pair (prototxt + weights blob) is the on-disk format."""

    def test_roundtrip_preserves_inference(self, tmp_path, model):
        loaded = reload(model, tmp_path)
        x = SeededRng(7, "img").uniform_array((3, 32, 32), 0, 255)
        assert np.array_equal(loaded.inference(x), model.inference(x))

    def test_roundtrip_preserves_manifest(self, tmp_path, model):
        loaded = reload(model, tmp_path)
        assert loaded.files() == model.files()
        assert loaded.model_id == model.model_id

    def test_description_rebuilds_architecture(self, model):
        rebuilt = network_from_prototxt(network_to_prototxt(model.network))
        assert rebuilt.describe() == model.network.describe()

    def test_inception_description_roundtrip(self):
        net = inception_net(0)
        rebuilt = network_from_prototxt(network_to_prototxt(net))
        assert rebuilt.describe() == net.describe()

    def test_inception_save_load_preserves_params(self, tmp_path):
        model = Model("inc-net", inception_net(3))
        loaded = reload(model, tmp_path)
        x = SeededRng(8, "x").normal_array((3, 8, 8))
        assert np.array_equal(loaded.inference(x), model.inference(x))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_zoo_model_roundtrips_exactly(self, tmp_path, name):
        """Architecture, identity, parameters and every exit's bits."""
        model = BUILDERS[name](seed=4)
        loaded = reload(model, tmp_path)
        assert loaded.description_json() == model.description_json()
        assert loaded.model_id == model.model_id
        assert loaded.fingerprint() == model.fingerprint()
        x = SeededRng(9, "x").uniform_array(model.network.input_shape, 0, 255)
        assert np.array_equal(loaded.inference(x), model.inference(x))
        for exit in model.network.exit_points()[:-1]:
            assert np.array_equal(
                loaded.network.at_exit(exit.index).forward(x),
                model.network.at_exit(exit.index).forward(x),
            )


class TestModelStore:
    def test_upload_lifecycle(self, model):
        store = ModelStore()
        assert not store.begin_upload(model.model_id, model.files(), model)
        entry = store.entry(model.model_id)
        assert not entry.complete
        completed = [
            store.receive_file(model.model_id, file) for file in model.files()
        ]
        assert completed == [False] * (len(completed) - 1) + [True]
        assert entry.complete
        assert entry.missing == []
        assert store.get_model(model.model_id) is model

    def test_partial_upload_not_complete(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        store.receive_file(model.model_id, model.files()[0])
        assert not store.has_complete(model.model_id)
        with pytest.raises(ModelStoreError):
            store.get_model(model.model_id)

    def test_checksum_mismatch_rejected(self, model):
        from dataclasses import replace

        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        corrupted = replace(model.files()[0], checksum="deadbeefdeadbeef")
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, corrupted)

    def test_unknown_file_rejected(self, model):
        from dataclasses import replace

        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        alien = replace(model.files()[0], name="not-in-manifest.bin")
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, alien)

    def test_receive_without_upload_rejected(self, model):
        store = ModelStore()
        with pytest.raises(ModelStoreError):
            store.receive_file(model.model_id, model.files()[0])

    def test_begin_upload_idempotent(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        first = store.entry(model.model_id)
        store.begin_upload(model.model_id, model.files(), model)
        assert store.entry(model.model_id) is first

    def test_received_bytes_tracks_progress(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        entry = store.entry(model.model_id)
        first = model.files()[0]
        store.receive_file(model.model_id, first)
        assert entry.received_bytes == first.size_bytes

    def test_rear_model_upload_keeps_front_absent(self, model):
        # Privacy: pre-send only the rear part; the store must not know the
        # front model at all.
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        store = ModelStore()
        store.install(rear, rear.files())
        assert store.has_complete(rear.model_id)
        assert not store.has_complete(front.model_id)
