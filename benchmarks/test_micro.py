"""Microbenchmarks of the hot paths (real wall time, multiple rounds).

Unlike the figure benchmarks (one-shot end-to-end simulations), these use
pytest-benchmark's statistical timing on the operations the system does
constantly: snapshot capture/restore, tensor text serialization, conv
forward passes, the partition solver and the DES kernel.
"""

import hashlib

import numpy as np
import pytest

from repro.core.partition import PartitionOptimizer
from repro.core.snapshot import (
    CaptureOptions,
    capture_snapshot,
    fingerprint_runtime,
    restore_snapshot,
)
from repro.core.snapshot.codegen import parse_tensor_text, render_tensor_text
from repro.devices import edge_server_x86, odroid_xu4_client
from repro.devices.predictor import fit_predictor_for
from repro.netsim import NetemProfile
from repro.nn import model as model_module
from repro.nn import plan as plan_module
from repro.nn import tensor
from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.cost import network_costs
from repro.nn.layers import LRNLayer
from repro.nn.tensor import max_pool_strided, pool_patches
from repro.nn.zoo import build_model, smallnet
from repro.sim import SeededRng, Simulator
from repro.web import WebRuntime
from repro.web.app import make_inference_app
from repro.web.events import Event
from repro.web.values import TypedArray
from tests.memos import clear_memos


def _loaded_runtime(shape=(3, 32, 32)):
    model = smallnet()
    runtime = WebRuntime("bench")
    runtime.load_app(make_inference_app(model))
    runtime.globals["pending_pixels"] = TypedArray(
        SeededRng(1, "px").uniform_array(shape, 0, 255)
    )
    runtime.dispatch("click", "load_btn")
    return model, runtime


def test_micro_snapshot_capture(benchmark):
    _model, runtime = _loaded_runtime()
    event = Event("click", "infer_btn")
    snapshot = benchmark(lambda: capture_snapshot(runtime, event))
    assert snapshot.size_bytes > 0


#: the two snapshot sizes the ledger workloads restore: smallnet's input
#: image (≈ 55 KB of tensor text) and a GoogLeNet first-conv feature (13.6 MB)
@pytest.mark.parametrize(
    "shape", [(3, 32, 32), (64, 112, 112)], ids=["image-55KB", "feature-13.6MB"]
)
def test_micro_snapshot_restore(benchmark, shape):
    model, runtime = _loaded_runtime(shape)
    snapshot = capture_snapshot(
        runtime,
        Event("click", "infer_btn"),
        CaptureOptions(live_only=False, include_canvas_pixels=True),
    )
    assert snapshot.tensor_text_bytes > 17 * int(np.prod(shape)) - 17

    def restore():
        server = WebRuntime("server")
        server.install_model(model)
        report = restore_snapshot(snapshot, server)
        return server, report

    server, report = benchmark(restore)
    assert report.pending_event is not None
    assert fingerprint_runtime(server) == fingerprint_runtime(runtime)


#: the tensor classes the ledger workloads render — images and dense
#: features, a ReLU-sparse feature, signed weight-like values — and a tensor
#: wholly outside the renderer's exactness window
_TENSOR_TEXT_INPUTS = {
    "image-3072": lambda rng: rng.uniform(0, 255, 3_072),
    "image-150528": lambda rng: rng.uniform(0, 255, 150_528),
    "feature-802816": lambda rng: rng.uniform(0, 255, 802_816),
    "relu-sparse-802816": lambda rng: np.maximum(rng.normal(0, 20, 802_816), 0),
    "signed-N(0,1)-50000": lambda rng: rng.normal(0, 1, 50_000),
    "outside-window-50000": lambda rng: rng.uniform(0.5e-5, 2e-5, 50_000),
}


@pytest.mark.parametrize("name", list(_TENSOR_TEXT_INPUTS))
def test_micro_tensor_text_render(benchmark, name):
    values = _TENSOR_TEXT_INPUTS[name](np.random.default_rng(2)).astype(np.float32)
    # The text memo is content-keyed: without clearing it every round after
    # the first would time a sha1 and a dict look-up, not the formatting.
    text = benchmark.pedantic(
        lambda: render_tensor_text(values),
        setup=clear_memos,
        rounds=9,
    )
    assert text == " ".join("%.10e" % v for v in values)


def test_micro_tensor_text_parse(benchmark):
    values = SeededRng(3, "t").normal_array((50_000,))
    text = render_tensor_text(values)
    parsed = benchmark(lambda: parse_tensor_text(text, (50_000,)))
    assert np.array_equal(parsed, values)


def test_micro_parameter_draw(benchmark):
    """AgeNet's ``fc6`` weights (512 × 18,816): the largest parameter draw a
    paper model makes, streamed into float32 a chunk at a time."""
    shape = (512, 18_816)
    weights = benchmark(lambda: SeededRng(5, "fc6").normal_array(shape, 0.01))
    assert weights.shape == shape and weights.dtype == np.float32
    head = SeededRng(5, "fc6").np.normal(0.0, 0.01, size=1000).astype(np.float32)
    assert np.array_equal(weights.reshape(-1)[:1000], head)


def test_micro_smallnet_forward(benchmark):
    """An executed forward: the memo is emptied first, so each round pays
    the kernels plus hashing the input and storing the result."""
    model = smallnet()
    image = SeededRng(4, "img").uniform_array((3, 32, 32), 0, 255)
    plan = model.network.plan_for()

    def executed():
        clear_memos()
        return model.inference(image)

    hits = plan.memo_hits
    probs = benchmark(executed)
    assert probs.shape == (10,) and plan.memo_hits == hits


@pytest.mark.parametrize("name", ["smallnet", "googlenet"])
def test_micro_forward_memo_hit(benchmark, name):
    """A repeated input: the SHA-1 of its float32 bytes and one copy of the
    memoized result, against ≈ 0.3 ms (smallnet) and ≈ 45 ms (googlenet)
    for the forward it replaces."""
    network = build_model(name).network
    image = SeededRng(4, "img").uniform_array(network.input_shape, 0, 255)
    plan = network.plan_for()
    first = network.forward(image)
    hits = plan.memo_hits
    again = benchmark(lambda: network.forward(image))
    assert plan.memo_hits > hits and np.array_equal(again, first)


@pytest.mark.parametrize("name", ["smallnet", "googlenet"])
def test_micro_split_rear_memo_hit(benchmark, name):
    """A rear half on the feature of an image the whole network classified:
    the SHA-1 of the feature, a missed look-up, the front's link and one
    copy of the whole network's result, against the rear forward it
    replaces (GoogLeNet at ``1st_pool``: two thirds of the network)."""
    model = build_model(name)
    network = model.network
    image = SeededRng(4, "img").uniform_array(network.input_shape, 0, 255)
    first = model.inference(image)
    front, rear = model.split(network.point_by_label("1st_pool").index)
    plan = rear.network.plan_for()

    def answered():
        # the hit stores the result under the rear's own key: drop it, so
        # every round takes the link again
        plan_module._RESULTS.pop((plan.chain, feature_key), None)
        return rear.inference(feature)

    feature = front.inference(image)
    feature_key = hashlib.sha1(feature).digest()
    hits = plan.memo_hits
    again = benchmark(answered)
    assert plan.memo_hits > hits and plan.forwards == plan.memo_hits
    assert np.array_equal(again, first)


@pytest.mark.parametrize("label", ["1st_pool", "5th_pool"])
@pytest.mark.parametrize("answered", [True, False], ids=["answered", "executed"])
def test_micro_front_after_whole_forward(benchmark, label, answered):
    """A GoogLeNet front half on an image the whole network classified
    just before: answered with the boundary that forward captured at the
    split point (a look-up, one copy and the link its rear follows),
    against the same front with the memos emptied, which executes the
    prefix (``5th_pool`` is almost the whole network).  Every round
    compiles a fresh front, which registers its chain, then runs the
    whole forward when the front is to be answered."""
    model = build_model("googlenet")
    network = model.network
    image = SeededRng(4, "img").uniform_array(network.input_shape, 0, 255)
    index = network.point_by_label(label).index
    fronts = []

    def setup():
        clear_memos()
        front = model.split(index)[0]
        front.network.plan_for()
        if answered:
            model.inference(image)
        fronts.append(front)
        return (front,), {}

    feature = benchmark.pedantic(
        lambda front: front.inference(image), setup=setup, rounds=5,
    )
    assert np.array_equal(feature, network.forward_reference(image, end=index))
    assert all(
        front.network.plan_for().memo_hits == int(answered) for front in fronts
    )


@pytest.mark.parametrize("name", ["resnet-mini", "googlenet"])
def test_micro_forward_batch_of_eight(benchmark, name):
    """The batched forward: ``serve-partial``'s model, and the model whose
    fresh step outputs used to cost ≈ 35 k page faults per batch of 8.
    The memos are emptied every round, so each round runs the kernels."""
    network = build_model(name).network
    xs = SeededRng(4, "batch").uniform_array((8,) + network.input_shape, 0, 255)
    batched = benchmark.pedantic(
        lambda: network.forward_batch(xs), setup=clear_memos, rounds=5,
    )
    clear_memos()
    looped = np.stack([network.forward(x) for x in xs])
    assert np.array_equal(batched, looped)


def test_micro_conv_layer_forward(benchmark):
    from repro.nn.layers import ConvLayer

    layer = ConvLayer("c", 32, kernel=3, pad=1)
    layer.build((16, 32, 32), SeededRng(5, "c"))
    x = SeededRng(6, "x").normal_array((16, 32, 32))
    out = benchmark(lambda: layer.forward(x))
    assert out.shape == (32, 32, 32)


@pytest.mark.parametrize("shape", [(64, 56, 56), (192, 56, 56)])
def test_micro_lrn_googlenet_shapes(benchmark, shape):
    """GoogLeNet's two LRN layers, the largest non-GEMM steps of its plan."""
    layer = LRNLayer("norm")
    xs = SeededRng(7, "lrn").uniform_array(shape, 0, 255)[None]
    out = benchmark(lambda: tensor.lrn_batch(layer, xs))
    assert out.shape == xs.shape and out.dtype == np.float32


@pytest.mark.parametrize(
    "shape, kernel, stride, pad",
    [((64, 112, 112), 3, 2, 0), ((480, 14, 14), 3, 1, 1)],
)
def test_micro_max_pool_googlenet_shapes(benchmark, shape, kernel, stride, pad):
    """GoogLeNet's first pool and an inception pool branch (stride 1, pad 1)."""
    x = SeededRng(8, "pool").normal_array(shape)
    expected = pool_patches(x, kernel, stride, pad)[0].max(axis=(1, 2))
    out = np.empty(expected.size, dtype=np.float32)
    pooled = benchmark(lambda: max_pool_strided(x, kernel, stride, pad, out=out))
    assert np.array_equal(pooled, expected)


def test_micro_split_manifest_after_warm_files(benchmark):
    """A split half's manifest once the whole model's was read: the
    per-layer memo means no parameter bytes are hashed again."""
    model = build_model("googlenet")
    whole = {file.layer_name: file.checksum for file in model.files()}
    index = model.network.offload_points()[3].index
    files = benchmark(lambda: model.split(index)[1].files())
    parameters = [file for file in files if file.kind == "parameters"]
    assert parameters and all(
        file.checksum == whole[file.layer_name] for file in parameters
    )


def _drawn(model):
    """The model, every leaf's parameters drawn (a build draws none)."""
    for layer in model_module._layer_table(model.network):
        layer.params
    return model


@pytest.mark.parametrize("name", ["googlenet", "agenet"])
def test_micro_model_identity_cold(benchmark, name):
    """``model_id`` then ``fingerprint()`` of a freshly built and drawn
    model: the one pass that hashes every parameter byte, then a memo
    read."""

    def setup():
        return (_drawn(build_model(name)),), {}

    identity = benchmark.pedantic(
        lambda model: (model.model_id, model.fingerprint()),
        setup=setup,
        rounds=5,
    )
    assert identity[0].startswith(f"{name}:") and len(identity[1]) == 64


@pytest.mark.parametrize("name", ["googlenet", "agenet"])
def test_micro_load_model_files(benchmark, name, tmp_path):
    """Rebuild a paper model from its Caffe pair: parse the prototxt,
    build, decode the weights blob and install every blob; nothing is
    drawn."""
    model = build_model(name)
    paths = save_model_files(model, str(tmp_path))
    loaded = benchmark(lambda: load_model_files(*paths))
    assert loaded.model_id == model.model_id


def test_micro_partition_solver(benchmark):
    network = smallnet().network
    costs = network_costs(network)
    optimizer = PartitionOptimizer(
        fit_predictor_for(odroid_xu4_client(), costs, noise=0.0),
        fit_predictor_for(edge_server_x86(), costs, noise=0.0),
        odroid_xu4_client(),
        edge_server_x86(),
    )
    link = NetemProfile.wifi_30mbps()
    choice = benchmark(lambda: optimizer.choose(network, link))
    assert choice.best.total_seconds > 0


def test_micro_des_kernel_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]
        for i in range(10_000):
            sim.schedule(i * 0.001, lambda: count.__setitem__(0, count[0] + 1))
        sim.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000
