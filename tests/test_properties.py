"""Property-based tests (hypothesis) on the core invariants.

The invariants DESIGN.md commits to:

* snapshot heap round-trips preserve structure, aliasing and cycles;
* split inference equals full inference at every split point;
* pooling shrinks features, convolution with many filters grows them;
* the partition optimizer is never worse than any swept candidate;
* overlay delta/apply reconstructs the customized image;
* the DES kernel never runs events out of timestamp order;
* links never deliver messages faster than serialization + latency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot.codegen import (
    HeapCodegen,
    parse_tensor_text,
    render_tensor_text,
)
from repro.nn.layers import ConvLayer, FCLayer, InputLayer, PoolLayer, ReLULayer, SoftmaxLayer
from repro.nn.network import Network
from repro.sim import SeededRng, Simulator
from repro.web.values import UNDEFINED, JSArray, JSObject, TypedArray, deep_equal


# -- strategies -----------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.just(UNDEFINED),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)


def js_values(depth=3):
    if depth == 0:
        return scalars
    return st.one_of(
        scalars,
        st.lists(js_values(depth - 1), max_size=4).map(JSArray),
        st.dictionaries(
            st.text(min_size=1, max_size=8), js_values(depth - 1), max_size=4
        ).map(lambda d: JSObject(**d)),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=8
        ).map(lambda vals: TypedArray(np.array(vals, dtype=np.float32))),
    )


def roundtrip(value):
    codegen = HeapCodegen()
    expr = codegen.root_expression(value)
    namespace = {
        "__builtins__": {},
        "JSObject": JSObject,
        "JSArray": JSArray,
        "TA": lambda text, shape: TypedArray(parse_tensor_text(text, shape)),
        "NP": lambda text, shape: parse_tensor_text(text, shape),
        "UNDEFINED": UNDEFINED,
        "TEXT": tuple(codegen.texts),
        "ATTACH": codegen.attachments,
    }
    exec("\n".join(codegen.lines + [f"__r__ = {expr}"]), namespace)
    return namespace["__r__"]


class TestSnapshotHeapProperties:
    @given(js_values())
    @settings(max_examples=120, deadline=None)
    def test_codegen_roundtrip_structural_equality(self, value):
        assert deep_equal(roundtrip(value), value)

    @given(js_values(depth=2))
    @settings(max_examples=60, deadline=None)
    def test_aliasing_preserved_for_arbitrary_shared_value(self, shared):
        root = JSObject(a=shared, b=shared)
        restored = roundtrip(root)
        if not (
            restored["a"] is restored["b"]
            or (restored["a"] is None or isinstance(restored["a"], (bool, int, float, str)))
            or restored["a"] is UNDEFINED
        ):
            pytest.fail("shared heap value lost its aliasing")

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_tensor_text_roundtrip_is_exact(self, values):
        arr = np.array(values, dtype=np.float32)
        assert np.array_equal(parse_tensor_text(render_tensor_text(arr), arr.shape), arr)


# -- network properties -------------------------------------------------------------


def random_chain_network(seed: int, depth: int) -> Network:
    """A random but valid conv/pool/relu chain ending in fc+softmax."""
    rng = SeededRng(seed, "propnet")
    layers = [InputLayer((2, 16, 16))]
    size = 16
    for index in range(depth):
        kind = rng.choice(["conv", "pool", "relu"])
        if kind == "conv":
            layers.append(
                ConvLayer(f"conv{index}", rng.randint(1, 6), kernel=3, pad=1)
            )
        elif kind == "pool" and size >= 4:
            layers.append(PoolLayer(f"pool{index}", kernel=2, stride=2))
            size //= 2
        else:
            layers.append(ReLULayer(f"relu{index}"))
    layers.append(FCLayer("fc", 5))
    layers.append(SoftmaxLayer("prob"))
    return Network(f"prop-{seed}", layers).build(SeededRng(seed, "build"))


class TestNetworkProperties:
    @given(seed=st.integers(0, 50), depth=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_split_equals_full_at_every_point(self, seed, depth):
        net = random_chain_network(seed, depth)
        x = SeededRng(seed, "img").uniform_array((2, 16, 16), 0, 255)
        full = net.forward(x)
        for index in range(len(net.layers) - 1):
            halves = net.split(index)
            assert np.allclose(halves.forward(x), full, atol=1e-4)

    @given(
        channels=st.integers(1, 8),
        size=st.integers(4, 16),
        kernel=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooling_always_shrinks_elements(self, channels, size, kernel):
        layer = PoolLayer("p", kernel=kernel, stride=kernel)
        layer.build((channels, size, size), SeededRng(0, "p"))
        assert layer.output_elements < channels * size * size

    @given(
        in_channels=st.integers(1, 4),
        filters=st.integers(8, 32),
        size=st.integers(4, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_conv_with_many_filters_grows_elements(self, in_channels, filters, size):
        if filters <= in_channels:
            return
        layer = ConvLayer("c", filters, kernel=3, pad=1)
        layer.build((in_channels, size, size), SeededRng(0, "c"))
        assert layer.output_elements > in_channels * size * size

    @given(seed=st.integers(0, 30), depth=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_flops_partition_sums_to_total(self, seed, depth):
        from repro.nn.cost import costs_for_range, total_flops

        net = random_chain_network(seed, depth)
        mid = len(net.layers) // 2
        front = sum(c.flops for c in costs_for_range(net, 0, mid))
        rear = sum(
            c.flops for c in costs_for_range(net, mid + 1, len(net.layers) - 1)
        )
        assert front + rear == pytest.approx(total_flops(net))


class TestOptimizerProperties:
    @given(
        bandwidth_mbps=st.floats(min_value=0.5, max_value=1000),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_choice_never_worse_than_candidates(self, bandwidth_mbps, seed):
        from repro.core.partition import PartitionOptimizer
        from repro.devices import edge_server_x86, odroid_xu4_client
        from repro.devices.predictor import fit_predictor_for
        from repro.netsim import NetemProfile
        from repro.nn.cost import network_costs

        net = random_chain_network(seed, 4)
        costs = network_costs(net)
        optimizer = PartitionOptimizer(
            fit_predictor_for(odroid_xu4_client(), costs, noise=0.0),
            fit_predictor_for(edge_server_x86(), costs, noise=0.0),
            odroid_xu4_client(),
            edge_server_x86(),
        )
        link = NetemProfile(bandwidth_bps=bandwidth_mbps * 1e6)
        choice = optimizer.choose(net, link, denature=False)
        for estimate in choice.estimates:
            assert choice.best.total_seconds <= estimate.total_seconds + 1e-9


class TestKernelProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_timestamp_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        sizes=st.lists(st.integers(1, 10_000_000), min_size=1, max_size=10),
        bandwidth=st.floats(min_value=1e5, max_value=1e9),
    )
    @settings(max_examples=40, deadline=None)
    def test_link_fifo_and_minimum_latency(self, sizes, bandwidth):
        from repro.netsim.link import Link, NetemProfile
        from repro.netsim.message import Message

        sim = Simulator()
        profile = NetemProfile(bandwidth_bps=bandwidth, latency_s=0.01)
        link = Link(sim, profile)
        deliveries = []
        for index, size in enumerate(sizes):
            link.transmit(
                Message(kind=f"M{index}", size_bytes=size),
                lambda msg: deliveries.append((msg.kind, sim.now)),
            )
        sim.run()
        # FIFO: delivery order matches send order.
        assert [kind for kind, _ in deliveries] == [f"M{i}" for i in range(len(sizes))]
        # No message beats serialization + latency.
        serialization = 0.0
        for (kind, at), size in zip(deliveries, sizes):
            serialization += size * 8 / bandwidth
            assert at >= serialization + 0.01 - 1e-9


class TestPrototxtProperties:
    @given(seed=st.integers(0, 40), depth=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_emit_parse_roundtrip_any_chain(self, seed, depth):
        from repro.nn.prototxt import network_from_prototxt, network_to_prototxt

        net = random_chain_network(seed, depth)
        rebuilt = network_from_prototxt(network_to_prototxt(net))
        assert [l.kind for l in rebuilt.layers] == [l.kind for l in net.layers]
        assert rebuilt.param_count == net.param_count
        assert rebuilt.output_shape == net.output_shape


class TestVmSynthProperties:
    @given(
        base_mb=st.integers(1, 50),
        component_mb=st.integers(1, 30),
        seed=st.text(min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_delta_apply_reconstructs_custom_image(self, base_mb, component_mb, seed):
        from repro.vmsynth import DiskImage, SoftwareComponent, apply_delta, delta_chunks

        base = DiskImage.synthetic("base", base_mb * 1_000_000, seed=seed)
        component = SoftwareComponent("thing", component_mb * 1_000_000, 0.5)
        custom = base.with_installed([component])
        delta = delta_chunks(base, custom)
        rebuilt = apply_delta(base, delta, expected_fingerprint=custom.fingerprint())
        assert rebuilt.chunks == custom.chunks
        # Delta is no larger than the component's chunk footprint.
        assert len(delta) <= component_mb + 1
