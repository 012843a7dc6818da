"""Tests for compiled execution plans (fuse/arena/batch)."""

import numpy as np
import pytest

from repro.nn.network import Network
from repro.nn.plan import compile_plan
from repro.nn.zoo import build_model, smallnet
from repro.nn.zoo.resnetlike import resnet_mini
from repro.sim import SeededRng

#: models whose plans must match the reference walk bit for bit
BITWISE_MODELS = ["smallnet", "tinynet", "resnet-mini", "googlenet"]

#: stacked GEMMs re-associate differently than per-sample GEMMs; softmax
#: outputs of deep models see up to ~1e-5 absolute drift
BATCH_TOLERANCE = dict(rtol=1e-4, atol=1e-5)


def model_input(model, seed=7):
    return SeededRng(seed, f"plan/{model.name}").uniform_array(
        tuple(model.network.input_shape), 0, 255
    )


def reference_forward(network, x):
    return network.forward_reference(x)


@pytest.fixture(scope="module")
def small():
    return smallnet()


# -- numerical equivalence ------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("name", BITWISE_MODELS)
    def test_plan_matches_reference_bitwise(self, name):
        model = build_model(name)
        x = model_input(model)
        expected = reference_forward(model.network, x)
        got = model.network.plan_for().forward(x)
        assert np.array_equal(got, expected)

    def test_every_offload_point_composes(self, small):
        net = small.network
        x = model_input(small)
        expected = reference_forward(net, x)
        last = len(net.layers) - 1
        for point in net.offload_points():
            front = compile_plan(net, 0, point.index)
            rear = compile_plan(net, point.index + 1, last)
            assert np.array_equal(rear.forward(front.forward(x)), expected)

    def test_forward_range_optimized_matches_reference(self, small):
        net = small.network
        x = model_input(small)
        point = net.offload_points()[2]
        feature = net.forward_reference(x, 0, point.index)
        assert np.array_equal(net.forward_range(x, 0, point.index), feature)


# -- split isolation ------------------------------------------------------------


class TestSplitIsolation:
    def test_fusion_never_crosses_split(self, small):
        """No step of a front/rear plan covers a layer beyond its range."""
        net = small.network
        last = len(net.layers) - 1
        for point in net.offload_points():
            front = compile_plan(net, 0, point.index)
            rear = compile_plan(net, point.index + 1, last)
            front_covered = [
                index for step in front.steps for index, _ in step.layers
            ]
            rear_covered = [
                index for step in rear.steps for index, _ in step.layers
            ]
            # An empty front (only elided layers before the point) is fine.
            assert all(index <= point.index for index in front_covered)
            assert all(index >= point.index + 1 for index in rear_covered)
            assert tuple(front.output_shape) == tuple(
                net.layers[point.index].out_shape
            )

    def test_split_before_relu_leaves_relu_unfused(self, small):
        """Splitting between conv and its ReLU must not fuse across."""
        net = small.network
        relu_index = next(
            index
            for index, layer in enumerate(net.layers)
            if layer.kind == "relu"
        )
        front = compile_plan(net, 0, relu_index - 1)
        rear = compile_plan(net, relu_index, len(net.layers) - 1)
        assert front.stats.fused == 0
        assert rear.steps[0].kind == "relu"


# -- arena safety ---------------------------------------------------------------


class TestArenaSafety:
    @pytest.mark.parametrize("name", ["smallnet", "resnet-mini"])
    def test_no_step_output_aliases_its_input(self, name):
        model = build_model(name)
        x = model_input(model)
        value, trace = model.network.plan_for().forward_traced(x)
        assert np.array_equal(value, reference_forward(model.network, x))
        offenders = [
            record["step"] for record in trace if record["output_aliases_input"]
        ]
        assert offenders == []

    def test_result_never_aliases_arena(self, small):
        plan = small.network.plan_for()
        x = model_input(small)
        plan.memo.clear()  # every call below executes in the arena
        hits = plan.memo_hits
        first = plan.forward(x).copy()
        plan.forward(np.zeros_like(x))
        plan.memo.clear()
        assert np.array_equal(plan.forward(x), first)
        assert plan.memo_hits == hits


# -- batched forward ------------------------------------------------------------


class TestBatchedForward:
    @pytest.mark.parametrize("name", ["smallnet", "resnet-mini"])
    def test_batch_matches_looped(self, name):
        model = build_model(name)
        xs = [model_input(model, seed) for seed in range(4)]
        looped = np.stack([reference_forward(model.network, x) for x in xs])
        batched = model.inference_batch(xs)
        assert batched.shape == looped.shape
        np.testing.assert_allclose(batched, looped, **BATCH_TOLERANCE)

    def test_single_sample_is_auto_batched(self, small):
        x = model_input(small)
        batched = small.network.forward_batch(x)
        assert batched.shape[0] == 1
        assert np.array_equal(batched[0], reference_forward(small.network, x))


# -- per-network plan memo and invalidation -------------------------------------


class TestPlanMemo:
    def test_plan_for_caches_per_range(self, small):
        net = small.network
        assert net.plan_for() is net.plan_for()
        assert net.plan_for(0, 3) is not net.plan_for()

    def test_memo_key_is_range_and_exit(self):
        model = build_model("smallnet_exits")
        net = model.network
        x = model_input(model)
        exit_index = net.exit_points()[0].index
        net.forward(x)
        net.forward_exit(x, exit_index)
        net.forward_range(net.forward_range(x, 0, 2), 3, len(net.layers) - 1)
        last = len(net.layers) - 1
        assert set(net._plans) == {
            (0, last, None),
            (0, exit_index, exit_index),
            (0, 2, None),
            (3, last, None),
        }
        for start, end, exit_point in list(net._plans):
            plan = net._plans[(start, end, exit_point)]
            assert net.plan_for(start, end, exit_point) is plan
            assert net.plan_for(start, end, exit_point=exit_point) is plan
        stale = net.plan_for()
        conv = next(layer for layer in net.layers if layer.kind == "conv")
        conv.params["weight"] = conv.params["weight"] * np.float32(2.0)
        conv.invalidate_param_cache()
        fresh = net.plan_for()
        assert fresh is not stale and net._plans[(0, last, None)] is fresh
        assert np.array_equal(fresh.forward(x), reference_forward(net, x))

    def test_param_replacement_recompiles(self):
        model = smallnet(seed=11)
        net = model.network
        x = model_input(model)
        stale = net.plan_for()
        conv = next(layer for layer in net.layers if layer.kind == "conv")
        conv.params["weight"] = conv.params["weight"] * np.float32(2.0)
        conv.invalidate_param_cache()
        assert not stale.is_valid()
        fresh = net.plan_for()
        assert fresh is not stale
        assert np.array_equal(fresh.forward(x), reference_forward(net, x))


# -- captured parameters ----------------------------------------------------------


def find_layer(network, name):
    """The layer called ``name`` on ``network``'s spine or in a composite."""
    for layer in network.layers:
        if layer.name == name:
            return layer
        if hasattr(layer, "dag_branches"):
            for _, branch in layer.dag_branches().branches:
                for inner in branch:
                    if inner.name == name:
                        return inner
    raise KeyError(name)


#: a conv inside a residual branch, the projection shortcut, the classifier
CAPTURED = [("res4a_conv1", "weight"), ("res3a_proj", "weight"), ("fc", "weight")]


class TestCapturedParameters:
    """A plan computes with what it captured, so an in-place write it
    cannot see must never be accepted silently, and the supported way to
    write one must recompile."""

    @pytest.mark.parametrize("name,key", CAPTURED)
    def test_inplace_write_to_a_captured_layer_fails_loudly(self, name, key):
        model = resnet_mini(seed=1)
        net = model.network
        x = model_input(model)
        logits = len(net.layers) - 2  # softmax saturates on 0..255 pixels
        net.forward_range(x, 0, logits)
        with pytest.raises(ValueError):
            find_layer(net, name).params[key][...] += np.float32(0.5)
        assert np.array_equal(
            net.forward_range(x, 0, logits), net.forward_reference(x, 0, logits)
        )

    @pytest.mark.parametrize("name,key", CAPTURED)
    def test_unfreeze_then_write_recompiles(self, name, key):
        model = resnet_mini(seed=1)
        net = model.network
        x = model_input(model)
        logits = len(net.layers) - 2
        before = net.forward_range(x, 0, logits)
        stale = net.plan_for(0, logits)
        layer = find_layer(net, name)
        layer.invalidate_param_cache()
        assert not stale.is_valid()
        layer.params[key][...] += np.float32(0.5)
        after = net.forward_range(x, 0, logits)
        assert net.plan_for(0, logits) is not stale
        assert not np.array_equal(after, before)
        assert np.array_equal(after, net.forward_reference(x, 0, logits))


# -- the batching server API ----------------------------------------------------


class TestServerBatch:
    def test_batch_partial_inference_matches_sessions(self, small):
        from repro.core.server import EdgeServer
        from repro.devices import Device, edge_server_x86
        from repro.sim import Simulator

        sim = Simulator()
        server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
        server.store.begin_upload(small.model_id, [])
        server.store.attach_model(small.model_id, small)
        xs = [model_input(small, seed) for seed in range(3)]
        outputs = server.batch_partial_inference(small.model_id, xs)
        assert len(outputs) == 3
        for x, out in zip(xs, outputs):
            np.testing.assert_allclose(
                out, reference_forward(small.network, x), **BATCH_TOLERANCE
            )
        assert server.batch_partial_inference(small.model_id, []) == []


# -- telemetry ------------------------------------------------------------------


class TestMetrics:
    def test_record_metrics_exports_counters(self, small):
        from repro.obs import MetricsRegistry, to_prometheus_text

        registry = MetricsRegistry()
        plan = small.network.plan_for()
        plan.forward(model_input(small))
        plan.forward_batch([model_input(small, s) for s in range(2)])
        plan.record_metrics(registry)
        text = to_prometheus_text(registry)
        for name in (
            "plan_steps_fused_total",
            "plan_arena_bytes",
            "plan_forwards_total",
            "plan_memo_hits_total",
            "plan_arena_bytes_reused_total",
            "plan_batch_size",
        ):
            assert name in text


# -- DAG lowering ---------------------------------------------------------------


@pytest.fixture(scope="module")
def googlenet_model():
    return build_model("googlenet")


class TestDagLowering:
    """Composites compile to inlined branch/join steps — never opaque nodes."""

    def test_googlenet_has_zero_opaque_steps(self, googlenet_model):
        plan = googlenet_model.network.plan_for()
        opaque = [
            step for step in plan.steps
            if step.kind in ("inception", "residual")
        ]
        assert opaque == []

    def test_googlenet_branch_and_join_counts(self, googlenet_model):
        plan = googlenet_model.network.plan_for()
        # 9 inception modules x 4 branches each.
        assert plan.stats.joins == 9
        assert plan.stats.branches == 36
        assert sum(1 for step in plan.steps if step.kind == "concat") == 9

    def test_interval_coloring_beats_per_branch_arenas(self, googlenet_model):
        plan = googlenet_model.network.plan_for()
        # Liveness-driven slot sharing: a handful of slots cover a graph
        # with up to four concurrently-live branch outputs, and the arena
        # footprint stays below one forward's total activation traffic.
        assert 2 <= plan.stats.arena_slots <= 8
        assert plan.stats.arena_bytes < plan.stats.reuse_bytes_per_forward

    def test_fusion_applies_inside_branches(self, googlenet_model):
        plan = googlenet_model.network.plan_for()
        fused_branch_convs = [
            step for step in plan.steps
            if step.kind == "conv" and "/b" in step.name and step.relu
        ]
        assert fused_branch_convs, "no conv+ReLU fused inside any branch"

    def test_residual_identity_shortcut_reads_shared_input(self):
        model = build_model("resnet-mini")
        plan = model.network.plan_for()
        eltwise = [s for s in plan.steps if s.kind == "eltwise"]
        assert eltwise
        # At least one block has an identity shortcut: its join reads a
        # value that is also read by the body's first step (shared fan-out).
        shared = [
            step for step in eltwise
            if any(
                value_id in other.inputs
                for value_id in step.inputs
                for other in plan.steps
                if other is not step
            )
        ]
        assert shared

    def test_schedule_is_topological(self, googlenet_model):
        plan = googlenet_model.network.plan_for()
        for position, step in enumerate(plan.steps):
            assert step.output == position + 1
            for value_id in step.inputs:
                assert value_id <= position  # producer precedes reader

    def test_range_crossing_join_matches_forward_range_at_all_candidates(
        self, googlenet_model
    ):
        """Every candidate offload split the PartitionOptimizer sweeps
        (``network.offload_points()``) composes bitwise — including splits
        whose front or rear range crosses inception branch-and-join
        stages."""
        net = googlenet_model.network
        x = model_input(googlenet_model)
        last = len(net.layers) - 1
        expected_layers = []
        value = x
        for layer in net.layers:
            value = layer.forward(value)
            expected_layers.append(value)
        for point in net.offload_points():
            front = net.forward_range(x, 0, point.index)
            assert np.array_equal(front, expected_layers[point.index])
            rear = net.forward_range(front, point.index + 1, last)
            assert np.array_equal(rear, expected_layers[last])
