"""Differential fuzzing for the DAG plan compiler.

Hypothesis generates random branch-and-join layer graphs — nested
inception/residual composites, shared branch inputs, mixed
conv/pool/fc/ReLU/LRN units, with and without BatchNorm chains — and every
generated network is run both ways: the reference layer walk versus the
compiled :class:`~repro.nn.plan.ExecutionPlan`.  The contract under test:

* graphs without BatchNorm/Scale are **bitwise identical** to the
  reference walk (``np.array_equal``), whole-network and at every spine
  split, including splits whose ranges cross a branch-and-join stage;
* graphs with BN chains stay within the folding tolerance (1e-6);
* ``forward_traced`` never reports an arena step whose output buffer
  aliases one of its inputs or clobbers a value still live — the
  interval-coloring safety invariant;
* compiled graphs contain zero opaque composite steps: every inception /
  residual lowers to inlined branch steps plus one concat/eltwise join;
* ``forward_batch`` returns, at every batch size, the bits of the
  ``run_batch`` step methods it replaced (kept in ``test_plan_batch.py``).

All strategies are derandomized so CI failures reproduce exactly; the
heavier nested-graph cases carry the ``fuzz`` marker.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nn.layers.activation import ReLULayer
from repro.nn.layers.batchnorm import BatchNormLayer, ScaleLayer
from repro.nn.layers.composite import InceptionModule, ResidualBlock
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import FCLayer
from repro.nn.layers.io import InputLayer
from repro.nn.layers.normalization import LRNLayer
from repro.nn.layers.pool import PoolLayer
from repro.nn.network import Network
from repro.sim import SeededRng
from tests.test_plan_batch import BATCH_SIZES, parent_forward_batch

#: folding re-associates BN affine chains in float64; see test_nn_plan.py
FOLD_TOLERANCE = dict(rtol=1e-5, atol=1e-6)

FUZZ_SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _GraphSpec:
    """A generated network plus what the generator put into it."""

    def __init__(self, layers, composites, has_bn):
        self.layers = layers
        self.composites = composites  # total composite count, nested included
        self.has_bn = has_bn

    def build(self):
        network = Network("fuzz", self.layers)
        network.build(SeededRng(11, "fuzz/net"))
        return network


class _Namer:
    def __init__(self):
        self.count = 0

    def __call__(self, kind):
        self.count += 1
        return f"{kind}{self.count}"


@st.composite
def _conv_unit(draw, channels, namer, allow_bn):
    """Spatial-preserving conv, optionally + BN/Scale chain, optionally + ReLU."""
    filters = draw(st.integers(1, 4))
    kernel = draw(st.sampled_from([1, 3]))
    layers = [
        ConvLayer(namer("conv"), filters, kernel, stride=1, pad=kernel // 2)
    ]
    has_bn = False
    if allow_bn and draw(st.booleans()):
        has_bn = True
        layers.append(BatchNormLayer(namer("bn")))
        if draw(st.booleans()):
            layers.append(
                ScaleLayer(namer("scale"), bias=draw(st.booleans()))
            )
    if draw(st.booleans()):
        layers.append(ReLULayer(namer("relu")))
    return layers, filters, has_bn


@st.composite
def _branch_sequence(draw, channels, namer, allow_bn, depth):
    """A composite branch: 1-3 spatial-preserving units; returns
    (layers, out_channels, has_bn, composites)."""
    layers = []
    has_bn = False
    composites = 0
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(
            st.sampled_from(
                ["conv", "relu", "lrn"] + (["composite"] * (2 if depth else 0))
            )
        )
        if choice == "conv":
            unit, channels, unit_bn = draw(
                _conv_unit(channels=channels, namer=namer, allow_bn=allow_bn)
            )
            layers.extend(unit)
            has_bn = has_bn or unit_bn
        elif choice == "relu":
            layers.append(ReLULayer(namer("relu")))
        elif choice == "lrn":
            layers.append(LRNLayer(namer("lrn"), local_size=3))
        else:
            composite, channels, unit_bn, inner = draw(
                _composite_unit(
                    channels=channels,
                    namer=namer,
                    allow_bn=allow_bn,
                    depth=depth - 1,
                )
            )
            layers.append(composite)
            has_bn = has_bn or unit_bn
            composites += 1 + inner
    return layers, channels, has_bn, composites


@st.composite
def _composite_unit(draw, channels, namer, allow_bn, depth):
    """An inception or residual composite; spatial-preserving by
    construction so it can nest anywhere; returns
    (layer, out_channels, has_bn, nested_composite_count)."""
    if draw(st.booleans()):
        # Inception: 2-3 branches sharing the input, channel concat.
        branches = []
        total = 0
        has_bn = False
        nested = 0
        for _ in range(draw(st.integers(2, 3))):
            layers, out_channels, branch_bn, inner = draw(
                _branch_sequence(
                    channels=channels, namer=namer, allow_bn=allow_bn,
                    depth=depth,
                )
            )
            if not layers:  # inception branches must be non-empty
                layers = [ReLULayer(namer("relu"))]
            branches.append(layers)
            total += out_channels
            has_bn = has_bn or branch_bn
            nested += inner
        return InceptionModule(namer("incept"), branches), total, has_bn, nested
    # Residual: body + identity-or-projection shortcut, eltwise add.
    body, out_channels, has_bn, nested = draw(
        _branch_sequence(
            channels=channels, namer=namer, allow_bn=allow_bn, depth=depth
        )
    )
    if out_channels == channels and draw(st.booleans()):
        shortcut = None  # identity edge: the join reads the shared input
    else:
        shortcut = [
            ConvLayer(namer("proj"), out_channels, 1, stride=1, pad=0)
        ]
    if not body:
        body = [ReLULayer(namer("relu"))]
    block = ResidualBlock(namer("res"), body, shortcut)
    return block, out_channels, has_bn, nested


@st.composite
def graph_specs(draw, allow_bn, depth=1, min_composites=1):
    """A whole random network: input, mixed spine units (including pools
    and composites), optional FC tail."""
    namer = _Namer()
    channels = draw(st.integers(1, 3))
    side = draw(st.sampled_from([4, 6, 8]))
    layers = [InputLayer((channels, side, side))]
    has_bn = False
    composites = 0
    for _ in range(draw(st.integers(1, 4))):
        options = ["conv", "relu", "lrn", "composite"]
        if side >= 4:
            options.append("pool")
        choice = draw(st.sampled_from(options))
        if choice == "conv":
            unit, channels, unit_bn = draw(
                _conv_unit(channels=channels, namer=namer, allow_bn=allow_bn)
            )
            layers.extend(unit)
            has_bn = has_bn or unit_bn
        elif choice == "relu":
            layers.append(ReLULayer(namer("relu")))
        elif choice == "lrn":
            layers.append(LRNLayer(namer("lrn"), local_size=3))
        elif choice == "pool":
            mode = draw(st.sampled_from(["max", "avg"]))
            layers.append(PoolLayer(namer("pool"), 2, 2, mode=mode))
            side //= 2
        else:
            composite, channels, unit_bn, nested = draw(
                _composite_unit(
                    channels=channels, namer=namer, allow_bn=allow_bn,
                    depth=depth,
                )
            )
            layers.append(composite)
            has_bn = has_bn or unit_bn
            composites += 1 + nested
    while composites < min_composites:
        composite, channels, unit_bn, nested = draw(
            _composite_unit(
                channels=channels, namer=namer, allow_bn=allow_bn, depth=depth
            )
        )
        layers.append(composite)
        has_bn = has_bn or unit_bn
        composites += 1 + nested
    if draw(st.booleans()):
        layers.append(FCLayer(namer("fc"), draw(st.integers(2, 6))))
        if draw(st.booleans()):
            layers.append(ReLULayer(namer("relu")))
    return _GraphSpec(layers, composites, has_bn)


def _input_for(network, seed=3):
    return SeededRng(seed, "fuzz/input").uniform_array(
        tuple(network.input_shape), -1.0, 1.0
    )


def _assert_flat_dag(plan, expected_joins):
    opaque = [s for s in plan.steps if s.kind in ("inception", "residual")]
    assert opaque == [], f"opaque composite steps survived: {opaque}"
    assert plan.stats.joins == expected_joins
    assert plan.stats.branches >= expected_joins  # every join has branches


def _assert_no_aliasing(trace):
    for entry in trace:
        assert not entry["output_aliases_input"], entry
        assert not entry["output_clobbers_live"], entry


class TestGeneratedGraphs:
    @settings(max_examples=100, **FUZZ_SETTINGS)
    @given(spec=graph_specs(allow_bn=False))
    def test_plan_bitwise_identical_without_bn(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        plan = network.plan_for()
        _assert_flat_dag(plan, spec.composites)
        assert np.array_equal(plan.forward(x), reference)
        traced, trace = plan.forward_traced(x)
        assert np.array_equal(traced, reference)
        _assert_no_aliasing(trace)

    @settings(max_examples=60, **FUZZ_SETTINGS)
    @given(spec=graph_specs(allow_bn=True))
    def test_plan_within_tolerance_with_bn(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        plan = network.plan_for()
        _assert_flat_dag(plan, spec.composites)
        result, trace = plan.forward_traced(x)
        _assert_no_aliasing(trace)
        if spec.has_bn:
            np.testing.assert_allclose(result, reference, **FOLD_TOLERANCE)
        else:
            assert np.array_equal(result, reference)

    @settings(max_examples=40, **FUZZ_SETTINGS)
    @given(
        spec=graph_specs(allow_bn=False),
        data=st.data(),
    )
    def test_split_ranges_bitwise_across_joins(self, spec, data):
        """Front/rear plans around a random spine split compose bitwise —
        including splits whose ranges cross branch-and-join stages."""
        network = spec.build()
        last = len(network.layers) - 1
        split = data.draw(st.integers(0, last - 1), label="split")
        x = _input_for(network)
        reference = network.forward_reference(x)
        front = network.forward_range(x, 0, split)
        rear = network.forward_range(front, split + 1, last)
        assert np.array_equal(rear, reference)

    @settings(max_examples=60, **FUZZ_SETTINGS)
    @given(spec=graph_specs(allow_bn=True))
    def test_forward_batch_equals_parent_run_batch(self, spec):
        plan = spec.build().plan_for()
        xs = SeededRng(5, "fuzz/batch").uniform_array(
            (max(BATCH_SIZES),) + plan.input_shape, -1.0, 1.0
        )
        for count in BATCH_SIZES:
            batched = plan.forward_batch(xs[:count])
            assert np.array_equal(batched, parent_forward_batch(plan, xs[:count]))
        traced, trace = plan.forward_traced(xs)
        assert np.array_equal(traced, batched)
        _assert_no_aliasing(trace)
        assert np.array_equal(plan.forward_batch(xs[:1])[0], plan.forward(xs[0]))


@pytest.mark.fuzz
class TestNestedGraphsSlow:
    """Heavier cases: guaranteed nesting and more composites per graph."""

    @settings(max_examples=60, **FUZZ_SETTINGS)
    @given(spec=graph_specs(allow_bn=False, depth=2, min_composites=2))
    def test_nested_branch_graphs_bitwise(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        plan = network.plan_for()
        _assert_flat_dag(plan, spec.composites)
        result, trace = plan.forward_traced(x)
        assert np.array_equal(result, reference)
        _assert_no_aliasing(trace)

    @settings(max_examples=30, **FUZZ_SETTINGS)
    @given(spec=graph_specs(allow_bn=True, depth=2, min_composites=2))
    def test_nested_bn_graphs_within_tolerance(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        result = network.plan_for().forward(x)
        if spec.has_bn:
            np.testing.assert_allclose(result, reference, **FOLD_TOLERANCE)
        else:
            assert np.array_equal(result, reference)
