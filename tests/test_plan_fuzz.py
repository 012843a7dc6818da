"""Differential fuzzing for the DAG plan compiler.

Hypothesis generates random branch-and-join layer graphs — nested
inception/residual composites, shared branch inputs, mixed
conv/pool/fc/ReLU/LRN units, grouped convs among them — and every
generated network is run both ways: the reference layer walk versus the
compiled :class:`~repro.nn.plan.ExecutionPlan`.  The contract under test:

* every graph is **bitwise identical** to the reference walk
  (``np.array_equal``), whole-network and at every spine split, including
  splits whose ranges cross a branch-and-join stage;
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
from repro.nn.layers.composite import InceptionModule, ResidualBlock
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import FCLayer
from repro.nn.layers.io import InputLayer
from repro.nn.layers.normalization import LRNLayer
from repro.nn.layers.pool import PoolLayer
from repro.nn.network import Network
from repro.sim import SeededRng
from tests.test_plan_batch import BATCH_SIZES, parent_forward_batch

FUZZ_SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _GraphSpec:
    """A generated network plus what the generator put into it."""

    def __init__(self, layers, composites):
        self.layers = layers
        self.composites = composites  # total composite count, nested included

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
def _conv_unit(draw, channels, namer):
    """Spatial-preserving conv, grouped when the widths allow, optionally
    + ReLU."""
    filters = draw(st.integers(1, 4))
    kernel = draw(st.sampled_from([1, 3]))
    groups = draw(
        st.sampled_from(
            [g for g in (1, 2, 3) if channels % g == 0 and filters % g == 0]
        )
    )
    layers = [
        ConvLayer(
            namer("conv"), filters, kernel, stride=1, pad=kernel // 2,
            groups=groups,
        )
    ]
    if draw(st.booleans()):
        layers.append(ReLULayer(namer("relu")))
    return layers, filters


@st.composite
def _branch_sequence(draw, channels, namer, depth):
    """A composite branch: 1-3 spatial-preserving units; returns
    (layers, out_channels, composites)."""
    layers = []
    composites = 0
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(
            st.sampled_from(
                ["conv", "relu", "lrn"] + (["composite"] * (2 if depth else 0))
            )
        )
        if choice == "conv":
            unit, channels = draw(_conv_unit(channels=channels, namer=namer))
            layers.extend(unit)
        elif choice == "relu":
            layers.append(ReLULayer(namer("relu")))
        elif choice == "lrn":
            layers.append(LRNLayer(namer("lrn"), local_size=3))
        else:
            composite, channels, inner = draw(
                _composite_unit(channels=channels, namer=namer, depth=depth - 1)
            )
            layers.append(composite)
            composites += 1 + inner
    return layers, channels, composites


@st.composite
def _composite_unit(draw, channels, namer, depth):
    """An inception or residual composite; spatial-preserving by
    construction so it can nest anywhere; returns
    (layer, out_channels, nested_composite_count)."""
    if draw(st.booleans()):
        # Inception: 2-3 branches sharing the input, channel concat.
        branches = []
        total = 0
        nested = 0
        for _ in range(draw(st.integers(2, 3))):
            layers, out_channels, inner = draw(
                _branch_sequence(channels=channels, namer=namer, depth=depth)
            )
            if not layers:  # inception branches must be non-empty
                layers = [ReLULayer(namer("relu"))]
            branches.append(layers)
            total += out_channels
            nested += inner
        return InceptionModule(namer("incept"), branches), total, nested
    # Residual: body + identity-or-projection shortcut, eltwise add.
    body, out_channels, nested = draw(
        _branch_sequence(channels=channels, namer=namer, depth=depth)
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
    return block, out_channels, nested


@st.composite
def graph_specs(draw, depth=1, min_composites=1):
    """A whole random network: input, mixed spine units (including pools
    and composites), optional FC tail."""
    namer = _Namer()
    channels = draw(st.integers(1, 3))
    side = draw(st.sampled_from([4, 6, 8]))
    layers = [InputLayer((channels, side, side))]
    composites = 0
    for _ in range(draw(st.integers(1, 4))):
        options = ["conv", "relu", "lrn", "composite"]
        if side >= 4:
            options.append("pool")
        choice = draw(st.sampled_from(options))
        if choice == "conv":
            unit, channels = draw(_conv_unit(channels=channels, namer=namer))
            layers.extend(unit)
        elif choice == "relu":
            layers.append(ReLULayer(namer("relu")))
        elif choice == "lrn":
            layers.append(LRNLayer(namer("lrn"), local_size=3))
        elif choice == "pool":
            mode = draw(st.sampled_from(["max", "avg"]))
            layers.append(PoolLayer(namer("pool"), 2, 2, mode=mode))
            side //= 2
        else:
            composite, channels, nested = draw(
                _composite_unit(channels=channels, namer=namer, depth=depth)
            )
            layers.append(composite)
            composites += 1 + nested
    while composites < min_composites:
        composite, channels, nested = draw(
            _composite_unit(channels=channels, namer=namer, depth=depth)
        )
        layers.append(composite)
        composites += 1 + nested
    if draw(st.booleans()):
        layers.append(FCLayer(namer("fc"), draw(st.integers(2, 6))))
        if draw(st.booleans()):
            layers.append(ReLULayer(namer("relu")))
    return _GraphSpec(layers, composites)


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
    @given(spec=graph_specs())
    def test_plan_bitwise_identical(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        plan = network.plan_for()
        _assert_flat_dag(plan, spec.composites)
        assert np.array_equal(plan.forward(x), reference)
        traced, trace = plan.forward_traced(x)
        assert np.array_equal(traced, reference)
        _assert_no_aliasing(trace)

    @settings(max_examples=40, **FUZZ_SETTINGS)
    @given(
        spec=graph_specs(),
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
    @given(spec=graph_specs())
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
    @given(spec=graph_specs(depth=2, min_composites=2))
    def test_nested_branch_graphs_bitwise(self, spec):
        network = spec.build()
        x = _input_for(network)
        reference = network.forward_reference(x)
        plan = network.plan_for()
        _assert_flat_dag(plan, spec.composites)
        result, trace = plan.forward_traced(x)
        assert np.array_equal(result, reference)
        _assert_no_aliasing(trace)
