"""Kernel suite: one kernel set, bitwise-locked against its ancestors.

The contract the kernels in :mod:`repro.nn.tensor` must keep:

* the slice-gathered pooling windows, the in-place LRN and the separable
  max-pool return the bits the kernels they replaced returned — those
  parents are kept here verbatim as oracles, and a test swaps one in for
  a whole-network run with a single ``monkeypatch.setattr`` on the
  module (call sites reach the kernels as ``tensor.<name>``);
* nothing a kernel returns aliases the process-wide scratch;
* plans and the layer walk are bitwise identical to each other across
  the zoo, whole-network and at every split;
* there is nothing to select: no environment variable is read, and the
  result-cache key names no kernel set.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.nn import tensor as tensor_module
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.io import InputLayer
from repro.nn.layers.normalization import LRNLayer
from repro.nn.layers.pool import PoolLayer
from repro.nn.network import Network
from repro.nn.plan import ConvStep, PoolStep
from repro.nn.tensor import (
    _window_slices,
    max_pool_strided,
    pad_chw,
    pool_output_hw,
    pool_patches,
)
from repro.nn.zoo import build_model
from repro.sim import SeededRng

#: models whose plans must match the walk bit for bit
ZOO_MODELS = ["smallnet", "tinynet", "resnet-mini", "googlenet"]

def model_input(model, seed=7):
    return SeededRng(seed, f"backend/{model.name}").uniform_array(
        tuple(model.network.input_shape), 0, 255
    )


def fancy_index_pool_patches(x, kernel, stride, pad=0):
    """``pool_patches`` as it was before the slice gather, kept verbatim as
    the oracle: one fancy-index copy per window offset."""
    channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, pad)
    neg = np.full(
        (channels, kernel, kernel, out_h, out_w), -np.inf, dtype=np.float32
    )
    for ky in range(kernel):
        for kx in range(kernel):
            # Source coordinates in the *unpadded* image for each output cell.
            ys = np.arange(out_h) * stride + ky - pad
            xs = np.arange(out_w) * stride + kx - pad
            valid_y = (ys >= 0) & (ys < height)
            valid_x = (xs >= 0) & (xs < width)
            if not valid_y.any() or not valid_x.any():
                continue
            yy = ys[valid_y]
            xx = xs[valid_x]
            block = x[:, yy[:, None], xx[None, :]]
            target = neg[:, ky, kx]
            sub = target[:, valid_y, :]
            sub[:, :, valid_x] = block
            target[:, valid_y, :] = sub
    return neg, (out_h, out_w)


def per_window_pool_patches(x, kernel, stride, pad=0):
    """The definition, one element at a time: window cell (ky, kx) of output
    (i, j) is the image value under it, ``-inf`` where it hangs outside."""
    channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, pad)
    patches = np.empty((channels, kernel, kernel, out_h, out_w), dtype=np.float32)
    for c in range(channels):
        for ky in range(kernel):
            for kx in range(kernel):
                for i in range(out_h):
                    for j in range(out_w):
                        y, col = i * stride + ky - pad, j * stride + kx - pad
                        inside = 0 <= y < height and 0 <= col < width
                        patches[c, ky, kx, i, j] = x[c, y, col] if inside else -np.inf
    return patches, (out_h, out_w)


@st.composite
def pooling_cases(draw):
    """(x, kernel, stride, pad) over every geometry ``pool_output_hw``
    accepts — clipped last windows and windows wholly in the padding
    included (pad may exceed the kernel)."""
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 4))
    height = draw(st.integers(max(1, kernel - 2 * pad), 9))
    width = draw(st.integers(max(1, kernel - 2 * pad), 9))
    channels = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    x = SeededRng(seed, "pool").normal_array((channels, height, width))
    return x, kernel, stride, pad


class TestPoolingWindows:
    """The slice gather returns the array the fancy-index gather returned."""

    @given(pooling_cases())
    @settings(max_examples=300, deadline=None)
    def test_pool_patches_equals_definition_and_old_gather(self, case):
        x, kernel, stride, pad = case
        patches, out_hw = pool_patches(x, kernel, stride, pad)
        expected, expected_hw = per_window_pool_patches(x, kernel, stride, pad)
        assert out_hw == expected_hw
        assert patches.dtype == np.float32
        assert np.array_equal(patches, expected)
        old, old_hw = fancy_index_pool_patches(x, kernel, stride, pad)
        assert old_hw == out_hw and np.array_equal(patches, old)

    @given(pooling_cases())
    @settings(max_examples=100, deadline=None)
    def test_pad_chw_equals_np_pad(self, case):
        x, _, _, pad = case
        padded = pad_chw(x, pad)
        expected = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), mode="constant")
        assert padded.dtype == expected.dtype
        assert np.array_equal(padded, expected)
        if pad == 0:
            assert padded is x

    @pytest.mark.parametrize("name", ["resnet-mini", "googlenet"])
    def test_zoo_outputs_unchanged_by_the_gather(self, name, monkeypatch):
        model = build_model(name)
        x = model_input(model)
        batch = np.stack([model_input(model, seed) for seed in (7, 8, 9)])
        oracle_calls = []

        def counted_oracle(*args):
            oracle_calls.append(args[1:])
            return fancy_index_pool_patches(*args)

        def outputs():
            network = model.network
            network.plan_for().memo.clear()  # run the kernels, not the memo
            return (
                network.forward(x),
                network.forward_reference(x),
                network.forward_batch(batch),
            )

        new = outputs()
        monkeypatch.setattr(tensor_module, "pool_patches", counted_oracle)
        old = outputs()
        assert oracle_calls  # the gather is looked up per call, not per plan
        for new_out, old_out in zip(new, old):
            assert new_out.dtype == old_out.dtype
            assert np.array_equal(new_out, old_out)


# -- the kernels as they were before the in-place LRN and the separable
# -- max-pool, kept verbatim as oracles ---------------------------------------


def parent_lrn(layer, x):
    """Across-channel LRN, one sample (float64 prefix sums)."""
    channels = x.shape[0]
    half = layer.local_size // 2
    squared = x.astype(np.float64) ** 2
    prefix = np.concatenate(
        [np.zeros((1,) + x.shape[1:]), np.cumsum(squared, axis=0)], axis=0
    )
    lo = np.clip(np.arange(channels) - half, 0, channels)
    hi = np.clip(np.arange(channels) + half + 1, 0, channels)
    window_sums = prefix[hi] - prefix[lo]
    scale = (
        layer.k + (layer.alpha / layer.local_size) * window_sums
    ) ** layer.beta
    return (x / scale).astype(np.float32)


def parent_lrn_batch(layer, xs):
    """LRN across a batch: the per-sample math applied along axis 1."""
    channels = xs.shape[1]
    half = layer.local_size // 2
    squared = xs.astype(np.float64) ** 2
    prefix = np.concatenate(
        [
            np.zeros((xs.shape[0], 1) + xs.shape[2:]),
            np.cumsum(squared, axis=1),
        ],
        axis=1,
    )
    lo = np.clip(np.arange(channels) - half, 0, channels)
    hi = np.clip(np.arange(channels) + half + 1, 0, channels)
    window_sums = prefix[:, hi] - prefix[:, lo]
    scale = (
        layer.k + (layer.alpha / layer.local_size) * window_sums
    ) ** layer.beta
    return (xs / scale).astype(np.float32)


def parent_max_pool_strided(x, kernel, stride, pad=0, out=None):
    """Max pooling as ``kernel²`` strided in-place maxima (no patch stack)."""
    channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, pad)
    if out is None:
        result = np.empty((channels, out_h, out_w), dtype=np.float32)
    else:
        if out.size != channels * out_h * out_w:
            raise ValueError(
                f"max_pool buffer holds {out.size} elements, need "
                f"{channels * out_h * out_w}"
            )
        result = out.reshape(channels, out_h, out_w)
    result.fill(-np.inf)
    columns = [
        _window_slices(kx - pad, stride, width, out_w) for kx in range(kernel)
    ]
    for ky in range(kernel):
        rows = _window_slices(ky - pad, stride, height, out_h)
        if rows is None:
            continue
        for cols in columns:
            if cols is not None:
                target = result[:, rows[0], cols[0]]
                np.maximum(target, x[:, rows[1], cols[1]], out=target)
    return result


def same_bits(left, right):
    """Equal dtype, shape and bit patterns (so NaN == NaN and 0.0 != -0.0)."""
    return (
        left.dtype == right.dtype == np.float32
        and left.shape == right.shape
        and np.array_equal(
            np.ascontiguousarray(left).view(np.uint32),
            np.ascontiguousarray(right).view(np.uint32),
        )
    )


@st.composite
def lrn_cases(draw):
    """(layer, xs, layout): a ``(N, C, H, W)`` batch whose values span
    1e-30 … 1e30 with ±0.0 mixed in, windows wider than the tensor included,
    laid out contiguously, as a strided view or as a slice of a flat arena."""
    layer = LRNLayer("n", local_size=draw(st.sampled_from([1, 3, 5, 7])))
    shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 40)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = (
        rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30, 30, shape)
    ).astype(np.float32)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    layout = draw(st.sampled_from(["contiguous", "strided", "arena"]))
    if layout == "strided":
        wide = np.zeros(shape[:3] + (2 * shape[3],), dtype=np.float32)
        wide[..., ::2] = values
        values = wide[..., ::2]
    elif layout == "arena":
        arena = np.zeros(values.size + 5, dtype=np.float32)
        arena[3 : 3 + values.size] = values.ravel()
        values = arena[3 : 3 + values.size].reshape(shape)
    return layer, values


@st.composite
def max_pool_cases(draw):
    """(x, kernel, stride, pad) with NaN, +inf and -inf cells."""
    kernel = draw(st.integers(1, 7))
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 3))
    height = draw(st.integers(max(1, kernel - 2 * pad), 11))
    width = draw(st.integers(max(1, kernel - 2 * pad), 11))
    channels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(size=(channels, height, width)).astype(np.float32)
    for value in (np.nan, np.inf, -np.inf):
        x[rng.random(x.shape) < 0.08] = value
    return x, kernel, stride, pad


class TestInPlaceLrnAndSeparablePool:
    """The in-place LRN and the separable max-pool return the bits the
    kernels they replaced returned."""

    @given(lrn_cases())
    @settings(max_examples=300, deadline=None)
    def test_lrn_equals_parent_kernels(self, case):
        layer, xs = case
        with np.errstate(all="ignore"):
            assert same_bits(
                tensor_module.lrn_batch(layer, xs), parent_lrn_batch(layer, xs)
            )
            assert same_bits(
                tensor_module.lrn(layer, xs[0]), parent_lrn(layer, xs[0])
            )

    @pytest.mark.parametrize(
        "shape",
        [(64, 56, 56), (192, 56, 56), (16, 14, 14), (96, 27, 27), (256, 13, 13)],
    )
    def test_lrn_equals_parent_kernels_at_zoo_shapes(self, shape):
        x = SeededRng(3, "lrn").uniform_array(shape, 0, 255)
        layer = LRNLayer("n")
        assert same_bits(tensor_module.lrn(layer, x), parent_lrn(layer, x))

    @given(max_pool_cases(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_max_pool_equals_parent_kernel_and_definition(self, case, given_out):
        x, kernel, stride, pad = case
        expected = parent_max_pool_strided(x, kernel, stride, pad)
        out = np.full(expected.size, 7.0, dtype=np.float32) if given_out else None
        pooled = max_pool_strided(x, kernel, stride, pad, out=out)
        assert same_bits(pooled, expected)
        assert same_bits(
            pooled, pool_patches(x, kernel, stride, pad)[0].max(axis=(1, 2))
        )
        if given_out:
            assert np.shares_memory(pooled, out)

    @given(max_pool_cases(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_batched_average_pool_equals_per_item(self, case, count):
        """Folding the batch into the channel axis reduces every channel as
        the per-item path does — non-finite cells (skipped by the average's
        ``isfinite`` count) included."""
        x, kernel, stride, pad = case
        rng = np.random.default_rng(count)
        xs = np.stack([x] + [rng.permuted(x, axis=0) for _ in range(count - 1)])
        layer = PoolLayer("avg", kernel, stride, pad, mode="avg")
        layer.build(x.shape, SeededRng(0, "avg"))
        step = PoolStep("avg", [(0, layer)], layer)
        out = np.empty((count,) + layer.out_shape, dtype=np.float32)
        with np.errstate(all="ignore"):
            pooled = step.run([xs], out)
            assert pooled is out
            for index in range(count):
                assert same_bits(
                    pooled[index], tensor_module.pool(layer, xs[index])
                )

    @pytest.mark.parametrize(
        "name",
        ["smallnet", "tinynet", "agenet", "resnet-mini", "googlenet"],
    )
    def test_zoo_outputs_unchanged_by_the_kernels(self, name, monkeypatch):
        model = build_model(name)
        network = model.network
        x = model_input(model)
        batch = np.stack([model_input(model, seed) for seed in (7, 8, 9)])

        oracle_calls = set()

        def counted(oracle):
            def kernel(*args, **kwargs):
                oracle_calls.add(oracle.__name__)
                return oracle(*args, **kwargs)

            return kernel

        def outputs():
            network.plan_for().memo.clear()  # run the kernels, not the memo
            return [
                network.forward(x),
                network.forward_reference(x),
                network.forward_batch(batch),
            ]

        new = outputs()
        # Kernels are looked up per call, so the memoised plans pick these up.
        monkeypatch.setattr(tensor_module, "lrn", counted(parent_lrn))
        monkeypatch.setattr(tensor_module, "lrn_batch", counted(parent_lrn_batch))
        monkeypatch.setattr(
            tensor_module, "max_pool_strided", counted(parent_max_pool_strided)
        )
        old = outputs()
        steps = network.plan_for().steps
        expected_calls = set()
        if any(step.kind == "lrn" for step in steps):
            expected_calls |= {"parent_lrn", "parent_lrn_batch"}
        if any(step.kind == "pool" and step.layer.mode == "max" for step in steps):
            expected_calls.add("parent_max_pool_strided")
        assert oracle_calls == expected_calls  # the oracles really ran
        for new_out, old_out in zip(new, old):
            assert same_bits(new_out, old_out)


class TestScratch:
    """One grow-only buffer per tag; nothing returned aliases one."""

    @staticmethod
    def aliases_scratch(array):
        return any(
            np.shares_memory(array, buffer)
            for buffer in tensor_module._SCRATCH.values()
        )

    def test_kernel_results_do_not_alias_scratch(self):
        network = Network(
            "scratch",
            [
                InputLayer((4, 9, 9)),
                ConvLayer("conv", 6, kernel=3, pad=1),
                LRNLayer("lrn"),
                PoolLayer("max", kernel=3, stride=2),
                ConvLayer("grouped", 4, kernel=3, pad=1, groups=2),
                PoolLayer("avg", kernel=2, stride=2, mode="avg"),
            ],
        )
        network.build(SeededRng(1, "scratch"))
        rng = SeededRng(2, "scratch/x")
        plan = network.plan_for()
        assert [step.kind for step in plan.steps] == [
            "conv", "lrn", "pool", "conv", "pool",
        ]
        x = rng.normal_array(network.input_shape)
        results = [plan.forward(x), plan.forward_batch(np.stack([x, x + 1]))]
        for step in plan.steps:
            x = rng.normal_array(step.layer.input_shape)
            xs = np.stack([x, x + 1])
            out = np.empty((2,) + step.out_shape, dtype=np.float32)
            results += [
                step.run([xs], out if step.arena else None),
                step.layer.forward(x),
            ]
            if step.kind == "lrn":
                results.append(tensor_module.lrn_batch(step.layer, xs))
            if step.kind == "pool":
                results.append(tensor_module.pool(step.layer, x))
        assert set(tensor_module._SCRATCH) >= {
            "cols", "lrn_prefix", "lrn_sums", "pool_rows",
        }
        assert not any(self.aliases_scratch(result) for result in results)

    def test_interleaved_kernels_give_what_they_give_alone(self):
        rng = SeededRng(4, "interleave")
        convs = []
        for index, (shape, filters, kernel) in enumerate(
            [((3, 12, 12), 5, 3), ((8, 7, 7), 4, 5)]
        ):
            layer = ConvLayer(f"c{index}", filters, kernel=kernel, pad=1)
            layer.build(shape, rng.child(f"c{index}"))
            convs.append((layer, rng.normal_array(shape)))
        lrn = LRNLayer("n")
        lrn_inputs = [rng.normal_array((7, 5, 5)), rng.normal_array((12, 3, 4))]
        tensor_module._SCRATCH.clear()
        alone = []
        for layer, x in convs:
            alone.append(layer.forward(x))
            tensor_module._SCRATCH.clear()
        for x in lrn_inputs:
            alone.append(tensor_module.lrn(lrn, x))
            tensor_module._SCRATCH.clear()
        together = []
        for _ in range(2):  # second lap runs over the other kernel's leftovers
            together = [layer.forward(x) for layer, x in reversed(convs)][::-1]
            together += [
                tensor_module.lrn(lrn, x) for x in reversed(lrn_inputs)
            ][::-1]
        for got, expected in zip(together, alone):
            assert same_bits(got, expected)

    def test_cols_scratch_holds_the_largest_request(self):
        tensor_module._SCRATCH.clear()
        largest = {}
        for name in (
            "smallnet", "tinynet", "agenet", "resnet-mini", "googlenet",
        ):
            model = build_model(name)
            plan = model.network.plan_for()
            plan.forward(model_input(model))
            model.network.forward_reference(model_input(model))
            largest[name] = max(
                4
                * step.layer.input_shape[0] // step.layer.groups
                * step.layer.kernel ** 2
                * step.out_shape[1] * step.out_shape[2]
                for step in plan.steps
                if isinstance(step, ConvStep)
            )
            assert not any(
                "col" in attribute
                for step in plan.steps
                if isinstance(step, ConvStep)
                for attribute in vars(step.layer)
            )
        assert largest["googlenet"] == 7_375_872
        assert tensor_module._SCRATCH["cols"].nbytes == max(largest.values())


class TestReferenceBitwise:
    """Plans equal the raw layer walk, bit for bit."""

    @pytest.mark.parametrize("name", ZOO_MODELS)
    def test_whole_network(self, name):
        model = build_model(name)
        x = model_input(model)
        walk = model.network.forward_reference(x)
        plan = model.network.forward(x)
        assert walk.dtype == np.float32
        assert np.array_equal(walk, plan)

    @pytest.mark.parametrize("name", ["googlenet"])
    def test_split_ranges(self, name):
        model = build_model(name)
        x = model_input(model)
        points = model.network.offload_points()
        for point in points[:: max(1, len(points) // 4)]:
            front, rear = model.split(point.index)
            split_out = rear.inference(front.inference(x))
            assert np.array_equal(split_out, model.inference(x))


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(["smallnet", "tinynet", "resnet-mini"]),
    seed=st.integers(0, 2**16),
    split_fraction=st.floats(0.0, 1.0),
)
def test_split_equivalence_fuzz(name, seed, split_fraction):
    """Random zoo model + input + split: for any model, any input and any
    offload split, the split inference equals the unsplit one bitwise."""
    model = build_model(name)
    x = model_input(model, seed=seed)
    points = model.network.offload_points()
    point = points[int(split_fraction * (len(points) - 1))]
    front, rear = model.split(point.index)
    assert np.array_equal(rear.inference(front.inference(x)), model.inference(x))


class TestNothingToSelect:
    """One kernel set: no variable picks another."""

    @pytest.mark.parametrize("value", ["tuned", "nosuch"])
    def test_backend_env_is_not_read(self, value, monkeypatch):
        """``REPRO_BACKEND`` selected the kernel registry's backend and
        ``REPRO_BACKEND_THREADS`` sized its threaded GEMM: setting either
        must not change a forward."""
        model = build_model("googlenet")
        x = model_input(model)
        unset_output = model.network.forward(x)
        monkeypatch.setenv("REPRO_BACKEND", value)
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "7")
        assert np.array_equal(build_model("googlenet").network.forward(x), unset_output)

    def test_program_reads_no_environment_variable(self):
        package = Path(repro.__file__).resolve().parent
        readers = [
            str(path.relative_to(package))
            for path in sorted(package.rglob("*.py"))
            if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
        ]
        assert readers == []
