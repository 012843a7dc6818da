"""Tests for the hot-path caches: conv weight matrices, im2col buffers,
memoized shape helpers and the tensor-text memo."""

import weakref

import numpy as np
import pytest

from repro.core.snapshot import capture_snapshot
from repro.core.snapshot.codegen import (
    render_tensor_text,
    text_cache_info,
)
from repro.nn.layers import ConvLayer
from repro.nn.tensor import conv_output_hw, im2col
from repro.sim import SeededRng
from repro.web.runtime import WebRuntime
from repro.web.values import TypedArray
from tests.memos import clear_memos


def naive_conv(layer, x):
    """Reference convolution straight off the definition."""
    weight, bias = layer.params["weight"], layer.params["bias"]
    per_in = x.shape[0] // layer.groups
    per_out = layer.num_filters // layer.groups
    cols = [
        im2col(
            x[g * per_in : (g + 1) * per_in], layer.kernel, layer.stride, layer.pad
        ).copy()
        for g in range(layer.groups)
    ]
    out = np.concatenate(
        [
            weight[g * per_out : (g + 1) * per_out].reshape(per_out, -1) @ cols[g]
            + bias[g * per_out : (g + 1) * per_out][:, None]
            for g in range(layer.groups)
        ],
        axis=0,
    )
    return out.reshape(layer.out_shape).astype(np.float32)


def built_conv(groups=1):
    layer = ConvLayer("c", 8, kernel=3, pad=1, groups=groups)
    layer.build((4, 6, 6), SeededRng(7, "w"))
    return layer


class TestConvWeightCache:
    def test_cached_forward_matches_naive(self):
        for groups in (1, 2):
            layer = built_conv(groups)
            x = SeededRng(8, "x").normal_array((4, 6, 6))
            reference = naive_conv(layer, x)
            for _ in range(3):  # repeated forwards reuse both caches
                assert np.allclose(layer.forward(x), reference, atol=1e-6)

    def test_weight_replacement_invalidates(self):
        layer = built_conv()
        x = SeededRng(9, "x").normal_array((4, 6, 6))
        before = layer.forward(x)
        layer.params["weight"] = SeededRng(10, "w2").normal_array(
            layer.params["weight"].shape
        )
        after = layer.forward(x)
        assert not np.allclose(before, after)
        assert np.allclose(after, naive_conv(layer, x), atol=1e-6)

    def test_inplace_write_after_forward_fails_loudly(self):
        layer = built_conv()
        layer.forward(SeededRng(11, "x").normal_array((4, 6, 6)))
        with pytest.raises(ValueError):
            layer.params["weight"][:] = 0.0

    def test_inplace_write_before_first_forward_allowed(self):
        layer = built_conv()
        layer.params["weight"][:] = 0.0  # the pattern existing tests use
        out = layer.forward(SeededRng(12, "x").normal_array((4, 6, 6)))
        assert np.allclose(out, 0.0)

    def test_invalidate_unfreezes(self):
        layer = built_conv()
        x = SeededRng(13, "x").normal_array((4, 6, 6))
        layer.forward(x)
        layer.invalidate_param_cache()
        layer.params["weight"][:] = 0.0
        assert np.allclose(layer.forward(x), 0.0)

    def test_init_params_resets_cache(self):
        layer = built_conv()
        x = SeededRng(14, "x").normal_array((4, 6, 6))
        layer.forward(x)
        layer.init_params(SeededRng(15, "w"))
        assert np.allclose(layer.forward(x), naive_conv(layer, x), atol=1e-6)


class TestIm2colBuffer:
    def test_buffer_reuse_matches_fresh(self):
        x = SeededRng(16, "x").normal_array((3, 8, 8))
        fresh = im2col(x, 3, 1, 1)
        buffer = np.empty(3 * 3 * 3 * 8 * 8, dtype=np.float32)
        reused = im2col(x, 3, 1, 1, out=buffer)
        assert np.array_equal(fresh, reused)
        assert reused.base is buffer  # view into the caller's scratch

    def test_wrong_buffer_size_rejected(self):
        x = SeededRng(17, "x").normal_array((3, 8, 8))
        with pytest.raises(ValueError):
            im2col(x, 3, 1, 1, out=np.empty(10, dtype=np.float32))

    def test_shape_helpers_memoized(self):
        conv_output_hw.cache_clear()
        assert conv_output_hw(224, 224, 7, 2, 3) == conv_output_hw(224, 224, 7, 2, 3)
        info = conv_output_hw.cache_info()
        assert info.hits >= 1


class TestTensorTextMemo:
    def setup_method(self):
        clear_memos()

    def test_repeat_render_hits(self):
        values = SeededRng(18, "t").normal_array((1000,))
        first = render_tensor_text(values)
        second = render_tensor_text(values.copy())  # same content, new array
        assert first == second
        info = text_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_key_is_the_float32_content_whatever_the_layout(self):
        grid = SeededRng(20, "t").normal_array((6, 8))
        view = grid[::2, 1::3]
        text = render_tensor_text(view)
        assert render_tensor_text(np.ascontiguousarray(view)) is text
        assert render_tensor_text(view.astype(np.float64).ravel()) is text
        info = text_cache_info()
        assert info["hits"] == 2 and info["misses"] == 1

    def test_different_content_misses(self):
        render_tensor_text(np.ones(10, dtype=np.float32))
        render_tensor_text(np.zeros(10, dtype=np.float32))
        assert text_cache_info()["misses"] == 2

    def test_rerendering_a_live_array_returns_the_same_str(self):
        values = SeededRng(21, "t").normal_array((256,))
        text = weakref.ref(render_tensor_text(values))
        # nothing but the array holds the text now
        assert text() is not None
        assert render_tensor_text(values) is text()
        assert render_tensor_text(values.copy()) is text()
        info = text_cache_info()
        assert info["hits"] == 2 and info["misses"] == 1
        assert info["entries"] == 1

    def test_text_dies_with_its_last_array_or_snapshot(self):
        for last in ("array", "snapshot"):
            clear_memos()
            runtime = WebRuntime()
            runtime.globals["feature"] = TypedArray(
                SeededRng(22, "t").normal_array((3, 8, 8))
            )
            snapshot = capture_snapshot(runtime)
            (text,) = snapshot.texts
            assert render_tensor_text(runtime.globals["feature"].data) is text
            text = weakref.ref(text)
            if last == "array":
                del snapshot
                assert text() is not None
                del runtime
            else:
                del runtime
                assert text() is not None
                del snapshot
            assert text() is None
            assert text_cache_info()["entries"] == 0

    def test_inplace_write_renders_afresh(self):
        values = SeededRng(23, "t").normal_array((300,))
        before = render_tensor_text(values)
        values[7] = 12.5
        values[100:110] = -3.0
        after = render_tensor_text(values)
        assert after == " ".join("%.10e" % v for v in values)
        assert after != before
        assert text_cache_info()["misses"] == 2
        # the array now holds its new text only
        before = weakref.ref(before)
        assert before() is None
        assert render_tensor_text(values) is after

    def test_roundtrip_unchanged(self):
        from repro.core.snapshot.codegen import parse_tensor_text

        values = SeededRng(19, "t").normal_array((64,))
        text = render_tensor_text(values)
        assert np.array_equal(parse_tensor_text(text, (64,)), values)
