"""Tests for feature quantization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.quantize import (
    QUANT_HEADER_BYTES,
    measure_quantization_impact,
    quantization_error,
    quantize_linear,
)
from repro.nn.zoo import smallnet
from repro.sim import SeededRng


class TestQuantizeLinear:
    def test_roundtrip_within_one_step(self):
        array = SeededRng(0, "q").normal_array((100,), 10.0)
        quantized = quantize_linear(array, bits=8)
        restored = quantized.dequantize()
        assert np.abs(restored - array).max() <= quantized.scale + 1e-6

    def test_shape_preserved(self):
        array = SeededRng(1, "q").normal_array((4, 5, 6))
        assert quantize_linear(array, 8).dequantize().shape == (4, 5, 6)

    def test_constant_tensor(self):
        array = np.full((10,), 3.5, dtype=np.float32)
        restored = quantize_linear(array, 8).dequantize()
        assert np.allclose(restored, 3.5)

    def test_size_bytes_packing(self):
        array = np.zeros(1000, dtype=np.float32)
        assert quantize_linear(array, 8).size_bytes == 1000 + QUANT_HEADER_BYTES
        assert quantize_linear(array, 4).size_bytes == 500 + QUANT_HEADER_BYTES
        assert quantize_linear(array, 1).size_bytes == 125 + QUANT_HEADER_BYTES

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_linear(np.zeros(4), bits=0)
        with pytest.raises(ValueError):
            quantize_linear(np.zeros(4), bits=32)

    def test_more_bits_less_error(self):
        array = SeededRng(2, "q").normal_array((2000,), 5.0)
        errors = [quantization_error(array, bits) for bits in (2, 4, 8, 12)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.001

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=50,
        ),
        bits=st.integers(2, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_error_bounded_by_step(self, values, bits):
        array = np.array(values, dtype=np.float32)
        quantized = quantize_linear(array, bits)
        restored = quantized.dequantize()
        # Max error is half a step in theory; allow one full step for the
        # float32 rounding at huge magnitudes.
        assert np.abs(restored - array).max() <= quantized.scale * (
            1.0 + 1e-3
        ) + 1e-6

    @pytest.mark.parametrize("bits", [2, 8, 16])
    @pytest.mark.parametrize(
        "values",
        [[0.0, 1e-45], [-1e-45, 1e-45], [0.0, 1.4e-45, 2.8e-45]],
        ids=["zero-to-tiny", "around-zero", "three-subnormals"],
    )
    def test_subnormal_wide_range_round_trips(self, values, bits):
        """A range whose float32 step underflows to 0 is a constant tensor
        as far as the codes go — not a division by zero."""
        array = np.array(values, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantized = quantize_linear(array, bits)
            restored = quantized.dequantize()
        assert int(quantized.codes.max()) < (1 << bits)
        error = np.abs(restored - array).max()
        assert error <= quantized.scale
        assert error <= array.max() - array.min()
        if quantized.scale == 1.0:
            assert not quantized.codes.any()
            assert quantized.zero_point == float(array.min())

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, poison):
        array = np.array([0.5, poison, 2.0], dtype=np.float32)
        with pytest.raises(ValueError, match="nan or inf"):
            quantize_linear(array, 8)


class TestImpactMeasurement:
    def test_smallnet_8bit_agreement(self):
        model = smallnet()
        rng = SeededRng(3, "q")
        inputs = [rng.uniform_array((3, 32, 32), 0, 255) for _ in range(6)]
        impact = measure_quantization_impact(model, "1st_pool", 8, inputs)
        assert impact.agreement == 1.0
        assert impact.quantized_bytes < impact.text_bytes / 10

    def test_fewer_bits_smaller_payload(self):
        model = smallnet()
        rng = SeededRng(4, "q")
        inputs = [rng.uniform_array((3, 32, 32), 0, 255) for _ in range(2)]
        impact8 = measure_quantization_impact(model, "1st_pool", 8, inputs)
        impact2 = measure_quantization_impact(model, "1st_pool", 2, inputs)
        assert impact2.quantized_bytes < impact8.quantized_bytes
