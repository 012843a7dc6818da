"""Tests for feature quantization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.quantize import (
    QUANT_HEADER_BYTES,
    QuantizedTensor,
    measure_quantization_impact,
    pack_codes,
    packed_feature_bytes,
    quantization_error,
    quantize_linear,
    unpack_codes,
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


class TestPackCodes:
    """size_bytes honesty: the packed wire form really is that small."""

    @pytest.mark.parametrize("bits", list(range(1, 17)))
    def test_roundtrip_every_width(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 1 << bits, size=101, dtype=np.uint16)
        packed = pack_codes(codes, bits)
        assert packed.dtype == np.uint8
        assert packed.size == (codes.size * bits + 7) // 8
        assert np.array_equal(unpack_codes(packed, bits, codes.size), codes)

    def test_size_bytes_matches_packed_length(self):
        for bits in (1, 3, 5, 7, 8, 11, 13, 16):
            tensor = quantize_linear(
                SeededRng(bits, "q").normal_array((7, 9)), bits
            )
            assert tensor.size_bytes == len(tensor.pack()) + QUANT_HEADER_BYTES

    def test_from_packed_restores_tensor(self):
        array = SeededRng(5, "q").normal_array((3, 4, 5), 2.0)
        tensor = quantize_linear(array, 5)
        restored = QuantizedTensor.from_packed(
            tensor.pack(), tensor.scale, tensor.zero_point, 5, tensor.shape
        )
        assert np.array_equal(restored.codes, tensor.codes)
        assert np.array_equal(restored.dequantize(), tensor.dequantize())

    def test_codes_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([8], dtype=np.uint16), 3)

    def test_empty_codes(self):
        packed = pack_codes(np.array([], dtype=np.uint16), 7)
        assert packed.size == 0
        assert unpack_codes(packed, 7, 0).size == 0

    def test_packed_feature_bytes_accounting(self):
        assert packed_feature_bytes(1000, 8) == 1000 + QUANT_HEADER_BYTES
        assert packed_feature_bytes((10, 10, 10), 3) == 375 + QUANT_HEADER_BYTES
        assert packed_feature_bytes(3, 3) == 2 + QUANT_HEADER_BYTES

    @given(
        count=st.integers(0, 64),
        bits=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, count, bits, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << bits, size=count, dtype=np.uint16)
        assert np.array_equal(
            unpack_codes(pack_codes(codes, bits), bits, count), codes
        )

    def test_partition_optimizer_prices_packed_bytes(self):
        """``feature_bytes_fn`` is the one pricing hook: handed the packed
        size, the optimizer moves googlenet's slow-link split shallower."""
        from repro.eval.ablations import codec_partition_study
        from repro.eval.fig8 import make_optimizer

        optimizer = make_optimizer(
            "googlenet",
            feature_bytes_fn=lambda shape: packed_feature_bytes(shape, 8),
        )
        assert optimizer._feature_bytes((4, 5)) == packed_feature_bytes(20, 8)
        study = codec_partition_study("googlenet", bandwidth_mbps=0.5)
        assert (study.text_point, study.quantized_point) == ("5th_pool", "1st_pool")
        assert study.quantization_helps


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
