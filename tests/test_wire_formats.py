"""Tests for the binary wire formats: snapshots and weight blobs."""

import numpy as np
import pytest

from repro.core.snapshot import CaptureOptions, capture_snapshot, restore_snapshot
from repro.core.snapshot.wire import (
    WireFormatError,
    decode_snapshot,
    encode_snapshot,
)
from repro.nn.caffemodel import (
    WeightsFormatError,
    apply_weights,
    decode_weights,
    encode_weights,
    load_model_files,
    save_model_files,
)
from repro.nn.zoo import smallnet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app
from repro.web.events import Event
from repro.web.values import ImageData, TypedArray


def make_snapshot(with_image=True):
    model = smallnet()
    runtime = WebRuntime("client")
    runtime.load_app(make_inference_app(model))
    pixels = SeededRng(0, "px").uniform_array((3, 32, 32), 0, 255)
    runtime.globals["pending_pixels"] = (
        ImageData(pixels, encoded_bytes=2000) if with_image else TypedArray(pixels)
    )
    runtime.dispatch("click", "load_btn")
    return model, capture_snapshot(
        runtime,
        Event("click", "infer_btn"),
        CaptureOptions(include_canvas_pixels=True),
    )


class TestSnapshotWire:
    def test_roundtrip_bit_exact(self):
        _model, snapshot = make_snapshot()
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.program == snapshot.program
        assert decoded.app_name == snapshot.app_name
        assert decoded.pending_event == snapshot.pending_event
        assert decoded.model_refs == snapshot.model_refs
        for index, array in snapshot.attachments.items():
            assert np.array_equal(decoded.attachments[index], array)

    def test_decoded_snapshot_still_restores(self):
        model, snapshot = make_snapshot()
        decoded = decode_snapshot(encode_snapshot(snapshot))
        server = WebRuntime("server")
        server.install_model(model)
        report = restore_snapshot(decoded, server)
        server.run_event(report.pending_event)
        assert "label" in server.document.get("result").text_content

    def test_size_accounting_matches_reality(self):
        """The analytic size model must track the real encoding."""
        _model, snapshot = make_snapshot(with_image=False)  # text pixels
        encoded = len(encode_snapshot(snapshot))
        # Text-serialized tensors live in the program, so the container is
        # just header + lengths + CRC on top of size_bytes.
        assert abs(encoded - snapshot.size_bytes) < 1200

    def test_size_counts_utf8_bytes_not_characters(self):
        model = smallnet()
        runtime = WebRuntime("client")
        runtime.load_app(make_inference_app(model))
        ascii_size = capture_snapshot(runtime).size_bytes
        runtime.document.get("result").set_text("étiquette — 猫")
        runtime.globals["greeting"] = "héllo"
        snapshot = capture_snapshot(runtime, options=CaptureOptions(live_only=False))
        assert not snapshot.program.isascii()
        assert snapshot.size_bytes == len(snapshot.program.encode("utf-8"))
        assert snapshot.size_bytes > len(snapshot.program) > ascii_size

    def test_size_preserved_through_roundtrip(self):
        _model, snapshot = make_snapshot()
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.size_bytes == snapshot.size_bytes
        assert decoded.feature_bytes == snapshot.feature_bytes

    def test_corruption_detected(self):
        _model, snapshot = make_snapshot()
        data = bytearray(encode_snapshot(snapshot))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_snapshot(bytes(data))

    def test_truncation_detected(self):
        _model, snapshot = make_snapshot()
        data = encode_snapshot(snapshot)
        with pytest.raises(WireFormatError):
            decode_snapshot(data[: len(data) // 2])

    def test_bad_magic_detected(self):
        _model, snapshot = make_snapshot()
        data = bytearray(encode_snapshot(snapshot))
        data[0:8] = b"NOTSNAP!"
        import struct
        import zlib

        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(WireFormatError):
            decode_snapshot(bytes(data))


class TestWeightsBlob:
    def test_roundtrip_bit_exact(self):
        model = smallnet(seed=5)
        blobs = decode_weights(encode_weights(model.network))
        fresh = smallnet(seed=99)  # different params
        apply_weights(fresh.network, blobs)
        x = SeededRng(1, "x").uniform_array((3, 32, 32), 0, 255)
        assert np.array_equal(fresh.inference(x), model.inference(x))

    def test_inception_blobs_roundtrip(self):
        from repro.nn.zoo import googlenet

        model = googlenet()
        blobs = decode_weights(encode_weights(model.network))
        conv1 = next(l for l in model.network.layers if l.name == "conv1_7x7_s2")
        assert np.array_equal(blobs["conv1_7x7_s2::weight"], conv1.params["weight"])
        assert any(name.startswith("inception_3a::") for name in blobs)

    def test_blob_mismatch_rejected(self):
        model = smallnet()
        blobs = decode_weights(encode_weights(model.network))
        del blobs[next(iter(blobs))]
        with pytest.raises(WeightsFormatError):
            apply_weights(model.network, blobs)

    def test_shape_mismatch_rejected(self):
        model = smallnet()
        blobs = decode_weights(encode_weights(model.network))
        key = "conv1::weight"
        blobs[key] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(WeightsFormatError):
            apply_weights(model.network, blobs)

    def test_corruption_detected(self):
        data = bytearray(encode_weights(smallnet().network))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(WeightsFormatError):
            decode_weights(bytes(data))

    def test_file_pair_roundtrip(self, tmp_path):
        model = smallnet(seed=7)
        prototxt_path, weights_path = save_model_files(model, str(tmp_path))
        loaded = load_model_files(prototxt_path, weights_path)
        x = SeededRng(2, "x").uniform_array((3, 32, 32), 0, 255)
        assert np.allclose(loaded.inference(x), model.inference(x), atol=1e-6)

    def test_blob_size_matches_param_count(self):
        model = smallnet()
        encoded = encode_weights(model.network)
        # header + params * 4 bytes + crc: header is small.
        assert abs(len(encoded) - model.network.param_count * 4) < 4096


class TestWireProperties:
    """Property tests: arbitrary captured states survive the wire."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1000, 1000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=16),
    )

    @given(
        globals_dict=st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            scalars,
            max_size=5,
        ),
        texts=st.lists(st.text(max_size=20), max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_state_roundtrips_through_bytes(self, globals_dict, texts):
        from repro.core.snapshot import CaptureOptions, capture_snapshot

        model = smallnet()
        runtime = WebRuntime("client")
        runtime.load_app(make_inference_app(model))
        runtime.globals.update(globals_dict)
        for index, text in enumerate(texts):
            div = runtime.document.create_element("div", element_id=f"extra{index}")
            runtime.document.body.append_child(div)
            div.append_text(text)
        snapshot = capture_snapshot(
            runtime, Event("click", "infer_btn"), CaptureOptions(live_only=False)
        )
        decoded = decode_snapshot(encode_snapshot(snapshot))
        restored = WebRuntime("server")
        restored.install_model(model)
        restore_snapshot(decoded, restored)
        for name, value in globals_dict.items():
            got = restored.globals[name]
            if isinstance(value, float):
                assert got == pytest.approx(value, rel=1e-6)
            else:
                assert got == value
        for index, text in enumerate(texts):
            assert restored.document.get(f"extra{index}").text_content == text
