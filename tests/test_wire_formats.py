"""Tests for what leaves the process: snapshots and weight blobs.

A snapshot crosses the link by reference and is sized analytically, so
its self-containment is checked by restoring a detached copy; the weight
blob is the one binary format, read back from user files.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.core.snapshot import (
    CaptureOptions,
    Snapshot,
    capture_snapshot,
    restore_snapshot,
)
from repro.nn.caffemodel import (
    MAGIC,
    WeightsFormatError,
    apply_weights,
    decode_weights,
    encode_weights,
    load_model_files,
    save_model_files,
)
from repro.nn.zoo import build_model, smallnet
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


def detached(snapshot: Snapshot) -> Snapshot:
    """A copy of ``snapshot`` sharing nothing with the runtime that captured
    it — what the peer at the other end of the link holds: fresh program and
    text strings, copied attachment arrays.  Attached models, metadata and
    the fingerprint travel apart from the snapshot, so the copy has none."""
    return Snapshot(
        app_name=snapshot.app_name,
        kind=snapshot.kind,
        program=snapshot.program.encode("utf-8").decode("utf-8"),
        attachments={
            index: np.array(array, copy=True)
            for index, array in snapshot.attachments.items()
        },
        texts=tuple(text.encode("ascii").decode("ascii") for text in snapshot.texts),
        pending_event=snapshot.pending_event,
        model_refs=dict(snapshot.model_refs),
        attachment_bytes=snapshot.attachment_bytes,
    )


class TestSnapshotWire:
    def test_roundtrip_bit_exact(self):
        """The detached copy is the snapshot, field for field, and shares
        no string or array with it."""
        _model, snapshot = make_snapshot(with_image=False)
        _model, with_image = make_snapshot()
        for original in (snapshot, with_image):
            copy = detached(original)
            assert copy.program == original.program
            assert copy.program is not original.program
            assert copy.texts == original.texts
            assert all(a is not b for a, b in zip(copy.texts, original.texts))
            assert copy.app_name == original.app_name
            assert copy.pending_event == original.pending_event
            assert copy.model_refs == original.model_refs
            assert copy.attachments.keys() == original.attachments.keys()
            for index, array in original.attachments.items():
                assert np.array_equal(copy.attachments[index], array)
                assert not np.shares_memory(copy.attachments[index], array)
        assert snapshot.texts and with_image.attachments

    def test_decoded_snapshot_still_restores(self):
        model, snapshot = make_snapshot()
        server = WebRuntime("server")
        server.install_model(model)
        report = restore_snapshot(detached(snapshot), server)
        server.run_event(report.pending_event)
        assert "label" in server.document.get("result").text_content

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
        copy = detached(snapshot)
        assert copy.size_bytes == snapshot.size_bytes
        assert copy.feature_bytes == snapshot.feature_bytes


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
        assert np.array_equal(loaded.inference(x), model.inference(x))

    def test_blob_size_matches_param_count(self):
        model = smallnet()
        encoded = encode_weights(model.network)
        # header + params * 4 bytes + crc: header is small.
        assert abs(len(encoded) - model.network.param_count * 4) < 4096

    @pytest.mark.parametrize("name", ["smallnet_exits", "googlenet_exits"])
    def test_exit_heads_roundtrip(self, name):
        """Every blob the set check accepts is assigned, exit heads too."""
        source = build_model(name, seed=5)
        target = build_model(name, seed=99)
        apply_weights(target.network, decode_weights(encode_weights(source.network)))
        x = SeededRng(3, "x").uniform_array(tuple(source.network.input_shape), 0, 255)
        exits = source.network.exit_points()
        assert len(exits) == 3
        for exit in exits:
            assert np.array_equal(
                target.network.at_exit(exit.index).forward(x),
                source.network.at_exit(exit.index).forward(x),
            )

    @staticmethod
    def _container(header: bytes, payload: bytes = b"", header_len=None) -> bytes:
        """A weight blob over ``header`` + ``payload`` whose CRC is right."""
        length = len(header) if header_len is None else header_len
        body = MAGIC + struct.pack("<I", length) + header + payload
        return body + struct.pack("<I", zlib.crc32(body))

    def test_well_sealed_nonsense_is_a_weights_format_error(self):
        """A right CRC over a container that cannot mean a weight blob."""
        payload = np.arange(6, dtype=np.float32).tobytes()

        def header(*records, **fields):
            fields.setdefault("blobs", list(records))
            return json.dumps({"model": "m", **fields}).encode("utf-8")

        good = {"name": "fc::weight", "shape": [2, 3]}
        # the control: the same container with a sane header decodes
        assert decode_weights(self._container(header(good), payload))[
            "fc::weight"
        ].tolist() == [[0, 1, 2], [3, 4, 5]]
        rejected = {
            "header that is not JSON": (b"{", payload),
            "header that is not UTF-8": (b"\xff\xfe", payload),
            "header that is not an object": (b"[]", payload),
            "header without blobs": (b'{"model": "m"}', payload),
            "blob list that is not a list": (header(blobs=5), payload),
            "blob list that is a string": (header(blobs="fc"), payload),
            "record that is not an object": (header(5), payload),
            "record without a shape": (header({"name": "fc::weight"}), payload),
            "record without a name": (header({"shape": [2, 3]}), payload),
            "name that is not a string": (header({"name": 7, "shape": [6]}), payload),
            "shape that is not a list": (header({**good, "shape": 6}), payload),
            "non-integer dim": (header({**good, "shape": [2, 1.5]}), payload),
            "dim that is a string": (header({**good, "shape": ["2", 3]}), payload),
            "dim that is a boolean": (header({**good, "shape": [True, 6]}), payload),
            "dim that is null": (header({**good, "shape": [None, 3]}), payload),
            "negative dim": (header({**good, "shape": [-2, -3]}), payload),
            "payload short of its shape": (header(good), payload[:-1]),
            "trailing bytes": (header(good), payload + b"\0"),
            "duplicate blob": (header(good, good), payload + payload),
        }
        for what, (head, body) in rejected.items():
            with pytest.raises(WeightsFormatError):
                decode_weights(self._container(head, body))
                pytest.fail(f"accepted a weight blob with a {what}")
        for header_len in (len(header(good)) + len(payload) + 1, 2**32 - 1):
            with pytest.raises(WeightsFormatError, match="truncated header"):
                decode_weights(self._container(header(good), payload, header_len))
        with pytest.raises(WeightsFormatError, match="magic"):
            body = b"NOTWGHT!" + self._container(header(good), payload)[8:-4]
            decode_weights(body + struct.pack("<I", zlib.crc32(body)))

    def test_any_flipped_bit_is_a_weights_format_error(self):
        data = encode_weights(smallnet().network)
        rng = np.random.default_rng(0)
        positions = {0, 7, 8, 12, len(data) - 5, len(data) - 1}
        positions.update(rng.integers(0, len(data), 40).tolist())
        for position in sorted(positions):
            flipped = bytearray(data)
            flipped[position] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(WeightsFormatError):
                decode_weights(bytes(flipped))
        for cut in (0, 11, len(data) // 2, len(data) - 1):
            with pytest.raises(WeightsFormatError):
                decode_weights(data[:cut])


class TestWireProperties:
    """Property tests: arbitrary captured states survive the link — their
    detached copy restores them."""

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
        restored = WebRuntime("server")
        restored.install_model(model)
        restore_snapshot(detached(snapshot), restored)
        for name, value in globals_dict.items():
            got = restored.globals[name]
            if isinstance(value, float):
                assert got == pytest.approx(value, rel=1e-6)
            else:
                assert got == value
        for index, text in enumerate(texts):
            assert restored.document.get(f"extra{index}").text_content == text
