"""Tests for the binary wire formats: snapshots and weight blobs."""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.core.snapshot import CaptureOptions, capture_snapshot, restore_snapshot
from repro.core.snapshot.wire import (
    MAGIC,
    WireFormatError,
    decode_snapshot,
    encode_snapshot,
    framing_overhead,
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
        assert decoded.texts == snapshot.texts
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
        assert snapshot.texts and not snapshot.attachments
        data = encode_snapshot(snapshot)
        encoded = len(data)
        # size_bytes accounts each tensor text as a quoted literal inside
        # the program; the container carries it as a section of its own, so
        # per text it spends a 4 B length prefix and the ``TEXT[i]`` that
        # names it where the accounted form spends two quotes — on top of
        # magic + header + the header's and program's length prefixes + CRC.
        per_text = sum(
            4 + len(f"TEXT[{index}]") - 2 for index in range(len(snapshot.texts))
        )
        header_len = int.from_bytes(data[8:12], "little")
        assert encoded - snapshot.size_bytes == 8 + 4 + header_len + 4 + per_text + 4
        assert encoded - snapshot.size_bytes == framing_overhead(snapshot)
        assert 0 < encoded - snapshot.size_bytes < 1200

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

    @staticmethod
    def _resealed(body: bytes) -> bytes:
        """A container over ``body`` whose CRC is right."""
        return body + struct.pack("<I", zlib.crc32(body))

    def test_bad_magic_detected(self):
        _model, snapshot = make_snapshot()
        body = encode_snapshot(snapshot)[:-4]
        assert body.startswith(MAGIC) and MAGIC == b"RPSNAP02"
        # the previous container version has no reader either
        for magic in (b"NOTSNAP!", b"RPSNAP01"):
            with pytest.raises(WireFormatError, match="magic"):
                decode_snapshot(self._resealed(magic + body[len(MAGIC):]))

    def test_any_flipped_bit_is_a_wire_format_error(self):
        _model, snapshot = make_snapshot(with_image=False)
        data = encode_snapshot(snapshot)
        rng = np.random.default_rng(0)
        positions = {0, 7, 8, 12, len(data) - 5, len(data) - 1}
        positions.update(rng.integers(0, len(data), 40).tolist())
        for position in sorted(positions):
            flipped = bytearray(data)
            flipped[position] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(WireFormatError):
                decode_snapshot(bytes(flipped))

    def _sections(self, snapshot):
        """The container's body split into magic + length-prefixed sections."""
        body = encode_snapshot(snapshot)[:-4]
        sections, offset = [], len(MAGIC)
        while offset < len(body):
            length = int.from_bytes(body[offset:offset + 4], "little")
            sections.append(body[offset + 4:offset + 4 + length])
            offset += 4 + length
        return sections

    def _container(self, sections):
        body = MAGIC + b"".join(
            len(section).to_bytes(4, "little") + section for section in sections
        )
        return self._resealed(body)

    def test_well_sealed_nonsense_is_a_wire_format_error(self):
        """A right CRC over a container that cannot mean a snapshot."""
        _model, snapshot = make_snapshot(with_image=False)
        header, program, *texts = self._sections(snapshot)
        assert len(texts) == len(snapshot.texts) >= 1
        # the control: taking the container apart and sealing it again
        assert decode_snapshot(self._container([header, program, *texts])).texts == (
            snapshot.texts
        )

        def with_header(**changes):
            fields = {**json.loads(header), **changes}
            return json.dumps(fields, sort_keys=True).encode("utf-8")

        no_count = json.loads(header)
        del no_count["texts"]

        rejected = {
            "non-ASCII text": [header, program, "1.0 é".encode("utf-8"), *texts[1:]],
            "text that is not UTF-8 either": [header, program, b"\xff\xfe", *texts[1:]],
            "fewer texts than the header counts": [header, program, *texts[:-1]],
            "more texts than the header counts": [header, program, *texts, b"1.0"],
            "header counts one text too many": [
                with_header(texts=len(texts) + 1), program, *texts
            ],
            "header counts one text too few": [
                with_header(texts=len(texts) - 1), program, *texts
            ],
            "header without a text count": [
                json.dumps(no_count).encode("utf-8"), program, *texts
            ],
            "text count that is null": [with_header(texts=None), program, *texts],
            "text count that is not a number": [
                with_header(texts="many"), program, *texts
            ],
            "header that is not JSON": [b"{", program, *texts],
            "header that is not an object": [b"[]", program, *texts],
            "program that is not UTF-8": [header, b"\xff", *texts],
            "trailing section": [header, program, *texts, b""],
        }
        for what, sections in rejected.items():
            with pytest.raises(WireFormatError):
                decode_snapshot(self._container(sections))
                pytest.fail(f"accepted a container with a {what}")
        with pytest.raises(WireFormatError, match="trailing"):
            decode_snapshot(self._resealed(encode_snapshot(snapshot)[:-4] + b"\0"))

    def test_attachment_that_does_not_fill_its_shape_is_rejected(self):
        _model, snapshot = make_snapshot(with_image=True)
        *front, attachment = self._sections(snapshot)
        assert len(attachment) == 4 * next(iter(snapshot.attachments.values())).size
        for payload in (attachment[:-4], attachment[:-1]):
            with pytest.raises(WireFormatError):
                decode_snapshot(self._container([*front, payload]))


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
