"""Full snapshot capture/restore/delta round trips — the paper's core loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import (
    CaptureOptions,
    SnapshotError,
    capture_delta,
    capture_snapshot,
    fingerprint_runtime,
    restore_snapshot,
)
from repro.core.snapshot.codegen import render_tensor_text
from repro.core.snapshot.restore import RestoreError
from repro.nn.zoo import smallnet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.events import Event
from repro.web.values import (
    ImageData,
    JSArray,
    JSClosure,
    JSObject,
    TypedArray,
    deep_equal,
)
from tests.test_wire_formats import detached


@pytest.fixture
def model():
    return smallnet()


@pytest.fixture
def pixels():
    return TypedArray(SeededRng(3, "px").uniform_array((3, 32, 32), 0, 255))


def loaded_client(model, pixels):
    runtime = WebRuntime("client")
    runtime.load_app(make_inference_app(model))
    runtime.globals["pending_pixels"] = pixels
    runtime.dispatch("click", "load_btn")
    return runtime


class TestFullSnapshot:
    def test_restore_reproduces_state_and_result(self, model, pixels):
        client = loaded_client(model, pixels)
        event = Event("click", "infer_btn")
        snapshot = capture_snapshot(
            client, event, CaptureOptions(include_canvas_pixels=True)
        )
        server = WebRuntime("server")
        server.install_model(model)
        report = restore_snapshot(snapshot, server)
        assert report.pending_event == event
        server.run_event(report.pending_event)
        # The server computes the same label the client would have.
        client.run_event(event)
        assert (
            server.document.get("result").text_content
            == client.document.get("result").text_content
        )

    def test_snapshot_program_is_self_contained_code(self, model, pixels):
        client = loaded_client(model, pixels)
        snapshot = capture_snapshot(client, Event("click", "infer_btn"))
        assert "RT.set_script(" in snapshot.program
        assert "RT.add_listener(" in snapshot.program
        assert "RT.set_pending('click', 'infer_btn'" in snapshot.program

    def test_listeners_restored(self, model, pixels):
        client = loaded_client(model, pixels)
        snapshot = capture_snapshot(client, Event("click", "infer_btn"))
        server = WebRuntime("server")
        server.install_model(model)
        restore_snapshot(snapshot, server)
        assert set(server.events.all_listeners()) == set(
            client.events.all_listeners()
        )

    def test_heap_values_restored_with_aliasing(self, model, pixels):
        client = loaded_client(model, pixels)
        shared = JSArray([1, 2])
        client.globals["state"] = JSObject(a=shared, b=shared, n=42)
        # conservative capture keeps everything
        snapshot = capture_snapshot(
            client, Event("click", "infer_btn"), CaptureOptions(live_only=False)
        )
        server = WebRuntime("server")
        server.install_model(model)
        restore_snapshot(snapshot, server)
        state = server.globals["state"]
        assert deep_equal(state, client.globals["state"])
        assert state["a"] is state["b"]

    def test_model_refs_travel_but_models_do_not(self, model, pixels):
        client = loaded_client(model, pixels)
        snapshot = capture_snapshot(client, Event("click", "infer_btn"))
        assert snapshot.model_refs == {"classifier": model.model_id}
        # Without the image (canvas skipped, dead globals dropped) the
        # snapshot is pure code — far smaller than the model parameters.
        assert snapshot.code_bytes < model.total_bytes / 10

    def test_restore_without_model_fails_at_execution(self, model, pixels):
        from repro.web.runtime import MissingModelError

        client = loaded_client(model, pixels)
        snapshot = capture_snapshot(
            client, Event("click", "infer_btn"), CaptureOptions(include_canvas_pixels=True)
        )
        bare_server = WebRuntime("bare")
        report = restore_snapshot(snapshot, bare_server)
        with pytest.raises(MissingModelError):
            bare_server.run_event(report.pending_event)

    def test_non_scalar_event_payload_rejected(self, model, pixels):
        client = loaded_client(model, pixels)
        bad_event = Event("click", "infer_btn", payload=JSObject())
        with pytest.raises(SnapshotError):
            capture_snapshot(client, bad_event)

    def test_live_only_drops_dead_globals(self, model, pixels):
        client = loaded_client(model, pixels)
        client.globals["dead_weight"] = TypedArray(np.ones(50_000, dtype=np.float32))
        live = capture_snapshot(client, Event("click", "infer_btn"))
        conservative = capture_snapshot(
            client, Event("click", "infer_btn"), CaptureOptions(live_only=False)
        )
        assert live.size_bytes < conservative.size_bytes / 2
        assert "dead_weight" not in live.program
        assert "dead_weight" in conservative.program

    def test_corrupt_program_raises_restore_error(self, model):
        from repro.core.snapshot.capture import Snapshot

        broken = Snapshot(app_name="x", kind="full", program="RT.nonsense()\n")
        with pytest.raises(RestoreError):
            restore_snapshot(broken, WebRuntime("server"))

    @pytest.mark.parametrize("text", ["1.0 oops 3.0", "1.0,2.0,3.0", "1.0 2.0"])
    def test_malformed_tensor_text_raises_restore_error(self, text):
        from repro.core.snapshot.capture import Snapshot

        def snapshot(tensor_text):
            program = "G['t'] = TA(TEXT[0], (3,))\n"
            return Snapshot(
                app_name="x", kind="full", program=program, texts=(tensor_text,)
            )

        server = WebRuntime("server")
        restore_snapshot(snapshot("1.0 2.0 3.0"), server)  # the control
        assert server.globals["t"].data.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(RestoreError):
            restore_snapshot(snapshot(text), WebRuntime("server"))


class TestDeltaSnapshot:
    def _offload_cycle(self, model, pixels):
        client = loaded_client(model, pixels)
        event = Event("click", "infer_btn")
        snapshot = capture_snapshot(
            client, event, CaptureOptions(include_canvas_pixels=True)
        )
        server = WebRuntime("server")
        server.install_model(model)
        report = restore_snapshot(snapshot, server)
        baseline = fingerprint_runtime(server)
        server.run_event(report.pending_event)
        delta = capture_delta(server, baseline)
        return client, server, delta

    def test_delta_is_small(self, model, pixels):
        _client, _server, delta = self._offload_cycle(model, pixels)
        assert delta.kind == "delta"
        assert delta.size_bytes < 2048

    def test_delta_applies_server_state_to_client(self, model, pixels):
        client, server, delta = self._offload_cycle(model, pixels)
        restore_snapshot(delta, client)
        assert (
            client.document.get("result").text_content
            == server.document.get("result").text_content
        )
        assert client.globals["result_label"] == server.globals["result_label"]

    def test_delta_for_wrong_app_rejected(self, model, pixels):
        _client, _server, delta = self._offload_cycle(model, pixels)
        other = WebRuntime("other")
        other.app_name = "different-app"
        with pytest.raises((RestoreError, Exception)):
            restore_snapshot(delta, other)

    def test_delta_captures_new_dom_elements(self, model, pixels):
        client = loaded_client(model, pixels)
        baseline = fingerprint_runtime(client)
        new_div = client.document.create_element("div", element_id="extra")
        client.document.body.append_child(new_div)
        new_div.append_text("added")
        delta = capture_delta(client, baseline)
        fresh = loaded_client(model, pixels)
        restore_snapshot(delta, fresh)
        assert fresh.document.get("extra").text_content == "added"

    def test_delta_captures_removed_elements(self, model, pixels):
        client = loaded_client(model, pixels)
        extra = client.document.create_element("div", element_id="temp")
        client.document.body.append_child(extra)
        baseline = fingerprint_runtime(client)
        client.document.body.remove_child(extra)
        delta = capture_delta(client, baseline)
        fresh = loaded_client(model, pixels)
        fresh.document.body.append_child(
            fresh.document.create_element("div", element_id="temp")
        )
        restore_snapshot(delta, fresh)
        assert fresh.document.find("temp") is None

    def test_delta_captures_removed_globals(self, model, pixels):
        client = loaded_client(model, pixels)
        client.globals["temp"] = 5
        baseline = fingerprint_runtime(client)
        del client.globals["temp"]
        delta = capture_delta(client, baseline)
        fresh = loaded_client(model, pixels)
        fresh.globals["temp"] = 5
        restore_snapshot(delta, fresh)
        assert "temp" not in fresh.globals

    def test_delta_captures_new_listeners(self, model, pixels):
        client = loaded_client(model, pixels)
        baseline = fingerprint_runtime(client)
        client.add_listener("result", "click", "on_inference")
        delta = capture_delta(client, baseline)
        fresh = loaded_client(model, pixels)
        restore_snapshot(delta, fresh)
        assert fresh.events.handlers_for("result", "click") == ["on_inference"]

    def test_empty_delta_when_nothing_changed(self, model, pixels):
        client = loaded_client(model, pixels)
        baseline = fingerprint_runtime(client)
        delta = capture_delta(client, baseline)
        # Only the expect_app header remains.
        assert delta.size_bytes < 128

    def test_delta_can_carry_pending_event(self, model, pixels):
        client = loaded_client(model, pixels)
        baseline = fingerprint_runtime(client)
        client.globals["z"] = 1
        delta = capture_delta(client, baseline, pending_event=Event("click", "load_btn"))
        fresh = loaded_client(model, pixels)
        report = restore_snapshot(delta, fresh)
        assert report.pending_event.event_type == "click"


def small_tensor(seed, shape=(2, 3)):
    return SeededRng(seed, "fp").normal_array(shape)


def apply_edit(runtime, edit):
    """One state change of the kind a handler makes; ``n`` picks the value."""
    kind, n = edit
    document = runtime.document
    if kind == "tensor":
        runtime.globals[f"t{n % 3}"] = TypedArray(small_tensor(n))
    elif kind == "ndarray":
        runtime.globals[f"a{n % 2}"] = small_tensor(n, (4,))
    elif kind == "image":
        # Same shape and encoded size every time: only the pixels differ.
        runtime.globals["photo"] = ImageData(
            small_tensor(n, (3, 4, 4)), encoded_bytes=500
        )
    elif kind == "shared":
        node = JSObject(weights=TypedArray(small_tensor(n)), tag=n)
        runtime.globals["left"] = JSObject(a=node, b=node)
        runtime.globals["right"] = JSArray([node, node])
    elif kind == "cycle":
        loop = JSObject(n=n)
        loop["self"] = loop
        loop["ring"] = JSArray([loop, TypedArray(small_tensor(n))])
        runtime.globals["loop"] = loop
    elif kind == "closure":
        closure = JSClosure("on_inference", {"count": n, "buf": TypedArray(small_tensor(n))})
        closure.env["me"] = closure
        runtime.globals["callback"] = closure
    elif kind == "dom_new":
        if document.find(f"d{n % 3}") is None:
            node = document.create_element("div", element_id=f"d{n % 3}", rank=n)
            document.body.append_child(node)
            node.append_text(f"node {n}")
    elif kind == "dom_remove":
        node = document.find(f"d{n % 3}")
        if node is not None:
            node.parent.remove_child(node)
    elif kind == "dom_text":
        document.get("result").set_text(f"label {n}")
    elif kind == "dom_attr":
        document.get("result").set_attribute("data-n", n)
    elif kind == "dom_draw":
        document.get("canvas").draw_image(TypedArray(small_tensor(n, (3, 4, 4))))
    elif kind == "listen":
        listener = ("result", "click", "on_inference")
        if runtime.events.has_listener(*listener):
            runtime.events.remove_listener(*listener)
        else:
            runtime.add_listener(*listener)


edits = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "tensor", "ndarray", "image", "shared", "cycle", "closure",
                "dom_new", "dom_remove", "dom_text", "dom_attr", "dom_draw",
                "listen",
            ]
        ),
        st.integers(0, 50),
    ),
    max_size=8,
)


class TestStateFingerprint:
    """A state is hashed once: the delta hands back what it diffed with."""

    @given(before=edits, after=edits)
    @settings(max_examples=60, deadline=None)
    def test_delta_returns_the_fingerprint_of_the_state_it_captured(
        self, before, after
    ):
        runtime = loaded_client(smallnet(), TypedArray(small_tensor(1, (3, 32, 32))))
        for edit in before:
            apply_edit(runtime, edit)
        baseline = fingerprint_runtime(runtime)
        for edit in after:
            apply_edit(runtime, edit)
        options = CaptureOptions(live_only=False, include_canvas_pixels=True)
        delta = capture_delta(runtime, baseline, options=options)
        assert delta.fingerprint == fingerprint_runtime(runtime)
        # Nothing is left to send against the state just captured.
        again = capture_delta(runtime, delta.fingerprint, options=options)
        assert again.program == f"RT.expect_app({runtime.app_name!r})\n"
        assert not again.attachments
        # ... and the delta carries every change: applied to a copy of the
        # baseline state, it lands on the same fingerprint.
        copy = loaded_client(smallnet(), TypedArray(small_tensor(1, (3, 32, 32))))
        for edit in before:
            apply_edit(copy, edit)
        restore_snapshot(delta, copy)
        assert fingerprint_runtime(copy) == delta.fingerprint

    def test_fingerprint_is_outside_size_and_wire_bytes(self, model, pixels):
        client = loaded_client(model, pixels)
        delta = capture_delta(client, fingerprint_runtime(client))
        assert delta.fingerprint is not None
        assert delta.size_bytes == len(delta.program)
        assert capture_snapshot(client).fingerprint is None

    @staticmethod
    def _digest_of(value):
        runtime = WebRuntime("fp")
        runtime.globals["g"] = value
        return fingerprint_runtime(runtime).global_hash["g"]

    @pytest.mark.parametrize("wrap", [TypedArray, np.asarray, ImageData])
    def test_digest_follows_tensor_bytes_and_shape(self, wrap):
        values = np.array([0.0, 1.0, -2.5, 3.25], dtype=np.float32)
        digest = self._digest_of(wrap(values))
        assert self._digest_of(wrap(values.copy())) == digest  # same bytes
        one_ulp = values.copy()
        one_ulp[1] = np.nextafter(np.float32(1.0), np.float32(2.0))
        assert self._digest_of(wrap(one_ulp)) != digest
        negative_zero = values.copy()
        negative_zero[0] = -0.0
        assert negative_zero[0] == values[0]
        assert self._digest_of(wrap(negative_zero)) != digest
        assert self._digest_of(wrap(values.reshape(2, 2))) != digest

    def test_float64_array_hashes_like_its_float32_restore(self):
        # A capture writes float32 text, so that is what a restored peer holds.
        values = np.array([0.1, 0.2, 0.3])
        assert self._digest_of(values) == self._digest_of(values.astype(np.float32))

    def test_in_place_edit_of_an_aliased_tensor_changes_every_holder(self):
        runtime = WebRuntime("fp")
        shared = TypedArray(np.zeros(4, dtype=np.float32))
        runtime.globals["a"] = JSObject(t=shared)
        runtime.globals["b"] = JSArray([shared])
        runtime.globals["c"] = TypedArray(np.zeros(4, dtype=np.float32))
        baseline = fingerprint_runtime(runtime)
        shared.data[2] = 7.0
        now = fingerprint_runtime(runtime)
        changed = {
            name for name in now.global_hash
            if now.global_hash[name] != baseline.global_hash[name]
        }
        assert changed == {"a", "b"}

    def test_replaced_image_of_same_shape_and_size_is_a_change(self):
        # Regression: the fingerprint used to hold IMG(ATTACH[0], shape,
        # encoded_bytes) — no pixels — so a new frame of the same camera
        # was invisible to the diff and never shipped.
        runtime = WebRuntime("fp")
        runtime.globals["frame"] = ImageData(small_tensor(1, (3, 4, 4)), encoded_bytes=900)
        baseline = fingerprint_runtime(runtime)
        runtime.globals["frame"] = ImageData(small_tensor(2, (3, 4, 4)), encoded_bytes=900)
        delta = capture_delta(runtime, baseline)
        assert delta.attachment_bytes == 900
        assert len(delta.attachments) == 1

    def test_fingerprints_agree_across_independent_rebuilds(self, model, pixels):
        """Two clients offloading the same state to two servers: every side
        hashes its own copy, and any pair of them diffs empty."""
        event = Event("click", "infer_btn")
        options = CaptureOptions(live_only=False, include_canvas_pixels=True)
        sides = []
        for _ in range(2):
            client = loaded_client(model, TypedArray(pixels.data.copy()))
            server = WebRuntime("server")
            server.install_model(model)
            restore_snapshot(capture_snapshot(client, event, options), server)
            sides += [client, server]
        prints = [fingerprint_runtime(side) for side in sides]
        assert all(fp == prints[0] for fp in prints[1:])
        for side in sides:
            for fp in prints:
                delta = capture_delta(side, fp)
                assert delta.program == f"RT.expect_app({side.app_name!r})\n"


class TestOptimizedPlanRoundTrip:
    """Snapshots over heaps holding compiled-plan feature tensors.

    The partial-inference app stores the front part's output feature in a
    heap global; that tensor was produced by a compiled execution plan
    (fused conv+relu into arena buffers).  A delta over it must survive
    the link — restored from a detached copy — and land on the state it
    was captured from.
    """

    def _partial_runtime(self, pixels, infer=True):
        model = smallnet()
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        runtime = WebRuntime("client")
        runtime.load_app(make_partial_inference_app(front, rear))
        runtime.globals["pending_pixels"] = pixels
        runtime.dispatch("click", "load_btn")
        if infer:
            runtime.dispatch("click", "infer_btn")
        return runtime

    def test_delta_wire_roundtrip_over_plan_features(self, pixels):
        source = self._partial_runtime(pixels)
        assert isinstance(source.globals["feature"], TypedArray)
        fresh = self._partial_runtime(pixels, infer=False)
        baseline = fingerprint_runtime(fresh)
        delta = capture_delta(source, baseline)
        received = detached(delta)
        # the feature crosses the link as a table entry, not inside the code
        assert received.texts == delta.texts and "TEXT[0]" in received.program
        assert delta.texts[0] is render_tensor_text(source.globals["feature"].data)
        restore_snapshot(received, fresh)
        assert fingerprint_runtime(fresh) == fingerprint_runtime(source)
        assert fresh.globals["result_label"] == source.globals["result_label"]
