"""Full snapshot capture/restore/delta round trips — the paper's core loop."""

import numpy as np
import pytest

from repro.core.snapshot import (
    CaptureOptions,
    SnapshotError,
    capture_delta,
    capture_snapshot,
    fingerprint_runtime,
    restore_snapshot,
)
from repro.core.snapshot.restore import RestoreError
from repro.nn.zoo import smallnet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.events import Event
from repro.web.values import JSArray, JSObject, TypedArray, deep_equal


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
            program = f"G['t'] = TA({tensor_text!r}, (3,))\n"
            return Snapshot(app_name="x", kind="full", program=program)

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
        server.run_event(report.pending_event)
        delta = capture_delta(server, report.fingerprint)
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


class TestOptimizedPlanRoundTrip:
    """Snapshots over heaps holding compiled-plan feature tensors.

    The partial-inference app stores the front part's output feature in a
    heap global; that tensor was produced by a compiled execution plan
    (fused conv+relu into arena buffers).  A delta over it must survive
    the wire and restore to the state it was captured from.
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
        from repro.core.snapshot.wire import decode_snapshot, encode_snapshot

        source = self._partial_runtime(pixels)
        assert isinstance(source.globals["feature"], TypedArray)
        fresh = self._partial_runtime(pixels, infer=False)
        baseline = fingerprint_runtime(fresh)
        delta = capture_delta(source, baseline)
        decoded = decode_snapshot(encode_snapshot(delta))
        restore_snapshot(decoded, fresh)
        assert fingerprint_runtime(fresh) == fingerprint_runtime(source)
        assert fresh.globals["result_label"] == source.globals["result_label"]
